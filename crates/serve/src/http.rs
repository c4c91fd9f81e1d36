//! A deliberately minimal HTTP/1.1 layer over `std::net` — just enough
//! protocol for the campaign service: request-line + header parsing
//! with hard size limits, fixed-length responses, and chunked
//! transfer-encoding for the NDJSON event streams. No routing, no
//! keep-alive (every response closes the connection), no TLS; the
//! daemon fronts a trusted network position, and the offline build
//! environment rules out an HTTP dependency anyway.

use std::io::{self, BufRead, Write};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (sweep specs are small).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request: method, target path, headers, body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// The request target as sent (path + optional query).
    pub target: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target split into non-empty path segments (`/a/b` → `["a",
    /// "b"]`), query string dropped.
    pub fn path_segments(&self) -> Vec<&str> {
        let path = self.target.split('?').next().unwrap_or("");
        path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Reads one request off `reader`. `Ok(None)` means the client
    /// closed the connection before sending anything; protocol
    /// violations and oversized requests are `Err`.
    pub fn read_from(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
        let mut line = String::new();
        if read_head_line(reader, &mut line)? == 0 {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
            _ => return Err(bad_request("malformed request line")),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(bad_request("unsupported HTTP version"));
        }
        let mut headers = Vec::new();
        let mut head_bytes = line.len();
        loop {
            line.clear();
            let n = read_head_line(reader, &mut line)?;
            head_bytes += n;
            if head_bytes > MAX_HEAD_BYTES {
                return Err(bad_request("request head too large"));
            }
            if n == 0 || line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(bad_request("malformed header line"));
            };
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let mut request = Request {
            method,
            target,
            headers,
            body: Vec::new(),
        };
        let content_length = match request.header("content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| bad_request("malformed content-length"))?,
            None => 0,
        };
        if content_length > MAX_BODY_BYTES {
            return Err(bad_request("request body too large"));
        }
        if content_length > 0 {
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            request.body = body;
        }
        Ok(Some(request))
    }
}

/// Reads one CRLF (or LF) terminated head line into `buf` (terminator
/// stripped), returning the raw byte count.
fn read_head_line(reader: &mut impl BufRead, buf: &mut String) -> io::Result<usize> {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                raw.push(byte[0]);
                if raw.len() > MAX_HEAD_BYTES {
                    return Err(bad_request("head line too long"));
                }
            }
        }
    }
    let n = raw.len();
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    buf.push_str(&String::from_utf8_lossy(&raw));
    Ok(n)
}

fn bad_request(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The reason phrase for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "OK",
    }
}

/// Writes a complete fixed-length response and flushes. Every response
/// closes the connection (`Connection: close`).
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// A chunked-transfer response in progress — the write side of the
/// NDJSON event stream. Create with [`ChunkedResponse::begin`], feed
/// lines with [`ChunkedResponse::write_chunk`], and terminate with
/// [`ChunkedResponse::finish`] (the zero-length chunk).
pub struct ChunkedResponse<W: Write> {
    stream: W,
}

impl<W: Write> ChunkedResponse<W> {
    /// Writes the response head announcing chunked encoding.
    pub fn begin(mut stream: W, status: u16, content_type: &str) -> io::Result<ChunkedResponse<W>> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type,
        )?;
        stream.flush()?;
        Ok(ChunkedResponse { stream })
    }

    /// Writes one chunk and flushes, so a streaming client sees each
    /// event the moment it exists. Empty payloads are skipped (an empty
    /// chunk would terminate the stream).
    pub fn write_chunk(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", payload.len())?;
        self.stream.write_all(payload)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    pub fn finish(mut self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Decodes a chunked transfer body from `reader` until the zero-length
/// chunk — the read side of [`crate::client`] (and tests).
pub fn read_chunked_body(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        read_head_line(reader, &mut size_line)?;
        if size_line.is_empty() {
            continue; // tolerate the CRLF trailing the previous chunk
        }
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad_request("malformed chunk size"))?;
        if size == 0 {
            // Consume the terminating blank line, if present.
            let mut terminator = String::new();
            let _ = read_head_line(reader, &mut terminator);
            return Ok(body);
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk)?;
        body.extend_from_slice(&chunk);
        // The chunk's trailing CRLF is consumed by the next size-line
        // read (empty-line tolerance above).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_with_body() {
        let raw = b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = Request::read_from(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/campaigns");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert_eq!(req.path_segments(), vec!["campaigns"]);
    }

    #[test]
    fn eof_before_request_is_none() {
        let raw: &[u8] = b"";
        assert!(Request::read_from(&mut BufReader::new(raw))
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        let raw: &[u8] = b"NOT-HTTP\r\n\r\n";
        assert!(Request::read_from(&mut BufReader::new(raw)).is_err());
        let big = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(Request::read_from(&mut BufReader::new(big.as_bytes())).is_err());
    }

    #[test]
    fn path_segments_drop_query() {
        let raw = b"GET /campaigns/3/events?from=0 HTTP/1.1\r\n\r\n";
        let req = Request::read_from(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.path_segments(), vec!["campaigns", "3", "events"]);
    }

    #[test]
    fn chunked_round_trip() {
        let mut wire = Vec::new();
        {
            let mut resp = ChunkedResponse::begin(&mut wire, 200, "application/x-ndjson").unwrap();
            resp.write_chunk(b"{\"a\":1}\n").unwrap();
            resp.write_chunk(b"").unwrap(); // skipped, not a terminator
            resp.write_chunk(b"{\"b\":2}\n").unwrap();
            resp.finish().unwrap();
        }
        let text = String::from_utf8(wire.clone()).unwrap();
        let (head, rest) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        let body = read_chunked_body(&mut BufReader::new(rest.as_bytes())).unwrap();
        assert_eq!(body, b"{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn respond_writes_content_length() {
        let mut wire = Vec::new();
        respond(&mut wire, 404, "text/plain", b"nope").unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nnope"));
    }
}
