//! A minimal blocking client for the campaign service — enough for the
//! `serve-mixed` benchmark workload and the integration tests: plain
//! GET/POST helpers over one `TcpStream` each, and NDJSON event
//! streaming with per-line callbacks.

use crate::http::read_chunked_body;
use cobra_util::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A fully-buffered response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        Json::parse(&self.text()).map_err(|e| format!("{e}"))
    }
}

/// One GET, fully buffered (chunked bodies are decoded).
pub fn get(addr: SocketAddr, path: &str) -> io::Result<HttpResponse> {
    request(addr, "GET", path, b"")
}

/// One POST with a body, fully buffered.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
    request(addr, "POST", path, body)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_response_head(&mut reader)?;
    let body = if chunked {
        read_chunked_body(&mut reader)?
    } else {
        let mut buf = Vec::new();
        io::Read::read_to_end(&mut reader, &mut buf)?;
        buf
    };
    Ok(HttpResponse { status, body })
}

/// Parses the status line + headers, returning (status, is-chunked).
fn read_response_head(reader: &mut impl BufRead) -> io::Result<(u16, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line: {line:?}"),
            )
        })?;
    let mut chunked = false;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.trim().eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    Ok((status, chunked))
}

/// Streams `GET <path>` as NDJSON, invoking `on_line` for each complete
/// line as it arrives (chunk boundaries need not align with lines).
/// Returns the number of lines seen.
pub fn stream_ndjson(
    addr: SocketAddr,
    path: &str,
    mut on_line: impl FnMut(&str),
) -> io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_response_head(&mut reader)?;
    if status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("event stream returned {status}"),
        ));
    }
    // Decode the whole chunked body, then split lines. The server
    // flushes per event, so a *live* consumer could decode
    // incrementally; buffering is fine for the drivers here because the
    // stream terminates at `done`.
    let body = if chunked {
        read_chunked_body(&mut reader)?
    } else {
        let mut buf = Vec::new();
        io::Read::read_to_end(&mut reader, &mut buf)?;
        buf
    };
    let text = String::from_utf8_lossy(&body);
    let mut lines = 0;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        on_line(line);
        lines += 1;
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    #[test]
    fn response_head_parses_status_and_chunking() {
        let head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
        let (status, chunked) = read_response_head(&mut BufReader::new(head.as_bytes())).unwrap();
        assert_eq!(status, 200);
        assert!(chunked);
        let head = "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\n";
        let (status, chunked) = read_response_head(&mut BufReader::new(head.as_bytes())).unwrap();
        assert_eq!(status, 404);
        assert!(!chunked);
    }

    #[test]
    fn request_type_is_shared_with_server() {
        // The client and server speak through the same parser types.
        let raw = b"POST /campaigns HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let req = Request::read_from(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"ok");
    }
}
