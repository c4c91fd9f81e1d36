//! Result tables: the unit of output for every experiment and campaign.
//!
//! Lives in `cobra-stats` (rather than the top-level `cobra` crate) so
//! that the campaign artifact layer — which sits *below* the experiment
//! suite — can fold finished sweep points into the same tables the
//! experiments render. The `cobra` crate re-exports this module as
//! `cobra::report`, so downstream paths are unchanged.

use std::fmt;

/// A rendered experiment result: headers, string rows, free-form notes.
///
/// Tables are the record that `cobra-exps --markdown all` prints (not
/// committed yet, see ROADMAP.md); they render as aligned plain text
/// (default), GitHub markdown, or CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id, e.g. `"F4"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must match `headers.len()`.
    pub rows: Vec<Vec<String>>,
    /// Trailing notes (fit results, verdicts, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; panics on arity mismatch (a harness bug).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity {} != header arity {} in table {}",
            row.len(),
            self.headers.len(),
            self.id
        );
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Aligned plain-text rendering.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// GitHub-flavoured markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out
    }

    /// CSV rendering (RFC-4180 quoting for cells containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with sensible experiment precision.
pub fn fmt_f(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.1}")
    } else if a >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("F0", "demo", &["graph", "n", "cover"]);
        t.push_row(vec!["K_8".into(), "8".into(), "5.2".into()]);
        t.push_row(vec!["C_16".into(), "16".into(), "40.1".into()]);
        t.note("shape holds");
        t
    }

    #[test]
    fn render_contains_everything() {
        let s = sample().render();
        assert!(s.contains("F0"));
        assert!(s.contains("graph"));
        assert!(s.contains("C_16"));
        assert!(s.contains("note: shape holds"));
        // Aligned: each data line has equal width as the header line.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn markdown_has_separator_row() {
        let md = sample().to_markdown();
        assert!(md.contains("| graph | n | cover |"));
        assert!(md.contains("| --- | --- | --- |"));
        assert!(md.contains("> shape holds"));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new("X", "t", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("X", "t", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn float_formatting_ranges() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(12345.6), "12346");
        assert_eq!(fmt_f(42.25), "42.2");
        assert_eq!(fmt_f(3.6517), "3.652");
        assert_eq!(fmt_f(0.00042), "4.20e-4");
    }
}
