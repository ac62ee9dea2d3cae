//! Table rendering and CSV output for the experiment harness.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A rendered experiment result: header row plus data rows.
#[derive(Clone, Debug, Default)]
pub(crate) struct Table {
    /// Table caption (figure/table id and description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(c.len());
                } else {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ =
            writeln!(out, "{}", self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Print to stdout and persist a CSV under `dir` named by `slug`.
    pub(crate) fn emit(&self, dir: &Path, slug: &str) {
        println!("{}", self.render());
        if fs::create_dir_all(dir).is_ok() {
            let _ = fs::write(dir.join(format!("{slug}.csv")), self.to_csv());
        }
    }
}

/// Format a duration in seconds with millisecond precision.
pub(crate) fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format bytes as mebibytes.
pub(crate) fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment_and_csv() {
        let mut t = Table::new("demo", &["a", "bcd"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["10".into(), "x,y".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("bcd"));
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(1024 * 1024), "1.0");
    }
}
