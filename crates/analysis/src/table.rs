//! Plain-text rendering of experiment results: aligned console tables and
//! CSV, with no external dependencies.

use std::fmt::Write as _;

/// A simple column-aligned table builder for experiment reports.
///
/// # Examples
///
/// ```
/// use dimetrodon_analysis::Table;
///
/// let mut table = Table::new(vec!["workload", "rise"]);
/// table.row(vec!["cpuburn".to_string(), "100.0".to_string()]);
/// let text = table.render();
/// assert!(text.contains("cpuburn"));
/// assert!(text.lines().count() >= 3); // header, rule, one row
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, &w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "fmt::Write into a String cannot fail"
                )]
                let _ = write!(out, "{cell:<w$}");
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-style CSV (quoting cells that contain commas,
    /// quotes, or newlines).
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let joined: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        line(&self.headers, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1.092".into()]);
        t.row(vec!["beta".into(), "1.541".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("alpha"));
        // "value" column aligned: both data rows put the number at the
        // same offset.
        let off2 = lines[2].find("1.092").unwrap();
        let off3 = lines[3].find("1.541").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn csv_output() {
        let csv = sample().render_csv();
        assert_eq!(csv, "name,value\nalpha,1.092\nbeta,1.541\n");
    }

    #[test]
    fn csv_escapes_specials() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn len_and_empty() {
        let t = Table::new(vec!["only"]);
        assert!(t.is_empty());
        assert_eq!(sample().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        Table::new(Vec::<String>::new());
    }
}
