//! Plain-text table and CSV rendering for experiment results.

use std::fmt::Write as _;

/// A rendered result table (also convertible to CSV).
///
/// ```
/// use lifeguard_experiments::report::Table;
/// let mut t = Table::new("demo", vec!["config", "fp"]);
/// t.row(vec!["SWIM".into(), "339002".into()]);
/// let text = t.render();
/// assert!(text.contains("SWIM"));
/// assert!(t.to_csv().starts_with("config,fp\n"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: Vec<&str>) -> Self {
        Table {
            title: title.into(),
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor (row, column) for tests and post-processing.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{cell:>width$}", width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats a float with `digits` decimal places, using `-` for NaN (used
/// for "no samples" cells).
pub fn fmt_f64(v: f64, digits: usize) -> String {
    if v.is_nan() {
        "-".to_owned()
    } else if v.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("t", vec!["a", "long-header"]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains("long-header"));
        assert!(lines[2].starts_with('-'));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.cell(0, 0), "xxxxxx");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new("t", vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("t", vec!["a", "b"]);
        t.row(vec!["with,comma".into(), "with\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    fn fmt_f64_special_values() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
        assert_eq!(fmt_f64(f64::INFINITY, 2), "inf");
    }
}
