//! Aligned plain-text result tables.
//!
//! The `experiments` binary regenerates the paper's figures as text series;
//! [`Table`] renders them with aligned columns so the output is readable in
//! a terminal and trivially diffable across runs.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// let mut t = rbs_core::Table::new(&["packets/batch", "cycles"]);
/// t.row(&["1", "90"]);
/// t.row(&["256", "122"]);
/// let s = t.render();
/// assert!(s.contains("packets/batch"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: &[&str]) -> Self {
        assert!(!header.is_empty(), "a table needs at least one column");
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header rule, columns right-aligned except
    /// the first.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with `digits` decimal places, trimming to a compact form.
pub fn fmt_f64(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_rejected() {
        Table::new(&[]);
    }

    #[test]
    #[should_panic(expected = "does not match header width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn alignment() {
        let mut t = Table::new(&["name", "val"]);
        t.row(&["x", "1"]);
        t.row(&["longer", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines are equally wide (trailing alignment).
        assert_eq!(lines[0].len(), lines[1].len());
        assert!(lines[3].starts_with("longer"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = Table::new(&["a"]);
        assert!(t.is_empty());
        t.row(&["x"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn row_owned_appends() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fmt_f64_digits() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(1.0, 0), "1");
    }
}
