//! Fixed-width table formatting for the experiment binaries.
//!
//! Every bench binary prints its table in the same layout as the paper
//! (Table 2, Table 3, Figure 1's series) so EXPERIMENTS.md can juxtapose
//! paper-vs-measured rows directly.

/// A simple fixed-width text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are right-aligned; the first column left).
    ///
    /// # Panics
    /// Panics when the cell count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "cell count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data row was added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[0]));
                } else {
                    line.push_str(&format!("  {:>width$}", cell, width = widths[c]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Format a float with three decimals (the paper's Table 3 precision).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["algo", "k=10", "k=1000"]);
        t.row(vec!["OptSelect".into(), "0.34".into(), "0.98".into()]);
        t.row(vec!["xQuAD".into(), "0.43".into(), "30.18".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("algo"));
        assert!(lines[2].contains("OptSelect"));
        // All data lines have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.21349), "0.213");
    }
}
