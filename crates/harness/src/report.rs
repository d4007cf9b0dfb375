//! Result tables: the uniform output format of every experiment.

/// A simple rectangular result table with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment title (e.g. "Figure 7: ROUGE-2 vs KV cache budget").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each row has one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (comma-separated, no quoting — cells never contain
    /// commas).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Looks up a cell by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&str> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(|s| s.as_str())
    }
}

/// Formats a float with three decimal places (the precision the paper reports).
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_render() {
        let mut t = Table::new("Demo", &["policy", "rouge2"]);
        t.push_row(vec!["Full".into(), fmt(0.5)]);
        t.push_row(vec!["Keyformer".into(), fmt(0.45)]);
        let text = t.render_text();
        assert!(text.contains("Demo"));
        assert!(text.contains("Keyformer"));
        assert!(text.contains("0.450"));
        let csv = t.render_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(t.cell(0, "policy"), Some("Full"));
        assert_eq!(t.cell(1, "rouge2"), Some("0.450"));
        assert_eq!(t.cell(0, "missing"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn fmt_rounds_to_three_places() {
        assert_eq!(fmt(0.12345), "0.123");
        assert_eq!(fmt(2.0), "2.000");
    }
}
