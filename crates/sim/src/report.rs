//! Plain-text table rendering for experiment results.

use ariadne_obs::json_escape;
use std::fmt;

/// A simple column-aligned table, used by every experiment to print the rows
/// the paper's tables and figures report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header list are padded with empty
    /// cells; longer rows are accepted as-is.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        while cells.len() < self.headers.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
    }

    /// The table title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The value at (`row`, `column`), if present.
    #[must_use]
    pub fn cell(&self, row: usize, column: usize) -> Option<&str> {
        self.rows.get(row)?.get(column).map(String::as_str)
    }

    /// Find the row whose first cell equals `key`.
    #[must_use]
    pub fn row_by_key(&self, key: &str) -> Option<&[String]> {
        self.rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(key))
            .map(Vec::as_slice)
    }

    /// Parse the cell at (`row`, `column`) as a float (ignores a trailing
    /// unit suffix such as `ms`, `x` or `%`).
    #[must_use]
    pub fn cell_f64(&self, row: usize, column: usize) -> Option<f64> {
        let raw = self.cell(row, column)?;
        let trimmed: String = raw
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        trimmed.parse().ok()
    }

    /// The column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Iterate over the rows.
    pub fn rows(&self) -> impl Iterator<Item = &Vec<String>> {
        self.rows.iter()
    }

    /// Render the table as a self-contained JSON object
    /// (`{"title": ..., "headers": [...], "rows": [[...]]}`). The output is
    /// deterministic: key order is fixed and cells appear in table order,
    /// so byte-comparing two renderings is a valid equality check.
    #[must_use]
    pub fn to_json(&self) -> String {
        let strings = |cells: &[String]| -> String {
            let quoted: Vec<String> = cells.iter().map(|cell| json_escape(cell)).collect();
            format!("[{}]", quoted.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|row| strings(row)).collect();
        format!(
            "{{\"title\":{},\"headers\":{},\"rows\":[{}]}}",
            json_escape(&self.title),
            strings(&self.headers),
            rows.join(",")
        )
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        writeln!(f, "== {} ==", self.title)?;
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let width = widths.get(i).copied().unwrap_or(cell.len());
                line.push_str(&format!("{cell:<width$}  "));
            }
            writeln!(f, "{}", line.trim_end())
        };
        render_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total.max(4)))?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a floating-point value with a unit suffix, as used in tables.
#[must_use]
pub fn fmt_unit(value: f64, unit: &str) -> String {
    format!("{value:.2}{unit}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_padded_and_accessible() {
        let mut table = Table::new("demo", &["app", "latency", "ratio"]);
        table.push_row(vec!["Youtube".into(), "73.00ms".into()]);
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.cell(0, 2), Some(""));
        assert_eq!(table.cell(0, 1), Some("73.00ms"));
        assert_eq!(table.cell_f64(0, 1), Some(73.0));
        assert!(table.row_by_key("Youtube").is_some());
        assert!(table.row_by_key("Twitter").is_none());
    }

    #[test]
    fn display_aligns_columns_and_includes_title() {
        let mut table = Table::new("Figure X", &["name", "value"]);
        table.push_row(vec!["a".into(), "1".into()]);
        table.push_row(vec!["longer-name".into(), "2".into()]);
        let text = table.to_string();
        assert!(text.contains("== Figure X =="));
        assert!(text.contains("longer-name"));
        // Header row is padded to the widest cell.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("name"));
    }

    #[test]
    fn cell_f64_strips_units() {
        let mut table = Table::new("t", &["v"]);
        table.push_row(vec!["3.90x".into()]);
        table.push_row(vec!["-1.5ms".into()]);
        table.push_row(vec!["nan-garbage".into()]);
        assert_eq!(table.cell_f64(0, 0), Some(3.9));
        assert_eq!(table.cell_f64(1, 0), Some(-1.5));
        assert_eq!(table.cell_f64(2, 0), None);
    }

    #[test]
    fn fmt_unit_formats_two_decimals() {
        assert_eq!(fmt_unit(1.2345, "ms"), "1.23ms");
    }

    #[test]
    fn to_json_is_deterministic_and_escaped() {
        let mut table = Table::new("Fig \"X\"\n", &["app", "ms"]);
        table.push_row(vec!["a\\b".into(), "1.00ms".into()]);
        let json = table.to_json();
        assert_eq!(
            json,
            "{\"title\":\"Fig \\\"X\\\"\\n\",\"headers\":[\"app\",\"ms\"],\
             \"rows\":[[\"a\\\\b\",\"1.00ms\"]]}"
        );
        assert_eq!(json, table.to_json());
    }
}
