//! Minimal aligned-text table printer for experiment output.

/// A column-aligned text table with a title, printed to stdout.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV (header + rows).
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Output sink for experiment tables: always prints; optionally mirrors
/// each table to `<dir>/<slug>.csv`.
#[derive(Debug, Clone, Default)]
pub struct Output {
    csv_dir: Option<std::path::PathBuf>,
}

impl Output {
    /// Creates a sink; `csv_dir` enables CSV mirroring.
    pub fn new(csv_dir: Option<std::path::PathBuf>) -> Self {
        Self { csv_dir }
    }

    /// The configured CSV directory, if any. Experiments that emit extra
    /// machine-readable artifacts (the chaos search's reports) write them
    /// next to the CSVs.
    pub fn csv_dir(&self) -> Option<&std::path::Path> {
        self.csv_dir.as_deref()
    }

    /// Prints `table` and, if configured, writes `<dir>/<slug>.csv`.
    pub fn emit(&self, table: &Table, slug: &str) {
        table.print();
        if let Some(dir) = &self.csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return;
            }
            let path = dir.join(format!("{slug}.csv"));
            match std::fs::write(&path, table.render_csv()) {
                Ok(()) => eprintln!("[csv] wrote {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(vec!["1".into(), "10.5".into()]);
        t.row(vec!["100".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("  x  value"));
        assert!(s.contains("100"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_bad_width() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
