//! EXPERIMENTS.md quotes its CSVs verbatim.
//!
//! Every table in EXPERIMENTS.md follows a marker naming the CSV it quotes
//! and which of its columns, in table order:
//!
//! ```text
//! <!-- csv: results/ext_durability.csv cols=0,1,2,3,8,9,11 -->
//! ```
//!
//! The table's rows must be the CSV's data rows, in order, and every cell
//! the CSV's cell byte for byte; headers may be reworded. A table whose
//! numbers no checked-in CSV reproduces — Figure 3's, which time the host,
//! or a one-off measurement's — is marked `<!-- csv: unchecked -->`.

use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Splits one CSV line into fields; a field in double quotes may hold
/// commas.
fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// The cells of a markdown table row `| a | b |`.
fn table_cells(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(|c| c.trim().to_string()).collect()
}

/// A marker's CSV path and column selection, or `None` when unchecked.
fn parse_marker(marker: &str) -> Option<(String, Vec<usize>)> {
    let body = marker
        .trim()
        .strip_prefix("<!-- csv:")
        .and_then(|m| m.strip_suffix("-->"))
        .unwrap_or_else(|| panic!("malformed marker {marker:?}"));
    let words: Vec<&str> = body.split_whitespace().collect();
    let (path, spec) = match words[..] {
        ["unchecked"] => return None,
        [path, spec] => (path.to_string(), spec),
        _ => panic!("malformed marker {marker:?}"),
    };
    let cols = spec
        .strip_prefix("cols=")
        .unwrap_or_else(|| panic!("expected cols= in {marker:?}"))
        .split(',')
        .map(|c| c.parse().expect("column index"))
        .collect();
    Some((path, cols))
}

#[test]
fn every_table_quotes_its_csv_verbatim() {
    let doc = std::fs::read_to_string(Path::new(ROOT).join("EXPERIMENTS.md")).unwrap();
    let lines: Vec<&str> = doc.lines().collect();
    let mut marker: Option<(usize, &str)> = None;
    let mut tables = 0;
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if line.starts_with("<!-- csv:") {
            assert!(
                marker.is_none(),
                "EXPERIMENTS.md:{}: marker without a table",
                i + 1
            );
            marker = Some((i, line));
        }
        let is_table =
            line.starts_with('|') && lines.get(i + 1).is_some_and(|l| l.starts_with("|---"));
        if !is_table {
            i += 1;
            continue;
        }
        tables += 1;
        let (at, text) = marker
            .take()
            .unwrap_or_else(|| panic!("EXPERIMENTS.md:{}: table without a csv marker", i + 1));
        assert!(
            lines[at + 1..i].iter().all(|l| l.trim().is_empty()),
            "EXPERIMENTS.md:{}: text between the marker and its table",
            at + 1
        );
        let start = i + 2;
        let mut end = start;
        while lines.get(end).is_some_and(|l| l.starts_with('|')) {
            end += 1;
        }
        let width = table_cells(line).len();
        i = end;
        let Some((path, cols)) = parse_marker(text) else {
            continue;
        };
        let csv = std::fs::read_to_string(Path::new(ROOT).join(&path))
            .unwrap_or_else(|e| panic!("EXPERIMENTS.md:{}: {path}: {e}", at + 1));
        assert_eq!(
            cols.len(),
            width,
            "{path}: cols= names one column per table column"
        );
        let rows: Vec<Vec<String>> = csv.lines().skip(1).map(csv_fields).collect();
        let quoted = &lines[start..end];
        assert_eq!(
            quoted.len(),
            rows.len(),
            "EXPERIMENTS.md:{}: {} rows quote {path}'s {}",
            start + 1,
            quoted.len(),
            rows.len()
        );
        for (n, (row, fields)) in quoted.iter().zip(&rows).enumerate() {
            let want: Vec<&str> = cols.iter().map(|&c| fields[c].as_str()).collect();
            assert_eq!(
                table_cells(row),
                want,
                "EXPERIMENTS.md:{} against {path} row {}",
                start + n + 1,
                n + 1
            );
        }
    }
    assert!(marker.is_none(), "a marker without a table at the end");
    assert!(tables > 0, "EXPERIMENTS.md has no tables");
}
