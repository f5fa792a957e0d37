//! Table printing, JSON result emission and peak-RSS sampling.

use serde_json::Value;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple experiment table: named columns, stringly rows.
pub struct ExpTable {
    /// Experiment id ("fig7_testbed").
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (formatted).
    pub rows: Vec<Vec<String>>,
    /// Raw JSON rows for the results file.
    pub json_rows: Vec<Value>,
}

impl ExpTable {
    /// New empty table.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        ExpTable {
            name: name.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            json_rows: Vec::new(),
        }
    }

    /// Add one row (formatted cells + JSON record).
    pub fn push(&mut self, cells: Vec<String>, json: Value) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
        self.json_rows.push(json);
    }

    /// Print and persist.
    pub fn finish(&self) {
        print_table(&self.name, &self.columns, &self.rows);
        emit(&self.name, &self.json_rows);
    }
}

/// Print an aligned ASCII table.
pub fn print_table(title: &str, columns: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |ch: char| {
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        println!("{}", ch.to_string().repeat(total));
    };
    println!("\n== {title} ==");
    line('-');
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!(" {:<width$} |", c, width = w));
        }
        println!("{s}");
    };
    fmt_row(columns);
    line('-');
    for row in rows {
        fmt_row(row);
    }
    line('-');
}

/// Directory for machine-readable results: `<workspace>/results`.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; workspace root is two up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Write `rows` to `results/<name>.json`.
///
/// Panics if the file cannot be written: a bench that exits 0 without
/// its result would let the stale committed file pass for a regenerated
/// one.
pub fn emit(name: &str, rows: &[Value]) {
    write_rows(&results_dir(), name, rows);
}

fn write_rows(dir: &Path, name: &str, rows: &[Value]) {
    if let Err(e) = fs::create_dir_all(dir) {
        panic!("cannot create {}: {e}", dir.display());
    }
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows)
        .unwrap_or_else(|e| panic!("cannot serialize {name}: {e}"));
    if let Err(e) = fs::write(&path, json) {
        panic!("cannot write {}: {e}", path.display());
    }
    println!("[results written to {}]", path.display());
}

/// Peak resident set of this process so far, MiB (`VmHWM`; `None` where
/// `/proc/self/status` does not exist).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cannot create")]
    fn unwritable_results_dir_panics() {
        // A directory inside a regular file can never be created.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/results");
        write_rows(&dir, "unwritable", &[]);
    }
}
