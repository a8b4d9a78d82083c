//! Minimal fixed-width table rendering for experiment output, plus the
//! machine-readable bench record sink shared with CI.
//!
//! Every quantitative row the `experiments` binary prints can also be
//! [`record`]ed as a [`BenchRecord`]; when the `GROM_BENCH_JSON` env var
//! names a file, [`flush_jsonl_env`] appends one JSON line per record, the
//! format the CI regression gate (`bench_gate`) reads:
//!
//! ```text
//! {"name":"e7d/delta/width=5000","wall_ms":12.345,"tuples":85000}
//! ```

use std::fmt;
use std::io::Write;
use std::sync::{Mutex, OnceLock};

/// Env var naming the JSONL file bench timings are appended to.
pub const BENCH_JSON_ENV: &str = "GROM_BENCH_JSON";

/// One timed workload: a stable name, the wall time, and the workload's
/// headline tuple count (0 when not meaningful).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    pub name: String,
    pub wall_ms: f64,
    pub tuples: u64,
}

impl BenchRecord {
    /// Serialize as one JSON line (the shared bench format).
    pub fn to_jsonl(&self) -> String {
        // Names are generated identifiers; escape the two JSON-significant
        // characters anyway so the line stays well-formed.
        let name = self.name.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"name\":\"{}\",\"wall_ms\":{:.4},\"tuples\":{}}}",
            name, self.wall_ms, self.tuples
        )
    }
}

fn sink() -> &'static Mutex<Vec<BenchRecord>> {
    static SINK: OnceLock<Mutex<Vec<BenchRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record one timed workload for a later [`flush_jsonl_env`].
pub fn record(name: impl Into<String>, wall_ms: f64, tuples: u64) {
    sink()
        .lock()
        .expect("bench sink poisoned")
        .push(BenchRecord {
            name: name.into(),
            wall_ms,
            tuples,
        });
}

/// Append every recorded workload to the file named by `GROM_BENCH_JSON`,
/// draining the sink. Returns the path written, or `None` when the env var
/// is unset (records are dropped — the run was interactive).
pub fn flush_jsonl_env() -> std::io::Result<Option<std::path::PathBuf>> {
    let records: Vec<BenchRecord> =
        std::mem::take(&mut *sink().lock().expect("bench sink poisoned"));
    let Ok(path) = std::env::var(BENCH_JSON_ENV) else {
        return Ok(None);
    };
    let path = std::path::PathBuf::from(path);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    for r in &records {
        writeln!(f, "{}", r.to_jsonl())?;
    }
    Ok(Some(path))
}

/// A printable table: the `experiments` binary renders one per experiment,
/// in the same row format EXPERIMENTS.md records.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if c.len() > w[i] {
                    w[i] = c.len();
                }
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<width$} |", c, width = w[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for width in &w {
            write!(f, "{:-<width$}|", "", width = width + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_well_formed() {
        let r = BenchRecord {
            name: "e1/products=100".into(),
            wall_ms: 1.23456,
            tuples: 42,
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"name":"e1/products=100","wall_ms":1.2346,"tuples":42}"#
        );
        let r = BenchRecord {
            name: "odd\"name\\".into(),
            wall_ms: 0.0,
            tuples: 0,
        };
        assert_eq!(
            r.to_jsonl(),
            r#"{"name":"odd\"name\\","wall_ms":0.0000,"tuples":0}"#
        );
    }

    #[test]
    fn renders_markdown_style() {
        let mut t = Table::new("E0: smoke", &["n", "time"]);
        t.row(vec!["10".into(), "1.5ms".into()]);
        t.row(vec!["1000".into(), "150ms".into()]);
        let s = t.to_string();
        assert!(s.contains("## E0: smoke"));
        assert!(s.contains("| n    | time  |"));
        assert!(s.contains("| 1000 | 150ms |"));
    }
}
