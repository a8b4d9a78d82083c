//! The CI bench-regression gate.
//!
//! Usage:
//!
//! ```text
//! bench_gate <BENCH_baseline.json> <BENCH_candidate.json> [--threshold 0.25]
//! ```
//!
//! Both files hold the shared JSONL bench format (one
//! `{"name":…,"wall_ms":…}` object per line) emitted by the `experiments`
//! harness behind `GROM_BENCH_JSON`. The gate fails
//! (exit code 1) when any workload present in the baseline
//!
//! * is missing from the candidate, or
//! * regressed by more than the threshold (default 25%, override with
//!   `--threshold` or `GROM_BENCH_GATE_THRESHOLD`), unless both timings
//!   are below the noise floor (default 5 ms, override with
//!   `GROM_BENCH_GATE_MIN_MS`) where shares of a millisecond are jitter,
//!   not signal.
//!
//! Workloads only present in the candidate do not fail the gate by default
//! — new benches should not need a baseline update to land — but each one
//! is called out with a `::warning::` annotation so an ungated workload is
//! a visible, deliberate state rather than a silent skip. Set
//! `GROM_BENCH_GATE_STRICT_NEW=1` to turn those warnings into failures
//! (useful right after regenerating the baseline, when nothing should be
//! new).
//!
//! ## Cross-machine calibration
//!
//! Baseline wall times come from whatever machine generated the file, so a
//! uniformly slower runner would trip the gate with no code change. When
//! the baseline carries a `calibration` record (the fixed workload of
//! `grom_bench::calibration`, emitted by every `experiments` run), the
//! gate obtains the *local* figure for the same workload — the candidate
//! file's record when present, otherwise by running the workload itself —
//! and multiplies every baseline time by `local / baseline` (clamped to
//! [0.25, 4]) before applying the threshold. Set
//! `GROM_BENCH_GATE_NO_CALIBRATION=1` to compare raw wall times.

use std::collections::BTreeMap;
use std::process::ExitCode;

use grom::trace::json;
use grom_bench::CALIBRATION_RECORD;

/// Parse one JSONL bench line into `(name, wall_ms)`. Tolerates unknown
/// extra fields; returns `None` for blank/malformed lines.
fn parse_line(line: &str) -> Option<(String, f64)> {
    let record = json::parse(line.trim()).ok()?;
    let name = record.get("name")?.as_str()?.to_string();
    let wall_ms = record.get("wall_ms")?.as_f64()?;
    Some((name, wall_ms))
}

/// Read a JSONL bench file into name → wall_ms. Repeated names keep the
/// **minimum** — appending several harness runs to one file and comparing
/// best-of-N is the cheap way to cut scheduler jitter out of a wall-time
/// gate.
fn read_records(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for line in text.lines() {
        if let Some((name, ms)) = parse_line(line) {
            out.entry(name)
                .and_modify(|best| *best = best.min(ms))
                .or_insert(ms);
        }
    }
    if out.is_empty() {
        return Err(format!("`{path}` contains no bench records"));
    }
    Ok(out)
}

struct GateConfig {
    threshold: f64,
    min_ms: f64,
    /// Baseline times are multiplied by this machine-speed ratio before
    /// judging; 1.0 disables normalization.
    scale: f64,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    BelowNoiseFloor,
    Improved,
    Regressed,
    Missing,
}

fn judge(base_ms: f64, cand_ms: Option<f64>, cfg: &GateConfig) -> Verdict {
    let Some(cand_ms) = cand_ms else {
        return Verdict::Missing;
    };
    let base_ms = base_ms * cfg.scale;
    if base_ms < cfg.min_ms && cand_ms < cfg.min_ms {
        return Verdict::BelowNoiseFloor;
    }
    let ratio = cand_ms / base_ms.max(1e-9) - 1.0;
    if ratio > cfg.threshold {
        Verdict::Regressed
    } else if ratio < -cfg.threshold {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// The machine-speed ratio used to normalize baseline wall times: the
/// local calibration figure over the baseline's, clamped so a wildly
/// off calibration (throttled runner, debug build) cannot nullify the
/// gate. Returns 1.0 when the baseline has no calibration record.
fn calibration_scale(baseline: &BTreeMap<String, f64>, candidate: &BTreeMap<String, f64>) -> f64 {
    let Some(&base_cal) = baseline.get(CALIBRATION_RECORD) else {
        println!("calibration: baseline has no `{CALIBRATION_RECORD}` record; raw comparison");
        return 1.0;
    };
    let local_cal = match candidate.get(CALIBRATION_RECORD) {
        Some(&ms) => ms,
        None => grom_bench::calibration_ms(),
    };
    let scale = (local_cal / base_cal.max(1e-9)).clamp(0.25, 4.0);
    println!("calibration: baseline {base_cal:.2} ms, local {local_cal:.2} ms -> scale {scale:.2}");
    scale
}

/// Records whose wall time depends on how many hardware threads the
/// runner has (the `threads=N` tiers of the parallel-executor benches):
/// a machine-speed ratio measured single-threaded cannot normalize them.
fn is_core_count_dependent(name: &str) -> bool {
    name.contains("/threads=")
}

/// Candidate records the baseline knows nothing about (the calibration
/// record excluded). These run ungated, which is exactly the kind of
/// silent coverage gap that must be warned about, not skipped over.
fn unknown_records(
    baseline: &BTreeMap<String, f64>,
    candidate: &BTreeMap<String, f64>,
) -> Vec<String> {
    candidate
        .keys()
        .filter(|name| name.as_str() != CALIBRATION_RECORD && !baseline.contains_key(*name))
        .cloned()
        .collect()
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = env_f64("GROM_BENCH_GATE_THRESHOLD").unwrap_or(0.25);
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" {
            i += 1;
            threshold = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--threshold requires a number");
                std::process::exit(2);
            });
        } else {
            paths.push(args[i].clone());
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_gate <baseline.json> <candidate.json> [--threshold 0.25]");
        return ExitCode::from(2);
    }
    let (baseline, candidate) = match (read_records(&paths[0]), read_records(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let scale = if std::env::var("GROM_BENCH_GATE_NO_CALIBRATION").is_ok() {
        1.0
    } else {
        calibration_scale(&baseline, &candidate)
    };
    let cfg = GateConfig {
        threshold,
        min_ms: env_f64("GROM_BENCH_GATE_MIN_MS").unwrap_or(5.0),
        scale,
    };

    let mut failures = 0usize;
    println!(
        "bench gate: threshold +{:.0}%, noise floor {} ms, baseline scale {:.2}",
        cfg.threshold * 100.0,
        cfg.min_ms,
        cfg.scale
    );
    for (name, &base_ms) in &baseline {
        if name == CALIBRATION_RECORD {
            continue; // the normalizer itself is never gated
        }
        if is_core_count_dependent(name) {
            // Multi-threaded wall times depend on the runner's core
            // count, which the single-threaded calibration ratio cannot
            // normalize — reported, never gated.
            let shown = candidate
                .get(name)
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "-".into());
            println!("  {name}: {base_ms:.2} ms -> {shown} ms  [core-count dependent, not gated]");
            continue;
        }
        let cand_ms = candidate.get(name).copied();
        let verdict = judge(base_ms, cand_ms, &cfg);
        let shown = cand_ms
            .map(|m| format!("{m:.2}"))
            .unwrap_or_else(|| "-".into());
        let tag = match verdict {
            Verdict::Ok => "ok",
            Verdict::BelowNoiseFloor => "ok (noise floor)",
            Verdict::Improved => "improved",
            Verdict::Regressed => {
                failures += 1;
                "REGRESSED"
            }
            Verdict::Missing => {
                failures += 1;
                "MISSING"
            }
        };
        println!(
            "  {name}: {:.2} ms -> {shown} ms  [{tag}]",
            base_ms * cfg.scale
        );
    }
    let unknown = unknown_records(&baseline, &candidate);
    let strict_new = std::env::var("GROM_BENCH_GATE_STRICT_NEW").is_ok();
    for name in &unknown {
        // GitHub Actions renders `::warning::` lines as annotations, so a
        // workload running ungated is visible in the checks UI, not just
        // buried in the job log.
        println!("::warning::bench_gate: `{name}` has no baseline record and is NOT gated");
        if strict_new {
            failures += 1;
        }
    }
    if !unknown.is_empty() {
        println!(
            "  {} candidate workload(s) unknown to the baseline{}; regenerate \
             BENCH_baseline.json to gate them",
            unknown.len(),
            if strict_new {
                " (failing: GROM_BENCH_GATE_STRICT_NEW is set)"
            } else {
                ""
            }
        );
    }

    if failures > 0 {
        eprintln!(
            "bench gate FAILED: {failures} workload(s) regressed or missing. \
             If intentional, regenerate the baseline: \
             GROM_BENCH_PROFILE=fast GROM_BENCH_JSON=BENCH_baseline.json \
             cargo run --release -p grom-bench --bin experiments"
        );
        return ExitCode::from(1);
    }
    println!("bench gate passed ({} workloads)", baseline.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_shared_jsonl_format() {
        let (name, ms) =
            parse_line(r#"{"name":"e7d/delta/width=500","wall_ms":12.3456,"tuples":8500}"#)
                .unwrap();
        assert_eq!(name, "e7d/delta/width=500");
        assert!((ms - 12.3456).abs() < 1e-9);
        // Unknown fields are ignored.
        let (name, ms) =
            parse_line(r#"{"name":"e7_chase_scalability/1000","wall_ms":3.5,"iters":20}"#).unwrap();
        assert_eq!(name, "e7_chase_scalability/1000");
        assert!((ms - 3.5).abs() < 1e-9);
        // Escapes round-trip.
        let (name, _) = parse_line(r#"{"name":"odd\"name\\","wall_ms":1}"#).unwrap();
        assert_eq!(name, "odd\"name\\");
        assert!(parse_line("").is_none());
        assert!(parse_line("not json").is_none());
    }

    #[test]
    fn repeated_records_min_merge() {
        let dir = std::env::temp_dir().join(format!("bench_gate_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.json");
        std::fs::write(
            &path,
            "{\"name\":\"w\",\"wall_ms\":9.0}\n{\"name\":\"w\",\"wall_ms\":4.0}\n\
             {\"name\":\"w\",\"wall_ms\":6.0}\n",
        )
        .unwrap();
        let records = read_records(path.to_str().unwrap()).unwrap();
        assert_eq!(records["w"], 4.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdicts() {
        let cfg = GateConfig {
            threshold: 0.25,
            min_ms: 5.0,
            scale: 1.0,
        };
        assert_eq!(judge(100.0, Some(110.0), &cfg), Verdict::Ok);
        assert_eq!(judge(100.0, Some(126.0), &cfg), Verdict::Regressed);
        assert_eq!(judge(100.0, Some(60.0), &cfg), Verdict::Improved);
        assert_eq!(judge(100.0, None, &cfg), Verdict::Missing);
        // Sub-floor jitter never fails the gate…
        assert_eq!(judge(1.0, Some(4.0), &cfg), Verdict::BelowNoiseFloor);
        // …but a genuine blow-up past the floor does.
        assert_eq!(judge(1.0, Some(50.0), &cfg), Verdict::Regressed);
    }

    #[test]
    fn calibration_scale_normalizes_judgements() {
        // A machine 2x slower than the baseline's: +120% raw wall time is
        // only +10% once normalized.
        let slow = GateConfig {
            threshold: 0.25,
            min_ms: 5.0,
            scale: 2.0,
        };
        assert_eq!(judge(100.0, Some(220.0), &slow), Verdict::Ok);
        assert_eq!(judge(100.0, Some(260.0), &slow), Verdict::Regressed);
        // A faster machine tightens the budget symmetrically.
        let fast = GateConfig {
            threshold: 0.25,
            min_ms: 5.0,
            scale: 0.5,
        };
        assert_eq!(judge(100.0, Some(70.0), &fast), Verdict::Regressed);
        assert_eq!(judge(100.0, Some(55.0), &fast), Verdict::Ok);
    }

    #[test]
    fn unknown_candidate_records_are_surfaced_not_skipped() {
        let mut baseline = BTreeMap::new();
        baseline.insert("e1/known".to_string(), 10.0);
        baseline.insert(CALIBRATION_RECORD.to_string(), 5.0);
        let mut candidate = BTreeMap::new();
        candidate.insert("e1/known".to_string(), 11.0);
        candidate.insert("e10/new_workload".to_string(), 3.0);
        candidate.insert(CALIBRATION_RECORD.to_string(), 5.0);
        assert_eq!(
            unknown_records(&baseline, &candidate),
            vec!["e10/new_workload".to_string()]
        );
        // Calibration is infrastructure, never an "unknown workload".
        candidate.remove("e10/new_workload");
        assert!(unknown_records(&baseline, &candidate).is_empty());
    }

    #[test]
    fn calibration_scale_prefers_candidate_record_and_clamps() {
        let mut baseline = BTreeMap::new();
        baseline.insert(CALIBRATION_RECORD.to_string(), 10.0);
        let mut candidate = BTreeMap::new();
        candidate.insert(CALIBRATION_RECORD.to_string(), 20.0);
        assert!((calibration_scale(&baseline, &candidate) - 2.0).abs() < 1e-9);
        // Wildly off figures are clamped so the gate stays meaningful.
        candidate.insert(CALIBRATION_RECORD.to_string(), 1000.0);
        assert!((calibration_scale(&baseline, &candidate) - 4.0).abs() < 1e-9);
        candidate.insert(CALIBRATION_RECORD.to_string(), 0.1);
        assert!((calibration_scale(&baseline, &candidate) - 0.25).abs() < 1e-9);
        // No baseline record: raw comparison.
        assert!((calibration_scale(&BTreeMap::new(), &candidate) - 1.0).abs() < 1e-9);
    }
}
