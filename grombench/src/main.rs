//! The GROM benchmark. See `grombench/README.md`.
//!
//! ```text
//! grombench --workload <exchange|chase_delta|chase_par2|ded_search>
//!           --seed <n> --seconds <s> --trace <0|1> [--corrupt-first]
//! ```
//!
//! One process, one client in a closed loop: ops run back to back. The last
//! line of standard output is the JSON result.

mod alloc;
mod check;
mod cpu;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use grom::prelude::*;

use check::Checker;
use cpu::Clock;
use trace::Tracer;
use workload::{generate_texts, load, ms, Loaded, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A traced op's stage spans must cover this share of its root span.
const MIN_COVERAGE_PCT: f64 = 95.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_first: bool,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut corrupt_first = false;
    let mut reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--corrupt-first" => corrupt_first = true,
            "--reference" => reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        corrupt_first,
        reference,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "grombench: {e}\nusage: grombench --workload <exchange|chase_delta|chase_par2|ded_search> \
                 --seed <n> --seconds <s> --trace <0|1> [--corrupt-first]"
            );
            std::process::exit(2);
        }
    };
    // Fault injection is a knob too: ignore any `GROM_FAIL` plan.
    grom::chase::fail::clear();
    let result = if args.reference {
        print_reference(&args)
    } else if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    if let Err(e) = result {
        eprintln!("grombench: {e}");
        std::process::exit(1);
    }
}

/// `--reference` (child process): the canonical hash of the full-rescan
/// reference, and the exact fingerprint of one op under the workload's own
/// scheduler when that op's output equals the reference. Rendering happens
/// here, in a separate process, so that neither the reference nor a render
/// sets the measured process's `VmHWM`.
fn print_reference(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let texts = generate_texts(w, args.seed);
    let (loaded, _) = load(w, &texts)?;
    let reference = loaded.run(w, SchedulerMode::FullRescan, loaded.prepare())?;
    if !reference.valid {
        return Err("the full-rescan reference fails validation".into());
    }
    let hash = check::canonical_hash(&reference.instance);
    drop(reference);
    let op = loaded.run(w, w.mode(), loaded.prepare())?;
    let verified = op.valid && check::canonical_hash(&op.instance) == hash;
    let fingerprint = if verified {
        check::fingerprint(&op.instance).to_string()
    } else {
        "-".to_string()
    };
    println!("reference {hash} {fingerprint}");
    Ok(())
}

/// Run the `--reference` child and build the checker from its answer.
fn reference_checker(args: &Args) -> Result<Checker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--reference", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("reference process: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference process failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = text
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("reference "))
        .map(|l| l.split_whitespace().collect())
        .unwrap_or_default();
    let [hash, fingerprint] = fields[..] else {
        return Err(format!("unreadable reference output `{text}`"));
    };
    let hash = hash.parse().map_err(|e| format!("reference hash: {e}"))?;
    Ok(Checker::new(hash, fingerprint.parse().ok()))
}

/// Inputs generated, references computed and set-up timed: the state both
/// passes start from.
struct Ready {
    loaded: Loaded,
    checker: Checker,
    setup_s: Vec<f64>,
    parse_ms: Vec<f64>,
    read_ms: Vec<f64>,
}

/// Generate the inputs, compute the reference, then set up `SETUPS` times:
/// load through the program's loaders and run the first, cold op. Every
/// cold op is checked against the reference too.
fn prepare(args: &Args) -> Result<Ready, String> {
    let w = args.workload;
    let texts = generate_texts(w, args.seed);
    let mut checker = reference_checker(args)?;
    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let clock = Clock::start();
        let (loaded, times) = load(w, &texts)?;
        let out = loaded.run(w, w.mode(), loaded.prepare())?;
        setup_s.push(clock.elapsed().1.as_secs_f64());
        parse_ms.push(times.parse_ms);
        read_ms.push(times.read_ms);
        if !out.valid || !checker.check(&out.instance) {
            return Err("the cold op's output differs from the reference".into());
        }
        drop(out);
        last = Some(loaded);
    }
    Ok(Ready {
        loaded: last.expect("SETUPS > 0"),
        checker,
        setup_s,
        parse_ms,
        read_ms,
    })
}

/// Outcome of one untraced op.
struct OpResult {
    wall_ms: f64,
    cpu_ms: f64,
    tuples: usize,
    ok: bool,
}

/// One untraced op: prepared outside the timer, checked after it.
fn timed_op(args: &Args, ready: &mut Ready, corrupt: bool) -> OpResult {
    let w = args.workload;
    let input = ready.loaded.prepare();
    let clock = Clock::start();
    let res = std::hint::black_box(ready.loaded.run(w, w.mode(), input));
    let (wall, cpu) = clock.elapsed();
    let (wall_ms, cpu_ms) = (ms(wall), ms(cpu));
    match res {
        Ok(out) => {
            let tuples = out.instance.len();
            let instance = if corrupt {
                check::drop_one_tuple(&out.instance)
            } else {
                out.instance
            };
            OpResult {
                wall_ms,
                cpu_ms,
                tuples,
                ok: out.valid && ready.checker.check(&instance),
            }
        }
        Err(e) => {
            eprintln!("grombench: op failed: {e}");
            OpResult {
                wall_ms,
                cpu_ms,
                tuples: 0,
                ok: false,
            }
        }
    }
}

fn timed_run(args: &Args) -> Result<(), String> {
    let mut ready = prepare(args)?;
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    let mut tuples = 0usize;
    let mut failed = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while cpu.is_empty() || Instant::now() < deadline {
        let corrupt = args.corrupt_first && cpu.is_empty();
        let r = timed_op(args, &mut ready, corrupt);
        wall.push(r.wall_ms);
        cpu.push(r.cpu_ms);
        if r.ok {
            tuples += r.tuples;
        } else {
            failed += 1;
        }
    }
    let attempted = cpu.len();
    let error_rate = failed as f64 / attempted as f64;
    let (tail_level, cpu_tail) = tail(&cpu);
    let metrics = vec![
        ("setup_s", median(&ready.setup_s), "s"),
        ("op_cpu_ms_p50", median(&cpu), "ms"),
        ("op_cpu_ms_tail", cpu_tail, "ms"),
        (
            "tuples_per_cpu_s",
            tuples as f64 / (cpu.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ("ok_rate", 1.0 - error_rate, "ratio"),
    ];
    // Wall-clock figures, for reading only: on a shared machine they move
    // with the hypervisor's steal (see `cpu.rs`).
    let (_, wall_tail) = tail(&wall);
    println!(
        "{} seed={} ops={attempted} error_rate={error_rate} ({failed}/{attempted}) \
         tails=p{tail_level:.1} of n={attempted}",
        args.workload.name(),
        args.seed
    );
    println!(
        "  wall: op_ms_p50={:.4} op_ms_tail={wall_tail:.4} tuples_per_s={:.1}",
        median(&wall),
        tuples as f64 / (wall.iter().sum::<f64>() / 1e3)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<16} {value:>14.4} {unit}");
    }
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

/// Per-op record of the traced pass.
struct TracedRecord {
    op: u64,
    root_ms: f64,
    root_cpu_ms: f64,
    stages: BTreeMap<&'static str, f64>,
    /// Deterministic counters, compared by exact equality across ops.
    counts: BTreeMap<&'static str, u64>,
    evaluate_ms: f64,
    merge_ms: f64,
    substitute_ms: f64,
    busy_ms: f64,
    allocs: f64,
    heap_peak: i64,
    chase_heap_growth: i64,
}

fn traced_run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut ready = prepare(args)?;
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut records: Vec<TracedRecord> = Vec::new();
    let mut failed = 0usize;
    let mut problems: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Untraced and traced ops alternate, so the overhead compares ops run
    // under the same conditions.
    let mut ops = 0u64;
    while ops == 0 || Instant::now() < deadline {
        let op = ops;
        ops += 1;
        let r = timed_op(args, &mut ready, false);
        untraced.push(r.cpu_ms);
        untraced_wall.push(r.wall_ms);
        failed += usize::from(!r.ok);

        let input = ready.loaded.prepare();
        alloc::enable();
        let clock = Clock::start();
        let root = tracer.open("op", op, None);
        let res = trace::replay(w, &ready.loaded, input, &mut tracer, op, root);
        tracer.close(root);
        let root_cpu_ms = ms(clock.elapsed().1);
        alloc::disable();
        let traced = match res {
            Ok(t) => t,
            Err(e) => {
                eprintln!("grombench: traced op failed: {e}");
                failed += 1;
                continue;
            }
        };
        let out = &traced.output;
        // The replay must produce what `run` produces.
        if !out.valid || !ready.checker.check(&out.instance) {
            failed += 1;
        }
        let p = &out.profile;
        let s = &out.stats;
        let mut counts = BTreeMap::from([
            ("output.tuples", out.instance.len() as u64),
            ("rewrite.deps_out", out.deps_out as u64),
            ("rewrite.deds_out", out.deds_out as u64),
            ("chase.sweeps", p.sweeps),
            ("chase.rounds", s.rounds as u64),
            ("chase.tuples_inserted", s.tuples_inserted as u64),
            ("chase.nulls_invented", s.nulls_invented as u64),
            ("chase.egd_merges", s.egd_merges as u64),
            ("chase.delta_activations", s.delta_activations as u64),
            ("chase.full_rescans", s.full_rescans as u64),
            (
                "chase.delta_hits",
                p.deps.iter().map(|d| d.delta_hits).sum(),
            ),
            ("chase.tuples_produced", p.total_tuples_produced()),
            (
                "chase.dedup_hits",
                p.deps.iter().map(|d| d.dedup_hits).sum(),
            ),
            ("ded.scenarios_tried", s.scenarios_tried as u64),
            ("ded.scenarios_failed", s.scenarios_failed as u64),
            ("exec.jobs", p.groups.iter().map(|g| g.jobs).sum()),
            ("exec.groups", p.groups.len() as u64),
        ]);
        let allocs = tracer.spans[root].allocs;
        // The allocation count repeats only on one thread and without egd
        // merges: the chase's `NullMap` iterates a `RandomState` map.
        if w.sequential() && s.egd_merges == 0 {
            counts.insert("data.allocs", allocs);
        }
        let stages = trace::stage_ms(&tracer, root);
        records.push(TracedRecord {
            op,
            root_ms: tracer.spans[root].ms(),
            root_cpu_ms,
            stages,
            counts,
            evaluate_ms: p.evaluate_ns as f64 / 1e6,
            merge_ms: p.merge_ns as f64 / 1e6,
            substitute_ms: p.substitute_ns as f64 / 1e6,
            busy_ms: p.groups.iter().map(|g| g.busy_ns).sum::<u64>() as f64 / 1e6,
            allocs: allocs as f64,
            heap_peak: alloc::peak(),
            chase_heap_growth: traced.chase_heap_growth,
        });
    }
    if records.is_empty() {
        return Err("every traced op failed".into());
    }

    // Deterministic counters repeat exactly across ops.
    let first = &records[0].counts;
    for r in &records[1..] {
        for (name, v) in &r.counts {
            if first.get(name) != Some(v) {
                problems.push(format!(
                    "counter {name} differs between traced ops {} and {}: {:?} vs {v}",
                    records[0].op,
                    r.op,
                    first.get(name)
                ));
            }
        }
    }
    let coverage = records
        .iter()
        .map(|r| 100.0 * r.stages.values().sum::<f64>() / r.root_ms)
        .fold(f64::INFINITY, f64::min);
    if coverage < MIN_COVERAGE_PCT {
        problems.push(format!(
            "stage spans cover {coverage:.1}% of a traced op, below {MIN_COVERAGE_PCT}%"
        ));
    }

    let stage = |name: &str| {
        median(
            &records
                .iter()
                .map(|r| r.stages.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let field = |f: fn(&TracedRecord) -> f64| median(&records.iter().map(f).collect::<Vec<_>>());
    let count = |name: &str| first.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let threads = match w.mode() {
        SchedulerMode::Parallel { threads } => threads as f64,
        _ => 0.0,
    };
    let chase_ms = stage("chase.chase");
    let busy_ms = field(|r| r.busy_ms);
    let traced_p50 = field(|r| r.root_cpu_ms);
    let untraced_p50 = median(&untraced);
    let metrics: Vec<(&str, f64, &str)> = vec![
        ("lang.parse_ms", median(&ready.parse_ms), "ms"),
        ("data.read_instance_ms", median(&ready.read_ms), "ms"),
        ("core.check_ms", stage("core.check"), "ms"),
        ("core.typecheck_ms", stage("core.typecheck"), "ms"),
        ("engine.materialize_ms", stage("engine.materialize"), "ms"),
        ("data.absorb_ms", stage("data.absorb"), "ms"),
        ("data.drop_ms", stage("data.drop"), "ms"),
        ("rewrite.rewrite_ms", stage("rewrite.rewrite"), "ms"),
        ("rewrite.deps_out", count("rewrite.deps_out"), "count"),
        ("rewrite.deds_out", count("rewrite.deds_out"), "count"),
        ("chase.wa_ms", stage("chase.wa"), "ms"),
        ("data.intern_ms", stage("data.intern"), "ms"),
        ("chase.chase_ms", chase_ms, "ms"),
        ("chase.evaluate_ms", field(|r| r.evaluate_ms), "ms"),
        ("chase.merge_ms", field(|r| r.merge_ms), "ms"),
        ("chase.substitute_ms", field(|r| r.substitute_ms), "ms"),
        ("chase.sweeps", count("chase.sweeps"), "count"),
        ("chase.rounds", count("chase.rounds"), "count"),
        (
            "chase.tuples_inserted",
            count("chase.tuples_inserted"),
            "count",
        ),
        (
            "chase.nulls_invented",
            count("chase.nulls_invented"),
            "count",
        ),
        ("chase.egd_merges", count("chase.egd_merges"), "count"),
        (
            "chase.delta_activations",
            count("chase.delta_activations"),
            "count",
        ),
        ("chase.full_rescans", count("chase.full_rescans"), "count"),
        (
            "chase.delta_hit_pct",
            100.0 * ratio(count("chase.delta_hits"), count("chase.delta_activations")),
            "%",
        ),
        (
            "chase.dedup_ratio",
            ratio(
                count("chase.dedup_hits"),
                count("chase.dedup_hits") + count("chase.tuples_produced"),
            ),
            "ratio",
        ),
        ("exec.busy_ms", busy_ms, "ms"),
        (
            "exec.idle_ms",
            (threads * field(|r| r.evaluate_ms) - busy_ms).max(0.0),
            "ms",
        ),
        ("exec.jobs", count("exec.jobs"), "count"),
        ("exec.groups", count("exec.groups"), "count"),
        ("ded.scenarios_tried", count("ded.scenarios_tried"), "count"),
        (
            "ded.scenarios_failed",
            count("ded.scenarios_failed"),
            "count",
        ),
        (
            "ded.ms_per_scenario",
            ratio(chase_ms, count("ded.scenarios_tried")),
            "ms",
        ),
        ("core.extract_ms", stage("core.extract"), "ms"),
        ("core.validate_ms", stage("core.validate"), "ms"),
        (
            "data.heap_peak_mb",
            field(|r| r.heap_peak as f64) / (1024.0 * 1024.0),
            "MB",
        ),
        (
            "data.heap_bytes_per_tuple",
            ratio(
                field(|r| r.chase_heap_growth as f64),
                count("chase.tuples_inserted"),
            ),
            "B/tuple",
        ),
        ("data.allocs", field(|r| r.allocs), "count"),
        (
            "trace.overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
        ),
        ("trace.coverage_pct", coverage, "%"),
        ("trace.untraced_cpu_ms", untraced_p50, "ms"),
        ("trace.untraced_wall_ms", median(&untraced_wall), "ms"),
    ];

    write_trace_file(args, &tracer, &records, &metrics)?;
    for p in &problems {
        eprintln!("grombench: {p}");
    }
    println!(
        "{} seed={} traced ops={} untraced ops={}",
        w.name(),
        args.seed,
        records.len(),
        untraced.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    let attempted = records.len() + untraced.len();
    let correct = failed == 0 && problems.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

/// Spans, count records and per-layer metrics of a traced run, as JSON
/// lines under `grombench/out/`.
fn write_trace_file(
    args: &Args,
    tracer: &Tracer,
    records: &[TracedRecord],
    metrics: &[(&str, f64, &str)],
) -> Result<(), String> {
    let mut text = tracer.render();
    for r in records {
        for (name, v) in &r.counts {
            text.push_str(&format!(
                "{{\"kind\":\"count\",\"op\":{},\"name\":\"{name}\",\"value\":{v}}}\n",
                r.op
            ));
        }
    }
    for (name, value, unit) in metrics {
        text.push_str(&format!(
            "{{\"kind\":\"metric\",\"name\":\"{name}\",\"value\":{},\"unit\":\"{unit}\"}}\n",
            json_number(*value)
        ));
    }
    let dir = std::path::Path::new("grombench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten ops beyond it, i.e. the
/// eleventh-slowest op, and that percentile. Below eleven ops, the median.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (50.0, median(xs));
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
