//! The traced pass: spans around calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! On `exchange` the op is replayed stage by stage through the same public
//! functions `MappingScenario::run` calls, in the same order and with the
//! same options, so each stage gets its own span. The chase workloads have
//! one stage, the chase call itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use grom::chase::{chase_with_deds, is_weakly_acyclic};
use grom::data::SymbolTable;
use grom::prelude::*;
use grom::{engine, intern_dependencies};

use crate::alloc;
use crate::workload::{Loaded, Output, Prepared, Workload};

/// One span: a call into a layer, or the whole op (`parent == None`).
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    start_allocs: u64,
    pub allocs: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Reserved up front so recording a span never allocates
            // inside a counted op.
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            start_allocs: alloc::snapshot().allocs,
            allocs: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.allocs = alloc::snapshot().allocs - s.start_allocs;
    }

    fn span<T>(&mut self, name: &'static str, op: u64, root: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, op, Some(root));
        let out = f();
        self.close(id);
        out
    }

    /// The spans as JSON lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs
            );
        }
        out
    }
}

/// What a traced op adds to the op's output.
pub struct TracedOp {
    pub output: Output,
    /// Live heap growth across the chase call (the result still held).
    pub chase_heap_growth: i64,
}

fn heap_mark() -> i64 {
    alloc::snapshot().live
}

/// One traced op, under the root span `root`.
pub fn replay(
    w: Workload,
    loaded: &Loaded,
    input: Prepared,
    t: &mut Tracer,
    op: u64,
    root: usize,
) -> Result<TracedOp, String> {
    let mode = w.mode();
    match (loaded, input) {
        (Loaded::Exchange { scenario, source }, Prepared::Exchange) => {
            replay_exchange(scenario, source, mode, t, op, root)
        }
        (loaded @ Loaded::Chase { .. }, input @ Prepared::Chase(_)) => {
            let before = heap_mark();
            let output = t.span("chase.chase", op, root, || loaded.run(w, mode, input))?;
            Ok(TracedOp {
                chase_heap_growth: heap_mark() - before,
                output,
            })
        }
        _ => unreachable!("prepare() matches the loaded kind"),
    }
}

/// `MappingScenario::run`, stage by stage (see `crates/core/src/pipeline.rs`).
fn replay_exchange(
    sc: &MappingScenario,
    source: &Instance,
    mode: SchedulerMode,
    t: &mut Tracer,
    op: u64,
    root: usize,
) -> Result<TracedOp, String> {
    let options = crate::workload::pipeline_options(mode);
    // The pinned options take these branches of `run`.
    assert!(!options.skip_typecheck && !options.skip_validation);
    assert!(options.interning && !options.core_minimize);
    let err = |e: PipelineError| e.to_string();

    t.span("core.check", op, root, || sc.validate())
        .map_err(err)?;
    t.span("core.typecheck", op, root, || sc.typecheck_source(source))
        .map_err(err)?;
    let materialized = t
        .span("engine.materialize", op, root, || {
            engine::materialize_views_tracked(&sc.source_views, source)
        })
        .map_err(|e| e.to_string())?;
    let working = t
        .span("data.absorb", op, root, || {
            let mut working = source.clone();
            working.absorb(&materialized.extents).map(|()| working)
        })
        .map_err(|e| e.to_string())?;
    let rewritten = t
        .span("rewrite.rewrite", op, root, || sc.rewrite(&options.rewrite))
        .map_err(err)?;
    let _wa = t.span("chase.wa", op, root, || is_weakly_acyclic(&rewritten.deps));
    let mut table = SymbolTable::new();
    let (interned, deps) = t.span("data.intern", op, root, || {
        let interned = working.intern_strings(&mut table);
        let deps = intern_dependencies(&rewritten.deps, &mut table);
        (interned, deps)
    });
    let before = heap_mark();
    let result = t
        .span("chase.chase", op, root, || {
            chase_with_deds(interned, &deps, &options.chase)
        })
        .map_err(|e| e.to_string())?;
    let chase_heap_growth = heap_mark() - before;
    let target = t
        .span("core.extract", op, root, || {
            sc.extract_target(&result.instance)
        })
        .map_err(err)?;
    let validation = t
        .span("core.validate", op, root, || {
            validate_solution(sc, source, &target)
        })
        .map_err(err)?;
    let output = Output {
        valid: validation.ok,
        deps_out: rewritten.deps.len(),
        deds_out: rewritten.deds().count(),
        instance: target,
        stats: result.stats,
        profile: result.profile,
    };
    // `run` frees its intermediates before it returns, inside the op.
    t.span("data.drop", op, root, move || {
        drop((working, table, deps, result.instance, rewritten))
    });
    Ok(TracedOp {
        output,
        chase_heap_growth,
    })
}

/// Wall time of each stage span under `root`, summed by name.
pub fn stage_ms(t: &Tracer, root: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in &t.spans[root + 1..] {
        if s.parent == Some(root) {
            *out.entry(s.name).or_insert(0.0) += s.ms();
        }
    }
    out
}
