//! The per-run [`Recorder`]: aggregates a [`ChaseProfile`] and, when a
//! sink is attached, streams one JSONL event per activation / merge /
//! sweep plus `run_start` / `run_end` markers.
//!
//! Profiling is always on — the cost is a couple of `Instant` reads per
//! activation plus counter adds; event *assembly* only happens when
//! [`TraceHandle::is_active`] holds. Each chase job fills a
//! [`WorkerRecorder`] (a plain `Send` buffer of activation and substitution
//! records) and the driver folds them in deterministic job order at the
//! sweep barrier via [`Recorder::merge_worker`].

use std::time::Instant;

use crate::json::JsonObject;
use crate::profile::{ChaseProfile, DepProfile, GroupProfile};
use crate::sink::TraceHandle;

/// How an activation evaluated its premise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// Against the full instance.
    Full,
    /// Seeded from delta tuples.
    Delta,
}

/// One dependency activation, as observed by the engine.
#[derive(Debug, Clone, Copy)]
pub struct ActivationRecord {
    /// Dependency index (into the run's declaration-order list).
    pub dep: usize,
    pub kind: ActivationKind,
    /// Delta tuples seeded (0 for full rescans).
    pub seeded: u64,
    /// Violating matches found.
    pub violations: u64,
    /// Tuples actually inserted by the repairs.
    pub tuples: u64,
    /// Equality obligations recorded.
    pub obligations: u64,
    /// Duplicate-insert rejections (parallel ownership views only).
    pub dedup_hits: u64,
    /// Wall time of the activation.
    pub wall_ns: u64,
}

/// One event a job observed, buffered until the sweep barrier.
#[derive(Debug, Clone, Copy)]
enum JobEvent {
    Activation(ActivationRecord),
    /// A null-substitution pass: `(resolved, changed, wall_ns)`, as in
    /// [`Recorder::substitution`].
    Substitution(usize, usize, u64),
}

/// A job-local, `Send` buffer of activation and substitution records; the
/// pool half of the recorder. Replayed at the barrier in deterministic job
/// order, each job's events in observation order.
#[derive(Debug, Default)]
pub struct WorkerRecorder {
    events: Vec<JobEvent>,
}

impl WorkerRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer one activation.
    pub fn record(&mut self, rec: ActivationRecord) {
        self.events.push(JobEvent::Activation(rec));
    }

    /// Buffer one null-substitution pass (a job that owns the whole
    /// instance flushes its pending merges mid-sweep).
    pub fn substitution(&mut self, resolved: usize, changed: usize, wall_ns: u64) {
        self.events
            .push(JobEvent::Substitution(resolved, changed, wall_ns));
    }
}

/// The per-run aggregator and event emitter.
#[derive(Debug)]
pub struct Recorder {
    profile: ChaseProfile,
    trace: TraceHandle,
    started: Instant,
    // Accumulators for the sweep in flight; reset by `end_sweep`.
    sweep_eval_ns: u64,
    sweep_activations: u64,
    sweep_substitute_ns: u64,
    sweep_merges: u64,
}

impl Recorder {
    /// Start a run over `names` (declaration order) in `mode`; emits the
    /// `run_start` event.
    pub fn new(names: &[String], mode: &str, trace: &TraceHandle) -> Self {
        let profile = ChaseProfile {
            mode: mode.to_string(),
            deps: names
                .iter()
                .map(|n| DepProfile {
                    name: n.clone(),
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        };
        if trace.is_active() {
            let mut obj = JsonObject::new();
            obj.str("event", "run_start")
                .str("mode", mode)
                .usize("deps", names.len());
            trace.emit(&obj.finish());
        }
        Self {
            profile,
            trace: trace.clone(),
            started: Instant::now(),
            sweep_eval_ns: 0,
            sweep_activations: 0,
            sweep_substitute_ns: 0,
            sweep_merges: 0,
        }
    }

    /// Record one activation observed during `sweep`.
    pub fn activation(&mut self, sweep: u64, rec: &ActivationRecord) {
        let d = &mut self.profile.deps[rec.dep];
        d.activations += 1;
        match rec.kind {
            ActivationKind::Full => d.full_rescans += 1,
            ActivationKind::Delta => {
                d.delta_activations += 1;
                if rec.violations > 0 {
                    d.delta_hits += 1;
                }
            }
        }
        d.delta_tuples_seeded += rec.seeded;
        d.violations += rec.violations;
        d.tuples_produced += rec.tuples;
        d.obligations += rec.obligations;
        d.dedup_hits += rec.dedup_hits;
        d.wall_ns += rec.wall_ns;
        self.sweep_eval_ns += rec.wall_ns;
        self.sweep_activations += 1;
        if self.trace.is_active() {
            let group = self.profile.deps[rec.dep].group;
            let mut obj = JsonObject::new();
            obj.str("event", "activation")
                .u64("sweep", sweep)
                .str("dep", &self.profile.deps[rec.dep].name)
                .str(
                    "kind",
                    match rec.kind {
                        ActivationKind::Full => "full",
                        ActivationKind::Delta => "delta",
                    },
                )
                .u64("seeded", rec.seeded)
                .u64("violations", rec.violations)
                .u64("tuples", rec.tuples)
                .u64("obligations", rec.obligations)
                .u64("dedup_hits", rec.dedup_hits)
                .u64("wall_us", rec.wall_ns / 1_000);
            if let Some(g) = group {
                obj.usize("group", g);
            }
            self.trace.emit(&obj.finish());
        }
    }

    /// Record one null-substitution pass applied during `sweep`:
    /// `resolved` null bindings flattened, `changed` relations rewritten.
    pub fn substitution(&mut self, sweep: u64, resolved: usize, changed: usize, wall_ns: u64) {
        self.profile.substitute_ns += wall_ns;
        self.profile.substitution_passes += 1;
        self.sweep_substitute_ns += wall_ns;
        self.sweep_merges += 1;
        if self.trace.is_active() {
            let mut obj = JsonObject::new();
            obj.str("event", "merge")
                .u64("sweep", sweep)
                .usize("resolved", resolved)
                .usize("changed_relations", changed)
                .u64("substitute_us", wall_ns / 1_000);
            self.trace.emit(&obj.finish());
        }
    }

    /// Close out `sweep`. `evaluate_ns` overrides the evaluate-phase wall
    /// (parallel mode: pool wall time); `None` uses the sum of activation
    /// walls. `merge_ns` is barrier-merge wall (0 in sequential modes).
    /// Sweeps with no activity are not counted and emit nothing.
    pub fn end_sweep(&mut self, sweep: u64, evaluate_ns: Option<u64>, merge_ns: u64) {
        let eval = evaluate_ns.unwrap_or(self.sweep_eval_ns);
        let active = self.sweep_activations > 0 || self.sweep_merges > 0 || merge_ns > 0;
        if active {
            self.profile.sweeps += 1;
            self.profile.evaluate_ns += eval;
            self.profile.merge_ns += merge_ns;
            if self.trace.is_active() {
                let mut obj = JsonObject::new();
                obj.str("event", "sweep")
                    .u64("sweep", sweep)
                    .u64("activations", self.sweep_activations)
                    .u64("evaluate_us", eval / 1_000)
                    .u64("merge_us", merge_ns / 1_000)
                    .u64("substitute_us", self.sweep_substitute_ns / 1_000);
                self.trace.emit(&obj.finish());
            }
        }
        self.sweep_eval_ns = 0;
        self.sweep_activations = 0;
        self.sweep_substitute_ns = 0;
        self.sweep_merges = 0;
    }

    /// Assign dependency `k` to conflict group `groups[k]` (parallel mode).
    pub fn set_groups(&mut self, groups: &[usize]) {
        for (k, &g) in groups.iter().enumerate() {
            if let Some(d) = self.profile.deps.get_mut(k) {
                d.group = Some(g);
            }
        }
    }

    /// Account one worker job for `group` that kept a worker busy for
    /// `busy_ns`.
    pub fn group_job(&mut self, group: usize, busy_ns: u64) {
        let slot = match self.profile.groups.iter_mut().find(|g| g.group == group) {
            Some(g) => g,
            None => {
                self.profile.groups.push(GroupProfile {
                    group,
                    ..Default::default()
                });
                self.profile.groups.sort_by_key(|g| g.group);
                self.profile
                    .groups
                    .iter_mut()
                    .find(|g| g.group == group)
                    .expect("just pushed")
            }
        };
        slot.jobs += 1;
        slot.busy_ns += busy_ns;
    }

    /// Fold one job's buffered events into the profile (and the event
    /// stream), in the job's observation order. Call in deterministic job
    /// order at the barrier.
    pub fn merge_worker(&mut self, sweep: u64, worker: WorkerRecorder) {
        for event in &worker.events {
            match *event {
                JobEvent::Activation(rec) => self.activation(sweep, &rec),
                JobEvent::Substitution(resolved, changed, wall_ns) => {
                    self.substitution(sweep, resolved, changed, wall_ns)
                }
            }
        }
    }

    /// Read-only view of the profile so far (before `finish`).
    pub fn profile(&self) -> &ChaseProfile {
        &self.profile
    }

    /// End the run: stamp `total_ns`, emit `run_end`, flush the sink, and
    /// hand back the profile.
    pub fn finish(mut self) -> ChaseProfile {
        self.profile.total_ns = self.started.elapsed().as_nanos() as u64;
        if self.trace.is_active() {
            let mut obj = JsonObject::new();
            obj.str("event", "run_end")
                .str("mode", &self.profile.mode)
                .u64("sweeps", self.profile.sweeps)
                .u64("activations", self.profile.total_activations())
                .u64("tuples", self.profile.total_tuples_produced())
                .u64("total_us", self.profile.total_ns / 1_000);
            self.trace.emit(&obj.finish());
            self.trace.flush();
        }
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::sink::MemorySink;
    use std::sync::Arc;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("d{i}")).collect()
    }

    fn act(dep: usize, kind: ActivationKind, violations: u64, tuples: u64) -> ActivationRecord {
        ActivationRecord {
            dep,
            kind,
            seeded: if matches!(kind, ActivationKind::Delta) {
                violations + 1
            } else {
                0
            },
            violations,
            tuples,
            obligations: 0,
            dedup_hits: 0,
            wall_ns: 1_000,
        }
    }

    #[test]
    fn aggregates_activation_splits_and_hit_rate() {
        let mut rec = Recorder::new(&names(2), "delta", &TraceHandle::none());
        rec.activation(1, &act(0, ActivationKind::Full, 2, 2));
        rec.activation(1, &act(1, ActivationKind::Delta, 1, 1));
        rec.end_sweep(1, None, 0);
        rec.activation(2, &act(1, ActivationKind::Delta, 0, 0));
        rec.end_sweep(2, None, 0);
        rec.end_sweep(3, None, 0); // idle: not counted
        let p = rec.finish();
        assert_eq!(p.sweeps, 2);
        assert_eq!(p.total_activations(), 3);
        assert_eq!(p.deps[0].full_rescans, 1);
        assert_eq!(p.deps[1].delta_activations, 2);
        assert_eq!(p.deps[1].delta_hits, 1);
        assert_eq!(p.deps[1].delta_hit_rate(), Some(0.5));
        assert_eq!(p.evaluate_ns, 3_000);
        assert_eq!(p.total_dep_wall_ns(), 3_000);
        assert!(p.total_ns > 0);
    }

    #[test]
    fn event_stream_matches_profile_counts() {
        let sink = Arc::new(MemorySink::new());
        let trace = TraceHandle::new(sink.clone());
        let mut rec = Recorder::new(&names(1), "delta", &trace);
        rec.activation(1, &act(0, ActivationKind::Full, 1, 1));
        rec.substitution(1, 2, 1, 500);
        rec.end_sweep(1, None, 0);
        let p = rec.finish();

        let lines = sink.lines();
        let events: Vec<JsonValue> = lines.iter().map(|l| parse(l).unwrap()).collect();
        let count = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("event").and_then(JsonValue::as_str) == Some(name))
                .count() as u64
        };
        assert_eq!(count("run_start"), 1);
        assert_eq!(count("run_end"), 1);
        assert_eq!(count("activation"), p.total_activations());
        assert_eq!(count("merge"), p.substitution_passes);
        assert_eq!(count("sweep"), p.sweeps);
        // The activation event carries the dependency name and kind.
        let a = events
            .iter()
            .find(|e| e.get("event").and_then(JsonValue::as_str) == Some("activation"))
            .unwrap();
        assert_eq!(a.get("dep").and_then(JsonValue::as_str), Some("d0"));
        assert_eq!(a.get("kind").and_then(JsonValue::as_str), Some("full"));
    }

    #[test]
    fn worker_merge_preserves_order_and_groups() {
        let mut rec = Recorder::new(&names(3), "parallel2", &TraceHandle::none());
        rec.set_groups(&[0, 0, 1]);
        let mut w0 = WorkerRecorder::new();
        w0.record(act(0, ActivationKind::Delta, 1, 1));
        w0.record(act(1, ActivationKind::Full, 0, 0));
        let mut w1 = WorkerRecorder::new();
        w1.record(act(2, ActivationKind::Delta, 2, 2));
        w1.substitution(3, 1, 2_000);
        rec.group_job(0, 5_000);
        rec.merge_worker(1, w0);
        rec.group_job(1, 3_000);
        rec.merge_worker(1, w1);
        rec.end_sweep(1, Some(6_000), 1_000);
        let p = rec.finish();
        assert_eq!(p.total_activations(), 3);
        assert_eq!(p.deps[0].group, Some(0));
        assert_eq!(p.deps[2].group, Some(1));
        assert_eq!(p.groups.len(), 2);
        assert_eq!(p.groups[0].jobs, 1);
        assert_eq!(p.groups[0].busy_ns, 5_000);
        assert_eq!(p.evaluate_ns, 6_000);
        assert_eq!(p.merge_ns, 1_000);
        assert_eq!(p.substitution_passes, 1);
        assert_eq!(p.substitute_ns, 2_000);
    }

    #[test]
    fn substitution_only_sweep_still_counts() {
        let mut rec = Recorder::new(&names(1), "delta", &TraceHandle::none());
        rec.substitution(1, 1, 1, 100);
        rec.end_sweep(1, None, 0);
        let p = rec.finish();
        assert_eq!(p.sweeps, 1);
        assert_eq!(p.substitution_passes, 1);
        assert_eq!(p.substitute_ns, 100);
    }
}
