//! The delta-driven (semi-naive) chase scheduler and the one sweep driver
//! every chase mode runs on.
//!
//! Instead of rescanning every premise against the whole instance each
//! round, the scheduler keeps a worklist of `(dependency, delta)` pairs. A
//! delta is a slot range: per relation, the cursor where the dependency's
//! unseen rows begin. A static [`TriggerIndex`] maps each relation to the
//! dependencies whose premise reads it; each job compares the
//! [`Relation::frontier`] of every relation an activation concludes before
//! and after it, and routes the old frontier as a cursor to the triggered
//! members of its group. No tuple is copied. Premise evaluation is seeded
//! from the new rows only ([`grom_engine::evaluate_body_from_delta`]
//! anchors one premise atom on the rows past its cursor; atoms before the
//! anchor read only the *old* half of their relation, so each match is
//! enumerated exactly once).
//!
//! ## One driver
//!
//! `run` owns everything around a sweep for every mode: the round limit,
//! budget and cancellation checks, fault points, checkpoint capture and the
//! [`Recorder`]. [`SchedulerMode::FullRescan`] sweeps are the reference
//! round of [`crate::standard`]. The worklist modes run one job per
//! conflict group with pending work, all through `run_job` and the one
//! repair of [`crate::standard`]: [`SchedulerMode::Delta`] runs on
//! [`Partition::single`] — one job that owns every relation and the run's
//! null map, on the calling thread — and [`SchedulerMode::Parallel`] runs
//! the groups on a worker pool ([`crate::parallel`]). The barrier unifies
//! pool jobs' equality obligations in declaration order, hands each job's
//! worklist back, and applies the sweep's merges in one substitution pass.
//!
//! ## Old/new versioning
//!
//! Relation rows only append, and only null substitution tombstones or
//! compacts a relation's slots — after which it re-marks every reader of
//! the rewritten relation `Full`. A pending cursor therefore stays valid
//! until its dependency is claimed, and one job appends to a relation
//! between claims (its group owns it). Where two routes of one relation
//! meet, the smaller cursor covers both. Debug builds assert the
//! exactly-once guarantee. Cursors do not survive a rebuild of the
//! instance, so a [`Checkpoint`] stores the count of rows past each one.
//!
//! Full rescans remain in exactly two places: every dependency's **first**
//! activation, and — after an egd-driven null unification — the readers of
//! a relation the substitution rewrote ([`Scheduler::invalidate_readers`];
//! deltas over untouched relations survive).
//!
//! ## Sweep-level egd batching
//!
//! Egd repairs record equality *obligations* without touching the instance;
//! a merge-bearing sweep applies them in **one** substitution pass
//! ([`NullMap::flatten`] + [`Instance::substitute_nulls_batch`]). Until
//! then, violations are rechecked with values resolved through the pending
//! merges ([`grom_engine::disjunct_satisfied_resolved`]), and a match that
//! only appears after the rewrite reads a rewritten relation, so the
//! invalidation recovers it. *Atom-bearing* conclusions cannot run over
//! pending obligations — their embedding check reads stored tuples the
//! resolution cannot see through, and could insert a redundant fresh-null
//! tuple — so who owns the instance decides: a job that owns all of it
//! *flushes* right before such a dependency, exactly where the
//! declaration-ordered reference substitutes; a pool job *defers* it to the
//! next sweep.
//!
//! [`SchedulerMode::FullRescan`]: crate::config::SchedulerMode::FullRescan
//! [`SchedulerMode::Delta`]: crate::config::SchedulerMode::Delta
//! [`SchedulerMode::Parallel`]: crate::config::SchedulerMode::Parallel

use std::collections::BTreeMap;
#[cfg(debug_assertions)]
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grom_data::{Instance, NullGenerator, Relation, StridedNullGenerator, Value};
use grom_lang::{Bindings, Dependency};
use grom_trace::{ActivationKind, ActivationRecord, Recorder, WorkerRecorder};

use grom_engine::{
    disjunct_satisfied, disjunct_satisfied_resolved, evaluate_body_from_delta, Control, Db,
};
use grom_exec::Store;

use crate::checkpoint::{Checkpoint, ResumeState};
use crate::config::{Budget, CancelToken, ChaseConfig, InterruptReason, SchedulerMode};
use crate::nullmap::{NullMap, Unify};
use crate::parallel::Pool;
use crate::partition::Partition;
use crate::result::{ChaseError, ChaseResult, ChaseStats, Interrupted};
use crate::standard::{
    apply_disjunct, check_executable, collect_violations, full_rescan_round, resolve_bindings,
    Nulls,
};
use crate::trigger::TriggerIndex;

/// Pending work for one dependency. A delta marks, per relation, where the
/// dependency's unseen rows begin: a slot cursor in the scheduler, a count
/// of trailing live rows in a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Pending<M = u32> {
    /// Nothing new since the premise was last evaluated.
    Idle,
    /// Evaluate the premise against the full instance (first activation, or
    /// after a null unification invalidated the deltas).
    Full,
    /// Evaluate seeded from each relation's rows past its mark only.
    Delta(BTreeMap<Arc<str>, M>),
}

impl<M> Pending<M> {
    /// The same work with every delta mark converted by `f`.
    pub(crate) fn map_marks<N>(&self, mut f: impl FnMut(&Arc<str>, &M) -> N) -> Pending<N> {
        match self {
            Pending::Idle => Pending::Idle,
            Pending::Full => Pending::Full,
            Pending::Delta(map) => Pending::Delta(
                map.iter()
                    .map(|(rel, m)| (rel.clone(), f(rel, m)))
                    .collect(),
            ),
        }
    }
}

impl Pending {
    /// Fold a route of `rel`'s rows from slot `cursor` on into this slot.
    /// `Full` already subsumes any delta; `Idle` wakes up; of two routes
    /// of one relation the smaller cursor covers both.
    pub(crate) fn add_delta(&mut self, rel: &Arc<str>, cursor: u32) {
        match self {
            Pending::Full => {}
            Pending::Delta(map) => {
                let c = map.entry(rel.clone()).or_insert(cursor);
                *c = (*c).min(cursor);
            }
            slot @ Pending::Idle => {
                *slot = Pending::Delta(BTreeMap::from([(rel.clone(), cursor)]));
            }
        }
    }
}

/// The worklist: per-dependency pending state plus the trigger index that
/// routes deltas to dependencies.
#[derive(Debug)]
pub struct Scheduler {
    triggers: TriggerIndex,
    pending: Vec<Pending>,
}

impl Scheduler {
    /// A scheduler over `deps`, with every dependency initially scheduled
    /// for a full scan (round one of the classical chase).
    pub fn new(deps: &[Dependency]) -> Self {
        Self::with_pending(deps, vec![Pending::Full; deps.len()])
    }

    /// A scheduler over `deps` resuming a checkpointed worklist. `pending`
    /// must be index-aligned with `deps` (validated by
    /// [`Checkpoint::restore`](crate::Checkpoint)).
    pub(crate) fn with_pending(deps: &[Dependency], pending: Vec<Pending>) -> Self {
        debug_assert_eq!(pending.len(), deps.len());
        Self {
            triggers: TriggerIndex::build(deps),
            pending,
        }
    }

    /// Clone the worklist for a checkpoint. Sweep-aligned by construction:
    /// the driver only captures between sweeps, when every job has handed
    /// its routed deltas back into these slots.
    pub(crate) fn pending_snapshot(&self) -> Vec<Pending> {
        self.pending.clone()
    }

    /// Is any dependency scheduled?
    pub fn has_work(&self) -> bool {
        !self.pending.iter().all(|p| matches!(p, Pending::Idle))
    }

    /// The trigger index routing relations to their premise readers.
    pub fn triggers(&self) -> &TriggerIndex {
        &self.triggers
    }

    /// Claim dependency `k`'s pending work, leaving it idle.
    pub(crate) fn take(&mut self, k: usize) -> Pending {
        std::mem::replace(&mut self.pending[k], Pending::Idle)
    }

    /// Claim the sweep's worklist: one [`Job`] per group of `partition`
    /// with pending work, in group order.
    fn claim(&mut self, partition: &Partition) -> Vec<Job> {
        (0..partition.group_count())
            .filter_map(|group| {
                let mut pending = vec![Pending::Idle; self.pending.len()];
                for &k in partition.group(group) {
                    pending[k] = self.take(k);
                }
                pending
                    .iter()
                    .any(|p| !matches!(p, Pending::Idle))
                    .then_some(Job { group, pending })
            })
            .collect()
    }

    /// Hand a job's worklist back.
    fn restore(&mut self, partition: &Partition, group: usize, mut pending: Vec<Pending>) {
        for &k in partition.group(group) {
            self.pending[k] = std::mem::replace(&mut pending[k], Pending::Idle);
        }
    }

    /// Schedule every dependency for a full rescan. The conservative
    /// fallback when delta provenance is unknown; the chase loops prefer
    /// the targeted [`Scheduler::invalidate_readers`].
    pub fn invalidate_all(&mut self) {
        for p in &mut self.pending {
            *p = Pending::Full;
        }
    }

    /// Schedule a full rescan for every dependency whose premise reads one
    /// of the `changed` relations — the relations a null substitution
    /// actually rewrote, per the report of
    /// [`Instance::substitute_nulls`]. Deltas of dependencies reading only
    /// untouched relations stay valid: a relation is only *unchanged* when
    /// the substitution mapped none of the nulls occurring in it, so its
    /// slots — and every cursor into them — are untouched.
    pub fn invalidate_readers(&mut self, changed: &[Arc<str>]) {
        invalidate_readers(&mut self.pending, &self.triggers, changed);
    }
}

/// Route `rel`'s rows from slot `cursor` on to the worklist slots of the
/// dependencies it triggers.
fn route(pending: &mut [Pending], triggers: &TriggerIndex, rel: &Arc<str>, cursor: u32) {
    for &k in triggers.triggered_by(rel) {
        pending[k].add_delta(rel, cursor);
    }
}

/// The slot past `rel`'s newest row in `store` (0 while it is absent).
fn frontier(store: &impl Store, rel: &str) -> u32 {
    store.relation(rel).map_or(0, Relation::frontier)
}

/// Re-mark `Full` the worklist slot of every reader of a `changed`
/// relation.
fn invalidate_readers(pending: &mut [Pending], triggers: &TriggerIndex, changed: &[Arc<str>]) {
    for rel in changed {
        for &k in triggers.triggered_by(rel) {
            pending[k] = Pending::Full;
        }
    }
}

/// Violating premise matches of `dep` seeded from the rows past each
/// relation's cursor, in deterministic order. With `stop_at_first`
/// (denials) at most one match is returned. Generic over [`Db`] so the
/// parallel executor can evaluate against ownership views.
///
/// The semi-naive version split in [`evaluate_body_from_delta`] enumerates
/// each match exactly once across anchor positions, so no dedup set is
/// needed on the hot path and each surviving match is cloned exactly once
/// into the output. Debug builds keep the historical `seen` set as an
/// assertion that the split holds.
pub(crate) fn delta_violations(
    db: &impl Db,
    dep: &Dependency,
    delta: &BTreeMap<Arc<str>, u32>,
    stop_at_first: bool,
) -> Vec<Bindings> {
    let deltas: Vec<(&str, u64)> = delta
        .iter()
        .map(|(rel, &cursor)| (rel.as_ref(), u64::from(cursor)))
        .collect();
    #[cfg(debug_assertions)]
    let mut seen: BTreeSet<Bindings> = BTreeSet::new();
    let mut out: Vec<Bindings> = Vec::new();
    evaluate_body_from_delta(db, &dep.premise, &deltas, |b| {
        if !dep.disjuncts.iter().any(|d| disjunct_satisfied(db, d, b)) {
            #[cfg(debug_assertions)]
            assert!(
                seen.insert(b.clone()),
                "semi-naive split enumerated a duplicate match for {}: {b}",
                dep.name
            );
            out.push(b.clone());
            if stop_at_first {
                return Control::Stop;
            }
        }
        Control::Continue
    });
    out
}

/// One conflict group's claimed work for one sweep, indexed by dependency
/// (`Idle` for every non-member).
pub(crate) struct Job {
    pub group: usize,
    pub pending: Vec<Pending>,
}

/// What a job hands back at the sweep barrier.
#[derive(Default)]
pub(crate) struct JobOutcome {
    pub group: usize,
    /// The group's worklist after the job: rows routed to members that
    /// already ran (they run next sweep), `Full` for deferred members.
    pub pending: Vec<Pending>,
    /// A pool job's equality obligations, tagged with their dependency
    /// index, in collection order (kept on failure too).
    pub obligations: Vec<(usize, Value, Value)>,
    pub stats: ChaseStats,
    pub trace: WorkerRecorder,
    /// Largest null label drawn from the job's strided range, if any.
    pub max_null: Option<u64>,
    /// The failure that stopped the job, tagged with its dependency index.
    pub failure: Option<(usize, ChaseError)>,
    /// An interruption the job observed: a fault point, or cancellation or
    /// the deadline at a pool job's entry.
    pub observed: Option<InterruptReason>,
}

/// Run one job: activate the group's pending members in declaration order
/// against `store`, repair their violations, and route every activation's
/// inserts to the members they trigger — all of them in this group, by the
/// partition rule. Members later in the order run on the new tuples this
/// sweep; earlier ones (and the inserting member itself) next sweep,
/// exactly as in the declaration-ordered reference round.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_job(
    store: &mut impl Store,
    nulls: &mut Nulls,
    deps: &[Dependency],
    triggers: &TriggerIndex,
    partition: &Partition,
    job: Job,
    mut fresh: StridedNullGenerator,
) -> JobOutcome {
    let mut out = JobOutcome {
        group: job.group,
        pending: job.pending,
        ..Default::default()
    };
    let stats = &mut out.stats;
    for &k in partition.group(job.group) {
        if matches!(out.pending[k], Pending::Idle) {
            continue;
        }
        let dep = &deps[k];
        // An atom-bearing dependency must not evaluate against pending
        // equalities: its embedding checks read stored tuples the
        // resolution cannot see through. The owner of the whole instance
        // substitutes first; a pool job defers past the barrier's pass.
        if nulls.pending() && concludes_atoms(dep) {
            let (Some(inst), Nulls::Owned { map, merged }) = (store.whole(), &mut *nulls) else {
                out.pending[k] = Pending::Full;
                continue;
            };
            *merged = false;
            let t0 = Instant::now();
            let (resolved, changed) = apply_sweep_merges(inst, map, stats);
            invalidate_readers(&mut out.pending, triggers, &changed);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            out.trace.substitution(resolved, changed.len(), wall_ns);
            if grom_fail::hit("subst") {
                out.observed.get_or_insert(InterruptReason::Fault);
            }
        }

        // Where each concluded relation ends before the activation: the
        // rows past it are the activation's inserts.
        let heads: Vec<(&Arc<str>, u32)> = dep
            .disjuncts
            .iter()
            .flat_map(|d| &d.atoms)
            .map(|a| (&a.predicate, frontier(store, &a.predicate)))
            .collect();
        let t0 = Instant::now();
        let tuples0 = stats.tuples_inserted;
        let obligations0 = stats.obligations_batched;
        let dedup0 = store.dedup_hits();
        let (kind, seeded, mut violations) =
            match std::mem::replace(&mut out.pending[k], Pending::Idle) {
                Pending::Idle => unreachable!("idle slots are skipped"),
                Pending::Full if dep.is_denial() => {
                    stats.full_rescans += 1;
                    let found = grom_engine::find_violation(&*store, dep).map(|v| v.bindings);
                    (ActivationKind::Full, 0, found.into_iter().collect())
                }
                Pending::Full => {
                    stats.full_rescans += 1;
                    (ActivationKind::Full, 0, collect_violations(&*store, dep))
                }
                Pending::Delta(map) => {
                    stats.delta_activations += 1;
                    let seeded: usize = map
                        .iter()
                        .map(|(rel, &c)| store.relation(rel).map_or(0, |r| r.len_from(c)))
                        .sum();
                    stats.delta_tuples_seeded += seeded;
                    let vs = delta_violations(&*store, dep, &map, dep.is_denial());
                    (ActivationKind::Delta, seeded as u64, vs)
                }
            };
        let mut failure = None;
        if dep.is_denial() {
            // A denial has nothing to repair: any match is the failure.
            failure = violations.drain(..).next().map(|b| ChaseError::Failure {
                dependency: dep.name.clone(),
                detail: format!("denial premise matched at {b}"),
            });
        }

        // Idempotent repairs (ground single-disjunct conclusions) skip the
        // recheck entirely: re-applying one is a dedup'd no-op, so the probe
        // would only re-derive what the insert decides anyway. No merge can
        // become pending mid-batch here (no equalities to record).
        let direct = !violations.is_empty() && nulls.is_identity() && idempotent_repair(dep);
        for b in &violations {
            // Satisfied-under-pending-obligations recheck: earlier repairs
            // may already satisfy the match even though the instance has
            // not been rewritten yet. With nothing mapped (egd-free
            // workloads, the common case) the resolution is the identity,
            // so the raw bindings are checked — and applied — directly.
            let repaired = if nulls.is_identity() {
                if !direct && disjunct_satisfied(&*store, &dep.disjuncts[0], b) {
                    continue;
                }
                apply_disjunct(store, k, dep, 0, b, nulls, &mut || fresh.fresh(), stats)
            } else {
                if disjunct_satisfied_resolved(&*store, &dep.disjuncts[0], b, &mut |v| {
                    nulls.resolve(v)
                }) {
                    continue;
                }
                let b = resolve_bindings(b, nulls);
                apply_disjunct(store, k, dep, 0, &b, nulls, &mut || fresh.fresh(), stats)
            };
            if let Err(e) = repaired {
                failure = Some(e);
                break;
            }
        }
        out.trace.record(ActivationRecord {
            dep: k,
            kind,
            seeded,
            violations: violations.len() as u64,
            tuples: (stats.tuples_inserted - tuples0) as u64,
            obligations: (stats.obligations_batched - obligations0) as u64,
            dedup_hits: store.dedup_hits() - dedup0,
            wall_ns: t0.elapsed().as_nanos() as u64,
        });
        if let Some(e) = failure {
            out.failure = Some((k, e));
            break;
        }

        // Route everything — every reader is in this group; if this sweep
        // turns out to be merge-bearing, the substitution re-marks every
        // reader of a rewritten relation Full, subsuming its cursors.
        for (rel, before) in heads {
            if frontier(store, rel) > before {
                route(&mut out.pending, triggers, rel, before);
            }
        }
    }
    out.max_null = fresh.max_allocated();
    out
}

/// Does any disjunct of `dep` conclude atoms? Such a repair embeds its
/// conclusion into the *stored* instance, which pending obligations are not
/// yet applied to, so `run_job` flushes (or defers) before it; pure egds,
/// denials and comparison-only disjuncts are binding-level checks.
pub(crate) fn concludes_atoms(dep: &Dependency) -> bool {
    dep.disjuncts.iter().any(|d| !d.atoms.is_empty())
}

/// Is re-applying `dep`'s repair to an already-satisfied match a no-op? True
/// for a single disjunct with no equalities and no existential variables:
/// the conclusion is then a fixed set of ground atoms per premise match, and
/// the insert-side dedup makes a redundant application invisible, so jobs
/// skip the satisfied-under-pending-repairs recheck — one stored-instance
/// probe per violation. With equalities, several disjuncts or existentials
/// (a redundant application would invent an unmergeable null) the recheck
/// stays.
pub(crate) fn idempotent_repair(dep: &Dependency) -> bool {
    dep.disjuncts.len() == 1
        && dep.disjuncts[0].eqs.is_empty()
        && dep.existential_vars(0).is_empty()
}

/// Apply the null map's accumulated merges: flatten the union-find once
/// and rewrite the instance in a **single** combined pass. Returns the
/// number of mapped labels and the rewritten relations, whose readers the
/// caller re-schedules `Full`. Called once per merge-bearing sweep at the
/// barrier — plus mid-sweep by a job that owns the whole instance when an
/// atom-bearing dependency is about to run with merges pending, so its
/// satisfaction checks see exactly the instance state the
/// declaration-ordered reference loop gives them.
pub(crate) fn apply_sweep_merges(
    inst: &mut Instance,
    nullmap: &mut NullMap,
    stats: &mut ChaseStats,
) -> (usize, Vec<Arc<str>>) {
    let map = nullmap.flatten();
    let changed = inst.substitute_nulls_batch(&map);
    stats.substitution_passes += 1;
    (map.len(), changed)
}

/// Cooperative budget/cancellation check. Cancellation wins over budget
/// exhaustion so a Ctrl-C is reported as such even when a cap tripped too.
fn trip_check(
    budget: &Budget,
    cancel: &CancelToken,
    stats: &ChaseStats,
) -> Option<InterruptReason> {
    if cancel.is_cancelled() {
        return Some(InterruptReason::Cancelled);
    }
    budget.exceeded(stats.tuples_inserted, stats.nulls_invented)
}

/// What a run carries from sweep to sweep.
pub(crate) struct RunState {
    pub inst: Instance,
    pub nullmap: NullMap,
    pub nullgen: NullGenerator,
    pub stats: ChaseStats,
    pub rec: Recorder,
    sched: Scheduler,
}

/// How a sweep ended, as far as the driver cares.
#[derive(Debug)]
pub(crate) struct SweepEnd {
    /// Did the sweep repair anything? A reference round that did not ends
    /// the run; worklist sweeps always report progress and end the run when
    /// no work is pending.
    pub progressed: bool,
    /// An interruption observed during the sweep, acted on at its end.
    pub observed: Option<InterruptReason>,
}

/// What runs a mode's sweeps.
enum Sweeper {
    Reference,
    Jobs {
        partition: Partition,
        pool: Option<Pool>,
    },
}

/// The one chase driver: run `deps` from `state` under `mode` until no
/// work is left. Started sweeps always complete — skipping work mid-sweep
/// would diverge from the declaration-ordered reference — so trips are
/// acted on at sweep boundaries only: before a sweep, which is then not
/// counted, and after it.
pub(crate) fn run(
    state: ResumeState,
    deps: &[Dependency],
    config: &ChaseConfig,
    mode: SchedulerMode,
) -> Result<ChaseResult, ChaseError> {
    for dep in deps {
        check_executable(dep, false)?;
    }
    let ResumeState {
        mut inst,
        rounds,
        next_null,
        nullmap,
        pending,
    } = state;
    // Every relation a conclusion writes exists before the first sweep, so
    // the relation store can be split by owner.
    for atom in deps
        .iter()
        .flat_map(|d| &d.disjuncts)
        .flat_map(|d| &d.atoms)
    {
        inst.ensure_relation(&atom.predicate);
    }
    let (label, pending) = match mode {
        // The reference round rescans everything, so its checkpoints
        // schedule every dependency Full whatever worklist it resumed from.
        SchedulerMode::FullRescan => ("full_rescan".to_string(), vec![Pending::Full; deps.len()]),
        SchedulerMode::Delta => ("delta".to_string(), pending),
        SchedulerMode::Parallel { threads } => (format!("parallel{threads}"), pending),
    };
    let names: Vec<String> = deps.iter().map(|d| d.name.to_string()).collect();
    let mut run = RunState {
        inst,
        nullmap,
        nullgen: NullGenerator::starting_at(next_null),
        stats: ChaseStats {
            rounds,
            ..Default::default()
        },
        rec: Recorder::new(&names, &label, &config.trace),
        sched: Scheduler::with_pending(deps, pending),
    };
    let budget = config.budget.anchored();
    let sweeper = match mode {
        SchedulerMode::FullRescan => Sweeper::Reference,
        SchedulerMode::Delta => Sweeper::Jobs {
            partition: Partition::single(deps.len()),
            pool: None,
        },
        SchedulerMode::Parallel { threads } => {
            let partition = Partition::build(deps, run.sched.triggers());
            let groups: Vec<usize> = (0..deps.len()).map(|k| partition.group_of(k)).collect();
            run.rec.set_groups(&groups);
            let pool = Pool::new(
                threads,
                &run.inst,
                deps,
                &partition,
                &budget,
                &config.cancel,
            );
            let pool = Some(pool);
            Sweeper::Jobs { partition, pool }
        }
    };

    let interrupted = loop {
        if run.stats.rounds >= config.max_rounds {
            return Err(ChaseError::RoundLimit {
                rounds: run.stats.rounds,
                stats: Box::new(run.stats),
                profile: Box::new(run.rec.finish()),
            });
        }
        run.stats.rounds += 1;
        let sweep = run.stats.rounds as u64;
        if !run.sched.has_work() {
            break None;
        }
        let mut tripped = trip_check(&budget, &config.cancel, &run.stats);
        if grom_fail::hit("sweep") {
            tripped.get_or_insert(InterruptReason::Fault);
        }
        if tripped.is_some() {
            run.stats.rounds -= 1;
            break tripped;
        }
        let end = match &sweeper {
            Sweeper::Reference => full_rescan_round(&mut run, deps, sweep)?,
            Sweeper::Jobs { partition, pool } => {
                run_sweep(&mut run, deps, partition, pool.as_ref(), sweep)?
            }
        };
        // A reached fixpoint beats an interruption: the result is final,
        // so there is nothing to resume.
        if !end.progressed {
            break None;
        }
        let tripped = end
            .observed
            .or_else(|| trip_check(&budget, &config.cancel, &run.stats));
        if tripped.is_some() {
            break tripped;
        }
    };

    let RunState {
        inst,
        mut nullmap,
        nullgen,
        stats,
        rec,
        sched,
    } = run;
    let Some(reason) = interrupted else {
        let profile = rec.finish();
        return Ok(ChaseResult {
            instance: inst,
            stats,
            profile,
        });
    };
    let checkpoint = Checkpoint::capture(
        &label,
        stats.rounds,
        nullgen.peek_next(),
        &inst,
        &mut nullmap,
        sched.pending_snapshot(),
    );
    Err(ChaseError::Interrupted(Box::new(Interrupted {
        reason,
        instance: inst,
        stats,
        profile: rec.finish(),
        checkpoint,
    })))
}

/// One worklist sweep: claim every group's pending work, run the jobs, and
/// pass the barrier.
fn run_sweep(
    run: &mut RunState,
    deps: &[Dependency],
    partition: &Partition,
    pool: Option<&Pool>,
    sweep: u64,
) -> Result<SweepEnd, ChaseError> {
    let jobs = run.sched.claim(partition);
    let triggers = run.sched.triggers();
    // Null ranges and result order are functions of the job index, so the
    // sweep is deterministic under any thread schedule.
    let base_label = run.nullgen.peek_next();
    let stride = jobs.len() as u64;
    let t_eval = Instant::now();
    let mut merged = false;
    let outcomes: Vec<(JobOutcome, Option<Duration>)> = match pool {
        // The calling thread owns the whole instance and the run's null map.
        None => {
            let mut nulls = Nulls::owned(&mut run.nullmap);
            let mut outcomes = Vec::new();
            for (j, job) in jobs.into_iter().enumerate() {
                let fresh = StridedNullGenerator::new(base_label, j as u64, stride);
                let o = run_job(
                    &mut run.inst,
                    &mut nulls,
                    deps,
                    triggers,
                    partition,
                    job,
                    fresh,
                );
                outcomes.push((o, None));
            }
            merged = nulls.take_merged();
            outcomes
        }
        Some(pool) => {
            let (inst, nullmap) = (&mut run.inst, &run.nullmap);
            pool.run(inst, deps, triggers, partition, nullmap, jobs, base_label)?
        }
    };
    let evaluate_ns = t_eval.elapsed().as_nanos() as u64;
    let t_merge = Instant::now();

    // The barrier-entry fault point, then the jobs' observations in job
    // order, so the recorded reason is deterministic.
    let mut end = SweepEnd {
        progressed: true,
        observed: (pool.is_some() && grom_fail::hit("barrier")).then_some(InterruptReason::Fault),
    };
    for (o, _) in &outcomes {
        end.observed = end.observed.or(o.observed);
    }

    // Unify the pool jobs' obligations stably sorted by declaration index
    // (each dependency lives in one job, so per-dependency collection order
    // is kept): constant clashes surface here, deterministically.
    let mut obligations: Vec<&(usize, Value, Value)> =
        outcomes.iter().flat_map(|(o, _)| &o.obligations).collect();
    obligations.sort_by_key(|(k, _, _)| *k);
    let mut clash: Option<(usize, ChaseError)> = None;
    for (k, l, r) in obligations {
        match run.nullmap.unify(l, r) {
            Unify::Noop => {}
            Unify::Merged => {
                merged = true;
                run.stats.egd_merges += 1;
            }
            Unify::Clash(a, b) => {
                clash = Some((*k, ChaseError::clash(&deps[*k].name, &a, &b)));
                break;
            }
        }
    }
    // Report the earliest failure by dependency index (a job's failure
    // before a barrier clash on ties), mirroring declaration order.
    let job_failure = outcomes
        .iter()
        .filter_map(|(o, _)| o.failure.clone())
        .min_by_key(|(k, _)| *k);
    if let Some((_, e)) = job_failure.into_iter().chain(clash).min_by_key(|(k, _)| *k) {
        return Err(e);
    }

    // Fold the jobs in job order, so counters, the profile and the event
    // stream are thread-schedule-independent.
    for (o, busy) in outcomes {
        run.stats.absorb(&o.stats);
        if let Some(busy) = busy {
            run.rec.group_job(o.group, busy.as_nanos() as u64);
        }
        run.rec.merge_worker(sweep, o.trace);
        if let Some(m) = o.max_null {
            run.nullgen.advance_to(m + 1);
        }
        run.sched.restore(partition, o.group, o.pending);
    }
    let merge_ns = t_merge.elapsed().as_nanos() as u64;

    if merged {
        let t0 = Instant::now();
        let (resolved, changed) =
            apply_sweep_merges(&mut run.inst, &mut run.nullmap, &mut run.stats);
        run.sched.invalidate_readers(&changed);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        run.rec
            .substitution(sweep, resolved, changed.len(), wall_ns);
        if grom_fail::hit("subst") {
            end.observed.get_or_insert(InterruptReason::Fault);
        }
    }
    // The calling thread's evaluate phase is the sum of its activations,
    // and it has no barrier merge to time.
    match pool {
        Some(_) => run.rec.end_sweep(sweep, Some(evaluate_ns), merge_ns),
        None => run.rec.end_sweep(sweep, None, 0),
    }
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Value;
    use grom_lang::parser::parse_program;

    /// The Delta mode, whatever `GROM_THREADS` makes the default.
    fn chase_standard_delta(
        start: Instance,
        deps: &[Dependency],
        config: &ChaseConfig,
    ) -> Result<ChaseResult, ChaseError> {
        run(
            ResumeState::fresh(start, deps),
            deps,
            config,
            SchedulerMode::Delta,
        )
    }

    #[test]
    fn scheduler_routes_deltas_by_trigger() {
        let p = parse_program(
            "tgd a: S(x) -> A(x).\n\
             tgd b: A(x) -> B(x).",
        )
        .unwrap();
        let mut sched = Scheduler::new(&p.deps);
        assert!(sched.has_work()); // everything starts Full

        // Drain the initial Full work.
        for k in 0..p.deps.len() {
            sched.take(k);
        }
        assert!(!sched.has_work());

        // A route of A's rows wakes only dependency b; where two routes
        // meet, the smaller cursor covers both.
        let a: Arc<str> = Arc::from("A");
        for cursor in [3, 1, 5] {
            route(&mut sched.pending, &sched.triggers, &a, cursor);
        }
        assert_eq!(sched.take(0), Pending::Idle);
        assert_eq!(sched.take(1), Pending::Delta(BTreeMap::from([(a, 1)])));
    }

    #[test]
    fn invalidation_reschedules_everything_full() {
        let p = parse_program("tgd a: S(x) -> A(x).").unwrap();
        let mut sched = Scheduler::new(&p.deps);
        sched.take(0);
        assert!(!sched.has_work());
        sched.invalidate_all();
        assert!(matches!(sched.take(0), Pending::Full));
    }

    #[test]
    fn targeted_invalidation_spares_unrelated_readers() {
        let p = parse_program(
            "tgd a: A(x) -> A2(x).\n\
             tgd b: B(x) -> B2(x).",
        )
        .unwrap();
        let mut sched = Scheduler::new(&p.deps);
        for k in 0..p.deps.len() {
            sched.take(k);
        }
        // Both dependencies hold pending deltas...
        for rel in ["A", "B"] {
            route(&mut sched.pending, &sched.triggers, &Arc::from(rel), 0);
        }
        // ...then a substitution rewrites only A: its reader goes Full,
        // B's reader keeps its delta.
        sched.invalidate_readers(&[Arc::from("A")]);
        assert!(matches!(sched.take(0), Pending::Full));
        assert!(matches!(sched.take(1), Pending::Delta(_)));
    }

    #[test]
    fn merge_bearing_sweep_substitutes_exactly_once() {
        // Two independent key egds, both violated in the same sweep: their
        // obligations are batched into ONE substitution pass, not one per
        // dependency as in the full-rescan reference loop.
        let p = parse_program(
            "egd e1: T(x, y1), T(x, y2) -> y1 = y2.\n\
             egd e2: U(x, y1), U(x, y2) -> y1 = y2.",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        inst.add("T", vec![Value::int(1), Value::int(5)]).unwrap();
        inst.add("U", vec![Value::int(2), Value::null(1)]).unwrap();
        inst.add("U", vec![Value::int(2), Value::int(7)]).unwrap();
        let res = chase_standard_delta(inst, &p.deps, &ChaseConfig::default()).unwrap();
        assert_eq!(res.stats.substitution_passes, 1);
        assert_eq!(res.stats.egd_merges, 2);
        assert!(res.stats.obligations_batched >= 2);
        let t: Vec<_> = res.instance.tuples("T").collect();
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!((t.len(), u.len()), (1, 1));
        assert_eq!(t[0].get(1), Some(&Value::int(5)));
        assert_eq!(u[0].get(1), Some(&Value::int(7)));
    }

    #[test]
    fn each_merge_bearing_sweep_substitutes_once() {
        // A two-stage merge: eU's violation only materializes after eT's
        // substitution rewrites U's key column, so the chase needs two
        // merge-bearing sweeps — and exactly two substitution passes.
        let p = parse_program(
            "egd eT: T(x, y1), T(x, y2) -> y1 = y2.\n\
             egd eU: U(k, a1), U(k, a2) -> a1 = a2.",
        )
        .unwrap();
        let mut inst = Instance::new();
        inst.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        inst.add("T", vec![Value::int(1), Value::null(1)]).unwrap();
        inst.add("U", vec![Value::null(1), Value::null(5)]).unwrap();
        inst.add("U", vec![Value::null(0), Value::int(4)]).unwrap();
        let res = chase_standard_delta(inst, &p.deps, &ChaseConfig::default()).unwrap();
        // Sweep 1 merges N1 -> N0 (eT); the rewrite makes U's two keys
        // collide, so sweep 2 merges N5 -> 4 (eU).
        assert_eq!(res.stats.substitution_passes, 2);
        assert_eq!(res.stats.egd_merges, 2);
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].get(0), Some(&Value::null(0)));
        assert_eq!(u[0].get(1), Some(&Value::int(4)));
    }

    #[test]
    fn tgd_after_merging_egd_sees_the_rewritten_instance() {
        // t2 is declared *after* the merging egd, so the
        // declaration-ordered reference substitutes before t2's
        // satisfaction check runs. The batched sweep must flush its
        // pending obligations before t2 (an atom-bearing dependency whose
        // embedding check reads stored tuples the binding resolution
        // cannot see through) — otherwise t2 misses the post-substitution
        // match T(5, 7) and inserts a redundant T(5, N) with a fresh null
        // the sweep-end substitution cannot merge away.
        use crate::standard::{chase_standard, chase_standard_full_rescan};
        use grom_data::canonical_render;
        let p = parse_program(
            "tgd t1: A(x) -> T(y, x).\n\
             egd e: T(a, b), W(c, b) -> a = c.\n\
             tgd t2: W(c, b) -> T(c, z).",
        )
        .unwrap();
        let mut start = Instance::new();
        start.add("A", vec![Value::int(7)]).unwrap();
        start.add("W", vec![Value::int(5), Value::int(7)]).unwrap();
        let reference =
            chase_standard_full_rescan(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        assert_eq!(reference.instance.len(), 3);

        let batched =
            chase_standard_delta(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        assert_eq!(
            canonical_render(&reference.instance),
            canonical_render(&batched.instance)
        );
        // t1, e and t2 share relation T, so they form one conflict group
        // and the pool job defers t2 past the barrier substitution.
        let par = chase_standard(
            start,
            &p.deps,
            &ChaseConfig::default().with_scheduler(SchedulerMode::Parallel { threads: 2 }),
        )
        .unwrap();
        assert_eq!(
            canonical_render(&reference.instance),
            canonical_render(&par.instance)
        );
    }
}
