//! The parallel chase executor: sweep jobs on a worker pool.
//!
//! [`SchedulerMode::Parallel`] runs the same worklist, job body and repair
//! as [`SchedulerMode::Delta`] (see [`crate::scheduler`]); this module
//! supplies the pool half of a sweep. Each conflict group with pending work
//! ([`crate::partition::Partition`]) becomes a job on the pool, run against
//! its ownership view of the master instance ([`OwnedView::split`]): `&mut`
//! of the relations its group writes, `&` of the relations no group
//! writes. Jobs insert straight into the master relations, route new
//! tuples within their group, and draw fresh nulls from disjoint strided
//! label ranges. Equality repairs only **collect obligations** against the
//! read-only sweep-start [`NullMap`] plus a job-local overlay (so later
//! violations of the job see the pending merges); once a job holds some, a
//! later atom-bearing dependency is deferred to the next sweep, after the
//! barrier's one substitution pass. The barrier unifies the obligations
//! stably sorted by declaration index, so unification order and any clash
//! report are functions of the job contents, never of thread scheduling.
//!
//! The result is identical to [`SchedulerMode::Delta`] up to the renaming
//! of labeled nulls — with one corner: groups that share labeled nulls
//! only through the *initial* instance evaluate against the sweep-start
//! null map where the sequential job would flush first, and may keep a
//! redundant (but sound) fresh-null tuple. No dependency can create that
//! sharing: one copying a null between the two groups' relations would
//! conflict with both and merge them.
//!
//! [`SchedulerMode::Delta`]: crate::config::SchedulerMode::Delta
//! [`SchedulerMode::Parallel`]: crate::config::SchedulerMode::Parallel

use std::time::{Duration, Instant};

use grom_data::{Instance, StridedNullGenerator};
use grom_lang::Dependency;

use grom_exec::{OwnedView, WorkerPool};

use crate::config::{Budget, CancelToken, InterruptReason};
use crate::nullmap::NullMap;
use crate::partition::Partition;
use crate::result::ChaseError;
use crate::scheduler::{run_job, Job, JobOutcome, Pending};
use crate::standard::Nulls;
use crate::trigger::TriggerIndex;

/// The pool half of a parallel run.
pub(crate) struct Pool {
    pool: WorkerPool,
    /// `owner[id]` — the group that writes relation `RelId(id)`, if any.
    owner: Vec<Option<usize>>,
    /// The anchored deadline. Tuple/null caps stay with the driver: they
    /// gate on global counters no single job sees.
    deadline_at: Option<Instant>,
    cancel: CancelToken,
}

impl Pool {
    pub(crate) fn new(
        threads: usize,
        inst: &Instance,
        deps: &[Dependency],
        partition: &Partition,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Self {
        let mut owner = vec![None; inst.relation_names().count()];
        for (k, dep) in deps.iter().enumerate() {
            for atom in dep.disjuncts.iter().flat_map(|d| &d.atoms) {
                let id = inst
                    .rel_id(&atom.predicate)
                    .expect("written relations exist");
                owner[id.0 as usize] = Some(partition.group_of(k));
            }
        }
        Pool {
            pool: WorkerPool::new(threads),
            owner,
            deadline_at: budget.deadline_at(),
            cancel: cancel.clone(),
        }
    }

    /// Cancellation or a passed deadline, as a job observes them.
    fn tripped(&self) -> Option<InterruptReason> {
        if self.cancel.is_cancelled() {
            return Some(InterruptReason::Cancelled);
        }
        match self.deadline_at {
            Some(at) if Instant::now() >= at => Some(InterruptReason::Deadline),
            _ => None,
        }
    }

    /// Run one sweep's jobs concurrently, each against its group's
    /// ownership view of `inst`, and return their outcomes in job order
    /// with the time each kept a worker busy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &self,
        inst: &mut Instance,
        deps: &[Dependency],
        triggers: &TriggerIndex,
        partition: &Partition,
        nullmap: &NullMap,
        jobs: Vec<Job>,
        base_label: u64,
    ) -> Result<Vec<(JobOutcome, Option<Duration>)>, ChaseError> {
        let mut view_of = vec![None; partition.group_count()];
        for (j, job) in jobs.iter().enumerate() {
            view_of[job.group] = Some(j);
        }
        let owner: Vec<Option<usize>> = self
            .owner
            .iter()
            .map(|g| g.and_then(|g| view_of[g]))
            .collect();
        let stride = jobs.len() as u64;
        let views = OwnedView::split(inst, &owner, jobs.len());
        let work: Vec<(Job, OwnedView)> = jobs.into_iter().zip(views).collect();
        let faults = grom_fail::scope();
        let outcomes = self.pool.run_timed_caught(work, |j, (job, mut view)| {
            // Job-entry interruption point: the `worker` fault (a panic
            // here is contained by the pool) and cancellation / deadline.
            // A job that observes either *before doing any work* defers
            // wholesale — every claimed entry goes back for a Full rescan.
            // That is exact: groups do not interact within a sweep, so it
            // is as if the scheduler had claimed the job one sweep later.
            let observed = if faults.hit("worker") {
                Some(InterruptReason::Fault)
            } else {
                self.tripped()
            };
            if observed.is_some() {
                let pending = job.pending.into_iter().map(|p| match p {
                    Pending::Idle => Pending::Idle,
                    _ => Pending::Full,
                });
                return JobOutcome {
                    group: job.group,
                    pending: pending.collect(),
                    observed,
                    ..Default::default()
                };
            }
            let mut nulls = Nulls::collect(nullmap);
            let fresh = StridedNullGenerator::new(base_label, j as u64, stride);
            let mut out = run_job(&mut view, &mut nulls, deps, triggers, partition, job, fresh);
            if let Nulls::Collect { obligations, .. } = nulls {
                out.obligations = obligations;
            }
            out
        });
        // A worker panic is contained by the pool (every thread is still
        // joined); surface it as a hard error instead of aborting the
        // process. The pool is stateless and reusable.
        let outcomes = outcomes.map_err(|detail| ChaseError::WorkerPanicked { detail })?;
        Ok(outcomes
            .into_iter()
            .map(|(o, busy)| (o, Some(busy)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChaseConfig, SchedulerMode};
    use crate::standard::{all_satisfied, chase_standard, chase_standard_full_rescan};
    use grom_data::{canonical_render, Value};
    use grom_lang::parser::{parse_dependency, parse_program};

    fn inst(facts: &[(&str, &[i64])]) -> Instance {
        let mut i = Instance::new();
        for (rel, vals) in facts {
            i.add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
                .unwrap();
        }
        i
    }

    fn par(threads: usize) -> ChaseConfig {
        ChaseConfig::default().with_scheduler(SchedulerMode::Parallel { threads })
    }

    #[test]
    fn independent_partitions_match_sequential() {
        // Four disjoint copy chains; each is one conflict group.
        let mut text = String::new();
        for p in 0..4 {
            for i in (0..3).rev() {
                text.push_str(&format!(
                    "tgd t{p}_{i}: C{p}L{i}(x) -> C{p}L{}(x).\n",
                    i + 1
                ));
            }
        }
        let prog = parse_program(&text).unwrap();
        let mut start = Instance::new();
        for p in 0..4 {
            for r in 0..10 {
                start.add(format!("C{p}L0"), vec![Value::int(r)]).unwrap();
            }
        }
        let seq = chase_standard(start.clone(), &prog.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &prog.deps, &par(4)).unwrap();
        // Constant-only chains: byte-identical instances.
        assert_eq!(seq.instance.to_string(), parl.instance.to_string());
        assert!(parl.stats.delta_activations > 0);
    }

    #[test]
    fn existential_nulls_match_up_to_renaming() {
        let p = parse_program(
            "tgd a: S(x) -> T(x, w), U(w).\n\
             tgd b: S2(x) -> V(x, w).",
        )
        .unwrap();
        let start = inst(&[("S", &[1]), ("S", &[2]), ("S2", &[7])]);
        let seq = chase_standard(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(
            canonical_render(&seq.instance),
            canonical_render(&parl.instance)
        );
        assert_eq!(seq.stats.nulls_invented, parl.stats.nulls_invented);
        assert!(all_satisfied(&parl.instance, &p.deps));
    }

    #[test]
    fn egds_collect_obligations_and_agree() {
        let m = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let k = parse_dependency("tgd k: S2(x, y) -> T(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let deps = vec![m, k, e];
        let start = inst(&[("S", &[1]), ("S2", &[1, 42])]);
        let seq =
            chase_standard_full_rescan(start.clone(), &deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &deps, &par(3)).unwrap();
        assert_eq!(
            canonical_render(&seq.instance),
            canonical_render(&parl.instance)
        );
        let t: Vec<_> = parl.instance.tuples("T").collect();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].get(1), Some(&Value::int(42)));
        assert!(parl.stats.obligations_batched >= 1);
    }

    #[test]
    fn egd_between_tgds_no_longer_segments_the_sweep() {
        // tgd | egd | tgd: previously the egd was a sequential segment
        // boundary; now the whole dependency set runs as pool jobs and the
        // egd's obligations resolve at the barrier. Results must still
        // match the full-rescan reference exactly (up to null renaming).
        let p = parse_program(
            "tgd a: S(x) -> T(x, w).\n\
             egd e: T(x, y1), T(x, y2) -> y1 = y2.\n\
             tgd b: S2(x, y) -> T(x, y).",
        )
        .unwrap();
        // All three deps touch T: one conflict group, no `None` slots.
        let part = Partition::build(&p.deps, &TriggerIndex::build(&p.deps));
        assert_eq!(part.group_count(), 1);
        for k in 0..p.deps.len() {
            assert_eq!(part.group_of(k), 0);
        }
        let start = inst(&[("S", &[1]), ("S2", &[1, 9]), ("S2", &[2, 3])]);
        let seq =
            chase_standard_full_rescan(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(
            canonical_render(&seq.instance),
            canonical_render(&parl.instance)
        );
        // The unification resolved a's invented null to 9.
        let mut ys: Vec<_> = parl
            .instance
            .tuples("T")
            .filter_map(|t| t.get(1).unwrap().as_int())
            .collect();
        ys.sort_unstable();
        assert_eq!(ys, vec![3, 9]);
        assert!(all_satisfied(&parl.instance, &p.deps));
    }

    #[test]
    fn parallel_merge_bearing_sweep_substitutes_once() {
        // Two egds over relations nobody writes: two independent pool
        // jobs collect obligations concurrently, the coordinator applies
        // ONE substitution pass at the barrier.
        let p = parse_program(
            "egd e1: T(x, y1), T(x, y2) -> y1 = y2.\n\
             egd e2: U(x, y1), U(x, y2) -> y1 = y2.",
        )
        .unwrap();
        let part = Partition::build(&p.deps, &TriggerIndex::build(&p.deps));
        assert_eq!(part.group_count(), 2);
        let mut start = Instance::new();
        start.add("T", vec![Value::int(1), Value::null(0)]).unwrap();
        start.add("T", vec![Value::int(1), Value::int(5)]).unwrap();
        start.add("U", vec![Value::int(2), Value::null(1)]).unwrap();
        start.add("U", vec![Value::int(2), Value::int(7)]).unwrap();
        let res = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(res.stats.substitution_passes, 1);
        assert_eq!(res.stats.egd_merges, 2);
        assert_eq!(res.instance.tuples("T").count(), 1);
        assert_eq!(res.instance.tuples("U").count(), 1);
    }

    #[test]
    fn constant_clash_is_detected_at_the_barrier() {
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let start = inst(&[("T", &[1, 10]), ("T", &[1, 20])]);
        match chase_standard(start, &[e], &par(2)) {
            Err(ChaseError::Failure { dependency, .. }) => {
                assert_eq!(dependency.as_ref(), "e");
            }
            other => panic!("expected clash failure, got {other:?}"),
        }
    }

    #[test]
    fn denials_fail_deterministically() {
        let p = parse_program(
            "tgd a: S(x) -> T(x, x).\n\
             dep n: T(x, x) -> false.",
        )
        .unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &p.deps, &par(4));
        match res {
            Err(ChaseError::Failure { dependency, .. }) => {
                assert_eq!(dependency.as_ref(), "n");
            }
            other => panic!("expected denial failure, got {other:?}"),
        }
    }

    #[test]
    fn round_budget_is_honored() {
        let dep = parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let res = chase_standard(inst(&[("R", &[1, 2])]), &[dep], &par(2).with_max_rounds(20));
        assert!(matches!(
            res,
            Err(ChaseError::RoundLimit { rounds: 20, .. })
        ));
    }

    #[test]
    fn same_group_cascade_completes_within_a_sweep() {
        // Forward-declared chain: in-group routing lets the whole chain
        // cascade inside one sweep, like the sequential round.
        let p = parse_program(
            "tgd t0: L0(x) -> L1(x).\n\
             tgd t1: L1(x) -> L2(x).\n\
             tgd t2: L2(x) -> L3(x).",
        )
        .unwrap();
        let start = inst(&[("L0", &[1]), ("L0", &[2])]);
        let seq = chase_standard(start.clone(), &p.deps, &ChaseConfig::default()).unwrap();
        let parl = chase_standard(start, &p.deps, &par(2)).unwrap();
        assert_eq!(seq.instance.to_string(), parl.instance.to_string());
        assert_eq!(parl.instance.tuples("L3").count(), 2);
        // The cascade needs no extra sweeps beyond the sequential rounds,
        // and no dependency may be activated twice on the same tuples.
        assert_eq!(parl.stats.rounds, seq.stats.rounds);
        assert_eq!(parl.stats.delta_activations, seq.stats.delta_activations);
    }

    #[test]
    fn single_thread_parallel_mode_still_works() {
        let p = parse_program("tgd a: S(x) -> T(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[5])]), &p.deps, &par(1)).unwrap();
        assert_eq!(res.instance.tuples("T").count(), 1);
    }

    #[test]
    fn injected_worker_panic_is_contained() {
        let _g = grom_fail::test_lock();
        grom_fail::install("worker:panic@1").unwrap();
        let p = parse_program("tgd a: S(x) -> T(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[1]), ("S", &[2])]), &p.deps, &par(2));
        grom_fail::clear();
        match res {
            Err(ChaseError::WorkerPanicked { detail }) => {
                assert!(
                    detail.contains("injected panic"),
                    "unexpected panic detail: {detail}"
                );
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // Containment leaves no poisoned state behind: the same engine
        // config chases to completion immediately afterwards.
        let ok = chase_standard(inst(&[("S", &[1])]), &p.deps, &par(2)).unwrap();
        assert_eq!(ok.instance.tuples("T").count(), 1);
    }

    #[test]
    fn sweep_interrupt_checkpoint_resume_matches_uninterrupted() {
        use crate::checkpoint::{chase_resume, Checkpoint};
        use crate::config::InterruptReason;
        use crate::result::ChaseOutcome;

        let _g = grom_fail::test_lock();
        // Declared consumer-first so the in-group cascade cannot finish
        // everything in sweep 1: `b`'s work lands in sweep 2, which is
        // where the fault directive interrupts.
        let p = parse_program(
            "tgd b: T(x, y) -> U(y).\n\
             tgd a: S(x) -> T(x, y).",
        )
        .unwrap();
        let start = inst(&[("S", &[1]), ("S", &[2])]);
        let full = chase_standard(start.clone(), &p.deps, &par(2)).unwrap();

        grom_fail::install("sweep:interrupt@2").unwrap();
        let res = chase_standard(start, &p.deps, &par(2));
        grom_fail::clear();
        let interrupted = match res {
            Err(ChaseError::Interrupted(i)) => i,
            other => panic!("expected an interruption, got {other:?}"),
        };
        assert_eq!(interrupted.reason, InterruptReason::Fault);

        // Round-trip the checkpoint through its JSON form, then resume.
        let cp = Checkpoint::from_json(&interrupted.checkpoint.to_json()).unwrap();
        let resumed = match chase_resume(&cp, &p.deps, &par(2)).unwrap() {
            ChaseOutcome::Completed(r) => r,
            other => panic!("resume should complete, got {other:?}"),
        };
        assert_eq!(
            canonical_render(&resumed.instance),
            canonical_render(&full.instance)
        );
    }
}
