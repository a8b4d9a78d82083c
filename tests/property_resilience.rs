//! Kill/resume property tests: on randomly generated scenarios, force an
//! interruption at a seeded random sweep via the `grom_fail` injection
//! hooks, round-trip the resulting checkpoint through its JSON encoding,
//! resume, and require the final instance to render identically (up to
//! null renaming, via [`grom::data::canonical_render`]) to a run that was
//! never interrupted — under every scheduler mode.
//!
//! This is the end-to-end contract behind `grom run --checkpoint/--resume`:
//! a chase killed at any sweep boundary loses no work and converges to the
//! same fixpoint after resuming from the serialized checkpoint.

use proptest::prelude::*;

use grom::chase::{
    chase_resume, chase_standard, fail, ChaseConfig, ChaseOutcome, Checkpoint, InterruptReason,
    SchedulerMode,
};
use grom::data::canonical_render;
use grom::scenarios::{generate, random_spec};

const MODES: [SchedulerMode; 4] = [
    SchedulerMode::FullRescan,
    SchedulerMode::Delta,
    SchedulerMode::Parallel { threads: 2 },
    SchedulerMode::Parallel { threads: 4 },
];

/// A kill landing *between* insertion and the sweep-boundary promotion of
/// the inserted tuples: the consumer is declared before its producer, so
/// the producer's sweep-1 inserts are routed to the consumer's worklist
/// slot but claimed — and thereby folded into the old half — only in sweep
/// 2. Interrupting before sweep 2 runs therefore checkpoints live
/// `Pending::Delta` payloads whose tuples are all still *new*, and the v2
/// envelope must round-trip that partition and resume to the uninterrupted
/// fixpoint.
#[test]
fn kill_between_insertion_and_promotion_round_trips_pending_deltas() {
    use grom::prelude::{Instance, Value};

    let _guard = fail::test_lock();
    fail::clear();

    let program = "tgd c: B(x, y) -> C(x, y).\n\
                   tgd d: C(x, y) -> D(x, y).\n\
                   tgd p: A(x, y) -> B(x, y).";
    let p = grom::lang::parser::parse_program(program).unwrap();
    let mut inst = Instance::new();
    for i in 0..6i64 {
        inst.add("A", vec![Value::int(i), Value::int(i + 1)])
            .unwrap();
    }
    let base = ChaseConfig::default().with_max_rounds(50);

    for mode in MODES {
        let cfg = base.clone().with_scheduler(mode);
        let clean = match ChaseOutcome::from_run(chase_standard(inst.clone(), &p.deps, &cfg)) {
            Ok(ChaseOutcome::Completed(r)) => r,
            other => panic!("{mode:?}: uninterrupted run did not complete: {other:?}"),
        };
        let want = canonical_render(&clean.instance);

        fail::install("sweep:interrupt@2").unwrap();
        let killed = ChaseOutcome::from_run(chase_standard(inst.clone(), &p.deps, &cfg));
        fail::clear();
        let interrupted = match killed {
            Ok(ChaseOutcome::Interrupted(i)) => i,
            other => panic!("{mode:?}: sweep-2 kill did not interrupt: {other:?}"),
        };
        assert!(matches!(interrupted.reason, InterruptReason::Fault));
        let json = interrupted.checkpoint.to_json();
        if matches!(mode, SchedulerMode::Delta) {
            // The window this test exists for: unclaimed delta payloads in
            // the envelope, carrying their (all-new) partition record.
            assert!(
                json.contains("\"kind\":\"delta\""),
                "{mode:?}: no pending delta checkpointed at the kill window: {json}"
            );
            assert!(
                json.contains("\"new\":{"),
                "{mode:?}: v2 envelope lacks the partition record: {json}"
            );
        }
        let restored = Checkpoint::from_json(&json)
            .unwrap_or_else(|e| panic!("{mode:?}: checkpoint does not round-trip: {e}"));
        let resumed = match chase_resume(&restored, &p.deps, &cfg) {
            Ok(ChaseOutcome::Completed(r)) => r,
            other => panic!("{mode:?}: resume did not complete: {other:?}"),
        };
        assert_eq!(
            canonical_render(&resumed.instance),
            want,
            "{mode:?}: resume after a mid-promotion kill diverges"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kill_and_resume_reaches_the_uninterrupted_fixpoint(
        seed in 0u64..100_000,
        kill_sweep in 1u64..5,
    ) {
        // Fault plans are process-global; serialize against every other
        // test that installs one.
        let _guard = fail::test_lock();
        fail::clear();

        let scenario = generate(&random_spec(seed, 2));
        let (deps, inst) = scenario.parts().expect("generated scenario parses");
        let base = ChaseConfig::default().with_max_rounds(200);

        for mode in MODES {
            let cfg = base.clone().with_scheduler(mode);
            let clean = match ChaseOutcome::from_run(chase_standard(inst.clone(), &deps, &cfg)) {
                Ok(ChaseOutcome::Completed(r)) => r,
                other => panic!("{mode:?}: uninterrupted run did not complete: {other:?}"),
            };
            let want = canonical_render(&clean.instance);

            fail::install(&format!("sweep:interrupt@{kill_sweep}")).unwrap();
            let killed = ChaseOutcome::from_run(chase_standard(inst.clone(), &deps, &cfg));
            fail::clear();
            match killed {
                Ok(ChaseOutcome::Interrupted(i)) => {
                    prop_assert!(
                        matches!(i.reason, InterruptReason::Fault),
                        "{mode:?}: unexpected interrupt reason {:?}", i.reason
                    );
                    // The checkpoint must survive its JSON encoding.
                    let json = i.checkpoint.to_json();
                    let restored = Checkpoint::from_json(&json)
                        .unwrap_or_else(|e| panic!("{mode:?}: checkpoint does not round-trip: {e}"));
                    let resumed = match chase_resume(&restored, &deps, &cfg) {
                        Ok(ChaseOutcome::Completed(r)) => r,
                        other => panic!("{mode:?}: resume did not complete: {other:?}"),
                    };
                    prop_assert_eq!(
                        canonical_render(&resumed.instance),
                        want,
                        "{:?}: resumed instance diverges from the uninterrupted run \
                         (killed at sweep {}, spec {})",
                        mode, kill_sweep, scenario.spec
                    );
                }
                // The chase reached its fixpoint before sweep `kill_sweep`
                // ever started: nothing to resume, but the armed directive
                // must not have perturbed the result.
                Ok(ChaseOutcome::Completed(r)) => {
                    prop_assert_eq!(canonical_render(&r.instance), want);
                }
                other => panic!("{mode:?}: interrupted run failed hard: {other:?}"),
            }
        }
    }
}
