//! Chase results, statistics and errors.

use std::fmt;
use std::sync::Arc;

use grom_data::{DataError, Instance, Value};
use grom_trace::ChaseProfile;

use crate::checkpoint::Checkpoint;
use crate::config::InterruptReason;

/// Counters describing a chase run. Experiments E4/E5/E7 report these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Rounds of the standard chase (a round visits every dependency).
    pub rounds: usize,
    /// Tgd-style applications (tuples-producing steps).
    pub tgd_applications: usize,
    /// Tuples actually inserted (after deduplication).
    pub tuples_inserted: usize,
    /// Fresh labeled nulls invented for existential variables.
    pub nulls_invented: usize,
    /// Egd merges (null unifications).
    pub egd_merges: usize,
    /// Greedy ded chase: scenarios attempted (including the successful one).
    pub scenarios_tried: usize,
    /// Greedy ded chase: scenarios that ended in failure.
    pub scenarios_failed: usize,
    /// Exhaustive ded chase: tree nodes expanded.
    pub nodes_expanded: usize,
    /// Exhaustive ded chase: successful leaves (size of the universal model
    /// set found).
    pub leaves: usize,
    /// Exhaustive ded chase: branches pruned by failure.
    pub branches_failed: usize,
    /// Delta scheduler: dependency activations that evaluated the premise
    /// against the full instance (first activations and post-merge
    /// invalidations).
    pub full_rescans: usize,
    /// Delta scheduler: dependency activations seeded from delta tuples.
    pub delta_activations: usize,
    /// Delta scheduler: total delta tuples used to seed premise evaluation.
    pub delta_tuples_seeded: usize,
    /// Instance-wide null substitution passes applied on behalf of egd
    /// enforcement. The batched Delta/Parallel schedulers apply exactly
    /// one per merge-bearing sweep; the full-rescan reference loop one per
    /// merging dependency per round.
    pub substitution_passes: usize,
    /// Equality obligations routed through the `NullMap` (one per equality
    /// of each applied eq-bearing disjunct; the batched schedulers resolve
    /// them once per sweep).
    pub obligations_batched: usize,
}

impl ChaseStats {
    /// Fold counters from a sub-run (used by the greedy scenario loop).
    pub fn absorb(&mut self, other: &ChaseStats) {
        self.rounds += other.rounds;
        self.tgd_applications += other.tgd_applications;
        self.tuples_inserted += other.tuples_inserted;
        self.nulls_invented += other.nulls_invented;
        self.egd_merges += other.egd_merges;
        self.scenarios_tried += other.scenarios_tried;
        self.scenarios_failed += other.scenarios_failed;
        self.nodes_expanded += other.nodes_expanded;
        self.leaves += other.leaves;
        self.branches_failed += other.branches_failed;
        self.full_rescans += other.full_rescans;
        self.delta_activations += other.delta_activations;
        self.delta_tuples_seeded += other.delta_tuples_seeded;
        self.substitution_passes += other.substitution_passes;
        self.obligations_batched += other.obligations_batched;
    }
}

impl fmt::Display for ChaseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} tgd_apps={} inserted={} nulls={} merges={} \
             scenarios={}(failed {}) nodes={} leaves={} branches_failed={} \
             rescans={} delta_acts={} delta_seeded={} \
             subst_passes={} obligations={}",
            self.rounds,
            self.tgd_applications,
            self.tuples_inserted,
            self.nulls_invented,
            self.egd_merges,
            self.scenarios_tried,
            self.scenarios_failed,
            self.nodes_expanded,
            self.leaves,
            self.branches_failed,
            self.full_rescans,
            self.delta_activations,
            self.delta_tuples_seeded,
            self.substitution_passes,
            self.obligations_batched
        )
    }
}

/// A successful chase: the chased instance (source relations plus the
/// generated target relations), run statistics, and the per-dependency
/// profile (wall times, activation splits, delta-hit rates — see
/// [`grom_trace::ChaseProfile`]).
#[derive(Debug, Clone)]
pub struct ChaseResult {
    pub instance: Instance,
    pub stats: ChaseStats,
    pub profile: ChaseProfile,
}

/// A chase stopped early by its budget, cancellation or fault injection.
/// Unlike the hard [`ChaseError`] variants this carries everything the run
/// produced — the instance-so-far, full statistics and profile — plus a
/// [`Checkpoint`] from which
/// [`chase_resume`](crate::chase_resume) continues to the same final
/// instance an uninterrupted run would have reached.
#[derive(Debug, Clone)]
pub struct Interrupted {
    pub reason: InterruptReason,
    pub instance: Instance,
    pub stats: ChaseStats,
    pub profile: ChaseProfile,
    pub checkpoint: Checkpoint,
}

impl Interrupted {
    /// Map every interned symbol back to a plain string value, in both the
    /// carried instance and the checkpoint. The pipeline calls this when
    /// string interning was enabled for the run.
    pub fn unintern(&mut self) {
        self.instance = self.instance.unintern_strings();
        self.checkpoint.unintern();
    }
}

/// The outcome of a budget-aware chase entry point: either a completed
/// fixpoint or a graceful interruption. [`ChaseError`] keeps signalling
/// the hard failures (clash, non-executable, storage).
#[derive(Debug, Clone)]
pub enum ChaseOutcome {
    Completed(ChaseResult),
    Interrupted(Interrupted),
}

impl ChaseOutcome {
    /// Convert the internal error-channel representation: interruption
    /// travels as `Err(ChaseError::Interrupted)` inside the engine so the
    /// existing `?` plumbing propagates it, and surfaces here as the
    /// graceful variant.
    pub fn from_run(run: Result<ChaseResult, ChaseError>) -> Result<ChaseOutcome, ChaseError> {
        match run {
            Ok(res) => Ok(ChaseOutcome::Completed(res)),
            Err(ChaseError::Interrupted(i)) => Ok(ChaseOutcome::Interrupted(*i)),
            Err(e) => Err(e),
        }
    }

    /// The instance produced so far, complete or not.
    pub fn instance(&self) -> &Instance {
        match self {
            ChaseOutcome::Completed(r) => &r.instance,
            ChaseOutcome::Interrupted(i) => &i.instance,
        }
    }

    pub fn stats(&self) -> &ChaseStats {
        match self {
            ChaseOutcome::Completed(r) => &r.stats,
            ChaseOutcome::Interrupted(i) => &i.stats,
        }
    }
}

/// Chase failure modes.
#[derive(Debug, Clone)]
pub enum ChaseError {
    /// An egd equated two distinct constants, or a denial premise matched.
    Failure {
        dependency: Arc<str>,
        detail: String,
    },
    /// The round budget was exhausted (program likely not terminating).
    /// Carries the partial statistics and profile so the diagnostics of
    /// the budget-tripping run are not discarded with the instance.
    RoundLimit {
        rounds: usize,
        stats: Box<ChaseStats>,
        profile: Box<ChaseProfile>,
    },
    /// Greedy ded chase: every attempted scenario failed. Carries the
    /// campaign-wide accumulated statistics.
    GreedyExhausted {
        scenarios_tried: usize,
        stats: Box<ChaseStats>,
        profile: Box<ChaseProfile>,
    },
    /// The budget or cancel token stopped the run at a sweep boundary;
    /// the boxed payload carries the partial instance and a resumable
    /// checkpoint. Internal representation — the public entry points
    /// convert this into [`ChaseOutcome::Interrupted`].
    Interrupted(Box<Interrupted>),
    /// A worker thread panicked inside the parallel executor. The panic is
    /// contained by `catch_unwind`; the pool stays reusable.
    WorkerPanicked { detail: String },
    /// Exhaustive ded chase: the node budget was exhausted.
    NodeLimit { nodes: usize },
    /// Exhaustive ded chase: every branch failed — the ded set is
    /// unsatisfiable over this instance.
    NoSolution { branches_failed: usize },
    /// A dependency is not executable by the chase (negated premise
    /// literals must be eliminated by the rewriter first).
    NotExecutable {
        dependency: Arc<str>,
        reason: String,
    },
    /// Storage error (arity drift — indicates a malformed program).
    Data(DataError),
}

impl ChaseError {
    /// Convenience constructor for constant-clash failures.
    pub fn clash(dep: &Arc<str>, a: &Value, b: &Value) -> Self {
        ChaseError::Failure {
            dependency: dep.clone(),
            detail: format!("cannot equate distinct constants {a} and {b}"),
        }
    }
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::Failure { dependency, detail } => {
                write!(f, "chase failure at `{dependency}`: {detail}")
            }
            ChaseError::RoundLimit { rounds, .. } => {
                write!(f, "chase did not terminate within {rounds} rounds")
            }
            ChaseError::GreedyExhausted {
                scenarios_tried, ..
            } => write!(
                f,
                "greedy ded chase: all {scenarios_tried} scenarios failed"
            ),
            ChaseError::Interrupted(i) => {
                write!(
                    f,
                    "chase interrupted ({}) after {} rounds; resumable",
                    i.reason, i.stats.rounds
                )
            }
            ChaseError::WorkerPanicked { detail } => {
                write!(f, "chase worker panicked: {detail}")
            }
            ChaseError::NodeLimit { nodes } => {
                write!(f, "exhaustive ded chase: node budget ({nodes}) exhausted")
            }
            ChaseError::NoSolution { branches_failed } => write!(
                f,
                "exhaustive ded chase: no solution ({branches_failed} branches failed)"
            ),
            ChaseError::NotExecutable { dependency, reason } => {
                write!(f, "dependency `{dependency}` is not executable: {reason}")
            }
            ChaseError::Data(e) => write!(f, "chase storage error: {e}"),
        }
    }
}

impl std::error::Error for ChaseError {}

impl From<DataError> for ChaseError {
    fn from(e: DataError) -> Self {
        ChaseError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_absorb_adds_counters() {
        let mut a = ChaseStats {
            rounds: 1,
            tgd_applications: 2,
            ..Default::default()
        };
        let b = ChaseStats {
            rounds: 3,
            egd_merges: 4,
            delta_tuples_seeded: 5,
            substitution_passes: 1,
            obligations_batched: 6,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 4);
        assert_eq!(a.tgd_applications, 2);
        assert_eq!(a.egd_merges, 4);
        assert_eq!(a.delta_tuples_seeded, 5);
        assert_eq!(a.substitution_passes, 1);
        assert_eq!(a.obligations_batched, 6);
    }

    #[test]
    fn stats_display_covers_every_counter() {
        let s = ChaseStats {
            branches_failed: 7,
            delta_tuples_seeded: 8,
            substitution_passes: 9,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("branches_failed=7"), "{text}");
        assert!(text.contains("delta_seeded=8"), "{text}");
        assert!(text.contains("subst_passes=9"), "{text}");
    }

    #[test]
    fn error_display() {
        let e = ChaseError::clash(&Arc::from("e0"), &Value::int(1), &Value::int(2));
        assert_eq!(
            e.to_string(),
            "chase failure at `e0`: cannot equate distinct constants 1 and 2"
        );
    }
}
