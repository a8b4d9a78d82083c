//! # grom-chase — the chase engine of GROM
//!
//! The execution half of Figure 2 of the paper: given a source instance and
//! the *rewritten* dependencies produced by `grom-rewrite`, generate a
//! target instance. This is the module the paper borrows from the Llunatic
//! project \[5\]; here it is a native in-memory engine with the same
//! semantics.
//!
//! * [`standard`] — the restricted chase for tgds, egds and denial
//!   constraints: tgd conclusions are witnessed with fresh labeled nulls,
//!   egds unify nulls (failing on constant/constant conflicts), denials
//!   fail on any premise match. Produces **universal solutions** for
//!   weakly-acyclic programs.
//! * [`ded`] — the two ded-chase strategies of §3 "Handling Complexity":
//!   the **greedy chase** (search over standard scenarios derived by fixing
//!   one disjunct per ded — sound, incomplete, usually fast) and the
//!   **exhaustive chase** (fork per disjunct at every violation; the set of
//!   successful leaves is the *universal model set* of Deutsch–Nash–Remmel,
//!   potentially exponential — exactly the blow-up experiment E4 measures).
//! * [`wa`] — weak-acyclicity analysis of the position graph, the classical
//!   sufficient condition for chase termination; non-weakly-acyclic
//!   programs run under the round budget of [`ChaseConfig`].
//! * [`trigger`] / [`scheduler`] — the delta-driven (semi-naive) scheduler
//!   and the one sweep driver all chase variants run on: a static trigger
//!   index routes the slot range of newly inserted rows to the dependencies
//!   whose premises read them, and premise evaluation is seeded from those
//!   rows instead of rescanning the whole instance every round (see
//!   [`config::SchedulerMode`]). The same driver runs the full-rescan
//!   reference round.
//! * [`partition`] / [`parallel`] — the parallel chase executor: the
//!   dependencies are partitioned into conflict groups, so that every
//!   relation has one writer group holding all its readers, and each
//!   sweep's groups run as jobs on the worker pool of `grom-exec`, each
//!   against its ownership view of the instance: `&mut` of the relations it
//!   writes, `&` of the relations nobody writes. The jobs' equality
//!   obligations are unified at the sweep barrier — in declaration order —
//!   and resolved with one combined substitution pass per merge-bearing
//!   sweep ([`config::SchedulerMode::Parallel`]).

pub mod checkpoint;
pub mod config;
pub mod core_min;
pub mod ded;
pub mod nullmap;
pub mod parallel;
pub mod partition;
pub mod result;
pub mod scheduler;
pub mod standard;
pub mod trigger;
pub mod wa;

pub use checkpoint::{chase_resume, Checkpoint};
pub use config::{Budget, CancelToken, ChaseConfig, InterruptReason, SchedulerMode};
pub use core_min::{core_minimize, CoreStats};
pub use ded::{
    chase_exhaustive, chase_greedy, chase_greedy_backjump, chase_with_deds, ExhaustiveResult,
};
pub use nullmap::NullMap;
pub use partition::Partition;
pub use result::{ChaseError, ChaseOutcome, ChaseResult, ChaseStats, Interrupted};
pub use scheduler::Scheduler;
pub use standard::{chase_standard, chase_standard_full_rescan};
pub use trigger::TriggerIndex;
pub use wa::{is_weakly_acyclic, WeakAcyclicityReport};

// Re-exported so resilience tests can install fault-injection plans
// without depending on `grom-fail` directly.
pub use grom_fail as fail;

// Re-exported so chase callers can attach sinks and read profiles without
// depending on `grom-trace` directly.
pub use grom_trace::{
    render_report, ChaseProfile, DepProfile, GroupProfile, JsonlSink, MemorySink, ReportOptions,
    TraceHandle, TraceSink,
};
