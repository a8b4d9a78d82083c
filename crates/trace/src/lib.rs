//! # grom-trace — chase-native tracing and profiling
//!
//! An always-compiled, zero-dependency event-sink layer for the chase
//! engines. Three pieces:
//!
//! * [`sink`] — the [`TraceSink`] trait (a line-oriented event consumer)
//!   and the [`TraceHandle`] the chase configuration carries: a cheap
//!   clonable handle that is a no-op unless a sink is attached.
//!   [`JsonlSink`] streams events to a file as JSON Lines; [`MemorySink`]
//!   buffers them for tests.
//! * [`recorder`] — the per-run [`Recorder`]: **always on**, it aggregates
//!   a [`ChaseProfile`] (per-dependency wall time, activation splits,
//!   tuples, delta-hit rates; per-sweep phase timings; per-group
//!   utilization in parallel mode) for a couple of `Instant` reads per
//!   activation, and emits one JSONL event per activation / sweep / merge
//!   when a sink is attached. [`WorkerRecorder`] is its `Send` half for
//!   chase jobs, merged deterministically at the sweep barrier.
//! * [`report`] — the dominance-report renderer behind `grom explain`:
//!   top-N dependencies by time, per-group parallel utilization, delta-hit
//!   rates, substitution-pass accounting, and a rewrite hint when one
//!   conflict group holds more than 80% of the work.
//!
//! [`json`] is the hand-rolled JSON support both halves share: an
//! allocation-light object writer for the event stream and a minimal
//! parser so tests (and tools) can round-trip every emitted line without
//! external crates.

pub mod json;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod sink;

pub use profile::{ChaseProfile, DepProfile, GroupProfile};
pub use recorder::{ActivationKind, ActivationRecord, Recorder, WorkerRecorder};
pub use report::{render_report, ReportOptions};
pub use sink::{JsonlSink, MemorySink, TraceHandle, TraceSink};
