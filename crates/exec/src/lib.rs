//! # grom-exec — the parallel execution substrate of GROM
//!
//! The chase of `grom-chase` partitions its dependencies into conflict
//! groups: every relation has at most one writer group, and every reader
//! of a written relation is in that group. Groups therefore never interact
//! within a sweep and can run on worker threads. This crate supplies the
//! machinery; the scheduling *policy* stays in `grom-chase`.
//!
//! * [`OwnedView`] — one group's split borrow of the instance: `&mut` of
//!   the relations the group writes, `&` of the relations no group writes.
//!   It and the instance itself are the two [`Store`]s a chase job writes.
//! * [`WorkerPool`] — a scoped pool that returns results in job order.
//!
//! Job inputs, fresh-null ranges and the order the barrier folds results
//! in are functions of the job *index*, never of thread scheduling, and
//! each relation is written by one job only, so two runs of the same sweep
//! produce identical instances.

pub mod pool;
pub mod view;

pub use pool::WorkerPool;
pub use view::{OwnedView, Store};
