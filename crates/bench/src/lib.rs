//! # grom-bench — workloads and the experiment harness
//!
//! Deterministic workload generators for the experiments of DESIGN.md
//! (E1–E7), each reproducing a quantitative claim of the paper's §3–§4,
//! plus a small fixed-width table printer used by the `experiments` binary
//! and EXPERIMENTS.md.
//!
//! All generators are seeded and pure: the same parameters produce the same
//! scenario and instance, so the experiments binary is reproducible.

pub mod calibration;
pub mod report;
pub mod workloads;

pub use calibration::{calibration_ms, CALIBRATION_RECORD};
pub use report::{flush_jsonl_env, record, BenchRecord, Table, BENCH_JSON_ENV};
pub use workloads::{
    conjunctive_family, delta_scaling_workload, egd_scaling_workload,
    greedy_intricacy_attributable, greedy_intricacy_workload, negation_family,
    parallel_scaling_workload, restriction_pair, running_example_scenario, running_example_source,
    storage_scaling_workload, universal_model_workload, RunningExampleConfig,
};
