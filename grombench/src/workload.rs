//! The four workloads: input generation from the seed, loading through the
//! program's own loaders, the pinned configuration and the timed op.

use grom::chase::{chase_standard, chase_with_deds};
use grom::data::{read_instance, write_instance};
use grom::prelude::*;
use grom::scenarios::{generate, ScenarioSpec};
use grom_bench::workloads::RUNNING_EXAMPLE;
use grom_bench::{greedy_intricacy_attributable, running_example_source, RunningExampleConfig};

/// `exchange`: products and stores of the §2 running example.
pub const PRODUCTS: usize = 5_000;
pub const STORES: usize = 50;
/// `chase_delta` / `chase_par2`: scale of the generated iBench-style mix.
pub const MIX_SCALE: usize = 400;
/// `ded_search`: attributable deds, the share of them whose cheapest
/// disjunct fails, and the scale of the ded-free mix every scenario
/// re-chases. `DED_K <= 12` keeps the campaign under `MAX_SCENARIOS`.
/// Every ded's cheap branch fails, so every seed tries all 2^k scenarios:
/// at a share of 0.8 the count ran from 1 to 1024 with the seed, and the
/// op's cost with it.
pub const DED_K: usize = 10;
pub const DED_DENIED_FRAC: f64 = 1.0;
pub const DED_MIX_SCALE: usize = 1;
pub const MAX_SCENARIOS: usize = 4_096;
/// Threads of the `chase_par2` executor (the sandbox has two cores).
pub const PAR_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exchange,
    ChaseDelta,
    ChasePar2,
    DedSearch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exchange,
        Workload::ChaseDelta,
        Workload::ChasePar2,
        Workload::DedSearch,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exchange => "exchange",
            Workload::ChaseDelta => "chase_delta",
            Workload::ChasePar2 => "chase_par2",
            Workload::DedSearch => "ded_search",
        }
    }

    /// The scheduler the timed op runs under.
    pub fn mode(self) -> SchedulerMode {
        match self {
            Workload::ChasePar2 => SchedulerMode::Parallel {
                threads: PAR_THREADS,
            },
            _ => SchedulerMode::Delta,
        }
    }

    /// Single-threaded ops, whose allocation counts repeat exactly.
    pub fn sequential(self) -> bool {
        !matches!(self.mode(), SchedulerMode::Parallel { .. })
    }
}

/// Every chase knob, spelled out so that no field falls back to a default
/// (`SchedulerMode::default()` reads `GROM_THREADS`). A struct literal
/// rather than `..Default::default()`: a new knob fails to compile here.
pub fn chase_config(mode: SchedulerMode) -> ChaseConfig {
    ChaseConfig {
        max_rounds: 10_000,
        max_scenarios: MAX_SCENARIOS,
        max_nodes: 1_000_000,
        max_steps_per_branch: 1_000_000,
        scheduler: mode,
        trace: TraceHandle::none(),
        budget: Budget::none(),
        cancel: CancelToken::new(),
    }
}

/// Every pipeline knob, pinned to the library's documented defaults.
pub fn pipeline_options(mode: SchedulerMode) -> PipelineOptions {
    PipelineOptions {
        rewrite: RewriteOptions {
            max_alternatives: 4_096,
        },
        chase: chase_config(mode),
        skip_validation: false,
        skip_typecheck: false,
        core_minimize: false,
        interning: true,
    }
}

/// The generated inputs, as text: what a user hands the program.
pub struct Texts {
    pub program: String,
    pub facts: String,
}

/// The generated mix. `egd=0.00` keeps the primitives' own egds (the
/// vertical partition's key egd, the entity-resolution chains) and drops the
/// optional ones, which the seed switches on and off: at `egd=0.50` one op
/// took 53 to 246 ms depending on the seed.
fn mix_spec(seed: u64, scale: usize) -> ScenarioSpec {
    ScenarioSpec::parse(&format!(
        "mix=copy:2,fusion:1,vpart:2,denorm:1,er:2 depth=3 egd=0.00 seed={seed} scale={scale}"
    ))
    .expect("the mix spec line is well-formed")
}

/// Generate the workload's inputs from the seed (outside every timer).
pub fn generate_texts(w: Workload, seed: u64) -> Texts {
    match w {
        Workload::Exchange => {
            let source = running_example_source(&RunningExampleConfig {
                products: PRODUCTS,
                stores: STORES,
                seed,
            });
            Texts {
                program: RUNNING_EXAMPLE.to_string(),
                facts: write_instance(&source),
            }
        }
        Workload::ChaseDelta | Workload::ChasePar2 => {
            let g = generate(&mix_spec(seed, MIX_SCALE));
            Texts {
                program: g.program,
                facts: g.source,
            }
        }
        Workload::DedSearch => {
            let g = generate(&mix_spec(seed, DED_MIX_SCALE));
            let (deds, facts) = greedy_intricacy_attributable(DED_K, DED_DENIED_FRAC, seed);
            let mut program = g.program;
            for d in &deds {
                program.push_str(&format!("{d}\n"));
            }
            Texts {
                program,
                facts: g.source + &write_instance(&facts),
            }
        }
    }
}

/// Inputs loaded through the program's own loaders.
pub enum Loaded {
    Exchange {
        scenario: MappingScenario,
        source: Instance,
    },
    Chase {
        deps: Vec<Dependency>,
        source: Instance,
    },
}

/// Wall time of the two loaders, in milliseconds.
pub struct LoadTimes {
    pub parse_ms: f64,
    pub read_ms: f64,
}

/// `Program::parse` (+ `MappingScenario::from_program` on `exchange`) and
/// `read_instance` over the rendered texts.
pub fn load(w: Workload, texts: &Texts) -> Result<(Loaded, LoadTimes), String> {
    let t = std::time::Instant::now();
    let prog = Program::parse(&texts.program).map_err(|e| format!("parse: {e}"))?;
    let parse_ms = ms(t.elapsed());
    let scenario = match w {
        Workload::Exchange => {
            Some(MappingScenario::from_program(&prog).map_err(|e| format!("scenario: {e}"))?)
        }
        _ => None,
    };
    let t = std::time::Instant::now();
    let source = read_instance(&texts.facts).map_err(|e| format!("read_instance: {e}"))?;
    let read_ms = ms(t.elapsed());
    let loaded = match scenario {
        Some(scenario) => Loaded::Exchange { scenario, source },
        None => Loaded::Chase {
            deps: prog.deps,
            source,
        },
    };
    Ok((loaded, LoadTimes { parse_ms, read_ms }))
}

/// What one op hands back.
pub struct Output {
    /// The exchanged target (`exchange`) or the chased instance.
    pub instance: Instance,
    /// `validation.ok` on `exchange`; always true for the chase ops.
    pub valid: bool,
    pub stats: ChaseStats,
    pub profile: ChaseProfile,
    /// Rewritten dependencies and deds among them (`exchange` only).
    pub deps_out: usize,
    pub deds_out: usize,
}

/// The op's input, prepared outside the timer: the chase consumes its
/// start instance, so the chase workloads clone the loaded source here.
/// `MappingScenario::run` clones internally, inside the op.
pub enum Prepared {
    Exchange,
    Chase(Instance),
}

impl Loaded {
    pub fn prepare(&self) -> Prepared {
        match self {
            Loaded::Exchange { .. } => Prepared::Exchange,
            Loaded::Chase { source, .. } => Prepared::Chase(source.clone()),
        }
    }

    /// One op under `mode`.
    pub fn run(&self, w: Workload, mode: SchedulerMode, input: Prepared) -> Result<Output, String> {
        match (self, input) {
            (Loaded::Exchange { scenario, source }, Prepared::Exchange) => {
                let res = scenario
                    .run(source, &pipeline_options(mode))
                    .map_err(|e| e.to_string())?;
                Ok(Output {
                    valid: res.validation.as_ref().is_some_and(|v| v.ok),
                    deps_out: res.rewritten.deps.len(),
                    deds_out: res.rewritten.deds().count(),
                    instance: res.target,
                    stats: res.chase_stats,
                    profile: res.chase_profile,
                })
            }
            (Loaded::Chase { deps, .. }, Prepared::Chase(start)) => {
                let cfg = chase_config(mode);
                let res = match w {
                    Workload::DedSearch => chase_with_deds(start, deps, &cfg),
                    _ => chase_standard(start, deps, &cfg),
                }
                .map_err(|e| e.to_string())?;
                Ok(Output {
                    instance: res.instance,
                    valid: true,
                    stats: res.stats,
                    profile: res.profile,
                    deps_out: 0,
                    deds_out: 0,
                })
            }
            _ => unreachable!("prepare() matches the loaded kind"),
        }
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
