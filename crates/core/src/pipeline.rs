//! The GROM pipeline: materialize source views → rewrite → chase →
//! extract the target instance → validate.

use std::fmt;

use grom_chase::{
    chase_with_deds, ChaseConfig, ChaseError, ChaseProfile, ChaseStats, WeakAcyclicityReport,
};
use grom_data::{DataError, Instance, SymbolTable, Value};
use grom_engine::MaterializeError;
use grom_lang::{Atom, Comparison, Dependency, Disjunct, LangError, Literal, Term};
use grom_rewrite::{rewrite_program, RewriteError, RewriteOptions, RewriteOutput};

use crate::scenario::MappingScenario;
use crate::validate::{validate_solution, ValidationReport};

/// Options for [`MappingScenario::run`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    pub rewrite: RewriteOptions,
    pub chase: ChaseConfig,
    /// Skip the post-hoc soundness validation (it re-materializes the
    /// target views; disable for large benchmark runs).
    pub skip_validation: bool,
    /// Type-check the source instance against the source schema before
    /// running (on by default).
    pub skip_typecheck: bool,
    /// Minimize the chased target towards its **core** (Fagin–Kolaitis–
    /// Popa): fold away redundant labeled nulls such as the duplicate
    /// `T_Product` rows the `SoldAt` unfolding creates in the running
    /// example. The core of a universal solution is itself a universal
    /// solution, so validation still holds. Off by default (extra cost).
    pub core_minimize: bool,
    /// Intern string constants before the chase (on by default): the
    /// working instance and the rewritten dependencies pass through one
    /// [`SymbolTable`], so premise joins compare dense symbol ids instead
    /// of string contents. The target is un-interned on extraction, so
    /// results are byte-identical either way.
    pub interning: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            rewrite: RewriteOptions::default(),
            chase: ChaseConfig::default(),
            skip_validation: false,
            skip_typecheck: false,
            core_minimize: false,
            interning: true,
        }
    }
}

impl PipelineOptions {
    /// Run the chase on `threads` workers (the parallel executor of
    /// `grom-exec`); `threads <= 1` selects the sequential delta
    /// scheduler. Results are identical up to the renaming of labeled
    /// nulls. Also reachable via the `GROM_THREADS` environment variable
    /// (see [`grom_chase::SchedulerMode`]) and `grom run --threads`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.chase = self.chase.with_threads(threads);
        self
    }

    /// Enable or disable symbol interning for the chase (see
    /// [`PipelineOptions::interning`]).
    pub fn with_interning(mut self, interning: bool) -> Self {
        self.interning = interning;
        self
    }
}

/// Rewrite every string constant in `deps` to its interned symbol in
/// `table`, so dependency constants compare against [`Value::Sym`] instance
/// columns by id. Non-string values pass through unchanged. The pipeline
/// calls this with the same table that interned the working instance —
/// using a different table would silently break constant/instance joins.
pub fn intern_dependencies(deps: &[Dependency], table: &mut SymbolTable) -> Vec<Dependency> {
    fn value(v: &Value, table: &mut SymbolTable) -> Value {
        match v {
            Value::Str(s) => Value::Sym(table.intern(s)),
            other => other.clone(),
        }
    }
    fn term(t: &Term, table: &mut SymbolTable) -> Term {
        match t {
            Term::Const(v) => Term::Const(value(v, table)),
            var => var.clone(),
        }
    }
    fn atom(a: &Atom, table: &mut SymbolTable) -> Atom {
        Atom {
            predicate: a.predicate.clone(),
            args: a.args.iter().map(|t| term(t, table)).collect(),
        }
    }
    fn cmp(c: &Comparison, table: &mut SymbolTable) -> Comparison {
        Comparison::new(c.op, term(&c.lhs, table), term(&c.rhs, table))
    }
    deps.iter()
        .map(|d| Dependency {
            name: d.name.clone(),
            premise: d
                .premise
                .iter()
                .map(|l| match l {
                    Literal::Pos(a) => Literal::Pos(atom(a, table)),
                    Literal::Neg(a) => Literal::Neg(atom(a, table)),
                    Literal::Cmp(c) => Literal::Cmp(cmp(c, table)),
                })
                .collect(),
            disjuncts: d
                .disjuncts
                .iter()
                .map(|dj| Disjunct {
                    atoms: dj.atoms.iter().map(|a| atom(a, table)).collect(),
                    eqs: dj
                        .eqs
                        .iter()
                        .map(|(l, r)| (term(l, table), term(r, table)))
                        .collect(),
                    cmps: dj.cmps.iter().map(|c| cmp(c, table)).collect(),
                })
                .collect(),
        })
        .collect()
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct ExchangeResult {
    /// The generated target instance `J_T` (target-schema relations only).
    pub target: Instance,
    /// The extents of the source views (empty when there is no source
    /// semantic schema).
    pub source_view_extents: Instance,
    /// Per-view tuple counts of the source materialization (the deltas
    /// reported by [`grom_engine::materialize_views_tracked`]).
    pub source_view_counts: std::collections::BTreeMap<std::sync::Arc<str>, usize>,
    /// The rewritten program and its diagnostics.
    pub rewritten: RewriteOutput,
    /// Termination analysis of the rewritten program.
    pub wa_report: WeakAcyclicityReport,
    /// Chase statistics (rounds, nulls, scenario counts, …).
    pub chase_stats: ChaseStats,
    /// Per-dependency chase profile (wall time, activation splits, sweep
    /// phase timings; see [`grom_chase::render_report`]).
    pub chase_profile: ChaseProfile,
    /// Core-minimization statistics, when requested via
    /// [`PipelineOptions::core_minimize`].
    pub core_stats: Option<grom_chase::CoreStats>,
    /// The soundness certificate, unless validation was skipped.
    pub validation: Option<ValidationReport>,
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// Scenario-level structural problems (sides, undeclared predicates…).
    Scenario(String),
    Lang(LangError),
    Data(DataError),
    Rewrite(RewriteError),
    Materialize(MaterializeError),
    Chase(ChaseError),
}

impl PipelineError {
    pub fn scenario(msg: impl Into<String>) -> Self {
        PipelineError::Scenario(msg.into())
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Scenario(m) => write!(f, "scenario error: {m}"),
            PipelineError::Lang(e) => write!(f, "{e}"),
            PipelineError::Data(e) => write!(f, "{e}"),
            PipelineError::Rewrite(e) => write!(f, "{e}"),
            PipelineError::Materialize(e) => write!(f, "{e}"),
            PipelineError::Chase(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LangError> for PipelineError {
    fn from(e: LangError) -> Self {
        PipelineError::Lang(e)
    }
}
impl From<DataError> for PipelineError {
    fn from(e: DataError) -> Self {
        PipelineError::Data(e)
    }
}
impl From<RewriteError> for PipelineError {
    fn from(e: RewriteError) -> Self {
        PipelineError::Rewrite(e)
    }
}
impl From<MaterializeError> for PipelineError {
    fn from(e: MaterializeError) -> Self {
        PipelineError::Materialize(e)
    }
}
impl From<ChaseError> for PipelineError {
    fn from(e: ChaseError) -> Self {
        PipelineError::Chase(e)
    }
}

impl MappingScenario {
    /// Rewrite the scenario's semantic mappings into executable
    /// dependencies over the physical schemas (no chase). Source views are
    /// *not* unfolded — they are materialized at run time (the composition
    /// reduction of §3), so the rewriting only unfolds target views.
    pub fn rewrite(&self, options: &RewriteOptions) -> Result<RewriteOutput, PipelineError> {
        let deps: Vec<Dependency> = self.all_dependencies().cloned().collect();
        Ok(rewrite_program(&self.target_views, &deps, options)?)
    }

    /// Run the full pipeline on a source instance.
    pub fn run(
        &self,
        source: &Instance,
        options: &PipelineOptions,
    ) -> Result<ExchangeResult, PipelineError> {
        self.validate()?;
        if !options.skip_typecheck {
            self.typecheck_source(source)?;
        }

        // 1. Materialize the source semantic schema (if any) and extend the
        //    working database with its extents.
        let materialized = grom_engine::materialize_views_tracked(&self.source_views, source)?;
        let source_view_extents = materialized.extents;
        let source_view_counts = materialized.per_view;
        let mut working = source.clone();
        working.absorb(&source_view_extents)?;

        // 2. Rewrite against the target views.
        let rewritten = self.rewrite(&options.rewrite)?;

        // 3. Termination analysis (informational — the chase also has a
        //    round budget).
        let wa_report = grom_chase::is_weakly_acyclic(&rewritten.deps);

        // 4. Chase (greedy ded strategy when deds are present). With
        //    interning on, the working instance and the dependency
        //    constants pass through one symbol table first, so every join
        //    and dedup inside the chase compares dense ids; the extraction
        //    below folds the symbols back into plain strings. An
        //    interrupted chase is un-interned the same way before it
        //    propagates, so its checkpoint serializes plain strings and
        //    resumes without the run's symbol table.
        let result = if options.interning {
            let mut table = SymbolTable::new();
            let interned = working.intern_strings(&mut table);
            let deps = intern_dependencies(&rewritten.deps, &mut table);
            match chase_with_deds(interned, &deps, &options.chase) {
                Ok(r) => r,
                Err(ChaseError::Interrupted(mut i)) => {
                    i.unintern();
                    return Err(PipelineError::Chase(ChaseError::Interrupted(i)));
                }
                Err(e) => return Err(e.into()),
            }
        } else {
            chase_with_deds(working, &rewritten.deps, &options.chase)?
        };

        // 5. Extract the target instance: target-schema relations only,
        //    un-interned back to string constants.
        let mut target = self.extract_target(&result.instance)?;

        // 5b. Optional core minimization of the universal solution.
        let core_stats = options
            .core_minimize
            .then(|| grom_chase::core_minimize(&mut target));

        // 6. Soundness certificate.
        let validation = if options.skip_validation {
            None
        } else {
            Some(validate_solution(self, source, &target)?)
        };

        Ok(ExchangeResult {
            target,
            source_view_extents,
            source_view_counts,
            rewritten,
            wa_report,
            chase_stats: result.stats,
            chase_profile: result.profile,
            core_stats,
            validation,
        })
    }

    /// Project a chased instance down to the target schema, folding
    /// interned symbols back into plain string constants.
    pub fn extract_target(&self, chased: &Instance) -> Result<Instance, PipelineError> {
        let mut target = Instance::new();
        for rel in self.target_schema.relations() {
            for t in chased.tuples(rel.name()) {
                let values: Vec<Value> = t.values().iter().map(Value::unintern).collect();
                target.insert(rel.name(), values.into())?;
            }
        }
        Ok(target)
    }

    /// Continue an interrupted pipeline run from a chase checkpoint.
    ///
    /// The scenario is re-rewritten to recover the dependency set the
    /// checkpoint's worklist is aligned with; source materialization is
    /// skipped — the checkpoint instance already contains the sources and
    /// everything derived from them. Interning is likewise skipped:
    /// checkpoints always store plain strings (see
    /// [`grom_chase::Interrupted::unintern`]).
    ///
    /// Scenarios whose rewriting produces disjunctive embedded
    /// dependencies chase a *derived* dependency set per ded scenario; a
    /// checkpoint from such a run resumes exactly only under the same
    /// derived set, which this method does not reconstruct — it fails up
    /// front instead of resuming against the wrong program.
    pub fn resume(
        &self,
        checkpoint: &grom_chase::Checkpoint,
        options: &PipelineOptions,
    ) -> Result<grom_chase::ChaseOutcome, PipelineError> {
        self.validate()?;
        let rewritten = self.rewrite(&options.rewrite)?;
        if !rewritten.is_ded_free() {
            return Err(PipelineError::scenario(
                "cannot resume a checkpoint for a scenario with disjunctive \
                 dependencies: the ded campaign chases derived programs the \
                 checkpoint worklist is not aligned with",
            ));
        }
        Ok(grom_chase::chase_resume(
            checkpoint,
            &rewritten.deps,
            &options.chase,
        )?)
    }

    /// Check a source instance against the source schema: every relation
    /// declared, every tuple well-typed.
    pub fn typecheck_source(&self, source: &Instance) -> Result<(), PipelineError> {
        for name in source.relation_names() {
            let Some(rel_schema) = self.source_schema.relation(name) else {
                return Err(PipelineError::scenario(format!(
                    "source instance populates `{name}`, which is not in the source schema"
                )));
            };
            for t in source.tuples(name) {
                rel_schema.check_tuple(t)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::{Tuple, Value};
    use grom_lang::Program;

    fn paper_scenario() -> MappingScenario {
        let prog = Program::parse(crate::scenario::tests::PAPER_SCENARIO).unwrap();
        MappingScenario::from_program(&prog).unwrap()
    }

    fn paper_source() -> Instance {
        let mut s = Instance::new();
        // (id, name, store, rating)
        for (id, name, store, rating) in [
            (1, "tv", "acme", 5),
            (2, "radio", "acme", 3),
            (3, "fridge", "bestbuy", 1),
        ] {
            s.add(
                "S_Product",
                vec![
                    Value::int(id),
                    Value::str(name),
                    Value::str(store),
                    Value::int(rating),
                ],
            )
            .unwrap();
        }
        for (name, loc) in [("acme", "rome"), ("bestbuy", "milan")] {
            s.add("S_Store", vec![Value::str(name), Value::str(loc)])
                .unwrap();
        }
        s
    }

    #[test]
    fn paper_running_example_end_to_end() {
        let sc = paper_scenario();
        let res = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();

        // Every product id lands in T_Product. (The universal solution may
        // contain extra tuples with labeled nulls — e.g. the SoldAt
        // unfolding re-derives products — so count distinct ids.)
        let mut pids: Vec<i64> = res
            .target
            .tuples("T_Product")
            .filter_map(|t| t.get(0).unwrap().as_int())
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, vec![1, 2, 3]);
        // The average product (rating 3) needs a 1-rating witness; the
        // unpopular one (rating 1) needs a 0-rating witness.
        let ratings: Vec<&Tuple> = res.target.tuples("T_Rating").collect();
        assert!(ratings.len() >= 2, "ratings: {ratings:?}");
        // Stores are created with invented ids.
        assert!(res.target.tuples("T_Store").count() >= 2);

        // The soundness certificate holds.
        let validation = res.validation.unwrap();
        assert!(validation.ok, "{validation}");

        // e0 over negated views makes the rewritten program contain deds.
        assert!(!res.rewritten.is_ded_free());
    }

    #[test]
    fn classification_respects_view_semantics() {
        let sc = paper_scenario();
        let res = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        // Materialize the target views over J_T and check the product
        // classification matches the source ratings.
        let extents = grom_engine::materialize_views(&sc.target_views, &res.target).unwrap();
        let ids = |view: &str| -> Vec<i64> {
            let mut v: Vec<i64> = extents
                .tuples(view)
                .map(|t| t.get(0).unwrap().as_int().unwrap())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(ids("PopularProduct"), vec![1]);
        assert_eq!(ids("AvgProduct"), vec![2]);
        assert_eq!(ids("UnpopularProduct"), vec![3]);
    }

    #[test]
    fn key_conflict_makes_chase_fail() {
        // Two distinct popular products with the same name violate e0; the
        // rewritten ded d0 lets the chase invent a 0-rating for one of them
        // — but then that product must not be popular, which m2 forces it
        // to be: the pipeline must fail (paper: "we say nothing about the
        // cases in which the rewritten mappings fail").
        let sc = paper_scenario();
        let mut source = Instance::new();
        for (id, name) in [(1, "tv"), (2, "tv")] {
            source
                .add(
                    "S_Product",
                    vec![
                        Value::int(id),
                        Value::str(name),
                        Value::str("acme"),
                        Value::int(5),
                    ],
                )
                .unwrap();
        }
        source
            .add("S_Store", vec![Value::str("acme"), Value::str("rome")])
            .unwrap();
        let res = sc.run(&source, &PipelineOptions::default());
        assert!(
            matches!(res, Err(PipelineError::Chase(_))),
            "expected chase failure, got {res:?}"
        );
    }

    #[test]
    fn source_views_materialize_and_feed_mappings() {
        let prog = Program::parse(
            r#"
            schema source { S_Emp(name: string, salary: int); }
            schema target { T_Rich(name: string); }
            view RichEmp(n) <- S_Emp(n, s), s > 100.
            tgd m: RichEmp(n) -> T_Rich(n).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source
            .add("S_Emp", vec![Value::str("ann"), Value::int(200)])
            .unwrap();
        source
            .add("S_Emp", vec![Value::str("bob"), Value::int(50)])
            .unwrap();
        let res = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(res.source_view_extents.tuples("RichEmp").count(), 1);
        let rich: Vec<_> = res.target.tuples("T_Rich").collect();
        assert_eq!(rich.len(), 1);
        assert_eq!(rich[0].get(0), Some(&Value::str("ann")));
        assert!(res.validation.unwrap().ok);
    }

    #[test]
    fn source_view_counts_reported() {
        let prog = Program::parse(
            r#"
            schema source { S_Emp(name: string, salary: int); }
            schema target { T_Rich(name: string); }
            view RichEmp(n) <- S_Emp(n, s), s > 100.
            tgd m: RichEmp(n) -> T_Rich(n).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source
            .add("S_Emp", vec![Value::str("ann"), Value::int(200)])
            .unwrap();
        source
            .add("S_Emp", vec![Value::str("cyn"), Value::int(300)])
            .unwrap();
        let res = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(res.source_view_counts["RichEmp"], 2);
    }

    #[test]
    fn full_rescan_scheduler_agrees_with_delta_default() {
        use grom_chase::SchedulerMode;
        let sc = paper_scenario();
        let delta = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        let naive_opts = PipelineOptions {
            chase: ChaseConfig::default().with_scheduler(SchedulerMode::FullRescan),
            ..Default::default()
        };
        let naive = sc.run(&paper_source(), &naive_opts).unwrap();
        assert!(delta.validation.unwrap().ok);
        assert!(naive.validation.unwrap().ok);
        // Identical targets up to null relabeling.
        assert_eq!(
            grom_data::canonical_render(&delta.target),
            grom_data::canonical_render(&naive.target)
        );
        // The delta run actually exercised delta scheduling.
        assert!(delta.chase_stats.delta_activations > 0);
        assert_eq!(naive.chase_stats.delta_activations, 0);
    }

    #[test]
    fn parallel_pipeline_agrees_with_sequential() {
        let sc = paper_scenario();
        let seq = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        let par_opts = PipelineOptions::default().with_threads(4);
        let par = sc.run(&paper_source(), &par_opts).unwrap();
        assert!(par.validation.unwrap().ok);
        assert_eq!(
            grom_data::canonical_render(&seq.target),
            grom_data::canonical_render(&par.target)
        );
    }

    #[test]
    fn typecheck_rejects_bad_source() {
        let sc = paper_scenario();
        let mut source = Instance::new();
        source.add("Unknown", vec![Value::int(1)]).unwrap();
        let err = sc.run(&source, &PipelineOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not in the source schema"));

        let mut source = Instance::new();
        source
            .add("S_Store", vec![Value::int(3), Value::str("x")])
            .unwrap();
        let err = sc.run(&source, &PipelineOptions::default()).unwrap_err();
        assert!(matches!(err, PipelineError::Data(_)));
    }

    #[test]
    fn empty_source_gives_empty_target() {
        let sc = paper_scenario();
        let res = sc
            .run(&Instance::new(), &PipelineOptions::default())
            .unwrap();
        assert!(res.target.is_empty());
        assert!(res.validation.unwrap().ok);
    }

    #[test]
    fn skip_validation_option() {
        let sc = paper_scenario();
        let opts = PipelineOptions {
            skip_validation: true,
            ..Default::default()
        };
        let res = sc.run(&paper_source(), &opts).unwrap();
        assert!(res.validation.is_none());
    }

    #[test]
    fn core_minimization_folds_redundant_witnesses() {
        // Two mappings target T: one with an existential witness, one with
        // concrete data. The restricted chase (visiting `a` before `b`)
        // leaves a redundant T(1, N) beside T(1, 5); the core folds it and
        // the result still validates (the core of a universal solution is a
        // universal solution).
        let prog = Program::parse(
            r#"
            schema source { S(x: int); S2(x: int, y: int); }
            schema target { T(x: int, y: int); }
            view V(x) <- T(x, y).
            view V2(x, y) <- T(x, y).
            tgd a: S(x) -> V(x).
            tgd b: S2(x, y) -> V2(x, y).
            "#,
        )
        .unwrap();
        let sc = MappingScenario::from_program(&prog).unwrap();
        let mut source = Instance::new();
        source.add("S", vec![Value::int(1)]).unwrap();
        source
            .add("S2", vec![Value::int(1), Value::int(5)])
            .unwrap();

        let plain = sc.run(&source, &PipelineOptions::default()).unwrap();
        assert_eq!(plain.target.tuples("T").count(), 2);

        let opts = PipelineOptions {
            core_minimize: true,
            ..Default::default()
        };
        let cored = sc.run(&source, &opts).unwrap();
        let stats = cored.core_stats.unwrap();
        assert_eq!(stats.nulls_folded, 1, "{stats:?}");
        assert_eq!(cored.target.tuples("T").count(), 1);
        let t: Vec<_> = cored.target.tuples("T").collect();
        assert_eq!(t[0].get(1), Some(&Value::int(5)));
        assert!(cored.validation.unwrap().ok);
    }

    #[test]
    fn paper_scenario_is_already_core() {
        // In the running example every invented store block is linked to
        // its own product row, so nothing folds: the chase output is its
        // own core (a meaningful negative result).
        let sc = paper_scenario();
        let opts = PipelineOptions {
            core_minimize: true,
            ..Default::default()
        };
        let res = sc.run(&paper_source(), &opts).unwrap();
        assert_eq!(res.core_stats.unwrap().nulls_folded, 0);
        assert!(res.validation.unwrap().ok);
    }

    #[test]
    fn wa_report_present() {
        let sc = paper_scenario();
        let res = sc
            .run(&paper_source(), &PipelineOptions::default())
            .unwrap();
        assert!(res.wa_report.weakly_acyclic, "{}", res.wa_report);
    }
}
