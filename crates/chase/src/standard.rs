//! The restricted chase for standard dependencies (tgds, egds, denials).
//!
//! The chase repeatedly looks for *violations* — premise matches for which
//! the (single) disjunct is not already satisfied — and repairs them:
//!
//! * **tgd-style** disjuncts add the conclusion atoms, witnessing each
//!   existential variable with a fresh labeled null (the *restricted* chase:
//!   a violation is only repaired if no extension homomorphism already
//!   satisfies the conclusion, so the engine never bloats instances with
//!   redundant nulls);
//! * **egd-style** disjuncts unify values through a [`NullMap`]; equating
//!   two distinct constants is a chase failure;
//! * **denials** (zero disjuncts) fail on any premise match;
//! * mixed disjuncts (atoms + equalities) combine both behaviours, and a
//!   disjunct whose comparisons do not hold under the match can never be
//!   repaired — also a failure. (These arise from greedy-ded scenarios.)
//!
//! For weakly-acyclic programs the result is a **universal solution** in the
//! sense of Fagin–Kolaitis–Miller–Popa; termination for arbitrary programs
//! is enforced by the round budget.

use std::time::Instant;

use grom_data::{Instance, Value};
use grom_lang::{Bindings, Dependency, Term, Var};
use grom_trace::{ActivationKind, ActivationRecord};

use grom_engine::{disjunct_satisfied, evaluate_body_streaming, Control, Db};
use grom_exec::Store;

use crate::checkpoint::ResumeState;
use crate::config::{ChaseConfig, InterruptReason, SchedulerMode};
use crate::nullmap::{NullMap, Unify};
use crate::result::{ChaseError, ChaseResult, ChaseStats};
use crate::scheduler::{RunState, SweepEnd};

/// Reject dependencies the standard chase cannot execute.
pub(crate) fn check_executable(dep: &Dependency, allow_deds: bool) -> Result<(), ChaseError> {
    if dep.has_negated_premise() {
        return Err(ChaseError::NotExecutable {
            dependency: dep.name.clone(),
            reason: "premise contains negated literals; run the rewriter first".into(),
        });
    }
    if !allow_deds && dep.disjuncts.len() > 1 {
        return Err(ChaseError::NotExecutable {
            dependency: dep.name.clone(),
            reason: "disjunctive conclusion requires the ded chase".into(),
        });
    }
    Ok(())
}

/// Collect every violating premise match of `dep` in `db`.
pub(crate) fn collect_violations(db: &impl Db, dep: &Dependency) -> Vec<Bindings> {
    let mut out = Vec::new();
    evaluate_body_streaming(db, &dep.premise, &Bindings::new(), |b| {
        if !dep.disjuncts.iter().any(|d| disjunct_satisfied(db, d, b)) {
            out.push(b.clone());
        }
        Control::Continue
    });
    out
}

/// Resolve every value of a binding through the null map (bindings become
/// stale when egds merge nulls after the match was found).
pub(crate) fn resolve_bindings(b: &Bindings, nulls: &mut Nulls) -> Bindings {
    let mut out = Bindings::new();
    for (v, val) in b.iter() {
        out.bind(v.clone(), nulls.resolve(val));
    }
    out
}

/// How a repair resolves bound values and where its equalities go.
#[derive(Debug)]
pub(crate) enum Nulls<'a> {
    /// The caller owns the run's null map: equalities unify in place, and
    /// `merged` notes that the instance holds nulls with pending
    /// replacements until the caller substitutes.
    Owned { map: &'a mut NullMap, merged: bool },
    /// A pool job: the sweep-start map is shared read-only, and equalities
    /// are collected as obligations tagged with their dependency index, for
    /// the barrier to unify in declaration order. The job-local `overlay`
    /// lets later violations of the same job see the pending merges.
    Collect {
        frozen: &'a NullMap,
        overlay: NullMap,
        obligations: Vec<(usize, Value, Value)>,
    },
}

impl<'a> Nulls<'a> {
    pub(crate) fn owned(map: &'a mut NullMap) -> Self {
        Nulls::Owned { map, merged: false }
    }

    pub(crate) fn collect(frozen: &'a NullMap) -> Self {
        Nulls::Collect {
            frozen,
            overlay: NullMap::new(),
            obligations: Vec::new(),
        }
    }

    /// Is resolution the identity? Then raw bindings are already resolved.
    pub(crate) fn is_identity(&self) -> bool {
        match self {
            Nulls::Owned { map, .. } => map.is_empty(),
            Nulls::Collect {
                frozen, overlay, ..
            } => frozen.is_empty() && overlay.is_empty(),
        }
    }

    /// Resolve a value through every pending merge. Stored tuples are clean
    /// with respect to a pool job's frozen map (every sweep that merges
    /// also substitutes), so there the overlay carries all the action.
    pub(crate) fn resolve(&mut self, v: &Value) -> Value {
        match self {
            Nulls::Owned { map, .. } => map.resolve(v),
            Nulls::Collect {
                frozen, overlay, ..
            } => overlay.resolve(&frozen.resolve_frozen(v)),
        }
    }

    /// Are there equalities the stored instance does not reflect yet?
    pub(crate) fn pending(&self) -> bool {
        match self {
            Nulls::Owned { merged, .. } => *merged,
            Nulls::Collect { obligations, .. } => !obligations.is_empty(),
        }
    }

    /// Clear the pending flag of an owned map, returning it; the caller
    /// substitutes the merges it reported.
    pub(crate) fn take_merged(&mut self) -> bool {
        match self {
            Nulls::Owned { merged, .. } => std::mem::take(merged),
            Nulls::Collect { .. } => false,
        }
    }

    /// Enforce `l = r` on behalf of dependency `k`. An owned map unifies
    /// (failing on a constant clash); a pool job records the obligation
    /// unless the overlay already equates the two — a local clash is
    /// recorded too, and surfaces deterministically at the barrier.
    fn equate(
        &mut self,
        k: usize,
        dep: &Dependency,
        l: &Value,
        r: &Value,
        stats: &mut ChaseStats,
    ) -> Result<(), ChaseError> {
        match self {
            Nulls::Owned { map, merged } => {
                stats.obligations_batched += 1;
                match map.unify(l, r) {
                    Unify::Noop => {}
                    Unify::Merged => {
                        *merged = true;
                        stats.egd_merges += 1;
                    }
                    Unify::Clash(a, b) => return Err(ChaseError::clash(&dep.name, &a, &b)),
                }
            }
            Nulls::Collect {
                frozen,
                overlay,
                obligations,
            } => {
                let la = overlay.resolve(&frozen.resolve_frozen(l));
                let ra = overlay.resolve(&frozen.resolve_frozen(r));
                if la != ra {
                    obligations.push((k, l.clone(), r.clone()));
                    stats.obligations_batched += 1;
                    let _ = overlay.unify(&la, &ra);
                }
            }
        }
        Ok(())
    }
}

/// Apply disjunct `disjunct_idx` of dependency `k` to repair a violation:
/// comparisons must hold, equalities go through `nulls`, and atoms are
/// inserted into `store` with bound values resolved and one fresh null per
/// existential variable. The one repair of every chase: the reference
/// loop, the sweep jobs and the exhaustive ded chase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_disjunct(
    store: &mut impl Store,
    k: usize,
    dep: &Dependency,
    disjunct_idx: usize,
    bindings: &Bindings,
    nulls: &mut Nulls,
    fresh_null: &mut impl FnMut() -> Value,
    stats: &mut ChaseStats,
) -> Result<(), ChaseError> {
    let disjunct = &dep.disjuncts[disjunct_idx];

    // Comparisons over premise variables: if they do not hold for this
    // match, no repair can ever satisfy this disjunct.
    for c in &disjunct.cmps {
        if !bindings.eval_comparison(c).unwrap_or(false) {
            return Err(ChaseError::Failure {
                dependency: dep.name.clone(),
                detail: format!("disjunct comparison `{c}` cannot be satisfied at {bindings}"),
            });
        }
    }

    // Equalities: each one is an obligation routed through the null map;
    // the batched schedulers resolve the instance once per sweep, the
    // full-rescan reference once per merging dependency.
    for (l, r) in &disjunct.eqs {
        let lv = eval_bound_term(l, bindings, dep)?;
        let rv = eval_bound_term(r, bindings, dep)?;
        nulls.equate(k, dep, &lv, &rv, stats)?;
    }

    // Atoms: one fresh null per existential variable, shared across the
    // disjunct's atoms.
    if !disjunct.atoms.is_empty() {
        let mut fresh: std::collections::BTreeMap<Var, Value> = Default::default();
        for atom in &disjunct.atoms {
            let mut row = Vec::with_capacity(atom.args.len());
            for t in &atom.args {
                let v = match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => match bindings.get(v) {
                        Some(val) => nulls.resolve(val),
                        None => fresh
                            .entry(v.clone())
                            .or_insert_with(|| {
                                stats.nulls_invented += 1;
                                fresh_null()
                            })
                            .clone(),
                    },
                };
                row.push(v);
            }
            if store.insert(&atom.predicate, row.into())? {
                stats.tuples_inserted += 1;
            }
        }
        stats.tgd_applications += 1;
    }

    Ok(())
}

pub(crate) fn eval_bound_term(
    t: &Term,
    bindings: &Bindings,
    dep: &Dependency,
) -> Result<Value, ChaseError> {
    bindings
        .eval_term(t)
        .ok_or_else(|| ChaseError::NotExecutable {
            dependency: dep.name.clone(),
            reason: format!("equality term `{t}` is not bound by the premise"),
        })
}

/// Run the standard chase over `start` with `deps`.
///
/// `start` is the working database: for data-exchange scenarios this is the
/// source instance (the chase adds target tuples into the same instance;
/// source and target relation names are disjoint by construction).
///
/// Runs the one sweep driver ([`crate::scheduler`]) under
/// [`ChaseConfig::scheduler`]: the default delta-driven mode seeds premise
/// evaluation from the tuples inserted since each dependency was last
/// checked, on the calling thread; the parallel mode runs the same
/// worklist's conflict groups on a worker pool ([`crate::parallel`]); the
/// full-rescan reference re-evaluates every premise against the whole
/// instance each round. All produce the same solutions (up to the usual
/// renaming of labeled nulls) and the same failure modes.
pub fn chase_standard(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    // Wire up the composite join-key indexes the static premise analysis
    // predicts, before the first sweep touches the instance. Relations the
    // chase has yet to create pick their keys up on creation.
    let mut start = start;
    crate::trigger::register_join_keys(&mut start, deps);
    crate::scheduler::run(
        ResumeState::fresh(start, deps),
        deps,
        config,
        config.scheduler,
    )
}

/// The classical round-based chase: every round re-evaluates every
/// dependency's premise against the entire instance. Kept as the reference
/// implementation (the delta and parallel modes must agree with it — see
/// the `property_delta` suite) and as the explicit
/// [`SchedulerMode::FullRescan`] escape hatch, whatever `config` says.
pub fn chase_standard_full_rescan(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    crate::scheduler::run(
        ResumeState::fresh(start, deps),
        deps,
        config,
        SchedulerMode::FullRescan,
    )
}

/// One round of the reference loop: evaluate every premise against the
/// whole instance, in declaration order, and substitute after each
/// dependency that merged nulls. The driver owns everything around it —
/// round limit, budgets, checkpoints and the sweep record.
pub(crate) fn full_rescan_round(
    run: &mut RunState,
    deps: &[Dependency],
    sweep: u64,
) -> Result<SweepEnd, ChaseError> {
    let RunState {
        inst,
        nullmap,
        nullgen,
        stats,
        rec,
        ..
    } = run;
    let mut end = SweepEnd {
        progressed: false,
        observed: None,
    };
    for (k, dep) in deps.iter().enumerate() {
        let t0 = Instant::now();
        let tuples0 = stats.tuples_inserted;
        let obligations0 = stats.obligations_batched;
        let violations = if dep.is_denial() {
            if let Some(v) = grom_engine::find_violation(&*inst, dep) {
                return Err(ChaseError::Failure {
                    dependency: dep.name.clone(),
                    detail: format!("denial premise matched at {}", v.bindings),
                });
            }
            Vec::new()
        } else {
            // `check_executable` guarantees exactly one disjunct here; a
            // trivially-true empty disjunct has no violations by definition.
            collect_violations(&*inst, dep)
        };
        let mut nulls = Nulls::owned(nullmap);
        for b in &violations {
            let b = resolve_bindings(b, &mut nulls);
            // Re-check: earlier repairs in this batch (or merges) may
            // have satisfied this match already. Note the instance may
            // still contain stale nulls mid-batch; that only makes this
            // check conservative (it may repair redundantly, and the
            // final substitution merges the duplicates).
            if disjunct_satisfied(&*inst, &dep.disjuncts[0], &b) {
                continue;
            }
            let fresh = &mut || nullgen.fresh();
            apply_disjunct(inst, k, dep, 0, &b, &mut nulls, fresh, stats)?;
            end.progressed = true;
        }
        let merged = nulls.take_merged();
        rec.activation(
            sweep,
            &ActivationRecord {
                dep: k,
                kind: ActivationKind::Full,
                seeded: 0,
                violations: violations.len() as u64,
                tuples: (stats.tuples_inserted - tuples0) as u64,
                obligations: (stats.obligations_batched - obligations0) as u64,
                dedup_hits: 0,
                wall_ns: t0.elapsed().as_nanos() as u64,
            },
        );
        if merged {
            let ts = Instant::now();
            let changed = inst.substitute_nulls(|id| nullmap.lookup(id));
            stats.substitution_passes += 1;
            rec.substitution(sweep, 0, changed.len(), ts.elapsed().as_nanos() as u64);
            if grom_fail::hit("subst") {
                end.observed.get_or_insert(InterruptReason::Fault);
            }
        }
    }
    rec.end_sweep(sweep, None, 0);
    Ok(end)
}

/// Convenience for tests: do all `deps` hold in `inst`?
pub fn all_satisfied(inst: &Instance, deps: &[Dependency]) -> bool {
    deps.iter()
        .all(|d| grom_engine::dependency_satisfied(inst, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Tuple;
    use grom_lang::parser::{parse_dependency, parse_program};

    fn inst(facts: &[(&str, &[i64])]) -> Instance {
        let mut i = Instance::new();
        for (rel, vals) in facts {
            i.add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
                .unwrap();
        }
        i
    }

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn copy_tgd() {
        let dep = parse_dependency("tgd m: S(x, y) -> T(x, y).").unwrap();
        let res = chase_standard(
            inst(&[("S", &[1, 2]), ("S", &[3, 4])]),
            std::slice::from_ref(&dep),
            &cfg(),
        )
        .unwrap();
        assert!(res
            .instance
            .contains_fact("T", &Tuple::new(vec![Value::int(1), Value::int(2)])));
        assert!(res
            .instance
            .contains_fact("T", &Tuple::new(vec![Value::int(3), Value::int(4)])));
        assert!(all_satisfied(&res.instance, &[dep]));
        assert_eq!(res.stats.tuples_inserted, 2);
        assert_eq!(res.stats.nulls_invented, 0);
    }

    #[test]
    fn existential_tgd_invents_nulls() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y), U(y).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), std::slice::from_ref(&dep), &cfg()).unwrap();
        // One shared fresh null across both conclusion atoms.
        assert_eq!(res.stats.nulls_invented, 1);
        let t: Vec<_> = res.instance.tuples("T").collect();
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(t.len(), 1);
        assert_eq!(u.len(), 1);
        assert_eq!(t[0].get(1), u[0].get(0));
        assert!(t[0].get(1).unwrap().is_null());
        assert!(all_satisfied(&res.instance, &[dep]));
    }

    #[test]
    fn restricted_chase_is_idempotent() {
        let dep = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), std::slice::from_ref(&dep), &cfg()).unwrap();
        let nulls_before = res.stats.nulls_invented;
        let res2 = chase_standard(res.instance, &[dep], &cfg()).unwrap();
        // Nothing new: the conclusion is already witnessed.
        assert_eq!(res2.stats.nulls_invented, 0);
        assert_eq!(res2.stats.tuples_inserted, 0);
        assert_eq!(nulls_before, 1);
    }

    #[test]
    fn egd_merges_null_with_constant() {
        // First tgd invents a null for y; then a second source tuple fixes
        // the value via the egd on T's key.
        let m = parse_dependency("tgd m: S(x) -> T(x, y).").unwrap();
        let k = parse_dependency("tgd k: S2(x, y) -> T(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let start = inst(&[("S", &[1]), ("S2", &[1, 42])]);
        let res = chase_standard(start, &[m.clone(), k.clone(), e.clone()], &cfg()).unwrap();
        let t: Vec<_> = res.instance.tuples("T").collect();
        assert_eq!(
            t.len(),
            1,
            "null tuple must merge with constant tuple: {t:?}"
        );
        assert_eq!(t[0].get(1), Some(&Value::int(42)));
        assert!(res.stats.egd_merges >= 1);
        assert!(all_satisfied(&res.instance, &[m, k, e]));
    }

    #[test]
    fn egd_clash_fails() {
        let e = parse_dependency("egd e: T(x, y1), T(x, y2) -> y1 = y2.").unwrap();
        let start = inst(&[("T", &[1, 10]), ("T", &[1, 20])]);
        match chase_standard(start, &[e], &cfg()) {
            Err(ChaseError::Failure { dependency, .. }) => {
                assert_eq!(dependency.as_ref(), "e");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn egd_merges_two_nulls() {
        let m1 = parse_dependency("tgd a: S(x) -> T(x, y).").unwrap();
        let m2 = parse_dependency("tgd b: S(x) -> U(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, y1), U(x, y2) -> y1 = y2.").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[m1, m2, e.clone()], &cfg()).unwrap();
        let t: Vec<_> = res.instance.tuples("T").collect();
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(t[0].get(1), u[0].get(1));
        assert!(t[0].get(1).unwrap().is_null());
        assert!(grom_engine::dependency_satisfied(&res.instance, &e));
    }

    #[test]
    fn denial_fails_on_match() {
        let n = parse_dependency("dep n: T(x, x) -> false.").unwrap();
        let ok = chase_standard(inst(&[("T", &[1, 2])]), std::slice::from_ref(&n), &cfg());
        assert!(ok.is_ok());
        let bad = chase_standard(inst(&[("T", &[3, 3])]), &[n], &cfg());
        assert!(matches!(bad, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn denial_triggered_by_tgd_output() {
        // The tgd produces T(x, x) which the denial forbids.
        let m = parse_dependency("tgd m: S(x) -> T(x, x).").unwrap();
        let n = parse_dependency("dep n: T(x, x) -> false.").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[m, n], &cfg());
        assert!(matches!(res, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn foreign_key_chain_terminates() {
        // Dept(d) -> Emp(e, d); Emp(e, d) -> Dept(d): weakly acyclic pair.
        let p = parse_program(
            "tgd a: Dept(d) -> Emp(e, d).\n\
             tgd b: Emp(e, d) -> Dept(d).",
        )
        .unwrap();
        let res = chase_standard(inst(&[("Dept", &[1])]), &p.deps, &cfg()).unwrap();
        assert_eq!(res.instance.tuples("Emp").count(), 1);
        assert_eq!(res.instance.tuples("Dept").count(), 1);
    }

    #[test]
    fn non_terminating_program_hits_round_limit() {
        // R(x, y) -> R(y, z): each application invents a new null — the
        // classic non-weakly-acyclic example.
        let dep = parse_dependency("tgd m: R(x, y) -> R(y, z).").unwrap();
        let res = chase_standard(
            inst(&[("R", &[1, 2])]),
            &[dep],
            &ChaseConfig::default().with_max_rounds(20),
        );
        assert!(matches!(
            res,
            Err(ChaseError::RoundLimit { rounds: 20, .. })
        ));
    }

    #[test]
    fn negated_premise_rejected() {
        let dep = parse_dependency("dep m: S(x), not B(x) -> T(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::NotExecutable { .. })));
    }

    #[test]
    fn ded_rejected_by_standard_chase() {
        let dep = parse_dependency("ded d: S(x) -> T(x) | U(x).").unwrap();
        let res = chase_standard(inst(&[("S", &[1])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::NotExecutable { .. })));
    }

    #[test]
    fn premise_comparisons_gate_matches() {
        let p = parse_program(
            "tgd lo: S(x, r), r < 2 -> Low(x).\n\
             tgd hi: S(x, r), r >= 4 -> High(x).",
        )
        .unwrap();
        let start = inst(&[("S", &[1, 1]), ("S", &[2, 3]), ("S", &[3, 5])]);
        let res = chase_standard(start, &p.deps, &cfg()).unwrap();
        let low: Vec<_> = res.instance.tuples("Low").collect();
        let high: Vec<_> = res.instance.tuples("High").collect();
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].get(0), Some(&Value::int(1)));
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].get(0), Some(&Value::int(3)));
    }

    #[test]
    fn mixed_disjunct_applies_atoms_and_equalities() {
        let dep = parse_dependency("dep d: S(x, y) -> T(x, z), x = y.").unwrap();
        // x = y holds only when the S tuple is diagonal; otherwise clash.
        let res =
            chase_standard(inst(&[("S", &[1, 1])]), std::slice::from_ref(&dep), &cfg()).unwrap();
        assert_eq!(res.instance.tuples("T").count(), 1);
        let res = chase_standard(inst(&[("S", &[1, 2])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn disjunct_comparison_violation_is_failure() {
        // Derived-scenario shape: conclusion requires y != 0 which is
        // unsatisfiable for the match (1, 0).
        let dep = parse_dependency("dep d: S(x, y) -> T(x), y != 0.").unwrap();
        let res = chase_standard(inst(&[("S", &[1, 0])]), &[dep], &cfg());
        assert!(matches!(res, Err(ChaseError::Failure { .. })));
    }

    #[test]
    fn chase_cascades_through_dependencies() {
        let p = parse_program(
            "tgd a: S(x) -> A(x).\n\
             tgd b: A(x) -> B(x).\n\
             tgd c: B(x) -> C(x).",
        )
        .unwrap();
        let res = chase_standard(inst(&[("S", &[7])]), &p.deps, &cfg()).unwrap();
        assert!(res
            .instance
            .contains_fact("C", &Tuple::new(vec![Value::int(7)])));
        // Cascade completes within few rounds.
        assert!(res.stats.rounds <= 4, "rounds = {}", res.stats.rounds);
    }

    #[test]
    fn egd_substitution_reaches_all_relations() {
        let m = parse_dependency("tgd m: S(x) -> T(x, y), U(y, x).").unwrap();
        let k = parse_dependency("tgd k: S2(x, y) -> T(x, y).").unwrap();
        let e = parse_dependency("egd e: T(x, a), T(x, b) -> a = b.").unwrap();
        let start = inst(&[("S", &[1]), ("S2", &[1, 9])]);
        let res = chase_standard(start, &[m, k, e], &cfg()).unwrap();
        // The null propagated into U must also have been replaced by 9.
        let u: Vec<_> = res.instance.tuples("U").collect();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].get(0), Some(&Value::int(9)));
    }
}
