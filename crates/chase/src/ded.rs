//! Chasing disjunctive embedded dependencies (§3 "Handling Complexity").
//!
//! Two strategies, mirroring the paper:
//!
//! * [`chase_greedy`] — the **greedy chase**: fix one disjunct per ded (a
//!   *scenario*), which turns the program into standard tgds/egds, and run
//!   the standard chase; on failure, backtrack to the next scenario.
//!   Disjuncts are tried cheapest-first (equalities before tuple-producing
//!   branches), which is what makes the strategy "often surprisingly quick"
//!   (§4). Sound but not complete: committing to one disjunct *per ded*
//!   cannot mix branches across different violations of the same ded.
//! * [`chase_exhaustive`] — the complete tree chase: at every ded violation
//!   fork one branch per disjunct; the successful leaves form the
//!   **universal model set** (Deutsch–Nash–Remmel), whose size may be
//!   exponential in the number of violations — the blow-up experiment E4
//!   measures, and the reason GROM defaults to the greedy strategy.
//!
//! Both strategies close instances under the *standard* dependencies by
//! delegating to [`chase_standard`], so they inherit the delta-driven
//! scheduler of [`crate::scheduler`] (or the full-rescan reference loop,
//! per [`crate::config::SchedulerMode`]) for every scenario run and every
//! tree-node closure.

use grom_data::{Instance, NullGenerator};
use grom_lang::{Bindings, Dependency};
use grom_trace::ChaseProfile;

use grom_engine::{disjunct_satisfied, evaluate_body_streaming, Control};

use crate::config::ChaseConfig;
use crate::nullmap::NullMap;
use crate::result::{ChaseError, ChaseResult, ChaseStats};
use crate::standard::{apply_disjunct, chase_standard, check_executable, Nulls};

/// Anchor the campaign budget once, so every scenario / node closure the
/// campaign delegates to [`chase_standard`] shares one wall-clock deadline
/// ([`crate::Budget::anchored`] is idempotent — the inner runs re-anchor
/// to the same instant). Tuple/null caps remain per-standard-run: each
/// scenario starts from the same source instance, so a per-run cap is the
/// meaningful bound.
fn campaign_config(config: &ChaseConfig) -> ChaseConfig {
    ChaseConfig {
        budget: config.budget.anchored(),
        ..config.clone()
    }
}

/// Result of the exhaustive ded chase: the universal model set (one
/// instance per successful leaf; instances that differ only by null
/// renaming are not deduplicated) plus statistics.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    pub solutions: Vec<Instance>,
    pub stats: ChaseStats,
    /// Per-dependency profile folded across every node closure (merged by
    /// dependency name — see [`ChaseProfile::absorb`]).
    pub profile: ChaseProfile,
}

/// Split a dependency set into standard dependencies and deds.
fn split(deps: &[Dependency]) -> (Vec<Dependency>, Vec<Dependency>) {
    let (deds, standard): (Vec<_>, Vec<_>) = deps.iter().cloned().partition(Dependency::is_ded);
    (standard, deds)
}

/// Cost key for ordering a ded's disjuncts in the greedy search: equalities
/// first (no new tuples, likely to merge), then by how many tuples the
/// branch would create.
fn disjunct_cost(dep: &Dependency, i: usize) -> (usize, usize) {
    let d = &dep.disjuncts[i];
    (usize::from(!d.atoms.is_empty()), d.atoms.len())
}

/// The per-ded disjunct orderings used by the greedy search.
fn greedy_orders(deds: &[Dependency]) -> Vec<Vec<usize>> {
    deds.iter()
        .map(|dep| {
            let mut order: Vec<usize> = (0..dep.disjuncts.len()).collect();
            order.sort_by_key(|&i| disjunct_cost(dep, i));
            order
        })
        .collect()
}

/// Derive the standard dependency of scenario choice `choice[k]` for ded
/// `k`: same premise, only the chosen disjunct.
fn derive_scenario(deds: &[Dependency], choice: &[usize]) -> Vec<Dependency> {
    deds.iter()
        .zip(choice)
        .map(|(dep, &i)| Dependency {
            name: format!("{}#{}", dep.name, i).into(),
            premise: dep.premise.clone(),
            disjuncts: vec![dep.disjuncts[i].clone()],
        })
        .collect()
}

/// The greedy ded chase. `start` is the working database (source facts; the
/// chase adds target facts into it).
pub fn chase_greedy(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    greedy_campaign(start, deps, config, false)
}

/// Dispatch: the greedy chase when deds are present, the plain standard
/// chase otherwise. This is GROM's default execution path. The checkpoint
/// of an interrupted ded run is tied to the scenario's *derived*
/// dependency set: `chase_resume` must be fed the program actually chased.
pub fn chase_with_deds(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    chase_greedy(start, deps, config)
}

/// Ablation of the greedy strategy: **backjumping** scenario search.
///
/// The paper's greedy chase enumerates scenarios blindly; when scenario
/// `(A, A, …, A)` fails because ded 7's branch is denied, the plain
/// odometer still tries every combination of the *other* deds before
/// flipping ded 7. This variant reads the failure witness (the derived
/// dependency `name#i` that caused the chase failure), advances the
/// odometer *at that ded's position* and resets everything after it.
///
/// The jump is a heuristic: a branch that failed under one combination
/// might succeed under another (ded interactions through shared
/// predicates), so this strategy can miss solutions the plain enumeration
/// finds — it trades completeness-within-the-scenario-space for search
/// time. Experiment E5b quantifies the trade-off.
pub fn chase_greedy_backjump(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ChaseResult, ChaseError> {
    greedy_campaign(start, deps, config, true)
}

/// The scenario campaign of both greedy strategies: an odometer over the
/// scenario space in greedy (cheapest-first) order, one standard chase per
/// scenario. After a failed scenario the odometer advances at the last
/// position, carrying leftwards; with `backjump`, a failure attributable to
/// a derived dependency advances at that ded's position instead and resets
/// every later one. The campaign is exhausted when the odometer wraps or
/// `max_scenarios` have been tried.
fn greedy_campaign(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
    backjump: bool,
) -> Result<ChaseResult, ChaseError> {
    for dep in deps {
        check_executable(dep, true)?;
    }
    let config = &campaign_config(config);
    let (standard, deds) = split(deps);
    if deds.is_empty() {
        return chase_standard(start, &standard, config);
    }

    let orders = greedy_orders(&deds);
    let mut stats = ChaseStats::default();
    let mut odometer = vec![0usize; deds.len()];
    'campaign: while stats.scenarios_tried < config.max_scenarios {
        stats.scenarios_tried += 1;

        let choice: Vec<usize> = odometer
            .iter()
            .enumerate()
            .map(|(k, &o)| orders[k][o])
            .collect();
        let mut scenario_deps = standard.clone();
        scenario_deps.extend(derive_scenario(&deds, &choice));

        let failed = match chase_standard(start.clone(), &scenario_deps, config) {
            Ok(mut result) => {
                result.stats.scenarios_tried = stats.scenarios_tried;
                result.stats.scenarios_failed = stats.scenarios_failed;
                return Ok(result);
            }
            Err(ChaseError::Failure { dependency, .. }) => {
                stats.scenarios_failed += 1;
                dependency
            }
            Err(other) => return Err(other), // round limits etc. propagate
        };

        // The derived dependencies follow the standard ones, in ded order.
        let failed_at = scenario_deps[standard.len()..]
            .iter()
            .position(|d| backjump && d.name == failed);
        let mut k = failed_at.unwrap_or(deds.len() - 1);
        for slot in odometer.iter_mut().skip(k + 1) {
            *slot = 0;
        }
        loop {
            odometer[k] += 1;
            if odometer[k] < orders[k].len() {
                break;
            }
            odometer[k] = 0;
            if k == 0 {
                break 'campaign;
            }
            k -= 1;
        }
    }
    Err(ChaseError::GreedyExhausted {
        scenarios_tried: stats.scenarios_tried,
        stats: Box::new(stats),
        profile: Box::new(ChaseProfile::default()),
    })
}

/// Find the first ded violation in `inst`: `(ded index, premise match)`.
fn first_ded_violation(inst: &Instance, deds: &[Dependency]) -> Option<(usize, Bindings)> {
    for (k, dep) in deds.iter().enumerate() {
        let mut found = None;
        evaluate_body_streaming(inst, &dep.premise, &Bindings::new(), |b| {
            if dep.disjuncts.iter().any(|d| disjunct_satisfied(inst, d, b)) {
                Control::Continue
            } else {
                found = Some(b.clone());
                Control::Stop
            }
        });
        if let Some(b) = found {
            return Some((k, b));
        }
    }
    None
}

/// The exhaustive (complete) ded chase: computes the universal model set.
///
/// Every tree node first closes the instance under the *standard*
/// dependencies (a deterministic fixpoint — failures prune the branch),
/// then forks on the first remaining ded violation, one child per disjunct.
pub fn chase_exhaustive(
    start: Instance,
    deps: &[Dependency],
    config: &ChaseConfig,
) -> Result<ExhaustiveResult, ChaseError> {
    for dep in deps {
        check_executable(dep, true)?;
    }
    let config = &campaign_config(config);
    let (standard, deds) = split(deps);

    let mut stats = ChaseStats::default();
    let mut profile = ChaseProfile::default();
    let mut solutions = Vec::new();
    let mut stack: Vec<Instance> = vec![start];

    while let Some(inst) = stack.pop() {
        stats.nodes_expanded += 1;
        if stats.nodes_expanded > config.max_nodes {
            return Err(ChaseError::NodeLimit {
                nodes: stats.nodes_expanded,
            });
        }

        // 1. Close under standard dependencies.
        let inst = match chase_standard(inst, &standard, config) {
            Ok(res) => {
                stats.absorb(&res.stats);
                profile.absorb(&res.profile);
                res.instance
            }
            Err(ChaseError::Failure { .. }) => {
                stats.branches_failed += 1;
                continue;
            }
            Err(other) => return Err(other),
        };

        // 2. Fork on the first ded violation, if any.
        match first_ded_violation(&inst, &deds) {
            None => {
                stats.leaves += 1;
                solutions.push(inst);
            }
            Some((k, bindings)) => {
                let dep = &deds[k];
                for i in 0..dep.disjuncts.len() {
                    let mut child = inst.clone();
                    let mut nullgen =
                        NullGenerator::starting_at(child.max_null_label().map_or(0, |l| l + 1));
                    let mut nullmap = NullMap::new();
                    let mut nulls = Nulls::owned(&mut nullmap);
                    let applied = apply_disjunct(
                        &mut child,
                        k,
                        dep,
                        i,
                        &bindings,
                        &mut nulls,
                        &mut || nullgen.fresh(),
                        &mut stats,
                    );
                    let merged = nulls.take_merged();
                    match applied {
                        Ok(()) => {
                            if merged {
                                child.substitute_nulls(|id| nullmap.lookup(id));
                                stats.substitution_passes += 1;
                            }
                            stack.push(child);
                        }
                        Err(ChaseError::Failure { .. }) => {
                            stats.branches_failed += 1;
                        }
                        Err(other) => return Err(other),
                    }
                }
            }
        }
    }

    if solutions.is_empty() {
        return Err(ChaseError::NoSolution {
            branches_failed: stats.branches_failed,
        });
    }
    Ok(ExhaustiveResult {
        solutions,
        stats,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::Value;
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

    fn all_hold(inst: &Instance, deps: &[Dependency]) -> bool {
        deps.iter()
            .all(|d| grom_engine::dependency_satisfied(inst, d))
    }

    #[test]
    fn greedy_without_deds_is_standard_chase() {
        let p = parse_program("tgd m: S(x) -> T(x).").unwrap();
        let res = chase_greedy(inst(&[("S", &[1])]), &p.deps, &cfg()).unwrap();
        assert_eq!(res.stats.scenarios_tried, 0);
        assert_eq!(res.instance.tuples("T").count(), 1);
    }

    #[test]
    fn greedy_solves_simple_ded() {
        let d = parse_dependency("ded d: P(x) -> Q(x) | R(x).").unwrap();
        let res = chase_greedy(
            inst(&[("P", &[1]), ("P", &[2])]),
            std::slice::from_ref(&d),
            &cfg(),
        )
        .unwrap();
        assert_eq!(res.stats.scenarios_tried, 1);
        assert!(all_hold(&res.instance, &[d]));
        // All matches committed to the same disjunct.
        assert_eq!(res.instance.tuples("Q").count(), 2);
        assert_eq!(res.instance.tuples("R").count(), 0);
    }

    #[test]
    fn greedy_prefers_equality_disjuncts() {
        // d0-like: merge ids rather than inventing rating tuples.
        let d = parse_dependency("ded d: P(p1, n), P(p2, n) -> R(r, p1) | p1 = p2 | R(r2, p2).")
            .unwrap();
        // Single product: equality disjunct trivially satisfiable.
        let res = chase_greedy(inst(&[("P", &[1, 7])]), std::slice::from_ref(&d), &cfg()).unwrap();
        assert_eq!(res.stats.scenarios_tried, 1);
        // The equality branch was chosen: no R tuples invented.
        assert_eq!(res.instance.tuples("R").count(), 0);
    }

    #[test]
    fn greedy_backtracks_on_failure() {
        // First (cheapest) scenario picks the equality disjunct, which
        // clashes for P(1,7), P(2,7); the second scenario succeeds.
        let d = parse_dependency("ded d: P(p1, n), P(p2, n) -> p1 = p2 | R(p1).").unwrap();
        let res = chase_greedy(
            inst(&[("P", &[1, 7]), ("P", &[2, 7])]),
            std::slice::from_ref(&d),
            &cfg(),
        )
        .unwrap();
        assert_eq!(res.stats.scenarios_tried, 2);
        assert_eq!(res.stats.scenarios_failed, 1);
        assert!(all_hold(&res.instance, &[d]));
        assert!(res.instance.tuples("R").count() >= 1);
    }

    #[test]
    fn greedy_exhausts_when_no_scenario_works() {
        // Both branches denied.
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_greedy(inst(&[("P", &[1])]), &p.deps, &cfg());
        assert!(matches!(
            res,
            Err(ChaseError::GreedyExhausted {
                scenarios_tried: 2,
                ..
            })
        ));
    }

    #[test]
    fn greedy_scenario_cap_respected() {
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             ded d2: P(x) -> Q2(x) | R2(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_greedy(
            inst(&[("P", &[1])]),
            &p.deps,
            &ChaseConfig::default().with_max_scenarios(2),
        );
        assert!(matches!(
            res,
            Err(ChaseError::GreedyExhausted {
                scenarios_tried: 2,
                ..
            })
        ));
    }

    #[test]
    fn exhaustive_counts_leaves_exponentially() {
        // k independent violations of a 2-disjunct ded: 2^k leaves.
        let d = parse_dependency("ded d: P(x) -> Q(x) | R(x).").unwrap();
        for k in 1..=4 {
            let facts: Vec<(&str, Vec<i64>)> = (0..k).map(|i| ("P", vec![i as i64])).collect();
            let mut start = Instance::new();
            for (rel, vals) in &facts {
                start
                    .add(*rel, vals.iter().map(|&v| Value::int(v)).collect())
                    .unwrap();
            }
            let res = chase_exhaustive(start, std::slice::from_ref(&d), &cfg()).unwrap();
            assert_eq!(res.solutions.len(), 1 << k, "k = {k}");
            for sol in &res.solutions {
                assert!(all_hold(sol, std::slice::from_ref(&d)));
            }
        }
    }

    #[test]
    fn exhaustive_mixes_branches_greedy_cannot() {
        // Q(1) is denied, Q(2) is fine: the only solutions route P(1)
        // through R. Greedy (one disjunct per ded) must pick R for both;
        // exhaustive finds the mixed leaf too.
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep n: Q(1) -> false.",
        )
        .unwrap();
        let start = inst(&[("P", &[1]), ("P", &[2])]);
        let ex = chase_exhaustive(start.clone(), &p.deps, &cfg()).unwrap();
        // Leaves: P(1)->R and P(2)->Q or R: 2 solutions... plus branch
        // orderings; all must satisfy the program.
        assert!(ex.solutions.len() >= 2);
        for sol in &ex.solutions {
            assert!(all_hold(sol, &p.deps));
            assert_eq!(
                sol.tuples("Q")
                    .filter(|t| t.get(0) == Some(&Value::int(1)))
                    .count(),
                0
            );
        }
        // Greedy also succeeds (scenario R for all).
        let gr = chase_greedy(start, &p.deps, &cfg()).unwrap();
        assert!(all_hold(&gr.instance, &p.deps));
    }

    #[test]
    fn exhaustive_no_solution() {
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_exhaustive(inst(&[("P", &[1])]), &p.deps, &cfg());
        assert!(matches!(res, Err(ChaseError::NoSolution { .. })));
    }

    #[test]
    fn exhaustive_node_cap() {
        let d = parse_dependency("ded d: P(x) -> Q(x) | R(x).").unwrap();
        let facts: Vec<(&str, &[i64])> = vec![];
        let mut start = inst(&facts);
        for i in 0..12 {
            start.add("P", vec![Value::int(i)]).unwrap();
        }
        let res = chase_exhaustive(start, &[d], &ChaseConfig::default().with_max_nodes(100));
        assert!(matches!(res, Err(ChaseError::NodeLimit { .. })));
    }

    #[test]
    fn greedy_success_implies_exhaustive_has_solutions() {
        let d = parse_dependency("ded d: P(p1, n), P(p2, n) -> p1 = p2 | R(p1) | R(p2).").unwrap();
        let start = inst(&[("P", &[1, 7]), ("P", &[2, 7]), ("P", &[3, 8])]);
        let greedy = chase_greedy(start.clone(), std::slice::from_ref(&d), &cfg()).unwrap();
        assert!(all_hold(&greedy.instance, std::slice::from_ref(&d)));
        let ex = chase_exhaustive(start, std::slice::from_ref(&d), &cfg()).unwrap();
        assert!(!ex.solutions.is_empty());
    }

    #[test]
    fn backjump_skips_ahead_on_attributable_failures() {
        // d1's equality disjunct clashes directly (an attributable failure
        // inside the derived dependency `d1#0`): the backjumper flips d1
        // immediately instead of first cycling d2 through its options.
        let p = parse_program(
            "ded d0: P0(x, y) -> x = y | B0(x).\n\
             ded d1: P1(x, y) -> x = y | B1(x).\n\
             ded d2: P2(x, y) -> x = y | B2(x).",
        )
        .unwrap();
        let mut start = Instance::new();
        start.add("P0", vec![Value::int(1), Value::int(1)]).unwrap();
        start.add("P1", vec![Value::int(1), Value::int(2)]).unwrap(); // clash
        start.add("P2", vec![Value::int(1), Value::int(1)]).unwrap();
        let plain = chase_greedy(start.clone(), &p.deps, &cfg()).unwrap();
        let jump = chase_greedy_backjump(start, &p.deps, &cfg()).unwrap();
        assert!(all_hold(&plain.instance, &p.deps));
        assert!(all_hold(&jump.instance, &p.deps));
        // Plain odometer: (eq,eq,eq) fail, (eq,eq,B2) fail, (eq,B1,eq) ok.
        assert_eq!(plain.stats.scenarios_tried, 3);
        // Backjump: (eq,eq,eq) fails at d1 -> flip d1 -> (eq,B1,eq) ok.
        assert_eq!(jump.stats.scenarios_tried, 2);
    }

    #[test]
    fn backjump_falls_back_when_failure_is_not_attributable() {
        // The failure surfaces at a *denial*, not at a derived dependency:
        // the backjumper degrades to plain odometer behaviour but still
        // finds the solution.
        let p = parse_program(
            "ded d0: P0(x) -> A0(x) | B0(x).\n\
             ded d1: P1(x) -> A1(x) | B1(x).\n\
             dep n1: A1(x) -> false.",
        )
        .unwrap();
        let mut start = Instance::new();
        for i in 0..2 {
            start.add(format!("P{i}"), vec![Value::int(1)]).unwrap();
        }
        let jump = chase_greedy_backjump(start, &p.deps, &cfg()).unwrap();
        assert!(all_hold(&jump.instance, &p.deps));
        assert!(jump.stats.scenarios_tried <= 4);
    }

    #[test]
    fn backjump_exhausts_cleanly() {
        let p = parse_program(
            "ded d: P(x) -> Q(x) | R(x).\n\
             dep nq: Q(x) -> false.\n\
             dep nr: R(x) -> false.",
        )
        .unwrap();
        let res = chase_greedy_backjump(inst(&[("P", &[1])]), &p.deps, &cfg());
        assert!(matches!(res, Err(ChaseError::GreedyExhausted { .. })));
    }

    #[test]
    fn paper_d0_shape_end_to_end() {
        // d0: two distinct popular products sharing a name force either an
        // id merge (impossible on constants) or a 0-rating witness.
        let d = parse_dependency(
            "ded d0: TP(p1, n, s1), TP(p2, n, s2), p1 != p2 \
             -> p1 = p2 | TR(r, p1, 0) | TR(r2, p2, 0).",
        )
        .unwrap();
        let mut start = Instance::new();
        start
            .add("TP", vec![Value::int(1), Value::str("tv"), Value::int(10)])
            .unwrap();
        start
            .add("TP", vec![Value::int(2), Value::str("tv"), Value::int(20)])
            .unwrap();
        let res = chase_greedy(start, std::slice::from_ref(&d), &cfg()).unwrap();
        // p1 = p2 clashes, so a rating tuple must have been invented.
        assert!(res.stats.scenarios_failed >= 1);
        assert!(res.instance.tuples("TR").count() >= 1);
        assert!(all_hold(&res.instance, &[d]));
    }
}
