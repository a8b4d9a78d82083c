//! Backtracking evaluation of conjunctions of literals.
//!
//! The evaluator enumerates all [`Bindings`] of the body variables such
//! that, over the given [`Db`]:
//!
//! * every positive atom matches a stored tuple,
//! * no negated atom matches any stored tuple (variables local to the
//!   negation are wildcards — the safe-Datalog `¬∃` reading), and
//! * every comparison holds under [`CmpOp::eval`] semantics.
//!
//! Strategy: a greedy join order recomputed at every step. Comparisons and
//! negations run as soon as their variables are bound (cheap filters first);
//! among positive atoms the evaluator picks the one with the smallest
//! index-based cardinality estimate under the current bindings
//! ([`grom_data::Relation::estimate`]) and probes it through the smallest
//! bucket of the relation's keys its bound positions cover.
//!
//! Every entry point resolves the body's predicates to [`DbRel`] tokens
//! **once** ([`Db::resolve`]) and streams tuples through
//! [`Db::scan_rel`] — no per-probe name hashing and no per-scan `Vec`
//! allocation.
//!
//! [`CmpOp::eval`]: grom_lang::CmpOp::eval

use std::collections::{BTreeMap, BTreeSet};

use grom_lang::{Atom, Bindings, Literal, Term, Var};

use crate::db::{Db, DbRel, Ver};

pub use crate::db::Control;

/// Predicate name → resolved token (`None` = the relation is absent, i.e.
/// empty), computed once per evaluation. Databases are immutable for the
/// duration of an evaluation call, so tokens cannot go stale mid-solve.
type RelMap<'b> = BTreeMap<&'b str, Option<DbRel>>;

fn resolve_body<'b>(db: &impl Db, body: &'b [Literal]) -> RelMap<'b> {
    let mut rels = RelMap::new();
    for lit in body {
        let atom = match lit {
            Literal::Pos(a) | Literal::Neg(a) => a,
            Literal::Cmp(_) => continue,
        };
        rels.entry(atom.predicate.as_ref())
            .or_insert_with(|| db.resolve(&atom.predicate));
    }
    rels
}

/// Evaluate `body` over `db`, starting from `seed` bindings, collecting all
/// solutions.
pub fn evaluate_body(db: &impl Db, body: &[Literal], seed: &Bindings) -> Vec<Bindings> {
    let mut out = Vec::new();
    evaluate_body_streaming(db, body, seed, |b| {
        out.push(b.clone());
        Control::Continue
    });
    out
}

/// Is there at least one solution? Stops at the first.
pub fn has_match(db: &impl Db, body: &[Literal], seed: &Bindings) -> bool {
    let mut found = false;
    evaluate_body_streaming(db, body, seed, |_| {
        found = true;
        Control::Stop
    });
    found
}

/// Do `atoms` (a conjunction of positive atoms) embed into `db` under
/// `seed`?
///
/// This is the restricted-chase satisfaction check for a disjunct's
/// conclusion atoms, and it runs once per premise match of every
/// dependency — the hottest query the chase issues. It skips the general
/// evaluator's setup (no filters to order, no bindable-set, no seed
/// clone): atoms whose pattern is fully bound under the seed are decided
/// by a single index probe, and only the rest fall back to a recursive
/// join.
pub fn embed_atoms(db: &impl Db, atoms: &[grom_lang::Atom], seed: &Bindings) -> bool {
    let mut pattern: Vec<Option<grom_data::Value>> = Vec::new();
    let mut open: Vec<(&grom_lang::Atom, DbRel)> = Vec::new();
    for atom in atoms {
        // An absent or empty relation embeds nothing; deciding that before
        // any pattern is built keeps checks against relations the chase
        // has yet to fill allocation-free.
        let Some(rel) = db.resolve(&atom.predicate).filter(|&r| db.len_rel(r) > 0) else {
            return false;
        };
        seed.atom_pattern_into(atom, &mut pattern);
        if pattern.iter().all(Option::is_some) {
            if !db.any_match_rel(rel, &pattern) {
                return false;
            }
        } else {
            open.push((atom, rel));
        }
    }
    if open.is_empty() {
        return true;
    }
    let mut bindings = seed.clone();
    embed_open(db, &mut open, &mut bindings)
}

/// Recursive join over the not-fully-bound conclusion atoms: pick the atom
/// with the smallest index estimate, scan it, bind, recurse.
fn embed_open(
    db: &impl Db,
    open: &mut Vec<(&grom_lang::Atom, DbRel)>,
    bindings: &mut Bindings,
) -> bool {
    if open.is_empty() {
        return true;
    }
    let mut pattern: Vec<Option<grom_data::Value>> = Vec::new();
    let mut best = 0;
    if open.len() > 1 {
        let mut best_estimate = usize::MAX;
        for (i, (atom, rel)) in open.iter().enumerate() {
            bindings.atom_pattern_into(atom, &mut pattern);
            let e = db.estimate_rel(*rel, &pattern);
            if e < best_estimate {
                best_estimate = e;
                best = i;
            }
        }
    }
    let (atom, rel) = open.swap_remove(best);
    bindings.atom_pattern_into(atom, &mut pattern);
    let mut found = false;
    db.scan_rel(rel, &pattern, &mut |tuple| {
        if let Some(bound_here) = bind_tuple(atom, tuple, bindings) {
            found = embed_open(db, open, bindings);
            for v in &bound_here {
                bindings.unbind(v);
            }
            if found {
                return Control::Stop;
            }
        }
        Control::Continue
    });
    open.push((atom, rel));
    let i = open.len() - 1;
    open.swap(best, i);
    found
}

/// Streaming evaluation: `visit` is called on every solution and may stop
/// the enumeration early.
pub fn evaluate_body_streaming(
    db: &impl Db,
    body: &[Literal],
    seed: &Bindings,
    mut visit: impl FnMut(&Bindings) -> Control,
) {
    // Variables that *can* ever be bound: seed variables plus variables of
    // positive atoms. Variables of negated atoms outside this set are local
    // wildcards.
    let mut bindable: BTreeSet<Var> = seed.iter().map(|(v, _)| v.clone()).collect();
    for lit in body {
        if let Literal::Pos(a) = lit {
            a.collect_vars(&mut bindable);
        }
    }

    let rels = resolve_body(db, body);
    let mut remaining: Vec<(&Literal, Ver)> = body.iter().map(|l| (l, Ver::All)).collect();
    let mut bindings = seed.clone();
    solve(
        db,
        &mut remaining,
        &mut bindings,
        &rels,
        &bindable,
        &mut visit,
    );
}

/// Delta-seeded semi-naive evaluation: enumerate solutions of `body` that
/// use at least one *new* tuple in a positive atom, each solution exactly
/// once.
///
/// `deltas` pairs relation names with version cursors: a relation's new
/// half ([`Ver::New`] of its cursor) holds the tuples appended since the
/// premise was last checked. For every positive atom whose predicate has a
/// cursor, each new tuple is bound to that atom (the *anchor*, scanned over
/// the new half) and the remaining literals are joined with the semi-naive
/// version split: positive atoms **before** the anchor that read a delta
/// relation see only that relation's *old* half ([`Ver::Old`] of the same
/// cursor), atoms after the anchor and non-delta atoms see everything, and
/// negations/comparisons always check the full database. A solution whose
/// first (in body position order) new tuple sits at position `p` is
/// therefore enumerated only with `p` as the anchor — at any later anchor,
/// position `p` reads the old half, which excludes its tuple. No
/// caller-side deduplication is needed; the chase scheduler asserts this
/// in debug builds.
///
/// This is the entry point of the delta-driven chase scheduler in
/// `grom-chase`: instead of rescanning a dependency's premise against the
/// whole instance every round, the scheduler seeds evaluation from the
/// tuples appended since the premise was last checked.
pub fn evaluate_body_from_delta(
    db: &impl Db,
    body: &[Literal],
    deltas: &[(&str, u64)],
    mut visit: impl FnMut(&Bindings) -> Control,
) {
    let mut bindable: BTreeSet<Var> = BTreeSet::new();
    for lit in body {
        if let Literal::Pos(a) = lit {
            a.collect_vars(&mut bindable);
        }
    }

    let rels = resolve_body(db, body);
    let cursor_of = |name: &str| deltas.iter().find(|(n, _)| *n == name).map(|&(_, c)| c);
    let mut bindings = Bindings::new();
    let mut pattern: Vec<Option<grom_data::Value>> = Vec::new();
    for anchor in 0..body.len() {
        let Literal::Pos(atom) = &body[anchor] else {
            continue;
        };
        // An absent relation has no new tuples to anchor on.
        let (Some(cursor), Some(Some(rel))) = (
            cursor_of(atom.predicate.as_ref()),
            rels.get(atom.predicate.as_ref()),
        ) else {
            continue;
        };
        let mut remaining: Vec<(&Literal, Ver)> = body
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != anchor)
            .map(|(i, l)| {
                let ver = match l {
                    Literal::Pos(a) if i < anchor => {
                        cursor_of(a.predicate.as_ref()).map_or(Ver::All, Ver::Old)
                    }
                    _ => Ver::All,
                };
                (l, ver)
            })
            .collect();
        bindings.clear();
        bindings.atom_pattern_into(atom, &mut pattern);
        let mut ctrl = Control::Continue;
        db.scan_rel_v(*rel, &pattern, Ver::New(cursor), &mut |tuple| {
            // One Bindings reused across anchor tuples: cleared (keeping
            // its allocation) instead of rebuilt, and there is nothing to
            // unwind after the solve — the solve restores everything it
            // binds beyond the anchor.
            bindings.clear();
            if bind_tuple(atom, tuple, &mut bindings).is_some() {
                ctrl = solve(
                    db,
                    &mut remaining,
                    &mut bindings,
                    &rels,
                    &bindable,
                    &mut visit,
                );
            }
            ctrl
        });
        if ctrl == Control::Stop {
            return;
        }
    }
}

/// Is `lit` ready to run as a filter under `bindings`?
fn filter_ready(lit: &Literal, bindings: &Bindings, bindable: &BTreeSet<Var>) -> bool {
    match lit {
        Literal::Cmp(c) => c.variables().iter().all(|v| bindings.contains(v)),
        Literal::Neg(a) => a
            .variables()
            .iter()
            .all(|v| bindings.contains(v) || !bindable.contains(v)),
        Literal::Pos(_) => false,
    }
}

/// Run a ready filter literal. `true` = passes.
fn run_filter(db: &impl Db, lit: &Literal, bindings: &Bindings, rels: &RelMap<'_>) -> bool {
    match lit {
        Literal::Cmp(c) => bindings.eval_comparison(c).unwrap_or(false),
        Literal::Neg(a) => {
            // Absent relations are empty, so the negation holds.
            let Some(Some(rel)) = rels.get(a.predicate.as_ref()) else {
                return true;
            };
            let pattern = bindings.atom_pattern(a);
            !db.any_match_rel(*rel, &pattern)
        }
        Literal::Pos(_) => unreachable!("positive atoms are not filters"),
    }
}

/// Extend `bindings` with the columns of `tuple` matched against `atom`'s
/// arguments; undo-list returned for backtracking. `None` if inconsistent
/// (repeated variable bound to two different values, or constant mismatch —
/// the latter is already excluded by the scan pattern but re-checked for
/// safety).
fn bind_tuple(atom: &Atom, tuple: &grom_data::Tuple, bindings: &mut Bindings) -> Option<Vec<Var>> {
    let mut bound_here = Vec::new();
    for (term, value) in atom.args.iter().zip(tuple.values()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    for v in &bound_here {
                        bindings.unbind(v);
                    }
                    return None;
                }
            }
            Term::Var(v) => match bindings.get(v) {
                Some(existing) if existing == value => {}
                Some(_) => {
                    for v in &bound_here {
                        bindings.unbind(v);
                    }
                    return None;
                }
                None => {
                    bindings.bind(v.clone(), value.clone());
                    bound_here.push(v.clone());
                }
            },
        }
    }
    Some(bound_here)
}

/// Each remaining literal carries the version half its scans are restricted
/// to: [`Ver::All`] everywhere except the semi-naive delta path, where
/// pre-anchor atoms over delta relations read [`Ver::Old`]. Filters
/// (negations, comparisons) ignore the version — they always check the full
/// database.
fn solve(
    db: &impl Db,
    remaining: &mut Vec<(&Literal, Ver)>,
    bindings: &mut Bindings,
    rels: &RelMap<'_>,
    bindable: &BTreeSet<Var>,
    visit: &mut impl FnMut(&Bindings) -> Control,
) -> Control {
    if remaining.is_empty() {
        return visit(bindings);
    }

    // 1. Run any ready filter (comparison / negation) first.
    if let Some(i) = remaining
        .iter()
        .position(|(l, _)| filter_ready(l, bindings, bindable))
    {
        let entry = remaining.remove(i);
        let ctrl = if run_filter(db, entry.0, bindings, rels) {
            solve(db, remaining, bindings, rels, bindable, visit)
        } else {
            Control::Continue
        };
        remaining.insert(i, entry);
        return ctrl;
    }

    // 2. Pick the cheapest positive atom to expand, by index-based
    //    cardinality estimate under the current bindings (the smallest
    //    index bucket among bound columns, or the relation size when
    //    nothing is bound yet). Absent relations estimate to zero and
    //    short-circuit the whole conjunction.
    let mut best: Option<(usize, Option<DbRel>, usize)> = None; // (idx, token, estimate)
    let mut scratch: Vec<Option<grom_data::Value>> = Vec::new();
    for (i, (lit, ver)) in remaining.iter().enumerate() {
        if let Literal::Pos(a) = lit {
            let rel = rels.get(a.predicate.as_ref()).copied().flatten();
            let estimate = match rel {
                Some(rel) => {
                    bindings.atom_pattern_into(a, &mut scratch);
                    db.estimate_rel_v(rel, &scratch, *ver)
                }
                None => 0,
            };
            if best.as_ref().is_none_or(|&(_, _, be)| estimate < be) {
                best = Some((i, rel, estimate));
            }
        }
    }

    let Some((i, rel, _)) = best else {
        // No positive atom and no ready filter: the body has an unsafe
        // comparison or negation over never-bound variables. Safety checks
        // upstream should prevent this; treat as no solution.
        return Control::Continue;
    };
    let Some(rel) = rel else {
        // The cheapest atom reads an absent (empty) relation: no solution.
        return Control::Continue;
    };

    let entry = remaining.remove(i);
    let (atom, ver) = match entry {
        (Literal::Pos(a), ver) => (a, ver),
        _ => unreachable!(),
    };
    bindings.atom_pattern_into(atom, &mut scratch);
    let pattern = scratch;
    let mut ctrl = Control::Continue;
    db.scan_rel_v(rel, &pattern, ver, &mut |tuple| {
        if let Some(bound_here) = bind_tuple(atom, tuple, bindings) {
            let c = solve(db, remaining, bindings, rels, bindable, visit);
            for v in &bound_here {
                bindings.unbind(v);
            }
            if c == Control::Stop {
                ctrl = Control::Stop;
                return Control::Stop;
            }
        }
        Control::Continue
    });
    remaining.insert(i, entry);
    ctrl
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_data::{Instance, Value};
    use grom_lang::{CmpOp, Comparison};

    fn atom(p: &str, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(Term::var).collect())
    }

    fn db() -> Instance {
        let mut inst = Instance::new();
        // Edges of a small graph.
        for (a, b) in [(1, 2), (2, 3), (3, 4), (1, 3)] {
            inst.add("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        // Node labels.
        for (n, l) in [(1, "a"), (2, "b"), (3, "a"), (4, "b")] {
            inst.add("L", vec![Value::int(n), Value::str(l)]).unwrap();
        }
        inst
    }

    #[test]
    fn single_atom_all_solutions() {
        let inst = db();
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 4);
    }

    #[test]
    fn join_two_atoms() {
        let inst = db();
        // Paths of length 2: E(x,y), E(y,z).
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        // 1->2->3, 2->3->4, 1->3->4.
        assert_eq!(sols.len(), 3);
        for s in &sols {
            let x = s.get(&"x".into()).unwrap().as_int().unwrap();
            let y = s.get(&"y".into()).unwrap().as_int().unwrap();
            let z = s.get(&"z".into()).unwrap().as_int().unwrap();
            assert!(x < y && y < z, "not a path: {x} {y} {z}");
        }
    }

    #[test]
    fn repeated_variable_in_one_atom() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::int(1), Value::int(1)]).unwrap();
        inst.add("R", vec![Value::int(1), Value::int(2)]).unwrap();
        let body = vec![Literal::Pos(atom("R", &["x", "x"]))];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"x".into()), Some(&Value::int(1)));
    }

    #[test]
    fn constants_in_atoms() {
        let inst = db();
        let body = vec![Literal::Pos(Atom::new(
            "L",
            vec![Term::var("n"), Term::cons("a")],
        ))];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn negation_filters() {
        let inst = db();
        // Nodes with no outgoing edge: L(n, l), not E(n, m).
        let body = vec![
            Literal::Pos(atom("L", &["n", "l"])),
            Literal::Neg(atom("E", &["n", "m"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"n".into()), Some(&Value::int(4)));
    }

    #[test]
    fn negation_on_missing_relation_holds() {
        let inst = db();
        let body = vec![
            Literal::Pos(atom("L", &["n", "l"])),
            Literal::Neg(atom("Absent", &["n"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 4);
    }

    #[test]
    fn comparisons_filter() {
        let inst = db();
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Cmp(Comparison::new(CmpOp::Gt, Term::var("y"), Term::cons(3i64))),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1); // only 3 -> 4
    }

    #[test]
    fn seed_bindings_restrict() {
        let inst = db();
        let mut seed = Bindings::new();
        seed.bind("x".into(), Value::int(1));
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let sols = evaluate_body(&inst, &body, &seed);
        assert_eq!(sols.len(), 2); // 1->2, 1->3
        for s in &sols {
            assert_eq!(s.get(&"x".into()), Some(&Value::int(1)));
        }
    }

    #[test]
    fn has_match_stops_early() {
        let inst = db();
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        assert!(has_match(&inst, &body, &Bindings::new()));
        let body = vec![Literal::Pos(atom("Absent", &["x"]))];
        assert!(!has_match(&inst, &body, &Bindings::new()));
    }

    #[test]
    fn empty_body_yields_seed() {
        let inst = db();
        let sols = evaluate_body(&inst, &[], &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let inst = db();
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("L", &["n", "l"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 16);
    }

    #[test]
    fn negation_with_local_wildcard_variable() {
        let mut inst = Instance::new();
        inst.add("P", vec![Value::int(1)]).unwrap();
        inst.add("P", vec![Value::int(2)]).unwrap();
        inst.add("Q", vec![Value::int(10), Value::int(1)]).unwrap();
        // P(x), not Q(w, x): w occurs only under negation — wildcard.
        let body = vec![
            Literal::Pos(atom("P", &["x"])),
            Literal::Neg(atom("Q", &["w", "x"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"x".into()), Some(&Value::int(2)));
    }

    #[test]
    fn nulls_join_by_label() {
        let mut inst = Instance::new();
        inst.add("A", vec![Value::null(0)]).unwrap();
        inst.add("B", vec![Value::null(0)]).unwrap();
        inst.add("B", vec![Value::null(1)]).unwrap();
        let body = vec![
            Literal::Pos(atom("A", &["x"])),
            Literal::Pos(atom("B", &["x"])),
        ];
        let sols = evaluate_body(&inst, &body, &Bindings::new());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"x".into()), Some(&Value::null(0)));
    }

    /// `body`'s delta-seeded solutions over `inst`, in enumeration order.
    fn delta_solutions(inst: &Instance, body: &[Literal], deltas: &[(&str, u64)]) -> Vec<Bindings> {
        let mut sols = Vec::new();
        evaluate_body_from_delta(inst, body, deltas, |b| {
            sols.push(b.clone());
            Control::Continue
        });
        sols
    }

    fn int(b: &Bindings, var: &str) -> i64 {
        b.get(&var.into()).unwrap().as_int().unwrap()
    }

    #[test]
    fn delta_seeding_restricts_to_new_tuples() {
        // The graph of `db()` with the edge (2, 3) appended last (slot 3):
        // paths E(x,y), E(y,z) anchored at it can use it in either role,
        // giving 1->2->3 and 2->3->4.
        let mut inst = Instance::new();
        for (a, b) in [(1, 2), (3, 4), (1, 3), (2, 3)] {
            inst.add("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let sols = delta_solutions(&inst, &body, &[("E", 3)]);
        assert_eq!(sols.len(), 2);
        for s in &sols {
            let y = int(s, "y");
            assert!(y == 2 || y == 3);
        }
        // A delta on an unrelated relation seeds nothing.
        assert!(delta_solutions(&inst, &body, &[("L", 0)]).is_empty());
        // Nor does an empty new half.
        assert!(delta_solutions(&inst, &body, &[("E", 4)]).is_empty());
    }

    #[test]
    fn delta_seeding_respects_constants_and_stop() {
        // L's new half (from slot 2) holds (1, "a") and (2, "b"); only the
        // "a"-labeled one matches the constant.
        let mut inst = Instance::new();
        for (n, l) in [(3, "a"), (4, "b"), (1, "a"), (2, "b")] {
            inst.add("L", vec![Value::int(n), Value::str(l)]).unwrap();
        }
        let body = vec![Literal::Pos(Atom::new(
            "L",
            vec![Term::var("n"), Term::cons("a")],
        ))];
        let sols = delta_solutions(&inst, &body, &[("L", 2)]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].get(&"n".into()), Some(&Value::int(1)));

        // Early stop is honored across anchors and tuples.
        let inst = db();
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let mut count = 0;
        evaluate_body_from_delta(&inst, &body, &[("E", 0)], |_| {
            count += 1;
            Control::Stop
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn delta_seeding_enumerates_each_match_exactly_once() {
        // E = (0,1), (1,2), (2,3); the trailing two rows are new. The path
        // body E(x,y), E(y,z) has two anchors over E, and the match
        // (1,2)-(2,3) uses new tuples at *both* positions: a per-anchor
        // enumeration would yield it twice, the semi-naive split must
        // yield it only at its first new position (anchor 0).
        let mut inst = Instance::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            inst.add("E", vec![Value::int(a), Value::int(b)]).unwrap();
        }
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        let sols = delta_solutions(&inst, &body, &[("E", 1)]);
        // (0,1)-(1,2) anchored at position 1, (1,2)-(2,3) anchored at
        // position 0 — and nowhere else.
        assert_eq!(sols.len(), 2);
        let mut dedup = sols.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), sols.len(), "duplicate enumeration: {sols:?}");

        // A multi-relation delta finds the cross-relation match exactly once
        // as well: new-R at position 0 joined with new-S at position 1 is
        // anchored at position 0 only.
        let mut inst = Instance::new();
        inst.add("R", vec![Value::int(1), Value::int(2)]).unwrap();
        inst.add("S", vec![Value::int(2), Value::int(3)]).unwrap();
        let body = vec![
            Literal::Pos(atom("R", &["x", "y"])),
            Literal::Pos(atom("S", &["y", "z"])),
        ];
        assert_eq!(
            delta_solutions(&inst, &body, &[("R", 0), ("S", 0)]).len(),
            1
        );
    }

    #[test]
    fn delta_seeding_starts_past_tombstoned_slots() {
        // E = (N0, 2) at slot 0 and (5, 6) at slot 1. Substituting N0 := 1
        // tombstones slot 0 and re-appends (1, 2) at slot 2; the edge
        // (2, 3) then lands at slot 3, the new half from the frontier 3.
        let mut inst = Instance::new();
        inst.add("E", vec![Value::null(0), Value::int(2)]).unwrap();
        inst.add("E", vec![Value::int(5), Value::int(6)]).unwrap();
        inst.substitute_nulls(|id| (id == grom_data::NullId(0)).then(|| Value::int(1)));
        let cursor = inst.relation("E").unwrap().frontier();
        assert_eq!(cursor, 3);
        inst.add("E", vec![Value::int(2), Value::int(3)]).unwrap();
        let body = vec![
            Literal::Pos(atom("E", &["x", "y"])),
            Literal::Pos(atom("E", &["y", "z"])),
        ];
        // Only (2, 3) anchors; the rewritten (1, 2) below the cursor joins
        // it from the old half, exactly once.
        let sols = delta_solutions(&inst, &body, &[("E", u64::from(cursor))]);
        assert_eq!(sols.len(), 1);
        assert_eq!(
            (int(&sols[0], "x"), int(&sols[0], "y"), int(&sols[0], "z")),
            (1, 2, 3)
        );
    }

    #[test]
    fn streaming_stop_is_respected() {
        let inst = db();
        let body = vec![Literal::Pos(atom("E", &["x", "y"]))];
        let mut count = 0;
        evaluate_body_streaming(&inst, &body, &Bindings::new(), |_| {
            count += 1;
            if count == 2 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(count, 2);
    }
}
