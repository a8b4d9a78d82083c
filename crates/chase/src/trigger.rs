//! Static trigger indexing for the delta-driven chase scheduler.
//!
//! The premise of a dependency can only gain new matches when a relation it
//! reads gains new tuples. The [`TriggerIndex`] precomputes, for every
//! relation name appearing in a positive premise literal, the set of
//! dependencies it *triggers* — so the scheduler can route per-relation
//! deltas straight to the dependencies that might care, instead of
//! re-evaluating every premise against the whole instance each round.
//!
//! Negated premise literals are deliberately excluded: the executable
//! fragment the chase accepts has no premise negation (the rewriter
//! eliminates it first; see [`crate::standard`]), and negation is
//! anti-monotone anyway — new tuples can only *remove* matches, never
//! create violations through a negated literal.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use grom_data::{Instance, Relation};
use grom_lang::{Dependency, Literal, Term, Var};

/// Relation name → indices of the dependencies whose premise mentions it
/// positively.
#[derive(Debug, Clone, Default)]
pub struct TriggerIndex {
    by_relation: HashMap<Arc<str>, Vec<usize>>,
}

impl TriggerIndex {
    /// Build the index for `deps`; dependency `k` is triggered by every
    /// relation named in a positive literal of `deps[k].premise`.
    pub fn build(deps: &[Dependency]) -> Self {
        let mut by_relation: HashMap<Arc<str>, Vec<usize>> = HashMap::new();
        for (k, dep) in deps.iter().enumerate() {
            for lit in &dep.premise {
                if let Literal::Pos(a) = lit {
                    let slot = by_relation.entry(a.predicate.clone()).or_default();
                    // Premises may mention a relation twice (self-joins);
                    // one trigger entry suffices.
                    if slot.last() != Some(&k) {
                        slot.push(k);
                    }
                }
            }
        }
        Self { by_relation }
    }

    /// The dependencies triggered by new tuples in `relation`, in
    /// dependency order (possibly empty).
    pub fn triggered_by(&self, relation: &str) -> &[usize] {
        self.by_relation
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct triggering relations.
    pub fn relation_count(&self) -> usize {
        self.by_relation.len()
    }
}

/// The composite join-key position sets each relation will be probed on
/// when chasing `deps`, derived from the same static premise analysis the
/// trigger index performs.
///
/// For a premise atom, a position is a *probe key* when its term is a
/// constant or a variable shared with another premise literal — exactly the
/// positions the evaluator's scan patterns bind when that atom is joined
/// last. For a disjunct (conclusion) atom, the probe keys are constants and
/// universal variables: satisfaction checks scan conclusions with premise
/// bindings seeded. Only sets of ≥ 2 positions are reported, normalized by
/// [`Relation::composite_key`]: every relation keys each single column
/// eagerly, and a set of all its columns shares its membership key.
pub fn join_keys(deps: &[Dependency]) -> BTreeMap<Arc<str>, BTreeSet<Vec<usize>>> {
    let mut out: BTreeMap<Arc<str>, BTreeSet<Vec<usize>>> = BTreeMap::new();
    let add =
        |out: &mut BTreeMap<Arc<str>, BTreeSet<Vec<usize>>>, rel: &Arc<str>, cols: Vec<usize>| {
            if let Some(cols) = Relation::composite_key(cols) {
                out.entry(rel.clone()).or_default().insert(cols);
            }
        };
    for dep in deps {
        // How many premise literals mention each variable?
        let mut occurs: HashMap<Var, usize> = HashMap::new();
        for lit in &dep.premise {
            let atom = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a,
                Literal::Cmp(_) => continue,
            };
            let mut vars = BTreeSet::new();
            atom.collect_vars(&mut vars);
            for v in vars {
                *occurs.entry(v).or_default() += 1;
            }
        }
        for lit in &dep.premise {
            let atom = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a,
                Literal::Cmp(_) => continue,
            };
            let cols: Vec<usize> = atom
                .args
                .iter()
                .enumerate()
                .filter(|(_, t)| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => occurs.get(v).copied().unwrap_or(0) >= 2,
                })
                .map(|(i, _)| i)
                .collect();
            add(&mut out, &atom.predicate, cols);
        }
        let universal: BTreeSet<Var> = dep.universal_vars().into_iter().collect();
        for d in &dep.disjuncts {
            for atom in &d.atoms {
                let cols: Vec<usize> = atom
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => universal.contains(v),
                    })
                    .map(|(i, _)| i)
                    .collect();
                add(&mut out, &atom.predicate, cols);
            }
        }
    }
    out
}

/// Install the [`join_keys`] of `deps` as composite keys on `inst`.
/// Relations that do not exist yet remember the registration and build the
/// index when first created (see [`Instance::register_key`]). The chase
/// dispatcher calls this once per run, before the first sweep.
pub fn register_join_keys(inst: &mut Instance, deps: &[Dependency]) {
    for (rel, keys) in join_keys(deps) {
        for cols in keys {
            inst.register_key(&rel, &cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::parse_program;

    #[test]
    fn premise_relations_trigger_their_dependencies() {
        let p = parse_program(
            "tgd a: S(x), R(x, y) -> T(x).\n\
             tgd b: R(x, y) -> U(y).\n\
             egd e: T(x), U(x) -> x = x.",
        )
        .unwrap();
        let ix = TriggerIndex::build(&p.deps);
        assert_eq!(ix.triggered_by("S"), &[0]);
        assert_eq!(ix.triggered_by("R"), &[0, 1]);
        assert_eq!(ix.triggered_by("T"), &[2]);
        assert_eq!(ix.triggered_by("U"), &[2]);
        // Conclusion-only relations trigger nothing.
        assert!(ix.triggered_by("Absent").is_empty());
        assert_eq!(ix.relation_count(), 4);
    }

    #[test]
    fn self_joins_register_once() {
        let p = parse_program("egd e: T(x, a), T(x, b) -> a = b.").unwrap();
        let ix = TriggerIndex::build(&p.deps);
        assert_eq!(ix.triggered_by("T"), &[0]);
    }

    #[test]
    fn join_keys_cover_shared_vars_and_conclusions() {
        let p = parse_program(
            "tgd a: R(x, y), S(y, x) -> T(x, y).\n\
             tgd b: U(x, x, z) -> V(z).",
        )
        .unwrap();
        let keys = join_keys(&p.deps);
        // R and S join on both columns (x and y are each shared).
        assert!(keys["R"].contains(&vec![0, 1]));
        assert!(keys["S"].contains(&vec![0, 1]));
        // The conclusion T is probed with both universal vars bound.
        assert!(keys["T"].contains(&vec![0, 1]));
        // U's repeated variable counts as one literal: x occurs in one
        // literal only, z too — no multi-column key, and V is unary.
        assert!(!keys.contains_key("U"));
        assert!(!keys.contains_key("V"));
    }

    #[test]
    fn register_join_keys_installs_indexes_eagerly_and_lazily() {
        let p = parse_program("tgd a: R(x, y), S(y, x) -> T(x, y).").unwrap();
        let mut inst = Instance::new();
        inst.add("R", vec![1.into(), 2.into()]).unwrap();
        register_join_keys(&mut inst, &p.deps);
        assert!(inst.relation("R").unwrap().key_specs().any(|k| k == [0, 1]));
        // T does not exist yet; the key appears when it is created.
        inst.add("T", vec![1.into(), 2.into()]).unwrap();
        assert!(inst.relation("T").unwrap().key_specs().any(|k| k == [0, 1]));
    }
}
