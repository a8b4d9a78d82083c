//! Conflict-group partitioning: who owns which relation during a sweep.
//!
//! Two dependencies **conflict** when one's conclusion relations intersect
//! the other's premise or conclusion relations. The [`Partition`] groups
//! dependencies into the connected components of the conflict relation,
//! so **every relation has at most one writer group, and every reader of a
//! written relation is in that writer's group.** Within a group execution
//! stays in declaration order; across groups there is no interaction at
//! all. A sweep therefore hands each group's job the `&mut` of the
//! relations it writes and shares `&` of the relations nobody writes
//! ([`grom_exec::OwnedView`]), and a job routes new tuples only to its own
//! group. [`Partition::single`] — one group owning everything — is the
//! partition of [`SchedulerMode::Delta`](crate::SchedulerMode::Delta).
//!
//! Egds and mixed tgd+egds are ordinary members. A pool job only
//! *collects* their equality obligations; the one unbounded write, the
//! null substitution, happens at the sweep barrier. Within a sweep an egd
//! is thus a pure *reader*: it joins the group of its premise relations'
//! writers, and egds over relations nobody writes glue nothing.
//!
//! The premise side of the conflict test reuses the [`TriggerIndex`]: a
//! dependency reads exactly the relations that trigger it.

use std::collections::BTreeMap;
use std::sync::Arc;

use grom_lang::Dependency;

use crate::trigger::TriggerIndex;

/// The static partition of a dependency set into conflict-free groups.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `group_of[k]` — the group of dependency `k`. Every dependency is
    /// group-executable; equality conclusions are collected as obligations
    /// and resolved by the coordinator at the sweep barrier.
    group_of: Vec<usize>,
    /// Members of each group, in dependency order.
    groups: Vec<Vec<usize>>,
}

impl Partition {
    /// Partition `deps` using `triggers` (built over the same slice) for
    /// the premise-reader half of the conflict test.
    pub fn build(deps: &[Dependency], triggers: &TriggerIndex) -> Self {
        let n = deps.len();
        let mut uf = UnionFind::new(n);

        // Writer of each relation seen so far: writer/writer conflicts.
        let mut concluded_by: BTreeMap<Arc<str>, usize> = BTreeMap::new();
        for (k, dep) in deps.iter().enumerate() {
            for disjunct in &dep.disjuncts {
                for atom in &disjunct.atoms {
                    let rel = &atom.predicate;
                    // Writer vs writer on the same relation.
                    match concluded_by.get(rel) {
                        Some(&other) => uf.union(k, other),
                        None => {
                            concluded_by.insert(rel.clone(), k);
                        }
                    }
                    // Writer vs reader: everything triggered by `rel`
                    // reads it in its premise — including egds, which must
                    // see same-sweep insertions of the writer's group.
                    for &reader in triggers.triggered_by(rel) {
                        uf.union(k, reader);
                    }
                }
            }
        }

        // Roots → dense group ids, in first-member order.
        let mut group_ids: BTreeMap<usize, usize> = BTreeMap::new();
        let mut group_of = Vec::with_capacity(n);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for k in 0..n {
            let root = uf.find(k);
            let g = *group_ids.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            group_of.push(g);
            groups[g].push(k);
        }

        Self { group_of, groups }
    }

    /// One group holding all `n` dependencies: the partition of a run whose
    /// single job owns the whole instance.
    pub fn single(n: usize) -> Self {
        Self {
            group_of: vec![0; n],
            groups: vec![(0..n).collect()],
        }
    }

    /// The group of dependency `k`.
    pub fn group_of(&self, k: usize) -> usize {
        self.group_of[k]
    }

    /// Number of conflict-free groups (the parallelism ceiling).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Members of group `g`, in dependency order.
    pub fn group(&self, g: usize) -> &[usize] {
        &self.groups[g]
    }
}

/// Plain union-find with path halving; small and allocation-free after
/// construction.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic orientation: higher root joins lower.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grom_lang::parser::parse_program;

    fn partition(text: &str) -> (Partition, usize) {
        let p = parse_program(text).unwrap();
        let triggers = TriggerIndex::build(&p.deps);
        let n = p.deps.len();
        (Partition::build(&p.deps, &triggers), n)
    }

    #[test]
    fn independent_chains_form_one_group_each() {
        let (part, n) = partition(
            "tgd a0: A0(x) -> A1(x).\n\
             tgd a1: A1(x) -> A2(x).\n\
             tgd b0: B0(x) -> B1(x).\n\
             tgd b1: B1(x) -> B2(x).",
        );
        assert_eq!(n, 4);
        assert_eq!(part.group_count(), 2);
        assert_eq!(part.group_of(0), part.group_of(1));
        assert_eq!(part.group_of(2), part.group_of(3));
        assert_ne!(part.group_of(0), part.group_of(2));
        assert_eq!(part.group(0), &[0, 1]);
        assert_eq!(part.group(1), &[2, 3]);
    }

    #[test]
    fn single_partition_owns_everything() {
        let part = Partition::single(3);
        assert_eq!(part.group_count(), 1);
        assert_eq!(part.group(0), &[0, 1, 2]);
        assert_eq!(part.group_of(2), 0);
    }

    #[test]
    fn shared_conclusion_relation_conflicts() {
        // Both write T: writer/writer conflict, one group.
        let (part, _) = partition(
            "tgd a: S(x) -> T(x).\n\
             tgd b: U(x) -> T(x).",
        );
        assert_eq!(part.group_count(), 1);
    }

    #[test]
    fn reader_of_written_relation_conflicts() {
        // b reads what a writes, even though their premises are disjoint.
        let (part, _) = partition(
            "tgd a: S(x) -> T(x).\n\
             dep b: T(x), T(y) -> false.",
        );
        assert_eq!(part.group_count(), 1);
        assert_eq!(part.group(0), &[0, 1]);
    }

    #[test]
    fn egds_are_group_members_not_boundaries() {
        // The egd reads A1, which tgd a writes: it joins a's group so its
        // delta activations see a's same-sweep insertions. It glues nothing
        // else — the unrelated b chain keeps its own group.
        let (part, _) = partition(
            "tgd a: A0(x) -> A1(x, x).\n\
             egd e: A1(x, y1), A1(x, y2) -> y1 = y2.\n\
             tgd b: B0(x) -> B1(x).",
        );
        assert_eq!(part.group_count(), 2);
        assert_eq!(part.group_of(1), part.group_of(0));
        assert_ne!(part.group_of(2), part.group_of(0));
    }

    #[test]
    fn egds_over_unwritten_relations_are_independent() {
        // Nobody writes R0/R1: each egd is a pure reader and gets its own
        // group — the k-way parallel obligation collection of the e9
        // workload.
        let (part, _) = partition(
            "egd e0: R0(x, y1), R0(x, y2) -> y1 = y2.\n\
             egd e1: R1(x, y1), R1(x, y2) -> y1 = y2.",
        );
        assert_eq!(part.group_count(), 2);
        assert_ne!(part.group_of(0), part.group_of(1));
    }

    #[test]
    fn mixed_tgd_egd_disjunct_writes_like_a_tgd() {
        // The atom half of a mixed disjunct is an ordinary conclusion
        // write; the equality half resolves at the barrier.
        let (part, _) = partition(
            "dep d: S(x, y) -> T(x), x = y.\n\
             dep r: T(x), T(y) -> false.",
        );
        assert_eq!(part.group_count(), 1);
        assert_eq!(part.group_of(1), part.group_of(0));
    }

    #[test]
    fn source_only_tgds_are_independent() {
        // Disjoint read and write sets: maximal parallelism.
        let (part, _) = partition(
            "tgd a: S(x) -> T(x).\n\
             tgd b: U(x) -> V(x).\n\
             tgd c: W(x) -> X(x).",
        );
        assert_eq!(part.group_count(), 3);
    }
}
