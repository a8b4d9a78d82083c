//! Ownership views: one conflict group's split borrow of the master
//! instance.
//!
//! Every relation has at most one writer group per sweep, and every reader
//! of a written relation sits in that group. [`OwnedView::split`] turns
//! that into borrows: a written relation's `&mut` goes to its owner's view
//! alone (the other views cannot see it), and every relation no view owns
//! is shared by `&` with all of them. Workers read and write the master
//! relations directly; version cursors are plain [`Relation`] slot cuts.

use std::collections::BTreeMap;
use std::sync::Arc;

use grom_data::{DataError, Instance, RelId, Relation, Tuple, Value};
use grom_engine::{Control, Db, DbRel, Ver};

/// How one view reaches one relation.
#[derive(Debug)]
enum Access<'a> {
    Own(&'a mut Relation),
    Share(&'a Relation),
    Hidden,
}

/// One group's view of a split instance: the relations it owns, writable,
/// beside the relations no group owns, read-only. Tokens are the instance's
/// own [`RelId`]s.
#[derive(Debug)]
pub struct OwnedView<'a> {
    names: &'a BTreeMap<Arc<str>, RelId>,
    rels: Vec<Access<'a>>,
    /// Insert attempts rejected as duplicates, a function of the relation
    /// contents only — deterministic across thread counts.
    dedup_hits: u64,
}

impl<'a> OwnedView<'a> {
    /// Split `inst` into `views` views. `owner[id]` names the view that owns
    /// relation `RelId(id)`; relations with no owner (or beyond `owner`)
    /// are shared read-only with every view.
    pub fn split(inst: &'a mut Instance, owner: &[Option<usize>], views: usize) -> Vec<Self> {
        let (names, relations) = inst.relations_mut();
        let mut rels: Vec<Vec<Access<'a>>> = (0..views).map(|_| Vec::new()).collect();
        for (id, rel) in relations.enumerate() {
            match owner.get(id).copied().flatten() {
                Some(v) => {
                    for acc in rels.iter_mut() {
                        acc.push(Access::Hidden);
                    }
                    rels[v][id] = Access::Own(rel);
                }
                None => {
                    let rel: &'a Relation = rel;
                    for acc in rels.iter_mut() {
                        acc.push(Access::Share(rel));
                    }
                }
            }
        }
        rels.into_iter()
            .map(|rels| OwnedView {
                names,
                rels,
                dedup_hits: 0,
            })
            .collect()
    }

    fn rel(&self, rel: DbRel) -> &Relation {
        match &self.rels[rel.0 as usize] {
            Access::Own(r) => r,
            Access::Share(r) => r,
            Access::Hidden => unreachable!("hidden relations never resolve"),
        }
    }
}

impl Db for OwnedView<'_> {
    fn resolve(&self, relation: &str) -> Option<DbRel> {
        let id = self.names.get(relation)?.0;
        let hidden = matches!(self.rels[id as usize], Access::Hidden);
        debug_assert!(!hidden, "`{relation}` is read outside its owner group");
        (!hidden).then_some(DbRel(u64::from(id)))
    }

    fn scan_rel_v<'b>(
        &'b self,
        rel: DbRel,
        pattern: &[Option<Value>],
        ver: Ver,
        visit: &mut dyn FnMut(&'b Tuple) -> Control,
    ) {
        self.rel(rel)
            .scan_each_v(pattern, ver.span(), &mut |t| visit(t) == Control::Continue);
    }

    fn estimate_rel_v(&self, rel: DbRel, pattern: &[Option<Value>], ver: Ver) -> usize {
        self.rel(rel).estimate_v(pattern, ver.span())
    }

    fn any_match_rel(&self, rel: DbRel, pattern: &[Option<Value>]) -> bool {
        self.rel(rel).any_match(pattern)
    }

    fn len_rel(&self, rel: DbRel) -> usize {
        self.rel(rel).len()
    }
}

/// Where a chase job writes: the whole instance, or a group's ownership
/// view.
pub trait Store: Db {
    /// Insert a tuple; returns whether it was new. A new tuple is appended
    /// at its relation's [`Relation::frontier`].
    fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError>;
    /// The relation named `relation`, if it exists: what version cursors
    /// are taken from and counted against.
    fn relation(&self, relation: &str) -> Option<&Relation>;
    /// Insert attempts rejected as duplicates so far; only ownership views
    /// count them.
    fn dedup_hits(&self) -> u64;
    /// The whole instance, when this store is it: its owner may rewrite it
    /// mid-sweep, where a view's owner cannot.
    fn whole(&mut self) -> Option<&mut Instance>;
}

impl Store for Instance {
    fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        Instance::insert(self, relation, tuple)
    }

    fn relation(&self, relation: &str) -> Option<&Relation> {
        Instance::relation(self, relation)
    }

    fn dedup_hits(&self) -> u64 {
        0
    }

    fn whole(&mut self) -> Option<&mut Instance> {
        Some(self)
    }
}

impl Store for OwnedView<'_> {
    /// # Panics
    /// If this view does not own `relation`: only the owner group writes it.
    fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        let rel = match self
            .names
            .get(relation)
            .map(|id| &mut self.rels[id.0 as usize])
        {
            Some(Access::Own(rel)) => rel,
            _ => panic!("relation `{relation}` is not owned by this view"),
        };
        if rel.contains(&tuple) {
            self.dedup_hits += 1;
            return Ok(false);
        }
        rel.insert(relation, tuple)
    }

    fn relation(&self, relation: &str) -> Option<&Relation> {
        self.resolve(relation).map(|rel| self.rel(rel))
    }

    fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    fn whole(&mut self) -> Option<&mut Instance> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    fn t(i: i64) -> Tuple {
        Tuple::new(vec![v(i)])
    }

    /// `R` (id 0) owned by view 0, `S` (id 1) shared, `T` (id 2) owned by
    /// view 1.
    fn sample() -> Instance {
        let mut inst = Instance::new();
        for (rel, i) in [("R", 1), ("S", 2), ("T", 3)] {
            inst.add(rel, vec![v(i)]).unwrap();
        }
        inst
    }

    const OWNER: [Option<usize>; 3] = [Some(0), None, Some(1)];

    #[test]
    fn owners_write_master_relations_and_share_the_rest() {
        let mut inst = sample();
        let mut views = OwnedView::split(&mut inst, &OWNER, 2);
        let (a, b) = views.split_at_mut(1);
        assert!(a[0].insert(&Arc::from("R"), t(4)).unwrap());
        assert!(b[0].insert(&Arc::from("T"), t(5)).unwrap());
        // Both views read the shared relation; each sees its own writes.
        let s = a[0].resolve("S").unwrap();
        assert!(a[0].any_match_rel(s, &[Some(v(2))]));
        assert!(b[0].any_match_rel(s, &[Some(v(2))]));
        let (r, tt) = (a[0].resolve("R").unwrap(), b[0].resolve("T").unwrap());
        assert_eq!((a[0].len_rel(r), b[0].len_rel(tt)), (2, 2));
        drop(views);
        // The writes landed in the master instance itself.
        assert!(inst.contains_fact("R", &t(4)) && inst.contains_fact("T", &t(5)));
    }

    #[test]
    fn inserts_dedup_log_and_count_rejections() {
        let mut inst = sample();
        let mut views = OwnedView::split(&mut inst, &OWNER, 2);
        let (view, r) = (&mut views[0], Arc::from("R"));
        let f0 = view.relation("R").unwrap().frontier();
        assert!(!view.insert(&r, t(1)).unwrap());
        assert!(view.insert(&r, t(2)).unwrap());
        assert!(!view.insert(&r, t(2)).unwrap());
        let rel = view.relation("R").unwrap();
        assert_eq!(rel.frontier(), f0 + 1); // only the new tuple appends
        assert_eq!(rel.len_from(f0), 1);
        assert_eq!(view.dedup_hits(), 2);
    }

    #[test]
    fn arity_is_checked_against_the_master_relation() {
        let mut inst = sample();
        let mut views = OwnedView::split(&mut inst, &OWNER, 2);
        let err = views[0]
            .insert(&Arc::from("R"), Tuple::new(vec![v(1), v(2)]))
            .unwrap_err();
        assert!(matches!(err, DataError::ArityMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn writing_a_shared_relation_panics() {
        let mut inst = sample();
        let mut views = OwnedView::split(&mut inst, &OWNER, 2);
        let _ = views[0].insert(&Arc::from("S"), t(9));
    }

    /// `R` holds 0..4 in the instance, then 4..7 inserted through the view.
    fn grown(check: impl FnOnce(&OwnedView, DbRel)) {
        let mut inst = Instance::new();
        for i in 0..4 {
            inst.add("R", vec![v(i)]).unwrap();
        }
        let mut views = OwnedView::split(&mut inst, &[Some(0)], 1);
        for i in 4..7 {
            views[0].insert(&Arc::from("R"), t(i)).unwrap();
        }
        let r = views[0].resolve("R").unwrap();
        assert!(views[0].resolve("Absent").is_none());
        check(&views[0], r);
    }

    fn ints(view: &OwnedView, r: DbRel, ver: Ver) -> Vec<i64> {
        let mut out = Vec::new();
        view.scan_rel_v(r, &[None], ver, &mut |t| {
            out.push(t.get(0).unwrap().as_int().unwrap());
            Control::Continue
        });
        out
    }

    #[test]
    fn streaming_scans_stop_early() {
        grown(|view, r| {
            assert_eq!(view.len_rel(r), 7);
            let mut seen = Vec::new();
            view.scan_rel(r, &[None], &mut |t| {
                seen.push(t.get(0).unwrap().as_int().unwrap());
                if seen.len() == 3 {
                    Control::Stop
                } else {
                    Control::Continue
                }
            });
            assert_eq!(seen, vec![0, 1, 2]);
        });
    }

    #[test]
    fn versioned_scans_are_slot_cuts() {
        grown(|view, r| {
            // A cursor is a slot: the new half is the rows from it on,
            // wherever they came from (0..4 the instance, 4..7 the view).
            assert_eq!(ints(view, r, Ver::New(5)), vec![5, 6]);
            assert_eq!(ints(view, r, Ver::Old(5)), vec![0, 1, 2, 3, 4]);
            assert_eq!(view.estimate_rel_v(r, &[None], Ver::New(5)), 2);
            assert_eq!(ints(view, r, Ver::New(2)), vec![2, 3, 4, 5, 6]);
            assert_eq!(ints(view, r, Ver::Old(2)), vec![0, 1]);
            assert!(ints(view, r, Ver::Old(0)).is_empty());
            let frontier = u64::from(view.relation("R").unwrap().frontier());
            assert_eq!(frontier, 7);
            assert!(ints(view, r, Ver::New(frontier)).is_empty());
        });
    }
}
