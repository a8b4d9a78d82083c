//! In-memory database instances.
//!
//! An [`Instance`] maps relation names to [`Relation`]s: deduplicated,
//! insertion-ordered tuple sets indexed by one kind of **key**: a hash of
//! some columns' values → the ascending slots of the rows holding them.
//! Every relation keeps one such key per column and one over all columns
//! (its membership test), plus the composite join keys the chase's static
//! trigger analysis registers. The keys are what make the nested-loop
//! joins of `grom-engine` and the violation search of `grom-chase`
//! tolerable on instances with hundreds of thousands of tuples; each
//! tuple is stored once, in its relation's slot vector.
//!
//! Relation names resolve once to a dense [`RelId`]; hot-path callers (the
//! redesigned `Db` trait in `grom-engine`) resolve a name a single time per
//! evaluation and then address the relation by id — one bounds-checked
//! vector index instead of a string hash per probe. Ids are stable for the
//! lifetime of an instance (including across null substitutions) and are
//! assigned in first-insert order; sorted-by-name iteration is preserved
//! for every rendering path.
//!
//! Null substitution is *surgical*: only null-bearing rows are rewritten
//! (located through the column keys), leaving tombstones behind instead
//! of rebuilding whole relations; a junk counter triggers compaction when
//! tombstones and stale bucket entries accumulate.
//!
//! Instances are *schema-less* at this layer: the first tuple inserted into
//! a relation fixes its arity, and later inserts are checked against it.
//! Typed validation against a [`crate::schema::Schema`] is performed by the
//! scenario loader in `grom` (the core crate), which knows which schema an
//! instance is supposed to populate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::DataError;
use crate::hash::{FxHashMap, FxHasher};
use crate::symbol::SymbolTable;
use crate::tuple::{Fact, Tuple};
use crate::value::{NullId, Value};

/// A dense relation id, assigned in first-insert order and stable for the
/// lifetime of the instance. Resolve once with [`Instance::rel_id`], then
/// address the relation with [`Instance::relation_by_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

/// A version window over a relation's append-ordered slots, splitting the
/// relation into an *old* and a *new* half around a slot cursor.
///
/// Rows are only ever appended (null substitution tombstones a slot and
/// re-appends the rewritten tuple), so a slot cursor `c` cleanly versions a
/// relation: live slots `< c` are the old half, live slots `>= c` the new
/// half. The semi-naive delta evaluator in `grom-engine` scans premise
/// atoms before its anchor old-only and the anchor new-only, so each match
/// is enumerated exactly once across anchor positions. Cursors come from
/// [`Relation::frontier`]; they are positional, and stay meaningful only
/// while no null substitution rewrites the relation (which may tombstone
/// or compact its slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// All live rows (the unversioned view).
    All,
    /// Only live rows in slots strictly below the cursor (the *old* half).
    Below(u32),
    /// Only live rows in slots at or above the cursor (the *new* half).
    AtLeast(u32),
}

/// A hash index over a set of column positions: the hash of a tuple's
/// values at `cols` → the slots of the rows holding them, ascending.
///
/// It is the only index kind a [`Relation`] keeps. Buckets are keyed by a
/// 64-bit hash of the key values rather than the values themselves: no
/// `Value` clone per insert and no allocation per probe, at the price of
/// possible collisions — which are safe, because every reader re-checks
/// the live tuple (the same contract stale buckets already impose).
#[derive(Debug, Clone)]
struct KeyIndex {
    /// Sorted, deduplicated column positions; clones of a relation share
    /// them.
    cols: Arc<[usize]>,
    /// Hash of the values at `cols` (in order) → row ids.
    map: FxHashMap<u64, Vec<u32>>,
}

/// Hash a sequence of key values into one bucket key; `None` if any value
/// is missing (an unbound pattern position, or a tuple too short).
fn key_hash<'a>(values: impl Iterator<Item = Option<&'a Value>>) -> Option<u64> {
    let mut h = FxHasher::default();
    for v in values {
        v?.hash(&mut h);
    }
    Some(h.finish())
}

impl KeyIndex {
    fn new(cols: Vec<usize>) -> Self {
        Self {
            cols: cols.into(),
            map: FxHashMap::default(),
        }
    }

    /// The bucket key of `tuple`, or `None` if the tuple lacks a key column.
    fn key_of(&self, tuple: &Tuple) -> Option<u64> {
        key_hash(self.cols.iter().map(|&c| tuple.get(c)))
    }

    /// The bucket key of `pattern`, if it binds every key column.
    fn probe(&self, pattern: &[Option<Value>]) -> Option<u64> {
        key_hash(self.cols.iter().map(|&c| pattern.get(c)?.as_ref()))
    }

    fn bucket(&self, key: u64) -> &[u32] {
        self.map.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn push(&mut self, tuple: &Tuple, row_id: u32) {
        let key = self.key_of(tuple).expect("arity checked on insert");
        self.map.entry(key).or_default().push(row_id);
    }
}

/// One relation: an insertion-ordered set of tuples plus its hashed keys.
///
/// Every lookup goes through one index kind, a key: the hash of some
/// columns' values → the ascending slots of the rows holding them. The
/// first insert fixes the arity and installs the eager keys: one
/// single-column key per column, stored at its column's position in
/// `keys`, then the membership key over all columns (at arity 1 that is
/// column 0's key). Composite keys registered with
/// [`Relation::register_key`] follow them.
///
/// Rows live in a slot vector; null substitution tombstones rewritten slots
/// (`None`) and re-appends the rewritten tuples, so row ids referenced by
/// buckets stay valid. Buckets may contain *stale* entries (tombstoned
/// slots) and hash collisions; every reader re-checks the live tuple, and a
/// junk counter triggers a full compaction when tombstones outweigh live
/// rows.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Tuple slots in insertion order; `None` is a tombstone left by null
    /// substitution. Live slots never contain duplicates.
    rows: Vec<Option<Tuple>>,
    /// Number of live (non-tombstone) slots.
    live: usize,
    /// Tombstones whose bucket entries are stale.
    junk: usize,
    /// The eager keys, then the registered ones; empty before the first
    /// insert.
    keys: Vec<KeyIndex>,
    /// The registered composite keys, normalized, in registration order.
    /// Registrations made before the first insert wait here for the arity.
    specs: Vec<Vec<usize>>,
    arity: Option<usize>,
}

impl Relation {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The arity fixed by the first insert, if any tuple was ever inserted.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    pub fn contains(&self, tuple: &Tuple) -> bool {
        let Some(a) = self.arity else {
            return false;
        };
        // The key over all columns follows the column keys; at arity 1 it
        // is column 0's.
        let key = &self.keys[if a == 1 { 0 } else { a }];
        key.key_of(tuple).is_some_and(|h| {
            key.bucket(h)
                .iter()
                .any(|&r| self.rows[r as usize].as_ref() == Some(tuple))
        })
    }

    /// Normalize a composite-key column set: positions sorted and
    /// deduplicated. `None` for fewer than two positions, which the eager
    /// single-column keys already cover.
    pub fn composite_key(mut cols: Vec<usize>) -> Option<Vec<usize>> {
        cols.sort_unstable();
        cols.dedup();
        (cols.len() >= 2).then_some(cols)
    }

    /// Register a composite-key index over `cols` (column positions of this
    /// relation), normalized by [`Relation::composite_key`]. Single columns,
    /// repeats and positions beyond the arity are ignored. The index is
    /// installed at once, backfilling existing rows, or on the first insert
    /// when the arity is not yet known; a key over all columns shares the
    /// membership key.
    pub fn register_key(&mut self, cols: &[usize]) {
        if let Some(cols) = Self::composite_key(cols.to_vec()) {
            self.add_spec(cols);
        }
    }

    fn add_spec(&mut self, cols: Vec<usize>) {
        if self.specs.contains(&cols) {
            return;
        }
        if let Some(a) = self.arity {
            if cols[cols.len() - 1] >= a {
                return;
            }
            self.install_key(cols.clone());
        }
        self.specs.push(cols);
    }

    /// Add an index over `cols` unless an equal one exists, backfilling the
    /// live rows.
    fn install_key(&mut self, cols: Vec<usize>) {
        if self.keys.iter().any(|k| *k.cols == *cols) {
            return;
        }
        let mut key = KeyIndex::new(cols);
        for (r, slot) in self.rows.iter().enumerate() {
            if let Some(t) = slot {
                key.push(t, r as u32);
            }
        }
        self.keys.push(key);
    }

    /// The column-position sets of the registered composite keys (pending
    /// ones included).
    pub fn key_specs(&self) -> impl Iterator<Item = &[usize]> {
        self.specs.iter().map(Vec::as_slice)
    }

    /// Insert a tuple. Returns `Ok(true)` if it was new, `Ok(false)` if it
    /// was already present, and an arity error (naming `relation`) if it
    /// does not match the relation's fixed width.
    pub fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        match self.arity {
            None => {
                let a = tuple.arity();
                self.arity = Some(a);
                for c in 0..a {
                    self.install_key(vec![c]);
                }
                self.install_key((0..a).collect());
                for cols in std::mem::take(&mut self.specs) {
                    self.add_spec(cols);
                }
            }
            Some(a) if a != tuple.arity() => {
                return Err(DataError::ArityMismatch {
                    relation: relation.clone(),
                    expected: a,
                    actual: tuple.arity(),
                });
            }
            Some(_) => {}
        }
        if self.contains(&tuple) {
            return Ok(false);
        }
        self.push(tuple);
        Ok(true)
    }

    /// Append `tuple` as a new live row, recording it in every key.
    fn push(&mut self, tuple: Tuple) {
        let row_id = self.rows.len() as u32;
        for key in &mut self.keys {
            key.push(&tuple, row_id);
        }
        self.rows.push(Some(tuple));
        self.live += 1;
    }

    /// Iterate over live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter().filter_map(Option::as_ref)
    }

    /// The slot just past the newest row: the cursor under which every
    /// current row is *old* ([`Span::Below`] of it is the whole relation).
    pub fn frontier(&self) -> u32 {
        self.rows.len() as u32
    }

    /// The number of live rows in slots at or above `cursor`: the size of
    /// the new half [`Span::AtLeast`] of it selects.
    pub fn len_from(&self, cursor: u32) -> usize {
        let from = (cursor as usize).min(self.rows.len());
        self.rows[from..]
            .iter()
            .filter(|slot| slot.is_some())
            .count()
    }

    /// The cursor that splits off the last `n` live rows as the *new* half:
    /// [`Span::AtLeast`] of the returned cursor covers exactly the `n`
    /// most recently inserted live tuples, [`Span::Below`] everything
    /// older. `n == 0` yields the [`Relation::frontier`] (nothing is new);
    /// `n >= len()` yields 0 (everything is new). The inverse of
    /// [`Relation::len_from`] over a cursor with no tombstone above it.
    ///
    /// Slot cursors do not survive a rebuild of the instance (reading it
    /// back from text renumbers the slots), but live-row counts do: a
    /// chase checkpoint stores counts and turns them back into cursors
    /// with this.
    pub fn cursor_before_last(&self, n: usize) -> u32 {
        if n == 0 {
            return self.frontier();
        }
        let mut remaining = n;
        for (i, slot) in self.rows.iter().enumerate().rev() {
            if slot.is_some() {
                remaining -= 1;
                if remaining == 0 {
                    return i as u32;
                }
            }
        }
        0
    }

    /// The smallest bucket among the keys `pattern` binds fully: a bound
    /// column, all columns, or a registered composite key. `None` means no
    /// key is fully bound (full scan).
    fn best_bucket(&self, pattern: &[Option<Value>]) -> Option<&[u32]> {
        let mut best: Option<&[u32]> = None;
        for k in &self.keys {
            if let Some(key) = k.probe(pattern) {
                let b = k.bucket(key);
                if best.is_none_or(|x| b.len() < x.len()) {
                    best = Some(b);
                }
            }
        }
        best
    }

    /// Stream the tuples matching `pattern` into `visit`, using the most
    /// selective bucket of any fully bound key and no intermediate
    /// allocation. `visit` returns `false` to stop early;
    /// `scan_each` returns whether the scan ran to completion.
    ///
    /// `pattern[i] = Some(v)` requires column `i` to equal `v`; `None`
    /// leaves it unconstrained.
    pub fn scan_each<'a>(
        &'a self,
        pattern: &[Option<Value>],
        visit: &mut dyn FnMut(&'a Tuple) -> bool,
    ) -> bool {
        self.scan_each_v(pattern, Span::All, visit)
    }

    /// [`Relation::scan_each`] restricted to one version half. Buckets hold
    /// row ids in ascending slot order (rows only append), so a bucket is
    /// narrowed to the span with one `partition_point` — every key stays
    /// coherent across both halves for free.
    pub fn scan_each_v<'a>(
        &'a self,
        pattern: &[Option<Value>],
        span: Span,
        visit: &mut dyn FnMut(&'a Tuple) -> bool,
    ) -> bool {
        debug_assert_eq!(Some(pattern.len()), self.arity.or(Some(pattern.len())));
        let matches = |t: &Tuple| {
            pattern
                .iter()
                .zip(t.values())
                .all(|(slot, v)| slot.as_ref().is_none_or(|s| s == v))
        };
        match self.best_bucket(pattern) {
            Some(bucket) => {
                let bucket = match span {
                    Span::All => bucket,
                    Span::Below(c) => &bucket[..bucket.partition_point(|&r| r < c)],
                    Span::AtLeast(c) => &bucket[bucket.partition_point(|&r| r < c)..],
                };
                for &r in bucket {
                    if let Some(t) = self.rows[r as usize].as_ref() {
                        if matches(t) && !visit(t) {
                            return false;
                        }
                    }
                }
            }
            None => {
                let rows = match span {
                    Span::All => &self.rows[..],
                    Span::Below(c) => &self.rows[..(c as usize).min(self.rows.len())],
                    Span::AtLeast(c) => &self.rows[(c as usize).min(self.rows.len())..],
                };
                for t in rows.iter().filter_map(Option::as_ref) {
                    if matches(t) && !visit(t) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Tuples matching a pattern, collected into a `Vec`. Prefer
    /// [`Relation::scan_each`] on hot paths — this convenience wrapper
    /// allocates.
    pub fn scan<'a>(&'a self, pattern: &[Option<Value>]) -> Vec<&'a Tuple> {
        let mut out = Vec::new();
        self.scan_each(pattern, &mut |t| {
            out.push(t);
            true
        });
        out
    }

    /// An upper bound on the number of tuples matching `pattern`, computed
    /// from the buckets without touching any tuple: the smallest bucket
    /// among the fully bound keys, or the live row count when the pattern
    /// is entirely unbound. The join
    /// planner in `grom-engine` uses this as its cardinality estimate.
    /// Stale entries and hash collisions may inflate the bound; never
    /// undercounts.
    pub fn estimate(&self, pattern: &[Option<Value>]) -> usize {
        self.estimate_v(pattern, Span::All)
    }

    /// [`Relation::estimate`] restricted to one version half. The bucket
    /// bound narrows with the same `partition_point` slice the versioned
    /// scan uses; the unbound bound is the slot count of the half (which,
    /// like `live`, may overcount by tombstones — never undercounts).
    pub fn estimate_v(&self, pattern: &[Option<Value>], span: Span) -> usize {
        match self.best_bucket(pattern) {
            Some(bucket) => match span {
                Span::All => bucket.len(),
                Span::Below(c) => bucket.partition_point(|&r| r < c),
                Span::AtLeast(c) => bucket.len() - bucket.partition_point(|&r| r < c),
            },
            None => match span {
                Span::All => self.live,
                Span::Below(c) => self.live.min(c as usize),
                Span::AtLeast(c) => self.rows.len().saturating_sub(c as usize),
            },
        }
    }

    /// Does any tuple match the pattern? Cheaper than [`Relation::scan`]
    /// when only existence matters (negated literals, denial checks).
    pub fn any_match(&self, pattern: &[Option<Value>]) -> bool {
        !self.scan_each(pattern, &mut |_| false)
    }

    /// Rows (ascending slot order) whose tuple mentions a null mapped by
    /// `map`. Probes the null buckets of the column keys when the map is
    /// small relative to the relation; falls back to a row sweep otherwise.
    fn affected_rows(&self, map: &FxHashMap<NullId, Value>) -> Vec<u32> {
        let Some(arity) = self.arity else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let probe_cost = map.len().saturating_mul(arity.max(1));
        if probe_cost < self.rows.len() {
            let mut seen = BTreeSet::new();
            for id in map.keys() {
                // Every column key hashes one value alike.
                let h = key_hash(std::iter::once(Some(&Value::Null(*id)))).expect("bound");
                for key in &self.keys[..arity] {
                    seen.extend(key.bucket(h).iter().copied());
                }
            }
            for r in seen {
                // Buckets may be stale or collide: re-check the live tuple.
                if let Some(t) = self.rows[r as usize].as_ref() {
                    if t.nulls().any(|n| map.contains_key(&n)) {
                        out.push(r);
                    }
                }
            }
        } else {
            for (r, slot) in self.rows.iter().enumerate() {
                if let Some(t) = slot {
                    if t.nulls().any(|n| map.contains_key(&n)) {
                        out.push(r as u32);
                    }
                }
            }
        }
        out
    }

    /// Rewrite the null-bearing rows addressed by `map` in place, leaving
    /// tombstones where rewritten tuples merged into existing ones.
    /// Returns whether anything changed.
    fn substitute_with(&mut self, map: &FxHashMap<NullId, Value>) -> bool {
        let affected = self.affected_rows(map);
        if affected.is_empty() {
            return false;
        }
        // Phase 1: lift every affected row out, so phase 2's membership
        // checks see only the surviving rows.
        let taken: Vec<Tuple> = affected
            .iter()
            .map(|&r| self.rows[r as usize].take().expect("affected row is live"))
            .collect();
        self.live -= taken.len();
        self.junk += taken.len();
        // Phase 2: rewrite and re-append in the old slot order; tuples that
        // collide with a surviving row simply merge (their slot stays a
        // tombstone).
        for old in taken {
            let (new, _) = old.substitute_nulls(&mut |id| map.get(&id).cloned());
            if !self.contains(&new) {
                self.push(new);
            }
        }
        self.maybe_compact();
        true
    }

    fn maybe_compact(&mut self) {
        if self.junk > 64 && self.junk > self.live {
            self.compact();
        }
    }

    /// Rebuild rows and every key from the live tuples, dropping tombstones
    /// and stale bucket entries. Insertion order of the survivors is
    /// preserved.
    fn compact(&mut self) {
        let old_rows = std::mem::replace(&mut self.rows, Vec::with_capacity(self.live));
        for k in &mut self.keys {
            k.map.clear();
        }
        self.live = 0;
        self.junk = 0;
        for t in old_rows.into_iter().flatten() {
            self.push(t);
        }
    }
}

/// A database instance: relation name → [`Relation`], with dense [`RelId`]
/// resolution for hot-path callers.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    /// Name → dense id; the sorted iteration order of every rendering path.
    names: BTreeMap<Arc<str>, RelId>,
    /// Relations addressed by [`RelId`], in first-insert order.
    store: Vec<(Arc<str>, Relation)>,
    /// Empty relations holding the key registrations made for names that
    /// do not exist yet; each becomes its relation when first created.
    pending: BTreeMap<Arc<str>, Relation>,
}

impl Instance {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an instance from an iterator of facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Result<Self, DataError> {
        let mut inst = Instance::new();
        for f in facts {
            inst.insert_fact(f)?;
        }
        Ok(inst)
    }

    /// Insert a fact; returns whether it was new.
    pub fn insert_fact(&mut self, fact: Fact) -> Result<bool, DataError> {
        self.insert(&fact.relation, fact.tuple)
    }

    /// The dense id of `name`, if the relation exists. Ids are stable for
    /// the lifetime of this instance (null substitution included).
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.names.get(name).copied()
    }

    /// The relation with id `id`.
    ///
    /// # Panics
    /// If `id` did not come from this instance's [`Instance::rel_id`].
    pub fn relation_by_id(&self, id: RelId) -> &Relation {
        &self.store[id.0 as usize].1
    }

    /// The name of the relation with id `id`.
    pub fn rel_name(&self, id: RelId) -> &Arc<str> {
        &self.store[id.0 as usize].0
    }

    /// The id of `relation`, creating it empty (with the key registrations
    /// pending for its name) if it is absent.
    pub fn ensure_relation(&mut self, relation: &Arc<str>) -> RelId {
        if let Some(&id) = self.names.get(relation.as_ref()) {
            return id;
        }
        let id = RelId(self.store.len() as u32);
        self.names.insert(relation.clone(), id);
        let rel = self.pending.remove(relation.as_ref()).unwrap_or_default();
        self.store.push((relation.clone(), rel));
        id
    }

    /// Split-borrow the instance: the read-only name → id index beside
    /// exclusive access to every relation, in [`RelId`] order.
    pub fn relations_mut(
        &mut self,
    ) -> (
        &BTreeMap<Arc<str>, RelId>,
        impl Iterator<Item = &mut Relation>,
    ) {
        (&self.names, self.store.iter_mut().map(|(_, r)| r))
    }

    /// Insert a tuple into `relation`; returns whether it was new.
    pub fn insert(&mut self, relation: &Arc<str>, tuple: Tuple) -> Result<bool, DataError> {
        let id = self.ensure_relation(relation);
        self.store[id.0 as usize].1.insert(relation, tuple)
    }

    /// Register a composite-key index on `relation` over column positions
    /// `cols`. If the relation does not exist yet, the registration is
    /// remembered and applied when it is first created — the chase wires up
    /// the join keys its trigger analysis discovered before any conclusion
    /// relation is materialized.
    pub fn register_key(&mut self, relation: &str, cols: &[usize]) {
        match self.names.get(relation) {
            Some(&id) => self.store[id.0 as usize].1.register_key(cols),
            None => self
                .pending
                .entry(Arc::from(relation))
                .or_default()
                .register_key(cols),
        }
    }

    /// Convenience insert with a `&str` relation name and raw values.
    pub fn add(
        &mut self,
        relation: impl AsRef<str>,
        values: Vec<Value>,
    ) -> Result<bool, DataError> {
        self.insert(&Arc::from(relation.as_ref()), Tuple::new(values))
    }

    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.names.get(name).map(|&id| &self.store[id.0 as usize].1)
    }

    /// Tuples of `name`, or an empty iterator if the relation is absent.
    pub fn tuples(&self, name: &str) -> impl Iterator<Item = &Tuple> {
        self.relation(name).into_iter().flat_map(Relation::iter)
    }

    pub fn contains_fact(&self, relation: &str, tuple: &Tuple) -> bool {
        self.relation(relation).is_some_and(|r| r.contains(tuple))
    }

    /// Relation names present in this instance (sorted).
    pub fn relation_names(&self) -> impl Iterator<Item = &Arc<str>> {
        self.names.keys()
    }

    /// All facts, grouped by relation (sorted) and then insertion order.
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.names.iter().flat_map(|(name, &id)| {
            self.store[id.0 as usize].1.iter().map(move |t| Fact {
                relation: name.clone(),
                tuple: t.clone(),
            })
        })
    }

    /// Total number of tuples across all relations.
    pub fn len(&self) -> usize {
        self.store.iter().map(|(_, r)| r.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merge all facts of `other` into `self`.
    pub fn absorb(&mut self, other: &Instance) -> Result<(), DataError> {
        for (name, id) in &other.names {
            for t in other.store[id.0 as usize].1.iter() {
                self.insert(name, t.clone())?;
            }
        }
        Ok(())
    }

    /// The union of two instances as a new instance.
    pub fn union(&self, other: &Instance) -> Result<Instance, DataError> {
        let mut out = self.clone();
        out.absorb(other)?;
        Ok(out)
    }

    /// The largest null label occurring anywhere, if any. Chase runs over an
    /// instance that already contains nulls start their generator above it.
    pub fn max_null_label(&self) -> Option<u64> {
        self.store
            .iter()
            .flat_map(|(_, r)| r.iter())
            .flat_map(|t| t.nulls())
            .map(|NullId(l)| l)
            .max()
    }

    /// Replace every `Value::Str` constant with its interned
    /// [`Value::Sym`], interning through `table` in deterministic order
    /// (relations sorted by name, tuples in insertion order). Relation
    /// structure, registered keys and insertion order carry over; slot
    /// numbers do not (tombstones are dropped).
    pub fn intern_strings(&self, table: &mut SymbolTable) -> Instance {
        let mut out = Instance::new();
        for (name, &id) in &self.names {
            for cols in self.store[id.0 as usize].1.key_specs() {
                out.register_key(name, cols);
            }
            for t in self.store[id.0 as usize].1.iter() {
                let values: Vec<Value> = t
                    .values()
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => Value::Sym(table.intern(s)),
                        other => other.clone(),
                    })
                    .collect();
                out.insert(name, Tuple::new(values))
                    .expect("interning preserves arity");
            }
        }
        out
    }

    /// Resolve every interned [`Value::Sym`] back to a plain `Value::Str`
    /// constant. Inverse of [`Instance::intern_strings`] up to index
    /// bookkeeping.
    pub fn unintern_strings(&self) -> Instance {
        let mut out = Instance::new();
        for (name, &id) in &self.names {
            for t in self.store[id.0 as usize].1.iter() {
                let values: Vec<Value> = t.values().iter().map(Value::unintern).collect();
                out.insert(name, Tuple::new(values))
                    .expect("uninterning preserves arity");
            }
        }
        out
    }

    /// Apply a *fully resolved* multi-mapping null substitution in one
    /// surgical pass: `map` sends each mapped label directly to its final
    /// value (no chains — the caller collapses them once, e.g. with the
    /// chase's `NullMap::flatten`). Only the rows that actually mention a
    /// mapped null are rewritten — located through the column keys —
    /// instead of rebuilding whole relations; tuples that become equal
    /// after substitution merge, leaving tombstones that compaction reclaims.
    ///
    /// This is the entry point of sweep-level egd batching: the chase
    /// accumulates a whole sweep's equality obligations in its union-find
    /// and applies them to the instance in one combined pass. Returns the
    /// names of the relations that changed: only their slots may have been
    /// tombstoned or compacted, so version cursors into every other
    /// relation stay valid.
    pub fn substitute_nulls_batch(&mut self, map: &FxHashMap<NullId, Value>) -> Vec<Arc<str>> {
        if map.is_empty() {
            return Vec::new();
        }
        let mut changed = Vec::new();
        for idx in 0..self.store.len() {
            if self.store[idx].1.substitute_with(map) {
                changed.push(self.store[idx].0.clone());
            }
        }
        changed.sort();
        changed
    }

    /// Apply a null substitution everywhere. Tuples that become equal after
    /// substitution are merged. Returns the names of the relations that
    /// were rewritten.
    ///
    /// This is the instance-level half of egd enforcement: the chase decides
    /// which labels map to which values (union-find in `grom-chase`) and
    /// calls this to normalize the instance. The lookup is memoized per
    /// label and the rewrite delegates to the surgical
    /// [`Instance::substitute_nulls_batch`] machinery, so unaffected rows
    /// are never touched.
    pub fn substitute_nulls(
        &mut self,
        mut lookup: impl FnMut(NullId) -> Option<Value>,
    ) -> Vec<Arc<str>> {
        // Resolve the closure into a flat map over the labels that actually
        // occur, memoizing so each label is looked up once.
        let mut map: FxHashMap<NullId, Value> = FxHashMap::default();
        let mut misses: std::collections::HashSet<NullId> = Default::default();
        for (_, rel) in &self.store {
            for t in rel.iter() {
                for n in t.nulls() {
                    if map.contains_key(&n) || misses.contains(&n) {
                        continue;
                    }
                    match lookup(n) {
                        Some(v) => {
                            map.insert(n, v);
                        }
                        None => {
                            misses.insert(n);
                        }
                    }
                }
            }
        }
        self.substitute_nulls_batch(&map)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, &id) in &self.names {
            for t in self.store[id.0 as usize].1.iter() {
                writeln!(f, "{name}{t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut inst = Instance::new();
        assert!(inst.add("R", vec![v(1), v(2)]).unwrap());
        assert!(!inst.add("R", vec![v(1), v(2)]).unwrap());
        assert!(inst.add("R", vec![v(1), v(3)]).unwrap());
        assert_eq!(inst.len(), 2);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(1), v(2)])));
        assert!(!inst.contains_fact("R", &Tuple::new(vec![v(9), v(9)])));
        assert!(!inst.contains_fact("S", &Tuple::new(vec![v(1)])));
    }

    #[test]
    fn rel_ids_are_dense_and_stable() {
        let mut inst = Instance::new();
        inst.add("B", vec![v(1)]).unwrap();
        inst.add("A", vec![v(2)]).unwrap();
        let a = inst.rel_id("A").unwrap();
        let b = inst.rel_id("B").unwrap();
        assert_eq!(b, RelId(0)); // first-insert order, not name order
        assert_eq!(a, RelId(1));
        assert!(inst.rel_id("C").is_none());
        assert_eq!(inst.rel_name(a).as_ref(), "A");
        assert_eq!(inst.relation_by_id(b).len(), 1);
        // Ids survive null substitution.
        inst.add("B", vec![Value::null(0)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(9)));
        assert_eq!(inst.rel_id("B"), Some(b));
        assert_eq!(inst.relation_by_id(b).len(), 2);
    }

    #[test]
    fn arity_is_fixed_by_first_insert() {
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), v(2)]).unwrap();
        let err = inst.add("R", vec![v(1)]).unwrap_err();
        assert!(matches!(
            err,
            DataError::ArityMismatch {
                expected: 2,
                actual: 1,
                ..
            }
        ));
    }

    #[test]
    fn scan_uses_pattern() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i % 3), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let hits = rel.scan(&[Some(v(1)), None]);
        assert_eq!(hits.len(), 3); // i = 1, 4, 7
        for t in hits {
            assert_eq!(t.get(0), Some(&v(1)));
        }
        let exact = rel.scan(&[Some(v(2)), Some(v(5))]);
        assert_eq!(exact.len(), 1);
        let none = rel.scan(&[Some(v(7)), None]);
        assert!(none.is_empty());
        let all = rel.scan(&[None, None]);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn scan_each_stops_early() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let mut seen = 0;
        let completed = rel.scan_each(&[None], &mut |_| {
            seen += 1;
            seen < 3
        });
        assert!(!completed);
        assert_eq!(seen, 3);
    }

    #[test]
    fn composite_keys_index_bound_patterns() {
        let mut inst = Instance::new();
        inst.register_key("R", &[0, 1]);
        for i in 0..100 {
            inst.add("R", vec![v(i % 5), v(i % 7), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        assert!(rel.key_specs().any(|k| k == [0, 1]));
        // The composite bucket is far smaller than either column bucket.
        let pattern = [Some(v(2)), Some(v(3)), None];
        let est = rel.estimate(&pattern);
        assert!(est <= 3, "composite estimate {est} should be tight");
        let hits = rel.scan(&pattern);
        assert!(hits
            .iter()
            .all(|t| t.get(0) == Some(&v(2)) && t.get(1) == Some(&v(3))));
        // Equivalence with a linear scan.
        let linear: Vec<&Tuple> = rel
            .iter()
            .filter(|t| t.get(0) == Some(&v(2)) && t.get(1) == Some(&v(3)))
            .collect();
        assert_eq!(hits, linear);
    }

    #[test]
    fn keys_registered_late_backfill() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i % 2), v(i % 3)]).unwrap();
        }
        inst.register_key("R", &[0, 1]);
        let rel = inst.relation("R").unwrap();
        let hits = rel.scan(&[Some(v(1)), Some(v(2))]);
        let linear: Vec<&Tuple> = rel
            .iter()
            .filter(|t| t.get(0) == Some(&v(1)) && t.get(1) == Some(&v(2)))
            .collect();
        assert_eq!(hits, linear);
        assert!(!hits.is_empty());
    }

    #[test]
    fn degenerate_key_specs_ignored() {
        let mut inst = Instance::new();
        inst.register_key("R", &[1, 1]); // dedups to one column: ignored
        inst.register_key("R", &[0, 5]); // out of range once arity known
        inst.add("R", vec![v(1), v(2), v(3)]).unwrap();
        inst.register_key("R", &[2]); // one column: the eager key covers it
        inst.register_key("R", &[2, 0]);
        inst.register_key("R", &[0, 2, 0]); // the same key again
        let rel = inst.relation("R").unwrap();
        // Only registered composite keys are reported, once each.
        assert_eq!(rel.key_specs().collect::<Vec<_>>(), vec![&[0, 2][..]]);
        assert!(rel.any_match(&[Some(v(1)), Some(v(2)), None]));
        // A key over all columns is reported, but shares the membership key.
        let mut inst = Instance::new();
        inst.register_key("S", &[1, 0]);
        inst.add("S", vec![v(1), v(2)]).unwrap();
        let rel = inst.relation("S").unwrap();
        assert_eq!(rel.key_specs().collect::<Vec<_>>(), vec![&[0, 1][..]]);
        assert_eq!(rel.keys.len(), 3); // columns 0 and 1, then membership
        assert!(rel.any_match(&[Some(v(1)), Some(v(2))]));
    }

    #[test]
    fn any_match_agrees_with_scan() {
        let mut inst = Instance::new();
        inst.add("R", vec![v(1), v(2)]).unwrap();
        let rel = inst.relation("R").unwrap();
        assert!(rel.any_match(&[Some(v(1)), None]));
        assert!(!rel.any_match(&[Some(v(2)), None]));
        assert!(rel.any_match(&[None, None]));
    }

    #[test]
    fn facts_iteration_is_deterministic() {
        let mut inst = Instance::new();
        inst.add("B", vec![v(1)]).unwrap();
        inst.add("A", vec![v(2)]).unwrap();
        inst.add("A", vec![v(1)]).unwrap();
        let facts: Vec<String> = inst.facts().map(|f| f.to_string()).collect();
        assert_eq!(facts, vec!["A(2)", "A(1)", "B(1)"]);
    }

    #[test]
    fn union_and_absorb() {
        let mut a = Instance::new();
        a.add("R", vec![v(1)]).unwrap();
        let mut b = Instance::new();
        b.add("R", vec![v(1)]).unwrap();
        b.add("S", vec![v(2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn substitute_nulls_merges_tuples() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), v(5)]).unwrap();
        inst.add("R", vec![v(1), v(5)]).unwrap();
        inst.add("S", vec![Value::null(7)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(1)));
        // N0 := 1 makes the two R-tuples collide; they must merge.
        assert_eq!(inst.relation("R").unwrap().len(), 1);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(1), v(5)])));
        // S untouched.
        assert!(inst.contains_fact("S", &Tuple::new(vec![Value::null(7)])));
    }

    #[test]
    fn substitute_nulls_rebuilds_indexes() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), v(5)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(3)));
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.scan(&[Some(v(3)), None]).len(), 1);
        assert!(rel.scan(&[Some(Value::null(0)), None]).is_empty());
    }

    #[test]
    fn substitution_is_surgical_and_compaction_reclaims() {
        let mut inst = Instance::new();
        // 200 null-free rows that must never be touched, plus 100 null rows.
        for i in 0..200 {
            inst.add("R", vec![v(i), v(-1)]).unwrap();
        }
        for i in 0..100 {
            inst.add("R", vec![Value::null(i), v(-2)]).unwrap();
        }
        let map: FxHashMap<NullId, Value> =
            (0..100).map(|i| (NullId(i), v(i as i64 + 1000))).collect();
        let changed = inst.substitute_nulls_batch(&map);
        assert_eq!(changed.len(), 1);
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.len(), 300);
        for i in 0..100 {
            assert!(inst.contains_fact("R", &Tuple::new(vec![v(i + 1000), v(-2)])));
        }
        // A second, merging substitution drives every rewritten row into an
        // existing one; repeated rounds force compaction and scans stay
        // correct throughout.
        let mut inst2 = Instance::new();
        for round in 0..5u64 {
            for i in 0..50u64 {
                inst2
                    .add("S", vec![Value::null(round * 50 + i), v(i as i64)])
                    .unwrap();
            }
            let map: FxHashMap<NullId, Value> =
                (0..50u64).map(|i| (NullId(round * 50 + i), v(7))).collect();
            inst2.substitute_nulls_batch(&map);
            // All 50 rows collapse to (7, i) per distinct second column.
            assert_eq!(inst2.relation("S").unwrap().len(), 50);
        }
        let rel = inst2.relation("S").unwrap();
        assert_eq!(rel.scan(&[Some(v(7)), None]).len(), 50);
        assert_eq!(rel.scan(&[Some(v(7)), Some(v(3))]).len(), 1);
        assert_eq!(rel.iter().count(), 50);
    }

    #[test]
    fn substitute_nulls_batch_applies_flat_map_once() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), Value::null(2)]).unwrap();
        inst.add("S", vec![Value::null(1)]).unwrap();
        // A flat (pre-resolved) multi-mapping: N0 and N1 in one pass.
        let map: FxHashMap<NullId, Value> =
            [(NullId(0), v(7)), (NullId(1), v(8))].into_iter().collect();
        let changed = inst.substitute_nulls_batch(&map);
        assert_eq!(changed.len(), 2);
        assert!(inst.contains_fact("R", &Tuple::new(vec![v(7), Value::null(2)])));
        assert!(inst.contains_fact("S", &Tuple::new(vec![v(8)])));
        // An empty map is a no-op and reports no changes.
        assert!(inst
            .substitute_nulls_batch(&FxHashMap::default())
            .is_empty());
    }

    #[test]
    fn max_null_label() {
        let mut inst = Instance::new();
        assert_eq!(inst.max_null_label(), None);
        inst.add("R", vec![Value::null(3), Value::null(11)])
            .unwrap();
        assert_eq!(inst.max_null_label(), Some(11));
    }

    #[test]
    fn intern_and_unintern_round_trip() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::str("a"), v(1)]).unwrap();
        inst.add("R", vec![Value::str("b"), v(2)]).unwrap();
        inst.add("S", vec![Value::str("a"), Value::null(3)])
            .unwrap();
        inst.register_key("R", &[0, 1]);
        let mut table = SymbolTable::new();
        let interned = inst.intern_strings(&mut table);
        assert_eq!(table.len(), 2); // "a", "b"
        assert_eq!(interned.len(), inst.len());
        // Every Str became a Sym; nulls and ints untouched.
        for f in interned.facts() {
            assert!(f.tuple.values().iter().all(|v| !matches!(v, Value::Str(_))));
        }
        // Key registrations carry over.
        assert!(interned
            .relation("R")
            .unwrap()
            .key_specs()
            .any(|k| k == [0, 1]));
        // Sym-keyed scans work like Str-keyed scans did.
        let sym_a = Value::Sym(table.get("a").unwrap());
        assert_eq!(
            interned
                .relation("R")
                .unwrap()
                .scan(&[Some(sym_a), None])
                .len(),
            1
        );
        // Round trip restores plain strings, byte for byte.
        let back = interned.unintern_strings();
        assert_eq!(back.to_string(), inst.to_string());
        assert_eq!(
            crate::io::canonical_render(&interned),
            crate::io::canonical_render(&inst)
        );
    }

    #[test]
    fn new_tuples_append_past_the_frontier() {
        let mut inst = Instance::new();
        inst.add("R", vec![v(1)]).unwrap();
        let f0 = inst.relation("R").unwrap().frontier();
        assert!(!inst.add("R", vec![v(1)]).unwrap()); // duplicate: no slot
        assert_eq!(inst.relation("R").unwrap().frontier(), f0);
        inst.add("R", vec![v(2)]).unwrap();
        inst.add("R", vec![v(3)]).unwrap();
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.frontier(), f0 + 2);
        assert_eq!(rel.len_from(f0), 2);
        assert_eq!(rel.len_from(rel.frontier()), 0);
        assert_eq!(rel.cursor_before_last(rel.len_from(f0)), f0);
        let mut newer = Vec::new();
        rel.scan_each_v(&[None], Span::AtLeast(f0), &mut |t| {
            newer.push(t.clone());
            true
        });
        assert_eq!(newer, vec![Tuple::new(vec![v(2)]), Tuple::new(vec![v(3)])]);
    }

    #[test]
    fn substitution_reports_changed_relations() {
        let mut inst = Instance::new();
        inst.add("R", vec![Value::null(0), v(5)]).unwrap();
        inst.add("S", vec![v(1)]).unwrap();
        let changed = inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(3)));
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].as_ref(), "R");
        // A no-op substitution changes no relation.
        let changed = inst.substitute_nulls(|_| None);
        assert!(changed.is_empty());
    }

    #[test]
    fn from_facts_roundtrip() {
        let facts = vec![
            Fact::new("R", vec![v(1), v(2)]),
            Fact::new("R", vec![v(1), v(2)]),
        ];
        let inst = Instance::from_facts(facts).unwrap();
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn cursor_before_last_splits_trailing_rows() {
        let mut inst = Instance::new();
        for i in 0..5 {
            inst.add("R", vec![v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.cursor_before_last(0), rel.frontier());
        assert_eq!(rel.cursor_before_last(2), 3);
        assert_eq!(rel.cursor_before_last(5), 0);
        assert_eq!(rel.cursor_before_last(99), 0);
        // Span::AtLeast of the cursor covers exactly the trailing n rows.
        let c = rel.cursor_before_last(2);
        let mut newer = Vec::new();
        rel.scan_each_v(&[None], Span::AtLeast(c), &mut |t| {
            newer.push(t.clone());
            true
        });
        assert_eq!(newer, vec![Tuple::new(vec![v(3)]), Tuple::new(vec![v(4)])]);
    }

    #[test]
    fn cursor_before_last_counts_live_rows_across_tombstones() {
        let mut inst = Instance::new();
        // Slots 0, 1 and 2; substitution then tombstones slot 0 and
        // re-appends its rewrite at slot 3.
        inst.add("R", vec![Value::null(0)]).unwrap();
        inst.add("R", vec![v(10)]).unwrap();
        inst.add("R", vec![v(20)]).unwrap();
        inst.substitute_nulls(|id| (id == NullId(0)).then(|| v(30)));
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.len(), 3);
        // The trailing 2 live rows are slots 2 and 3; the cursor must skip
        // the tombstone at slot 0 when counting backward.
        let c = rel.cursor_before_last(2);
        assert_eq!(c, 2);
        assert_eq!(rel.len_from(c), 2);
        assert_eq!(rel.len_from(0), 3); // the tombstone is not counted
        let mut older = Vec::new();
        rel.scan_each_v(&[None], Span::Below(c), &mut |t| {
            older.push(t.clone());
            true
        });
        assert_eq!(older, vec![Tuple::new(vec![v(10)])]);
    }

    #[test]
    fn versioned_scan_partitions_bucket_and_full_paths() {
        let mut inst = Instance::new();
        for i in 0..10 {
            inst.add("R", vec![v(i % 3), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let c = rel.cursor_before_last(4); // new half: i = 6..10
        for pattern in [&[Some(v(0)), None][..], &[None, None][..]] {
            let mut old = Vec::new();
            rel.scan_each_v(pattern, Span::Below(c), &mut |t| {
                old.push(t.clone());
                true
            });
            let mut new = Vec::new();
            rel.scan_each_v(pattern, Span::AtLeast(c), &mut |t| {
                new.push(t.clone());
                true
            });
            // The halves are disjoint and their union is the full scan.
            let mut all = Vec::new();
            rel.scan_each_v(pattern, Span::All, &mut |t| {
                all.push(t.clone());
                true
            });
            let mut union = old.clone();
            union.extend(new.iter().cloned());
            assert_eq!(union, all);
            assert!(new.iter().all(|t| t.get(1).is_some_and(|x| *x >= v(6))));
            assert!(old.iter().all(|t| t.get(1).is_some_and(|x| *x < v(6))));
        }
    }

    #[test]
    fn versioned_estimate_never_undercounts() {
        let mut inst = Instance::new();
        for i in 0..12 {
            inst.add("R", vec![v(i % 4), v(i)]).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        let c = rel.cursor_before_last(5);
        for pattern in [&[Some(v(1)), None][..], &[None, None][..]] {
            for span in [Span::All, Span::Below(c), Span::AtLeast(c)] {
                let mut count = 0usize;
                rel.scan_each_v(pattern, span, &mut |_| {
                    count += 1;
                    true
                });
                assert!(
                    rel.estimate_v(pattern, span) >= count,
                    "estimate under span {span:?} undercounts"
                );
            }
        }
        assert_eq!(rel.estimate_v(&[None, None], Span::AtLeast(c)), 5);
        assert_eq!(rel.estimate_v(&[None, None], Span::Below(c)), 7);
    }
}
