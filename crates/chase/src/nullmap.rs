//! Null substitution map: the union-find underlying egd enforcement.
//!
//! Enforcing an equality `v = w` during the chase:
//!
//! * both constants, equal → nothing to do;
//! * both constants, different → **chase failure** (the paper: "we say
//!   nothing about the cases in which Σ_ST ∪ Σ_T fail");
//! * a labeled null and anything else → the null is *mapped to* the other
//!   value (constants win over nulls; between two nulls the higher label
//!   maps to the lower, keeping results deterministic).
//!
//! Mappings may chain (`N3 → N1`, then `N1 → 7`); [`NullMap::resolve`]
//! follows chains with path compression.
//!
//! The map hashes with the deterministic `FxHasher`, so two maps built by
//! the same unifications iterate — and [`NullMap::flatten`] — in the same
//! order, run after run.

use grom_data::{FxHashMap, NullId, Value};

/// Outcome of enforcing one equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unify {
    /// The two values were already identical after resolution.
    Noop,
    /// A null was mapped; the instance needs re-normalization.
    Merged,
    /// Two distinct constants were equated: the chase fails.
    Clash(Value, Value),
}

/// A substitution from null labels to values, with chain resolution.
#[derive(Debug, Clone, Default)]
pub struct NullMap {
    map: FxHashMap<NullId, Value>,
}

impl NullMap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Resolve a value through the map without mutating it (follows chains,
    /// no path compression). This is the read-only view the parallel chase
    /// executor hands to its pool jobs: they resolve bindings against the
    /// sweep-start map while *collecting* new equality obligations instead
    /// of unifying in place.
    pub fn resolve_frozen(&self, value: &Value) -> Value {
        let mut current = value.clone();
        while let Some(id) = current.as_null() {
            match self.map.get(&id) {
                Some(next) => current = next.clone(),
                None => break,
            }
        }
        current
    }

    /// Resolve a value through the map (follows chains, compresses paths).
    pub fn resolve(&mut self, value: &Value) -> Value {
        let Some(id) = value.as_null() else {
            return value.clone();
        };
        let Some(next) = self.map.get(&id).cloned() else {
            return value.clone();
        };
        let root = self.resolve(&next);
        if root != next {
            self.map.insert(id, root.clone());
        }
        root
    }

    /// Enforce `a = b`.
    pub fn unify(&mut self, a: &Value, b: &Value) -> Unify {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        if ra == rb {
            return Unify::Noop;
        }
        match (ra.as_null(), rb.as_null()) {
            (None, None) => Unify::Clash(ra, rb),
            (Some(na), None) => {
                self.map.insert(na, rb);
                Unify::Merged
            }
            (None, Some(nb)) => {
                self.map.insert(nb, ra);
                Unify::Merged
            }
            (Some(na), Some(nb)) => {
                // Deterministic orientation: higher label maps to lower.
                if na > nb {
                    self.map.insert(na, rb);
                } else {
                    self.map.insert(nb, ra);
                }
                Unify::Merged
            }
        }
    }

    /// A lookup closure suitable for
    /// [`grom_data::Instance::substitute_nulls`]: maps a label to its fully
    /// resolved replacement, or `None` when unmapped.
    pub fn lookup(&mut self, id: NullId) -> Option<Value> {
        if !self.map.contains_key(&id) {
            return None;
        }
        Some(self.resolve(&Value::Null(id)))
    }

    /// A fully resolved snapshot of the substitution: every mapped label
    /// sent directly to its final value, chains collapsed once. This is the
    /// input of [`grom_data::Instance::substitute_nulls_batch`] — the
    /// one-pass sweep-level substitution of egd batching.
    pub fn flatten(&mut self) -> FxHashMap<NullId, Value> {
        let keys: Vec<NullId> = self.map.keys().copied().collect();
        keys.into_iter()
            .map(|id| {
                let root = self.resolve(&Value::Null(id));
                (id, root)
            })
            .collect()
    }

    /// Total number of merges recorded so far (mapped labels).
    pub fn merge_count(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_null_with_constant() {
        let mut m = NullMap::new();
        assert_eq!(m.unify(&Value::null(0), &Value::int(5)), Unify::Merged);
        assert_eq!(m.resolve(&Value::null(0)), Value::int(5));
        assert_eq!(m.unify(&Value::null(0), &Value::int(5)), Unify::Noop);
    }

    #[test]
    fn constant_clash_detected() {
        let mut m = NullMap::new();
        match m.unify(&Value::int(1), &Value::int(2)) {
            Unify::Clash(a, b) => {
                assert_eq!(a, Value::int(1));
                assert_eq!(b, Value::int(2));
            }
            other => panic!("expected clash, got {other:?}"),
        }
        assert_eq!(m.unify(&Value::str("x"), &Value::str("x")), Unify::Noop);
    }

    #[test]
    fn null_null_orientation_is_deterministic() {
        let mut m = NullMap::new();
        assert_eq!(m.unify(&Value::null(5), &Value::null(2)), Unify::Merged);
        assert_eq!(m.resolve(&Value::null(5)), Value::null(2));
        let mut m = NullMap::new();
        assert_eq!(m.unify(&Value::null(2), &Value::null(5)), Unify::Merged);
        assert_eq!(m.resolve(&Value::null(5)), Value::null(2));
    }

    #[test]
    fn chains_resolve_transitively() {
        let mut m = NullMap::new();
        m.unify(&Value::null(3), &Value::null(1));
        m.unify(&Value::null(1), &Value::int(7));
        assert_eq!(m.resolve(&Value::null(3)), Value::int(7));
        assert_eq!(m.resolve(&Value::null(1)), Value::int(7));
    }

    #[test]
    fn chained_clash_detected() {
        let mut m = NullMap::new();
        m.unify(&Value::null(0), &Value::int(1));
        m.unify(&Value::null(1), &Value::int(2));
        match m.unify(&Value::null(0), &Value::null(1)) {
            Unify::Clash(a, b) => {
                assert_eq!(a, Value::int(1));
                assert_eq!(b, Value::int(2));
            }
            other => panic!("expected clash, got {other:?}"),
        }
    }

    #[test]
    fn lookup_for_substitution() {
        let mut m = NullMap::new();
        m.unify(&Value::null(0), &Value::null(1));
        m.unify(&Value::null(1), &Value::int(9));
        assert_eq!(m.lookup(NullId(0)), Some(Value::int(9)));
        assert_eq!(m.lookup(NullId(1)), Some(Value::int(9)));
        assert_eq!(m.lookup(NullId(7)), None);
    }

    #[test]
    fn resolve_frozen_follows_chains_without_mutation() {
        let mut m = NullMap::new();
        m.unify(&Value::null(3), &Value::null(1));
        m.unify(&Value::null(1), &Value::int(7));
        let frozen = &m;
        assert_eq!(frozen.resolve_frozen(&Value::null(3)), Value::int(7));
        assert_eq!(frozen.resolve_frozen(&Value::null(9)), Value::null(9));
        assert_eq!(frozen.resolve_frozen(&Value::int(2)), Value::int(2));
    }

    #[test]
    fn flatten_collapses_chains() {
        let mut m = NullMap::new();
        m.unify(&Value::null(5), &Value::null(3));
        m.unify(&Value::null(3), &Value::null(1));
        m.unify(&Value::null(1), &Value::int(7));
        let flat = m.flatten();
        assert_eq!(flat.len(), 3);
        for id in [5u64, 3, 1] {
            assert_eq!(flat[&NullId(id)], Value::int(7));
        }
    }

    #[test]
    fn flatten_order_is_a_function_of_the_unify_sequence() {
        let build = || {
            let mut m = NullMap::new();
            for i in 0..64u64 {
                m.unify(&Value::null(i * 7 + 100), &Value::null(i));
                if i % 3 == 0 {
                    m.unify(&Value::null(i), &Value::int(i as i64));
                }
            }
            m
        };
        let a: Vec<(NullId, Value)> = build().flatten().into_iter().collect();
        let b: Vec<(NullId, Value)> = build().flatten().into_iter().collect();
        assert_eq!(a.len(), 86);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_count_tracks_mapped_labels() {
        let mut m = NullMap::new();
        assert_eq!(m.merge_count(), 0);
        m.unify(&Value::null(0), &Value::int(1));
        m.unify(&Value::null(2), &Value::null(3));
        assert_eq!(m.merge_count(), 2);
    }
}
