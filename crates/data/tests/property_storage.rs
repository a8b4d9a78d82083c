//! Property tests for the indexed tuple store: on random relations with
//! random composite keys, every indexed access path (`scan`, `scan_each`,
//! `any_match`, `estimate`) must agree with the naive linear scan — and
//! keep agreeing after surgical null substitution rewrites rows in place.

use proptest::prelude::*;

use grom_data::{FxHashMap, Instance, NullId, Relation, Tuple, Value};

/// A small value domain so patterns actually hit: ints 0..4, two strings,
/// and labeled nulls 0..3.
fn val(sel: usize) -> Value {
    match sel % 9 {
        0..=3 => Value::int((sel % 9) as i64),
        4 => Value::str("a"),
        5 => Value::str("b"),
        _ => Value::null((sel % 9 - 6) as u64),
    }
}

/// The reference implementation: filter the full iterator by the pattern.
fn linear_scan<'a>(rel: &'a Relation, pattern: &[Option<Value>]) -> Vec<&'a Tuple> {
    rel.iter()
        .filter(|t| {
            pattern
                .iter()
                .enumerate()
                .all(|(i, want)| want.as_ref().is_none_or(|v| t.get(i) == Some(v)))
        })
        .collect()
}

fn arb_rows(arity: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..9, arity..=arity), 0..40)
}

fn arb_patterns(arity: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    // Selector 9 encodes "unbound" in a pattern position.
    prop::collection::vec(prop::collection::vec(0usize..10, arity..=arity), 1..12)
}

fn build(rows: &[Vec<usize>], keys: &[Vec<usize>], late_keys: &[Vec<usize>]) -> Instance {
    let mut inst = Instance::new();
    for cols in keys {
        inst.register_key("R", cols);
    }
    for row in rows {
        inst.add("R", row.iter().map(|&s| val(s)).collect::<Vec<_>>())
            .unwrap();
    }
    for cols in late_keys {
        inst.register_key("R", cols);
    }
    inst
}

fn pattern_of(sels: &[usize]) -> Vec<Option<Value>> {
    sels.iter()
        .map(|&s| if s == 9 { None } else { Some(val(s)) })
        .collect()
}

fn assert_paths_agree(rel: &Relation, pattern: &[Option<Value>]) {
    let expect = linear_scan(rel, pattern);
    let got = rel.scan(pattern);
    assert_eq!(got, expect, "scan diverges from linear scan on {pattern:?}");
    assert_eq!(rel.any_match(pattern), !expect.is_empty());
    assert!(
        rel.estimate(pattern) >= expect.len(),
        "estimate under-counts: {} < {} on {pattern:?}",
        rel.estimate(pattern),
        expect.len()
    );
    // Early-stopping streams see a prefix of the same sequence.
    let mut first = None;
    rel.scan_each(pattern, &mut |t| {
        first = Some(t.clone());
        false
    });
    assert_eq!(first.as_ref(), expect.first().copied());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed scans over composite keys (registered both before and after
    /// the rows arrive) agree with the linear reference scan on every
    /// pattern shape.
    #[test]
    fn indexed_scans_match_linear_scans(
        rows in arb_rows(3),
        patterns in arb_patterns(3),
        eager in prop::bool::ANY,
    ) {
        let (keys, late): (&[Vec<usize>], &[Vec<usize>]) = if eager {
            (&[vec![0, 1], vec![1, 2], vec![0, 1, 2]], &[])
        } else {
            (&[], &[vec![0, 1], vec![1, 2], vec![0, 1, 2]])
        };
        let inst = build(&rows, keys, late);
        if let Some(rel) = inst.relation("R") {
            for sels in &patterns {
                assert_paths_agree(rel, &pattern_of(sels));
            }
        }
    }

    /// After a null-substitution pass (the surgical rewrite that lifts
    /// only affected rows), the indexes still agree with the linear scan
    /// and no tombstone leaks into any access path.
    #[test]
    fn scans_stay_consistent_after_null_substitution(
        rows in arb_rows(3),
        patterns in arb_patterns(3),
        null_to_int in prop::bool::ANY,
    ) {
        let mut inst = build(&rows, &[vec![0, 1], vec![0, 2]], &[]);
        // Merge null 0 into either a constant or another null; repeat so
        // compaction paths get exercised on larger inputs.
        for round in 0..3u64 {
            let mut map = FxHashMap::default();
            let target = if null_to_int {
                Value::int(round as i64)
            } else {
                Value::null(round + 10)
            };
            map.insert(NullId(round.saturating_sub(1)), target.clone());
            map.insert(NullId(round), target);
            inst.substitute_nulls_batch(&map);
        }
        if let Some(rel) = inst.relation("R") {
            for sels in &patterns {
                assert_paths_agree(rel, &pattern_of(sels));
            }
            // The live count is consistent with the iterator.
            assert_eq!(rel.iter().count(), rel.len());
        }
    }
}
