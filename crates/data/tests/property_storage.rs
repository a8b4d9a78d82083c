//! Property tests for the indexed tuple store: on random relations with
//! random composite keys, every indexed access path (`scan`, `scan_each`,
//! `any_match`, `estimate`) must agree with the naive linear scan — and
//! keep agreeing after surgical null substitution rewrites rows in place.
//! Membership (`contains`, and `insert`'s dedup) is checked the same way.

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

/// `contains` agrees with the linear reference on every live tuple and on
/// every probe, and re-inserting a live tuple is reported as a duplicate.
fn assert_membership(inst: &mut Instance, probes: &[Tuple]) {
    let rel = inst.relation("R").expect("R exists");
    let live: Vec<Tuple> = rel.iter().cloned().collect();
    for t in live.iter().chain(probes) {
        let expect = rel.iter().any(|u| u == t);
        assert_eq!(rel.contains(t), expect, "contains diverges on {t}");
    }
    for t in &live {
        assert!(matches!(inst.add("R", t.values().to_vec()), Ok(false)));
    }
    assert_eq!(inst.relation("R").unwrap().len(), live.len());
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

    /// Hashed membership stays exact through substitution rounds: tuples
    /// rewritten away (their old slots now stale bucket entries) and
    /// random probes are absent, live tuples present. The last round
    /// grounds every null, lifting at least 68 rows: enough junk to force
    /// compaction. Arity 1, where the membership key is the column key,
    /// runs beside arity 3.
    #[test]
    fn hashed_membership_matches_linear_reference(
        rest in prop::collection::vec(prop::collection::vec(0usize..9, 3..=3), 80..160),
        probes in prop::collection::vec(prop::collection::vec(0usize..9, 3..=3), 1..24),
        subst in prop::collection::vec(prop::collection::vec(0usize..200, 2..=2), 1..12),
    ) {
        for arity in [1, 3] {
            let mut inst = Instance::new();
            // Column 0 holds a distinct null per row; a few null-free rows
            // ride along.
            for (i, sels) in rest.iter().enumerate() {
                let mut row = vec![Value::null(100 + i as u64)];
                row.extend(sels[1..arity].iter().map(|&s| val(s)));
                inst.add("R", row).unwrap();
                if i < 8 {
                    inst.add("R", sels[..arity].iter().map(|&s| val(s)).collect())
                        .unwrap();
                }
            }
            let probes: Vec<Tuple> = probes
                .iter()
                .map(|sels| Tuple::new(sels[..arity].iter().map(|&s| val(s)).collect()))
                .collect();
            assert_membership(&mut inst, &probes);
            // Partial rounds: a label goes to a constant or a fresh null.
            for pair in subst.chunks(3) {
                let before: Vec<Tuple> = inst.relation("R").unwrap().iter().cloned().collect();
                let map: FxHashMap<NullId, Value> = pair
                    .iter()
                    .map(|p| {
                        let target = if p[1] % 2 == 0 {
                            val(p[1] % 6)
                        } else {
                            Value::null(1000 + p[1] as u64)
                        };
                        (NullId(100 + p[0] as u64), target)
                    })
                    .collect();
                inst.substitute_nulls_batch(&map);
                assert_membership(&mut inst, &[probes.clone(), before].concat());
            }
            // The grounding round.
            let before: Vec<Tuple> = inst.relation("R").unwrap().iter().cloned().collect();
            let map: FxHashMap<NullId, Value> = before
                .iter()
                .flat_map(Tuple::nulls)
                .map(|n| (n, Value::int(0)))
                .collect();
            inst.substitute_nulls_batch(&map);
            let rel = inst.relation("R").unwrap();
            assert_eq!(rel.frontier() as usize, rel.len(), "compaction left tombstones");
            assert!(rel.iter().all(|t| !t.has_nulls()));
            assert_membership(&mut inst, &[probes.clone(), before].concat());
        }
    }
}
