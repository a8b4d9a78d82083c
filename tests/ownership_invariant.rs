//! The fact the parallel chase's split borrow rests on: under
//! `Partition::build`, every relation some dependency concludes has all of
//! its writers and all of its premise readers in one conflict group. A
//! sweep can then hand that relation's `&mut` to the one group's job and
//! no other job ever reads it.
//!
//! Checked on randomly generated scenarios and on every committed corpus
//! program.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use grom::chase::{Partition, TriggerIndex};
use grom::lang::Dependency;
use grom::scenarios::{generate, list_entries, random_spec, read_entry};

/// Every violation of the ownership rule in `deps`'s partition, rendered.
fn ownership_violations(deps: &[Dependency]) -> Vec<String> {
    let triggers = TriggerIndex::build(deps);
    let partition = Partition::build(deps, &triggers);
    let mut writers: BTreeMap<Arc<str>, Vec<usize>> = BTreeMap::new();
    for (k, dep) in deps.iter().enumerate() {
        for atom in dep.disjuncts.iter().flat_map(|d| &d.atoms) {
            writers.entry(atom.predicate.clone()).or_default().push(k);
        }
    }
    let mut out = Vec::new();
    for (rel, ws) in &writers {
        let owner = partition.group_of(ws[0]);
        for &k in ws.iter().chain(triggers.triggered_by(rel)) {
            if partition.group_of(k) != owner {
                out.push(format!(
                    "`{rel}`: `{}` is in group {}, its owner group is {owner}",
                    deps[k].name,
                    partition.group_of(k)
                ));
            }
        }
    }
    out
}

#[test]
fn every_corpus_program_partitions_by_ownership() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = list_entries(&dir).expect("corpus/ readable");
    assert!(!entries.is_empty());
    for path in entries {
        let entry = read_entry(&path).expect("entry parses");
        let (deps, _) = entry.parts().expect("entry program parses");
        let violations = ownership_violations(&deps);
        assert!(
            violations.is_empty(),
            "entry `{}`:\n{}",
            entry.name,
            violations.join("\n")
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_programs_partition_by_ownership(seed in 0u64..1_000_000) {
        let scenario = generate(&random_spec(seed, 2));
        let (deps, _) = scenario.parts().expect("generated scenario parses");
        let violations = ownership_violations(&deps);
        prop_assert!(violations.is_empty(), "seed {}:\n{}", seed, violations.join("\n"));
    }
}
