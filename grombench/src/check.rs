//! Output checking against a reference computed under the full-rescan
//! scheduler.
//!
//! The reference is a hash of `canonical_render`, which is stable under
//! null relabelling. Rendering is about as costly as the op itself on
//! `exchange`, so an op's output is first compared by an exact fingerprint
//! against outputs already shown canonically equal to the reference; only
//! an unseen fingerprint pays for a render. The reference process supplies
//! the first such fingerprint, so a healthy run renders nothing itself.

use std::hash::{Hash, Hasher};

use grom::data::{canonical_render, Instance};

/// 64-bit FNV-1a: deterministic across processes, unlike `RandomState`.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of the instance's canonical rendering (equal for instances that
/// differ only by a renaming of labelled nulls).
pub fn canonical_hash(inst: &Instance) -> u64 {
    let mut h = Fnv::new();
    h.write(canonical_render(inst).as_bytes());
    h.finish()
}

/// Exact fingerprint: relation names and tuples, labelled nulls included,
/// in the instance's own (deterministic) order.
pub fn fingerprint(inst: &Instance) -> u64 {
    let mut h = Fnv::new();
    for name in inst.relation_names() {
        name.hash(&mut h);
        for t in inst.tuples(name) {
            t.hash(&mut h);
        }
    }
    h.finish()
}

/// Checks op outputs against one reference hash.
pub struct Checker {
    reference: u64,
    verified: Vec<u64>,
}

impl Checker {
    /// `verified`: the fingerprint of an output already shown equal to the
    /// reference, if one is known.
    pub fn new(reference: u64, verified: Option<u64>) -> Self {
        Checker {
            reference,
            verified: verified.into_iter().collect(),
        }
    }

    /// Does `out` equal the reference up to null renaming?
    pub fn check(&mut self, out: &Instance) -> bool {
        let fp = fingerprint(out);
        if self.verified.contains(&fp) {
            return true;
        }
        let ok = canonical_hash(out) == self.reference;
        if ok {
            self.verified.push(fp);
        }
        ok
    }
}

/// A copy of `inst` with its first tuple dropped: the corrupted output of
/// the `--corrupt-first` self-test.
pub fn drop_one_tuple(inst: &Instance) -> Instance {
    let mut out = Instance::new();
    let mut dropped = false;
    for fact in inst.facts() {
        if !dropped {
            dropped = true;
            continue;
        }
        out.insert_fact(fact)
            .expect("facts of one instance keep their arity");
    }
    out
}
