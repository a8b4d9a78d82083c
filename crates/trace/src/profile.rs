//! The aggregated per-run profile: what the chase hands back alongside its
//! `ChaseStats` counters.
//!
//! Where `ChaseStats` answers "how much work did the run do", a
//! [`ChaseProfile`] answers "*where* did it go": per-dependency wall time
//! and activation splits ([`DepProfile`]), per-phase sweep timings
//! (evaluate / barrier merge / null substitution), and per-conflict-group
//! utilization in parallel mode ([`GroupProfile`]).
//!
//! All counter fields are deterministic functions of the scenario and the
//! scheduler mode — identical across thread counts and thread schedules.
//! Only the `*_ns` wall-clock fields (and [`GroupProfile::busy_ns`]) vary
//! run to run.

/// Per-dependency profile totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepProfile {
    /// Dependency name, as declared.
    pub name: String,
    /// Total activations (full rescans + delta activations).
    pub activations: u64,
    /// Activations that evaluated the premise against the full instance.
    pub full_rescans: u64,
    /// Activations seeded from delta tuples.
    pub delta_activations: u64,
    /// Delta activations that found at least one violation — the numerator
    /// of the delta-hit rate.
    pub delta_hits: u64,
    /// Delta tuples used to seed premise evaluation. Each claimed tuple
    /// counts once per activation, however many anchor positions its
    /// relation has in the premise — the semi-naive old/new split
    /// evaluates all anchors in one pass over the claimed delta.
    pub delta_tuples_seeded: u64,
    /// Violating premise matches found (before the satisfied-recheck).
    /// True match counts: the semi-naive split enumerates each match
    /// exactly once across anchor positions, so nothing is filtered out
    /// between enumeration and this counter.
    pub violations: u64,
    /// Tuples this dependency's repairs actually inserted.
    pub tuples_produced: u64,
    /// Equality obligations this dependency recorded.
    pub obligations: u64,
    /// Insert attempts rejected as duplicates (parallel mode: counted by
    /// the group's ownership view; always 0 in sequential modes).
    pub dedup_hits: u64,
    /// Wall time spent in this dependency's activations.
    pub wall_ns: u64,
    /// Conflict group index in parallel mode.
    pub group: Option<usize>,
}

impl DepProfile {
    /// Fraction of delta activations that found work, if any ran.
    pub fn delta_hit_rate(&self) -> Option<f64> {
        (self.delta_activations > 0).then(|| self.delta_hits as f64 / self.delta_activations as f64)
    }
}

/// Per-conflict-group utilization (parallel mode only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupProfile {
    /// Group index from the conflict partition.
    pub group: usize,
    /// Worker jobs this group contributed across all sweeps.
    pub jobs: u64,
    /// Wall time workers spent running this group's jobs.
    pub busy_ns: u64,
}

/// The whole-run profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaseProfile {
    /// Scheduler mode label (`delta`, `full_rescan`, `parallelN`, …).
    pub mode: String,
    /// One entry per dependency, in declaration order.
    pub deps: Vec<DepProfile>,
    /// Sweeps that did any work (activations or substitutions).
    pub sweeps: u64,
    /// Wall time in the evaluate phase: activation time in sequential
    /// modes, pool wall time (barrier to barrier) in parallel mode.
    pub evaluate_ns: u64,
    /// Wall time in the parallel barrier merge (obligation unification,
    /// buffer absorption, delta routing); 0 in sequential modes.
    pub merge_ns: u64,
    /// Wall time in null-substitution passes.
    pub substitute_ns: u64,
    /// Substitution passes applied (mirrors
    /// `ChaseStats::substitution_passes` for the profiled run).
    pub substitution_passes: u64,
    /// Per-group utilization, sorted by group index; empty in sequential
    /// modes.
    pub groups: Vec<GroupProfile>,
    /// Wall time of the whole chase run.
    pub total_ns: u64,
}

impl ChaseProfile {
    /// Total activations across all dependencies.
    pub fn total_activations(&self) -> u64 {
        self.deps.iter().map(|d| d.activations).sum()
    }

    /// Total full rescans across all dependencies.
    pub fn total_full_rescans(&self) -> u64 {
        self.deps.iter().map(|d| d.full_rescans).sum()
    }

    /// Total delta activations across all dependencies.
    pub fn total_delta_activations(&self) -> u64 {
        self.deps.iter().map(|d| d.delta_activations).sum()
    }

    /// Total delta tuples seeded across all dependencies.
    pub fn total_delta_tuples_seeded(&self) -> u64 {
        self.deps.iter().map(|d| d.delta_tuples_seeded).sum()
    }

    /// Total tuples produced across all dependencies.
    pub fn total_tuples_produced(&self) -> u64 {
        self.deps.iter().map(|d| d.tuples_produced).sum()
    }

    /// Total equality obligations recorded across all dependencies.
    pub fn total_obligations(&self) -> u64 {
        self.deps.iter().map(|d| d.obligations).sum()
    }

    /// Aggregate delta-hit rate, if any delta activations ran.
    pub fn delta_hit_rate(&self) -> Option<f64> {
        let acts = self.total_delta_activations();
        (acts > 0).then(|| self.deps.iter().map(|d| d.delta_hits).sum::<u64>() as f64 / acts as f64)
    }

    /// Wall time of dependency activations (the sequential evaluate sum).
    pub fn total_dep_wall_ns(&self) -> u64 {
        self.deps.iter().map(|d| d.wall_ns).sum()
    }

    /// Fold another run's profile into this one (greedy scenario retries,
    /// exhaustive node closures). Dependencies are merged **by name** —
    /// scenario-derived dependency sets can differ run to run — and groups
    /// by index. An empty profile adopts the other's mode label.
    pub fn absorb(&mut self, other: &ChaseProfile) {
        if self.mode.is_empty() {
            self.mode = other.mode.clone();
        }
        for od in &other.deps {
            let slot = match self.deps.iter_mut().find(|d| d.name == od.name) {
                Some(d) => d,
                None => {
                    self.deps.push(DepProfile {
                        name: od.name.clone(),
                        ..Default::default()
                    });
                    self.deps.last_mut().expect("just pushed")
                }
            };
            slot.activations += od.activations;
            slot.full_rescans += od.full_rescans;
            slot.delta_activations += od.delta_activations;
            slot.delta_hits += od.delta_hits;
            slot.delta_tuples_seeded += od.delta_tuples_seeded;
            slot.violations += od.violations;
            slot.tuples_produced += od.tuples_produced;
            slot.obligations += od.obligations;
            slot.dedup_hits += od.dedup_hits;
            slot.wall_ns += od.wall_ns;
            if slot.group.is_none() {
                slot.group = od.group;
            }
        }
        for og in &other.groups {
            let slot = match self.groups.iter_mut().find(|g| g.group == og.group) {
                Some(g) => g,
                None => {
                    self.groups.push(GroupProfile {
                        group: og.group,
                        ..Default::default()
                    });
                    self.groups.sort_by_key(|g| g.group);
                    self.groups
                        .iter_mut()
                        .find(|g| g.group == og.group)
                        .expect("just pushed")
                }
            };
            slot.jobs += og.jobs;
            slot.busy_ns += og.busy_ns;
        }
        self.sweeps += other.sweeps;
        self.evaluate_ns += other.evaluate_ns;
        self.merge_ns += other.merge_ns;
        self.substitute_ns += other.substitute_ns;
        self.substitution_passes += other.substitution_passes;
        self.total_ns += other.total_ns;
    }

    /// A copy with every wall-clock field zeroed — the thread-count- and
    /// machine-independent remainder, for determinism assertions.
    pub fn counters_only(&self) -> ChaseProfile {
        let mut p = self.clone();
        p.evaluate_ns = 0;
        p.merge_ns = 0;
        p.substitute_ns = 0;
        p.total_ns = 0;
        for d in &mut p.deps {
            d.wall_ns = 0;
        }
        for g in &mut p.groups {
            g.busy_ns = 0;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(name: &str, activations: u64, tuples: u64) -> DepProfile {
        DepProfile {
            name: name.into(),
            activations,
            tuples_produced: tuples,
            wall_ns: 100,
            ..Default::default()
        }
    }

    #[test]
    fn absorb_merges_by_name_and_adopts_mode() {
        let mut a = ChaseProfile::default();
        let mut b = ChaseProfile {
            mode: "delta".into(),
            deps: vec![dep("t1", 2, 5), dep("t2", 1, 0)],
            sweeps: 3,
            ..Default::default()
        };
        b.groups.push(GroupProfile {
            group: 0,
            jobs: 2,
            busy_ns: 50,
        });
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.mode, "delta");
        assert_eq!(a.deps.len(), 2);
        assert_eq!(a.deps[0].activations, 4);
        assert_eq!(a.total_tuples_produced(), 10);
        assert_eq!(a.sweeps, 6);
        assert_eq!(a.groups[0].jobs, 4);
    }

    #[test]
    fn delta_hit_rate_handles_empty() {
        let mut d = DepProfile::default();
        assert_eq!(d.delta_hit_rate(), None);
        d.delta_activations = 4;
        d.delta_hits = 3;
        assert_eq!(d.delta_hit_rate(), Some(0.75));
        let p = ChaseProfile {
            deps: vec![d],
            ..Default::default()
        };
        assert_eq!(p.delta_hit_rate(), Some(0.75));
    }

    #[test]
    fn counters_only_zeroes_every_wall_field() {
        let p = ChaseProfile {
            mode: "parallel4".into(),
            deps: vec![dep("t", 1, 1)],
            evaluate_ns: 10,
            merge_ns: 20,
            substitute_ns: 30,
            total_ns: 40,
            groups: vec![GroupProfile {
                group: 1,
                jobs: 1,
                busy_ns: 99,
            }],
            ..Default::default()
        };
        let c = p.counters_only();
        assert_eq!(c.evaluate_ns + c.merge_ns + c.substitute_ns + c.total_ns, 0);
        assert_eq!(c.deps[0].wall_ns, 0);
        assert_eq!(c.groups[0].busy_ns, 0);
        assert_eq!(c.deps[0].activations, 1);
        assert_eq!(c.groups[0].jobs, 1);
    }
}
