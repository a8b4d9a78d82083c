//! Fault injection for resilience testing.
//!
//! The chase engine calls [`fire`] at a handful of named points (sweep
//! start, the parallel merge barrier, substitution passes, worker entry).
//! By default every call is a no-op: the plan is `None` and `fire`
//! returns `None` after one relaxed atomic load. A plan is installed
//! either from the `GROM_FAIL` environment variable (read once, lazily)
//! or programmatically via [`install`] — the hook the kill/resume
//! property tests use.
//!
//! # Grammar
//!
//! ```text
//! GROM_FAIL = directive ("," directive)*
//! directive = point ":" action ["@" n]
//! point     = "sweep" | "barrier" | "subst" | "worker"
//! action    = "panic" | "interrupt"
//! ```
//!
//! `@n` makes the directive fire on the n-th *hit* of its point (1-based,
//! counted per point); omitted means the first hit. Each directive fires
//! at most once. A plan read from `GROM_FAIL` counts every hit in the
//! process; a plan installed with [`install`] counts only the hits made on
//! behalf of the installing thread — its own, and those of pool jobs it
//! dispatched through a [`Scope`] — so concurrent tests cannot consume each
//! other's faults. Examples:
//!
//! ```text
//! GROM_FAIL=worker:panic          # panic the first worker job
//! GROM_FAIL=sweep:interrupt@3     # force an interruption at sweep 3
//! GROM_FAIL=barrier:panic@2,subst:interrupt
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// What an armed directive does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// The injection point panics (`panic!("grom_fail: ...")`). Used to
    /// prove worker-panic containment.
    Panic,
    /// The injection point reports a forced interruption; the chase loop
    /// treats it like an exhausted budget.
    Interrupt,
}

#[derive(Debug, Clone)]
struct Directive {
    point: String,
    action: FailAction,
    /// 1-based hit count at which the directive fires.
    at: u64,
    fired: bool,
}

#[derive(Debug, Default)]
struct FailPlan {
    directives: Vec<Directive>,
    /// Per-point hit counters, keyed by point name.
    hits: Vec<(String, u64)>,
    /// The thread whose hits count: the installer of a programmatic plan,
    /// `None` (every thread) for a plan read from the environment.
    owner: Option<ThreadId>,
}

/// Fast path: `false` until a plan is installed, then stays `true` until
/// [`clear`]. Lets `fire` cost one relaxed load in the common case.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FailPlan>> = Mutex::new(None);
static ENV_READ: AtomicBool = AtomicBool::new(false);

const POINTS: [&str; 4] = ["sweep", "barrier", "subst", "worker"];

fn parse_plan(spec: &str) -> Result<FailPlan, String> {
    let mut plan = FailPlan::default();
    for raw in spec.split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (head, at) = match raw.split_once('@') {
            Some((head, n)) => {
                let at = n
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| format!("bad hit count in `{raw}`: {e}"))?;
                if at == 0 {
                    return Err(format!("hit count in `{raw}` is 1-based, got 0"));
                }
                (head, at)
            }
            None => (raw, 1),
        };
        let (point, action) = head
            .split_once(':')
            .ok_or_else(|| format!("directive `{raw}` is not `point:action[@n]`"))?;
        let point = point.trim();
        if !POINTS.contains(&point) {
            return Err(format!(
                "unknown point `{point}` (expected one of {})",
                POINTS.join(", ")
            ));
        }
        let action = match action.trim() {
            "panic" => FailAction::Panic,
            "interrupt" => FailAction::Interrupt,
            other => return Err(format!("unknown action `{other}` in `{raw}`")),
        };
        plan.directives.push(Directive {
            point: point.to_string(),
            action,
            at,
            fired: false,
        });
    }
    Ok(plan)
}

fn ensure_env_plan() {
    if ENV_READ.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Ok(spec) = std::env::var("GROM_FAIL") {
        if !spec.trim().is_empty() {
            match parse_plan(&spec) {
                Ok(plan) => {
                    *PLAN.lock().unwrap() = Some(plan);
                    ARMED.store(true, Ordering::SeqCst);
                }
                Err(e) => eprintln!("warning: ignoring malformed GROM_FAIL: {e}"),
            }
        }
    }
}

/// Install a fault plan programmatically (tests). Replaces any existing
/// plan, including one read from the environment.
pub fn install(spec: &str) -> Result<(), String> {
    ENV_READ.store(true, Ordering::SeqCst);
    let mut plan = parse_plan(spec)?;
    plan.owner = Some(thread::current().id());
    let armed = !plan.directives.is_empty();
    *PLAN.lock().unwrap() = Some(plan);
    ARMED.store(armed, Ordering::SeqCst);
    Ok(())
}

/// Remove the installed plan; `fire` returns to the no-op fast path.
pub fn clear() {
    ENV_READ.store(true, Ordering::SeqCst);
    *PLAN.lock().unwrap() = None;
    ARMED.store(false, Ordering::SeqCst);
}

/// The thread a hit is made on behalf of. A coordinator captures its scope
/// with [`scope`] and hands it to the pool jobs it dispatches, so their
/// hits count against the coordinator's installed plan.
#[derive(Debug, Clone, Copy)]
pub struct Scope(ThreadId);

/// The calling thread's scope.
pub fn scope() -> Scope {
    Scope(thread::current().id())
}

impl Scope {
    /// [`hit`] on behalf of this scope's thread.
    pub fn hit(self, point: &str) -> bool {
        act(point, fire_as(point, self.0))
    }
}

/// Record one hit of `point` and return the action of a directive that
/// fires on this hit, if any. No-op (one relaxed load) unless a plan is
/// armed.
pub fn fire(point: &str) -> Option<FailAction> {
    fire_as(point, thread::current().id())
}

fn fire_as(point: &str, thread: ThreadId) -> Option<FailAction> {
    if !ARMED.load(Ordering::Relaxed) {
        // Lazily pick up GROM_FAIL on the very first hit of any point.
        if ENV_READ.load(Ordering::Relaxed) {
            return None;
        }
        ensure_env_plan();
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
    }
    let mut guard = PLAN.lock().unwrap();
    let plan = guard.as_mut()?;
    if plan.owner.is_some_and(|owner| owner != thread) {
        return None;
    }
    let hit = match plan.hits.iter_mut().find(|(p, _)| p == point) {
        Some((_, n)) => {
            *n += 1;
            *n
        }
        None => {
            plan.hits.push((point.to_string(), 1));
            1
        }
    };
    for d in &mut plan.directives {
        if !d.fired && d.point == point && d.at == hit {
            d.fired = true;
            return Some(d.action);
        }
    }
    None
}

/// Fire `point` and panic if an armed directive says so; otherwise return
/// `true` when the point should report a forced interruption.
pub fn hit(point: &str) -> bool {
    act(point, fire(point))
}

fn act(point: &str, action: Option<FailAction>) -> bool {
    match action {
        Some(FailAction::Panic) => panic!("grom_fail: injected panic at `{point}`"),
        Some(FailAction::Interrupt) => true,
        None => false,
    }
}

/// Serialize tests that [`install`] plans: the plan is process-global, so
/// concurrent installing tests would trample each other. A poisoned lock
/// (a holder panicked — e.g. a contained injected panic) is recovered, not
/// propagated.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plan is process-global; keep the tests serialized.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn unarmed_fire_is_a_noop() {
        let _g = TEST_LOCK.lock().unwrap();
        clear();
        assert_eq!(fire("sweep"), None);
        assert!(!hit("barrier"));
    }

    #[test]
    fn directive_fires_on_the_requested_hit_once() {
        let _g = TEST_LOCK.lock().unwrap();
        install("sweep:interrupt@3").unwrap();
        assert_eq!(fire("sweep"), None);
        assert_eq!(fire("barrier"), None); // separate counter
        assert_eq!(fire("sweep"), None);
        assert_eq!(fire("sweep"), Some(FailAction::Interrupt));
        assert_eq!(fire("sweep"), None); // fires at most once
        clear();
    }

    #[test]
    fn multiple_directives_parse_and_fire_independently() {
        let _g = TEST_LOCK.lock().unwrap();
        install("worker:panic@2, subst:interrupt").unwrap();
        assert_eq!(fire("worker"), None);
        assert_eq!(fire("worker"), Some(FailAction::Panic));
        assert!(hit("subst"));
        assert!(!hit("subst"));
        clear();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = TEST_LOCK.lock().unwrap();
        assert!(install("bogus:panic").is_err());
        assert!(install("sweep:explode").is_err());
        assert!(install("sweep:panic@0").is_err());
        assert!(install("sweep").is_err());
        clear();
    }

    #[test]
    fn installed_plans_count_only_their_own_scope() {
        let _g = TEST_LOCK.lock().unwrap();
        install("worker:interrupt").unwrap();
        // Another thread's hit neither fires nor counts...
        assert!(!thread::spawn(|| hit("worker")).join().unwrap());
        // ...unless it is made on behalf of the installer.
        let here = scope();
        assert!(thread::spawn(move || here.hit("worker")).join().unwrap());
        clear();
    }

    #[test]
    fn injected_panic_is_catchable() {
        let _g = TEST_LOCK.lock().unwrap();
        install("worker:panic").unwrap();
        let result = std::panic::catch_unwind(|| hit("worker"));
        assert!(result.is_err());
        clear();
    }
}
