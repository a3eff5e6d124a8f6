//! Deterministic fault injection for the serpdiv serving stack.
//!
//! The serving engine is instrumented with **named failpoints** — fixed
//! call sites like `chaos::failpoint("pool.serve")` — that are
//! two-instruction no-ops (one relaxed atomic load and a branch) unless a
//! [`FaultPlan`] has been [`arm`]ed for the whole process. An armed plan
//! is a list of `(site pattern, probability, fault)` rules driven by one
//! seeded LCG, so a given `(seed, rules, call sequence)` injects *exactly*
//! the same faults on every run: chaos tests are replayable, and a
//! failing seed is a bug report.
//!
//! # Fault vocabulary
//!
//! | [`FaultKind`] | effect inside [`failpoint`] |
//! |---|---|
//! | `Delay(d)`  | sleeps `d`, then continues |
//! | `Panic`     | panics (containment is the site's job) |
//!
//! The sites are the serving engine's: one before every pipeline stage
//! (`stage.detect` … `stage.select`), `pool.serve` inside the worker
//! pool's panic containment, and `swap.validate` / `swap.publish` on the
//! generation hot swap. The retrieval layers carry none: a test faults
//! the scatter path through `ShardedIndex::with_fault_injection` and the
//! fleet's transport through the stream it hands
//! `worker::serve_connection`.
//!
//! # Scope and safety
//!
//! Arming is **process-global** (that is what makes the no-op fast path
//! possible), so tests that arm plans must serialize against each other
//! and [`disarm`] on every exit path — [`armed`], the RAII guard returned
//! by [`arm`], does both ends of that. Production binaries simply never
//! arm a plan and pay only the dead branch.
//!
//! ```
//! use serpdiv_chaos as chaos;
//! use std::sync::Arc;
//!
//! let plan = Arc::new(
//!     chaos::FaultPlan::new(0xC0FFEE).with_rule("pool.*", 1.0, chaos::FaultKind::Panic),
//! );
//! chaos::arm(plan.clone());
//! assert!(std::panic::catch_unwind(|| chaos::failpoint("pool.serve")).is_err());
//! chaos::disarm();
//! assert_eq!(plan.fired_total(), 1);
//! // Disarmed: the failpoint is inert again.
//! chaos::failpoint("pool.serve");
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// One injectable fault, applied inside [`failpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long inside the failpoint, then continue normally.
    /// Models a slow dependency (GC pause, cold page, saturated core).
    Delay(Duration),
    /// Panic inside the failpoint. Models a crashed task; the layers
    /// above must contain it (pool workers, the stage driver).
    Panic,
}

/// `site` patterns: exact match, or a `*`-terminated prefix
/// (`"stage.*"`), or the universal `"*"`.
fn site_matches(pattern: &str, site: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => site.starts_with(prefix),
        None => pattern == site,
    }
}

/// xorshift64* — tiny, seedable, good enough to decorrelate fault rolls.
/// Not the shims' rand: the chaos crate stays dependency-free.
#[derive(Debug, Clone)]
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        // splitmix64 scramble: adjacent seeds decorrelate, and the
        // all-zero xorshift fixed point is unreachable.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Lcg((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

struct Rule {
    pattern: String,
    probability: f64,
    fault: FaultKind,
    fired: AtomicU64,
}

/// A seeded, replayable schedule of faults.
///
/// Build one with [`FaultPlan::new`] + [`with_rule`](Self::with_rule),
/// wrap it in an `Arc`, and [`arm`] it; keep your clone of the `Arc` to
/// read the [`fired`](Self::fired) counters after the run. Rules are
/// evaluated in insertion order and at most one fires per failpoint hit;
/// every probability roll consumes the shared LCG, so the injected
/// schedule is a pure function of `(seed, rules, failpoint sequence)`.
pub struct FaultPlan {
    rules: Vec<Rule>,
    rng: Mutex<Lcg>,
    fired_total: AtomicU64,
}

impl FaultPlan {
    /// An empty plan driven by `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rules: Vec::new(),
            rng: Mutex::new(Lcg::new(seed)),
            fired_total: AtomicU64::new(0),
        }
    }

    /// Add a rule: at any failpoint matching `pattern` (exact site name,
    /// `"prefix*"`, or `"*"`), inject `fault` with `probability`.
    pub fn with_rule(
        mut self,
        pattern: impl Into<String>,
        probability: f64,
        fault: FaultKind,
    ) -> Self {
        self.rules.push(Rule {
            pattern: pattern.into(),
            probability: probability.clamp(0.0, 1.0),
            fault,
            fired: AtomicU64::new(0),
        });
        self
    }

    /// Total faults injected so far.
    pub fn fired_total(&self) -> u64 {
        self.fired_total.load(Ordering::Relaxed)
    }

    /// Faults injected by the rule(s) registered under exactly this
    /// pattern string.
    pub fn fired(&self, pattern: &str) -> u64 {
        self.rules
            .iter()
            .filter(|r| r.pattern == pattern)
            .map(|r| r.fired.load(Ordering::Relaxed))
            .sum()
    }

    /// Roll the rules for one hit of `site`.
    fn decide(&self, site: &str) -> Option<FaultKind> {
        for rule in &self.rules {
            if !site_matches(&rule.pattern, site) {
                continue;
            }
            let roll = self
                .rng
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .next_f64();
            if roll < rule.probability {
                self.fired_total.fetch_add(1, Ordering::Relaxed);
                rule.fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.fault);
            }
        }
        None
    }
}

/// Fast-path flag: `false` ⇒ every failpoint is an inert branch.
static ARMED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn current_plan() -> Option<Arc<FaultPlan>> {
    plan_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Arm `plan` process-wide. Replaces any previously armed plan.
pub fn arm(plan: Arc<FaultPlan>) {
    *plan_slot().lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm: every failpoint reverts to its no-op fast path.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *plan_slot().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// RAII guard from [`armed`]: disarms on drop (including unwind), so a
/// panicking chaos test cannot leave the process armed for the next one.
pub struct ArmedGuard(());

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// [`arm`] + a guard that [`disarm`]s when dropped.
#[must_use = "dropping the guard disarms the plan immediately"]
pub fn armed(plan: Arc<FaultPlan>) -> ArmedGuard {
    arm(plan);
    ArmedGuard(())
}

/// The failpoint hook every instrumented site calls.
///
/// Disarmed: a relaxed load and a branch. Armed: rolls the plan's rules
/// for `site` and applies the fault that fires — `Delay` sleeps, `Panic`
/// panics.
#[inline]
pub fn failpoint(site: &str) {
    if ARMED.load(Ordering::Relaxed) {
        failpoint_armed(site);
    }
}

#[cold]
fn failpoint_armed(site: &str) {
    let Some(plan) = current_plan() else {
        return;
    };
    match plan.decide(site) {
        None => {}
        Some(FaultKind::Delay(d)) => std::thread::sleep(d),
        Some(FaultKind::Panic) => panic!("chaos: injected panic at failpoint `{site}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Arming is process-global: chaos unit tests take this lock so the
    /// harness can run them on its default parallelism.
    static SERIAL: StdMutex<()> = StdMutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    const SLOW: FaultKind = FaultKind::Delay(Duration::from_millis(1));

    #[test]
    fn disarmed_failpoints_are_inert() {
        let _s = serial();
        disarm();
        failpoint("anything");
        assert!(!is_armed());
    }

    #[test]
    fn same_seed_same_schedule() {
        let decisions = |seed: u64| -> Vec<Option<FaultKind>> {
            let plan = FaultPlan::new(seed).with_rule("a.*", 0.5, SLOW).with_rule(
                "b",
                0.25,
                FaultKind::Panic,
            );
            (0..200)
                .map(|i| plan.decide(if i % 2 == 0 { "a.x" } else { "b" }))
                .collect()
        };
        assert_eq!(decisions(42), decisions(42));
        assert_ne!(decisions(42), decisions(43), "seeds decorrelate");
        // Both fault kinds actually occur at these probabilities.
        let d = decisions(42);
        assert!(d.contains(&Some(SLOW)));
        assert!(d.contains(&Some(FaultKind::Panic)));
        assert!(d.iter().any(|f| f.is_none()));
    }

    #[test]
    fn probability_bounds() {
        let never = FaultPlan::new(7).with_rule("*", 0.0, FaultKind::Panic);
        let always = FaultPlan::new(7).with_rule("*", 1.0, SLOW);
        for _ in 0..100 {
            assert_eq!(never.decide("x"), None);
            assert_eq!(always.decide("x"), Some(SLOW));
        }
        assert_eq!(never.fired_total(), 0);
        assert_eq!(always.fired_total(), 100);
    }

    #[test]
    fn pattern_matching() {
        assert!(site_matches("*", "anything.at.all"));
        assert!(site_matches("stage.*", "stage.select"));
        assert!(!site_matches("stage.*", "pool.serve"));
        assert!(site_matches("pool.serve", "pool.serve"));
        assert!(!site_matches("pool.serve", "pool.serve.x"));
    }

    #[test]
    fn first_matching_rule_wins_and_counts() {
        let plan =
            FaultPlan::new(5)
                .with_rule("x", 1.0, SLOW)
                .with_rule("*", 1.0, FaultKind::Panic);
        assert_eq!(plan.decide("x"), Some(SLOW));
        assert_eq!(plan.decide("y"), Some(FaultKind::Panic));
        assert_eq!(plan.fired("x"), 1);
        assert_eq!(plan.fired("*"), 1);
    }

    #[test]
    fn armed_panic_is_injected_and_guard_disarms() {
        let _s = serial();
        let plan = Arc::new(FaultPlan::new(9).with_rule("boom", 1.0, FaultKind::Panic));
        {
            let _g = armed(plan.clone());
            assert!(is_armed());
            let caught = std::panic::catch_unwind(|| failpoint("boom"));
            assert!(caught.is_err());
            // Unmatched sites stay clean.
            failpoint("calm");
        }
        assert!(!is_armed());
        assert_eq!(plan.fired_total(), 1);
    }

    #[test]
    fn delay_fault_sleeps_inline() {
        let _s = serial();
        let plan = Arc::new(FaultPlan::new(2).with_rule(
            "slow",
            1.0,
            FaultKind::Delay(Duration::from_millis(30)),
        ));
        let _g = armed(plan);
        let t = std::time::Instant::now();
        failpoint("slow");
        assert!(t.elapsed() >= Duration::from_millis(25));
    }
}
