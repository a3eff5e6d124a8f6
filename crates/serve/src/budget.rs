//! Per-request deadline budgets.
//!
//! A [`Budget`] is the absolute-deadline form of
//! [`EngineConfig::deadline_us`](crate::EngineConfig::deadline_us):
//! derived once when the engine accepts the request, carried through the
//! [`PipelineContext`](crate::PipelineContext), checked at every stage
//! edge by the driver, and propagated into the retrieval layer (where a
//! distributed retriever clamps its per-shard wire deadlines to
//! `min(configured, remaining)` — see
//! [`Retriever::retrieve_terms_within`](serpdiv_index::Retriever::retrieve_terms_within)).
//!
//! Checking against an absolute `Instant` rather than re-deriving
//! "elapsed ≥ deadline" at each site keeps every consumer consistent:
//! there is exactly one notion of "out of time" per request.

use std::time::{Duration, Instant};

/// The compute budget of one request: an absolute deadline, or unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget that never exhausts (deadline disabled).
    pub fn unlimited() -> Self {
        Budget { deadline: None }
    }

    /// The budget of a request accepted at `started` with `deadline_us`
    /// microseconds of compute (`0` ⇒ unlimited, matching the
    /// `EngineConfig` convention).
    pub fn from_deadline_us(started: Instant, deadline_us: u64) -> Self {
        if deadline_us == 0 {
            return Self::unlimited();
        }
        Budget {
            deadline: Some(started + Duration::from_micros(deadline_us)),
        }
    }

    /// `true` once the deadline has passed (always `false` when
    /// unlimited).
    pub fn exhausted(&self) -> bool {
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// Microseconds left before the deadline: `None` when unlimited,
    /// `Some(0)` once exhausted.
    pub fn remaining_us(&self) -> Option<u64> {
        self.deadline.map(|deadline| {
            deadline
                .saturating_duration_since(Instant::now())
                .as_micros()
                .min(u128::from(u64::MAX)) as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted());
        assert_eq!(b.remaining_us(), None);
        // The 0 convention maps to unlimited.
        assert_eq!(Budget::from_deadline_us(Instant::now(), 0), b);
    }

    #[test]
    fn deadline_counts_down_and_exhausts() {
        let b = Budget::from_deadline_us(Instant::now(), 1_000_000);
        assert!(!b.exhausted());
        let remaining = b.remaining_us().unwrap();
        assert!(remaining > 0 && remaining <= 1_000_000);

        let spent = Budget::from_deadline_us(Instant::now() - Duration::from_millis(5), 1_000);
        assert!(spent.exhausted());
        assert_eq!(spent.remaining_us(), Some(0));
    }
}
