//! Fault-aware link modelling: projected transfer cost under retries.
//!
//! The real-execution engines inject faults and retry with bounded
//! exponential backoff (the `zo-fault` crate). This module gives the
//! *simulator* the matching analytical model, so throughput projections
//! can answer "what does a flaky PCIe link or fabric cost?" without
//! running anything: a transfer that fails with probability `p` and is
//! retried until it succeeds completes in `1/(1-p)` attempts in
//! expectation, each failed attempt burning the transfer time it wasted
//! plus a backoff pause.

use crate::specs::LinkSpec;

/// A link plus the transient-fault behaviour of its transport layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyLinkSpec {
    /// The underlying link.
    pub link: LinkSpec,
    /// Probability a given transfer attempt fails transiently.
    pub fault_prob: f64,
    /// Backoff before the first retry, seconds.
    pub base_backoff_s: f64,
    /// Backoff cap, seconds (doubling saturates here).
    pub max_backoff_s: f64,
    /// Attempts before the transport gives up (≥ 1).
    pub max_attempts: u32,
}

impl FaultyLinkSpec {
    /// A fault-free wrapper (projections collapse to the plain link).
    pub fn reliable(link: LinkSpec) -> FaultyLinkSpec {
        FaultyLinkSpec {
            link,
            fault_prob: 0.0,
            base_backoff_s: 0.0,
            max_backoff_s: 0.0,
            max_attempts: 1,
        }
    }

    /// Backoff before retry number `retry` (1-based), seconds: doubling
    /// from the base, saturating at the cap — the same schedule the real
    /// transport uses.
    pub fn backoff_s(&self, retry: u32) -> f64 {
        if retry == 0 || self.base_backoff_s <= 0.0 {
            return 0.0;
        }
        let doubled = self.base_backoff_s
            * f64::from(2u32.saturating_pow(retry.saturating_sub(1)).min(1 << 20));
        doubled.min(self.max_backoff_s.max(self.base_backoff_s))
    }

    /// Expected seconds to move `bytes` one way, retries included.
    ///
    /// With per-attempt failure probability `p`, the expected number of
    /// attempts (unbounded retry) is `1/(1-p)`; each failed attempt costs
    /// a full transfer plus its backoff pause. The geometric weighting of
    /// the backoff schedule is summed exactly over `max_attempts`.
    ///
    /// # Panics
    ///
    /// Panics if `fault_prob` is outside `[0, 1)` — a link that always
    /// fails has no finite expected transfer time.
    pub fn expected_transfer_secs(&self, bytes: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&self.fault_prob),
            "fault probability must be in [0, 1): {}",
            self.fault_prob
        );
        let once = self.link.transfer_secs(bytes);
        if self.fault_prob == 0.0 {
            return once;
        }
        let p = self.fault_prob;
        // Expected attempts, unbounded: 1/(1-p). Expected backoff: the
        // k-th retry happens with probability p^k and pauses backoff(k).
        let mut backoff = 0.0;
        let mut pk = p;
        for k in 1..self.max_attempts {
            backoff += pk * self.backoff_s(k);
            pk *= p;
        }
        once / (1.0 - p) + backoff
    }

    /// Worst-case seconds for one transfer: every allowed attempt fails
    /// until the last, which succeeds — the retry budget fully burned.
    pub fn worst_case_transfer_secs(&self, bytes: f64) -> f64 {
        let once = self.link.transfer_secs(bytes);
        let attempts = f64::from(self.max_attempts.max(1));
        let mut backoff = 0.0;
        for k in 1..self.max_attempts {
            backoff += self.backoff_s(k);
        }
        attempts * once + backoff
    }

    /// Multiplier on fault-free transfer time implied by the expectation
    /// (`1.0` when reliable).
    pub fn slowdown(&self, bytes: f64) -> f64 {
        self.expected_transfer_secs(bytes) / self.link.transfer_secs(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcie() -> LinkSpec {
        LinkSpec {
            gbps_each_way: 16.0,
            latency_s: 10e-6,
        }
    }

    #[test]
    fn reliable_link_matches_plain_spec() {
        let f = FaultyLinkSpec::reliable(pcie());
        let bytes = 2.0 * 1024.0 * 1024.0 * 1024.0;
        assert_eq!(f.expected_transfer_secs(bytes), pcie().transfer_secs(bytes));
        assert_eq!(
            f.worst_case_transfer_secs(bytes),
            pcie().transfer_secs(bytes)
        );
        assert_eq!(f.slowdown(bytes), 1.0);
    }

    #[test]
    fn expected_time_scales_like_geometric_attempts() {
        let f = FaultyLinkSpec {
            link: pcie(),
            fault_prob: 0.5,
            base_backoff_s: 0.0,
            max_backoff_s: 0.0,
            max_attempts: 10,
        };
        let bytes = 1e9;
        // No backoff: expectation is exactly 1/(1-p) transfers.
        let want = pcie().transfer_secs(bytes) * 2.0;
        assert!((f.expected_transfer_secs(bytes) - want).abs() < 1e-12);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let f = FaultyLinkSpec {
            link: pcie(),
            fault_prob: 0.1,
            base_backoff_s: 50e-6,
            max_backoff_s: 150e-6,
            max_attempts: 6,
        };
        assert_eq!(f.backoff_s(1), 50e-6);
        assert_eq!(f.backoff_s(2), 100e-6);
        assert_eq!(f.backoff_s(3), 150e-6);
        assert_eq!(f.backoff_s(4), 150e-6);
    }

    #[test]
    fn worst_case_burns_the_whole_retry_budget() {
        let f = FaultyLinkSpec {
            link: pcie(),
            fault_prob: 0.2,
            base_backoff_s: 50e-6,
            max_backoff_s: 800e-6,
            max_attempts: 3,
        };
        let bytes = 1e8;
        let once = pcie().transfer_secs(bytes);
        let want = 3.0 * once + 50e-6 + 100e-6;
        assert!((f.worst_case_transfer_secs(bytes) - want).abs() < 1e-12);
        // Worst case dominates the expectation.
        assert!(f.worst_case_transfer_secs(bytes) > f.expected_transfer_secs(bytes));
    }

    #[test]
    fn certain_failure_rejected() {
        let f = FaultyLinkSpec {
            link: pcie(),
            fault_prob: 1.0,
            base_backoff_s: 0.0,
            max_backoff_s: 0.0,
            max_attempts: 2,
        };
        assert!(std::panic::catch_unwind(|| f.expected_transfer_secs(1.0)).is_err());
    }
}
