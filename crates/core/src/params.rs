//! Tunables for the adaptive protocol.
//!
//! How a heartbeat reconciles the suspicions its silence caused
//! (Algorithm 4, Event 1) is fixed. The sequence gap `g` proves `g - 1`
//! heartbeats were sent and never received; misses the receiver's own
//! downtime explains are excused. Every suspicion already charged the
//! link at timeout (line 39), so the receipt settles the difference:
//! proven losses beyond the suspicions are charged, and suspicions
//! beyond the proven losses are undone exactly (the posterior divided by
//! the same likelihood). Repeated over-suspicion grows the peer's timeout
//! by one heartbeat period (line 23). The rule departs from the paper's
//! literal `adjust = suspected - g`, which charges a link once per
//! *successful* heartbeat and cannot converge.
//!
//! The one choice left is [`AdaptiveParams::receipt_evidence`]: whether
//! the received heartbeat is itself a success observation.

use diffuse_bayes::DEFAULT_INTERVALS;

/// Parameters of the adaptive protocol (Section 4).
///
/// The fields are public, so a struct literal can bypass the builders'
/// clamps; [`AdaptiveBroadcast::new`](crate::AdaptiveBroadcast::new)
/// applies them again, once, to whatever it is given.
///
/// Use the builder-style `with_*` methods to adjust individual knobs:
///
/// ```
/// use diffuse_core::AdaptiveParams;
///
/// let params = AdaptiveParams::default()
///     .with_target_reliability(0.999)
///     .with_heartbeat_period(5)
///     .with_intervals(50);
/// assert_eq!(params.heartbeat_period, 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveParams {
    /// Target reliability `K` for broadcasts (paper: 0.9999).
    pub target_reliability: f64,
    /// Heartbeat period `δ`, in ticks.
    pub heartbeat_period: u64,
    /// Number of Bayesian probability intervals `U` (paper: 100).
    pub intervals: usize,
    /// Self-monitoring period `∆tick` (Events 3–4), in ticks.
    pub self_tick_period: u64,
    /// Whether a fresh heartbeat counts as one success observation for
    /// the link it crossed (default `true`).
    ///
    /// With it, link estimates converge to the true loss rate, and every
    /// receipt is new evidence, so delta views stay dense. Without it, a
    /// link is charged only for proven losses and suspicions, so in a
    /// healthy steady state the views stop moving and deltas shrink to
    /// the self-tick wave: the converged regime the `scale` sweep
    /// measures.
    pub receipt_evidence: bool,
    /// How many link/self observations accumulate before they are folded
    /// into the Bayesian estimator as one batched
    /// `increase_reliability(k)` / `decrease_reliability(k)` update.
    ///
    /// `1` reproduces the paper's per-observation updates exactly. The
    /// default of 16 keeps steady-state delta views sparse (an entry's
    /// version only moves on flush) at the cost of estimates lagging the
    /// newest `evidence_batch - 1` observations. Capped at 32, so an
    /// estimate never lags more than 31 observations.
    pub evidence_batch: u32,
}

/// Default [`AdaptiveParams::evidence_batch`]: sparse steady-state deltas
/// with estimates lagging at most 15 observations.
pub const DEFAULT_EVIDENCE_BATCH: u32 = 16;

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            target_reliability: 0.9999,
            heartbeat_period: 1,
            intervals: DEFAULT_INTERVALS,
            self_tick_period: 1,
            receipt_evidence: true,
            evidence_batch: DEFAULT_EVIDENCE_BATCH,
        }
    }
}

impl AdaptiveParams {
    /// Replaces the broadcast target reliability `K`.
    #[must_use]
    pub fn with_target_reliability(mut self, k: f64) -> Self {
        self.target_reliability = k;
        self
    }

    /// Replaces the heartbeat period `δ` (clamped to at least 1 tick).
    #[must_use]
    pub fn with_heartbeat_period(mut self, ticks: u64) -> Self {
        self.heartbeat_period = ticks.max(1);
        self
    }

    /// Replaces the number of Bayesian intervals `U`.
    ///
    /// # Panics
    ///
    /// Panics if `intervals == 0`.
    #[must_use]
    pub fn with_intervals(mut self, intervals: usize) -> Self {
        assert!(intervals > 0, "at least one probability interval required");
        self.intervals = intervals;
        self
    }

    /// Replaces the self-monitoring period `∆tick` (clamped to ≥ 1).
    #[must_use]
    pub fn with_self_tick_period(mut self, ticks: u64) -> Self {
        self.self_tick_period = ticks.max(1);
        self
    }

    /// Enables or disables receipts as link evidence (see
    /// [`AdaptiveParams::receipt_evidence`]).
    #[must_use]
    pub fn with_receipt_evidence(mut self, enabled: bool) -> Self {
        self.receipt_evidence = enabled;
        self
    }

    /// Replaces the evidence batch size (clamped to `1..=32`; see
    /// [`AdaptiveParams::evidence_batch`]). `1` restores the paper's
    /// per-observation updates.
    #[must_use]
    pub fn with_evidence_batch(mut self, observations: u32) -> Self {
        self.evidence_batch = observations.clamp(1, 32);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_values() {
        let p = AdaptiveParams::default();
        assert_eq!(p.target_reliability, 0.9999);
        assert_eq!(p.intervals, 100);
        assert!(p.receipt_evidence);
    }

    #[test]
    fn builders_clamp_and_set() {
        let p = AdaptiveParams::default()
            .with_heartbeat_period(0)
            .with_self_tick_period(0)
            .with_receipt_evidence(false);
        assert_eq!(p.heartbeat_period, 1);
        assert_eq!(p.self_tick_period, 1);
        assert!(!p.receipt_evidence);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_intervals_rejected() {
        let _ = AdaptiveParams::default().with_intervals(0);
    }
}
