//! Tunables for the adaptive protocol.

use diffuse_bayes::DEFAULT_INTERVALS;

/// How sequence numbers reconcile suspicions on heartbeat receipt
/// (Algorithm 4, Event 1).
///
/// The variants' docs carry the argument; the test
/// `paper_literal_mode_fails_to_converge_where_default_succeeds`
/// (`tests/adaptive_integration.rs`) measures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReconcileMode {
    /// `adjust = suspected - missed`, where
    /// `missed = seq_gap - 1` is the number of heartbeats provably sent
    /// but never received, minus misses excused by the receiver's own
    /// downtime. Each received heartbeat additionally counts as one
    /// success observation for the link. This variant converges to the
    /// true loss rate.
    #[default]
    SeqGap,
    /// The paper's literal formula `adjust = suspected - seq_gap`, with
    /// no success observations. Provided for the ablation benchmark; it
    /// penalizes a link once per *successful* heartbeat and cannot
    /// converge.
    PaperLiteral,
}

/// How an over-suspicion (`adjust > 0`) is compensated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrectionMode {
    /// Exactly invert the earlier `decreaseReliability` updates
    /// (divide the posterior by the same likelihood). Unbiased.
    #[default]
    Exact,
    /// The paper's `increaseReliability` — a fresh Bayesian success
    /// observation. Does not cancel the earlier decrease exactly, biasing
    /// the posterior slightly on every over-suspicion.
    Bayes,
}

/// When a missing heartbeat is blamed on the *link* (the neighbor process
/// is always blamed at timeout, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkBlame {
    /// The paper's behavior (Algorithm 4, line 39), and the default:
    /// decrease the link estimate on every timeout, then settle at
    /// reconciliation — with [`CorrectionMode::Exact`] a sender that was
    /// merely crashed (no sequence gap) gets its link's decreases undone
    /// exactly. Reacts immediately to dead links and partitions.
    #[default]
    OnTimeout,
    /// Blame the link only at reconciliation time, when a sequence gap
    /// *proves* a loss. Unbiased, but a *fully* cut link never reconciles
    /// and therefore never degrades — kept for the ablation benchmark.
    OnReconcile,
}

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
    /// Whether to grow a peer's suspicion timeout after repeated
    /// over-suspicion (Algorithm 4, line 23).
    pub timeout_growth: bool,
    /// Suspicion reconciliation formula.
    pub reconcile: ReconcileMode,
    /// Over-suspicion compensation operator.
    pub correction: CorrectionMode,
    /// When the link (vs the process) takes the blame for silence.
    pub link_blame: LinkBlame,
    /// How many link/self observations accumulate before they are folded
    /// into the Bayesian estimator as one batched
    /// `increase_reliability(k)` / `decrease_reliability(k)` update.
    ///
    /// `1` reproduces the paper's per-observation updates exactly. The
    /// default of 16 keeps steady-state delta views sparse (an entry's
    /// version only moves on flush) at the cost of estimates lagging the
    /// newest `evidence_batch - 1` observations. Capped at 32 so every
    /// flush stays on the estimator's linear (bit-specified) path.
    pub evidence_batch: u32,
}

/// Default [`AdaptiveParams::evidence_batch`]: sparse steady-state deltas
/// while staying well inside the estimator's linear-path bound (32).
pub const DEFAULT_EVIDENCE_BATCH: u32 = 16;

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            target_reliability: 0.9999,
            heartbeat_period: 1,
            intervals: DEFAULT_INTERVALS,
            self_tick_period: 1,
            timeout_growth: true,
            reconcile: ReconcileMode::default(),
            correction: CorrectionMode::default(),
            link_blame: LinkBlame::default(),
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

    /// Enables or disables suspicion-timeout growth.
    #[must_use]
    pub fn with_timeout_growth(mut self, enabled: bool) -> Self {
        self.timeout_growth = enabled;
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

    /// Replaces the reconciliation mode.
    #[must_use]
    pub fn with_reconcile(mut self, mode: ReconcileMode) -> Self {
        self.reconcile = mode;
        self
    }

    /// Replaces the correction mode.
    #[must_use]
    pub fn with_correction(mut self, mode: CorrectionMode) -> Self {
        self.correction = mode;
        self
    }

    /// Replaces the link-blame mode.
    #[must_use]
    pub fn with_link_blame(mut self, mode: LinkBlame) -> Self {
        self.link_blame = mode;
        self
    }

    /// The paper-literal parameterization (for ablations): literal
    /// reconciliation, Bayesian correction, timeout-time link blame.
    #[must_use]
    pub fn paper_literal(self) -> Self {
        self.with_reconcile(ReconcileMode::PaperLiteral)
            .with_correction(CorrectionMode::Bayes)
            .with_link_blame(LinkBlame::OnTimeout)
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
        assert_eq!(p.reconcile, ReconcileMode::SeqGap);
        assert_eq!(p.correction, CorrectionMode::Exact);
        assert_eq!(p.link_blame, LinkBlame::OnTimeout);
        assert!(p.timeout_growth);
    }

    #[test]
    fn builders_clamp_and_set() {
        let p = AdaptiveParams::default()
            .with_heartbeat_period(0)
            .with_self_tick_period(0)
            .with_timeout_growth(false);
        assert_eq!(p.heartbeat_period, 1);
        assert_eq!(p.self_tick_period, 1);
        assert!(!p.timeout_growth);
    }

    #[test]
    fn paper_literal_combination() {
        let p = AdaptiveParams::default().paper_literal();
        assert_eq!(p.reconcile, ReconcileMode::PaperLiteral);
        assert_eq!(p.correction, CorrectionMode::Bayes);
        assert_eq!(p.link_blame, LinkBlame::OnTimeout);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_intervals_rejected() {
        let _ = AdaptiveParams::default().with_intervals(0);
    }
}
