//! Crash/recovery models.

use diffuse_model::Probability;
use rand::Rng;

/// How processes crash and recover during a simulation.
///
/// The paper defines `P_i` as the fraction of *crashed steps* among all
/// steps a process executes (Section 2.1). Both models below realize a
/// stationary down-fraction `P`:
///
/// * [`CrashModel::Bernoulli`] — each tick the process is independently
///   down with probability `P` (the literal "each step is a crashed step
///   with probability P" reading);
/// * [`CrashModel::Markov`] — a two-state Markov chain with mean downtime
///   `D` ticks, tuned so the stationary down fraction is `P`. This models
///   realistic crash *episodes* and exercises the protocol's recovery path
///   (Event 4) with multi-tick outages.
///
/// Crashes are modeled as omission windows: a down process neither sends,
/// receives, nor observes ticks, while its protocol state (logically held
/// in stable storage, which the paper grants every process) survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashModel {
    /// Processes never crash (`P = 0`).
    AlwaysUp,
    /// Independently down each tick with probability `p`.
    Bernoulli {
        /// Per-tick crash probability (the paper's `P_i`).
        p: Probability,
    },
    /// Two-state Markov chain with stationary down fraction `p` and mean
    /// downtime `mean_downtime` ticks.
    Markov {
        /// Stationary fraction of crashed ticks (the paper's `P_i`).
        p: Probability,
        /// Mean length of a crash episode, in ticks (must be >= 1).
        mean_downtime: f64,
    },
}

impl CrashModel {
    /// Per-tick transition probabilities `(crash, recover)` for the
    /// Markov model: `recover = 1/D`, `crash = recover * P / (1 - P)`.
    fn markov_rates(p: Probability, mean_downtime: f64) -> (f64, f64) {
        let d = mean_downtime.max(1.0);
        let recover = 1.0 / d;
        let p = p.value();
        if p >= 1.0 {
            return (1.0, 0.0);
        }
        let crash = (recover * p / (1.0 - p)).min(1.0);
        (crash, recover)
    }
}

/// Per-process crash state, advanced once per tick by the engine's
/// crash phase ([`Lane::step`](crate::Lane::step)) — its only caller, so
/// every executor shares one state machine, one RNG draw pattern and one
/// way of reporting recoveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CrashState {
    /// Whether the process is currently up.
    pub(crate) up: bool,
    /// Ticks spent in the current down episode.
    pub(crate) down_ticks: u64,
    /// Remaining ticks of a forced outage injected by the test harness.
    pub(crate) forced_down_remaining: u64,
}

impl CrashState {
    /// A freshly started (up) process.
    pub(crate) fn new() -> Self {
        CrashState {
            up: true,
            down_ticks: 0,
            forced_down_remaining: 0,
        }
    }

    /// Advances one tick. Returns `Some(downtime)` when the process
    /// recovers on this tick (it is up again afterwards).
    ///
    /// Stochastic models consume randomness from `rng` in a fixed
    /// per-call pattern; drivers that advance every process in id order
    /// with a shared seeded RNG replay identically.
    pub(crate) fn advance<R: Rng + ?Sized>(
        &mut self,
        model: &CrashModel,
        rng: &mut R,
    ) -> Option<u64> {
        // Forced outages take precedence over the stochastic model.
        if self.forced_down_remaining > 0 {
            self.forced_down_remaining -= 1;
            self.up = false;
            self.down_ticks += 1;
            if self.forced_down_remaining == 0 {
                let downtime = self.down_ticks;
                self.up = true;
                self.down_ticks = 0;
                return Some(downtime);
            }
            return None;
        }
        match model {
            CrashModel::AlwaysUp => {
                debug_assert!(self.up);
                None
            }
            CrashModel::Bernoulli { p } => {
                let was_down = !self.up;
                // lint:allow(batched-loss-draw): per-process crash draw, once per tick — not a message-path sample.
                let down_now = !p.is_zero() && rng.gen_bool(p.value());
                self.up = !down_now;
                if down_now {
                    self.down_ticks += 1;
                    None
                } else if was_down {
                    let downtime = self.down_ticks;
                    self.down_ticks = 0;
                    Some(downtime)
                } else {
                    None
                }
            }
            CrashModel::Markov { p, mean_downtime } => {
                let (crash, recover) = CrashModel::markov_rates(*p, *mean_downtime);
                if self.up {
                    // lint:allow(batched-loss-draw): per-process crash draw, once per tick — not a message-path sample.
                    if crash > 0.0 && rng.gen_bool(crash) {
                        self.up = false;
                        self.down_ticks = 1;
                    }
                    None
                // lint:allow(batched-loss-draw): per-process recovery draw, once per tick — not a message-path sample.
                } else if rng.gen_bool(recover) {
                    let downtime = self.down_ticks;
                    self.up = true;
                    self.down_ticks = 0;
                    Some(downtime)
                } else {
                    self.down_ticks += 1;
                    None
                }
            }
        }
    }

    /// Injects a forced outage of `ticks` ticks starting now.
    pub(crate) fn force_down(&mut self, ticks: u64) {
        self.up = false;
        self.forced_down_remaining = ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn always_up_never_crashes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = CrashState::new();
        for _ in 0..1000 {
            assert_eq!(s.advance(&CrashModel::AlwaysUp, &mut rng), None);
            assert!(s.up);
        }
    }

    #[test]
    fn bernoulli_matches_down_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = CrashModel::Bernoulli {
            p: Probability::new(0.05).unwrap(),
        };
        let mut s = CrashState::new();
        let mut down = 0u64;
        let total = 200_000u64;
        for _ in 0..total {
            s.advance(&model, &mut rng);
            if !s.up {
                down += 1;
            }
        }
        let fraction = down as f64 / total as f64;
        assert!((fraction - 0.05).abs() < 0.005, "fraction {fraction}");
    }

    #[test]
    fn markov_matches_down_fraction_and_mean_downtime() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = CrashModel::Markov {
            p: Probability::new(0.10).unwrap(),
            mean_downtime: 5.0,
        };
        let mut s = CrashState::new();
        let mut down = 0u64;
        let mut episodes = Vec::new();
        let total = 400_000u64;
        for _ in 0..total {
            if let Some(dt) = s.advance(&model, &mut rng) {
                episodes.push(dt);
            }
            if !s.up {
                down += 1;
            }
        }
        let fraction = down as f64 / total as f64;
        assert!((fraction - 0.10).abs() < 0.01, "fraction {fraction}");
        let mean: f64 = episodes.iter().sum::<u64>() as f64 / episodes.len() as f64;
        assert!((mean - 5.0).abs() < 0.5, "mean downtime {mean}");
    }

    #[test]
    fn recovery_reports_episode_length() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = CrashState::new();
        s.force_down(3);
        let model = CrashModel::AlwaysUp;
        assert_eq!(s.advance(&model, &mut rng), None);
        assert!(!s.up);
        assert_eq!(s.advance(&model, &mut rng), None);
        assert_eq!(s.advance(&model, &mut rng), Some(3));
        assert!(s.up);
    }

    #[test]
    fn markov_rates_are_sane() {
        let (crash, recover) = CrashModel::markov_rates(Probability::new(0.05).unwrap(), 10.0);
        assert!((recover - 0.1).abs() < 1e-12);
        assert!((crash - 0.1 * 0.05 / 0.95).abs() < 1e-12);
        // Certain-failure edge case.
        let (crash, recover) = CrashModel::markov_rates(Probability::ONE, 10.0);
        assert_eq!((crash, recover), (1.0, 0.0));
    }
}
