//! The wall clock: real elapsed time mapped onto logical ticks.
//!
//! A node runtime maps real elapsed time onto logical [`SimTime`] ticks
//! through a [`WallClock`] and sleeps on its transport between
//! deadlines. (Deterministic runs have no clock of their own: the
//! virtual-time fabric is the simulation kernel with encoded frames in
//! flight, and its time is the kernel's.)
//!
//! This module is the **only** file allowed to call `Instant::now`,
//! `SystemTime::now`, or `thread::sleep` — the `diffuse-lint`
//! `no-wall-clock` rule and the root `clippy.toml` disallowed-methods
//! list enforce that everything else goes through a [`WallSession`].

use std::time::{Duration, Instant};

use diffuse_sim::SimTime;

/// Reads the monotonic clock.
///
/// The single sanctioned raw `Instant::now` outside [`WallSession`]:
/// the chaos layer ([`ChaosTransport`](crate::ChaosTransport)) stamps
/// hold-back release deadlines and receive budgets with it, and the
/// cluster driver uses it for handshake timeouts.
#[allow(clippy::disallowed_methods)] // clock.rs is the sanctioned wall-clock site
pub(crate) fn monotonic_now() -> Instant {
    Instant::now()
}

/// Briefly parks the thread before retrying a transient socket
/// operation (`EAGAIN`-class send pressure). Exponential in `attempt`,
/// starting at 100 µs and capped well under a logical tick, so a full
/// retry burst stays invisible to the tick schedule.
#[allow(clippy::disallowed_methods)] // clock.rs is the sanctioned wall-clock site
pub(crate) fn transient_backoff(attempt: u32) {
    let micros = 100u64 << attempt.min(4);
    std::thread::sleep(Duration::from_micros(micros));
}

/// Wall-clock timing parameters for a node runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallClock {
    tick: Duration,
}

impl WallClock {
    /// A wall clock with the given tick length (clamped to ≥ 1 ms).
    pub fn new(tick_interval: Duration) -> Self {
        WallClock {
            tick: tick_interval.max(Duration::from_millis(1)),
        }
    }

    /// The wall-clock length of one logical tick.
    pub fn tick_interval(&self) -> Duration {
        self.tick
    }

    /// Starts measuring: the returned session pins tick zero to "now".
    #[allow(clippy::disallowed_methods)] // clock.rs is the sanctioned wall-clock site
    pub(crate) fn begin(&self) -> WallSession {
        WallSession {
            start: Instant::now(),
            tick: self.tick,
        }
    }
}

/// A running wall clock: converts between [`Instant`]s and logical
/// ticks. This is the single place the runtime touches `Instant::now`
/// and `thread::sleep`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallSession {
    start: Instant,
    tick: Duration,
}

#[allow(clippy::disallowed_methods)] // clock.rs is the sanctioned wall-clock site
impl WallSession {
    /// The current logical tick.
    pub(crate) fn now(&self) -> SimTime {
        self.at(Instant::now())
    }

    /// The logical tick a given instant falls in.
    pub(crate) fn at(&self, instant: Instant) -> SimTime {
        SimTime::new((instant - self.start).as_nanos() as u64 / self.tick.as_nanos() as u64)
    }

    /// The instant at which the logical tick `at` begins.
    pub(crate) fn deadline(&self, at: SimTime) -> Instant {
        self.start + self.tick * u32::try_from(at.ticks()).unwrap_or(u32::MAX)
    }

    /// How long until the logical tick `at` begins (zero if passed).
    pub(crate) fn until(&self, at: SimTime) -> Duration {
        self.deadline(at).saturating_duration_since(Instant::now())
    }

    /// Sleeps until the logical tick `at` begins (returns immediately if
    /// it already has).
    pub(crate) fn sleep_until(&self, at: SimTime) {
        let wait = self.until(at);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// Sleeps for a raw wall-clock duration (settle slack after the run
    /// horizon, letting in-flight frames drain).
    pub(crate) fn settle(&self, slack: Duration) {
        if !slack.is_zero() {
            std::thread::sleep(slack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_clamps_and_converts() {
        let clock = WallClock::new(Duration::ZERO);
        assert_eq!(clock.tick_interval(), Duration::from_millis(1));
        let session = WallClock::new(Duration::from_millis(10)).begin();
        assert_eq!(session.now(), SimTime::ZERO);
        assert_eq!(
            session.at(session.deadline(SimTime::new(7))),
            SimTime::new(7)
        );
        // A deadline in the past yields a zero wait, not a panic.
        assert_eq!(session.until(SimTime::ZERO), Duration::ZERO);
        session.sleep_until(SimTime::ZERO);
        session.settle(Duration::ZERO);
        // A tick at or above the floor passes through unchanged.
        let tick = Duration::from_millis(3);
        assert_eq!(WallClock::new(tick).tick_interval(), tick);
    }

    #[test]
    fn monotonic_and_backoff_make_progress() {
        let before = monotonic_now();
        transient_backoff(0);
        let after = monotonic_now();
        assert!(after >= before);
    }
}
