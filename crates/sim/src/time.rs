//! Simulated time and timer identities.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// The identity of a named timer owned by one actor.
///
/// Timers are the only way time wakes an actor: it schedules a timer at an
/// absolute [`SimTime`] deadline and is woken with
/// [`Actor::on_timer`](crate::Actor::on_timer) when the deadline is
/// reached. Each `(actor, TimerId)` pair names at most one pending
/// deadline — re-scheduling an armed timer moves it.
///
/// Within one tick, due timers fire in passes of `(process id, TimerId)`
/// order, so one armed for the current tick fires in the next pass,
/// whatever its id ([`TimerTable`](crate::TimerTable) holds the deadlines
/// and the rule; it wants small, dense ids).
///
/// # Example
///
/// ```
/// use diffuse_sim::TimerId;
///
/// const HEARTBEAT: TimerId = TimerId::new(0);
/// assert_eq!(HEARTBEAT.value(), 0);
/// assert_eq!(HEARTBEAT.to_string(), "timer#0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u32);

impl TimerId {
    /// Creates a timer id.
    pub const fn new(id: u32) -> Self {
        TimerId(id)
    }

    /// The raw id.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// A point in simulated time, measured in integer ticks.
///
/// The paper's evaluation proceeds in steps; one tick is one step. Using
/// integers (rather than floats) keeps event ordering exact and the
/// simulation bit-for-bit reproducible.
///
/// # Example
///
/// ```
/// use diffuse_sim::SimTime;
///
/// let t = SimTime::ZERO + 5;
/// assert_eq!(t.ticks(), 5);
/// assert_eq!(t - SimTime::new(2), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time at the given tick.
    pub const fn new(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// The tick count since the start of the simulation.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating time difference in ticks.
    pub const fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, ticks: u64) -> SimTime {
        SimTime(self.0 + ticks)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ticks: u64) {
        self.0 += ticks;
    }
}

impl Sub for SimTime {
    /// Difference in ticks.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(ticks: u64) -> Self {
        SimTime(ticks)
    }
}

impl From<SimTime> for u64 {
    fn from(t: SimTime) -> Self {
        t.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let mut t = SimTime::ZERO;
        t += 10;
        assert_eq!(t, SimTime::new(10));
        assert_eq!(t + 5, SimTime::new(15));
        assert_eq!(SimTime::new(15) - t, 5);
        assert_eq!(t.saturating_since(SimTime::new(20)), 0);
        assert_eq!(SimTime::new(20).saturating_since(t), 10);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(SimTime::new(7).to_string(), "t7");
        assert_eq!(u64::from(SimTime::new(7)), 7);
        assert_eq!(SimTime::from(3u64).ticks(), 3);
    }

    #[test]
    fn ordering_is_by_tick() {
        assert!(SimTime::new(1) < SimTime::new(2));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn timer_ids_order_by_value() {
        assert!(TimerId::new(0) < TimerId::new(1));
        assert_eq!(TimerId::new(7).value(), 7);
        assert_eq!(TimerId::new(7).to_string(), "timer#7");
    }
}
