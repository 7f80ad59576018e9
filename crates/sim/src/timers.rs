//! Timer deadlines and the one rule for firing them.

use crate::{SimTime, TimerId};

/// A buffered timer operation: `(timer, Some(at))` arms (or moves) the
/// timer to the absolute deadline `at`; `(timer, None)` cancels it.
pub type TimerOp = (TimerId, Option<SimTime>);

/// No clock reaches it, so arming a timer for it is cancelling it.
const UNARMED: SimTime = SimTime::new(u64::MAX);

/// Pending deadlines, at most one per `(slot, TimerId)`, and the only
/// rule for firing them ([`TimerTable::fire_due`]). The engine's
/// [`Lane`](crate::Lane) holds one with a slot per process, in id order;
/// `diffuse-core`'s `SelfTimed` holds a one-slot table.
#[derive(Debug, Clone, Default)]
pub struct TimerTable {
    slots: usize,
    /// Timer `t` of slot `s` at `t * slots + s`: `slots` entries per id
    /// up to the largest armed so far, so ids should be small and dense.
    deadlines: Vec<SimTime>,
}

impl TimerTable {
    /// An empty table over `slots` slots.
    pub fn new(slots: usize) -> Self {
        let deadlines = Vec::new();
        TimerTable { slots, deadlines }
    }

    /// Applies `ops` to `slot`'s timers, in order.
    pub fn apply(&mut self, slot: usize, ops: impl IntoIterator<Item = TimerOp>) {
        debug_assert!(slot < self.slots, "slot {slot} of {}", self.slots);
        for (timer, at) in ops {
            let entry = timer.value() as usize * self.slots + slot;
            if entry >= self.deadlines.len() && at.is_some() {
                self.deadlines.resize(entry - slot + self.slots, UNARMED);
            }
            if let Some(deadline) = self.deadlines.get_mut(entry) {
                *deadline = at.unwrap_or(UNARMED);
            }
        }
    }

    /// The earliest pending deadline, overdue ones of down slots included.
    pub fn earliest(&self) -> Option<SimTime> {
        let earliest = self.deadlines.iter().min().copied();
        earliest.filter(|&at| at != UNARMED)
    }

    /// Fires the due timers (deadline at or before `now`) of the slots
    /// `is_up` admits, in passes: collect the due `(slot, timer)` pairs in
    /// ascending order, fire each one still due, repeat until a pass finds
    /// nothing. A timer a handler arms for `now` fires in the next pass,
    /// whatever its id. `fire(table, slot, timer)` runs the handler and
    /// applies its timer operations to `table`; a timer that re-arms
    /// itself for `now` never lets the call return.
    pub fn fire_due(
        &mut self,
        now: SimTime,
        is_up: impl Fn(usize) -> bool,
        mut fire: impl FnMut(&mut Self, usize, TimerId),
    ) {
        let slots = self.slots;
        loop {
            let entries = self.deadlines.iter().enumerate();
            let mut pass: Vec<(usize, TimerId)> = entries
                .filter(|&(entry, &at)| at <= now && is_up(entry % slots))
                .map(|(entry, _)| (entry % slots, TimerId::new((entry / slots) as u32)))
                .collect();
            if pass.is_empty() {
                return;
            }
            pass.sort_unstable();
            for (slot, timer) in pass {
                let entry = timer.value() as usize * slots + slot;
                if self.deadlines[entry] <= now {
                    self.deadlines[entry] = UNARMED;
                    fire(self, slot, timer);
                }
            }
        }
    }
}

#[cfg(test)]
/// The lane's timer table before [`TimerTable`]: a map of deadlines
/// plus a deadline-ordered mirror, and the due-timer loop that walked
/// them — the oracle the table is tested against.
mod spec {
    use std::collections::{BTreeMap, BTreeSet};

    use super::TimerOp;
    use crate::{SimTime, TimerId};

    #[derive(Debug, Default)]
    pub(super) struct SpecTable {
        timers: BTreeMap<(usize, TimerId), SimTime>,
        timer_queue: BTreeSet<(SimTime, usize, TimerId)>,
    }

    impl SpecTable {
        pub(super) fn apply(&mut self, slot: usize, ops: impl IntoIterator<Item = TimerOp>) {
            for (timer, op) in ops {
                let key = (slot, timer);
                if let Some(old) = self.timers.remove(&key) {
                    self.timer_queue.remove(&(old, slot, timer));
                }
                if let Some(at) = op {
                    self.timers.insert(key, at);
                    self.timer_queue.insert((at, slot, timer));
                }
            }
        }

        pub(super) fn earliest(&self) -> Option<SimTime> {
            self.timer_queue.first().map(|&(at, _, _)| at)
        }

        pub(super) fn fire_due(
            &mut self,
            now: SimTime,
            is_up: impl Fn(usize) -> bool,
            mut fire: impl FnMut(&mut Self, usize, TimerId),
        ) {
            loop {
                let mut due: Vec<(usize, TimerId)> = Vec::new();
                for &(at, slot, timer) in self.timer_queue.iter() {
                    if at > now {
                        break;
                    }
                    if is_up(slot) {
                        due.push((slot, timer));
                    }
                }
                if due.is_empty() {
                    return;
                }
                due.sort_unstable();
                for (slot, timer) in due {
                    let Some(&at) = self.timers.get(&(slot, timer)) else {
                        continue;
                    };
                    if at > now {
                        continue;
                    }
                    self.timers.remove(&(slot, timer));
                    self.timer_queue.remove(&(at, slot, timer));
                    fire(self, slot, timer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::spec::SpecTable;
    use super::*;

    fn t(id: u32) -> TimerId {
        TimerId::new(id)
    }

    fn at(ticks: u64) -> Option<SimTime> {
        Some(SimTime::new(ticks))
    }

    /// Fires everything due at `now`, every slot up, answering each
    /// firing of `timer` with `replies(slot, timer)`; returns the log.
    fn fire_all(
        table: &mut TimerTable,
        now: u64,
        mut replies: impl FnMut(usize, TimerId) -> Vec<TimerOp>,
    ) -> Vec<(usize, u32)> {
        let mut log = Vec::new();
        table.fire_due(
            SimTime::new(now),
            |_| true,
            |table, slot, timer| {
                log.push((slot, timer.value()));
                table.apply(slot, replies(slot, timer));
            },
        );
        log
    }

    #[test]
    fn a_timer_armed_for_now_fires_in_the_next_pass() {
        let mut table = TimerTable::new(2);
        table.apply(
            0,
            [(t(3), at(5)), (t(1), at(5)), (t(4), at(5)), (t(2), at(9))],
        );
        table.apply(1, [(t(0), at(5))]);
        assert_eq!(table.earliest(), at(5));
        assert!(fire_all(&mut table, 4, |_, _| vec![]).is_empty());
        // Slot 0's timer#1 arms timer#0 for now and cancels timer#4:
        // timer#0 waits for the next pass, timer#4 never fires.
        let log = fire_all(&mut table, 5, |slot, timer| match (slot, timer.value()) {
            (0, 1) => vec![(t(0), at(5)), (t(4), None)],
            _ => vec![],
        });
        assert_eq!(log, [(0, 1), (0, 3), (1, 0), (0, 0)]);
        assert_eq!(table.earliest(), at(9));
        // An overdue timer fires at the time of the call.
        assert_eq!(fire_all(&mut table, 12, |_, _| vec![]), [(0, 2)]);
        assert_eq!(table.earliest(), None);
    }

    #[test]
    fn down_slots_keep_their_overdue_timers_and_count_for_the_earliest() {
        let mut table = TimerTable::new(3);
        table.apply(0, [(t(0), at(2))]);
        table.apply(2, [(t(1), at(4))]);
        let mut fired = Vec::new();
        table.fire_due(
            SimTime::new(6),
            |slot| slot != 0,
            |_, slot, timer| {
                fired.push((slot, timer));
            },
        );
        assert_eq!(fired, [(2, t(1))]);
        assert_eq!(table.earliest(), at(2));
        assert_eq!(fire_all(&mut table, 7, |_, _| vec![]), [(0, 0)]);
    }

    #[test]
    fn growing_to_a_new_id_keeps_every_deadline() {
        let mut table = TimerTable::new(3);
        table.apply(0, [(t(0), at(8))]);
        table.apply(2, [(t(1), at(7))]);
        table.apply(1, [(t(4), at(9))]);
        assert_eq!(table.deadlines.len(), 15);
        assert_eq!(table.earliest(), at(7));
        assert_eq!(
            fire_all(&mut table, 9, |_, _| vec![]),
            [(0, 0), (1, 4), (2, 1)]
        );
    }

    /// `(slot, timer, offset)`: `Some(offset)` arms at `now + offset`,
    /// saturating at zero, so it may already be due; `None` cancels.
    type Op<Slot> = (Slot, TimerId, Option<i64>);

    /// Per tick, what each table fired and its earliest deadline after.
    type Trace = Vec<(Vec<(usize, TimerId)>, Option<SimTime>)>;

    /// What a run of the property draws: for each tick, who is up and
    /// the ops made outside any timer handler (recoveries, deliveries);
    /// for each firing, in firing order, the handler's reply, whose ops
    /// name a slot or, with `None`, the firing one.
    struct Script {
        slots: usize,
        ticks: Vec<(Vec<bool>, Vec<Op<usize>>)>,
        replies: Vec<Vec<Op<Option<usize>>>>,
    }

    impl Script {
        fn draw(seed: u64) -> Script {
            let mut rng = StdRng::seed_from_u64(seed);
            let slots = rng.gen_range(1..=6usize);
            let timer = |rng: &mut StdRng| t(rng.gen_range(0..5));
            // `true` with probability `n / 10`.
            let tenths = |rng: &mut StdRng, n: u32| rng.gen_range(0..10u32) < n;
            let offset = |rng: &mut StdRng| tenths(rng, 8).then(|| rng.gen_range(-2..=6i64));
            let ticks = (0..rng.gen_range(1..=20))
                .map(|_| {
                    let up = (0..slots).map(|_| tenths(&mut rng, 8)).collect();
                    let ops = (0..rng.gen_range(0..=6))
                        .map(|_| (rng.gen_range(0..slots), timer(&mut rng), offset(&mut rng)))
                        .collect();
                    (up, ops)
                })
                .collect();
            let replies = (0..rng.gen_range(0..=60))
                .map(|_| {
                    (0..rng.gen_range(0..=3))
                        .map(|_| {
                            let slot = tenths(&mut rng, 3).then(|| rng.gen_range(0..slots));
                            (slot, timer(&mut rng), offset(&mut rng))
                        })
                        .collect()
                })
                .collect();
            Script {
                slots,
                ticks,
                replies,
            }
        }
    }

    /// The operations both tables offer, so one driver runs either.
    trait Table: Sized {
        fn apply_op(&mut self, slot: usize, now: u64, timer: TimerId, offset: Option<i64>);
        fn next(&self) -> Option<SimTime>;
        fn fire(&mut self, now: SimTime, up: &[bool], fire: impl FnMut(&mut Self, usize, TimerId));
    }

    fn resolve(now: u64, timer: TimerId, offset: Option<i64>) -> [TimerOp; 1] {
        [(
            timer,
            offset.map(|o| SimTime::new(now.saturating_add_signed(o))),
        )]
    }

    impl Table for TimerTable {
        fn apply_op(&mut self, slot: usize, now: u64, timer: TimerId, offset: Option<i64>) {
            self.apply(slot, resolve(now, timer, offset));
        }
        fn next(&self) -> Option<SimTime> {
            self.earliest()
        }
        fn fire(&mut self, now: SimTime, up: &[bool], fire: impl FnMut(&mut Self, usize, TimerId)) {
            self.fire_due(now, |slot| up[slot], fire);
        }
    }

    impl Table for SpecTable {
        fn apply_op(&mut self, slot: usize, now: u64, timer: TimerId, offset: Option<i64>) {
            self.apply(slot, resolve(now, timer, offset));
        }
        fn next(&self) -> Option<SimTime> {
            self.earliest()
        }
        fn fire(&mut self, now: SimTime, up: &[bool], fire: impl FnMut(&mut Self, usize, TimerId)) {
            self.fire_due(now, |slot| up[slot], fire);
        }
    }

    /// Runs `script` on `table`. Replies run out, so chains of timers
    /// armed for `now` end.
    fn run<T: Table>(mut table: T, script: &Script) -> Trace {
        let mut replies = script.replies.iter();
        let mut trace = Vec::new();
        for (now, (up, ops)) in script.ticks.iter().enumerate() {
            let now = now as u64;
            for &(slot, timer, offset) in ops {
                table.apply_op(slot, now, timer, offset);
            }
            let mut fired = Vec::new();
            table.fire(SimTime::new(now), up, |table, slot, timer| {
                fired.push((slot, timer));
                let reply = replies.next().map_or(&[][..], Vec::as_slice);
                for &(target, timer, offset) in reply {
                    table.apply_op(target.unwrap_or(slot), now, timer, offset);
                }
            });
            trace.push((fired, table.next()));
        }
        trace
    }

    fn table_fires_like_the_spec(seed: u64) {
        let script = Script::draw(seed);
        let table = run(TimerTable::new(script.slots), &script);
        assert_eq!(table, run(SpecTable::default(), &script), "seed {seed}");
    }

    proptest! {
        #[test]
        fn prop_timer_table_fires_like_the_spec(seed in any::<u64>()) {
            table_fires_like_the_spec(seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "large case count; CI runs it in release via --include-ignored"]
        fn prop_timer_table_fires_like_the_spec_at_scale(seed in any::<u64>()) {
            table_fires_like_the_spec(seed);
        }
    }
}
