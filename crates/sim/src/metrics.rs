//! Simulation metrics.

use std::collections::BTreeMap;

use diffuse_model::LinkId;

/// Counters collected by the simulation kernel.
///
/// The kernel counts every wire-level event; message *kinds* come from
/// [`SimMessage::kind`](crate::SimMessage::kind) so experiments can
/// separate data messages from acknowledgements and heartbeats, exactly as
/// the paper's figures do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    sent_total: u64,
    delivered_total: u64,
    lost_in_link: u64,
    dropped_receiver_down: u64,
    dropped_invalid: u64,
    suppressed_by_adversary: u64,
    sent_by_kind: BTreeMap<&'static str, u64>,
    delivered_by_kind: BTreeMap<&'static str, u64>,
    sent_per_link: BTreeMap<LinkId, u64>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records `n` sent copies of one kind over one link, in one pair of
    /// map updates.
    ///
    /// The recorders are public so alternate substrates (`diffuse-net`'s
    /// chaos layer, the faulty wire of every wall-clock node) can account
    /// their wire events in the same counters and be read side by side
    /// with a kernel run's. The tick engine counts sent copies by link
    /// position and by kind in tables of its own and hands the totals
    /// over when its metrics are read.
    pub fn record_sent_batch(&mut self, link: LinkId, kind: &'static str, n: u64) {
        self.record_sent_kind(kind, n);
        *self.sent_per_link.entry(link).or_insert(0) += n;
    }

    /// Records `n` sent copies of one kind and leaves their link out
    /// (the tick engine sets them once: [`Metrics::set_sent_per_link`]).
    fn record_sent_kind(&mut self, kind: &'static str, n: u64) {
        self.sent_total += n;
        *self.sent_by_kind.entry(kind).or_insert(0) += n;
    }

    /// Replaces the per-link sent counts. `counts` ascends by link, so
    /// the map is built in one bulk load; it must hold no zero.
    pub(crate) fn set_sent_per_link(&mut self, counts: impl Iterator<Item = (LinkId, u64)>) {
        self.sent_per_link = counts.collect();
    }

    /// Records one message delivered to a running receiver.
    pub fn record_delivered(&mut self, kind: &'static str) {
        self.record_delivered_batch(kind, 1);
    }

    /// Records `n` deliveries of one kind in one update — the
    /// cross-process aggregation path (the UDP cluster driver merges
    /// per-node transport counters reported over a control channel).
    pub fn record_delivered_batch(&mut self, kind: &'static str, n: u64) {
        self.delivered_total += n;
        *self.delivered_by_kind.entry(kind).or_insert(0) += n;
    }

    /// Records one message destroyed by link loss.
    pub fn record_lost(&mut self) {
        self.record_lost_batch(1);
    }

    /// Records `n` messages destroyed by link loss in one update (see
    /// [`Metrics::record_delivered_batch`]).
    pub fn record_lost_batch(&mut self, n: u64) {
        self.lost_in_link += n;
    }

    /// Records `n` messages addressed to a non-neighbor or unknown
    /// process.
    pub fn record_invalid_batch(&mut self, n: u64) {
        self.dropped_invalid += n;
    }

    /// Records one message that arrived while its receiver was crashed.
    pub fn record_dropped_receiver_down(&mut self) {
        self.dropped_receiver_down += 1;
    }

    /// Records one emission destroyed by the message adversary (counted
    /// as sent, never as lost-in-link — suppression is a separate fault
    /// family and stays zero in adversary-free runs).
    pub fn record_suppressed(&mut self) {
        self.suppressed_by_adversary += 1;
    }

    #[cfg(test)]
    pub(crate) fn record_invalid(&mut self) {
        self.record_invalid_batch(1);
    }

    #[cfg(test)]
    pub(crate) fn record_sent(&mut self, link: LinkId, kind: &'static str) {
        self.record_sent_batch(link, kind, 1);
    }

    /// Total messages handed to the network (before loss).
    pub fn sent_total(&self) -> u64 {
        self.sent_total
    }

    /// Total messages delivered to a running receiver.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Messages destroyed by link loss.
    pub fn lost_in_link(&self) -> u64 {
        self.lost_in_link
    }

    /// Messages that arrived while the receiver was crashed.
    pub fn dropped_receiver_down(&self) -> u64 {
        self.dropped_receiver_down
    }

    /// Messages sent to a non-neighbor or unknown process.
    pub fn dropped_invalid(&self) -> u64 {
        self.dropped_invalid
    }

    /// Emissions destroyed by the message adversary.
    pub fn suppressed_by_adversary(&self) -> u64 {
        self.suppressed_by_adversary
    }

    /// Messages sent of a given kind.
    pub fn sent_of_kind(&self, kind: &str) -> u64 {
        self.sent_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Messages delivered of a given kind.
    pub fn delivered_of_kind(&self, kind: &str) -> u64 {
        self.delivered_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Messages sent over a specific link (both directions).
    pub fn sent_over(&self, link: LinkId) -> u64 {
        self.sent_per_link.get(&link).copied().unwrap_or(0)
    }

    /// Iterates over `(link, sent)` pairs for links that carried traffic.
    pub fn per_link(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        self.sent_per_link.iter().map(|(l, c)| (*l, *c))
    }

    /// Average messages per link over `link_count` links — the y-axis of
    /// the paper's Figures 5 and 6.
    ///
    /// Uses the supplied topology-wide link count (not just links that saw
    /// traffic) so idle links count toward the average.
    pub fn messages_per_link(&self, link_count: usize) -> f64 {
        if link_count == 0 {
            return 0.0;
        }
        self.sent_total as f64 / link_count as f64
    }

    /// Average messages per link restricted to one message kind.
    pub fn messages_per_link_of_kind(&self, kind: &str, link_count: usize) -> f64 {
        if link_count == 0 {
            return 0.0;
        }
        self.sent_of_kind(kind) as f64 / link_count as f64
    }

    /// Resets every counter to zero (e.g. after a warm-up phase).
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// Used by drivers that account wire events in separate `Metrics`
    /// instances — one per shard of the sharded executor, one per node of
    /// the UDP cluster — and report a single aggregate. Merging in any
    /// order yields the same totals; merging shards in shard order keeps
    /// even the map iteration deterministic by construction (`BTreeMap`s
    /// sort their keys regardless).
    pub fn merge(&mut self, other: &Metrics) {
        self.sent_total += other.sent_total;
        self.delivered_total += other.delivered_total;
        self.lost_in_link += other.lost_in_link;
        self.dropped_receiver_down += other.dropped_receiver_down;
        self.dropped_invalid += other.dropped_invalid;
        self.suppressed_by_adversary += other.suppressed_by_adversary;
        for (&kind, &n) in &other.sent_by_kind {
            *self.sent_by_kind.entry(kind).or_insert(0) += n;
        }
        for (&kind, &n) in &other.delivered_by_kind {
            *self.delivered_by_kind.entry(kind).or_insert(0) += n;
        }
        for (&link, &n) in &other.sent_per_link {
            *self.sent_per_link.entry(link).or_insert(0) += n;
        }
    }
}

/// Sent and delivered copies per message kind, as the tick engine counts
/// them on every send and delivery: a lane sees a handful of kinds, so a
/// scan of a short table finds one sooner than a map lookup.
/// [`KindCounts::add_to`] hands the totals to a [`Metrics`].
#[derive(Debug, Clone, Default)]
pub(crate) struct KindCounts {
    /// `(kind, sent, delivered)`, in order of first appearance.
    rows: Vec<(&'static str, u64, u64)>,
}

impl KindCounts {
    /// Counts one sent copy (before loss) of `kind`.
    pub(crate) fn count_sent(&mut self, kind: &'static str) {
        self.row(kind).1 += 1;
    }

    /// Counts one copy of `kind` delivered to a running receiver.
    pub(crate) fn count_delivered(&mut self, kind: &'static str) {
        self.row(kind).2 += 1;
    }

    fn row(&mut self, kind: &'static str) -> &mut (&'static str, u64, u64) {
        let found = self.rows.iter().position(|row| row.0 == kind);
        let at = found.unwrap_or_else(|| {
            self.rows.push((kind, 0, 0));
            self.rows.len() - 1
        });
        &mut self.rows[at]
    }

    /// Adds the counts into `metrics`' totals and per-kind maps; a kind
    /// counted in one direction only gets no entry in the other's map.
    pub(crate) fn add_to(&self, metrics: &mut Metrics) {
        for &(kind, sent, delivered) in &self.rows {
            if sent > 0 {
                metrics.record_sent_kind(kind, sent);
            }
            if delivered > 0 {
                metrics.record_delivered_batch(kind, delivered);
            }
        }
    }

    /// Forgets every count.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffuse_model::ProcessId;

    fn link(a: u32, b: u32) -> LinkId {
        LinkId::new(ProcessId::new(a), ProcessId::new(b)).unwrap()
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.record_sent(link(0, 1), "data");
        m.record_sent(link(0, 1), "data");
        m.record_sent(link(1, 2), "ack");
        m.record_delivered("data");
        m.record_lost();
        m.record_dropped_receiver_down();
        m.record_invalid();

        assert_eq!(m.sent_total(), 3);
        assert_eq!(m.sent_of_kind("data"), 2);
        assert_eq!(m.sent_of_kind("ack"), 1);
        assert_eq!(m.sent_of_kind("heartbeat"), 0);
        assert_eq!(m.delivered_total(), 1);
        assert_eq!(m.delivered_of_kind("data"), 1);
        assert_eq!(m.lost_in_link(), 1);
        assert_eq!(m.dropped_receiver_down(), 1);
        assert_eq!(m.dropped_invalid(), 1);
        assert_eq!(m.sent_over(link(0, 1)), 2);
        assert_eq!(m.sent_over(link(5, 6)), 0);
        assert_eq!(m.per_link().count(), 2);
    }

    #[test]
    fn batch_recorders_match_repeated_singles() {
        let mut singles = Metrics::new();
        for _ in 0..7 {
            singles.record_delivered("data");
        }
        for _ in 0..4 {
            singles.record_lost();
        }
        let mut batched = Metrics::new();
        batched.record_delivered_batch("data", 7);
        batched.record_lost_batch(4);
        assert_eq!(singles, batched);
    }

    #[test]
    fn per_link_average_uses_total_link_count() {
        let mut m = Metrics::new();
        for _ in 0..10 {
            m.record_sent(link(0, 1), "heartbeat");
        }
        assert_eq!(m.messages_per_link(5), 2.0);
        assert_eq!(m.messages_per_link_of_kind("heartbeat", 5), 2.0);
        assert_eq!(m.messages_per_link_of_kind("data", 5), 0.0);
        assert_eq!(m.messages_per_link(0), 0.0);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = Metrics::new();
        a.record_sent(link(0, 1), "data");
        a.record_delivered("data");
        a.record_lost();
        let mut b = Metrics::new();
        b.record_sent(link(0, 1), "data");
        b.record_sent(link(1, 2), "ack");
        b.record_dropped_receiver_down();
        b.record_invalid();

        let mut merged = Metrics::new();
        merged.merge(&a);
        merged.merge(&b);

        let mut direct = Metrics::new();
        direct.record_sent(link(0, 1), "data");
        direct.record_delivered("data");
        direct.record_lost();
        direct.record_sent(link(0, 1), "data");
        direct.record_sent(link(1, 2), "ack");
        direct.record_dropped_receiver_down();
        direct.record_invalid();
        assert_eq!(merged, direct);

        // Merge order does not change the aggregate.
        let mut reversed = Metrics::new();
        reversed.merge(&b);
        reversed.merge(&a);
        assert_eq!(merged, reversed);
    }

    #[test]
    fn kind_counts_add_up_to_the_recorders() {
        let mut kinds = KindCounts::default();
        let mut direct = Metrics::new();
        for kind in ["data", "ack", "data", "heartbeat"] {
            kinds.count_sent(kind);
            direct.record_sent_kind(kind, 1);
        }
        kinds.count_delivered("ack");
        direct.record_delivered("ack");
        let mut folded = Metrics::new();
        kinds.add_to(&mut folded);
        // "data" and "heartbeat" were never delivered: no entry.
        assert_eq!(folded, direct);
        kinds.clear();
        let mut cleared = Metrics::new();
        kinds.add_to(&mut cleared);
        assert_eq!(cleared, Metrics::new());
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut m = Metrics::new();
        m.record_sent(link(0, 1), "data");
        m.reset();
        assert_eq!(m, Metrics::new());
    }
}
