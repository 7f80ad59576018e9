//! Forged-ack recovery, proven against an untampered twin.
//!
//! A lying neighbor can poison the *sender side* of delta emission: the
//! piggybacked heartbeat `ack` is what anchors the base of the deltas we
//! send back, so a forged ack naming a generation the liar never merged
//! would make every subsequent delta unusable to it. Two hardenings
//! bound the damage, and this suite pins both with a **twin run** — the
//! identical event script with the single forged frame replaced by its
//! honest counterpart — and asserts the poisoned receiver ends
//! *bit-identical* (full `Debug` state) to the twin:
//!
//! * **Verbatim ack repair**: the freshest heartbeat's ack is taken
//!   verbatim, never max-merged, so the liar's next honest heartbeat
//!   (acking its true merged generation) snaps the base back and one
//!   cumulative delta re-covers everything the liar missed.
//! * **Future-ack rejection + first-contact fallback**: acks naming
//!   generations we never emitted are rejected and counted, leaving the
//!   recorded ack at 0 — which is exactly the first-contact state, so
//!   the receiver keeps emitting *full views* and a liar that turns
//!   honest can always resynchronize.
//!
//! The receiver is driven directly through [`SelfTimed`] with the
//! test playing the lying neighbor, because the poisoning must land
//! *within range* (`ack <= generation`) to be recorded at all — a timing
//! window the symmetric simulator almost never produces on its own.

use std::sync::Arc;

use diffuse::bayes::{Distortion, Offer};
use diffuse::core::{
    Actions, AdaptiveBroadcast, AdaptiveParams, HeartbeatMessage, Message, Protocol, SelfTimed,
    View,
};
use diffuse::model::ProcessId;
use diffuse::sim::SimTime;

const RECEIVER: ProcessId = ProcessId::new(0);
const LIAR: ProcessId = ProcessId::new(1);

/// A conformant heartbeat from the liar — full view, first-hand
/// self-estimate, generation tied to `seq` — with the ack field under
/// the test's control.
fn liar_heartbeat(seq: u64, ack: u64) -> Message {
    Message::Heartbeat(HeartbeatMessage {
        seq,
        ack,
        view: Arc::new(View {
            generation: seq,
            base: 0,
            processes: vec![(LIAR, Offer::new(0, 0, Distortion::ZERO))],
            links: vec![],
        }),
    })
}

/// One scripted step: a receiver tick (which emits a heartbeat in
/// delta mode, period 1) optionally followed by a heartbeat from the
/// liar carrying the given `(seq, ack)`.
struct Step {
    liar_ack: Option<(u64, u64)>,
}

/// Runs the receiver through the script and returns, per step, a
/// human-readable summary of the view it emitted to the liar.
fn run_script(script: &[Step]) -> (SelfTimed<AdaptiveBroadcast>, Vec<String>) {
    let mut node = SelfTimed::new(AdaptiveBroadcast::new(
        RECEIVER,
        vec![RECEIVER, LIAR],
        vec![LIAR],
        AdaptiveParams::default(), // delta views, heartbeat period 1
    ));
    let mut actions = Actions::new();
    let mut emitted = Vec::new();
    for (i, step) in script.iter().enumerate() {
        let now = SimTime::new(i as u64 + 1);
        node.fire_due(now, &mut actions);
        let sends = actions.take_sends();
        let views: Vec<String> = sends
            .iter()
            .filter_map(|(to, m)| match m {
                Message::Heartbeat(h) if *to == LIAR => Some(match &h.view {
                    v if v.base == 0 => format!("full@{}", v.generation),
                    d => format!("delta {}..{}", d.base, d.generation),
                }),
                _ => None,
            })
            .collect();
        assert_eq!(views.len(), 1, "one heartbeat to the liar per tick");
        emitted.push(views.into_iter().next().unwrap());
        if let Some((seq, ack)) = step.liar_ack {
            node.handle_message(now, LIAR, liar_heartbeat(seq, ack), &mut actions);
            actions.clear();
        }
    }
    (node, emitted)
}

fn step(liar_ack: Option<(u64, u64)>) -> Step {
    Step { liar_ack }
}

/// A within-range forged ack is recorded (the poison is real: the next
/// delta's base jumps past everything the liar actually merged), the
/// liar's next honest heartbeat repairs it verbatim, and after the
/// window the poisoned receiver is bit-identical to the untampered
/// twin — the whole protocol `Debug` state, not a summary.
#[test]
fn poisoned_receiver_recovers_bit_identical_to_untampered_twin() {
    // The liar honestly acks generation 1, then lags while the receiver
    // emits generations 2..=4. At seq 3 the poisoned run forges ack 4
    // (within range — generation is 4 — but the liar only ever merged
    // 1); the twin acks 1 honestly. Seq 4 is the liar's next honest
    // heartbeat in both runs: ack 1, its true merged generation. Seq 5
    // acks the catch-up delta.
    let poisoned_script = [
        step(Some((1, 1))),
        step(Some((2, 1))),
        step(None),
        step(Some((3, 4))), // forged: within range, never merged
        step(Some((4, 1))), // honest again: verbatim repair
        step(Some((5, 6))),
        step(None),
    ];
    let twin_script = [
        step(Some((1, 1))),
        step(Some((2, 1))),
        step(None),
        step(Some((3, 1))), // the same frame, ack untampered
        step(Some((4, 1))),
        step(Some((5, 6))),
        step(None),
    ];

    let (poisoned, poisoned_emissions) = run_script(&poisoned_script);
    let (twin, twin_emissions) = run_script(&twin_script);

    // Shared prefix: first contact gets a full view, the honest ack of
    // generation 1 switches emission to deltas based there.
    assert_eq!(poisoned_emissions[0], "full@1");
    assert_eq!(poisoned_emissions[1], "delta 1..2");
    assert_eq!(&poisoned_emissions[..4], &twin_emissions[..4]);

    // Anti-vacuity: the forged ack really was recorded — the next delta
    // excludes every generation the liar never merged, while the twin
    // keeps the honest base.
    assert_eq!(poisoned_emissions[4], "delta 4..5");
    assert_eq!(twin_emissions[4], "delta 1..5");

    // The honest heartbeat repaired the base verbatim (a max-merge
    // would have kept the forged 4 and wedged the liar forever): from
    // here every emission matches the twin again.
    assert_eq!(poisoned_emissions[5], "delta 1..6");
    assert_eq!(&poisoned_emissions[5..], &twin_emissions[5..]);

    // And the receiver's entire state converged back: estimates,
    // mirrors, emission bookkeeping, audit counters — bitwise.
    assert_eq!(
        format!("{:?}", poisoned.protocol()),
        format!("{:?}", twin.protocol()),
        "poisoned receiver must end bit-identical to the untampered twin"
    );
    assert_eq!(poisoned.protocol().error_count(), 0);
    assert_eq!(poisoned.protocol().audit().future_acks_rejected, 0);
}

/// Out-of-range forged acks never poison anything: each is rejected and
/// counted, the recorded ack stays at the first-contact value, and the
/// receiver keeps emitting *full views* — so the moment the liar turns
/// honest, one ack restores the delta flow with nothing lost.
#[test]
fn future_forged_acks_fall_back_to_full_views_until_honesty_returns() {
    let script = [
        step(Some((1, 1_000))),   // future ack from first contact
        step(Some((2, 1 << 40))), // and again, absurdly far
        step(Some((3, 3))),       // honesty returns: generation 3 exists
        step(None),
    ];
    let (node, emissions) = run_script(&script);

    // Every heartbeat up to the honest ack is a full view: the rejected
    // acks left the recorded ack at 0, the first-contact state.
    assert_eq!(emissions[0], "full@1");
    assert_eq!(emissions[1], "full@2");
    assert_eq!(emissions[2], "full@3");
    assert_eq!(
        node.protocol().audit().future_acks_rejected,
        2,
        "both future acks counted"
    );

    // The honest ack of generation 3 re-enables deltas immediately.
    assert_eq!(emissions[3], "delta 3..4");
    assert_eq!(node.protocol().error_count(), 0);
}
