//! Integration tests for the deployment substrate: codec interop with
//! live protocol messages, and full broadcasts across real threads
//! (in-memory fabric) and real sockets (UDP loopback).

use std::collections::BTreeMap;
use std::time::Duration;

use diffuse::core::{
    Actions, AdaptiveBroadcast, AdaptiveParams, Message, NetworkKnowledge, OptimalBroadcast,
    Payload, Protocol,
};
use diffuse::graph::generators;
use diffuse::model::{Configuration, LinkId, Probability, ProcessId, Topology};
use diffuse::net::{codec, spawn_node, ChaosTransport, Fabric, UdpTransport};
use diffuse::sim::SimTime;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn live_protocol_messages_round_trip_the_codec() {
    // Capture real messages from real protocol instances (not synthetic
    // fixtures) and check codec round trips.
    let topology = generators::ring(5).unwrap();
    let config =
        Configuration::uniform(&topology, Probability::ZERO, Probability::new(0.1).unwrap());
    let knowledge = NetworkKnowledge::exact(topology.clone(), config);
    let mut node = OptimalBroadcast::new(p(0), knowledge, 0.999);
    let mut actions = Actions::new();
    node.broadcast(SimTime::ZERO, Payload::from("codec me"), &mut actions)
        .unwrap();

    let mut adaptive = diffuse::core::SelfTimed::new(AdaptiveBroadcast::new(
        p(0),
        topology.processes().collect(),
        topology.neighbors(p(0)).collect(),
        AdaptiveParams::default().with_intervals(16),
    ));
    adaptive.fire_due(SimTime::new(1), &mut actions);

    let sends = actions.take_sends();
    assert!(sends.iter().any(|(_, m)| matches!(m, Message::Data(_))));
    assert!(sends
        .iter()
        .any(|(_, m)| matches!(m, Message::Heartbeat(_))));
    for (_, message) in sends {
        let frame = codec::encode_message(&message);
        let back = codec::decode_message(&frame).expect("round trip");
        assert_eq!(back, message);
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // real-thread test sleeps on wall time
fn adaptive_protocol_learns_over_fabric_threads() {
    // Three adaptive nodes on real threads over the in-memory fabric:
    // after a while, the edge node has learned the remote link.
    let mut topology = Topology::new();
    topology.add_link(p(0), p(1)).unwrap();
    topology.add_link(p(1), p(2)).unwrap();
    let all: Vec<ProcessId> = topology.processes().collect();

    let mut transports = Fabric::build(&topology);
    let mut handles = Vec::new();
    let mut probes = Vec::new();
    for &id in &all {
        let transport = transports.remove(&id).unwrap();
        let protocol = AdaptiveBroadcast::new(
            id,
            all.clone(),
            topology.neighbors(id).collect(),
            AdaptiveParams::default().with_intervals(20),
        );
        if id == p(0) {
            // Probe through the delivery channel by broadcasting later.
            probes.push(id);
        }
        handles.push(spawn_node(protocol, transport, Duration::from_millis(2)));
    }

    // Give the heartbeats time to spread topology + estimates, then ask
    // the edge node to broadcast; success implies complete knowledge.
    // lint:allow(no-wall-clock): real-thread fabric test; gossip spreads over wall time here.
    std::thread::sleep(Duration::from_millis(600));
    handles[0]
        .broadcast(Payload::from("learned over threads"))
        .unwrap();

    for handle in &handles {
        let got = handle
            .next_delivery(Duration::from_secs(10))
            .unwrap()
            .expect("every node should deliver");
        assert_eq!(got.1.as_bytes(), b"learned over threads");
    }
    for handle in handles {
        handle.shutdown();
    }
}

#[test]
fn optimal_broadcast_over_udp_loopback_cluster() {
    // Square topology over four UDP sockets.
    let ids: Vec<ProcessId> = (0..4).map(p).collect();
    let mut topology = Topology::new();
    topology.add_link(ids[0], ids[1]).unwrap();
    topology.add_link(ids[1], ids[2]).unwrap();
    topology.add_link(ids[2], ids[3]).unwrap();
    topology.add_link(ids[3], ids[0]).unwrap();
    let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());

    let any: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
    let mut bound = BTreeMap::new();
    let mut addresses = BTreeMap::new();
    for &id in &ids {
        let t = UdpTransport::bind(id, any, BTreeMap::new()).unwrap();
        addresses.insert(id, t.local_addr().unwrap());
        bound.insert(id, t);
    }
    let mut handles = BTreeMap::new();
    for &id in &ids {
        let mut transport = bound.remove(&id).unwrap();
        for n in topology.neighbors(id) {
            transport.register_peer(n, addresses[&n]);
        }
        handles.insert(
            id,
            spawn_node(
                OptimalBroadcast::new(id, knowledge.clone(), 0.9999),
                transport,
                Duration::from_millis(5),
            ),
        );
    }

    handles[&ids[2]].broadcast(Payload::from("udp!")).unwrap();
    for &id in &ids {
        let got = handles[&id]
            .next_delivery(Duration::from_secs(10))
            .unwrap()
            .expect("loopback UDP should deliver");
        assert_eq!(got.0.origin, ids[2]);
    }
    for (_, handle) in handles {
        handle.shutdown();
    }
}

#[test]
fn fabric_loss_injection_affects_live_protocols() {
    // Full loss on the only link: the broadcast cannot cross; heal it and
    // a new broadcast succeeds.
    let mut topology = Topology::new();
    topology.add_link(p(0), p(1)).unwrap();
    let link = LinkId::new(p(0), p(1)).unwrap();
    let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());

    let mut loss = Configuration::new();
    loss.set_loss(link, Probability::ONE);
    let mut transports = Fabric::build(&topology);
    let mut lossy =
        |id| ChaosTransport::for_node(transports.remove(&id).unwrap(), 3, &topology, &loss);
    let (t1, _) = lossy(p(1));
    // Keep node 0's control for healing the link later.
    let (t0, control) = lossy(p(0));

    let h1 = spawn_node(
        OptimalBroadcast::new(p(1), knowledge.clone(), 0.99),
        t1,
        Duration::from_millis(2),
    );

    // Heal before node 0 spawns; its first broadcast crosses.
    control.set_link_loss(link, Probability::ZERO);
    let h0 = spawn_node(
        OptimalBroadcast::new(p(0), knowledge, 0.99),
        t0,
        Duration::from_millis(2),
    );
    h0.broadcast(Payload::from("after heal")).unwrap();
    let got = h1.next_delivery(Duration::from_secs(5)).unwrap();
    assert!(got.is_some(), "healed link should deliver");
    h0.shutdown();
    h1.shutdown();
}
