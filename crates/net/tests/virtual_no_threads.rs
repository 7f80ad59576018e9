//! `Clock::Virtual` spawns nothing: a virtual-time fabric runs every
//! node's turns on the thread that drives it. The assertion reads the
//! process-wide thread count, so it lives alone in its own
//! integration-test binary — `cargo test` runs test *binaries*
//! sequentially, and a second test here would start and stop a harness
//! thread inside the measurement window.

use diffuse_core::{AdaptiveBroadcast, AdaptiveParams};
use diffuse_graph::generators;
use diffuse_model::{Configuration, ProcessId};
use diffuse_net::{spawn_node_with_clock, Clock, Fabric};
use diffuse_sim::SimOptions;

/// Threads of this process, from /proc (Linux CI).
#[cfg(target_os = "linux")]
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

/// Building the fabric, spawning eight nodes and running them through
/// their heartbeats leaves the thread count where it was: a reintroduced
/// node thread (parked or not) fails here, whatever it does for speed.
#[test]
fn virtual_clock_spawns_no_threads() {
    #[cfg(target_os = "linux")]
    let threads_before = process_threads();

    let topology = generators::ring(8).unwrap();
    let (transports, net) = Fabric::build_virtual(
        &topology,
        Configuration::new(),
        SimOptions::default().with_seed(7),
    );
    let all: Vec<ProcessId> = topology.processes().collect();
    let handles: Vec<_> = transports
        .into_iter()
        .map(|(id, transport)| {
            let protocol = AdaptiveBroadcast::new(
                id,
                all.clone(),
                topology.neighbors(id).collect(),
                AdaptiveParams::default(),
            );
            spawn_node_with_clock(protocol, transport, Clock::Virtual(net.clock(id)))
        })
        .collect();
    net.run_ticks(50);

    assert!(
        handles.iter().all(|handle| handle.wakeups() > 1),
        "every node ran turns beyond its start"
    );
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_threads(),
        threads_before,
        "Clock::Virtual must not spawn threads"
    );
}
