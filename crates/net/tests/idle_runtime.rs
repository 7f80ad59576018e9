//! The idle-node CPU/wakeup assertion lives in its own integration-test
//! binary: `cargo test` runs test *binaries* sequentially, so nothing
//! else executes in this process while the measurement window is open —
//! which is what makes a process-wide `/proc/self/stat` CPU-time
//! assertion sound.

use std::time::Duration;

use diffuse_core::{NetworkKnowledge, OptimalBroadcast};
use diffuse_model::{Configuration, ProcessId, Topology};
use diffuse_net::{spawn_node, Fabric};

/// CPU time consumed by this process so far, from /proc (Linux CI).
#[cfg(target_os = "linux")]
fn process_cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Fields 14 and 15 (1-based) are utime and stime in clock ticks;
    // split after the parenthesized comm, which may contain spaces.
    let after_comm = stat.rsplit(')').next().unwrap();
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    let hz = 100u64; // USER_HZ on every supported target
    Duration::from_millis((utime + stime) * 1000 / hz)
}

/// An idle node (no traffic, no near-term timers) must sleep on its
/// deadline instead of busy-waking once per tick: over a third of a
/// second with 1 ms ticks, the legacy loop woke ~333 times; the
/// event-driven loop stays under the command-poll cadence, and the
/// whole process burns (almost) no CPU while it sleeps.
#[test]
#[allow(clippy::disallowed_methods)] // wall-time sleep is the scenario under test
fn idle_node_sleeps_instead_of_busy_waking() {
    let mut topology = Topology::new();
    topology
        .add_link(ProcessId::new(0), ProcessId::new(1))
        .unwrap();
    let knowledge = NetworkKnowledge::exact(topology.clone(), Configuration::new());
    let mut transports = Fabric::build(&topology);
    // OptimalBroadcast schedules no timers: the node is fully idle.
    let handle = spawn_node(
        OptimalBroadcast::new(ProcessId::new(0), knowledge, 0.99),
        transports.remove(&ProcessId::new(0)).unwrap(),
        Duration::from_millis(1),
    );

    #[cfg(target_os = "linux")]
    let cpu_before = process_cpu_time();
    // lint:allow(no-wall-clock): the idle-wakeup count being measured only accumulates over real time.
    std::thread::sleep(Duration::from_millis(350));
    let wakeups = handle.wakeups();
    // Command-poll cadence is 25 ms → ~14 expected; leave headroom
    // for scheduler jitter but stay far below the 350 per-tick polls
    // of the legacy loop.
    assert!(
        wakeups <= 60,
        "idle node woke {wakeups} times in 350 ms of 1 ms ticks"
    );
    #[cfg(target_os = "linux")]
    {
        let cpu_spent = process_cpu_time() - cpu_before;
        assert!(
            cpu_spent < Duration::from_millis(200),
            "idle node burned {cpu_spent:?} CPU over a 350 ms sleep"
        );
    }
    handle.shutdown();
}
