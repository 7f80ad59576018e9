//! Runs the benchmark binary at `--scale smoke` and holds its output to
//! `BENCHMARK.json`: every declared metric printed once per workload
//! where it is defined, no undeclared name, names and units within the
//! allowed alphabet, output checks passing, and `compare` finding two
//! runs of one seed in exact agreement on the simulated statistics.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_diffuse-e2e");
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

fn benchmark() -> Value {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().as_str().unwrap().to_owned(),
                m.get("unit").map_or("", |u| u.as_str().unwrap()).to_owned(),
            )
        })
        .collect()
}

/// A scratch directory of this test's own under Cargo's per-test tmp.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn e2e(target_dir: &Path, args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .expect("the benchmark binary starts")
}

fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// What one `bench` invocation printed.
struct Printed {
    /// Metric names on the human-readable lines, in order.
    lines: Vec<String>,
    /// The last line: the contract object.
    contract: Value,
}

fn bench(target_dir: &Path, workload: &str, trace: &str) -> Printed {
    let out = e2e(
        target_dir,
        &[
            "bench",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--scale",
            "smoke",
        ],
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = stdout
        .lines()
        .filter(|l| l.starts_with("  ") && !l.contains("spans written"))
        .map(|l| l.split_whitespace().next().unwrap().to_owned())
        .collect();
    let contract = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    Printed { lines, contract }
}

fn check_contract(printed: &Printed, declared: &[(String, String)], workload: &str) {
    let object = printed.contract.as_obj().unwrap();
    let keys: Vec<&str> = object.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(object["correct"], Value::Bool(true), "{workload}");
    assert!(object["attempted"].as_f64().unwrap() >= 1.0, "{workload}");
    assert_eq!(object["failed"], Value::Num(0.0), "{workload}");
    let metrics = object["metrics"].as_obj().unwrap();
    let got: BTreeMap<&str, &str> = metrics
        .iter()
        .map(|(name, m)| (name.as_str(), m.get("unit").unwrap().as_str().unwrap()))
        .collect();
    let want: BTreeMap<&str, &str> = declared
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    assert_eq!(
        got, want,
        "{workload}: contract metrics are exactly the declared ones"
    );
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
    }
}

#[test]
fn benchmark_json_stays_within_the_contract() {
    let doc = benchmark();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for (name, unit) in names(doc.get(list).unwrap()) {
            assert!(is_name(&name), "{name:?} is not a valid name");
            assert!(seen.insert(name.clone()), "{name} is used twice");
            assert!(
                list == "workloads" || is_unit(&unit),
                "{name}: bad unit {unit:?}"
            );
        }
    }
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    assert!(end_to_end.iter().all(|m| {
        m.get("bound")
            .and_then(Value::as_f64)
            .is_some_and(|b| (0.0..=0.25).contains(&b))
    }));
    assert!((1..=128).contains(&doc.get("per_layer").unwrap().as_arr().unwrap().len()));
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn end_to_end_pass_prints_each_declared_metric_once_per_workload() {
    let doc = benchmark();
    let declared = names(doc.get("end_to_end").unwrap());
    let dir = scratch("end_to_end");
    for (workload, _) in names(doc.get("workloads").unwrap()) {
        let printed = bench(&dir, &workload, "0");
        // All six are defined on every workload, each printed once.
        let want: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(printed.lines, want, "{workload}");
        check_contract(&printed, &declared, &workload);
    }
}

#[test]
fn traced_pass_prints_declared_layer_metrics_and_writes_spans() {
    let doc = benchmark();
    let declared = names(doc.get("per_layer").unwrap());
    let declared_names: BTreeSet<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    let dir = scratch("traced");
    let mut defined_somewhere = BTreeSet::new();
    for (workload, _) in names(doc.get("workloads").unwrap()) {
        let printed = bench(&dir, &workload, "1");
        let mut once = BTreeSet::new();
        for name in &printed.lines {
            assert!(
                declared_names.contains(name.as_str()),
                "{workload}: {name} is undeclared"
            );
            assert!(
                once.insert(name.clone()),
                "{workload}: {name} printed twice"
            );
        }
        for always in [
            "trace.overhead_ratio",
            "trace.attributed_share",
            "proc.cpu_s",
        ] {
            assert!(once.contains(always), "{workload} lacks {always}");
        }
        defined_somewhere.extend(once);
        check_contract(&printed, &declared, &workload);

        // Boundary-span self times sum to the repetition within 2 %.
        let gap = printed
            .contract
            .get("metrics")
            .unwrap()
            .get("trace.self_time_gap")
            .unwrap();
        assert!(
            gap.get("value").unwrap().as_f64().unwrap() < 0.02,
            "{workload}"
        );
        let spans = dir.join("e2e").join(format!("trace-{workload}-seed1.json"));
        let spans =
            json::parse(&std::fs::read_to_string(&spans).expect("span file written")).unwrap();
        let span_names: BTreeSet<&str> = spans
            .get("spans")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        for expected in [
            "setup",
            "graph.generate",
            "model.configure",
            "core.knowledge",
            "scenario.build",
            "rep",
            "run",
        ] {
            assert!(
                span_names.contains(expected),
                "{workload}: no `{expected}` span"
            );
        }
    }
    let undefined: Vec<&&str> = declared_names
        .iter()
        .filter(|n| !defined_somewhere.contains(**n))
        .collect();
    assert!(
        undefined.is_empty(),
        "declared but defined on no workload: {undefined:?}"
    );
}

#[test]
fn two_runs_of_one_seed_agree_exactly_on_the_simulated_statistics() {
    let dir = scratch("compare");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for out in [&a, &b] {
        let run = e2e(
            &dir,
            &[
                "run",
                "--scale",
                "smoke",
                "--seconds",
                "0",
                "--out",
                out.to_str().unwrap(),
            ],
        );
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stdout)
        );
    }
    let compared = e2e(&dir, &["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let table = String::from_utf8(compared.stdout).unwrap();
    let exact_rows: Vec<&str> = table
        .lines()
        .filter(|l| {
            [
                "delivery_ratio",
                "data_msgs_per_broadcast",
                "cost_vs_optimal",
            ]
            .iter()
            .any(|m| l.contains(m))
        })
        .collect();
    assert_eq!(exact_rows.len(), 5 * 3, "{table}");
    assert!(exact_rows.iter().all(|l| l.ends_with("same")), "{table}");
    // Smoke-scale timings last milliseconds; they are judged, not asserted.
    assert!(
        table.lines().filter(|l| l.contains("wall_s")).count() == 5,
        "{table}"
    );
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    let dir = scratch("usage");
    for args in [
        &["bench", "--workload", "no_such_workload"][..],
        &["bench"][..],
        &["compare", "missing-a.json", "missing-b.json"][..],
        &[][..],
    ] {
        let out = e2e(&dir, args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
