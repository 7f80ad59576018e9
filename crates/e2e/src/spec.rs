//! The benchmark's declaration, `BENCHMARK.json` at the repository
//! root, embedded at build time: workload names, metric names, units,
//! directions and bounds live there and nowhere else.

use crate::json::{self, Value};

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

fn declared(list: &Value) -> Vec<Declared> {
    list.as_arr()
        .expect("metric lists are arrays")
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_owned(),
            higher_is_better: match m.get("better").and_then(Value::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                other => panic!("BENCHMARK.json: `better` must be higher or lower, got {other:?}"),
            },
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

/// Parses the embedded declaration. A malformed file is a build-time
/// mistake in this repository, so it panics; `spec_is_well_formed`
/// catches it under `cargo test`.
pub fn load() -> Spec {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let field = |key: &str| {
        doc.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    };
    Spec {
        run_seconds: field("run_seconds")
            .as_f64()
            .expect("run_seconds is a number"),
        workloads: field("workloads")
            .as_arr()
            .expect("workloads is an array")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect(),
        end_to_end: declared(field("end_to_end")),
        per_layer: declared(field("per_layer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn spec_is_well_formed_and_names_the_workloads_this_binary_runs() {
        let spec = load();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, ours);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }
}
