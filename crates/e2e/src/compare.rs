//! `compare A.json B.json`: per workload × end-to-end metric, is B
//! better, the same, worse — or is the question unresolved because a
//! run's own quartile spread exceeds the bound? Bounds and directions
//! come from `BENCHMARK.json`.

use std::fmt;

use crate::json::Value;
use crate::spec::{Declared, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl fmt::Display for Judgement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Judgement::Better => "better",
            Judgement::Same => "same",
            Judgement::Worse => "worse",
            Judgement::Unresolved => "unresolved",
        })
    }
}

/// One side's reading of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// A simulated statistic that repeats exactly for a fixed seed.
    pub exact: bool,
}

impl Reading {
    fn from_json(v: &Value) -> Option<Reading> {
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        Some(Reading {
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
            exact: v.get("exact").and_then(Value::as_bool)?,
        })
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(metric: &Declared, a: f64, b: f64) -> f64 {
    let change = if a == 0.0 { b - a } else { (b - a) / a.abs() };
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

/// Judges `b` against `a`. `same_seed` makes exact statistics compare
/// exactly: with one seed they are deterministic, so any difference is
/// a behaviour change, however small.
pub fn judge(metric: &Declared, a: &Reading, b: &Reading, same_seed: bool) -> Judgement {
    let bound = metric.bound.unwrap_or(0.0);
    let worse_by = worsening(metric, a.value, b.value);
    if a.exact && b.exact && same_seed {
        return match worse_by {
            w if w > 0.0 => Judgement::Worse,
            w if w < 0.0 => Judgement::Better,
            _ => Judgement::Same,
        };
    }
    if a.spread().max(b.spread()) > bound {
        // Too noisy to call — unless every run of B beats every run of A.
        let (b_worst, a_best) = if metric.higher_is_better {
            (b.min, a.max)
        } else {
            (b.max, a.min)
        };
        return if worsening(metric, a_best, b_worst) < 0.0 {
            Judgement::Better
        } else {
            Judgement::Unresolved
        };
    }
    if worse_by > bound {
        Judgement::Worse
    } else if worse_by < -bound {
        Judgement::Better
    } else {
        Judgement::Same
    }
}

/// Prints the comparison table; returns how many rows read `worse`.
pub fn compare(spec: &Spec, a: &Value, b: &Value) -> Result<usize, String> {
    let seed = |doc: &Value| doc.get("seed").and_then(Value::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let workloads = |doc: &Value| {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or("result file has no `workloads` object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    println!(
        "{:<22} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut worse = 0;
    for name in &spec.workloads {
        let (Some(ra), Some(rb)) = (wa.get(name), wb.get(name)) else {
            continue;
        };
        for metric in &spec.end_to_end {
            let reading = |run: &Value| {
                run.get("metrics")
                    .and_then(|m| m.get(&metric.name))
                    .and_then(Reading::from_json)
            };
            let (Some(x), Some(y)) = (reading(ra), reading(rb)) else {
                continue;
            };
            let verdict = judge(metric, &x, &y, same_seed);
            worse += usize::from(verdict == Judgement::Worse);
            println!(
                "{:<22} {:<24} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {verdict}",
                name,
                metric.name,
                x.value,
                y.value,
                (y.value - x.value) / x.value * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "wall_s".to_owned(),
            unit: "s".to_owned(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn timing(value: f64, spread: f64) -> Reading {
        Reading {
            value,
            q1: value * (1.0 - spread / 2.0),
            q3: value * (1.0 + spread / 2.0),
            min: value * (1.0 - spread),
            max: value * (1.0 + spread),
            exact: false,
        }
    }

    #[test]
    fn timings_are_judged_against_the_bound() {
        let m = lower(0.10);
        let a = timing(1.0, 0.02);
        assert_eq!(judge(&m, &a, &timing(1.05, 0.02), true), Judgement::Same);
        assert_eq!(judge(&m, &a, &timing(1.15, 0.02), true), Judgement::Worse);
        assert_eq!(judge(&m, &a, &timing(0.85, 0.02), true), Judgement::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let m = lower(0.10);
        let a = timing(1.0, 0.02);
        assert_eq!(
            judge(&m, &a, &timing(1.05, 0.2), true),
            Judgement::Unresolved
        );
        assert_eq!(judge(&m, &a, &timing(0.5, 0.2), true), Judgement::Better);
    }

    #[test]
    fn exact_statistics_compare_exactly_on_one_seed_only() {
        let m = Declared {
            name: "data_msgs_per_broadcast".to_owned(),
            ..lower(0.05)
        };
        let exact = |value| Reading {
            exact: true,
            ..timing(value, 0.0)
        };
        assert_eq!(
            judge(&m, &exact(100.0), &exact(100.0), true),
            Judgement::Same
        );
        assert_eq!(
            judge(&m, &exact(100.0), &exact(100.5), true),
            Judgement::Worse
        );
        assert_eq!(
            judge(&m, &exact(100.0), &exact(99.5), true),
            Judgement::Better
        );
        // Across seeds the inputs differ, so the bound applies.
        assert_eq!(
            judge(&m, &exact(100.0), &exact(100.5), false),
            Judgement::Same
        );
        let higher = Declared {
            higher_is_better: true,
            ..m
        };
        assert_eq!(
            judge(&higher, &exact(1.0), &exact(0.999), true),
            Judgement::Worse
        );
    }
}
