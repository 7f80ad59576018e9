//! Output checks. They are part of every run: a repetition whose report
//! differs from the first, a report that differs from its reference
//! executor's, a skipped fault or a failed broadcast all make the run
//! incorrect, and an incorrect run exits non-zero.

use diffuse_core::scenario::ScenarioReport;

const KINDS: [&str; 3] = ["data", "ack", "heartbeat"];

/// Names the first field on which two reports differ, or `None` when
/// they are equal.
pub fn first_difference(a: &ScenarioReport, b: &ScenarioReport) -> Option<String> {
    if a == b {
        return None;
    }
    if a.delivered.len() != b.delivered.len() {
        return Some(format!(
            "delivered: {} processes vs {}",
            a.delivered.len(),
            b.delivered.len()
        ));
    }
    for ((pa, da), (pb, db)) in a.delivered.iter().zip(&b.delivered) {
        if (pa, da) != (pb, db) {
            return Some(format!("delivered[{pa}]: {da} vs delivered[{pb}]: {db}"));
        }
    }
    if a.failed_broadcasts != b.failed_broadcasts {
        return Some(format!(
            "failed_broadcasts: {} vs {}",
            a.failed_broadcasts, b.failed_broadcasts
        ));
    }
    if a.skipped_faults != b.skipped_faults {
        return Some(format!(
            "skipped_faults: {} vs {}",
            a.skipped_faults, b.skipped_faults
        ));
    }
    if a.containment != b.containment {
        return Some(format!(
            "containment: {:?} vs {:?}",
            a.containment, b.containment
        ));
    }
    let (ma, mb) = match (&a.metrics, &b.metrics) {
        (Some(ma), Some(mb)) => (ma, mb),
        (ma, mb) => {
            return Some(format!(
                "metrics: present {} vs {}",
                ma.is_some(),
                mb.is_some()
            ))
        }
    };
    let totals = [
        ("sent_total", ma.sent_total(), mb.sent_total()),
        (
            "delivered_total",
            ma.delivered_total(),
            mb.delivered_total(),
        ),
        ("lost_in_link", ma.lost_in_link(), mb.lost_in_link()),
        (
            "dropped_receiver_down",
            ma.dropped_receiver_down(),
            mb.dropped_receiver_down(),
        ),
        (
            "dropped_invalid",
            ma.dropped_invalid(),
            mb.dropped_invalid(),
        ),
        (
            "suppressed_by_adversary",
            ma.suppressed_by_adversary(),
            mb.suppressed_by_adversary(),
        ),
    ];
    for (name, x, y) in totals {
        if x != y {
            return Some(format!("metrics.{name}: {x} vs {y}"));
        }
    }
    for kind in KINDS {
        let (x, y) = (ma.sent_of_kind(kind), mb.sent_of_kind(kind));
        if x != y {
            return Some(format!("metrics.sent_of_kind({kind}): {x} vs {y}"));
        }
        let (x, y) = (ma.delivered_of_kind(kind), mb.delivered_of_kind(kind));
        if x != y {
            return Some(format!("metrics.delivered_of_kind({kind}): {x} vs {y}"));
        }
    }
    for (link, x) in ma.per_link() {
        let y = mb.sent_over(link);
        if x != y {
            return Some(format!("metrics.sent_over({link}): {x} vs {y}"));
        }
    }
    for (link, y) in mb.per_link() {
        if ma.sent_over(link) == 0 {
            return Some(format!("metrics.sent_over({link}): 0 vs {y}"));
        }
    }
    Some("reports differ in a field this check does not name".to_owned())
}

/// The verdict on one workload's reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Expected deliveries: broadcasts × processes.
    pub attempted: u64,
    /// Missed deliveries; all of `attempted` when a check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The process exit code this verdict maps to.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }
}

/// Compares repetition `i`'s report with the warm-up repetition's
/// (`first`). Called per repetition so only one report is alive at a
/// time — ten 10 000-node reports would otherwise set `peak_rss_mb`.
pub fn repetition_problem(
    first: &ScenarioReport,
    i: usize,
    report: &ScenarioReport,
) -> Option<String> {
    first_difference(first, report)
        .map(|field| format!("repetition {i} differs from repetition 0 in {field}"))
}

/// Compares the workload's report (`first`) with the same scenario's
/// report from the reference executor `name`.
pub fn reference_problem(
    first: &ScenarioReport,
    name: &str,
    reference: &ScenarioReport,
) -> Option<String> {
    first_difference(first, reference)
        .map(|field| format!("report differs from the {name} reference in {field}"))
}

/// Checks one workload's outputs: `first` is the warm-up repetition's
/// report and `divergences` what [`repetition_problem`] and
/// [`reference_problem`] found.
pub fn verify(
    first: &ScenarioReport,
    divergences: Vec<String>,
    broadcasts: u64,
    processes: u64,
) -> Verdict {
    let attempted = broadcasts * processes;
    let mut problems = divergences;
    if first.skipped_faults != 0 {
        problems.push(format!("skipped_faults = {}", first.skipped_faults));
    }
    if first.failed_broadcasts != 0 {
        problems.push(format!("failed_broadcasts = {}", first.failed_broadcasts));
    }
    let delivered: u64 = first.delivered.values().sum();
    if delivered > attempted {
        problems.push(format!(
            "{delivered} deliveries exceed the {attempted} possible"
        ));
    }
    let failed = if problems.is_empty() {
        attempted - delivered
    } else {
        attempted
    };
    Verdict {
        attempted,
        failed,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workloads::{self, Executor, Scale};

    fn smoke_report() -> (ScenarioReport, u64, u64) {
        let def = workloads::find("optimal_stream_n240").unwrap();
        let inputs = workloads::build(def, 3, Scale::Smoke, &mut Tracer::off());
        let report = crate::exec::execute(&inputs, Executor::Kernel);
        (report, inputs.broadcasts(), inputs.processes())
    }

    #[test]
    fn identical_reports_pass_with_exit_code_zero() {
        let (report, broadcasts, processes) = smoke_report();
        let verdict = verify(
            &report,
            repetition_problem(&report, 1, &report.clone())
                .into_iter()
                .chain(reference_problem(&report, "kernel", &report.clone()))
                .collect(),
            broadcasts,
            processes,
        );
        assert!(verdict.correct(), "{verdict:?}");
        assert_eq!(verdict.exit_code(), 0);
        assert_eq!(verdict.failed, 0);
        assert_eq!(verdict.attempted, broadcasts * processes);
    }

    #[test]
    fn a_mismatching_reference_names_the_field_and_fails_the_run() {
        let (report, broadcasts, processes) = smoke_report();
        let mut tampered = report.clone();
        *tampered.delivered.values_mut().next().unwrap() += 1;
        let verdict = verify(
            &report,
            reference_problem(&report, "kernel", &tampered)
                .into_iter()
                .collect(),
            broadcasts,
            processes,
        );
        assert!(!verdict.correct());
        assert_ne!(verdict.exit_code(), 0);
        assert_eq!(
            verdict.failed, verdict.attempted,
            "every operation counts as failed"
        );
        assert!(verdict.problems[0].contains("delivered["), "{verdict:?}");
    }

    #[test]
    fn a_diverging_repetition_and_wire_metrics_are_named() {
        let (report, broadcasts, processes) = smoke_report();
        let mut other = report.clone();
        other.metrics.as_mut().unwrap().record_lost();
        assert_eq!(
            first_difference(&report, &other).unwrap(),
            format!(
                "metrics.lost_in_link: {} vs {}",
                report.metrics.as_ref().unwrap().lost_in_link(),
                report.metrics.as_ref().unwrap().lost_in_link() + 1
            )
        );
        let divergences = repetition_problem(&report, 1, &other).into_iter().collect();
        let verdict = verify(&report, divergences, broadcasts, processes);
        assert!(verdict.problems[0].starts_with("repetition 1 differs"));
        assert_ne!(verdict.exit_code(), 0);
    }

    #[test]
    fn skipped_faults_and_failed_broadcasts_fail_the_run() {
        let (mut report, broadcasts, processes) = smoke_report();
        report.skipped_faults = 1;
        report.failed_broadcasts = 2;
        let verdict = verify(&report, Vec::new(), broadcasts, processes);
        assert_eq!(verdict.problems.len(), 2);
    }
}
