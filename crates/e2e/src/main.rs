//! `diffuse-e2e`: the workspace's whole-run benchmark.
//!
//! ```text
//! diffuse-e2e run     [--trace] [--seed N] [--seconds S] [--scale full|smoke]
//!                     [--workload NAME]... [--out FILE]
//! diffuse-e2e bench   --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                     [--scale full|smoke]
//! diffuse-e2e compare A.json B.json
//! ```
//!
//! `run` spawns this binary once per workload (`bench`), so each
//! workload's `peak_rss_mb` is its own process's high-water mark, and
//! collects the results into one file `compare` can read. `bench` is
//! also the entry point `BENCHMARK.json`'s `command` names: its last
//! line of output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `crates/e2e/README.md`.

#![forbid(unsafe_code)]

mod bench;
mod checks;
mod compare;
mod exec;
mod json;
mod measure;
mod probes;
mod spec;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use bench::{Metric, Outcome};
use json::Value;
use spec::{Declared, Spec};
use workloads::{Scale, WorkloadDef, DEFAULT_SEED, HELD_OUT_SEED, TARGET_K, WORKLOADS};

const USAGE: &str = "usage:
  diffuse-e2e run     [--trace] [--seed N] [--seconds S] [--scale full|smoke] [--workload NAME]... [--out FILE]
  diffuse-e2e bench   --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
  diffuse-e2e compare A.json B.json";

/// Options shared by `run` and `bench`.
struct Cli {
    workloads: Vec<&'static WorkloadDef>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String], spec: &Spec) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        scale: Scale::Full,
        out: None,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            // `run --trace` is a bare flag; `bench --trace 0|1` has a value.
            cli.trace = match args.next_if(|v| *v == "0" || *v == "1") {
                Some(v) => v == "1",
                None => true,
            };
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cli
                .workloads
                .push(workloads::find(value).ok_or_else(|| format!("unknown workload `{value}`"))?),
            "--seed" => cli.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--scale" => {
                cli.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("bad scale `{value}`")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(cli)
}

/// Where build outputs go: the span files and result files live beside
/// them, under `e2e/`.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("e2e")
}

fn write_file(path: &PathBuf, content: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{content}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_metric(metric: &Metric) {
    let s = &metric.stats;
    let note = if s.n > 1 {
        format!(
            "q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
            s.q1, s.q3, s.min, s.max, s.n
        )
    } else if metric.exact {
        "exact".to_owned()
    } else if metric.estimate {
        "estimate".to_owned()
    } else {
        String::new()
    };
    println!(
        "  {:<34} {:>16.6} {:<6} {note}",
        metric.name, s.median, metric.unit
    );
}

/// The contract's last line: every declared metric of this pass, by
/// name; a layer this workload does not run through reads 0.
fn contract_line(outcome: &Outcome, declared: &[Declared]) -> Result<Value, String> {
    let mut emitted: BTreeMap<&str, &Metric> = BTreeMap::new();
    for metric in &outcome.metrics {
        if emitted.insert(metric.name, metric).is_some() {
            return Err(format!("metric `{}` emitted twice", metric.name));
        }
    }
    let mut metrics = BTreeMap::new();
    for d in declared {
        let value = match emitted.remove(d.name.as_str()) {
            Some(m) if m.unit == d.unit => m.stats.median,
            Some(m) => {
                return Err(format!(
                    "metric `{}` is in {} here but {} in BENCHMARK.json",
                    d.name, m.unit, d.unit
                ))
            }
            None => 0.0,
        };
        metrics.insert(
            d.name.clone(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::str(d.unit.as_str())),
            ]),
        );
    }
    if let Some(name) = emitted.keys().next() {
        return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(outcome.verdict.correct())),
        ("attempted", Value::Num(outcome.verdict.attempted as f64)),
        ("failed", Value::Num(outcome.verdict.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

/// `bench`: one workload in this process.
fn bench_command(cli: &Cli, spec: &Spec) -> Result<ExitCode, String> {
    let [def] = cli.workloads[..] else {
        return Err("bench takes exactly one --workload".to_owned());
    };
    let outcome = bench::run(&bench::Options {
        def,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
    })?;
    println!(
        "workload {}  seed {}  executor {}  scale {}  {}",
        def.name,
        cli.seed,
        def.executor.name(),
        cli.scale.name(),
        if cli.trace {
            "traced pass"
        } else {
            "end-to-end pass"
        },
    );
    for metric in &outcome.metrics {
        print_metric(metric);
    }
    for problem in &outcome.verdict.problems {
        println!("  CHECK FAILED: {problem}");
    }
    if let Some(spans) = &outcome.spans {
        let path = output_dir().join(format!("trace-{}-seed{}.json", def.name, cli.seed));
        write_file(&path, spans)?;
        println!("  spans written to {}", path.display());
    }
    let declared = if cli.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let line = contract_line(&outcome, declared)?;
    let detail = Value::obj([
        ("executor", Value::Str(def.executor.name())),
        ("sizes", def.sizes(cli.scale).to_json()),
        ("correct", Value::Bool(outcome.verdict.correct())),
        ("attempted", Value::Num(outcome.verdict.attempted as f64)),
        ("failed", Value::Num(outcome.verdict.failed as f64)),
        (
            "problems",
            Value::Arr(outcome.verdict.problems.iter().map(Value::str).collect()),
        ),
        (
            "metrics",
            Value::obj(outcome.metrics.iter().map(|m| (m.name, m.to_json()))),
        ),
    ]);
    println!("detail {detail}");
    println!("{line}");
    Ok(ExitCode::from(outcome.verdict.exit_code()))
}

/// `run`: every workload, each in a child process of its own.
fn run_command(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let selected: Vec<&WorkloadDef> = if cli.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        cli.workloads.clone()
    };
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for def in selected {
        let mut child = Command::new(&exe)
            .arg("bench")
            .args(["--workload", def.name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .args(["--scale", cli.scale.name()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", def.name))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut detail = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("cannot read {}'s output: {e}", def.name))?;
            if let Some(json) = line.strip_prefix("detail ") {
                detail = Some(json::parse(json)?);
            } else if !line.starts_with('{') {
                println!("{line}");
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for {}: {e}", def.name))?;
        all_correct &= status.success();
        match detail {
            Some(detail) => {
                results.insert(def.name.to_owned(), detail);
            }
            None => println!("  {} produced no result ({status})", def.name),
        }
    }

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Value::obj([
        ("seed", Value::Num(cli.seed as f64)),
        ("default_seed", Value::Num(DEFAULT_SEED as f64)),
        ("held_out_seed", Value::Num(HELD_OUT_SEED as f64)),
        ("seconds", Value::Num(cli.seconds)),
        ("scale", Value::str(cli.scale.name())),
        ("trace", Value::Bool(cli.trace)),
        ("target_k", Value::Num(TARGET_K)),
        ("available_parallelism", Value::Num(threads as f64)),
        ("workloads", Value::Obj(results)),
    ]);
    let path = cli.out.clone().unwrap_or_else(|| {
        let pass = if cli.trace { "trace" } else { "run" };
        output_dir().join(format!("{pass}-seed{}.json", cli.seed))
    });
    write_file(&path, &doc)?;
    println!(
        "{} ({} threads available); results written to {}",
        if all_correct {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        },
        threads,
        path.display()
    );
    Ok(ExitCode::from(u8::from(!all_correct)))
}

fn compare_command(args: &[String], spec: &Spec) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_owned());
    };
    let read = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let worse = compare::compare(spec, &read(a)?, &read(b)?)?;
    Ok(ExitCode::from(u8::from(worse > 0)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = spec::load();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_cli(rest, &spec).and_then(|cli| run_command(&cli))
        }
        Some((command, rest)) if command == "bench" => {
            parse_cli(rest, &spec).and_then(|cli| bench_command(&cli, &spec))
        }
        Some((command, rest)) if command == "compare" => compare_command(rest, &spec),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("diffuse-e2e: {message}");
        ExitCode::from(2)
    })
}
