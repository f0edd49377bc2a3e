//! One benchmark for the guest link and its simulator.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! is one run: it prints every metric by name with its unit, checks that
//! the outputs are correct, and ends with one JSON line. `--trace 0`
//! measures the end-to-end metrics with nothing observing the run;
//! `--trace 1` runs the layer probes and one traced run for the per-layer
//! metrics. `benchmark suite` does both for all four workloads, one
//! process each; `benchmark compare A.json B.json` judges two suites;
//! `benchmark schema` prints `BENCHMARK.json`. See `README.md`.

mod compare;
mod json;
mod layers;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde_json::Value;

use json::{count, number, object, text};
use spec::{Metric, END_TO_END, PER_LAYER};
use stats::{interquartile_mean, median, percentile, sim_s};
use workloads::{Sim, Workload, WORKLOADS};

/// Same-seed repetitions a `--trace 0` run makes at least: the second is
/// what proves the first reproducible.
const MIN_REPS: usize = 2;
/// Set-ups timed in a `--trace 0` run at least, repetitions included.
const MIN_SETUPS: usize = 9;
/// The default workload seed; 7919 is the held-out one.
const DEFAULT_SEED: u64 = 2026;

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny simulated spans and probe budgets, for the self-test.
    smoke: bool,
}

/// One measured value and the repetitions it is the median of (just the
/// value itself for a sim-clock metric, which every repetition repeats).
struct Measured {
    value: f64,
    runs: Vec<f64>,
}

impl Measured {
    fn exact(value: f64) -> Self {
        Self { value, runs: vec![value] }
    }

    fn median_of(runs: Vec<f64>) -> Self {
        Self { value: median(&runs), runs }
    }
}

/// Everything one run found, as printed and as written to `out/`.
struct Outcome {
    reps: usize,
    attempted: u64,
    succeeded: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static Metric, Measured)>,
}

/// Where runs leave their files: `benchmark/out/`, or `out/smoke/` so a
/// self-test does not overwrite real results.
fn out_dir(smoke: bool) -> PathBuf {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if smoke {
        out.join("smoke")
    } else {
        out
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options { workload, seed, seconds, trace, smoke })
}

/// `--trace 0`: same-seed repetitions with nothing observing them, until
/// `--seconds` are used up. Wall-clock metrics are medians over the
/// repetitions; sim-clock metrics come from the first and every other
/// repetition must reproduce its run report byte for byte.
fn measure_end_to_end(options: &Options) -> Outcome {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(options.seconds);
    let mut first: Option<(Sim, String, f64, u64)> = None;
    let mut failures = Vec::new();
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    loop {
        let rep = workloads::run(options.workload, options.seed, options.smoke, None);
        setups.push(rep.setup_s);
        runs.push(rep.run_s);
        match &first {
            None => {
                let sim = workloads::summarise(&rep);
                first = Some((sim, rep.report_json, rep.peak_rss_mib, rep.sim_ms));
            }
            Some((_, fingerprint, ..)) => {
                if rep.report_json != *fingerprint {
                    failures.push(format!(
                        "repetition {} did not reproduce the first run report",
                        runs.len()
                    ));
                }
            }
        }
        let per_rep = started.elapsed() / runs.len() as u32;
        if runs.len() >= MIN_REPS && started.elapsed() + per_rep > budget {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(workloads::setup_only(options.workload, options.seed));
    }

    let (sim, _, peak_rss_mib, sim_ms) = first.expect("at least one repetition ran");
    failures.extend(sim.failures.iter().cloned());
    let sim_hours = sim_ms as f64 / testnet::HOUR_MS as f64;
    let values = [
        Measured::median_of(setups),
        Measured::median_of(runs.iter().map(|run_s| run_s / sim_hours).collect()),
        Measured::median_of(runs.iter().map(|run_s| sim.succeeded as f64 / run_s).collect()),
        Measured::exact(peak_rss_mib),
        Measured::exact(interquartile_mean(&sim.latencies_ms) / 1_000.0),
        Measured::exact(sim_s(percentile(&sim.latencies_ms, 0.90))),
    ];
    Outcome {
        reps: runs.len(),
        attempted: sim.attempted,
        succeeded: sim.succeeded,
        failures,
        metrics: END_TO_END.iter().map(|e| &e.metric).zip(values).collect(),
    }
}

/// `--trace 1`: one bare run, the same seed again under the tracer, then
/// the layer probes in what is left of `--seconds`.
fn measure_per_layer(options: &Options) -> Outcome {
    let started = Instant::now();
    let bare = workloads::run(options.workload, options.seed, options.smoke, None);
    let (bare_run_s, bare_json) = (bare.run_s, bare.report_json);
    drop(bare.net);

    let tracer = trace::Tracer::new();
    let traced = workloads::run(options.workload, options.seed, options.smoke, Some(&tracer));
    let sim = workloads::summarise(&traced);
    let mut failures = sim.failures.clone();
    if traced.report_json != bare_json {
        failures.push("the traced run's report differs from the untraced one".to_string());
    }
    let mut values = layers::collect(options.workload, &traced, &sim, &tracer.spans(), bare_run_s);
    let phases = match &traced.net {
        workloads::Net::Testnet(testnet) => testnet.profile_report(),
        // The mesh has no profiler hook; its trace is the outer spans.
        workloads::Net::Mesh(..) => profiler::ProfileReport { total_ms: 0.0, entries: Vec::new() },
    };
    drop(traced);

    let left = Duration::from_secs_f64(options.seconds).saturating_sub(started.elapsed());
    {
        let _probes = tracer.span("probes");
        values.extend(probes::run(left, options.smoke));
    }
    if let Err(error) = write_trace(options, &phases, &tracer.spans()) {
        failures.push(format!("could not write the trace: {error}"));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|metric| (metric, Measured::exact(values.remove(metric.name).unwrap_or(0.0))))
        .collect();
    assert!(values.is_empty(), "per-layer values missing from spec::PER_LAYER: {values:?}");
    Outcome { reps: 1, attempted: sim.attempted, succeeded: sim.succeeded, failures, metrics }
}

/// Writes `out/trace_<workload>.json` (the benchmark's spans plus the
/// testnet's own phase tree) and the collapsed stacks beside it.
fn write_trace(
    options: &Options,
    phases: &profiler::ProfileReport,
    spans: &[trace::Span],
) -> Result<(), String> {
    let dir = out_dir(options.smoke);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let json = object(vec![
        ("workload", text(options.workload.name)),
        ("seed", count(options.seed)),
        ("spans", serde_json::to_value(spans).map_err(|e| e.to_string())?),
        ("phases", serde_json::to_value(phases).map_err(|e| e.to_string())?),
    ]);
    let name = options.workload.name;
    let text = serde_json::to_string(&json).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(format!("trace_{name}.json")), text).map_err(|e| e.to_string())?;
    // The phase tree hangs under the chunks that ran it.
    let mut folded = trace::collapsed_stacks(spans);
    for line in phases.collapsed_stacks().lines() {
        folded.push_str(&format!("testnet.run;testnet.chunk;{line}\n"));
    }
    std::fs::write(dir.join(format!("trace_{name}.folded")), folded).map_err(|e| e.to_string())
}

/// The run as JSON. The driver's last line carries `value` and `unit`
/// only; the copy in `out/` adds every repetition's reading, which is
/// what `compare` works on.
fn outcome_json(options: &Options, outcome: &Outcome, detailed: bool) -> Value {
    let correct = outcome.failures.is_empty();
    // A run that fails a correctness check has no operation to its credit.
    let failed = if correct { outcome.attempted - outcome.succeeded } else { outcome.attempted };
    let metrics = outcome
        .metrics
        .iter()
        .map(|(metric, measured)| {
            let mut entry = vec![("value", number(measured.value)), ("unit", text(metric.unit))];
            if detailed {
                entry.push((
                    "runs",
                    Value::Array(measured.runs.iter().copied().map(number).collect()),
                ));
            }
            (metric.name.to_string(), object(entry))
        })
        .collect();
    let mut entries = vec![
        ("correct", Value::Bool(correct)),
        ("attempted", count(outcome.attempted)),
        ("failed", count(failed)),
        ("metrics", Value::Object(metrics)),
    ];
    if detailed {
        entries.push(("seed", count(options.seed)));
        entries.push(("reps", count(outcome.reps as u64)));
        entries.push((
            "failures",
            Value::Array(outcome.failures.iter().cloned().map(Value::String).collect()),
        ));
    }
    object(entries)
}

fn run_one(options: &Options) -> ExitCode {
    let started = Instant::now();
    let outcome =
        if options.trace { measure_per_layer(options) } else { measure_end_to_end(options) };
    println!(
        "{} seed {} trace {}: {} repetition(s) in {:.1} s, {} of {} operations succeeded",
        options.workload.name,
        options.seed,
        u8::from(options.trace),
        outcome.reps,
        started.elapsed().as_secs_f64(),
        outcome.succeeded,
        outcome.attempted,
    );
    for (metric, measured) in &outcome.metrics {
        let spread = if measured.runs.len() > 1 {
            let (min, max) = measured
                .runs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), run| (lo.min(*run), hi.max(*run)));
            format!("  (median of {}, min {min:.6}, max {max:.6})", measured.runs.len())
        } else {
            String::new()
        };
        println!("  {:<44} {:>16.6} {}{spread}", metric.name, measured.value, metric.unit);
    }
    for failure in &outcome.failures {
        println!("  CHECK FAILED: {failure}");
    }
    let dir = out_dir(options.smoke);
    let side = dir.join(format!("{}.trace{}.json", options.workload.name, u8::from(options.trace)));
    let detailed = serde_json::to_string_pretty(&outcome_json(options, &outcome, true))
        .expect("a Value serializes");
    if let Err(error) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&side, detailed))
    {
        eprintln!("could not write {}: {error}", side.display());
    }
    let line =
        serde_json::to_string(&outcome_json(options, &outcome, false)).expect("a Value serializes");
    println!("{line}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, `--trace 0` then `--trace 1`, one process per run and
/// never two at once, so peak memory is per workload. Collects the runs'
/// `out/` files into one results file for `compare`. `--out <path>` names
/// that file; every other argument goes to each run, which checks it.
fn suite(args: &[String]) -> ExitCode {
    let mut run_args = args.to_vec();
    let smoke = run_args.iter().any(|arg| arg == "--smoke");
    let mut results_path = out_dir(smoke).join("results.json");
    if let Some(at) = run_args.iter().position(|arg| arg == "--out") {
        if at + 1 == run_args.len() {
            return usage("--out needs a path");
        }
        results_path = PathBuf::from(run_args.remove(at + 1));
        run_args.remove(at);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => return usage(&format!("cannot find this executable: {error}")),
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let mut runs = Vec::new();
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name, "--trace", trace])
                .args(&run_args)
                .status();
            all_correct &= status.is_ok_and(|s| s.success());
            let side = out_dir(smoke).join(format!("{}.trace{trace}.json", workload.name));
            let run = std::fs::read_to_string(&side)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str::<Value>(&text).map_err(|e| e.to_string()));
            match run {
                Ok(run) => runs.push((format!("trace{trace}"), run)),
                Err(error) => {
                    eprintln!("could not read {}: {error}", side.display());
                    all_correct = false;
                }
            }
        }
        results.push((workload.name.to_string(), Value::Object(runs)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let root = object(vec![
        (
            "env",
            object(vec![
                ("git_rev", text(&command_output("git", &["rev-parse", "HEAD"]))),
                ("rustc", text(&command_output("rustc", &["-V"]))),
                ("nproc", count(nproc)),
            ]),
        ),
        ("workloads", Value::Object(results)),
    ]);
    let text = serde_json::to_string_pretty(&root).expect("a Value serializes");
    if let Err(error) = std::fs::write(&results_path, text) {
        eprintln!("could not write {}: {error}", results_path.display());
        return ExitCode::FAILURE;
    }
    println!("results written to {}", results_path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         benchmark suite [--out results.json] [--seed N] [--seconds S] [--smoke]\n       \
         benchmark compare A.json B.json\n       \
         benchmark schema"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("schema") => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("suite") => suite(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        _ => match parse_options(&args) {
            Ok(options) => run_one(&options),
            Err(problem) => usage(&problem),
        },
    }
}
