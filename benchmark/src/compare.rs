//! `benchmark compare A.json B.json`: judges suite B against suite A.
//!
//! Sim-clock metrics and counts are a pure function of the seed, so they
//! compare exactly. Wall-clock metrics compare by the bound fixed in
//! `spec::END_TO_END`; where the repetitions of either side spread wider
//! (by their interquartile range) than the bound the row is `unresolved`,
//! unless every repetition of one side beats every repetition of the other.

use std::process::ExitCode;

use serde_json::Value;

use crate::json::{as_f64, field};
use crate::spec::{Better, Clock, Metric, END_TO_END, PER_LAYER};
use crate::stats::{interquartile_range, ratio};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// One side's reading of a metric: the value and the repetitions behind it.
#[derive(Clone, Debug)]
pub struct Reading {
    pub value: f64,
    pub runs: Vec<f64>,
}

impl Reading {
    /// Run-to-run spread as a share of the value.
    fn spread(&self) -> f64 {
        ratio(interquartile_range(&self.runs), self.value.abs())
    }
}

/// Judges `b` against `a`. `bound` is `None` for a metric that must
/// repeat exactly.
pub fn judge(a: &Reading, b: &Reading, better: Better, bound: Option<f64>) -> Verdict {
    // Fold the direction away: from here on, lower is better.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let delta = sign * (b.value - a.value);
    let Some(bound) = bound else {
        // Plain comparisons: `-1.0 * 0.0` is `-0.0`, which is no change.
        return if delta < 0.0 {
            Verdict::Better
        } else if delta > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Same
        };
    };
    let worse_by = ratio(delta, a.value.abs());
    if a.spread().max(b.spread()) > bound {
        let every = |verdict: fn(f64) -> bool| {
            a.runs.iter().all(|ra| b.runs.iter().all(|rb| verdict(sign * (rb - ra))))
        };
        return if every(|d| d < 0.0) {
            Verdict::Better
        } else if every(|d| d > 0.0) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn reading(run: &Value, metric: &str) -> Option<Reading> {
    let entry = field(field(run, "metrics")?, metric)?;
    let value = field(entry, "value").and_then(as_f64)?;
    let runs = match field(entry, "runs") {
        Some(Value::Array(runs)) => runs.iter().filter_map(as_f64).collect(),
        _ => vec![value],
    };
    Some(Reading { value, runs })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the row of one metric, unless it is an exact one that agrees;
/// returns whether the row is `worse`, `unresolved` or missing.
fn row(workload: &str, metric: &Metric, bound: Option<f64>, a: &Value, b: &Value) -> bool {
    let (Some(ra), Some(rb)) = (reading(a, metric.name), reading(b, metric.name)) else {
        println!("{workload:<12} {:<44} missing from one side", metric.name);
        return true;
    };
    let verdict = judge(&ra, &rb, metric.better, bound);
    if bound.is_none() && verdict == Verdict::Same {
        return false;
    }
    println!(
        "{workload:<12} {:<44} {:>14.6} -> {:>14.6} {:<8} {}",
        metric.name,
        ra.value,
        rb.value,
        metric.unit,
        format!("{verdict:?}").to_lowercase(),
    );
    matches!(verdict, Verdict::Worse | Verdict::Unresolved)
}

/// Prints one row per workload and metric; returns how many rows are
/// `worse`, `unresolved` or missing.
fn compare(a: &Value, b: &Value) -> usize {
    let mut open = 0;
    for workload in &WORKLOADS {
        let name = workload.name;
        let side = |suite, trace| field(field(field(suite, "workloads")?, name)?, trace);
        match (side(a, "trace0"), side(b, "trace0")) {
            (Some(ra), Some(rb)) => {
                for key in ["correct", "attempted", "failed"] {
                    if field(ra, key) != field(rb, key) {
                        println!(
                            "{name:<12} {key} differs: {:?} -> {:?}",
                            field(ra, key),
                            field(rb, key)
                        );
                        open += 1;
                    }
                }
                for e in END_TO_END {
                    let bound = (e.metric.clock == Clock::Wall).then_some(e.bound);
                    open += usize::from(row(name, &e.metric, bound, ra, rb));
                }
            }
            _ => {
                println!("{name:<12} has no --trace 0 run on one side");
                open += 1;
            }
        }
        // Per-layer wall-clock values carry no bound; the counts and
        // sim-clock values among them must not move at all.
        if let (Some(ra), Some(rb)) = (side(a, "trace1"), side(b, "trace1")) {
            for metric in PER_LAYER.iter().filter(|m| m.clock == Clock::Sim) {
                open += usize::from(row(name, metric, None, ra, rb));
            }
        }
    }
    open
}

pub fn run(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(problem), _) | (_, Err(problem)) => {
            eprintln!("{problem}");
            return ExitCode::from(2);
        }
    };
    for (label, suite) in [("A", &a), ("B", &b)] {
        println!(
            "{label}: {}",
            field(suite, "env")
                .map_or_else(String::new, |env| { serde_json::to_string(env).unwrap_or_default() })
        );
    }
    println!("(sim-clock metrics and counts are listed only where they differ)");
    let open = compare(&a, &b);
    println!("{open} row(s) worse or unresolved");
    if open == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(runs: &[f64]) -> Reading {
        Reading { value: crate::stats::median(runs), runs: runs.to_vec() }
    }

    #[test]
    fn exact_metrics_flag_any_change() {
        let a = at(&[10.0]);
        assert_eq!(judge(&a, &a, Better::Lower, None), Verdict::Same);
        assert_eq!(judge(&a, &a, Better::Higher, None), Verdict::Same);
        assert_eq!(judge(&a, &at(&[10.5]), Better::Lower, None), Verdict::Worse);
        assert_eq!(judge(&a, &at(&[10.5]), Better::Higher, None), Verdict::Better);
    }

    #[test]
    fn wall_metrics_compare_by_bound() {
        let a = at(&[9.9, 10.0, 10.1]);
        assert_eq!(judge(&a, &at(&[10.4, 10.5, 10.6]), Better::Lower, Some(0.1)), Verdict::Same);
        assert_eq!(judge(&a, &at(&[11.4, 11.5, 11.6]), Better::Lower, Some(0.1)), Verdict::Worse);
        assert_eq!(judge(&a, &at(&[8.4, 8.5, 8.6]), Better::Lower, Some(0.1)), Verdict::Better);
        assert_eq!(judge(&a, &at(&[8.4, 8.5, 8.6]), Better::Higher, Some(0.1)), Verdict::Worse);
    }

    #[test]
    fn one_slow_repetition_in_five_does_not_widen_the_spread() {
        let a = at(&[10.0, 10.1, 10.2, 10.3, 14.0]);
        assert_eq!(judge(&a, &at(&[10.0, 10.1, 10.2]), Better::Lower, Some(0.1)), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        let noisy = at(&[8.0, 10.0, 12.0]);
        assert_eq!(
            judge(&noisy, &at(&[9.0, 10.2, 11.0]), Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &at(&[6.5, 7.0, 7.5]), Better::Lower, Some(0.1)), Verdict::Better);
        assert_eq!(
            judge(&noisy, &at(&[13.0, 14.0, 15.0]), Better::Lower, Some(0.1)),
            Verdict::Worse
        );
    }
}
