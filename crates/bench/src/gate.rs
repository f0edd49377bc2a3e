//! Gates as data: the one place an artifact value meets a threshold.
//!
//! `gates.json` (repository root, tracked) lists what `ci.sh` wrote under
//! its `fresh` directory and what must hold of it. `artifacts` are
//! [`Artifact`] files: `clock: "sim"` means a pure function of the seed, so
//! the fresh file must equal the tracked copy beside `gates.json` byte for
//! byte (re-pin: `cp target/ci/BENCH_x.json .` and a reviewed diff);
//! `clock: "wall"` means wall-clock readings, rows only. `run_reports` are
//! [`RunReport`] files, which live only under `fresh`: rows only, over the
//! counts [`report_values`] derives; a report with a section missing does
//! not parse, which fails it.
//!
//! A row is `{key, op, value, why}` over the flattened `sections[].values`:
//! `op` one of [`OPS`], a bound a number or, as a string, another key of
//! the same artifact; no expression language. A key that is missing, or
//! defined in two sections, fails its row. Every row is evaluated; each
//! failure is one line: artifact, key, observed value, op, bound, `why`.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Deserialize;
use serde_json::{Number, Value};
use telemetry::{Artifact, RunReport};

/// Whether `observed` holds against an op's bounds.
type Holds = fn(f64, &[f64]) -> bool;

/// The closed op set: name, number of bounds (`between` takes
/// `[low, high]`, inclusive; `exists` takes no value), meaning.
static OPS: [(&str, usize, Holds); 5] = [
    ("==", 1, |x, b| x == b[0]),
    (">=", 1, |x, b| x >= b[0]),
    ("<=", 1, |x, b| x <= b[0]),
    ("between", 2, |x, b| b[0] <= x && x <= b[1]),
    ("exists", 0, |_, _| true),
];

/// One side of a comparison: a literal or another key of the artifact.
enum Bound {
    Literal(f64),
    Key(String),
}

/// One gated value; `bounds` has the arity of `op`, an entry of [`OPS`].
struct Row {
    key: String,
    op: &'static (&'static str, usize, Holds),
    bounds: Vec<Bound>,
    why: String,
}

#[derive(Deserialize)]
struct RawRow {
    key: String,
    op: String,
    #[serde(default)]
    value: Option<Value>,
    why: String,
}

/// One gated file; `clock` is `sim`, `wall` or, for a run report, absent.
#[derive(Deserialize)]
struct Gated {
    artifact: String,
    #[serde(default)]
    clock: Option<String>,
    rows: Vec<Row>,
}

/// A parsed `gates.json`.
#[derive(Deserialize)]
pub struct Gates {
    fresh: String,
    artifacts: Vec<Gated>,
    run_reports: Vec<Gated>,
}

fn parse_bound(value: Value) -> Result<Bound, String> {
    match value {
        Value::Number(Number::PosInt(v)) => Ok(Bound::Literal(v as f64)),
        Value::Number(Number::NegInt(v)) => Ok(Bound::Literal(v as f64)),
        Value::Number(Number::Float(v)) => Ok(Bound::Literal(v)),
        Value::String(key) => Ok(Bound::Key(key)),
        other => Err(format!("a bound is a number or a key, not {}", other.kind())),
    }
}

/// A row enters only through here, so one outside the closed set is a parse error.
impl<'de> Deserialize<'de> for Row {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let RawRow { key, op, value, why } = RawRow::deserialize(deserializer)?;
        let bounds = match value {
            None => Ok(Vec::new()),
            Some(Value::Array(pair)) => pair.into_iter().map(parse_bound).collect(),
            Some(one) => parse_bound(one).map(|bound| vec![bound]),
        };
        let bounds = bounds.map_err(|e| serde::de::Error::custom(format!("row {key}: {e}")))?;
        let found = OPS.iter().find(|(name, arity, _)| *name == op && *arity == bounds.len());
        match found {
            Some(op) if !why.trim().is_empty() => Ok(Row { key, op, bounds, why }),
            Some(_) => Err(serde::de::Error::custom(format!("row {key}: empty why"))),
            None => Err(serde::de::Error::custom(format!(
                "row {key}: no op {op:?} takes {} bound(s)",
                bounds.len()
            ))),
        }
    }
}

/// Flattened values; `None` marks a key defined in more than one section.
type Values = BTreeMap<String, Option<f64>>;

fn artifact_values(artifact: &Artifact) -> Values {
    let mut values = Values::new();
    for (key, value) in artifact.sections.iter().flat_map(|s| &s.values) {
        values.entry(key.clone()).and_modify(|v| *v = None).or_insert(Some(*value));
    }
    values
}

/// The counts a run report is gated on.
fn report_values(report: &RunReport) -> Values {
    let sends = |r: &&telemetry::RouteTraceReport| {
        r.events.iter().filter(|e| e.name == "packet.send").count() >= 2
    };
    let multi_hop: Vec<_> = report.routes.iter().filter(sends).collect();
    [
        ("packets", report.packets.len()),
        ("completed", report.packets.iter().filter(|p| p.completed).count()),
        ("journal_len", report.journal_len as usize),
        ("counters", report.metrics.counters.len()),
        ("routes", report.routes.len()),
        ("multi_hop_routes", multi_hop.len()),
        ("multi_hop_delivered", multi_hop.iter().filter(|r| r.delivered).count()),
    ]
    .into_iter()
    .map(|(key, count)| (key.to_string(), Some(count as f64)))
    .collect()
}

fn lookup(values: &Values, key: &str) -> Result<f64, String> {
    match values.get(key) {
        Some(Some(value)) => Ok(*value),
        Some(None) => Err(format!("{key} is defined in two sections")),
        None => Err(format!("{key} is missing")),
    }
}

/// `Err` is the row's failure, without the artifact name and the `why`.
fn check_row(values: &Values, row: &Row) -> Result<(), String> {
    let observed = lookup(values, &row.key)?;
    let (mut bounds, mut spelled) = (Vec::new(), Vec::new());
    for bound in &row.bounds {
        let (value, text) = match bound {
            Bound::Literal(v) => (*v, v.to_string()),
            Bound::Key(key) => lookup(values, key).map(|v| (v, format!("{key} (= {v})")))?,
        };
        bounds.push(value);
        spelled.push(text);
    }
    let (op, _, holds) = row.op;
    if holds(observed, &bounds) {
        return Ok(());
    }
    Err(format!("{} = {observed} fails {op} {}", row.key, spelled.join(" and ")))
}

/// Judges one file from its bytes: one line per failed pin or row.
fn judge(file: &Gated, fresh: &[u8], tracked: Option<&[u8]>, report: bool) -> Vec<String> {
    let name = &file.artifact;
    let mut failures = Vec::new();
    if file.clock.as_deref() == Some("sim") && tracked != Some(fresh) {
        failures.push(format!(
            "{name}: {} — sim-clock artifacts are pinned by bytes; if the change is meant, \
             cp the fresh {name} over the tracked one and review the diff",
            if tracked.is_some() { "differs from the tracked copy" } else { "has no tracked copy" },
        ));
    }
    let values = if report {
        serde_json::from_slice::<RunReport>(fresh).map(|r| report_values(&r))
    } else {
        serde_json::from_slice::<Artifact>(fresh).map(|a| artifact_values(&a))
    };
    match values {
        Ok(values) => failures.extend(file.rows.iter().filter_map(|row| {
            let failed = check_row(&values, row).err()?;
            Some(format!("{name}: {failed} — {}", row.why))
        })),
        Err(e) => failures.push(format!("{name}: does not parse: {e}")),
    }
    failures
}

impl Gates {
    /// Parses `gates.json`, rejecting any row or clock outside the closed sets.
    pub fn parse(text: &str) -> Result<Self, String> {
        let gates: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let clocked = |f: &&Gated| matches!(f.clock.as_deref(), Some("sim" | "wall"));
        let odd = gates.artifacts.iter().find(|f| !clocked(f));
        match odd.or(gates.run_reports.iter().find(|f| f.clock.is_some())) {
            Some(file) => Err(format!("{}: clock {:?}", file.artifact, file.clock)),
            None => Ok(gates),
        }
    }

    /// Evaluates every pin and every row; `root` is the directory holding
    /// `gates.json`, the tracked copies and the `fresh` directory. Returns
    /// one line per failure, empty when the gate passes.
    pub fn evaluate(&self, root: &Path) -> Vec<String> {
        let files = self.artifacts.iter().map(|f| (f, false));
        let files = files.chain(self.run_reports.iter().map(|f| (f, true)));
        let judged = files.flat_map(|(file, report)| {
            let fresh = root.join(&self.fresh).join(&file.artifact);
            let tracked = std::fs::read(root.join(&file.artifact)).ok();
            match std::fs::read(&fresh) {
                Ok(bytes) => judge(file, &bytes, tracked.as_deref(), report),
                Err(e) => {
                    vec![format!("{}: no fresh copy at {}: {e}", file.artifact, fresh.display())]
                }
            }
        });
        judged.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-file `gates.json` over `BENCH_x.json` with this clock and rows.
    fn gates(clock: &str, rows: &str) -> Result<Gates, String> {
        Gates::parse(&format!(
            r#"{{"fresh": "fresh", "run_reports": [], "artifacts": [
                {{"artifact": "BENCH_x.json", "clock": "{clock}", "rows": [{rows}]}}]}}"#
        ))
    }

    fn row(key: &str, op: &str, value: &str) -> String {
        let value = if value.is_empty() { String::new() } else { format!(r#""value": {value},"#) };
        format!(r#"{{"key": "{key}", "op": "{op}", {value} "why": "because"}}"#)
    }

    /// `BENCH_x.json` bytes: `x` and `total` in one section, `twice` in two.
    fn artifact(x: f64) -> Vec<u8> {
        let mut artifact = Artifact::new("t", "t");
        artifact.section("a").value("x", x).value("total", 13.0).value("twice", 1.0);
        artifact.section("b").value("twice", 1.0);
        artifact.to_json().into_bytes()
    }

    /// The failure lines of wall-clock rows over `artifact(5.0)`.
    fn failures(rows: &str) -> Vec<String> {
        judge(&gates("wall", rows).expect("rows parse").artifacts[0], &artifact(5.0), None, false)
    }

    /// Each op holding, failing and at its boundary; `None` = the row holds.
    #[test]
    fn each_row_holds_or_names_artifact_key_observed_op_bound_and_why() {
        for (key, op, value, failure) in [
            ("x", "==", "5", None),
            ("x", "==", "5.5", Some("x = 5 fails == 5.5")),
            ("x", ">=", "4", None),
            ("x", ">=", "5", None),
            ("x", ">=", "5.001", Some("x = 5 fails >= 5.001")),
            ("x", "<=", "6", None),
            ("x", "<=", "5", None),
            ("x", "<=", "4.999", Some("x = 5 fails <= 4.999")),
            ("x", "between", "[5, 6]", None),
            ("x", "between", "[4, 5]", None),
            ("x", "between", "[5.5, 6]", Some("x = 5 fails between 5.5 and 6")),
            ("x", "between", "[1, 4.5]", Some("x = 5 fails between 1 and 4.5")),
            ("x", "exists", "", None),
            ("x", "<=", r#""total""#, None),
            ("x", "between", r#"[1, "total"]"#, None),
            ("x", "==", r#""total""#, Some("x = 5 fails == total (= 13)")),
            ("x", "<=", r#""absent""#, Some("absent is missing")),
            ("y", "exists", "", Some("y is missing")),
            ("twice", "exists", "", Some("twice is defined in two sections")),
        ] {
            let line = failure.map(|f| format!("BENCH_x.json: {f} — because"));
            assert_eq!(failures(&row(key, op, value)), Vec::from_iter(line), "{key} {op} {value}");
        }
        // Every row is evaluated, not just the first to fail.
        let rows = [row("x", ">=", "9"), row("x", "<=", "9"), row("y", "exists", "")].join(",");
        assert_eq!(failures(&rows).len(), 2);
    }

    #[test]
    fn rows_and_clocks_outside_the_closed_sets_do_not_parse() {
        for (op, value) in
            [("!=", "1"), (">=", ""), ("exists", "1"), ("between", "[1, 2, 3]"), ("==", "true")]
        {
            assert!(gates("wall", &row("x", op, value)).is_err(), "{op} {value}");
        }
        let blank_why = r#"{"key": "x", "op": "==", "value": 1, "why": " "}"#;
        assert!(gates("wall", blank_why).is_err());
        assert!(gates("lunar", "").is_err());
    }

    #[test]
    fn a_sim_artifact_one_byte_off_its_pin_fails_and_a_wall_one_does_not() {
        let (tracked, fresh) = (artifact(5.0), artifact(6.0));
        assert_eq!(tracked.iter().zip(&fresh).filter(|(a, b)| a != b).count(), 1);
        let judged = |clock: &str, fresh: &[u8], tracked: Option<&[u8]>| {
            let gates = gates(clock, &row("x", ">=", "1")).expect("parses");
            judge(&gates.artifacts[0], fresh, tracked, false).join("\n")
        };
        assert_eq!(judged("wall", &fresh, Some(&tracked)), "");
        assert_eq!(judged("sim", &tracked, Some(&tracked)), "");
        assert!(judged("sim", &fresh, Some(&tracked)).contains(": differs from the tracked copy —"));
        assert!(judged("sim", &fresh, None).contains(": has no tracked copy —"));
        assert!(judged("wall", b"{", None).contains(": does not parse: "));
    }

    #[test]
    fn the_repo_gates_parse_and_name_only_what_ci_writes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join("gates.json")).expect("gates.json");
        // Parsing checks every row's op, bound shape and non-empty `why`.
        let gates = Gates::parse(&text).expect("gates.json parses");
        let ci = std::fs::read_to_string(root.join("ci.sh")).expect("ci.sh");
        assert!(ci.contains(&format!("CI={}\n", gates.fresh)), "ci.sh writes elsewhere");
        for file in gates.artifacts.iter().chain(&gates.run_reports) {
            assert!(!file.rows.is_empty(), "{} is gated on nothing", file.artifact);
            let written = format!("\"$CI/{}\"", file.artifact);
            assert!(ci.contains(&written), "ci.sh never writes {}", file.artifact);
        }
        // An artifact nobody wrote is a failure, not a skip.
        let failed = gates.evaluate(&std::env::temp_dir().join("gate-no-such-root"));
        assert_eq!(failed.len(), gates.artifacts.len() + gates.run_reports.len());
        assert!(failed.iter().all(|line| line.contains(": no fresh copy at ")), "{failed:?}");
    }
}
