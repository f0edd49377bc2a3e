//! Bench artifacts: one data structure per experiment, rendered both as
//! terminal text and as a JSON file.
//!
//! The experiment binaries used to `println!` their results directly,
//! which let the human-readable output and any JSON dump drift apart.
//! An [`Artifact`] is built once — headings, text lines and named metric
//! values — and both renderings come from it.

use std::collections::BTreeMap;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::report::RunReport;

/// One titled block of an artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Section {
    /// Section heading.
    pub heading: String,
    /// Pre-formatted human-readable lines.
    pub lines: Vec<String>,
    /// Named scalar results (the machine-readable twin of `lines`).
    pub values: BTreeMap<String, f64>,
}

impl Section {
    /// Appends a text line.
    pub fn line(&mut self, text: impl Into<String>) -> &mut Self {
        self.lines.push(text.into());
        self
    }

    /// Records a named scalar result.
    pub fn value(&mut self, name: &str, value: f64) -> &mut Self {
        self.values.insert(name.to_string(), value);
        self
    }
}

/// One experiment's complete output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Artifact {
    /// Artifact title (the figure or table being reproduced).
    pub title: String,
    /// The artifact's name: its `BENCH_<name>.json` file, and the flag that
    /// names that file where one binary writes several artifacts.
    pub generated_by: String,
    /// Ordered sections.
    pub sections: Vec<Section>,
    /// Optional full telemetry run report attached to the artifact.
    pub report: Option<RunReport>,
}

impl Artifact {
    /// Creates an empty artifact.
    pub fn new(title: impl Into<String>, generated_by: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            generated_by: generated_by.into(),
            sections: Vec::new(),
            report: None,
        }
    }

    /// Opens a new section and returns it for population.
    pub fn section(&mut self, heading: impl Into<String>) -> &mut Section {
        self.sections.push(Section {
            heading: heading.into(),
            lines: Vec::new(),
            values: BTreeMap::new(),
        });
        self.sections.last_mut().expect("just pushed")
    }

    /// Renders the artifact as terminal text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        out.push_str(&"=".repeat(self.title.chars().count()));
        out.push('\n');
        for section in &self.sections {
            if !section.heading.is_empty() {
                out.push('\n');
                out.push_str(&section.heading);
                out.push('\n');
                out.push_str(&"-".repeat(section.heading.chars().count()));
                out.push('\n');
            }
            for line in &section.lines {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Serializes the artifact as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Emits the artifact: text to stdout unless `quiet`, JSON to
    /// `json_path` when given. A JSON file that cannot be written ends the
    /// process with exit code 1, so a missing artifact fails the run that
    /// should have written it.
    pub fn emit(&self, quiet: bool, json_path: Option<&str>) {
        if !quiet {
            print!("{}", self.render_text());
        }
        if let Some(path) = json_path {
            if let Err(err) = std::fs::write(path, self.to_json()) {
                eprintln!("could not write {path}: {err}");
                std::process::exit(1);
            }
            eprintln!("(artifact written to {path})");
        }
    }
}

/// Strict command-line flags, the one place in the workspace that reads
/// `--flag value` pairs. A program takes each flag it knows out of the
/// argument list by name and then calls [`Flags::finish`]: a value that
/// does not parse, a flag with no value after it, or anything left over
/// (a misspelt `--huors`) exits 2 with a usage line built from the flags
/// the program asked for, instead of silently running the default scenario.
#[derive(Clone, Debug)]
pub struct Flags {
    args: Vec<String>,
    usage: Vec<String>,
    error: Option<String>,
}

impl Flags {
    /// The process's own arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args())
    }

    /// An explicit argument list; the program name comes first and opens
    /// the usage line.
    pub fn new(mut args: impl Iterator<Item = String>) -> Self {
        let program = args.next().unwrap_or_default();
        let name = program.rsplit(['/', '\\']).next().unwrap_or_default().to_string();
        Self { args: args.collect(), usage: vec![name], error: None }
    }

    /// Takes the switch `name`; true when it was given.
    pub fn switch(&mut self, name: &str) -> bool {
        self.usage.push(format!("[{name}]"));
        let at = self.args.iter().position(|a| a == name);
        at.map(|i| self.args.remove(i)).is_some()
    }

    /// Takes `name <value>`; `None` when the flag is absent.
    pub fn optional<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.usage.push(format!("[{name} <value>]"));
        let at = self.args.iter().position(|a| a == name)?;
        self.args.remove(at);
        if self.args.get(at).is_none_or(|v| v.starts_with("--")) {
            self.error.get_or_insert(format!("{name} needs a value"));
            return None;
        }
        self.parse(name, at)
    }

    /// Takes `name <value>`, or `default` when the flag is absent.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> T {
        self.optional(name).unwrap_or(default)
    }

    /// Takes the first bare (non-`--`) argument, or `default` when there is
    /// none. Call it after every valued flag has been taken, so that what
    /// is left bare is not some flag's value.
    pub fn positional<T: FromStr>(&mut self, label: &str, default: T) -> T {
        self.usage.push(format!("[{label}]"));
        let at = self.args.iter().position(|a| !a.starts_with("--"));
        at.and_then(|i| self.parse(label, i)).unwrap_or(default)
    }

    fn parse<T: FromStr>(&mut self, name: &str, at: usize) -> Option<T> {
        let raw = self.args.remove(at);
        let parsed = raw.parse().ok();
        if parsed.is_none() {
            self.error.get_or_insert(format!("{name}: cannot parse {raw:?}"));
        }
        parsed
    }

    /// The first parse failure, else the first argument nobody took.
    pub fn error(&self) -> Option<String> {
        let stray = || self.args.first().map(|arg| format!("unknown argument {arg:?}"));
        self.error.clone().or_else(stray)
    }

    /// Exits 2 with [`Flags::error`] and the usage line, if there is one.
    pub fn finish(self) {
        if let Some(error) = self.error() {
            eprintln!("error: {error}\nusage: {}", self.usage.join(" "));
            std::process::exit(2);
        }
    }

    /// Takes `--quiet` and `--json <path>`, the last flags of every
    /// artifact-emitting binary, then finishes as [`Flags::finish`] does.
    pub fn output(mut self) -> OutputOptions {
        let output = OutputOptions { quiet: self.switch("--quiet"), json: self.optional("--json") };
        self.finish();
        output
    }
}

/// Common CLI switches shared by every artifact-emitting binary:
/// `--quiet` suppresses the text rendering and `--json <path>` writes the
/// JSON artifact.
#[derive(Clone, Debug, Default)]
pub struct OutputOptions {
    /// Suppress the text rendering.
    pub quiet: bool,
    /// Write the JSON artifact to this path.
    pub json: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::new(["target/release/prog"].iter().chain(args).map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_in_any_order_and_a_bad_one_is_an_error_not_a_default() {
        let mut f = flags(&["--json", "out.json", "--hours", "5", "--quiet"]);
        assert_eq!((f.value("--hours", 2u64), f.value("--seed", 2026u64)), (5, 2026));
        assert_eq!(f.usage.join(" "), "prog [--hours <value>] [--seed <value>]");
        assert_eq!(f.error().as_deref(), Some("unknown argument \"--json\""));
        let output = f.output();
        assert!(output.quiet && output.json.as_deref() == Some("out.json"));
        assert_eq!(flags(&["3"]).positional("DAYS", 1u64), 3);

        for (args, error) in [
            (&["--hours", "abc"][..], "--hours: cannot parse \"abc\""),
            (&["--hours"], "--hours needs a value"),
            (&["--hours", "--quiet"], "--hours needs a value"),
            (&["--huors", "2"], "unknown argument \"--huors\""),
            (&["--hours", "2", "--hours", "3"], "unknown argument \"--hours\""),
        ] {
            let mut f = flags(args);
            f.value("--hours", 2u64);
            f.switch("--quiet");
            assert_eq!(f.error().as_deref(), Some(error), "{args:?}");
        }
    }

    /// Runs itself as a child process that emits to a path under a missing
    /// directory, and checks that the child exits 1.
    #[test]
    fn emit_exits_non_zero_when_the_json_cannot_be_written() {
        const CHILD: &str = "ARTIFACT_EMIT_TO";
        if let Some(path) = std::env::var_os(CHILD) {
            Artifact::new("unwritable", "unwritable").emit(true, path.to_str());
            return;
        }
        let missing = std::env::temp_dir()
            .join(format!("artifact-missing-dir-{}", std::process::id()))
            .join("BENCH_unwritable.json");
        let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "artifact::tests::emit_exits_non_zero_when_the_json_cannot_be_written",
            ])
            .env(CHILD, &missing)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("child test runs");
        assert_eq!(status.code(), Some(1));
        assert!(!missing.exists());
    }
}
