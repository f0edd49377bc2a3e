//! Scoped wall-clock self-profiler with hierarchical phase attribution.
//!
//! The simulation is deterministic on the sim clock; wall-clock time is
//! the one thing it cannot see about itself. This crate measures it
//! without ever leaking it back in: a [`Profiler`] hands out RAII
//! [`Scope`] guards that time a named phase with [`std::time::Instant`]
//! and fold the elapsed wall time into a tree keyed by the scope nesting
//! at the call site. The tree aggregates — a scope entered a million
//! times is one node with a call count, not a million samples — so the
//! profiler's own footprint stays flat no matter how long the run is.
//!
//! Two rules keep the sim honest:
//!
//! 1. **Wall time never enters sim state.** Nothing in this crate is
//!    readable by the simulation mid-run except through [`Profiler::
//!    report`], which the harness only calls after the run ends; no
//!    scope duration ever influences a branch, a journal record or a
//!    metric. Same-seed runs produce byte-identical *sim* telemetry
//!    whether the profiler is on or off.
//! 2. **Disabled means no-op.** [`Profiler::disabled`] carries no
//!    allocation and [`Profiler::scope`] on it never calls
//!    `Instant::now()` — the cost of a scope in a disabled profiler is
//!    one `Option` check.
//!
//! A [`ProfileReport`] renders as a top-N hot-path table (ranked by
//! self time — time in a phase minus time in its instrumented children)
//! and as collapsed-stack lines (`a;b;c <micros>`), the text format
//! flamegraph tools ingest.
//!
//! # Examples
//!
//! ```
//! use profiler::Profiler;
//!
//! let profiler = Profiler::enabled();
//! {
//!     let _step = profiler.scope("step");
//!     let _inner = profiler.scope("host.block");
//!     // ... timed work ...
//! }
//! let report = profiler.report();
//! assert_eq!(report.entries[0].path, "step");
//! assert_eq!(report.entries[1].path, "step;host.block");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// One phase in the scope tree: total wall time across all entries,
/// entry count, and children keyed by name (deterministic order).
#[derive(Debug)]
struct Node {
    name: String,
    wall: Duration,
    calls: u64,
    children: BTreeMap<String, usize>,
}

impl Node {
    fn new(name: &str) -> Self {
        Self { name: name.to_string(), wall: Duration::ZERO, calls: 0, children: BTreeMap::new() }
    }
}

#[derive(Debug)]
struct Inner {
    /// Arena of nodes; index 0 is the synthetic root.
    nodes: Vec<Node>,
    /// Indices of currently-open scopes (root is always open).
    stack: Vec<usize>,
}

impl Inner {
    fn new() -> Self {
        Self { nodes: vec![Node::new("")], stack: vec![0] }
    }

    /// Child of the innermost open scope, created on first entry.
    fn enter(&mut self, name: &str) -> usize {
        let parent = *self.stack.last().expect("root scope always open");
        let index = match self.nodes[parent].children.get(name) {
            Some(&index) => index,
            None => {
                let index = self.nodes.len();
                self.nodes.push(Node::new(name));
                self.nodes[parent].children.insert(name.to_string(), index);
                index
            }
        };
        self.stack.push(index);
        index
    }

    fn exit(&mut self, index: usize, elapsed: Duration) {
        let node = &mut self.nodes[index];
        node.wall += elapsed;
        node.calls += 1;
        // Guards drop in LIFO order under normal RAII use; if a guard
        // outlives its parent (a bug at the call site), unwind past the
        // stale entries rather than corrupting the stack.
        while let Some(top) = self.stack.pop() {
            if top == index || self.stack.len() <= 1 {
                break;
            }
        }
        if self.stack.is_empty() {
            self.stack.push(0);
        }
    }
}

/// Handle to a wall-clock profile, cheap to clone and share within a
/// thread (the simulation is single-threaded, like [`telemetry`]'s
/// handle this one is `!Send` by construction).
///
/// [`telemetry`]: https://docs.rs/telemetry
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl Profiler {
    /// A recording profiler.
    pub fn enabled() -> Self {
        Self { inner: Some(Rc::new(RefCell::new(Inner::new()))) }
    }

    /// A no-op profiler: scopes cost one `Option` check and never read
    /// the wall clock.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a named scope; wall time until the guard drops is
    /// attributed to `name` nested under the currently-open scopes.
    #[inline]
    pub fn scope(&self, name: &str) -> Scope {
        Scope { _open: self.inner.as_ref().map(|rc| OpenScope::enter(rc, name)) }
    }

    /// Snapshot the profile tree. Empty (zero total, no entries) for a
    /// disabled profiler.
    pub fn report(&self) -> ProfileReport {
        let Some(rc) = &self.inner else {
            return ProfileReport { total_ms: 0.0, entries: Vec::new() };
        };
        let inner = rc.borrow();
        let mut entries = Vec::new();
        let total: Duration = inner.nodes[0].children.values().map(|&i| inner.nodes[i].wall).sum();
        let total_ms = total.as_secs_f64() * 1_000.0;
        // Preorder walk, children in name order: parents precede
        // children, so depth/path reconstruction needs no lookups.
        let mut pending: Vec<(usize, usize, String)> =
            inner.nodes[0].children.values().rev().map(|&i| (i, 0usize, String::new())).collect();
        while let Some((index, depth, prefix)) = pending.pop() {
            let node = &inner.nodes[index];
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            let child_wall: Duration = node.children.values().map(|&i| inner.nodes[i].wall).sum();
            let wall_ms = node.wall.as_secs_f64() * 1_000.0;
            let self_ms = node.wall.saturating_sub(child_wall).as_secs_f64() * 1_000.0;
            entries.push(ProfileEntry {
                path: path.clone(),
                name: node.name.clone(),
                depth,
                wall_ms,
                self_ms,
                calls: node.calls,
                pct_of_total: if total_ms > 0.0 { wall_ms / total_ms * 100.0 } else { 0.0 },
            });
            for &child in node.children.values().rev() {
                pending.push((child, depth + 1, path.clone()));
            }
        }
        ProfileReport { total_ms, entries }
    }
}

/// Live state of an open [`Scope`]; dropping it closes the scope.
#[derive(Debug)]
struct OpenScope {
    profiler: Rc<RefCell<Inner>>,
    index: usize,
    started: Instant,
}

impl OpenScope {
    fn enter(profiler: &Rc<RefCell<Inner>>, name: &str) -> Self {
        let index = profiler.borrow_mut().enter(name);
        Self { profiler: Rc::clone(profiler), index, started: Instant::now() }
    }
}

impl Drop for OpenScope {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed();
        self.profiler.borrow_mut().exit(self.index, elapsed);
    }
}

/// RAII guard returned by [`Profiler::scope`]; dropping it closes the
/// scope and attributes the elapsed wall time. The guard itself has no
/// `Drop`: dropping a disabled one is the inlined check of its `Option`.
#[derive(Debug)]
#[must_use = "a dropped scope records zero time"]
pub struct Scope {
    /// Held for its drop alone.
    _open: Option<OpenScope>,
}

/// One phase in a [`ProfileReport`]: its place in the tree and its
/// aggregated wall-clock cost.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Semicolon-joined path from the top level (`step;host.block`).
    pub path: String,
    /// Leaf name of the phase.
    pub name: String,
    /// Nesting depth (top-level phases are 0).
    pub depth: usize,
    /// Total wall time in this phase, children included.
    pub wall_ms: f64,
    /// Wall time in this phase minus its instrumented children.
    pub self_ms: f64,
    /// How many times the scope was entered.
    pub calls: u64,
    /// `wall_ms` as a percentage of the profile total.
    pub pct_of_total: f64,
}

/// Aggregated profile tree in preorder, plus renderers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Sum of top-level phase wall times — the attributed wall clock.
    pub total_ms: f64,
    /// Every phase, preorder (parents before children, siblings in
    /// name order).
    pub entries: Vec<ProfileEntry>,
}

impl ProfileReport {
    /// Look up a phase by its semicolon-joined path.
    pub fn entry(&self, path: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// The `n` phases with the most self time, descending — where the
    /// wall clock actually goes, with pass-through parents excluded.
    pub fn hot_paths(&self, n: usize) -> Vec<&ProfileEntry> {
        let mut ranked: Vec<&ProfileEntry> = self.entries.iter().collect();
        ranked
            .sort_by(|a, b| b.self_ms.partial_cmp(&a.self_ms).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(n);
        ranked
    }

    /// Top-N hot-path table: rank, self ms, total ms, calls, % of
    /// total, path.
    pub fn render_table(&self, n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>3}  {:>10} {:>10} {:>9} {:>6}  path",
            "#", "self ms", "total ms", "calls", "%"
        );
        for (rank, entry) in self.hot_paths(n).iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>3}  {:>10.2} {:>10.2} {:>9} {:>5.1}%  {}",
                rank + 1,
                entry.self_ms,
                entry.wall_ms,
                entry.calls,
                entry.pct_of_total,
                entry.path
            );
        }
        out
    }

    /// Full tree rendered with indentation, preorder.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<46} {:>10} {:>10} {:>9} {:>6}",
            "phase", "total ms", "self ms", "calls", "%"
        );
        for entry in &self.entries {
            let label = format!("{}{}", "  ".repeat(entry.depth), entry.name);
            let _ = writeln!(
                out,
                "{label:<46} {:>10.2} {:>10.2} {:>9} {:>5.1}%",
                entry.wall_ms, entry.self_ms, entry.calls, entry.pct_of_total
            );
        }
        out
    }

    /// Collapsed-stack lines (`a;b;c <micros>`), one per phase, value =
    /// self time in integer microseconds — the flamegraph text format.
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            let micros = (entry.self_ms * 1_000.0).round() as u64;
            let _ = writeln!(out, "{} {micros}", entry.path);
        }
        out
    }

    /// Serialize to pretty JSON (the `BENCH_profile.json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile report serializes")
    }

    /// Parse a report produced by [`ProfileReport::to_json`].
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(duration: Duration) {
        let started = Instant::now();
        while started.elapsed() < duration {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_profiler_is_a_no_op() {
        let profiler = Profiler::disabled();
        assert!(!profiler.is_enabled());
        {
            let _a = profiler.scope("a");
            let _b = profiler.scope("b");
        }
        let report = profiler.report();
        assert_eq!(report.total_ms, 0.0);
        assert!(report.entries.is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_counts_calls() {
        let profiler = Profiler::enabled();
        for _ in 0..3 {
            let _step = profiler.scope("step");
            {
                let _host = profiler.scope("host.block");
                let _drain = profiler.scope("mempool.drain");
            }
            let _relayer = profiler.scope("relayer.tick");
        }
        let report = profiler.report();
        let paths: Vec<&str> = report.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["step", "step;host.block", "step;host.block;mempool.drain", "step;relayer.tick"]
        );
        for entry in &report.entries {
            assert_eq!(entry.calls, 3, "{}", entry.path);
        }
        let step = report.entry("step").unwrap();
        assert_eq!(step.depth, 0);
        assert_eq!(report.entry("step;host.block").unwrap().depth, 1);
        // Children are nested inside `step`, so the top-level phase is
        // the whole attributed total.
        assert!((report.total_ms - step.wall_ms).abs() < 1e-9);
    }

    #[test]
    fn self_time_excludes_instrumented_children() {
        let profiler = Profiler::enabled();
        {
            let _outer = profiler.scope("outer");
            spin(Duration::from_millis(4));
            {
                let _inner = profiler.scope("inner");
                spin(Duration::from_millis(8));
            }
        }
        let report = profiler.report();
        let outer = report.entry("outer").unwrap();
        let inner = report.entry("outer;inner").unwrap();
        assert!(outer.wall_ms >= inner.wall_ms);
        assert!(inner.wall_ms >= 7.0, "inner {:.2} ms", inner.wall_ms);
        assert!(
            (outer.self_ms + inner.wall_ms - outer.wall_ms).abs() < 0.5,
            "self {:.2} + child {:.2} != total {:.2}",
            outer.self_ms,
            inner.wall_ms,
            outer.wall_ms
        );
        // Hot-path ranking is by self time: the inner spin dominates.
        let hot = report.hot_paths(1);
        assert_eq!(hot[0].path, "outer;inner");
    }

    #[test]
    fn same_name_at_different_depths_is_distinct() {
        let profiler = Profiler::enabled();
        {
            let _a = profiler.scope("proof");
        }
        {
            let _b = profiler.scope("relayer");
            let _c = profiler.scope("proof");
        }
        let report = profiler.report();
        assert!(report.entry("proof").is_some());
        assert!(report.entry("relayer;proof").is_some());
    }

    #[test]
    fn report_round_trips_through_json() {
        let profiler = Profiler::enabled();
        {
            let _a = profiler.scope("alpha");
            let _b = profiler.scope("beta");
        }
        let report = profiler.report();
        let parsed = ProfileReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.entries.len(), report.entries.len());
        assert_eq!(parsed.entries[1].path, "alpha;beta");
        assert_eq!(parsed.total_ms, report.total_ms);
    }

    #[test]
    fn renderers_cover_every_phase() {
        let profiler = Profiler::enabled();
        {
            let _a = profiler.scope("render.me");
            let _b = profiler.scope("child");
        }
        let report = profiler.report();
        let table = report.render_table(10);
        assert!(table.contains("render.me;child"));
        let stacks = report.collapsed_stacks();
        assert_eq!(stacks.lines().count(), 2);
        assert!(stacks.lines().all(|l| l.rsplit_once(' ').is_some()));
        let tree = report.render_tree();
        assert!(tree.contains("  child"));
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_stack() {
        let profiler = Profiler::enabled();
        let outer = profiler.scope("outer");
        let inner = profiler.scope("inner");
        drop(outer); // wrong order: outer first
        drop(inner);
        let _next = profiler.scope("next");
        drop(_next);
        let report = profiler.report();
        // `next` lands at the top level, not under a stale parent.
        assert!(report.entry("next").is_some());
    }
}
