//! Counters, gauges and fixed-bucket histograms.
//!
//! Components register measurements here instead of keeping ad-hoc local
//! tallies; the registry snapshot becomes the `metrics` section of a
//! [`RunReport`](crate::RunReport). Every name sits in a sorted index, so
//! snapshots serialize in a deterministic order.
//!
//! Beyond the last-write-wins gauges, the registry keeps a bounded
//! *timestamped series* per gauge written through
//! [`MetricsRegistry::gauge_set_at`]: the change points of the gauge as a
//! step function of simulated time. Online detectors evaluate windows
//! against these series ("has `guest.head` moved in the last 30 min?",
//! "what was the payer balance 24 h ago?") without the registry having to
//! retain every write of a multi-week run.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The 1-based rank of the nearest-rank `q`-quantile in a sample of `n`: ⌈q·n⌉ with `q` clamped to
/// [0, 1], at least 1. The crate's one quantile rule: [`Histogram::quantile`] and the latency
/// attribution both read their rank here.
pub(crate) fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1)
}

/// A fixed-bucket histogram: counts per `≤ bound` bucket plus an
/// overflow bucket, running sum and extrema.
///
/// NaN observations are never folded into the buckets or the sum — they
/// are tallied separately in [`Histogram::nan_count`] so a stray NaN in a
/// release bench shows up as data instead of a panic.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Observation counts: `counts[i]` pairs with `bounds[i]`; the final
    /// entry counts observations above every bound.
    pub counts: Vec<u64>,
    /// Total non-NaN observations.
    pub count: u64,
    /// Sum of non-NaN observations.
    pub sum: f64,
    /// Smallest non-NaN observation (0 when empty).
    pub min: f64,
    /// Largest non-NaN observation (0 when empty).
    pub max: f64,
    /// NaN observations rejected from the buckets.
    pub nan_count: u64,
}

impl Histogram {
    /// Creates an empty histogram over the given ascending bucket bounds.
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            nan_count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            self.nan_count += 1;
            return;
        }
        let bucket =
            self.bounds.iter().position(|bound| value <= *bound).unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Mean of the non-NaN observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// A conservative estimate of the `q`-quantile (0 when empty): the
    /// upper bound of the bucket holding the rank-`⌈q·n⌉` observation, or
    /// the running maximum for the overflow bucket. Deterministic and
    /// monotone in `q`, which is all a regression detector needs.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        for (index, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if index < self.bounds.len() { self.bounds[index] } else { self.max };
            }
        }
        self.max
    }

    /// The observations recorded in `self` but not in `earlier` — the
    /// window between two snapshots of the same histogram. `None` when the
    /// bucket layouts differ or `earlier` is not a prefix of `self`.
    ///
    /// Bucket counts, totals and sums subtract exactly; the extrema of the
    /// window are unknowable from two snapshots, so `min`/`max` are set to
    /// the window's bucket-derived quantile hull (0 and the highest
    /// non-empty bucket bound — good enough for [`Histogram::quantile`],
    /// which only consults the buckets and `max`).
    pub fn diff(&self, earlier: &Histogram) -> Option<Histogram> {
        if self.bounds != earlier.bounds || self.counts.len() != earlier.counts.len() {
            return None;
        }
        let mut counts = Vec::with_capacity(self.counts.len());
        for (now, then) in self.counts.iter().zip(&earlier.counts) {
            counts.push(now.checked_sub(*then)?);
        }
        let count = self.count.checked_sub(earlier.count)?;
        let max = counts
            .iter()
            .enumerate()
            .rfind(|(_, c)| **c > 0)
            .map(|(i, _)| if i < self.bounds.len() { self.bounds[i] } else { self.max })
            .unwrap_or(0.0);
        Some(Histogram {
            bounds: self.bounds.clone(),
            counts,
            count,
            sum: self.sum - earlier.sum,
            min: 0.0,
            max,
            nan_count: self.nan_count.saturating_sub(earlier.nan_count),
        })
    }
}

/// Why a histogram registration was refused.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HistogramBoundsError {
    /// The bounds list was empty.
    Empty,
    /// A bound was NaN or infinite.
    NonFinite {
        /// Index of the offending bound.
        index: usize,
    },
    /// `bounds[index] ≤ bounds[index - 1]` (unsorted or duplicate).
    NotAscending {
        /// Index of the offending bound.
        index: usize,
    },
}

impl core::fmt::Display for HistogramBoundsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Empty => write!(f, "histogram bounds are empty"),
            Self::NonFinite { index } => {
                write!(f, "histogram bound #{index} is not finite")
            }
            Self::NotAscending { index } => {
                write!(f, "histogram bound #{index} is not strictly ascending")
            }
        }
    }
}

impl std::error::Error for HistogramBoundsError {}

/// Validates that `bounds` form a non-empty, finite, strictly ascending
/// bucket layout (the precondition [`Histogram::observe`]'s bucket search
/// silently assumes).
fn validate_bounds(bounds: &[f64]) -> Result<(), HistogramBoundsError> {
    if bounds.is_empty() {
        return Err(HistogramBoundsError::Empty);
    }
    for (index, bound) in bounds.iter().enumerate() {
        if !bound.is_finite() {
            return Err(HistogramBoundsError::NonFinite { index });
        }
        if index > 0 && *bound <= bounds[index - 1] {
            return Err(HistogramBoundsError::NotAscending { index });
        }
    }
    Ok(())
}

/// Upper bound on distinct metric names (counters + gauges + histograms)
/// one registry will hold. Metric names in this codebase are static
/// strings plus a handful of bounded label sets (workload shapes, chain
/// ids); an unbounded name family — the classic cardinality explosion of
/// a label built from packet sequence numbers — would otherwise grow the
/// registry linearly with traffic. Writes to names beyond the cap are
/// dropped and tallied under [`CARDINALITY_LIMITED`].
const METRIC_CARDINALITY_CAP: usize = 1_024;

/// Counter incremented when the registry refuses a new metric name
/// because `METRIC_CARDINALITY_CAP` was reached. Always admitted
/// itself, so the drop is visible in every snapshot.
pub const CARDINALITY_LIMITED: &str = "telemetry.errors.cardinality_limited";

/// How many distinct refused metric names the registry remembers for the
/// health scorecard. The counter above says *how often* the guard fired;
/// this bounded list says *what* tripped it — enough names to identify
/// the exploding label without the list itself becoming a cardinality
/// leak.
const CARDINALITY_REJECTED_NAMES_CAP: usize = 8;

/// Retained change points per gauge series. Long runs write gauges every
/// slot; the series keeps only value *changes* and compacts its oldest
/// half when the cap is hit, so a 30-day run stays bounded while the
/// recent window — what detectors actually query — stays exact.
const GAUGE_SERIES_CAP: usize = 4_096;

/// The timestamped change points of one gauge, as a right-continuous step
/// function of simulated time.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GaugeSeries {
    points: Vec<(u64, f64)>,
}

impl GaugeSeries {
    /// Records a write at `at_ms`. Only value changes append a point
    /// (re-writing the same value is free); a second change at the same
    /// instant overwrites in place (last write wins, like the gauge map).
    pub fn record(&mut self, at_ms: u64, value: f64) {
        match self.points.last_mut() {
            Some((_, last)) if last.to_bits() == value.to_bits() => return,
            Some((at, last)) if *at == at_ms => {
                *last = value;
                return;
            }
            _ => {}
        }
        self.points.push((at_ms, value));
        if self.points.len() > GAUGE_SERIES_CAP {
            self.points.drain(..GAUGE_SERIES_CAP / 2);
        }
    }

    /// Number of retained change points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The retained change points, ascending in time.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The most recent change point: when the gauge last took a *new*
    /// value, and that value.
    pub fn last_change(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }

    /// The gauge's value at instant `t_ms` — the last change at or before
    /// `t_ms`. `None` before the first retained point.
    pub fn value_at(&self, t_ms: u64) -> Option<f64> {
        let idx = self.points.partition_point(|(at, _)| *at <= t_ms);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }
}

/// A gauge's slot: its latest value, and the timestamped series once it
/// has been written through [`MetricsRegistry::gauge_set_at`].
#[derive(Clone, Debug)]
struct Gauge {
    value: f64,
    series: Option<GaugeSeries>,
}

/// The mutable registry held inside a recording `Telemetry` handle.
///
/// Each kind keeps its values in a vector of slots under a sorted name
/// index. A named write searches the index; a per-step writer holds a
/// [`CounterHandle`](crate::CounterHandle), [`GaugeHandle`](crate::GaugeHandle)
/// or [`HistogramHandle`](crate::HistogramHandle) that remembers the slot
/// its first write found. Slots are never removed, so a remembered slot
/// stays valid for the registry's life.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counter_index: BTreeMap<String, usize>,
    counters: Vec<u64>,
    gauge_index: BTreeMap<String, usize>,
    gauges: Vec<Gauge>,
    histogram_index: BTreeMap<String, usize>,
    histograms: Vec<Histogram>,
    rejected_names: Vec<String>,
}

/// Appends `value` as the slot of the new name `name`, returning its index.
fn insert<T>(
    index: &mut BTreeMap<String, usize>,
    slots: &mut Vec<T>,
    name: &str,
    value: T,
) -> usize {
    let slot = slots.len();
    slots.push(value);
    index.insert(name.to_string(), slot);
    slot
}

/// Default bucket bounds used when a histogram is observed without an
/// explicit registration: decade-ish steps covering latencies in ms,
/// compute units and lamport fees alike.
pub const DEFAULT_BUCKETS: [f64; 12] = [
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
    100_000_000.0,
    1_000_000_000.0,
    10_000_000_000.0,
    100_000_000_000.0,
];

impl MetricsRegistry {
    /// Whether a write to the *new* name `name` may create its entry: it
    /// may while the registry is under `METRIC_CARDINALITY_CAP`. A
    /// refused name bumps [`CARDINALITY_LIMITED`] (which is always
    /// admitted, so the guard can never hide itself). Writers call this
    /// only after their look-up missed — a write to an existing name
    /// allocates nothing and is never limited.
    fn admit(&mut self, name: &str) -> bool {
        if name == CARDINALITY_LIMITED {
            return true;
        }
        let distinct = self.counters.len() + self.gauges.len() + self.histograms.len();
        if distinct < METRIC_CARDINALITY_CAP {
            return true;
        }
        self.counter_add_by_name(CARDINALITY_LIMITED, 1);
        if self.rejected_names.len() < CARDINALITY_REJECTED_NAMES_CAP
            && !self.rejected_names.iter().any(|n| n == name)
        {
            self.rejected_names.push(name.to_string());
        }
        false
    }

    /// The first distinct metric names the cardinality guard refused
    /// (at most `CARDINALITY_REJECTED_NAMES_CAP`), in refusal order.
    pub fn cardinality_rejected(&self) -> &[String] {
        &self.rejected_names
    }

    /// Adds `delta` to a named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.counter_add_by_name(name, delta);
    }

    /// [`MetricsRegistry::counter_add`], returning the slot written (`None`
    /// when the name was refused).
    pub(crate) fn counter_add_by_name(&mut self, name: &str, delta: u64) -> Option<usize> {
        if let Some(&slot) = self.counter_index.get(name) {
            self.counters[slot] += delta;
            Some(slot)
        } else if self.admit(name) {
            Some(insert(&mut self.counter_index, &mut self.counters, name, delta))
        } else {
            None
        }
    }

    /// Adds `delta` to the counter in `slot`.
    pub(crate) fn counter_add_by_slot(&mut self, slot: usize, delta: u64) {
        self.counters[slot] += delta;
    }

    /// Sets a named gauge to its latest value (no series point).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauge_set_by_name(name, value);
    }

    /// [`MetricsRegistry::gauge_set`], returning the slot written (`None`
    /// when the name was refused).
    pub(crate) fn gauge_set_by_name(&mut self, name: &str, value: f64) -> Option<usize> {
        if let Some(&slot) = self.gauge_index.get(name) {
            self.gauges[slot].value = value;
            Some(slot)
        } else if self.admit(name) {
            let gauge = Gauge { value, series: None };
            Some(insert(&mut self.gauge_index, &mut self.gauges, name, gauge))
        } else {
            None
        }
    }

    /// Sets the gauge in `slot` (no series point).
    pub(crate) fn gauge_set_by_slot(&mut self, slot: usize, value: f64) {
        self.gauges[slot].value = value;
    }

    /// Sets a named gauge *and* records the write in its timestamped
    /// series, so detectors can evaluate windows over it. The snapshot's
    /// `gauges` map is updated exactly as by [`MetricsRegistry::gauge_set`]
    /// — series live alongside the snapshot, not inside it.
    pub fn gauge_set_at(&mut self, at_ms: u64, name: &str, value: f64) {
        self.gauge_set_at_by_name(at_ms, name, value);
    }

    /// [`MetricsRegistry::gauge_set_at`], returning the slot written
    /// (`None` when the name was refused).
    pub(crate) fn gauge_set_at_by_name(
        &mut self,
        at_ms: u64,
        name: &str,
        value: f64,
    ) -> Option<usize> {
        let slot = self.gauge_set_by_name(name, value)?;
        self.gauge_set_at_by_slot(slot, at_ms, value);
        Some(slot)
    }

    /// Sets the gauge in `slot` and records the write in its series.
    pub(crate) fn gauge_set_at_by_slot(&mut self, slot: usize, at_ms: u64, value: f64) {
        let gauge = &mut self.gauges[slot];
        gauge.value = value;
        gauge.series.get_or_insert_with(GaugeSeries::default).record(at_ms, value);
    }

    /// The latest value of the gauge in `slot`.
    pub(crate) fn gauge_by_slot(&self, slot: usize) -> f64 {
        self.gauges[slot].value
    }

    /// The series of the gauge in `slot`.
    pub(crate) fn series_by_slot(&self, slot: usize) -> Option<&GaugeSeries> {
        self.gauges[slot].series.as_ref()
    }

    /// The gauge name index, for reads that find a slot without a write.
    pub(crate) fn gauge_names(&self) -> &BTreeMap<String, usize> {
        &self.gauge_index
    }

    /// Registers a histogram with explicit bucket bounds. The first layout
    /// a name gets is the one it keeps: registering a name that already
    /// exists — because an observation arrived first and created it with
    /// [`DEFAULT_BUCKETS`], or because it was registered before — changes
    /// nothing. Refuses empty, non-finite, unsorted or duplicate bounds —
    /// the bucket search silently misfiles observations under such layouts.
    pub fn register_histogram(
        &mut self,
        name: &str,
        bounds: &[f64],
    ) -> Result<(), HistogramBoundsError> {
        validate_bounds(bounds)?;
        if !self.histogram_index.contains_key(name) && self.admit(name) {
            let histogram = Histogram::new(bounds);
            insert(&mut self.histogram_index, &mut self.histograms, name, histogram);
        }
        Ok(())
    }

    /// Records an observation, creating the histogram with
    /// [`DEFAULT_BUCKETS`] when it was never registered.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_by_name(name, value);
    }

    /// [`MetricsRegistry::observe`], returning the slot written (`None`
    /// when the name was refused).
    pub(crate) fn observe_by_name(&mut self, name: &str, value: f64) -> Option<usize> {
        if let Some(&slot) = self.histogram_index.get(name) {
            self.histograms[slot].observe(value);
            Some(slot)
        } else if self.admit(name) {
            let mut histogram = Histogram::new(&DEFAULT_BUCKETS);
            histogram.observe(value);
            Some(insert(&mut self.histogram_index, &mut self.histograms, name, histogram))
        } else {
            None
        }
    }

    /// Records an observation in the histogram in `slot`.
    pub(crate) fn observe_by_slot(&mut self, slot: usize, value: f64) {
        self.histograms[slot].observe(value);
    }

    /// The histogram in `slot`.
    pub(crate) fn histogram_by_slot(&self, slot: usize) -> &Histogram {
        &self.histograms[slot]
    }

    /// The histogram name index, for reads that find a slot without a write.
    pub(crate) fn histogram_names(&self) -> &BTreeMap<String, usize> {
        &self.histogram_index
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_index.get(name).map_or(0, |&slot| self.counters[slot])
    }

    /// Reads the counter in `slot`.
    pub(crate) fn counter_by_slot(&self, slot: usize) -> u64 {
        self.counters[slot]
    }

    /// The counter name index, for reads that find a slot without a write.
    pub(crate) fn counter_names(&self) -> &BTreeMap<String, usize> {
        &self.counter_index
    }

    /// An immutable, serializable copy of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_index
                .iter()
                .map(|(n, &i)| (n.clone(), self.counters[i]))
                .collect(),
            gauges: self
                .gauge_index
                .iter()
                .map(|(n, &i)| (n.clone(), self.gauges[i].value))
                .collect(),
            histograms: self
                .histogram_index
                .iter()
                .map(|(n, &i)| (n.clone(), self.histograms[i].clone()))
                .collect(),
            cardinality_rejected: self.rejected_names.clone(),
        }
    }
}

/// Serializable copy of every metric at one point in time; the `metrics`
/// section of a [`RunReport`](crate::RunReport). Gauge series are working
/// state for online detectors, not results, and are deliberately *not*
/// part of the snapshot — its shape is unchanged from earlier artifacts.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// First distinct metric names refused by the cardinality guard
    /// (empty for healthy runs and absent from their artifacts).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub cardinality_rejected: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// By-name reads, for the tests only: outside them a metric is read
    /// through a handle (`crate::handle`).
    impl MetricsRegistry {
        fn gauge(&self, name: &str) -> Option<f64> {
            self.gauge_index.get(name).map(|&slot| self.gauges[slot].value)
        }

        fn gauge_series(&self, name: &str) -> Option<&GaugeSeries> {
            self.series_by_slot(*self.gauge_index.get(name)?)
        }

        fn histogram(&self, name: &str) -> Option<&Histogram> {
            self.histogram_index.get(name).map(|&slot| &self.histograms[slot])
        }
    }

    #[test]
    fn series_keeps_only_change_points() {
        let mut series = GaugeSeries::default();
        series.record(0, 1.0);
        series.record(10, 1.0);
        series.record(20, 1.0);
        series.record(30, 2.0);
        assert_eq!(series.points(), &[(0, 1.0), (30, 2.0)]);
        assert_eq!(series.last_change(), Some((30, 2.0)));
        assert_eq!(series.value_at(29), Some(1.0));
        assert_eq!(series.value_at(30), Some(2.0));
        assert_eq!(GaugeSeries::default().value_at(0), None);
    }

    #[test]
    fn series_same_instant_last_write_wins() {
        let mut series = GaugeSeries::default();
        series.record(5, 1.0);
        series.record(5, 2.0);
        assert_eq!(series.points(), &[(5, 2.0)]);
    }

    #[test]
    fn series_compacts_at_cap() {
        let mut series = GaugeSeries::default();
        for i in 0..(GAUGE_SERIES_CAP as u64 + 1) {
            series.record(i, i as f64);
        }
        assert_eq!(series.len(), GAUGE_SERIES_CAP / 2 + 1);
        // The recent window survives compaction exactly.
        assert_eq!(series.last_change(), Some((GAUGE_SERIES_CAP as u64, GAUGE_SERIES_CAP as f64)));
        assert_eq!(series.points()[0].0, GAUGE_SERIES_CAP as u64 / 2);
    }

    #[test]
    fn gauge_set_keeps_snapshot_backward_compatible() {
        let mut registry = MetricsRegistry::default();
        registry.gauge_set("plain", 1.0);
        registry.gauge_set_at(100, "tracked", 2.0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauges["plain"], 1.0);
        assert_eq!(snapshot.gauges["tracked"], 2.0);
        assert!(registry.gauge_series("plain").is_none(), "plain writes stay series-free");
        assert_eq!(registry.gauge_series("tracked").unwrap().last_change(), Some((100, 2.0)));
    }

    #[test]
    fn bad_histogram_bounds_are_refused() {
        let mut registry = MetricsRegistry::default();
        assert_eq!(registry.register_histogram("h", &[]), Err(HistogramBoundsError::Empty));
        assert_eq!(
            registry.register_histogram("h", &[1.0, 1.0]),
            Err(HistogramBoundsError::NotAscending { index: 1 })
        );
        assert_eq!(
            registry.register_histogram("h", &[2.0, 1.0]),
            Err(HistogramBoundsError::NotAscending { index: 1 })
        );
        assert_eq!(
            registry.register_histogram("h", &[1.0, f64::NAN]),
            Err(HistogramBoundsError::NonFinite { index: 1 })
        );
        assert!(registry.histogram("h").is_none(), "refused layouts register nothing");
        assert!(registry.register_histogram("h", &[1.0, 2.0]).is_ok());
        assert_eq!(registry.histogram("h").unwrap().bounds, vec![1.0, 2.0]);
    }

    #[test]
    fn cardinality_cap_drops_new_names_and_counts_them() {
        let mut registry = MetricsRegistry::default();
        for i in 0..METRIC_CARDINALITY_CAP {
            registry.counter_add(&format!("c{i:05}"), 1);
        }
        // The registry is full: new names of every metric kind are
        // refused and tallied; existing names keep working.
        registry.counter_add("overflow.counter", 1);
        registry.gauge_set("overflow.gauge", 1.0);
        registry.gauge_set_at(5, "overflow.series", 1.0);
        registry.observe("overflow.histogram", 1.0);
        assert!(registry.register_histogram("overflow.registered", &[1.0]).is_ok());
        assert_eq!(registry.counter("overflow.counter"), 0);
        assert_eq!(registry.gauge("overflow.gauge"), None);
        assert!(registry.gauge_series("overflow.series").is_none());
        assert!(registry.histogram("overflow.histogram").is_none());
        assert!(registry.histogram("overflow.registered").is_none());
        assert_eq!(registry.counter(CARDINALITY_LIMITED), 5);
        registry.counter_add("c00000", 41);
        assert_eq!(registry.counter("c00000"), 42, "existing names are never limited");
        // The guard also remembers *which* names it refused (deduped,
        // bounded) and the snapshot surfaces them.
        registry.counter_add("overflow.counter", 1);
        assert_eq!(
            registry.cardinality_rejected(),
            &[
                "overflow.counter".to_string(),
                "overflow.gauge".to_string(),
                "overflow.series".to_string(),
                "overflow.histogram".to_string(),
                "overflow.registered".to_string(),
            ],
            "refusal order, one entry per distinct name"
        );
        assert_eq!(registry.snapshot().cardinality_rejected.len(), 5);
    }

    /// The writers as they were before they looked up first: `contains_key`,
    /// `admit`, then `entry(name.to_string())`, over string-keyed maps of
    /// their own — kept as the oracle.
    #[derive(Default)]
    struct EntryFirst {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        series: BTreeMap<String, GaugeSeries>,
        histograms: BTreeMap<String, Histogram>,
        rejected_names: Vec<String>,
    }

    impl EntryFirst {
        fn admit(&mut self, name: &str, exists: bool) -> bool {
            if exists || name == CARDINALITY_LIMITED {
                return true;
            }
            let distinct = self.counters.len() + self.gauges.len() + self.histograms.len();
            if distinct < METRIC_CARDINALITY_CAP {
                return true;
            }
            *self.counters.entry(CARDINALITY_LIMITED.to_string()).or_insert(0) += 1;
            if self.rejected_names.len() < CARDINALITY_REJECTED_NAMES_CAP
                && !self.rejected_names.iter().any(|n| n == name)
            {
                self.rejected_names.push(name.to_string());
            }
            false
        }

        fn counter_add(&mut self, name: &str, delta: u64) {
            if !self.admit(name, self.counters.contains_key(name)) {
                return;
            }
            *self.counters.entry(name.to_string()).or_insert(0) += delta;
        }

        fn gauge_set(&mut self, name: &str, value: f64) {
            if !self.admit(name, self.gauges.contains_key(name)) {
                return;
            }
            self.gauges.insert(name.to_string(), value);
        }

        fn gauge_set_at(&mut self, at_ms: u64, name: &str, value: f64) {
            if !self.admit(name, self.gauges.contains_key(name)) {
                return;
            }
            self.gauges.insert(name.to_string(), value);
            self.series.entry(name.to_string()).or_default().record(at_ms, value);
        }

        fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
            validate_bounds(bounds).unwrap();
            if !self.admit(name, self.histograms.contains_key(name)) {
                return;
            }
            self.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds));
        }

        fn observe(&mut self, name: &str, value: f64) {
            if !self.admit(name, self.histograms.contains_key(name)) {
                return;
            }
            self.histograms
                .entry(name.to_string())
                .or_insert_with(|| Histogram::new(&DEFAULT_BUCKETS))
                .observe(value);
        }

        fn snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot {
                counters: self.counters.clone(),
                gauges: self.gauges.clone(),
                histograms: self.histograms.clone(),
                cardinality_rejected: self.rejected_names.clone(),
            }
        }
    }

    /// One handle of each kind per name, all made before any write.
    struct Handles {
        counters: Vec<crate::CounterHandle>,
        gauges: Vec<crate::GaugeHandle>,
        histograms: Vec<crate::HistogramHandle>,
        limited: crate::CounterHandle,
    }

    impl Handles {
        fn new(telemetry: &crate::Telemetry, names: &[String]) -> Self {
            Self {
                counters: names.iter().map(|n| telemetry.counter_handle(n.as_str())).collect(),
                gauges: names.iter().map(|n| telemetry.gauge_handle(n.as_str())).collect(),
                histograms: names.iter().map(|n| telemetry.histogram_handle(n.as_str())).collect(),
                limited: telemetry.counter_handle(CARDINALITY_LIMITED),
            }
        }
    }

    #[test]
    fn writers_match_the_entry_first_oracle_across_the_cap() {
        let mut new = MetricsRegistry::default();
        let mut old = EntryFirst::default();
        // A third registry takes every write but the registrations through
        // handles, one per name and kind, made before the mix starts.
        let sink = crate::Telemetry::recording();
        let names: Vec<String> = (0..1_400).map(|i| format!("m{i:04}")).collect();
        let handles = Handles::new(&sink, &names);
        let inner = sink.inner.as_ref().unwrap();
        assert!(
            inner.borrow().metrics.snapshot().counters.is_empty(),
            "making a handle writes nothing"
        );
        // A pseudo-random write mix over a name space wider than the cap,
        // so creations, rewrites and refusals of every kind interleave.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..40_000u64 {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let index = ((state >> 33) % 1_400) as usize;
            let name = &names[index];
            let value = (state >> 20) as f64 / 1e3;
            match (state >> 8) % 6 {
                0 => {
                    new.counter_add(name, step);
                    old.counter_add(name, step);
                    handles.counters[index].add(step);
                }
                1 => {
                    new.gauge_set(name, value);
                    old.gauge_set(name, value);
                    handles.gauges[index].set(value);
                }
                2 => {
                    new.gauge_set_at(step, name, value);
                    old.gauge_set_at(step, name, value);
                    handles.gauges[index].set_at(step, value);
                }
                3 => {
                    new.observe(name, value);
                    old.observe(name, value);
                    handles.histograms[index].observe(value);
                }
                4 => {
                    new.register_histogram(name, &[1.0, 1e6]).unwrap();
                    old.register_histogram(name, &[1.0, 1e6]);
                    sink.register_histogram(name, &[1.0, 1e6]).unwrap();
                }
                _ => {
                    new.counter_add(CARDINALITY_LIMITED, 0);
                    old.counter_add(CARDINALITY_LIMITED, 0);
                    handles.limited.add(0);
                }
            }
        }
        assert!(new.counter(CARDINALITY_LIMITED) > 0, "the mix crossed the cap");
        let oracle = serde_json::to_string(&old.snapshot()).unwrap();
        let recorded = inner.borrow();
        for (writer, registry) in [("named", &new), ("handle", &recorded.metrics)] {
            assert_eq!(serde_json::to_string(&registry.snapshot()).unwrap(), oracle, "{writer}");
            assert_eq!(registry.cardinality_rejected(), old.rejected_names, "{writer}");
            let series = registry.gauges.iter().filter(|g| g.series.is_some()).count();
            assert_eq!(series, old.series.len(), "{writer}");
            for (name, series) in &old.series {
                assert_eq!(
                    registry.gauge_series(name).unwrap().points(),
                    series.points(),
                    "{name}"
                );
            }
        }
        // Reads through the handles answer what the named registry holds.
        for (index, name) in names.iter().enumerate() {
            assert_eq!(handles.counters[index].get(), new.counter(name), "{name}");
            assert_eq!(handles.gauges[index].get(), new.gauge(name), "{name}");
            let histogram = new.histogram(name);
            let tallies = histogram.map(|h| (h.count, h.nan_count));
            assert_eq!(handles.histograms[index].tallies(), tallies, "{name}");
            let snapshot = handles.histograms[index].snapshot();
            assert_eq!(
                serde_json::to_string(&snapshot).unwrap(),
                serde_json::to_string(&histogram).unwrap(),
                "{name}"
            );
        }
    }

    #[test]
    fn a_counter_handle_adds_zero_by_name_only_once() {
        let sink = crate::Telemetry::recording();
        let handle = sink.counter_handle("c");
        handle.add(0);
        assert_eq!(
            sink.run_report("t", 0, 0).metrics.counters.get("c"),
            Some(&0),
            "first add(0) creates"
        );
        // A later add(0) does not even borrow the sink: with the sink held
        // borrowed, a write would panic.
        let held = sink.inner.as_ref().unwrap().borrow_mut();
        handle.add(0);
        drop(held);
        handle.add(2);
        assert_eq!(sink.counter("c"), 2);
    }

    #[test]
    fn a_handle_on_a_disabled_sink_writes_nothing() {
        let sink = crate::Telemetry::disabled();
        sink.counter_handle("c").add(1);
        sink.gauge_handle("g").set(1.0);
        let series = sink.gauge_handle("s");
        series.set_at(5, 1.0);
        sink.histogram_handle("h").observe(1.0);
        assert_eq!(sink.counter_handle("c").get(), 0);
        assert_eq!((series.last_change(), series.value_at(5)), (None, None));
        assert_eq!(sink.counter("c"), 0);
        assert_eq!(sink.gauge_handle("g").get(), None);
        let histogram = sink.histogram_handle("h");
        assert_eq!((histogram.tallies(), histogram.snapshot().map(|h| h.count)), (None, None));
        assert_eq!(
            serde_json::to_string(&sink.run_report("t", 0, 0).metrics).unwrap(),
            serde_json::to_string(&MetricsSnapshot::default()).unwrap()
        );
    }

    #[test]
    fn existing_names_take_writes_at_the_cap() {
        let mut registry = MetricsRegistry::default();
        registry.counter_add("c", 1);
        registry.gauge_set("g", 1.0);
        registry.gauge_set_at(10, "s", 1.0);
        registry.observe("h", 5.0);
        for i in 0..METRIC_CARDINALITY_CAP {
            registry.counter_add(&format!("fill{i:05}"), 1);
        }
        let refused = registry.counter(CARDINALITY_LIMITED);
        assert_eq!(refused, 4, "the last four fillers found the registry full");

        registry.counter_add("c", 2);
        registry.gauge_set("g", 2.0);
        registry.gauge_set_at(20, "s", 2.0);
        registry.observe("h", 50.0);
        // A plain gauge gains its series on the first timestamped write,
        // cap or no cap: series are not counted names.
        registry.gauge_set_at(30, "g", 3.0);
        assert_eq!(registry.counter("c"), 3);
        assert_eq!(registry.gauge("g"), Some(3.0));
        assert_eq!(registry.gauge("s"), Some(2.0));
        assert_eq!(registry.gauge_series("s").unwrap().points(), &[(10, 1.0), (20, 2.0)]);
        assert_eq!(registry.gauge_series("g").unwrap().points(), &[(30, 3.0)]);
        assert_eq!(registry.histogram("h").unwrap().count, 2);
        assert_eq!(registry.counter(CARDINALITY_LIMITED), refused, "no existing name was limited");

        registry.gauge_set_at(40, "new.series", 1.0);
        assert_eq!(registry.gauge("new.series"), None);
        assert!(registry.gauge_series("new.series").is_none());
        assert_eq!(registry.counter(CARDINALITY_LIMITED), refused + 1);
        assert!(registry.cardinality_rejected().contains(&"new.series".to_string()));
    }

    #[test]
    fn a_histogram_keeps_its_first_layout() {
        let mut registry = MetricsRegistry::default();
        // Observed before it was registered: the default layout stays.
        registry.observe("late", 5.0);
        assert!(registry.register_histogram("late", &[1.0, 2.0]).is_ok());
        let late = registry.histogram("late").unwrap();
        assert_eq!(late.bounds, DEFAULT_BUCKETS.to_vec());
        assert_eq!(late.count, 1, "and the observation with it");
        // Registered twice: the first registration stays.
        registry.register_histogram("twice", &[1.0, 2.0]).unwrap();
        registry.register_histogram("twice", &[10.0]).unwrap();
        assert_eq!(registry.histogram("twice").unwrap().bounds, vec![1.0, 2.0]);
    }

    #[test]
    fn rejected_name_list_is_bounded() {
        let mut registry = MetricsRegistry::default();
        for i in 0..METRIC_CARDINALITY_CAP {
            registry.counter_add(&format!("c{i:05}"), 1);
        }
        for i in 0..(CARDINALITY_REJECTED_NAMES_CAP + 10) {
            registry.counter_add(&format!("exploding.label.{i}"), 1);
        }
        assert_eq!(registry.cardinality_rejected().len(), CARDINALITY_REJECTED_NAMES_CAP);
        assert_eq!(registry.cardinality_rejected()[0], "exploding.label.0");
    }

    #[test]
    fn quantile_is_a_bucket_upper_bound() {
        let mut histogram = Histogram::new(&[10.0, 100.0, 1_000.0]);
        for _ in 0..90 {
            histogram.observe(5.0);
        }
        for _ in 0..10 {
            histogram.observe(500.0);
        }
        assert_eq!(histogram.quantile(0.5), 10.0);
        assert_eq!(histogram.quantile(0.95), 1_000.0);
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), 0.0);
        // Overflow bucket reports the running max.
        let mut small = Histogram::new(&[1.0]);
        small.observe(7.5);
        assert_eq!(small.quantile(0.99), 7.5);
    }

    #[test]
    fn diff_recovers_the_window() {
        let mut histogram = Histogram::new(&[10.0, 100.0]);
        histogram.observe(5.0);
        let earlier = histogram.clone();
        histogram.observe(50.0);
        histogram.observe(50.0);
        let window = histogram.diff(&earlier).expect("same layout");
        assert_eq!(window.count, 2);
        assert_eq!(window.counts, vec![0, 2, 0]);
        assert_eq!(window.quantile(0.5), 100.0);
        assert!(histogram.diff(&Histogram::new(&[1.0])).is_none(), "layout mismatch");
        assert!(earlier.diff(&histogram).is_none(), "reversed order underflows");
    }
}
