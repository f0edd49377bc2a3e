//! Pre-resolved metric handles for writers that run once per step.
//!
//! A named write searches the registry's sorted name index, and a writer
//! that runs once per host slot pays that search millions of times in a
//! long run. A handle is made from a [`Telemetry`] and a name, and it
//! remembers the slot its first write found, so every later write indexes
//! that slot.
//!
//! The first write of a handle is an ordinary named write: it creates the
//! entry under the same admission rule and with the same default buckets.
//! Making a handle writes nothing. A name the cardinality guard refuses is
//! never remembered, so each write to it goes by name again and is counted
//! under [`CARDINALITY_LIMITED`](crate::CARDINALITY_LIMITED). A handle on a
//! disabled sink does nothing.
//!
//! Handles serve the per-step writers and every monitor detector, which
//! makes its handles when it is built and reads only through them. A read
//! through a handle creates nothing: until its metric exists it searches by
//! name, and only again once the registry holds more names of its kind
//! (names are never removed, so until then it is still absent).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::{Histogram, Inner, MetricsRegistry, Telemetry};

/// The sink, the name, and the slot once a named write has been admitted
/// or a read has found it.
#[derive(Clone, Debug)]
struct Slot {
    sink: Option<Rc<RefCell<Inner>>>,
    name: String,
    index: Cell<Option<usize>>,
    /// How many names of its kind the registry held when a read last
    /// missed this one.
    missed_at: Cell<Option<usize>>,
}

impl Slot {
    fn new(telemetry: &Telemetry, name: impl Into<String>) -> Self {
        Self {
            sink: telemetry.inner.clone(),
            name: name.into(),
            index: Cell::new(None),
            missed_at: Cell::new(None),
        }
    }

    /// Reads through the remembered slot, or finds it in `names` (the name
    /// index of the metric's kind) without creating it. `None` while the
    /// metric does not exist or the sink is disabled.
    fn read<T>(
        &self,
        names: impl FnOnce(&MetricsRegistry) -> &BTreeMap<String, usize>,
        by_slot: impl FnOnce(&MetricsRegistry, usize) -> T,
    ) -> Option<T> {
        let sink = self.sink.as_ref()?.borrow();
        let metrics = &sink.metrics;
        let index = match self.index.get() {
            Some(index) => index,
            None => {
                let names = names(metrics);
                if self.missed_at.get() == Some(names.len()) {
                    return None;
                }
                let Some(&index) = names.get(&self.name) else {
                    self.missed_at.set(Some(names.len()));
                    return None;
                };
                self.index.set(Some(index));
                index
            }
        };
        Some(by_slot(metrics, index))
    }

    /// Writes through the remembered slot, or by name until a named write
    /// is admitted.
    fn write(
        &self,
        by_name: impl FnOnce(&mut MetricsRegistry, &str) -> Option<usize>,
        by_slot: impl FnOnce(&mut MetricsRegistry, usize),
    ) {
        let Some(sink) = &self.sink else { return };
        let metrics = &mut sink.borrow_mut().metrics;
        match self.index.get() {
            Some(index) => by_slot(metrics, index),
            None => self.index.set(by_name(metrics, &self.name)),
        }
    }
}

/// A counter written through a remembered slot (see [`Telemetry::counter_handle`]).
#[derive(Clone, Debug)]
pub struct CounterHandle(Slot);

impl CounterHandle {
    /// Adds `delta`, as [`Telemetry::counter_add`] does. Once the handle
    /// has its slot, adding 0 changes nothing and returns at once; the
    /// first `add(0)` still goes by name, so it creates the entry.
    pub fn add(&self, delta: u64) {
        if delta == 0 && self.0.index.get().is_some() {
            return;
        }
        self.0.write(
            |m, name| m.counter_add_by_name(name, delta),
            |m, slot| m.counter_add_by_slot(slot, delta),
        );
    }

    /// Reads the counter, as [`Telemetry::counter`] does (0 when absent or
    /// the sink is disabled).
    pub fn get(&self) -> u64 {
        self.0.read(MetricsRegistry::counter_names, MetricsRegistry::counter_by_slot).unwrap_or(0)
    }
}

/// A gauge written through a remembered slot (see [`Telemetry::gauge_handle`]).
#[derive(Clone, Debug)]
pub struct GaugeHandle(Slot);

impl GaugeHandle {
    /// Sets the gauge, as [`Telemetry::gauge_set`] does.
    pub fn set(&self, value: f64) {
        self.0.write(
            |m, name| m.gauge_set_by_name(name, value),
            |m, slot| m.gauge_set_by_slot(slot, value),
        );
    }

    /// Sets the gauge and records the write in its series, as
    /// [`Telemetry::gauge_set_at`] does.
    pub fn set_at(&self, at_ms: u64, value: f64) {
        self.0.write(
            |m, name| m.gauge_set_at_by_name(at_ms, name, value),
            |m, slot| m.gauge_set_at_by_slot(slot, at_ms, value),
        );
    }

    /// The gauge's latest value (`None` while it does not exist or the sink
    /// is disabled).
    pub fn get(&self) -> Option<f64> {
        self.0.read(MetricsRegistry::gauge_names, MetricsRegistry::gauge_by_slot)
    }

    /// When the gauge last took a new value, and that value. `None` while
    /// the gauge was never written through [`GaugeHandle::set_at`] or
    /// [`Telemetry::gauge_set_at`].
    pub fn last_change(&self) -> Option<(u64, f64)> {
        self.0
            .read(MetricsRegistry::gauge_names, |m, slot| m.series_by_slot(slot)?.last_change())
            .flatten()
    }

    /// The gauge's value at instant `t_ms` (step-function semantics over
    /// its series).
    pub fn value_at(&self, t_ms: u64) -> Option<f64> {
        self.0
            .read(MetricsRegistry::gauge_names, |m, slot| m.series_by_slot(slot)?.value_at(t_ms))
            .flatten()
    }
}

/// A histogram written through a remembered slot (see
/// [`Telemetry::histogram_handle`]).
#[derive(Clone, Debug)]
pub struct HistogramHandle(Slot);

impl HistogramHandle {
    /// Records an observation, as [`Telemetry::observe`] does.
    pub fn observe(&self, value: f64) {
        self.0.write(
            |m, name| m.observe_by_name(name, value),
            |m, slot| m.observe_by_slot(slot, value),
        );
    }

    /// The histogram's non-NaN and NaN observation counts, read in place
    /// (`None` while it does not exist or the sink is disabled). Every
    /// observation moves one of them, so equal tallies mean an unchanged
    /// histogram.
    pub fn tallies(&self) -> Option<(u64, u64)> {
        self.0.read(MetricsRegistry::histogram_names, |m, slot| {
            let histogram = m.histogram_by_slot(slot);
            (histogram.count, histogram.nan_count)
        })
    }

    /// A copy of the histogram (`None` while it does not exist or the sink
    /// is disabled); [`Histogram::diff`] of two copies recovers a window.
    pub fn snapshot(&self) -> Option<Histogram> {
        self.0.read(MetricsRegistry::histogram_names, |m, slot| m.histogram_by_slot(slot).clone())
    }
}

impl Telemetry {
    /// A handle on the counter `name` of this sink. Its entry is created by
    /// its first write, not here, and never by a read.
    pub fn counter_handle(&self, name: impl Into<String>) -> CounterHandle {
        CounterHandle(Slot::new(self, name))
    }

    /// A handle on the gauge `name` of this sink. Its entry is created by
    /// its first write, not here, and never by a read.
    pub fn gauge_handle(&self, name: impl Into<String>) -> GaugeHandle {
        GaugeHandle(Slot::new(self, name))
    }

    /// A handle on the histogram `name` of this sink. Its entry is created
    /// by its first write, not here, with [`DEFAULT_BUCKETS`](crate::DEFAULT_BUCKETS)
    /// unless the name was registered first.
    pub fn histogram_handle(&self, name: impl Into<String>) -> HistogramHandle {
        HistogramHandle(Slot::new(self, name))
    }
}
