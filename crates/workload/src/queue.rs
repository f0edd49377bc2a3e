//! The discrete-event core: a global binary heap of timed events with
//! deterministic tie-breaking.
//!
//! The testnet steps every host slot, but it does not ask every
//! actor "anything due?" in each one: actors schedule their next wake-up
//! (a validator's signature, a safety net) and each step pops the due
//! events in `(time, insertion sequence)` order. The
//! sequence number makes simultaneous events pop in the order they were
//! scheduled — exactly the ordering the old `BTreeMap<(time, seq), _>`
//! schedule gave, so same-seed runs stay byte-identical.

use std::collections::BinaryHeap;

/// One scheduled event (private: ordering must stay in sync with the
/// queue's pop semantics).
#[derive(Debug)]
struct Entry<T> {
    at_ms: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms == other.at_ms && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest
        // (time, seq) on top.
        other.at_ms.cmp(&self.at_ms).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use workload::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(20, "relayer");
/// queue.schedule(10, "arrival");
/// queue.schedule(10, "slot");
/// assert_eq!(queue.pop_due(15), Some((10, "arrival")));
/// assert_eq!(queue.pop_due(15), Some((10, "slot")));
/// assert_eq!(queue.pop_due(15), None, "the relayer job is not due yet");
/// assert_eq!(queue.len(), 1);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `payload` at `at_ms`. Events scheduled for the same
    /// instant pop in scheduling order.
    pub fn schedule(&mut self, at_ms: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at_ms, seq, payload });
    }

    /// Pops the earliest event due at or before `now_ms`.
    pub fn pop_due(&mut self, now_ms: u64) -> Option<(u64, T)> {
        if self.heap.peek().is_some_and(|entry| entry.at_ms <= now_ms) {
            let entry = self.heap.pop().expect("just peeked");
            Some((entry.at_ms, entry.payload))
        } else {
            None
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|entry| (entry.at_ms, entry.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut queue = EventQueue::new();
        queue.schedule(5, "c");
        queue.schedule(1, "a");
        queue.schedule(5, "d");
        queue.schedule(1, "b");
        let mut popped = Vec::new();
        while let Some((at, label)) = queue.pop() {
            popped.push((at, label));
        }
        assert_eq!(popped, [(1, "a"), (1, "b"), (5, "c"), (5, "d")]);
    }

    #[test]
    fn matches_btreemap_schedule_ordering() {
        // The old harness schedule was a BTreeMap keyed by (time, seq);
        // the heap must drain in exactly that key order.
        let mut queue = EventQueue::new();
        let mut reference = std::collections::BTreeMap::new();
        let mut rng = sim_crypto::rng::SplitMix64::new(99);
        for seq in 0..1_000u64 {
            let at = rng.next_below(50);
            queue.schedule(at, seq);
            reference.insert((at, seq), seq);
        }
        let from_map: Vec<u64> = reference.into_values().collect();
        let mut from_heap = Vec::new();
        while let Some((_, v)) = queue.pop() {
            from_heap.push(v);
        }
        assert_eq!(from_heap, from_map);
    }

    #[test]
    fn pop_due_respects_the_horizon() {
        let mut queue = EventQueue::new();
        queue.schedule(10, ());
        queue.schedule(30, ());
        assert!(queue.pop_due(9).is_none());
        assert_eq!(queue.pop_due(10), Some((10, ())));
        assert!(queue.pop_due(29).is_none());
        assert_eq!(queue.len(), 1);
    }
}
