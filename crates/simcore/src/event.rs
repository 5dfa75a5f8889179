//! Stable-priority event queue.
//!
//! A discrete-event simulation is only reproducible if simultaneous events
//! are delivered in a deterministic order. [`EventQueue`] pairs every
//! scheduled event with a monotonically increasing sequence number and
//! orders by `(time, sequence)`, so two events at the same instant pop in
//! the order they were scheduled — on every run.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Internal heap entry. Ordered by `(time, seq)` via `Reverse` for a
/// min-heap.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// The queue also tracks the simulation clock: [`EventQueue::pop`] advances
/// [`EventQueue::now`] to the popped event's timestamp, and scheduling in
/// the past panics (a classic DES causality bug that is much cheaper to
/// catch at the source).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at t=0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulation clock (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            event,
        }));
    }

    /// Schedules a batch of events, reserving heap capacity up front —
    /// the engine's commit path for everything a handler buffered, so a
    /// handler fanning out N follow-ups costs one reservation rather
    /// than N incremental grows.
    ///
    /// # Panics
    /// Panics if any event is earlier than the current clock.
    pub fn schedule_batch<I>(&mut self, batch: I)
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let it = batch.into_iter();
        self.heap.reserve(it.size_hint().0);
        for (at, event) in it {
            self.schedule(at, event);
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "heap yielded an event in the past");
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Discards all pending events without moving the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Keeps only the pending events for which `keep` returns true,
    /// preserving each survivor's original `(time, sequence)` position —
    /// the relative order of surviving events is unchanged.
    ///
    /// This is the cancellation primitive interruptible protocols need: a
    /// fault handler can drop the phase events of an aborted round without
    /// disturbing unrelated events.
    pub fn retain<F: FnMut(&E) -> bool>(&mut self, mut keep: F) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|Reverse(e)| keep(&e.event))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), "c");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), ());
        q.pop();
        q.schedule(SimTime::from_secs(5.0), ());
    }

    #[test]
    fn retain_cancels_without_reordering_survivors() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        for i in 0..6 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_secs(1.0), 100);
        q.retain(|&e| e % 2 == 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![100, 0, 2, 4]);
    }

    #[test]
    fn retain_keeps_clock_and_sequence_discipline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(2.0), "b");
        q.pop();
        q.retain(|_| true);
        assert_eq!(q.now(), SimTime::from_secs(1.0));
        // New events scheduled after a retain still pop after survivors
        // at the same instant.
        q.schedule(SimTime::from_secs(2.0), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c"]);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1.0), ());
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
