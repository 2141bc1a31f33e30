//! A deterministic virtual-time event queue.

use std::collections::{BTreeMap, VecDeque};

/// An event scheduled at a virtual time, carrying an arbitrary payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// Virtual time in milliseconds.
    pub time: u64,
    /// Insertion sequence number; makes ordering deterministic (FIFO among
    /// simultaneous events).
    pub seq: u64,
    /// The payload (the engine stores `(state, event kind)` pairs).
    pub payload: T,
}

/// A virtual-time priority queue with deterministic ordering.
///
/// The KleeNet execution model "executes an event of a node and advances
/// the time to the next event in the queue" (§IV); determinism matters
/// because the state-mapping comparison runs the same scenario three
/// times and the discovered path sets must be comparable.
///
/// A calendar queue: one FIFO bucket per distinct pending time, the
/// buckets ordered by time. Events leave in `(time, seq)` order. Push
/// appends to its time's bucket, and that keeps the bucket sorted by
/// `seq`, because every push takes a larger `seq` than any queued event.
/// Pop takes the front of the first bucket. Neither compares events; a
/// run has far fewer distinct pending times than pending events, and only
/// the time lookup depends on how many there are.
///
/// # Examples
///
/// ```
/// use sde_net::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(10, "late");
/// q.push(5, "early");
/// q.push(5, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "early-second");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Pending events by time; no bucket is empty.
    buckets: BTreeMap<u64, VecDeque<Event<T>>>,
    len: usize,
    next_seq: u64,
}

impl<T: std::fmt::Debug> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            len: 0,
            next_seq: 0,
        }
    }
}

impl<T: std::fmt::Debug> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a queue from previously exported events (snapshot
    /// restore). Each event keeps its original `seq`, and the counter is
    /// restored to `next_seq`, so subsequent pushes continue the exact
    /// sequence of the run that was snapshotted. Unlike
    /// [`EventQueue::push`], no trace event is recorded — the pushes were
    /// already traced by the original run.
    ///
    /// Every event's `seq` must be below `next_seq`, as in any export.
    pub fn from_parts(next_seq: u64, events: impl IntoIterator<Item = Event<T>>) -> Self {
        let mut events: Vec<Event<T>> = events.into_iter().collect();
        debug_assert!(events.iter().all(|e| e.seq < next_seq));
        events.sort_unstable_by_key(|e| (e.time, e.seq));
        let len = events.len();
        let mut buckets: BTreeMap<u64, VecDeque<Event<T>>> = BTreeMap::new();
        for event in events {
            buckets.entry(event.time).or_default().push_back(event);
        }
        EventQueue {
            buckets,
            len,
            next_seq,
        }
    }

    /// The sequence number the next [`EventQueue::push`] will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `payload` at virtual time `time`.
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event { time, seq, payload };
        self.buckets.entry(time).or_default().push_back(event);
        self.len += 1;
        sde_trace::record(|| sde_trace::TraceEvent::QueuePush { time, seq });
        seq
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<T>> {
        let mut first = self.buckets.first_entry()?;
        let event = first.get_mut().pop_front().expect("no bucket is empty");
        if first.get().is_empty() {
            first.remove();
        }
        self.len -= 1;
        Some(event)
    }

    /// The earliest event without removing it.
    pub fn peek(&self) -> Option<&Event<T>> {
        self.buckets.values().next().and_then(VecDeque::front)
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.buckets.keys().next().copied()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over pending events in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Event<T>> {
        self.buckets.values().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(10, 'b');
        q.push(20, 'x');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'x', 'c']);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.peek().map(|e| e.seq), Some(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn seq_numbers_are_returned() {
        let mut q = EventQueue::new();
        assert_eq!(q.push(1, ()), 0);
        assert_eq!(q.push(1, ()), 1);
    }

    #[test]
    fn from_parts_restores_order_and_sequence() {
        let mut q = EventQueue::new();
        q.push(10, 'b');
        q.push(5, 'a');
        q.push(10, 'c');
        let events: Vec<Event<char>> = q.iter().cloned().collect();
        let mut q2 = EventQueue::from_parts(q.next_seq(), events);
        assert_eq!(q2.next_seq(), 3);
        assert_eq!(q2.push(1, 'd'), 3, "push continues the sequence");
        let order: Vec<char> = std::iter::from_fn(|| q2.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!['d', 'a', 'b', 'c']);
    }
}
