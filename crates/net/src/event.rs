//! A deterministic virtual-time event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Min-heap wrapper: earliest time first, then insertion order.
#[derive(Debug)]
struct HeapEntry<T>(Event<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on (time, seq).
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A virtual-time priority queue with deterministic ordering.
///
/// The KleeNet execution model "executes an event of a node and advances
/// the time to the next event in the queue" (§IV); determinism matters
/// because the state-mapping comparison runs the same scenario three
/// times and the discovered path sets must be comparable.
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
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
}

impl<T: std::fmt::Debug> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
    pub fn from_parts(next_seq: u64, events: impl IntoIterator<Item = Event<T>>) -> Self {
        EventQueue {
            heap: events.into_iter().map(HeapEntry).collect(),
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
        self.heap.push(HeapEntry(Event { time, seq, payload }));
        sde_trace::record(|| sde_trace::TraceEvent::QueuePush { time, seq });
        seq
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| e.0)
    }

    /// The earliest event without removing it.
    pub fn peek(&self) -> Option<&Event<T>> {
        self.heap.peek().map(|e| &e.0)
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterates over pending events in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Event<T>> {
        self.heap.iter().map(|e| &e.0)
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
