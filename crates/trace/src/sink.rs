//! Trace sinks: where events go.
//!
//! [`TraceSink`] is the recording interface the engine, solver and network
//! layer talk to. The default [`NoopSink`] reports itself disabled so every
//! instrumentation site reduces to one predictable branch (<2% overhead on
//! the tiny bench preset). [`RingSink`] is the one in-memory recorder:
//! bounded behind `--trace`, and with `usize::MAX` capacity for callers
//! that read a whole run back (repro artifacts, lineage checks).

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{TimedEvent, TraceEvent};

/// A destination for trace events. Implementations must be cheap and
/// thread-safe; `record` is called from hot paths. (`Debug` is a
/// supertrait so engines holding `Arc<dyn TraceSink>` can derive it.)
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Whether recording is active. Instrumentation sites skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&self, ev: TraceEvent);
}

/// The default sink: drops everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _ev: TraceEvent) {}
}

#[derive(Debug, Default)]
struct RingInner {
    events: VecDeque<TimedEvent>,
    dropped: u64,
}

/// Bounded in-memory recorder. Events past the capacity evict the oldest
/// (the eviction count is reported so truncation is never silent); at
/// `usize::MAX` capacity it keeps every event.
#[derive(Debug)]
pub struct RingSink {
    start: Instant,
    capacity: usize,
    inner: Mutex<RingInner>,
}

/// Default [`RingSink`] capacity — roomy enough that every scenario in the
/// test suites records without eviction.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

impl RingSink {
    /// A recorder holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            start: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(RingInner::default()),
        }
    }

    /// Snapshot the recorded events (oldest first).
    pub fn events(&self) -> Vec<TimedEvent> {
        self.inner.lock().unwrap().events.iter().cloned().collect()
    }

    /// Take the recorded events, leaving the recorder empty.
    pub fn take(&self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.inner.lock().unwrap().events).into()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Number of currently held events.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().events.len()
    }

    /// Whether the recorder holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for RingSink {
    fn default() -> Self {
        RingSink::new(DEFAULT_RING_CAPACITY)
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: TraceEvent) {
        let ts_us = self.start.elapsed().as_micros() as u64;
        let mut inner = self.inner.lock().unwrap();
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TimedEvent { ts_us, ev });
    }
}
