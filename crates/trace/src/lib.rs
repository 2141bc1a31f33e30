//! `sde-trace` — low-overhead structured execution tracing for SDE.
//!
//! The observability substrate of the workspace: the engine, the state
//! mappers, the solver and the network layer emit [`TraceEvent`]s into a
//! [`TraceSink`]. The crate is a dependency-free leaf — events carry only
//! plain integers — so every other crate can record without cycles.
//!
//! Design points (DESIGN.md §7):
//!
//! * **No-op by default.** [`NoopSink`] reports itself disabled, so an
//!   untraced run pays one branch per instrumentation site (<2% on the
//!   tiny bench preset).
//! * **Deterministic traces.** Engine events are emitted only by the
//!   serial (merge) thread — a traced sharded run offloads nothing to its
//!   workers. The deterministic JSONL export omits wall-clock fields, so
//!   the same scenario produces byte-identical traces at any worker
//!   count.
//! * **Thread-local sink.** The solver and the event queue sit below the
//!   engine in the crate graph and take no sink parameter; they reach the
//!   active sink through [`thread_sink`]/[`record`], installed per thread
//!   by the engine ([`install`]).
//!
//! Exporters: JSONL ([`to_jsonl`]/[`parse_jsonl`], round-trips exactly in
//! full mode) and Chrome `trace_event` ([`write_chrome_trace`], loadable
//! in `chrome://tracing` / Perfetto). [`Lineage`] reconstructs any state's
//! fork ancestry from an event stream. Both exporters, and every other
//! JSON text the workspace writes or reads, go through [`json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
pub mod json;
mod lineage;
mod sink;
mod summary;

pub use event::{
    DispatchKind, ForkReason, GroupLayer, QueryLayer, TimedEvent, TraceEvent, Verdict,
};
pub use export::{parse_jsonl, read_jsonl, to_jsonl, write_chrome_trace, write_jsonl};
pub use json::{parse_flat_object, Json};
pub use lineage::{Lineage, LineageStep};
pub use sink::{NoopSink, RingSink, TraceSink, DEFAULT_RING_CAPACITY};
pub use summary::TraceSummary;

use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static THREAD_SINK: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Install `sink` as this thread's active sink, returning the previous
/// one. Pass `None` to uninstall.
fn set_thread_sink(sink: Option<Arc<dyn TraceSink>>) -> Option<Arc<dyn TraceSink>> {
    THREAD_SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
}

/// This thread's active sink, if one is installed and enabled.
pub fn thread_sink() -> Option<Arc<dyn TraceSink>> {
    THREAD_SINK.with(|s| s.borrow().clone().filter(|s| s.enabled()))
}

/// Record an event through this thread's sink. The closure only runs when
/// an enabled sink is installed, so call sites pay one branch otherwise.
pub fn record<F: FnOnce() -> TraceEvent>(f: F) {
    THREAD_SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            if sink.enabled() {
                sink.record(f());
            }
        }
    });
}

/// RAII guard restoring the previously installed thread sink on drop.
pub struct SinkGuard {
    previous: Option<Arc<dyn TraceSink>>,
    armed: bool,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        if self.armed {
            set_thread_sink(self.previous.take());
        }
    }
}

/// Install `sink` on this thread for the lifetime of the returned guard.
pub fn install(sink: Arc<dyn TraceSink>) -> SinkGuard {
    SinkGuard {
        previous: set_thread_sink(Some(sink)),
        armed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run's worth of events: every variant at least once, forming a
    /// valid fork forest.
    pub(crate) fn sample_events() -> Vec<TimedEvent> {
        let evs = vec![
            TraceEvent::Boot { state: 1, node: 0 },
            TraceEvent::Boot { state: 2, node: 1 },
            TraceEvent::QueuePush { time: 0, seq: 1 },
            TraceEvent::Dispatch {
                state: 1,
                node: 0,
                kind: DispatchKind::Boot,
                time: 0,
            },
            TraceEvent::Fork {
                parent: 1,
                child: 3,
                node: 0,
                reason: ForkReason::Branch,
            },
            TraceEvent::MapBranch {
                parent: 1,
                child: 3,
                node: 0,
                forked: vec![4, 5],
            },
            TraceEvent::Fork {
                parent: 2,
                child: 4,
                node: 1,
                reason: ForkReason::Mapping,
            },
            TraceEvent::Fork {
                parent: 2,
                child: 5,
                node: 1,
                reason: ForkReason::Mapping,
            },
            TraceEvent::Send {
                state: 1,
                node: 0,
                dest: 1,
                packet: 1,
            },
            TraceEvent::MapSend {
                state: 1,
                node: 0,
                dest: 1,
                packet: 1,
                targets: vec![2],
                forked: vec![],
                groups: 3,
            },
            TraceEvent::Deliver {
                state: 2,
                node: 1,
                packet: 1,
                duplicate: false,
            },
            TraceEvent::Drop {
                state: 4,
                node: 1,
                packet: 1,
            },
            TraceEvent::PartitionDrop {
                state: 5,
                node: 1,
                packet: 2,
                until: 750,
            },
            TraceEvent::Query {
                layer: QueryLayer::Solve,
                verdict: Verdict::Sat,
                groups: 2,
                dur_us: 37,
            },
            TraceEvent::QueryGroup {
                layer: GroupLayer::Exact,
            },
            TraceEvent::StatePruned {
                state: 3,
                node: 0,
                survivor: 1,
                time: 5,
            },
            TraceEvent::BugFound {
                state: 4,
                node: 1,
                time: 7,
                kind: "invariant violated".to_string(),
            },
            TraceEvent::ShrinkStep {
                step: 0,
                axis: "axis".to_string(),
                entries: 6,
                kept: true,
            },
        ];
        evs.into_iter()
            .enumerate()
            .map(|(i, ev)| TimedEvent {
                ts_us: (i as u64) * 10,
                ev,
            })
            .collect()
    }

    #[test]
    fn ring_sink_bounds_and_counts_evictions() {
        let ring = RingSink::new(4);
        for i in 0..10 {
            ring.record(TraceEvent::QueuePush { time: i, seq: i });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let kept: Vec<u64> = ring
            .events()
            .iter()
            .map(|te| match te.ev {
                TraceEvent::QueuePush { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn unbounded_ring_sink_drops_nothing() {
        let ring = RingSink::new(usize::MAX);
        for i in 0..1000 {
            ring.record(TraceEvent::QueuePush { time: i, seq: i });
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.take().len(), 1000);
        assert!(ring.is_empty());
    }

    #[test]
    fn lineage_reconstructs_ancestry() {
        let events = sample_events();
        let evs: Vec<&TraceEvent> = events.iter().map(|te| &te.ev).collect();
        let lineage = Lineage::from_events(evs).unwrap();
        lineage.validate().unwrap();
        assert_eq!(lineage.roots().len(), 2);
        let chain = lineage.ancestry(5).unwrap();
        assert_eq!(
            chain
                .iter()
                .map(|s| (s.state, s.created_by))
                .collect::<Vec<_>>(),
            vec![(2, None), (5, Some(ForkReason::Mapping))]
        );
    }

    #[test]
    fn lineage_rejects_double_parent_and_orphans() {
        let double = [
            TraceEvent::Boot { state: 1, node: 0 },
            TraceEvent::Fork {
                parent: 1,
                child: 2,
                node: 0,
                reason: ForkReason::Branch,
            },
            TraceEvent::Fork {
                parent: 1,
                child: 2,
                node: 0,
                reason: ForkReason::Mapping,
            },
        ];
        assert!(Lineage::from_events(double.iter()).is_err());

        let orphan = [
            TraceEvent::Boot { state: 1, node: 0 },
            TraceEvent::Dispatch {
                state: 9,
                node: 0,
                kind: DispatchKind::Timer,
                time: 3,
            },
        ];
        let l = Lineage::from_events(orphan.iter()).unwrap();
        assert!(l.validate().is_err());
    }

    #[test]
    fn thread_sink_guard_installs_and_restores() {
        assert!(thread_sink().is_none());
        let ring = Arc::new(RingSink::new(16));
        {
            let _guard = install(ring.clone());
            assert!(thread_sink().is_some());
            record(|| TraceEvent::QueuePush { time: 7, seq: 7 });
        }
        assert!(thread_sink().is_none());
        record(|| unreachable!("no sink installed"));
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ev, TraceEvent::QueuePush { time: 7, seq: 7 });
    }

    #[test]
    fn noop_sink_is_disabled() {
        let noop = Arc::new(NoopSink);
        let _guard = install(noop);
        assert!(thread_sink().is_none());
        record(|| unreachable!("disabled sink must not construct events"));
    }

    #[test]
    fn summary_key_excludes_walls() {
        let mut s = TraceSummary {
            forks: [3, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            ..TraceSummary::default()
        };
        let key = s.deterministic_key(9, 0);
        s.run_wall_us = 1_000_000;
        assert_eq!(s.deterministic_key(9, 0), key);
        assert!(s.render().contains("run 1000.0ms"));
    }

    #[test]
    fn counter_enums_index_their_own_slots() {
        for (i, reason) in ForkReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i, "{reason:?}");
        }
        for (i, kind) in DispatchKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn summary_counters_render_by_name() {
        let s = TraceSummary {
            forks: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            dispatches: [11, 12, 13],
            packets_delivered: 15,
            packets_dropped: 16,
            ..TraceSummary::default()
        };
        assert_eq!(
            s.deterministic_key(14, 17),
            "forks branch=1 mapping=2 drop=3 duplicate=4 reboot=5 latency=6 corrupt=7 \
             crash=8 partition=9 heal=10 packets sent=14 delivered=15 dropped=16 \
             dispatch boot=11 timer=12 deliver=13 bugs=17"
        );
        assert!(s.render().contains(
            "dispatch: boot=11 timer=12 deliver=13\n\
             forks: branch=1 mapping=2 drop=3 duplicate=4 reboot=5 latency=6 corrupt=7 \
             crash=8 partition=9 heal=10 (total 55)\n"
        ));
    }
}
