//! The benchmark-owned trace sink and the spans derived from it.
//!
//! The engine is not instrumented for timing; it only emits its ordinary
//! `TraceEvent`s. This sink stamps each with a monotonic nanosecond clock
//! and keeps a compact record in memory; spans are cut afterwards:
//!
//! * `dispatch` — from one `Dispatch` event to the next (the last one ends
//!   with the run); its id is the dispatch index.
//! * `map_send` — from a `Send` to the `MapSend` that answers it (the
//!   engine emits the two immediately around `StateMapper::map_send`).
//! * `solver.query` — the `dur_us` ending at each `Query` event.
//!
//! Children carry the index of the dispatch that caused them. A
//! dispatch's self time is its duration minus what its children cover.

use sde::trace::{DispatchKind, GroupLayer, TraceEvent, TraceSink};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
enum Rec {
    Dispatch {
        state: u64,
        node: u16,
        kind: DispatchKind,
    },
    Send,
    MapSend {
        targets: u32,
        forked: u32,
    },
    Query {
        dur_us: u64,
    },
}

#[derive(Debug, Default)]
struct Inner {
    recs: Vec<(u64, Rec)>,
    events: u64,
    queue_pushes: u64,
    groups_hit: u64,
    groups_solved: u64,
}

/// Records what the span derivation needs and counts the rest.
#[derive(Debug)]
pub struct SpanSink {
    start: Instant,
    inner: Mutex<Inner>,
}

impl SpanSink {
    pub fn new() -> SpanSink {
        SpanSink {
            start: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Ends recording and cuts the spans; the last dispatch ends now.
    pub fn finish(&self) -> Trace {
        let end_ns = self.start.elapsed().as_nanos() as u64;
        let inner = std::mem::take(&mut *self.inner.lock().expect("sink lock poisoned"));
        let mut trace = cut_spans(&inner.recs, end_ns);
        trace.events = inner.events;
        trace.queue_pushes = inner.queue_pushes;
        trace.groups_hit = inner.groups_hit;
        trace.groups_solved = inner.groups_solved;
        trace
    }
}

impl TraceSink for SpanSink {
    fn record(&self, ev: TraceEvent) {
        let t = self.start.elapsed().as_nanos() as u64;
        // Uncontended: traced runs execute on one thread.
        let mut inner = self.inner.lock().expect("sink lock poisoned");
        inner.events += 1;
        let rec = match ev {
            TraceEvent::Dispatch {
                state, node, kind, ..
            } => Rec::Dispatch { state, node, kind },
            TraceEvent::Send { .. } => Rec::Send,
            TraceEvent::MapSend {
                targets, forked, ..
            } => Rec::MapSend {
                targets: targets.len() as u32,
                forked: forked.len() as u32,
            },
            TraceEvent::Query { dur_us, .. } => Rec::Query { dur_us },
            TraceEvent::QueuePush { .. } => {
                inner.queue_pushes += 1;
                return;
            }
            TraceEvent::QueryGroup { layer } => {
                match layer {
                    GroupLayer::Solve => inner.groups_solved += 1,
                    GroupLayer::Exact | GroupLayer::Reuse | GroupLayer::Ucore => {
                        inner.groups_hit += 1
                    }
                }
                return;
            }
            _ => return,
        };
        inner.recs.push((t, rec));
    }
}

/// One `dispatch` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    pub start_ns: u64,
    pub end_ns: u64,
    pub state: u64,
    pub node: u16,
    pub kind: DispatchKind,
    /// Nanoseconds of this span no child covers.
    pub self_ns: u64,
}

/// One child span (`map_send` or `solver.query`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Child {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the dispatch that caused it; `None` during boot.
    pub dispatch: Option<usize>,
    /// `map_send`: receivers mapped. `solver.query`: unused (0).
    pub targets: u32,
    /// `map_send`: states the mapper forked.
    pub forked: u32,
}

/// Everything one traced run yields.
#[derive(Debug, Default)]
pub struct Trace {
    pub dispatches: Vec<Dispatch>,
    pub map_sends: Vec<Child>,
    pub queries: Vec<Child>,
    pub events: u64,
    pub queue_pushes: u64,
    /// Independence groups answered above the search (exact, reuse, ucore).
    pub groups_hit: u64,
    /// Independence groups that needed a real solve.
    pub groups_solved: u64,
}

/// Nanoseconds of `parent` not covered by any of `children`. Children are
/// clipped to the parent and may nest, overlap or touch.
pub fn self_time_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (p_start, p_end) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = p_start;
    for &(start, end) in children.iter() {
        let start = start.max(reach);
        let end = end.min(p_end);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (p_end - p_start).saturating_sub(covered)
}

fn cut_spans(recs: &[(u64, Rec)], end_ns: u64) -> Trace {
    let mut trace = Trace::default();
    let mut send_started: Option<u64> = None;
    // Children of the dispatch currently open, for its self time.
    let mut open_children: Vec<(u64, u64)> = Vec::new();

    fn close(trace: &mut Trace, children: &mut Vec<(u64, u64)>, at: u64) {
        if let Some(d) = trace.dispatches.last_mut() {
            d.end_ns = at;
            d.self_ns = self_time_ns((d.start_ns, at), children);
        }
        children.clear();
    }

    for &(t, rec) in recs {
        let current = trace.dispatches.len().checked_sub(1);
        match rec {
            Rec::Dispatch { state, node, kind } => {
                close(&mut trace, &mut open_children, t);
                trace.dispatches.push(Dispatch {
                    start_ns: t,
                    end_ns: t,
                    state,
                    node,
                    kind,
                    self_ns: 0,
                });
            }
            Rec::Send => send_started = Some(t),
            Rec::MapSend { targets, forked } => {
                let start_ns = send_started.take().unwrap_or(t);
                open_children.push((start_ns, t));
                trace.map_sends.push(Child {
                    start_ns,
                    end_ns: t,
                    dispatch: current,
                    targets,
                    forked,
                });
            }
            Rec::Query { dur_us } => {
                let start_ns = t.saturating_sub(dur_us * 1000);
                open_children.push((start_ns, t));
                trace.queries.push(Child {
                    start_ns,
                    end_ns: t,
                    dispatch: current,
                    targets: 0,
                    forked: 0,
                });
            }
        }
    }
    close(&mut trace, &mut open_children, end_ns);
    trace
}

/// Spans written to the Chrome trace; past this the file only grows
/// (flood10_sds has ~260 000 spans) without showing anything new.
pub const CHROME_SPAN_CAP: usize = 100_000;

impl Trace {
    pub fn span_count(&self) -> usize {
        self.dispatches.len() + self.map_sends.len() + self.queries.len()
    }

    /// Writes the first [`CHROME_SPAN_CAP`] spans (by start time) in Chrome
    /// `trace_event` format (open in `chrome://tracing` or
    /// <https://ui.perfetto.dev>). Returns how many spans were written.
    pub fn write_chrome(&self, mut out: impl Write, workload: &str) -> std::io::Result<usize> {
        // (start, which list, index): cheap to sort even for 10^6 spans.
        let mut order: Vec<(u64, u8, usize)> = Vec::with_capacity(self.span_count());
        order.extend(
            self.dispatches
                .iter()
                .enumerate()
                .map(|(i, d)| (d.start_ns, 0, i)),
        );
        order.extend(
            self.map_sends
                .iter()
                .enumerate()
                .map(|(i, c)| (c.start_ns, 1, i)),
        );
        order.extend(
            self.queries
                .iter()
                .enumerate()
                .map(|(i, c)| (c.start_ns, 2, i)),
        );
        order.sort_unstable();
        order.truncate(CHROME_SPAN_CAP);

        let parent = |c: &Child| c.dispatch.map_or("null".to_string(), |d| d.to_string());
        write!(
            out,
            "{{\"otherData\":{{\"workload\":\"{workload}\",\"spans_total\":{},\
             \"spans_written\":{}}},\"traceEvents\":[",
            self.span_count(),
            order.len()
        )?;
        for (n, &(_, list, i)) in order.iter().enumerate() {
            let (name, cat, start_ns, end_ns, args) = match list {
                0 => {
                    let d = &self.dispatches[i];
                    let args = format!(
                        "\"id\":{i},\"state\":{},\"node\":{},\"kind\":\"{}\",\"self_us\":{:.3}",
                        d.state,
                        d.node,
                        d.kind.as_str(),
                        d.self_ns as f64 / 1000.0
                    );
                    ("dispatch", "engine", d.start_ns, d.end_ns, args)
                }
                1 => {
                    let c = &self.map_sends[i];
                    let args = format!(
                        "\"dispatch\":{},\"targets\":{},\"forked\":{}",
                        parent(c),
                        c.targets,
                        c.forked
                    );
                    ("map_send", "mapping", c.start_ns, c.end_ns, args)
                }
                _ => {
                    let c = &self.queries[i];
                    let args = format!("\"dispatch\":{}", parent(c));
                    ("solver.query", "solver", c.start_ns, c.end_ns, args)
                }
            };
            write!(
                out,
                "{}\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                if n > 0 { "," } else { "" },
                start_ns as f64 / 1000.0,
                (end_ns - start_ns) as f64 / 1000.0,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(order.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children() {
        // Parent 0..100.
        assert_eq!(self_time_ns((0, 100), &mut []), 100);
        // Adjacent children 10..20 and 20..30 cover 20.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (20, 30)]), 80);
        // A child nested in another adds nothing: 10..50 ⊃ 20..30.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 50), (20, 30)]), 60);
        // Overlap 10..40 ∪ 30..60 = 50; order must not matter.
        assert_eq!(self_time_ns((0, 100), &mut [(30, 60), (10, 40)]), 50);
        // Children are clipped to the parent (a query that started before
        // the dispatch event was stamped).
        assert_eq!(self_time_ns((50, 100), &mut [(40, 60), (90, 120)]), 30);
        // Fully covered, and over-covered, never underflow.
        assert_eq!(self_time_ns((0, 10), &mut [(0, 10), (0, 10)]), 0);
    }

    fn dispatch(state: u64) -> Rec {
        Rec::Dispatch {
            state,
            node: 0,
            kind: DispatchKind::Timer,
        }
    }

    #[test]
    fn spans_are_cut_at_dispatch_boundaries_with_children_attached() {
        let recs = [
            // A boot-time query, before any dispatch.
            (5_000, Rec::Query { dur_us: 2 }),
            (10_000, dispatch(1)),
            (11_000, Rec::Send),
            (
                14_000,
                Rec::MapSend {
                    targets: 3,
                    forked: 1,
                },
            ),
            (20_000, dispatch(2)),
            (26_000, Rec::Query { dur_us: 4 }),
        ];
        let trace = cut_spans(&recs, 30_000);

        assert_eq!(trace.dispatches.len(), 2);
        let (a, b) = (trace.dispatches[0], trace.dispatches[1]);
        assert_eq!((a.start_ns, a.end_ns, a.state), (10_000, 20_000, 1));
        assert_eq!(a.self_ns, 7_000, "10 us minus the 3 us map_send");
        assert_eq!((b.start_ns, b.end_ns, b.state), (20_000, 30_000, 2));
        assert_eq!(b.self_ns, 6_000, "10 us minus the 4 us query");

        assert_eq!(trace.map_sends.len(), 1);
        let m = trace.map_sends[0];
        assert_eq!(
            (m.start_ns, m.end_ns, m.dispatch),
            (11_000, 14_000, Some(0))
        );
        assert_eq!((m.targets, m.forked), (3, 1));

        assert_eq!(trace.queries.len(), 2);
        assert_eq!(trace.queries[0].dispatch, None, "boot query has no parent");
        assert_eq!(
            (trace.queries[1].start_ns, trace.queries[1].dispatch),
            (22_000, Some(1))
        );
    }

    #[test]
    fn the_sink_keeps_span_events_and_counts_the_rest() {
        let sink = SpanSink::new();
        sink.record(TraceEvent::QueuePush { time: 0, seq: 0 });
        sink.record(TraceEvent::Dispatch {
            state: 7,
            node: 2,
            kind: DispatchKind::Deliver,
            time: 0,
        });
        sink.record(TraceEvent::QueryGroup {
            layer: GroupLayer::Exact,
        });
        sink.record(TraceEvent::QueryGroup {
            layer: GroupLayer::Solve,
        });
        sink.record(TraceEvent::Boot { state: 0, node: 0 });
        let trace = sink.finish();
        assert_eq!(trace.events, 5);
        assert_eq!(trace.queue_pushes, 1);
        assert_eq!((trace.groups_hit, trace.groups_solved), (1, 1));
        assert_eq!(trace.dispatches.len(), 1);
        assert_eq!(trace.dispatches[0].state, 7);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_capped() {
        let recs = [
            (1_000, dispatch(1)),
            (1_200, Rec::Send),
            (
                1_700,
                Rec::MapSend {
                    targets: 2,
                    forked: 0,
                },
            ),
            (2_000, dispatch(2)),
            (2_900, Rec::Query { dur_us: 0 }),
        ];
        let trace = cut_spans(&recs, 3_000);
        let mut file = Vec::new();
        assert_eq!(trace.write_chrome(&mut file, "unit").unwrap(), 4);
        let doc = crate::json::parse(std::str::from_utf8(&file).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["dispatch", "map_send", "dispatch", "solver.query"]);
        assert_eq!(events[1].get("args").unwrap().num("dispatch"), 0.0);
        assert_eq!(events[1].num("dur"), 0.5);
    }
}
