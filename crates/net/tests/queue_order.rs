//! The calendar [`EventQueue`] against the binary heap it replaced.
//!
//! A seeded script of every public operation runs on the queue and on a
//! `BinaryHeap<Reverse<(time, seq)>>` model side by side: pushes at
//! non-decreasing times (as the engine schedules) and at arbitrary earlier
//! ones (the API allows them), pops, peeks, `len`, `iter` as a multiset,
//! and a rebuild through `from_parts` from a shuffled export of the queue
//! in mid-script. Every pop must name the model's `(time, seq)` minimum.

use proptest::TestRng;
use sde_net::{Event, EventQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const CASES: u64 = 8;
const OPS: u64 = 20_000;

/// `(time, seq, payload)` of every queued event, sorted.
fn contents(queue: &EventQueue<u64>) -> Vec<(u64, u64, u64)> {
    let mut all: Vec<_> = queue.iter().map(|e| (e.time, e.seq, *e.payload)).collect();
    all.sort_unstable();
    all
}

fn model_contents(model: &BinaryHeap<Reverse<(u64, u64, u64)>>) -> Vec<(u64, u64, u64)> {
    let mut all: Vec<_> = model.iter().map(|Reverse(e)| *e).collect();
    all.sort_unstable();
    all
}

fn run_case(case: u64) {
    let mut rng = TestRng::for_case(0x26, case);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    // The time of the last pop: the engine's virtual clock.
    let mut now = 0u64;
    // Even cases keep the engine's discipline; odd ones also push into
    // the past.
    let earlier = case % 2 == 1;
    for op in 0..OPS {
        match rng.below(20) {
            0..=7 => {
                // Bursts at one time, as a broadcast schedules them.
                let time = now + rng.below(8) * rng.below(6);
                let seq = queue.push(time, op);
                model.push(Reverse((time, seq, op)));
            }
            8 if earlier => {
                let time = rng.below(now + 1);
                let seq = queue.push(time, op);
                model.push(Reverse((time, seq, op)));
            }
            9..=15 => {
                let popped = queue.pop().map(|e| (e.time, e.seq, e.payload));
                assert_eq!(
                    popped,
                    model.pop().map(|Reverse(e)| e),
                    "case {case} op {op}"
                );
                if let Some((time, ..)) = popped {
                    now = now.max(time);
                }
            }
            16 | 17 => {
                let head = model.peek().map(|Reverse(e)| *e);
                let peeked = queue.peek().map(|e| (e.time, e.seq, *e.payload));
                assert_eq!(peeked, head, "case {case} op {op}");
                assert_eq!(queue.peek_time(), head.map(|e| e.0), "case {case} op {op}");
            }
            18 => assert_eq!(
                contents(&queue),
                model_contents(&model),
                "case {case} op {op}"
            ),
            _ => {
                if rng.below(50) == 0 {
                    // A snapshot round trip: export in any order, rebuild.
                    let mut export: Vec<Event<u64>> = queue
                        .iter()
                        .map(|e| Event {
                            time: e.time,
                            seq: e.seq,
                            payload: *e.payload,
                        })
                        .collect();
                    for i in (1..export.len()).rev() {
                        export.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    queue = EventQueue::from_parts(queue.next_seq(), export);
                    assert_eq!(
                        contents(&queue),
                        model_contents(&model),
                        "case {case} op {op}"
                    );
                }
            }
        }
        assert_eq!(queue.len(), model.len(), "case {case} op {op}");
        assert_eq!(queue.is_empty(), model.is_empty(), "case {case} op {op}");
    }
    // Drain: the whole remaining order.
    while let Some(Reverse(expected)) = model.pop() {
        let popped = queue.pop().map(|e| (e.time, e.seq, e.payload));
        assert_eq!(popped, Some(expected), "case {case} drain");
    }
    assert!(queue.pop().is_none());
}

#[test]
fn calendar_queue_pops_in_the_binary_heaps_order() {
    for case in 0..CASES {
        run_case(case);
    }
}
