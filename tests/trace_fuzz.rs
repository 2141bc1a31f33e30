//! Mutate → `Err` coverage for trace JSONL, the file `--trace` writes and
//! the lineage tools read back.
//!
//! The input is a real trace: what `table1 --preset tiny --trace t.jsonl`
//! writes as `t_cow.jsonl` (the COW run on the 3×3 paper grid, the tiny
//! preset's caps). Each property corrupts it one way — byte flips,
//! truncation, duplicated, dropped and spliced lines, digit bombs — and
//! hands the result to every reader: [`parse_jsonl`],
//! [`Lineage::from_events`], [`Lineage::validate`] and
//! [`Lineage::ancestry`]. Each must answer `Ok` or `Err`; none may panic,
//! and in the debug profile an arithmetic overflow is a panic too.

use proptest::prelude::*;
use sde::prelude::*;
use sde::trace::{parse_jsonl, to_jsonl, Lineage, RingSink, TraceSink};
use sde_bench::paper_scenario;
use std::sync::{Arc, OnceLock};

/// The tiny preset's `t_cow.jsonl`, recorded once per test binary.
fn tiny_trace() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let scenario = paper_scenario(3)
            .with_state_cap(60_000)
            .with_sample_every(64);
        let sink = Arc::new(RingSink::default());
        Engine::new(scenario, Algorithm::Cow)
            .with_trace_sink(sink.clone() as Arc<dyn TraceSink>)
            .run();
        to_jsonl(&sink.take(), true)
    })
}

fn lines() -> Vec<&'static str> {
    tiny_trace().lines().collect()
}

/// A linear congruential step: the mutation sites of one case.
fn next(rng: &mut u64) -> u64 {
    *rng = rng
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *rng >> 17
}

fn below(rng: &mut u64, bound: usize) -> usize {
    (next(rng) % bound as u64) as usize
}

/// Runs every reader over `text`, each on what the previous one accepted.
fn read_all(text: &str) {
    let Ok(events) = parse_jsonl(text) else {
        return;
    };
    let Ok(lineage) = Lineage::from_events(events.iter().map(|e| &e.ev)) else {
        return;
    };
    let _ = lineage.validate();
    for state in lineage.states().iter().chain([&0, &u64::MAX]) {
        let _ = lineage.ancestry(*state);
    }
}

#[test]
fn the_unmutated_trace_reads_back_whole() {
    let events = parse_jsonl(tiny_trace()).expect("a written trace parses");
    assert_eq!(events.len(), lines().len());
    let lineage = Lineage::from_events(events.iter().map(|e| &e.ev)).expect("lineage");
    lineage
        .validate()
        .expect("a real run's lineage is a rooted forest");
    assert_eq!(lineage.roots().len(), 9);
    assert!(lineage.fork_count() > 0, "the tiny run forks");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to 16 bytes replaced by arbitrary ones (invalid UTF-8 read
    /// lossily, as a reader of a damaged file would).
    #[test]
    fn byte_flips_never_panic(rng in any::<u64>(), flips in 1usize..16) {
        let mut rng = rng;
        let mut bytes = tiny_trace().as_bytes().to_vec();
        for _ in 0..flips {
            let at = below(&mut rng, bytes.len());
            bytes[at] = next(&mut rng) as u8;
        }
        read_all(&String::from_utf8_lossy(&bytes));
    }

    /// The file cut anywhere, mid-line included.
    #[test]
    fn truncations_never_panic(rng in any::<u64>()) {
        let mut rng = rng;
        let text = tiny_trace();
        read_all(&text[..below(&mut rng, text.len() + 1)]);
    }

    /// Lines repeated elsewhere: a state booted or forked twice, a fork
    /// of a state the trace has not created yet.
    #[test]
    fn duplicated_lines_never_panic(rng in any::<u64>(), copies in 1usize..8) {
        let mut rng = rng;
        let mut lines = lines();
        for _ in 0..copies {
            let line = lines[below(&mut rng, lines.len())];
            let at = below(&mut rng, lines.len() + 1);
            lines.insert(at, line);
        }
        read_all(&lines.join("\n"));
    }

    /// Lines removed: forks whose parent was never booted.
    #[test]
    fn dropped_lines_never_panic(rng in any::<u64>(), drops in 1usize..64) {
        let mut rng = rng;
        let mut lines = lines();
        for _ in 0..drops.min(lines.len()) {
            let at = below(&mut rng, lines.len());
            lines.remove(at);
        }
        read_all(&lines.join("\n"));
    }

    /// Lines glued from the head of one and the tail of another, and
    /// runs of lines moved to another place.
    #[test]
    fn spliced_lines_never_panic(rng in any::<u64>(), splices in 1usize..8) {
        let mut rng = rng;
        let mut lines: Vec<String> = lines().into_iter().map(str::to_string).collect();
        for _ in 0..splices {
            let (a, b) = (below(&mut rng, lines.len()), below(&mut rng, lines.len()));
            let head = lines[a][..below(&mut rng, lines[a].len() + 1)].to_string();
            let tail = lines[b][below(&mut rng, lines[b].len() + 1)..].to_string();
            lines[a] = head + &tail;
            let from = below(&mut rng, lines.len());
            let to = (from + below(&mut rng, 32)).min(lines.len());
            let run: Vec<String> = lines.drain(from..to).collect();
            let at = below(&mut rng, lines.len() + 1);
            lines.splice(at..at, run);
        }
        read_all(&lines.join("\n"));
    }

    /// Numbers replaced by ones no field can hold: past `u64::MAX`, at the
    /// edges of every width, negative, fractional, exponent, hundreds of
    /// digits long.
    #[test]
    fn digit_bombs_never_panic(rng in any::<u64>(), bombs in 1usize..8) {
        const BOMBS: [&str; 10] = [
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999999999999999999",
            "4294967296",
            "65536",
            "-1",
            "0.5",
            "1e400",
            "00000000000000000000000000000000000000001",
            "",
        ];
        let mut rng = rng;
        let mut lines: Vec<String> = lines().into_iter().map(str::to_string).collect();
        for _ in 0..bombs {
            let at = below(&mut rng, lines.len());
            let line = &mut lines[at];
            let digits: Vec<usize> = line
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                continue;
            }
            let start = digits[below(&mut rng, digits.len())];
            let end = line[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |n| start + n);
            let bomb = if next(&mut rng).is_multiple_of(4) {
                "9".repeat(1 + below(&mut rng, 400))
            } else {
                BOMBS[below(&mut rng, BOMBS.len())].to_string()
            };
            line.replace_range(start..end, &bomb);
        }
        read_all(&lines.join("\n"));
    }
}
