//! Trace exporters and the JSONL reader.
//!
//! Two encodings of the same event stream:
//!
//! * **JSONL** — one flat object per line, tagged `"ev"`. The
//!   *deterministic* mode omits wall-clock fields (`ts_us`, `dur_us`) so
//!   identical executions produce byte-identical files at any worker
//!   count; the *full* mode keeps them and round-trips exactly.
//! * **Chrome `trace_event`** (array form) — loadable in
//!   `chrome://tracing` / Perfetto. Solver queries become duration (`"X"`)
//!   slices; everything else is an instant event.

use std::collections::BTreeMap;

use crate::event::{
    DispatchKind, ForkReason, GroupLayer, QueryLayer, TimedEvent, TraceEvent, Verdict,
};
use crate::json::{self, parse_flat_object, Json};

type Fields = BTreeMap<String, Json>;

/// One value kind of the JSONL schema: how a field of this type is written
/// into a line and read back out of one.
trait Field: Sized {
    fn to_json(&self) -> Json;
    fn from_json(value: &Json) -> Option<Self>;
}

/// Implements [`Field`] for each type: `|v| put` writes `v`, `|j| get`
/// reads it back out of `j`.
macro_rules! fields {
    ($($ty:ty: |$v:ident| $put:expr, |$j:ident| $get:expr;)*) => {$(
        impl Field for $ty {
            fn to_json(&self) -> Json {
                let $v = self;
                $put
            }

            fn from_json($j: &Json) -> Option<$ty> {
                $get
            }
        }
    )*};
}

fields! {
    u64: |v| (*v).into(), |j| j.as_int();
    // A node id: an int that must fit in 16 bits.
    u16: |v| (*v).into(), |j| j.as_int()?.try_into().ok();
    bool: |v| (*v).into(), |j| j.as_bool();
    String: |v| v.as_str().into(), |j| j.as_str().map(str::to_string);
    Vec<u64>: |v| v.clone().into(), |j| j.as_arr()?.iter().map(Json::as_int).collect();
    // Label enums travel as their `as_str` name.
    ForkReason: |v| v.as_str().into(), |j| ForkReason::parse(j.as_str()?);
    DispatchKind: |v| v.as_str().into(), |j| DispatchKind::parse(j.as_str()?);
    QueryLayer: |v| v.as_str().into(), |j| QueryLayer::parse(j.as_str()?);
    GroupLayer: |v| v.as_str().into(), |j| GroupLayer::parse(j.as_str()?);
    Verdict: |v| v.as_str().into(), |j| Verdict::parse(j.as_str()?);
}

/// `map[key]` as a `T`, or an error naming the key.
fn get<T: Field>(map: &Fields, key: &str) -> Result<T, String> {
    let value = map
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    T::from_json(value).ok_or_else(|| format!("invalid field `{key}`: {value}"))
}

/// A wall-clock field: absent from a deterministic export, so a reader
/// takes a missing one as 0.
fn get_wall(map: &Fields, key: &str) -> Result<u64, String> {
    if map.contains_key(key) {
        get(map, key)
    } else {
        Ok(0)
    }
}

/// Implements the JSONL schema from its one field list, in key order:
/// [`TraceEvent::name`] and [`TraceEvent::VARIANTS`] from the variant
/// names, `put_fields` by destructuring each variant exhaustively (so a
/// field missing from the list fails to compile) and `get_event` by
/// reading the same keys back into a variant literal. A field after `;`
/// is wall-clock: a deterministic export omits it.
macro_rules! schema {
    ($($v:ident { $($f:ident),* $(; $wall:ident)? })*) => {
        impl TraceEvent {
            /// The variant name (also the `"ev"` tag of the JSONL encoding).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$v { .. } => stringify!($v),)*
                }
            }

            /// Every variant name, in declaration order.
            pub const VARIANTS: [&'static str; <[&str]>::len(&[$(stringify!($v)),*])] =
                [$(stringify!($v)),*];
        }

        /// Appends `ev`'s fields (not its tag) to `o`, in key order.
        fn put_fields(ev: &TraceEvent, o: &mut Vec<(String, Json)>, deterministic: bool) {
            match ev {
                $(TraceEvent::$v { $($f,)* $($wall)? } => {
                    $(o.push((stringify!($f).to_string(), Field::to_json($f)));)*
                    $(if !deterministic {
                        o.push((stringify!($wall).to_string(), Field::to_json($wall)));
                    })?
                })*
            }
        }

        /// Reads the fields of the variant tagged `tag` out of `map`.
        fn get_event(tag: &str, map: &Fields) -> Result<TraceEvent, String> {
            $(if tag == stringify!($v) {
                return Ok(TraceEvent::$v {
                    $($f: get(map, stringify!($f))?,)*
                    $($wall: get_wall(map, stringify!($wall))?)?
                });
            })*
            Err(format!("unknown event tag `{tag}`"))
        }
    };
}

schema! {
    Boot { state, node }
    QueuePush { time, seq }
    Dispatch { state, node, kind, time }
    Fork { parent, child, node, reason }
    MapBranch { parent, child, node, forked }
    MapSend { state, node, dest, packet, targets, forked, groups }
    Send { state, node, dest, packet }
    Deliver { state, node, packet, duplicate }
    Drop { state, node, packet }
    PartitionDrop { state, node, packet, until }
    Query { layer, verdict, groups; dur_us }
    QueryGroup { layer }
    StatePruned { state, node, survivor, time }
    BugFound { state, node, time, kind }
    ShrinkStep { step, axis, entries, kept }
}

/// Encode one event as a flat JSON object; deterministic mode omits the
/// wall-clock fields.
fn event_to_json(te: &TimedEvent, deterministic: bool) -> String {
    let mut o = vec![("ev".to_string(), te.ev.name().into())];
    if !deterministic {
        o.push(("ts_us".to_string(), te.ts_us.into()));
    }
    put_fields(&te.ev, &mut o, deterministic);
    Json::Obj(o).to_compact()
}

/// Render an event stream as JSONL text (one event per line, trailing
/// newline). Deterministic mode omits `ts_us`/`dur_us`.
pub fn to_jsonl(events: &[TimedEvent], deterministic: bool) -> String {
    let mut out = String::new();
    for te in events {
        out.push_str(&event_to_json(te, deterministic));
        out.push('\n');
    }
    out
}

/// Write an event stream to `path` as JSONL.
pub fn write_jsonl(
    path: &std::path::Path,
    events: &[TimedEvent],
    deterministic: bool,
) -> std::io::Result<()> {
    std::fs::write(path, to_jsonl(events, deterministic))
}

/// Parse one JSONL line back into an event (plus its timestamp, 0 when
/// the line came from a deterministic export).
fn event_from_json(line: &str) -> Result<TimedEvent, String> {
    let map = parse_flat_object(line)?;
    let ts_us = get_wall(&map, "ts_us")?;
    let ev = get_event(&get::<String>(&map, "ev")?, &map)?;
    Ok(TimedEvent { ts_us, ev })
}

/// Parse JSONL text (blank lines ignored) back into an event stream.
pub fn parse_jsonl(text: &str) -> Result<Vec<TimedEvent>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(event_from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

/// Read a JSONL trace file.
pub fn read_jsonl(path: &std::path::Path) -> Result<Vec<TimedEvent>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_jsonl(&text)
}

/// Render an event stream in Chrome `trace_event` JSON (the array form:
/// one object per event, written as it is built), every field of the
/// full-mode JSONL line but the tag as an arg. Queries become complete
/// (`"X"`) slices placed at `ts - dur`; all other events are instants.
fn to_chrome_trace(events: &[TimedEvent]) -> String {
    let slice = |te: &TimedEvent| {
        let mut args = Vec::new();
        put_fields(&te.ev, &mut args, false);
        let mut o = vec![("name", te.ev.name().into())];
        match te.ev {
            TraceEvent::Query { dur_us, .. } => o.extend([
                ("ph", "X".into()),
                ("ts", te.ts_us.saturating_sub(dur_us).into()),
                ("dur", dur_us.into()),
            ]),
            _ => o.extend([
                ("ph", "i".into()),
                ("s", "t".into()),
                ("ts", te.ts_us.into()),
            ]),
        }
        o.extend([
            ("pid", 1u64.into()),
            ("tid", 1u64.into()),
            ("args", Json::Obj(args)),
        ]);
        Json::obj(o)
    };
    json::compact_array(events.iter().map(slice)) + "\n"
}

/// Write an event stream to `path` in Chrome `trace_event` format.
pub fn write_chrome_trace(path: &std::path::Path, events: &[TimedEvent]) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_events;

    /// The wire format of the first sample event of each variant, full
    /// then deterministic. A round trip alone cannot catch a key renamed
    /// on both sides; these literal lines can.
    const GOLDEN: [(&str, &str); 15] = [
        (
            r#"{"ev":"Boot","ts_us":0,"state":1,"node":0}"#,
            r#"{"ev":"Boot","state":1,"node":0}"#,
        ),
        (
            r#"{"ev":"QueuePush","ts_us":20,"time":0,"seq":1}"#,
            r#"{"ev":"QueuePush","time":0,"seq":1}"#,
        ),
        (
            r#"{"ev":"Dispatch","ts_us":30,"state":1,"node":0,"kind":"boot","time":0}"#,
            r#"{"ev":"Dispatch","state":1,"node":0,"kind":"boot","time":0}"#,
        ),
        (
            r#"{"ev":"Fork","ts_us":40,"parent":1,"child":3,"node":0,"reason":"branch"}"#,
            r#"{"ev":"Fork","parent":1,"child":3,"node":0,"reason":"branch"}"#,
        ),
        (
            r#"{"ev":"MapBranch","ts_us":50,"parent":1,"child":3,"node":0,"forked":[4,5]}"#,
            r#"{"ev":"MapBranch","parent":1,"child":3,"node":0,"forked":[4,5]}"#,
        ),
        (
            r#"{"ev":"Send","ts_us":80,"state":1,"node":0,"dest":1,"packet":1}"#,
            r#"{"ev":"Send","state":1,"node":0,"dest":1,"packet":1}"#,
        ),
        (
            r#"{"ev":"MapSend","ts_us":90,"state":1,"node":0,"dest":1,"packet":1,"targets":[2],"forked":[],"groups":3}"#,
            r#"{"ev":"MapSend","state":1,"node":0,"dest":1,"packet":1,"targets":[2],"forked":[],"groups":3}"#,
        ),
        (
            r#"{"ev":"Deliver","ts_us":100,"state":2,"node":1,"packet":1,"duplicate":false}"#,
            r#"{"ev":"Deliver","state":2,"node":1,"packet":1,"duplicate":false}"#,
        ),
        (
            r#"{"ev":"Drop","ts_us":110,"state":4,"node":1,"packet":1}"#,
            r#"{"ev":"Drop","state":4,"node":1,"packet":1}"#,
        ),
        (
            r#"{"ev":"PartitionDrop","ts_us":120,"state":5,"node":1,"packet":2,"until":750}"#,
            r#"{"ev":"PartitionDrop","state":5,"node":1,"packet":2,"until":750}"#,
        ),
        (
            r#"{"ev":"Query","ts_us":130,"layer":"solve","verdict":"sat","groups":2,"dur_us":37}"#,
            r#"{"ev":"Query","layer":"solve","verdict":"sat","groups":2}"#,
        ),
        (
            r#"{"ev":"QueryGroup","ts_us":140,"layer":"exact"}"#,
            r#"{"ev":"QueryGroup","layer":"exact"}"#,
        ),
        (
            r#"{"ev":"StatePruned","ts_us":150,"state":3,"node":0,"survivor":1,"time":5}"#,
            r#"{"ev":"StatePruned","state":3,"node":0,"survivor":1,"time":5}"#,
        ),
        (
            r#"{"ev":"BugFound","ts_us":160,"state":4,"node":1,"time":7,"kind":"invariant violated"}"#,
            r#"{"ev":"BugFound","state":4,"node":1,"time":7,"kind":"invariant violated"}"#,
        ),
        (
            r#"{"ev":"ShrinkStep","ts_us":170,"step":0,"axis":"axis","entries":6,"kept":true}"#,
            r#"{"ev":"ShrinkStep","step":0,"axis":"axis","entries":6,"kept":true}"#,
        ),
    ];

    /// The first sample event of each variant, in sample order.
    fn one_per_variant() -> Vec<TimedEvent> {
        let mut seen = std::collections::BTreeSet::new();
        sample_events()
            .into_iter()
            .filter(|te| seen.insert(te.ev.name()))
            .collect()
    }

    #[test]
    fn golden_lines_pin_the_wire_format() {
        let events = one_per_variant();
        assert_eq!(events.len(), GOLDEN.len());
        for (te, (full, deterministic)) in events.iter().zip(GOLDEN) {
            assert_eq!(event_to_json(te, false), full);
            assert_eq!(event_to_json(te, true), deterministic);
            assert_eq!(&event_from_json(full).unwrap(), te);
        }
    }

    #[test]
    fn the_sample_covers_every_variant() {
        let mut names: Vec<&str> = one_per_variant().iter().map(|te| te.ev.name()).collect();
        let mut variants = TraceEvent::VARIANTS.to_vec();
        names.sort_unstable();
        variants.sort_unstable();
        assert_eq!(names, variants);
    }

    /// The sample plus one event per value of every label enum.
    fn every_label() -> Vec<TimedEvent> {
        let mut evs: Vec<TraceEvent> = sample_events().into_iter().map(|te| te.ev).collect();
        evs.extend(ForkReason::ALL.map(|reason| TraceEvent::Fork {
            parent: 1,
            child: 2,
            node: 3,
            reason,
        }));
        evs.extend(DispatchKind::ALL.map(|kind| TraceEvent::Dispatch {
            state: 1,
            node: u16::MAX,
            kind,
            time: u64::MAX,
        }));
        for layer in QueryLayer::ALL {
            evs.extend(Verdict::ALL.map(|verdict| TraceEvent::Query {
                layer,
                verdict,
                groups: 0,
                dur_us: 9,
            }));
        }
        evs.extend(GroupLayer::ALL.map(|layer| TraceEvent::QueryGroup { layer }));
        evs.into_iter()
            .enumerate()
            .map(|(i, ev)| TimedEvent {
                ts_us: i as u64 * 3,
                ev,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_variant_and_label_in_full_mode() {
        let events = every_label();
        let text = to_jsonl(&events, false);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        assert_eq!(to_jsonl(&parsed, false), text);
    }

    #[test]
    fn deterministic_mode_omits_wall_clock_fields() {
        let events = every_label();
        let text = to_jsonl(&events, true);
        assert!(!text.contains("ts_us"));
        assert!(!text.contains("dur_us"));
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), events.len());
        for (p, e) in parsed.iter().zip(&events) {
            assert_eq!(p.ts_us, 0);
            match (&p.ev, &e.ev) {
                (TraceEvent::Query { dur_us, .. }, _) => assert_eq!(*dur_us, 0),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn bad_values_are_errors() {
        for line in [
            r#"{"ev":"Boot","state":1,"node":65536}"#,
            r#"{"ev":"Boot","state":1}"#,
            r#"{"ev":"Fork","parent":1,"child":2,"node":0,"reason":"fluke"}"#,
            r#"{"ev":"Query","layer":"solve","verdict":"sat","groups":2,"dur_us":"x"}"#,
            r#"{"ev":"Nope"}"#,
        ] {
            assert!(event_from_json(line).is_err(), "{line}");
        }
    }

    #[test]
    fn chrome_export_contains_all_events() {
        let events = sample_events();
        let chrome = to_chrome_trace(&events);
        let parsed = json::parse(&chrome).expect("the Chrome twin is JSON");
        assert_eq!(parsed.as_arr().map(<[Json]>::len), Some(events.len()));
        for ev in &events {
            assert!(chrome.contains(&format!("\"name\":\"{}\"", ev.ev.name())));
        }
        // The query slice is a complete event with its duration.
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"dur\":37"));
    }
}
