//! Trace exporters and the JSONL reader.
//!
//! Two encodings of the same event stream:
//!
//! * **JSONL** — one flat object per line, tagged `"ev"`. The
//!   *deterministic* mode omits wall-clock fields (`ts_us`, `dur_us`) so
//!   identical executions produce byte-identical files at any worker
//!   count; the *full* mode keeps them and round-trips exactly.
//! * **Chrome `trace_event`** — loadable in `chrome://tracing` / Perfetto.
//!   Solver queries become duration (`"X"`) slices; everything else is an
//!   instant event.

use std::collections::BTreeMap;

use crate::event::{
    DispatchKind, ForkReason, GroupLayer, QueryLayer, TimedEvent, TraceEvent, Verdict,
};
use crate::json::{parse_flat_object, JsonObj, JsonValue};

/// Encode one event as a flat JSON object. `ts_us` is included when
/// given and `deterministic` is false.
pub fn event_to_json(ev: &TraceEvent, ts_us: Option<u64>, deterministic: bool) -> String {
    let mut o = JsonObj::new();
    o.str("ev", ev.name());
    if let (Some(ts), false) = (ts_us, deterministic) {
        o.int("ts_us", ts);
    }
    match ev {
        TraceEvent::Boot { state, node } => {
            o.int("state", *state).int("node", u64::from(*node));
        }
        TraceEvent::QueuePush { time, seq } => {
            o.int("time", *time).int("seq", *seq);
        }
        TraceEvent::Dispatch {
            state,
            node,
            kind,
            time,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .str("kind", kind.as_str())
                .int("time", *time);
        }
        TraceEvent::Fork {
            parent,
            child,
            node,
            reason,
        } => {
            o.int("parent", *parent)
                .int("child", *child)
                .int("node", u64::from(*node))
                .str("reason", reason.as_str());
        }
        TraceEvent::MapBranch {
            parent,
            child,
            node,
            forked,
        } => {
            o.int("parent", *parent)
                .int("child", *child)
                .int("node", u64::from(*node))
                .arr("forked", forked);
        }
        TraceEvent::MapSend {
            state,
            node,
            dest,
            packet,
            targets,
            forked,
            groups,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("dest", u64::from(*dest))
                .int("packet", *packet)
                .arr("targets", targets)
                .arr("forked", forked)
                .int("groups", *groups);
        }
        TraceEvent::Send {
            state,
            node,
            dest,
            packet,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("dest", u64::from(*dest))
                .int("packet", *packet);
        }
        TraceEvent::Deliver {
            state,
            node,
            packet,
            duplicate,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("packet", *packet)
                .bool("duplicate", *duplicate);
        }
        TraceEvent::Drop {
            state,
            node,
            packet,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("packet", *packet);
        }
        TraceEvent::PartitionDrop {
            state,
            node,
            packet,
            until,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("packet", *packet)
                .int("until", *until);
        }
        TraceEvent::Query {
            layer,
            verdict,
            groups,
            dur_us,
        } => {
            o.str("layer", layer.as_str())
                .str("verdict", verdict.as_str())
                .int("groups", *groups);
            if !deterministic {
                o.int("dur_us", *dur_us);
            }
        }
        TraceEvent::QueryGroup { layer } => {
            o.str("layer", layer.as_str());
        }
        TraceEvent::StatePruned {
            state,
            node,
            survivor,
            time,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("survivor", *survivor)
                .int("time", *time);
        }
        TraceEvent::BugFound {
            state,
            node,
            time,
            kind,
        } => {
            o.int("state", *state)
                .int("node", u64::from(*node))
                .int("time", *time)
                .str("kind", kind);
        }
        TraceEvent::ShrinkStep {
            step,
            axis,
            entries,
            kept,
        } => {
            o.int("step", *step)
                .str("axis", axis)
                .int("entries", *entries)
                .bool("kept", *kept);
        }
    }
    o.finish()
}

/// Render an event stream as JSONL text (one event per line, trailing
/// newline). Deterministic mode omits `ts_us`/`dur_us`.
pub fn to_jsonl(events: &[TimedEvent], deterministic: bool) -> String {
    let mut out = String::new();
    for te in events {
        out.push_str(&event_to_json(&te.ev, Some(te.ts_us), deterministic));
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

fn get_int(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u64, String> {
    map.get(key)
        .and_then(JsonValue::as_int)
        .ok_or_else(|| format!("missing/invalid int field `{key}`"))
}

fn get_node(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u16, String> {
    u16::try_from(get_int(map, key)?).map_err(|_| format!("field `{key}` exceeds u16"))
}

fn get_str<'m>(map: &'m BTreeMap<String, JsonValue>, key: &str) -> Result<&'m str, String> {
    map.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing/invalid string field `{key}`"))
}

fn get_arr(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<Vec<u64>, String> {
    Ok(map
        .get(key)
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("missing/invalid array field `{key}`"))?
        .to_vec())
}

/// Parse one JSONL line back into an event (plus its timestamp, 0 when
/// the line came from a deterministic export).
pub fn event_from_json(line: &str) -> Result<TimedEvent, String> {
    let map = parse_flat_object(line)?;
    let ts_us = match map.get("ts_us") {
        Some(v) => v.as_int().ok_or("invalid ts_us")?,
        None => 0,
    };
    let tag = get_str(&map, "ev")?;
    let ev = match tag {
        "Boot" => TraceEvent::Boot {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
        },
        "QueuePush" => TraceEvent::QueuePush {
            time: get_int(&map, "time")?,
            seq: get_int(&map, "seq")?,
        },
        "Dispatch" => TraceEvent::Dispatch {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            kind: DispatchKind::parse(get_str(&map, "kind")?)
                .ok_or_else(|| format!("bad dispatch kind in {line:?}"))?,
            time: get_int(&map, "time")?,
        },
        "Fork" => TraceEvent::Fork {
            parent: get_int(&map, "parent")?,
            child: get_int(&map, "child")?,
            node: get_node(&map, "node")?,
            reason: ForkReason::parse(get_str(&map, "reason")?)
                .ok_or_else(|| format!("bad fork reason in {line:?}"))?,
        },
        "MapBranch" => TraceEvent::MapBranch {
            parent: get_int(&map, "parent")?,
            child: get_int(&map, "child")?,
            node: get_node(&map, "node")?,
            forked: get_arr(&map, "forked")?,
        },
        "MapSend" => TraceEvent::MapSend {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            dest: get_node(&map, "dest")?,
            packet: get_int(&map, "packet")?,
            targets: get_arr(&map, "targets")?,
            forked: get_arr(&map, "forked")?,
            groups: get_int(&map, "groups")?,
        },
        "Send" => TraceEvent::Send {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            dest: get_node(&map, "dest")?,
            packet: get_int(&map, "packet")?,
        },
        "Deliver" => TraceEvent::Deliver {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            packet: get_int(&map, "packet")?,
            duplicate: map
                .get("duplicate")
                .and_then(JsonValue::as_bool)
                .ok_or("missing/invalid bool field `duplicate`")?,
        },
        "Drop" => TraceEvent::Drop {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            packet: get_int(&map, "packet")?,
        },
        "PartitionDrop" => TraceEvent::PartitionDrop {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            packet: get_int(&map, "packet")?,
            until: get_int(&map, "until")?,
        },
        "Query" => TraceEvent::Query {
            layer: QueryLayer::parse(get_str(&map, "layer")?)
                .ok_or_else(|| format!("bad query layer in {line:?}"))?,
            verdict: Verdict::parse(get_str(&map, "verdict")?)
                .ok_or_else(|| format!("bad verdict in {line:?}"))?,
            groups: get_int(&map, "groups")?,
            dur_us: match map.get("dur_us") {
                Some(v) => v.as_int().ok_or("invalid dur_us")?,
                None => 0,
            },
        },
        "QueryGroup" => TraceEvent::QueryGroup {
            layer: GroupLayer::parse(get_str(&map, "layer")?)
                .ok_or_else(|| format!("bad group layer in {line:?}"))?,
        },
        "StatePruned" => TraceEvent::StatePruned {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            survivor: get_int(&map, "survivor")?,
            time: get_int(&map, "time")?,
        },
        "BugFound" => TraceEvent::BugFound {
            state: get_int(&map, "state")?,
            node: get_node(&map, "node")?,
            time: get_int(&map, "time")?,
            kind: get_str(&map, "kind")?.to_string(),
        },
        "ShrinkStep" => TraceEvent::ShrinkStep {
            step: get_int(&map, "step")?,
            axis: get_str(&map, "axis")?.to_string(),
            entries: get_int(&map, "entries")?,
            kept: map
                .get("kept")
                .and_then(JsonValue::as_bool)
                .ok_or("missing/invalid bool field `kept`")?,
        },
        other => return Err(format!("unknown event tag `{other}`")),
    };
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

fn chrome_args(ev: &TraceEvent) -> String {
    // Reuse the JSONL encoding minus the tag: every field becomes an arg.
    let line = event_to_json(ev, None, false);
    // `{"ev":"Name",rest` → `{rest` (or `{}` when the tag is the only field).
    line.split_once(',')
        .map(|(_, rest)| format!("{{{rest}"))
        .unwrap_or_else(|| "{}".to_string())
}

/// Render an event stream in Chrome `trace_event` JSON (object form with
/// a `traceEvents` array). Queries become complete (`"X"`) slices placed
/// at `ts - dur`; all other events are instants.
pub fn to_chrome_trace(events: &[TimedEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, te) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let name = te.ev.name();
        let args = chrome_args(&te.ev);
        match te.ev {
            TraceEvent::Query { dur_us, .. } => {
                let start = te.ts_us.saturating_sub(dur_us);
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur_us},\"pid\":1,\"tid\":1,\"args\":{args}}}"
                ));
            }
            _ => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":1,\"args\":{args}}}",
                    ts = te.ts_us
                ));
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Write an event stream to `path` in Chrome `trace_event` format.
pub fn write_chrome_trace(path: &std::path::Path, events: &[TimedEvent]) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace(events))
}
