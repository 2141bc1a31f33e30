//! Checkpoint & resume (DESIGN.md §8): bounded stepping budgets and
//! versioned engine snapshots.
//!
//! A long KleeNet-style exploration is one deterministic event loop, so
//! the complete engine configuration at an event boundary — states,
//! event queue, mapper bookkeeping, solver caches, counters — is a
//! serializable value. [`EngineSnapshot`] captures it;
//! [`Engine::run_until`](crate::Engine::run_until) pauses a run at such
//! a boundary; [`Engine::resume`](crate::Engine::resume) reconstructs an
//! engine that continues the run as if it had never stopped (same
//! [`RunReport::equivalence_key`](crate::RunReport::equivalence_key),
//! byte-identical trace stream).
//!
//! The on-disk format is versioned and digest-checked:
//!
//! ```text
//! magic "SDESNAP1" | version u32 LE | digest u64 LE (FNV-1a)
//! | prelude_len u32 LE | prelude segment | main segment
//! ```
//!
//! The digest covers everything after itself. The prelude holds the
//! scenario fingerprint and the symbol table; the main segment holds
//! states, queue, mapper, solver and counters. Both go through the shared
//! expression codec ([`SnapWriter`]/[`SnapReader`]), which preserves
//! expression-DAG sharing, so a decoded snapshot re-encodes to the
//! identical bytes. One field list per type, in wire order, drives the
//! encoder, the decoder, the debug view and the field-by-field
//! comparison behind [`EngineSnapshot::diff`] (the `walk!` macro).

use crate::engine::NodeEvent;
use crate::history::{CommHistory, HistoryEvent};
use crate::mapping::{Algorithm, MapperSnapshot, MapperStats};
use crate::state::{SdeState, StateCore, StateId};
use crate::stats::{BugFound, DedupStats, Sample};
use sde_net::{NodeId, Packet, PacketId};
use sde_symbolic::{CodecError, SnapReader, SnapWriter, SolverSnapshot, Value, Width};
use sde_trace::TraceSummary;
use sde_vm::{BugReport, VmState};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// File magic of a serialized [`EngineSnapshot`].
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"SDESNAP1";

/// Current snapshot format version; bumped on any codec change
/// (DESIGN.md §8 lists what each version added).
pub const SNAPSHOT_VERSION: u32 = 8;

/// Size of the fixed file header (magic + version + digest + prelude
/// length).
const HEADER_LEN: usize = 8 + 4 + 8 + 4;

// ---------------------------------------------------------------------------
// Budgets and run outcomes
// ---------------------------------------------------------------------------

/// A bound on how much work [`Engine::run_until`](crate::Engine::run_until)
/// may perform before pausing. Unset axes are unlimited; the run pauses
/// as soon as *any* set axis is reached (checked between events on the
/// serial path, between virtual-time batches on the parallel path).
///
/// # Examples
///
/// ```
/// use sde_core::Budget;
///
/// let b = Budget::events(10);
/// assert_eq!((b.max_events, b.max_live_states), (Some(10), None));
/// assert_eq!(Budget::live_states(5).max_live_states, Some(5));
/// assert_eq!(Budget::unlimited(), Budget::default());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Pause after dispatching this many events (this call).
    pub max_events: Option<u64>,
    /// Pause once the live-state count reaches this bound.
    pub max_live_states: Option<usize>,
}

impl Budget {
    /// No bound: run to completion.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Bound on dispatched events.
    pub fn events(n: u64) -> Budget {
        Budget {
            max_events: Some(n),
            ..Budget::default()
        }
    }

    /// Bound on live execution states.
    pub fn live_states(n: usize) -> Budget {
        Budget {
            max_live_states: Some(n),
            ..Budget::default()
        }
    }
}

/// How a bounded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A [`Budget`] axis was reached; the engine paused at an event
    /// boundary and can be snapshotted or driven further.
    Paused,
    /// The run finished (queue drained, duration reached, or state cap
    /// hit) — identical to what an unbounded run would have produced.
    Complete,
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be decoded or resumed. Malformed input is
/// always reported through this type — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with the `SDESNAP1` magic.
    BadMagic,
    /// The header's format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u32),
    /// The content digest does not match — the file is corrupted.
    DigestMismatch,
    /// A segment failed to decode (truncated or malformed).
    Codec(CodecError),
    /// The scenario handed to [`Engine::resume`](crate::Engine::resume)
    /// differs from the snapshotted one; names the mismatching field.
    ScenarioMismatch(&'static str),
    /// The mapper bookkeeping was internally inconsistent.
    MapperState(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SnapshotError as E;
        match self {
            E::BadMagic => write!(f, "not an SDE snapshot (bad magic)"),
            E::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
            ),
            E::DigestMismatch => write!(f, "snapshot digest mismatch (corrupted file)"),
            E::Codec(e) => write!(f, "snapshot codec error: {e}"),
            E::ScenarioMismatch(field) => {
                write!(f, "resume scenario differs from snapshot: {field}")
            }
            E::MapperState(msg) => write!(f, "inconsistent mapper bookkeeping: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        SnapshotError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// The snapshot value
// ---------------------------------------------------------------------------

/// One pending event as stored in a snapshot:
/// `(virtual time, queue sequence, state, event)`.
pub(crate) type QueuedEvent = (u64, u64, StateId, NodeEvent);

/// One symbol-table entry: `(name, width, node, occurrence)` — the id is
/// implicit (entries are stored in allocation order).
pub(crate) type SymbolEntry = (String, Width, u16, u32);

/// A complete, self-contained image of a paused [`Engine`](crate::Engine)
/// at an event boundary.
///
/// Produced by [`Engine::snapshot`](crate::Engine::snapshot); consumed by
/// [`Engine::resume`](crate::Engine::resume). Serialize with
/// [`EngineSnapshot::to_bytes`]; the binary form is deterministic (equal
/// snapshots encode to equal bytes) and decoding then re-encoding is a
/// byte-level fixed point.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// The mapping algorithm the run uses.
    pub(crate) algorithm: Algorithm,
    /// Scenario fingerprint: node count.
    pub(crate) node_count: usize,
    /// Scenario fingerprint: virtual duration.
    pub(crate) duration_ms: u64,
    /// Scenario fingerprint: link latency.
    pub(crate) link_latency_ms: u64,
    /// Scenario fingerprint: state cap.
    pub(crate) state_cap: usize,
    /// Scenario fingerprint: sampling cadence.
    pub(crate) sample_every: u64,
    /// Scenario fingerprint: whether histories keep full logs.
    pub(crate) track_history: bool,
    /// Scenario fingerprint: [`sde_net::FailureConfig::fingerprint`] of
    /// the failure config (the config itself lives in the caller's
    /// scenario, like the programs).
    pub(crate) faults_fingerprint: u64,
    /// Symbol table in allocation order.
    pub(crate) symbols: Vec<SymbolEntry>,
    /// Resident states, sorted by id.
    pub(crate) states: Vec<SdeState>,
    /// The queue's next insertion sequence number.
    pub(crate) queue_next_seq: u64,
    /// Pending events, sorted by sequence number.
    pub(crate) queue: Vec<QueuedEvent>,
    /// Mapper bookkeeping.
    pub(crate) mapper: MapperSnapshot,
    /// Solver caches, counters and toggles.
    pub(crate) solver: SolverSnapshot,
    /// Current virtual time.
    pub(crate) now: u64,
    /// Events dispatched so far.
    pub(crate) events_processed: u64,
    /// Packets transmitted so far; also the next packet id to mint.
    pub(crate) packets_sent: u64,
    /// VM instructions executed so far.
    pub(crate) instructions: u64,
    /// Whether the state cap was hit.
    pub(crate) aborted: bool,
    /// Next state id to allocate; also the number of states ever created.
    pub(crate) next_state: u64,
    /// The time series collected so far.
    pub(crate) samples: Vec<Sample>,
    /// Bugs found so far.
    pub(crate) bugs: Vec<BugFound>,
    /// The always-on trace counter digest, fork counts included.
    pub(crate) trace: TraceSummary,
    /// Whether duplicate-dispatch pruning was enabled (DESIGN.md §10).
    /// The memo index itself is not serialized — a resumed dedup run
    /// starts cold and re-records.
    pub(crate) dedup: bool,
    /// Dedup counters accumulated before the pause.
    pub(crate) dedup_stats: DedupStats,
    /// Ids of states that entered handler execution, sorted ascending.
    pub(crate) executed: Vec<u64>,
}

/// The editable parts of an [`EngineSnapshot`]
/// ([`EngineSnapshot::parts_mut`]).
#[doc(hidden)]
pub struct SnapshotParts<'a> {
    /// Pending events `(time, seq, state, event)`, sorted by seq.
    pub queue: &'a mut Vec<(u64, u64, StateId, NodeEvent)>,
    /// Resident state records, sorted by id.
    pub states: &'a mut Vec<SdeState>,
    /// The next state id to mint.
    pub next_state: &'a mut u64,
    /// Ids of states that entered a handler, sorted ascending.
    pub executed: &'a mut Vec<u64>,
    /// Mapper bookkeeping.
    pub mapper: &'a mut MapperSnapshot,
}

impl EngineSnapshot {
    /// The algorithm the snapshotted run uses.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Number of network nodes in the snapshotted scenario.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Events dispatched before the pause.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Execution states ever created.
    pub fn total_states(&self) -> usize {
        self.next_state as usize
    }

    /// Execution states resident in the snapshot.
    pub fn resident_states(&self) -> usize {
        self.states.len()
    }

    /// Pending events in the snapshot.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bugs recorded before the pause.
    pub fn bug_count(&self) -> usize {
        self.bugs.len()
    }

    /// Whether the run had already hit its state cap.
    pub fn aborted(&self) -> bool {
        self.aborted
    }

    /// Test hook: the snapshot's editable parts, so hostile-snapshot
    /// tests can hand-build what no run writes and check that
    /// [`Engine::resume`](crate::Engine::resume) refuses it.
    #[doc(hidden)]
    pub fn parts_mut(&mut self) -> SnapshotParts<'_> {
        SnapshotParts {
            queue: &mut self.queue,
            states: &mut self.states,
            next_state: &mut self.next_state,
            executed: &mut self.executed,
            mapper: &mut self.mapper,
        }
    }

    /// Test hook: the first [`EngineSnapshot::diff`] line, with the
    /// wall-clock fields compared too; `None` when every field is equal.
    /// The strategy matrix checks every resume from bytes with it.
    #[doc(hidden)]
    pub fn first_difference(&self, other: &EngineSnapshot) -> Option<String> {
        self.compare(other, true).into_iter().next()
    }

    /// Serializes the snapshot into the versioned, digest-checked binary
    /// form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (mut pw, mut mw) = (SnapWriter::new(), SnapWriter::new());
        self.walk(&mut Out::new(&mut pw, false), &mut Out::new(&mut mw, false));
        let (prelude, main) = (pw.finish(), mw.finish());
        let len = u32::to_le_bytes(prelude.len().try_into().expect("prelude exceeds 4 GiB"));
        let (magic, version) = (&SNAPSHOT_MAGIC[..], SNAPSHOT_VERSION.to_le_bytes());
        // The digest (bytes 12..20) covers everything after itself.
        let mut out = [magic, &version, &[0; 8], &len, &prelude, &main].concat();
        let digest = fnv1a(&out[20..]).to_le_bytes();
        out[12..20].copy_from_slice(&digest);
        out
    }

    /// Decodes a snapshot serialized by [`EngineSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on any malformed input — wrong
    /// magic, unsupported version, digest mismatch, truncation — and
    /// never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineSnapshot, SnapshotError> {
        if bytes.get(..8).is_some_and(|magic| magic != SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Codec(CodecError::Truncated));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let digest = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let body = &bytes[20..];
        if fnv1a(body) != digest {
            return Err(SnapshotError::DigestMismatch);
        }
        let prelude_len = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
        let (prelude, main) =
            (body[4..].split_at_checked(prelude_len)).ok_or(CodecError::Truncated)?;
        let mut pr = SnapReader::new(prelude)?;
        let snapshot = EngineSnapshot::read(&mut pr, &mut SnapReader::new(main)?)?;
        if snapshot.mapper.algorithm() != snapshot.algorithm {
            return Err(CodecError::Malformed("mapper/prelude algorithm mismatch").into());
        }
        Ok(snapshot)
    }

    /// Renders the snapshot as a deterministic JSON object for inspection
    /// (`snapshot --inspect`): every scalar the codec writes, keyed by its
    /// field path (`states[3].core.partition_until`), in wire order. A
    /// value with a codec of its own shows as the size and FNV-1a of its
    /// encoding. A debug view: [`EngineSnapshot::to_bytes`] is the
    /// storage form.
    pub fn to_debug_json(&self) -> String {
        let (mut pw, mut mw) = (SnapWriter::new(), SnapWriter::new());
        let (mut pre, mut main) = (Out::new(&mut pw, true), Out::new(&mut mw, true));
        self.walk(&mut pre, &mut main);
        let mut json = main.leaves;
        let head = format!("{{\n  \"version\": {SNAPSHOT_VERSION},\n{}", pre.leaves);
        json.insert_str(0, &head);
        json.truncate(json.len() - 2); // the last line's `,\n`
        json + "\n}\n"
    }

    /// Every field path at which `self` and `other` differ, one `path:
    /// left != right` line each (`states[3].core.partition_until: 0 !=
    /// 750`) in the debug view's terms, in wire order; empty when both
    /// describe the same paused run. The three wall-clock fields
    /// (`Sample::wall_ms`, `TraceSummary::{boot,run}_wall_us`) are not
    /// compared.
    pub fn diff(&self, other: &EngineSnapshot) -> Vec<String> {
        self.compare(other, false)
    }
}

/// A snapshotted type: `put` walks it in wire order into an [`Out`],
/// `get` reads it back in the same order, `diff` compares two values.
trait Snap: Sized {
    fn put(&self, out: &mut Out<'_>);

    fn get(r: &mut SnapReader<'_>) -> Result<Self, CodecError>;

    /// Compares `other` with `self` into `d`: a composite field by field,
    /// by value, never through its own walk; a leaf by the bytes of its
    /// standalone encoding (a VM state, bug report or solver cache through
    /// its own codec).
    fn diff(&self, other: &Self, d: &mut Diff) {
        let bytes = |v: &Self| {
            let mut w = SnapWriter::new();
            v.put(&mut Out::new(&mut w, false));
            w.finish()
        };
        if bytes(self) != bytes(other) {
            d.apart(Some(self), Some(other));
        }
    }
}

/// A comparison in progress: the path to the values being compared, and
/// one `path: left != right` line per scalar of the debug view in which
/// they differ.
struct Diff {
    path: String,
    lines: Vec<String>,
    /// Whether the [`WALL_CLOCK`] fields are compared.
    wall_clock: bool,
}

impl Diff {
    fn field<T: Snap>(&mut self, name: &str, a: &T, b: &T) {
        self.under(format_args!(".{name}"), |d| a.diff(b, d));
    }

    fn under(&mut self, segment: fmt::Arguments<'_>, compare: impl FnOnce(&mut Diff)) {
        let len = self.path.len();
        let _ = self.path.write_fmt(segment);
        compare(self);
        self.path.truncate(len);
    }

    /// `a` and `b` differ, in value or in shape, or one is absent: the
    /// lines of their debug views that differ, matched by path.
    fn apart<T: Snap>(&mut self, a: Option<&T>, b: Option<&T>) {
        let view = |v: Option<&T>| {
            let mut w = SnapWriter::new();
            let mut out = Out::new(&mut w, true);
            out.path.clone_from(&self.path);
            v.inspect(|v| v.put(&mut out));
            out.leaves
        };
        let (mine, theirs) = (view(a), view(b));
        let left: HashMap<&str, &str> = pairs(&mine).collect();
        let right: HashMap<&str, &str> = pairs(&theirs).collect();
        let only_theirs = pairs(&theirs).filter(|(path, _)| !left.contains_key(path));
        for (path, _) in pairs(&mine).chain(only_theirs) {
            let l = left.get(path).unwrap_or(&"-");
            let r = right.get(path).unwrap_or(&"-");
            let clock = WALL_CLOCK.contains(&path.rsplit('.').next().unwrap_or(path));
            if l != r && (self.wall_clock || !clock) {
                self.lines.push(format!("{path}: {l} != {r}"));
            }
        }
    }
}

/// Where a walk goes: onto the wire, and in a debug walk also into
/// `leaves`, one `  "path": JSON,` line per scalar.
struct Out<'w> {
    w: &'w mut SnapWriter,
    debug: bool,
    leaves: String,
    path: String,
}

impl<'w> Out<'w> {
    fn new(w: &'w mut SnapWriter, debug: bool) -> Out<'w> {
        let (leaves, path) = (String::new(), String::new());
        Out {
            w,
            debug,
            leaves,
            path,
        }
    }

    /// The JSON of the scalar just written, in a debug walk.
    fn leaf(&mut self, json: impl FnOnce() -> String) {
        if self.debug {
            let path = self.path.trim_start_matches('.');
            let _ = writeln!(self.leaves, "  \"{path}\": {},", json());
        }
    }

    /// A scalar: `write` onto the wire, `json` in a debug walk.
    fn scalar(&mut self, write: impl FnOnce(&mut SnapWriter), json: impl FnOnce() -> String) {
        write(self.w);
        self.leaf(json);
    }

    fn varint(&mut self, v: u64) {
        self.scalar(|w| w.varint(v), || v.to_string());
    }

    /// A value with a codec of its own: its bytes; in a debug walk, the
    /// size and FNV-1a of its standalone encoding.
    fn codec(&mut self, write: impl Fn(&mut SnapWriter)) {
        write(self.w);
        self.leaf(|| {
            let mut w = SnapWriter::new();
            write(&mut w);
            let bytes = w.finish();
            let fnv = fnv1a(&bytes);
            format!("{{\"bytes\": {}, \"fnv\": \"{fnv:#018x}\"}}", bytes.len())
        });
    }

    /// Runs `walk` with `segment` appended to the path (in a debug walk).
    fn under(&mut self, segment: fmt::Arguments<'_>, walk: impl FnOnce(&mut Self)) {
        if !self.debug {
            return walk(self);
        }
        let len = self.path.len();
        let _ = self.path.write_fmt(segment);
        walk(self);
        self.path.truncate(len);
    }

    fn field<T: Snap>(&mut self, name: &str, value: &T) {
        self.under(format_args!(".{name}"), |out| value.put(out));
    }

    /// The tag of an enum variant; `kind` in a debug walk.
    fn variant(&mut self, kind: &'static str, tag: u8) {
        self.w.u8(tag);
        self.under(format_args!(".kind"), |out| out.leaf(|| json_str(kind)));
    }

    /// A sequence, preceded by its length (`len`) when `counted`.
    fn items<T: Snap>(&mut self, items: &[T], counted: bool) {
        if counted {
            let len = items.len() as u64;
            self.under(format_args!(".len"), |out| out.varint(len));
        }
        for (i, item) in items.iter().enumerate() {
            self.under(format_args!("[{i}]"), |out| item.put(out));
        }
    }
}

/// Implements [`Snap`] for a leaf of the walk: `|v, out| put` writes
/// `v` (and its JSON, in a debug walk), `|r| get` reads it back.
macro_rules! leaf {
    ($($t:ty: |$v:ident, $out:ident| $put:expr, |$r:ident| $get:expr $(, |$o:ident, $d:ident| $diff:expr)?;)*) => {$(
        impl Snap for $t {
            fn put(&self, $out: &mut Out<'_>) {
                let $v = self;
                $put;
            }

            fn get($r: &mut SnapReader<'_>) -> Result<$t, CodecError> {
                $get
            }

            $(fn diff(&self, $o: &$t, $d: &mut Diff) {
                let $v = self;
                $diff
            })?
        }
    )*};
}

leaf! {
    u64: |v, out| out.varint(*v), |r| r.varint();
    u32: |v, out| out.varint(u64::from(*v)), |r| r.ranged("u32 out of range");
    u16: |v, out| out.varint(u64::from(*v)), |r| r.ranged("u16 out of range");
    usize: |v, out| out.varint(*v as u64), |r| r.ranged("usize out of range");
    bool: |v, out| out.scalar(|w| w.bool(*v), || v.to_string()), |r| r.bool();
    String: |v, out| out.scalar(|w| w.str(v), || json_str(v)), |r| r.str();
    Width: |v, out| out.scalar(|w| w.width(*v), || v.bits().to_string()), |r| r.width();
    StateId: |v, out| v.0.put(out), |r| Ok(StateId(Snap::get(r)?));
    NodeId: |v, out| v.0.put(out), |r| Ok(NodeId(Snap::get(r)?));
    PacketId: |v, out| v.0.put(out), |r| Ok(PacketId(Snap::get(r)?));
    // A term through the expression pool; a constant shows `[value, width]`.
    Value: |v, out| match v.as_const() {
        Some(c) => out.scalar(|w| w.value(v), || format!("[{c}, {}]", v.width().bits())),
        None => out.codec(|w| w.value(v)),
    }, |r| r.value();
    VmState: |v, out| out.codec(|w| v.write_snapshot(w)), |r| VmState::read_snapshot(r);
    BugReport: |v, out| out.codec(|w| v.write_snapshot(w)), |r| BugReport::read_snapshot(r);
    SolverSnapshot: |v, out| out.codec(|w| v.write_into(w)), |r| SolverSnapshot::read_from(r);
    Arc<StateCore>: |v, out| StateCore::put(v, out), |r| Ok(Arc::new(Snap::get(r)?)),
        |o, d| StateCore::diff(v, o, d);
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, out: &mut Out<'_>) {
        out.items(self, true);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Vec<T>, CodecError> {
        let n = r.checked_len("list length")?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r)?);
        }
        Ok(items)
    }

    /// The lengths, then the items index by index.
    fn diff(&self, other: &Vec<T>, d: &mut Diff) {
        d.field("len", &self.len(), &other.len());
        for i in 0..self.len().max(other.len()) {
            let (a, b) = (self.get(i), other.get(i));
            d.under(format_args!("[{i}]"), |d| match (a, b) {
                (Some(a), Some(b)) => a.diff(b, d),
                _ => d.apart(a, b),
            });
        }
    }
}

/// The items only: the length is the type's.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn put(&self, out: &mut Out<'_>) {
        out.items(self, false);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<[T; N], CodecError> {
        let items: Vec<T> = (0..N).map(|_| T::get(r)).collect::<Result<_, _>>()?;
        Ok(items.try_into().unwrap_or_else(|_| unreachable!("N items")))
    }
}

/// A presence flag, then the value; `null` in a debug walk.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, out: &mut Out<'_>) {
        out.w.bool(self.is_some());
        match self {
            Some(value) => value.put(out),
            None => out.leaf(|| "null".to_string()),
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<Option<T>, CodecError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }

    fn diff(&self, other: &Option<T>, d: &mut Diff) {
        match (self, other) {
            (Some(a), Some(b)) => a.diff(b, d),
            _ => d.apart(Some(self), Some(other)),
        }
    }
}

/// Tuples: their elements in order.
macro_rules! tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn put(&self, out: &mut Out<'_>) {
                $(out.under(format_args!("[{}]", $i), |out| self.$i.put(out));)*
            }

            fn get(r: &mut SnapReader<'_>) -> Result<Self, CodecError> {
                Ok(($(<$t>::get(r)?,)*))
            }

            fn diff(&self, other: &Self, d: &mut Diff) {
                $(d.under(format_args!("[{}]", $i), |d| self.$i.diff(&other.$i, d));)*
            }
        }
    };
}
tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2, D 3);

/// Implements the walk of a struct or enum from its one field list, in
/// wire order: `put` destructures the value exhaustively and walks every
/// field by name, `get` reads them back into a struct literal, so a field
/// missing from a list fails to compile; `diff` destructures it too. An
/// enum variant's tag precedes its fields, and enums compare by `==`.
/// `@segments` splits [`EngineSnapshot`] between the prelude and the main
/// segment.
macro_rules! walk {
    (@segments $ty:ident { $($p:ident),* ; $($m:ident),* }) => {
        impl $ty {
            fn walk(&self, pre: &mut Out<'_>, main: &mut Out<'_>) {
                let $ty { $($p,)* $($m),* } = self;
                $(pre.field(stringify!($p), $p);)*
                $(main.field(stringify!($m), $m);)*
            }

            fn read(pre: &mut SnapReader<'_>, main: &mut SnapReader<'_>) -> Result<$ty, CodecError> {
                Ok($ty { $($p: Snap::get(pre)?,)* $($m: Snap::get(main)?),* })
            }

            fn compare(&self, other: &$ty, wall_clock: bool) -> Vec<String> {
                let mut d = Diff { path: String::new(), lines: Vec::new(), wall_clock };
                let $ty { $($p,)* $($m),* } = self;
                $(d.field(stringify!($p), $p, &other.$p);)*
                $(d.field(stringify!($m), $m, &other.$m);)*
                d.lines
            }
        }
    };
    (@enum $($ty:ident { $($v:ident = $tag:literal { $($f:ident),* }),* })*) => {$(
        impl Snap for $ty {
            fn put(&self, out: &mut Out<'_>) {
                match self {$(
                    $ty::$v { $($f),* } => {
                        out.variant(stringify!($v), $tag);
                        $(out.field(stringify!($f), $f);)*
                    }
                )*}
            }

            fn get(r: &mut SnapReader<'_>) -> Result<$ty, CodecError> {
                Ok(match r.u8()? {
                    $($tag => $ty::$v { $($f: Snap::get(r)?),* },)*
                    _ => return Err(CodecError::Malformed(concat!(stringify!($ty), " tag"))),
                })
            }

            fn diff(&self, other: &$ty, d: &mut Diff) {
                if self != other {
                    d.apart(Some(self), Some(other));
                }
            }
        }
    )*};
    ($($ty:ident { $($f:ident),* })*) => {$(
        impl Snap for $ty {
            fn put(&self, out: &mut Out<'_>) {
                let $ty { $($f),* } = self;
                $(out.field(stringify!($f), $f);)*
            }

            fn get(r: &mut SnapReader<'_>) -> Result<$ty, CodecError> {
                Ok($ty { $($f: Snap::get(r)?),* })
            }

            fn diff(&self, other: &$ty, d: &mut Diff) {
                let $ty { $($f),* } = self;
                $(d.field(stringify!($f), $f, &other.$f);)*
            }
        }
    )*};
}

walk! {
    @segments EngineSnapshot {
        algorithm, node_count, duration_ms, link_latency_ms, state_cap, sample_every,
        track_history, faults_fingerprint, symbols;
        states, queue_next_seq, queue, mapper, solver, now, events_processed, packets_sent,
        instructions, aborted, next_state, samples, bugs, trace, dedup, dedup_stats, executed
    }
}

walk! {
    SdeState { id, node, core, root, shard_root }
    StateCore {
        vm, history, budgets, partition_until
    }
    Packet { id, src, dest, payload }
    MapperStats { branches_seen, sends_mapped, mapper_forks, virtual_forks }
    Sample { wall_ms, virtual_ms, live_states, total_states, bytes, groups }
    BugFound { node, state, report }
    DedupStats { candidates, confirmed, collisions, pruned_states, saved_instructions }
    TraceSummary {
        boots, dispatches, forks, packets_delivered, packets_dropped, boot_wall_us, run_wall_us
    }
}

walk! {
    @enum Algorithm { Cob = 0 {}, Cow = 1 {}, Sds = 2 {} }
    HistoryEvent { Sent = 1 { id, peer }, Received = 2 { id, peer } }
    MapperSnapshot {
        Cob = 0 { groups, next_group, stats },
        Cow = 1 { dstates, next_group, stats },
        Sds = 2 { vstates, groups, next_group, next_v, stats }
    }
}

/// The digest and length, then the log when it is tracked.
impl Snap for CommHistory {
    fn put(&self, out: &mut Out<'_>) {
        let (digest, len, log) = self.export_parts();
        out.field("digest", &digest);
        out.field("len", &len);
        out.field("log", &log);
    }

    fn get(r: &mut SnapReader<'_>) -> Result<CommHistory, CodecError> {
        Ok(CommHistory::from_parts(
            Snap::get(r)?,
            Snap::get(r)?,
            Snap::get(r)?,
        ))
    }

    /// By parts: `==` on histories compares their digests only.
    fn diff(&self, other: &CommHistory, d: &mut Diff) {
        if self.export_parts() != other.export_parts() {
            d.apart(Some(self), Some(other));
        }
    }
}

/// Boot, a timer id, or a packet.
impl Snap for NodeEvent {
    fn put(&self, out: &mut Out<'_>) {
        match self {
            NodeEvent::Boot => out.variant("Boot", 0),
            NodeEvent::Timer(timer) => {
                out.variant("Timer", 1);
                out.field("timer", timer);
            }
            NodeEvent::Deliver(packet) => {
                out.variant("Deliver", 2);
                out.field("packet", packet);
            }
        }
    }

    fn get(r: &mut SnapReader<'_>) -> Result<NodeEvent, CodecError> {
        Ok(match r.u8()? {
            0 => NodeEvent::Boot,
            1 => NodeEvent::Timer(Snap::get(r)?),
            2 => NodeEvent::Deliver(Snap::get(r)?),
            _ => return Err(CodecError::Malformed("node event tag")),
        })
    }

    fn diff(&self, other: &NodeEvent, d: &mut Diff) {
        match (self, other) {
            (NodeEvent::Boot, NodeEvent::Boot) => {}
            (NodeEvent::Timer(a), NodeEvent::Timer(b)) => d.field("timer", a, b),
            (NodeEvent::Deliver(a), NodeEvent::Deliver(b)) => d.field("packet", a, b),
            _ => d.apart(Some(self), Some(other)),
        }
    }
}

/// What [`EngineSnapshot::diff`] skips: `Sample::wall_ms` and
/// `TraceSummary::{boot,run}_wall_us`, the only wall-clock readings.
const WALL_CLOCK: [&str; 3] = ["wall_ms", "boot_wall_us", "run_wall_us"];

/// The `(path, JSON)` pairs of a debug walk's `leaves`: a path has no
/// `"` and a JSON literal no newline.
fn pairs(leaves: &str) -> impl Iterator<Item = (&str, &str)> {
    let pair = |l| str::strip_suffix(str::strip_prefix(l, "  \"")?, ',')?.split_once("\": ");
    leaves.lines().filter_map(pair)
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        if c.is_ascii_control() || c == '"' || c == '\\' {
            let _ = write!(out, "\\u{:04x}", u32::from(c));
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// FNV-1a over a byte slice — the snapshot content digest.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::scenario::Scenario;
    use sde_net::{FailureConfig, Topology};
    use sde_os::apps::pingpong::{self, PingPongConfig};

    fn scenario() -> Scenario {
        let topology = Topology::line(2);
        let cfg = PingPongConfig {
            client: NodeId(0),
            server: NodeId(1),
            requests: 2,
            timeout_ms: 40,
        };
        let failures = FailureConfig::new().with_drops([NodeId(1)], 1);
        Scenario::new(topology.clone(), pingpong::programs(&topology, &cfg))
            .with_failures(failures)
            .with_duration_ms(300)
    }

    #[test]
    fn interrupted_run_matches_straight_run() {
        for algorithm in Algorithm::ALL {
            let straight = Engine::new(scenario(), algorithm).run();

            let mut engine = Engine::new(scenario(), algorithm);
            let mut interruptions = 0usize;
            while engine.run_until(Budget::events(3)) == RunOutcome::Paused {
                // Full serialize→deserialize→resume round trip at every
                // pause point, checked field by field.
                let snap = engine.snapshot();
                let decoded = EngineSnapshot::from_bytes(&snap.to_bytes()).expect("decode");
                engine = Engine::resume(scenario(), &decoded).expect("resume");
                assert_eq!(snap.first_difference(&engine.snapshot()), None);
                interruptions += 1;
            }
            assert!(interruptions > 0, "{algorithm}: too small to pause");
            let key = engine.into_report().equivalence_key();
            assert_eq!(key, straight.equivalence_key(), "{algorithm}: diverged");
        }
    }

    #[test]
    fn resume_rejects_mismatched_scenario() {
        let mut engine = Engine::new(scenario(), Algorithm::Cob);
        engine.run_until(Budget::events(2));
        let snap = engine.snapshot();
        let err = Engine::resume(scenario().with_duration_ms(999), &snap).unwrap_err();
        assert_eq!(err, SnapshotError::ScenarioMismatch("duration_ms"));
        assert!(err.to_string().contains("duration_ms"));
    }

    #[test]
    fn debug_view_names_every_field_and_escapes_strings() {
        let mut engine = Engine::new(scenario(), Algorithm::Sds);
        engine.run_until(Budget::events(4));
        let snap = engine.snapshot();
        let json = snap.to_debug_json();
        for needle in [
            &format!("\"version\": {SNAPSHOT_VERSION},"),
            "\"algorithm.kind\": \"Sds\",",
            "\"states[1].core.partition_until\": 0,",
            ".packet.payload[0]\": [2, 16],",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\u0022b\u005cc\u000ad""#);

        let mut other = snap.clone();
        other.trace.run_wall_us += 1;
        other.samples[0].wall_ms += 1;
        assert!(snap.diff(&other).is_empty(), "wall clock is not compared");
        let first = snap.first_difference(&other);
        assert_eq!(first.as_deref(), Some("samples[0].wall_ms: 0 != 1"));
        other.states[1].budgets[6] += 1;
        let named = ["states[1].core.budgets[6]: 0 != 1".to_string()];
        assert_eq!(snap.diff(&other), named);
        assert_eq!(snap.first_difference(&other).as_deref(), Some(&*named[0]));
    }
}
