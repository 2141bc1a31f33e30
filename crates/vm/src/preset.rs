//! Replay presets: concrete values for symbolic inputs, keyed
//! run-independently.
//!
//! A solver [`Model`] identifies inputs by [`SymId`](sde_symbolic::SymId)
//! — the *global* creation index, which differs between a forking
//! symbolic run and its non-forking concrete replay. A [`Preset`] re-keys
//! the model by each input's
//! [`replay key`](sde_symbolic::SymVar::replay_key)
//! `(node, name, per-lineage occurrence)`, which is stable across runs of
//! the same scenario.
//!
//! Two optional behaviors support the conformance oracle
//! (`sde-core::oracle`):
//!
//! * **Strict mode** ([`Preset::with_strict`]): an input the preset does
//!   not pin is an *error* (the interpreter reports a
//!   [`BugKind::UnkeyedInput`](crate::BugKind::UnkeyedInput) bug) instead
//!   of silently replaying as 0 — an unpinned input under a supposedly
//!   complete assignment means the solve or the enumeration was
//!   incomplete, and defaulting would mask that.
//! * **Request recording** ([`Preset::recording`]): every input the
//!   replay asks for is appended to a shared [`RequestLog`], pinned or
//!   not. The oracle drives its exhaustive enumeration off this log: a
//!   replay under a partial assignment reveals (in deterministic order)
//!   which inputs the execution actually requests, and the first
//!   unpinned one is the next axis to branch on.

use sde_symbolic::{Model, SymbolTable, Width};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One input lookup performed by a replay, as seen by a [`RequestLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputRequest {
    /// The requesting node.
    pub node: u16,
    /// The input's name (`"drop"`, `"reading"`, ...).
    pub name: String,
    /// Per-lineage occurrence index of this name on this node.
    pub occurrence: u32,
    /// The input's bit width (the enumerable domain is `2^width`).
    pub width: Width,
    /// The pinned value, or `None` when the preset had no entry.
    pub pinned: Option<u64>,
}

impl InputRequest {
    /// The run-independent replay key of the requested input.
    pub fn replay_key(&self) -> (u16, String, u32) {
        (self.node, self.name.clone(), self.occurrence)
    }
}

/// Every input lookup of one replay, in global request order (the engine
/// is deterministic and sequential, so the order is a pure function of
/// the pinned prefix).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestLog {
    /// All lookups, pinned or not, in request order.
    pub requests: Vec<InputRequest>,
}

impl RequestLog {
    /// The requests the preset could not answer, in request order.
    pub fn misses(&self) -> impl Iterator<Item = &InputRequest> {
        self.requests.iter().filter(|r| r.pinned.is_none())
    }

    /// The first unpinned request, if any — the next enumeration axis.
    pub fn first_miss(&self) -> Option<&InputRequest> {
        self.misses().next()
    }
}

/// Concrete values for symbolic inputs, keyed by `(node, name,
/// occurrence)`.
///
/// # Examples
///
/// ```
/// use sde_vm::Preset;
///
/// let mut p = Preset::new();
/// p.insert(2, "drop", 0, 1);
/// assert_eq!(p.get(2, "drop", 0), Some(1));
/// assert_eq!(p.get(2, "drop", 1), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Preset {
    values: HashMap<(u16, String, u32), u64>,
    strict: bool,
    log: Option<Arc<Mutex<RequestLog>>>,
}

// The request log is observation plumbing, not identity: two presets are
// equal when they pin the same values under the same strictness.
impl PartialEq for Preset {
    fn eq(&self, other: &Preset) -> bool {
        self.values == other.values && self.strict == other.strict
    }
}

impl Eq for Preset {}

impl Preset {
    /// An empty preset (every input replays as 0).
    pub fn new() -> Preset {
        Preset::default()
    }

    /// Re-keys a solver model through the symbol table that minted its
    /// variables.
    ///
    /// Replay keys are not guaranteed unique within one symbolic run:
    /// sibling states of the same lineage mint distinct
    /// [`SymId`](sde_symbolic::SymId)s that share `(node, name, occurrence)`. A
    /// model drawn from one dscenario constrains only one sibling per
    /// key, but an artificially merged model may collide; the iteration
    /// below is in ascending `SymId` order ([`Model::iter`] walks a
    /// `BTreeMap`), so **the latest-minted variable deterministically
    /// wins** (see `tests/preset_roundtrip.rs`).
    pub fn from_model(model: &Model, symbols: &SymbolTable) -> Preset {
        let mut p = Preset::new();
        for (id, value) in model.iter() {
            if let Some(var) = symbols.get(id) {
                let (node, name, occ) = var.replay_key();
                p.values.insert((node, name, occ), value);
            }
        }
        p
    }

    /// Strict mode: replaying an input this preset does not pin becomes a
    /// [`BugKind::UnkeyedInput`](crate::BugKind::UnkeyedInput) bug
    /// instead of defaulting to 0. The conformance oracle replays its
    /// ground-truth assignments strictly so an incomplete assignment can
    /// never masquerade as a legitimate outcome.
    #[must_use]
    pub fn with_strict(mut self) -> Preset {
        self.strict = true;
        self
    }

    /// Whether strict mode is on.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Attaches a fresh, shared [`RequestLog`]: every [`Preset::resolve`]
    /// call is recorded. Keep a clone of [`Preset::log`] to read the
    /// requests back after the engine has consumed the preset.
    #[must_use]
    pub fn recording(mut self) -> Preset {
        self.log = Some(Arc::new(Mutex::new(RequestLog::default())));
        self
    }

    /// The shared request log, when [`Preset::recording`] was called.
    pub fn log(&self) -> Option<Arc<Mutex<RequestLog>>> {
        self.log.clone()
    }

    /// Sets the value of one input.
    pub fn insert(&mut self, node: u16, name: &str, occurrence: u32, value: u64) {
        self.values
            .insert((node, name.to_string(), occurrence), value);
    }

    /// The value of one input, if pinned. Pure lookup: nothing is
    /// recorded — replays resolve inputs through [`Preset::resolve`].
    pub fn get(&self, node: u16, name: &str, occurrence: u32) -> Option<u64> {
        self.values
            .get(&(node, name.to_string(), occurrence))
            .copied()
    }

    /// Resolves one input during replay: looks the key up and (when
    /// recording) appends the request — pinned or missed — to the log.
    /// Returns `None` on a miss; the *caller* decides what a miss means
    /// (default 0 in lenient mode, an
    /// [`UnkeyedInput`](crate::BugKind::UnkeyedInput) bug in strict
    /// mode).
    pub fn resolve(&self, node: u16, name: &str, occurrence: u32, width: Width) -> Option<u64> {
        let pinned = self.get(node, name, occurrence);
        if let Some(log) = &self.log {
            log.lock()
                .expect("request log poisoned")
                .requests
                .push(InputRequest {
                    node,
                    name: name.to_string(),
                    occurrence,
                    width,
                    pinned,
                });
        }
        pinned
    }

    /// Iterates over `(node, name, occurrence, value)` in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &str, u32, u64)> {
        self.values
            .iter()
            .map(|((node, name, occ), v)| (*node, name.as_str(), *occ, *v))
    }

    /// Number of pinned inputs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_model_rekeys() {
        let mut symbols = SymbolTable::new();
        let a = symbols.fresh_keyed("drop", Width::BOOL, 2, 0);
        let b = symbols.fresh_keyed("drop", Width::BOOL, 2, 1);
        let c = symbols.fresh_keyed("x", Width::W8, 0, 0);
        let mut model = Model::new();
        model.assign(a.id(), 1);
        model.assign(b.id(), 0);
        model.assign(c.id(), 42);
        let p = Preset::from_model(&model, &symbols);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get(2, "drop", 0), Some(1));
        assert_eq!(p.get(2, "drop", 1), Some(0));
        assert_eq!(p.get(0, "x", 0), Some(42));
        assert_eq!(p.get(1, "drop", 0), None);
    }

    #[test]
    fn from_model_replay_key_collision_latest_symid_wins() {
        // Two sibling variables sharing one replay key: the one minted
        // later (higher SymId) must deterministically win, whatever the
        // assignment order.
        let mut symbols = SymbolTable::new();
        let early = symbols.fresh_keyed("drop", Width::BOOL, 1, 0).id();
        let late = symbols.fresh_keyed("drop", Width::BOOL, 1, 0).id();
        for (first, second) in [((early, 0), (late, 1)), ((late, 1), (early, 0))] {
            let mut model = Model::new();
            model.assign(first.0, first.1);
            model.assign(second.0, second.1);
            let p = Preset::from_model(&model, &symbols);
            assert_eq!(p.len(), 1);
            assert_eq!(p.get(1, "drop", 0), Some(1), "latest-minted value wins");
        }
    }

    #[test]
    fn empty_preset() {
        let p = Preset::new();
        assert!(p.is_empty());
        assert_eq!(p.get(0, "anything", 0), None);
    }

    #[test]
    fn strict_flag_and_equality() {
        let lenient = Preset::new();
        let strict = Preset::new().with_strict();
        assert!(strict.is_strict());
        assert!(!lenient.is_strict());
        assert_ne!(lenient, strict, "strictness is part of preset identity");
        assert_eq!(lenient, lenient.clone().recording(), "the log is not");
    }

    #[test]
    fn resolve_records_hits_and_misses() {
        let mut p = Preset::new();
        p.insert(3, "drop", 0, 1);
        let p = p.recording();
        let log = p.log().expect("recording attached a log");
        assert_eq!(p.resolve(3, "drop", 0, Width::BOOL), Some(1));
        assert_eq!(p.resolve(3, "drop", 1, Width::BOOL), None);
        assert_eq!(p.resolve(0, "reading", 0, Width::W16), None);
        let log = log.lock().unwrap();
        assert_eq!(log.requests.len(), 3);
        assert_eq!(log.requests[0].pinned, Some(1));
        assert_eq!(log.misses().count(), 2);
        let first = log.first_miss().expect("two misses");
        assert_eq!(first.replay_key(), (3, "drop".to_string(), 1));
        assert_eq!(first.width, Width::BOOL);
    }

    #[test]
    fn resolve_without_log_is_plain_lookup() {
        let mut p = Preset::new();
        p.insert(0, "x", 0, 7);
        assert_eq!(p.resolve(0, "x", 0, Width::W8), Some(7));
        assert_eq!(p.resolve(0, "x", 1, Width::W8), None);
        assert!(p.log().is_none());
    }

    #[test]
    fn iter_walks_all_pins() {
        let mut p = Preset::new();
        p.insert(0, "x", 0, 7);
        p.insert(2, "drop", 1, 1);
        let mut entries: Vec<(u16, String, u32, u64)> = p
            .iter()
            .map(|(n, name, o, v)| (n, name.to_string(), o, v))
            .collect();
        entries.sort();
        assert_eq!(
            entries,
            vec![(0, "x".to_string(), 0, 7), (2, "drop".to_string(), 1, 1),]
        );
    }
}
