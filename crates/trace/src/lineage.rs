//! Fork-lineage reconstruction from a trace.
//!
//! `Fork` events define a forest: roots are the k initial states (`Boot`
//! events), every forked child has exactly one parent, and child ids are
//! strictly greater than every id allocated before them. [`Lineage`]
//! rebuilds and validates that forest and answers ancestry queries — the
//! substrate of the `lineage` report tool and the lineage invariant tests.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::{ForkReason, TraceEvent};

/// One hop of an ancestry chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageStep {
    /// The state at this hop.
    pub state: u64,
    /// How this state came to exist: `None` for a root (booted) state,
    /// otherwise the fork reason that created it from the previous hop.
    pub created_by: Option<ForkReason>,
}

/// The fork forest reconstructed from a trace.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    roots: BTreeSet<u64>,
    parent: BTreeMap<u64, (u64, ForkReason)>,
    mentioned: BTreeSet<u64>,
}

impl Lineage {
    /// Rebuild the forest from an event stream.
    ///
    /// Fails fast on structural violations a well-formed trace can never
    /// contain: a state booted twice, a root that is also a fork child,
    /// or a child forked twice (two parents).
    pub fn from_events<'a, I>(events: I) -> Result<Lineage, String>
    where
        I: IntoIterator<Item = &'a TraceEvent>,
    {
        let mut l = Lineage::default();
        for ev in events {
            match ev {
                TraceEvent::Boot { state, .. } => {
                    if !l.roots.insert(*state) {
                        return Err(format!("state {state} booted twice"));
                    }
                    if l.parent.contains_key(state) {
                        return Err(format!("root state {state} has a parent"));
                    }
                    l.mentioned.insert(*state);
                }
                TraceEvent::Fork {
                    parent,
                    child,
                    reason,
                    ..
                } => {
                    if l.roots.contains(child) {
                        return Err(format!("fork child {child} is a root"));
                    }
                    if l.parent.insert(*child, (*parent, *reason)).is_some() {
                        return Err(format!("state {child} has two parents"));
                    }
                    l.mentioned.insert(*parent);
                    l.mentioned.insert(*child);
                }
                TraceEvent::Dispatch { state, .. }
                | TraceEvent::Deliver { state, .. }
                | TraceEvent::Drop { state, .. }
                | TraceEvent::Send { state, .. } => {
                    l.mentioned.insert(*state);
                }
                TraceEvent::MapBranch {
                    parent,
                    child,
                    forked,
                    ..
                } => {
                    l.mentioned.insert(*parent);
                    l.mentioned.insert(*child);
                    l.mentioned.extend(forked.iter().copied());
                }
                TraceEvent::MapSend {
                    state,
                    targets,
                    forked,
                    ..
                } => {
                    l.mentioned.insert(*state);
                    l.mentioned.extend(targets.iter().copied());
                    l.mentioned.extend(forked.iter().copied());
                }
                _ => {}
            }
        }
        Ok(l)
    }

    /// The booted (root) state ids.
    pub fn roots(&self) -> &BTreeSet<u64> {
        &self.roots
    }

    /// Every state id the trace mentions anywhere.
    pub fn states(&self) -> &BTreeSet<u64> {
        &self.mentioned
    }

    /// Number of fork edges.
    pub fn fork_count(&self) -> usize {
        self.parent.len()
    }

    /// The ancestry chain of `state`, root first, `state` last.
    ///
    /// `None` when the chain does not terminate at a booted root (a
    /// state the trace never explains, or a cycle).
    pub fn ancestry(&self, state: u64) -> Option<Vec<LineageStep>> {
        let mut rev = vec![];
        let mut cur = state;
        // The chain cannot be longer than the number of fork edges + 1;
        // anything beyond that is a cycle.
        for _ in 0..=self.parent.len() {
            if self.roots.contains(&cur) {
                rev.push(LineageStep {
                    state: cur,
                    created_by: None,
                });
                rev.reverse();
                return Some(rev);
            }
            let (p, r) = self.parent.get(&cur).copied()?;
            rev.push(LineageStep {
                state: cur,
                created_by: Some(r),
            });
            cur = p;
        }
        None // cycle
    }

    /// Validate the forest invariants over every mentioned state:
    /// non-empty root set, child ids strictly greater than their parents,
    /// and every mentioned state reachable from a booted root.
    pub fn validate(&self) -> Result<(), String> {
        if self.roots.is_empty() {
            return Err("no booted root states in trace".into());
        }
        for (child, (parent, _)) in &self.parent {
            if child <= parent {
                return Err(format!(
                    "fork child {child} does not follow its parent {parent} in allocation order"
                ));
            }
        }
        for &state in &self.mentioned {
            if self.ancestry(state).is_none() {
                return Err(format!("state {state} is not reachable from any root"));
            }
        }
        Ok(())
    }
}
