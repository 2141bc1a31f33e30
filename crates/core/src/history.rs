//! Communication histories (§II-B).
//!
//! The paper defines the communication history `h(s)` of a state `s` as
//! the sequence of packets sent or received by `s`, and notes it "is not
//! required to be stored: it is simply a construct to find a solution for
//! the state mapping problem". We keep a rolling digest always (cheap,
//! needed for duplicate detection) and the full log optionally (for the
//! conflict-freedom invariant checks exercised by the test suite).

use sde_net::{NodeId, PacketId};
use sde_pds::PList;
use std::fmt;

/// One entry of a communication history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HistoryEvent {
    /// This state transmitted packet `id` to node `peer`.
    Sent {
        /// The packet.
        id: PacketId,
        /// The destination node.
        peer: NodeId,
    },
    /// This state received packet `id` from node `peer`.
    Received {
        /// The packet.
        id: PacketId,
        /// The originating node.
        peer: NodeId,
    },
}

/// The communication history of one execution state.
///
/// Cloning shares the log structurally (forked siblings have identical
/// histories by construction — that is exactly the dstate invariant).
#[derive(Debug, Clone)]
pub struct CommHistory {
    digest: u64,
    /// Number of recorded events — the log's length too, when tracked.
    len: u32,
    /// Whether the full log is kept.
    tracked: bool,
    /// Full log, most recent first; empty unless tracked.
    log: PList<HistoryEvent>,
}

impl CommHistory {
    /// An empty history; `track` keeps the full log for invariant checks.
    pub fn new(track: bool) -> CommHistory {
        CommHistory {
            digest: 0xcbf2_9ce4_8422_2325,
            len: 0,
            tracked: track,
            log: PList::new(),
        }
    }

    /// Appends an event.
    pub fn record(&mut self, event: HistoryEvent) {
        let (tag, id, peer) = match event {
            HistoryEvent::Sent { id, peer } => (1u8, id, peer),
            HistoryEvent::Received { id, peer } => (2u8, id, peer),
        };
        let mut h = self.digest;
        for byte in [tag]
            .into_iter()
            .chain(id.0.to_le_bytes())
            .chain(peer.0.to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.digest = h;
        self.len += 1;
        if self.tracked {
            self.log = self.log.prepend(event);
        }
    }

    /// An order-sensitive digest of the history. Two states with equal
    /// digests (and equal lengths) almost surely have the same history.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of recorded events.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The full log (most recent first), when tracking was requested.
    pub fn log(&self) -> Option<impl Iterator<Item = &HistoryEvent>> {
        self.tracked.then(|| self.log.iter())
    }

    /// The full log, when tracked.
    fn tracked_log(&self) -> Option<&PList<HistoryEvent>> {
        self.tracked.then_some(&self.log)
    }

    /// Returns `true` when the two histories share their log storage
    /// structurally — the property that makes cloning a history O(1)
    /// regardless of its length. Untracked histories (no log) trivially
    /// share. Used by the fork-cost tests; never consult this for
    /// equality (see the `PartialEq` impl).
    pub fn shares_log_storage(&self, other: &CommHistory) -> bool {
        self.tracked == other.tracked && self.log.ptr_eq(&other.log)
    }

    /// Exports the exact stored parts for the snapshot codec: the digest,
    /// the length, and the log (most recent first) when tracked.
    pub(crate) fn export_parts(&self) -> (u64, u32, Option<Vec<HistoryEvent>>) {
        (
            self.digest,
            self.len,
            self.log().map(|l| l.copied().collect()),
        )
    }

    /// Rebuilds a history from parts exported by
    /// [`CommHistory::export_parts`] (`log` most recent first). Nothing is
    /// re-hashed: the digest is restored verbatim so forked siblings keep
    /// comparing equal across a snapshot/resume boundary.
    pub(crate) fn from_parts(digest: u64, len: u32, log: Option<Vec<HistoryEvent>>) -> CommHistory {
        let tracked = log.is_some();
        let mut list = PList::new();
        for e in log.into_iter().flatten().rev() {
            list = list.prepend(e);
        }
        CommHistory {
            digest,
            len,
            tracked,
            log: list,
        }
    }

    /// Checks whether two histories are in *direct conflict* (§II-B): one
    /// state sent a packet to the other's node that the other did not
    /// receive, or received a packet from the other's node that the other
    /// did not send.
    ///
    /// Requires full logs on both sides; returns `None` when either
    /// history is untracked.
    pub fn direct_conflict(
        &self,
        self_node: NodeId,
        other: &CommHistory,
        other_node: NodeId,
    ) -> Option<bool> {
        let mine = self.tracked_log()?;
        let theirs = other.tracked_log()?;
        // Packets I sent to their node must appear in their receive log,
        // and vice versa in both directions.
        let sent_to = |log: &PList<HistoryEvent>, peer: NodeId| -> Vec<PacketId> {
            log.iter()
                .filter_map(|e| match e {
                    HistoryEvent::Sent { id, peer: p } if *p == peer => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let received_from = |log: &PList<HistoryEvent>, peer: NodeId| -> Vec<PacketId> {
            log.iter()
                .filter_map(|e| match e {
                    HistoryEvent::Received { id, peer: p } if *p == peer => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let i_sent = sent_to(mine, other_node);
        let they_got = received_from(theirs, self_node);
        for id in &i_sent {
            if !they_got.contains(id) {
                return Some(true);
            }
        }
        for id in &they_got {
            if !i_sent.contains(id) {
                return Some(true);
            }
        }
        let they_sent = sent_to(theirs, self_node);
        let i_got = received_from(mine, other_node);
        for id in &they_sent {
            if !i_got.contains(id) {
                return Some(true);
            }
        }
        for id in &i_got {
            if !they_sent.contains(id) {
                return Some(true);
            }
        }
        Some(false)
    }
}

impl PartialEq for CommHistory {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.len == other.len
    }
}

impl Eq for CommHistory {}

impl fmt::Display for CommHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h[{} events, {:#x}]", self.len, self.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(id: u64, peer: u16) -> HistoryEvent {
        HistoryEvent::Sent {
            id: PacketId(id),
            peer: NodeId(peer),
        }
    }

    fn received(id: u64, peer: u16) -> HistoryEvent {
        HistoryEvent::Received {
            id: PacketId(id),
            peer: NodeId(peer),
        }
    }

    #[test]
    fn digests_track_order_and_content() {
        let mut a = CommHistory::new(false);
        let mut b = CommHistory::new(false);
        assert_eq!(a, b);
        a.record(sent(1, 2));
        assert_ne!(a, b);
        b.record(sent(1, 2));
        assert_eq!(a, b);
        // Different order → different digest.
        let mut c = CommHistory::new(false);
        let mut d = CommHistory::new(false);
        c.record(sent(1, 2));
        c.record(received(3, 4));
        d.record(received(3, 4));
        d.record(sent(1, 2));
        assert_ne!(c, d);
    }

    #[test]
    fn untracked_history_has_no_log() {
        let mut h = CommHistory::new(false);
        h.record(sent(1, 1));
        assert!(h.log().is_none());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn direct_conflict_detection() {
        // s (node 1) sent p1 to node 2; t (node 2) did not receive it.
        let mut s = CommHistory::new(true);
        s.record(sent(1, 2));
        let t = CommHistory::new(true);
        assert_eq!(s.direct_conflict(NodeId(1), &t, NodeId(2)), Some(true));

        // After t receives it, no conflict.
        let mut t2 = CommHistory::new(true);
        t2.record(received(1, 1));
        assert_eq!(s.direct_conflict(NodeId(1), &t2, NodeId(2)), Some(false));

        // t received a packet node 1 never sent → conflict (asymmetric case).
        let s_empty = CommHistory::new(true);
        assert_eq!(
            s_empty.direct_conflict(NodeId(1), &t2, NodeId(2)),
            Some(true)
        );

        // Logically-conflicted-but-not-directly: node 1 state sent to
        // node 2; a node-3 state received a forward from node 2. No
        // packets exchanged between nodes 1 and 3 directly → no *direct*
        // conflict (the paper's §II-B example).
        let mut s1 = CommHistory::new(true);
        s1.record(sent(1, 2));
        let mut s3 = CommHistory::new(true);
        s3.record(received(2, 2));
        assert_eq!(s1.direct_conflict(NodeId(1), &s3, NodeId(3)), Some(false));
    }

    #[test]
    fn export_import_roundtrip_preserves_digest_and_log() {
        let mut h = CommHistory::new(true);
        h.record(sent(1, 2));
        h.record(received(3, 4));
        let (digest, len, log) = h.export_parts();
        assert_eq!(len, 2);
        assert_eq!(log.as_ref().map(Vec::len), Some(2));
        let back = CommHistory::from_parts(digest, len, log);
        assert_eq!(back, h);
        assert_eq!(back.export_parts(), h.export_parts());
        let untracked = CommHistory::from_parts(digest, len, None);
        assert!(untracked.log().is_none());
        assert_eq!(untracked, h, "equality compares digest and length only");
    }

    #[test]
    fn untracked_conflict_is_unknown() {
        let s = CommHistory::new(false);
        let t = CommHistory::new(true);
        assert_eq!(s.direct_conflict(NodeId(1), &t, NodeId(2)), None);
    }
}
