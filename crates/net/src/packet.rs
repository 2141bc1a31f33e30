//! Packets: the unit of communication (and of communication history).

use crate::topology::NodeId;
use sde_symbolic::Value;
use std::fmt;

/// A network-wide unique packet identity.
///
/// The paper's communication-history construction assumes "all packets
/// that are exchanged in the network are unique and distinguishable from
/// each other" (§II-B); the engine mints one `PacketId` per transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A unicast transmission. Broadcast and multicast are series of unicasts
/// (paper footnote 1), so this is the only transmission shape.
///
/// Payload words are [`Value`]s, exactly as they sat in the sender's
/// registers: a concrete word travels inline (no allocation per hop), a
/// symbolic one carries the sender's term to the receiver — which is how
/// cross-node constraints arise in SDE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique identity of this transmission.
    pub id: PacketId,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Payload words (possibly symbolic).
    pub payload: Vec<Value>,
}

impl Packet {
    /// Returns `true` when every payload word is concrete.
    pub fn is_concrete(&self) -> bool {
        self.payload.iter().all(|e| e.is_concrete())
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}→{}]", self.id, self.src, self.dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sde_symbolic::{Expr, SymbolTable, Value, Width};

    #[test]
    fn display_and_concreteness() {
        let mut t = SymbolTable::new();
        let sym = Value::from(Expr::sym(t.fresh("b", Width::W8)));
        let p = Packet {
            id: PacketId(3),
            src: NodeId(1),
            dest: NodeId(2),
            payload: vec![Value::const_(9, Width::W8)],
        };
        assert_eq!(p.to_string(), "p3[n1→n2]");
        assert!(p.is_concrete());
        let q = Packet {
            payload: vec![sym],
            ..p.clone()
        };
        assert!(!q.is_concrete());
    }
}
