//! Bug reports produced by the interpreter's safety checks.

use crate::isa::{FuncId, Loc};
use sde_symbolic::{CodecError, Model, SnapReader, SnapWriter};
use std::fmt;
use std::sync::Arc;

/// Classes of bugs the VM detects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BugKind {
    /// An `Assert` condition can be (or definitely is) false.
    AssertFailed,
    /// A division or remainder whose divisor can be zero.
    DivisionByZero,
    /// A memory access outside the configured memory size.
    OutOfBounds {
        /// The offending concrete address.
        addr: u64,
    },
    /// A memory access or send whose address/destination stays symbolic
    /// and multi-valued under the path condition.
    SymbolicPointer,
    /// An explicit `Fail` instruction was reached.
    ExplicitFail,
    /// The interpreter hit a malformed situation (bad register width,
    /// missing function, call-stack overflow) — a program bug rather than
    /// a software-under-test bug, but reported the same way.
    Internal,
    /// A strict replay [`Preset`](crate::Preset) had no value for a
    /// requested symbolic input. Lenient replays default such inputs to
    /// 0; the conformance oracle replays strictly, where a missing key
    /// means the assignment (or the solve that produced it) was
    /// incomplete and must not be papered over.
    UnkeyedInput,
    /// A registered invariant of the checking layer
    /// (`sde-core::check`) was violated: a node-local or cross-node
    /// predicate over the explored states is satisfiable together with
    /// their path conditions.
    InvariantViolated,
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BugKind::AssertFailed => write!(f, "assertion failed"),
            BugKind::DivisionByZero => write!(f, "division by zero"),
            BugKind::OutOfBounds { addr } => write!(f, "out-of-bounds access at {addr:#x}"),
            BugKind::SymbolicPointer => write!(f, "unresolvable symbolic pointer"),
            BugKind::ExplicitFail => write!(f, "explicit failure"),
            BugKind::Internal => write!(f, "internal interpreter error"),
            BugKind::UnkeyedInput => write!(f, "unkeyed input in strict replay"),
            BugKind::InvariantViolated => write!(f, "invariant violated"),
        }
    }
}

/// A concrete, replayable bug found on one execution path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugReport {
    /// What went wrong.
    pub kind: BugKind,
    /// Message supplied by the program (assert/fail) or the interpreter.
    pub message: Arc<str>,
    /// Where it went wrong.
    pub loc: Loc,
    /// A witness assignment of the symbolic inputs reaching the bug, when
    /// the solver produced one.
    pub model: Option<Model>,
}

impl BugReport {
    /// Serializes the report into `w` (snapshot codec).
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        match self.kind {
            BugKind::AssertFailed => w.u8(0),
            BugKind::DivisionByZero => w.u8(1),
            BugKind::OutOfBounds { addr } => {
                w.u8(2);
                w.varint(addr);
            }
            BugKind::SymbolicPointer => w.u8(3),
            BugKind::ExplicitFail => w.u8(4),
            BugKind::Internal => w.u8(5),
            BugKind::UnkeyedInput => w.u8(6),
            BugKind::InvariantViolated => w.u8(7),
        }
        w.str(&self.message);
        w.varint(u64::from(self.loc.func.0));
        w.varint(u64::from(self.loc.index));
        match &self.model {
            Some(m) => {
                w.bool(true);
                w.model(m);
            }
            None => w.bool(false),
        }
    }

    /// Decodes a report written by [`BugReport::write_snapshot`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input; never
    /// panics.
    pub fn read_snapshot(r: &mut SnapReader<'_>) -> Result<BugReport, CodecError> {
        let kind = match r.u8()? {
            0 => BugKind::AssertFailed,
            1 => BugKind::DivisionByZero,
            2 => BugKind::OutOfBounds { addr: r.varint()? },
            3 => BugKind::SymbolicPointer,
            4 => BugKind::ExplicitFail,
            5 => BugKind::Internal,
            6 => BugKind::UnkeyedInput,
            7 => BugKind::InvariantViolated,
            _ => return Err(CodecError::Malformed("bug kind tag")),
        };
        let message: Arc<str> = Arc::from(r.str()?.as_str());
        let func = FuncId(r.ranged("bug function")?);
        let index = r.ranged("bug index")?;
        let model = if r.bool()? { Some(r.model()?) } else { None };
        Ok(BugReport {
            kind,
            message,
            loc: Loc { func, index },
            model,
        })
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.kind, self.loc, self.message)?;
        if let Some(m) = &self.model {
            write!(f, " (witness {m})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::FuncId;

    #[test]
    fn display() {
        let r = BugReport {
            kind: BugKind::DivisionByZero,
            message: Arc::from("udiv"),
            loc: Loc {
                func: FuncId(0),
                index: 4,
            },
            model: None,
        };
        assert_eq!(r.to_string(), "division by zero at f0@4: udiv");
    }
}
