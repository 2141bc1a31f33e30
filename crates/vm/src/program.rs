//! Programs and the builder/assembler API.

use crate::isa::{FuncId, Inst, Reg};

use sde_symbolic::Width;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A compiled function: flat instruction list plus register-file size.
#[derive(Debug, Clone)]
pub struct Function {
    name: Arc<str>,
    param_count: u16,
    reg_count: u16,
    insts: Vec<Inst>,
}

impl Function {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parameters (copied into registers `r0..`).
    pub fn param_count(&self) -> u16 {
        self.param_count
    }

    /// Size of the register file.
    pub fn reg_count(&self) -> u16 {
        self.reg_count
    }

    /// The instruction at `index`.
    pub fn inst(&self, index: u32) -> Option<&Inst> {
        self.insts.get(index as usize)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` for an empty body.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// An immutable program: a set of named functions sharing one id space.
///
/// Programs are built with [`ProgramBuilder`]. `clone` is a deep copy
/// (every function body plus the name table), so a scenario holds each
/// node's program behind an `Arc` and the engine hands that pointer to
/// dispatches and shard workers instead of copying the program.
#[derive(Debug, Clone)]
pub struct Program {
    functions: Vec<Function>,
    by_name: HashMap<Arc<str>, FuncId>,
}

impl Program {
    /// Looks a function up by name.
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not belong to this program.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Returns `true` when the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Iterates over `(id, function)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }
}

/// Errors detected when assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was created but never [`FunctionBuilder::place`]d.
    UnplacedLabel {
        /// The function containing the label.
        function: String,
        /// The label index.
        label: u32,
    },
    /// Two functions share a name.
    DuplicateFunction(String),
    /// A call references a function name never defined.
    UnknownFunction {
        /// The calling function.
        caller: String,
        /// The unresolved callee name.
        callee: String,
    },
    /// A function body fell through its final instruction (no terminator).
    MissingTerminator(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnplacedLabel { function, label } => {
                write!(
                    f,
                    "label L{label} in function `{function}` was never placed"
                )
            }
            ProgramError::DuplicateFunction(name) => {
                write!(f, "function `{name}` defined twice")
            }
            ProgramError::UnknownFunction { caller, callee } => {
                write!(f, "function `{caller}` calls undefined function `{callee}`")
            }
            ProgramError::MissingTerminator(name) => {
                write!(f, "function `{name}` can fall off the end of its body")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A label within a function under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Instruction with possibly unresolved targets.
#[derive(Debug, Clone)]
enum Draft {
    Ready(Inst),
    Jmp(Label),
    Br {
        cond: Reg,
        then_label: Label,
        else_label: Label,
    },
    Call {
        callee: Arc<str>,
        args: Vec<Reg>,
        dst: Option<Reg>,
    },
}

/// Builds one function: allocates registers, emits instructions, resolves
/// labels.
///
/// Obtained through [`ProgramBuilder::function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    name: Arc<str>,
    param_count: u16,
    next_reg: u16,
    drafts: Vec<Draft>,
    label_targets: Vec<Option<u32>>,
}

impl FunctionBuilder {
    fn new(name: Arc<str>, param_count: u16) -> Self {
        FunctionBuilder {
            name,
            param_count,
            next_reg: param_count,
            drafts: Vec::new(),
            label_targets: Vec::new(),
        }
    }

    /// Allocates a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .expect("register file overflow");
        r
    }

    /// The i-th parameter register (`r0..`).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of the declared parameter range.
    pub fn param(&self, i: u16) -> Reg {
        assert!(i < self.param_count, "parameter {i} out of range");
        Reg(i)
    }

    /// Creates a label to be [`place`](Self::place)d later.
    pub fn label(&mut self) -> Label {
        let l = Label(self.label_targets.len() as u32);
        self.label_targets.push(None);
        l
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics when the label was already placed.
    pub fn place(&mut self, label: Label) {
        let slot = &mut self.label_targets[label.0 as usize];
        assert!(slot.is_none(), "label placed twice");
        *slot = Some(self.drafts.len() as u32);
    }

    /// Emits `dst ← constant`.
    pub fn const_(&mut self, dst: Reg, value: u64, width: Width) {
        self.drafts
            .push(Draft::Ready(Inst::Const { dst, value, width }));
    }

    /// Emits `dst ← src`.
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.drafts.push(Draft::Ready(Inst::Mov { dst, src }));
    }

    /// Emits `dst ← lhs op rhs`.
    pub fn bin(&mut self, op: sde_symbolic::BinOp, dst: Reg, lhs: Reg, rhs: Reg) {
        self.drafts
            .push(Draft::Ready(Inst::Bin { op, dst, lhs, rhs }));
    }

    /// Emits `dst ← op src`.
    pub fn un(&mut self, op: sde_symbolic::UnOp, dst: Reg, src: Reg) {
        self.drafts.push(Draft::Ready(Inst::Un { op, dst, src }));
    }

    /// Emits a width cast.
    pub fn cast(&mut self, op: sde_symbolic::CastOp, to: Width, dst: Reg, src: Reg) {
        self.drafts
            .push(Draft::Ready(Inst::Cast { op, to, dst, src }));
    }

    /// Emits a select (branch-free conditional).
    pub fn select(&mut self, dst: Reg, cond: Reg, then: Reg, els: Reg) {
        self.drafts.push(Draft::Ready(Inst::Select {
            dst,
            cond,
            then,
            els,
        }));
    }

    /// Emits a load of `width` bits from the address in `addr`.
    pub fn load(&mut self, dst: Reg, addr: Reg, width: Width) {
        self.drafts
            .push(Draft::Ready(Inst::Load { dst, addr, width }));
    }

    /// Emits a store of `src` to the address in `addr`.
    pub fn store(&mut self, addr: Reg, src: Reg) {
        self.drafts.push(Draft::Ready(Inst::Store { addr, src }));
    }

    /// Emits an unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) {
        self.drafts.push(Draft::Jmp(label));
    }

    /// Emits a conditional branch.
    pub fn br(&mut self, cond: Reg, then_label: Label, else_label: Label) {
        self.drafts.push(Draft::Br {
            cond,
            then_label,
            else_label,
        });
    }

    /// Emits a call to the named function (resolved at build time).
    pub fn call(&mut self, callee: &str, args: &[Reg], dst: Option<Reg>) {
        self.drafts.push(Draft::Call {
            callee: Arc::from(callee),
            args: args.to_vec(),
            dst,
        });
    }

    /// Emits a return.
    pub fn ret(&mut self, val: Option<Reg>) {
        self.drafts.push(Draft::Ready(Inst::Ret { val }));
    }

    /// Emits a fresh symbolic input.
    pub fn make_symbolic(&mut self, dst: Reg, name: &str, width: Width) {
        self.drafts.push(Draft::Ready(Inst::MakeSymbolic {
            dst,
            name: Arc::from(name),
            width,
        }));
    }

    /// Emits a packet send.
    pub fn send(&mut self, dest: Reg, payload: &[Reg]) {
        self.drafts.push(Draft::Ready(Inst::Send {
            dest,
            payload: payload.to_vec(),
        }));
    }

    /// Emits a timer arm.
    pub fn set_timer(&mut self, delay: Reg, timer: u16) {
        self.drafts
            .push(Draft::Ready(Inst::SetTimer { delay, timer }));
    }

    /// Emits `dst ← now`.
    pub fn now(&mut self, dst: Reg) {
        self.drafts.push(Draft::Ready(Inst::Now { dst }));
    }

    /// Emits `dst ← my node id`.
    pub fn my_id(&mut self, dst: Reg) {
        self.drafts.push(Draft::Ready(Inst::MyId { dst }));
    }

    /// Emits an assertion.
    pub fn assert(&mut self, cond: Reg, msg: &str) {
        self.drafts.push(Draft::Ready(Inst::Assert {
            cond,
            msg: Arc::from(msg),
        }));
    }

    /// Emits an assumption.
    pub fn assume(&mut self, cond: Reg) {
        self.drafts.push(Draft::Ready(Inst::Assume { cond }));
    }

    /// Emits an unconditional failure.
    pub fn fail(&mut self, msg: &str) {
        self.drafts.push(Draft::Ready(Inst::Fail {
            msg: Arc::from(msg),
        }));
    }

    /// Emits a halt (node stops for good).
    pub fn halt(&mut self) {
        self.drafts.push(Draft::Ready(Inst::Halt));
    }

    /// Emits a no-op.
    pub fn nop(&mut self) {
        self.drafts.push(Draft::Ready(Inst::Nop));
    }

    /// Convenience: allocate a register and load a constant into it.
    pub fn imm(&mut self, value: u64, width: Width) -> Reg {
        let r = self.reg();
        self.const_(r, value, width);
        r
    }

    fn finish(self, resolve: &HashMap<Arc<str>, FuncId>) -> Result<Function, ProgramError> {
        let name = self.name.clone();
        // Every label must be placed; labels may point one past the end
        // only if nothing jumps there — we reject that for simplicity by
        // also requiring in-range targets below.
        let targets: Vec<u32> = self
            .label_targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                t.ok_or_else(|| ProgramError::UnplacedLabel {
                    function: name.to_string(),
                    label: i as u32,
                })
            })
            .collect::<Result<_, _>>()?;

        let insts: Vec<Inst> = self
            .drafts
            .into_iter()
            .map(|d| match d {
                Draft::Ready(i) => Ok(i),
                Draft::Jmp(l) => Ok(Inst::Jmp {
                    target: targets[l.0 as usize],
                }),
                Draft::Br {
                    cond,
                    then_label,
                    else_label,
                } => Ok(Inst::Br {
                    cond,
                    then_target: targets[then_label.0 as usize],
                    else_target: targets[else_label.0 as usize],
                }),
                Draft::Call { callee, args, dst } => {
                    let func = resolve.get(&callee).copied().ok_or_else(|| {
                        ProgramError::UnknownFunction {
                            caller: name.to_string(),
                            callee: callee.to_string(),
                        }
                    })?;
                    Ok(Inst::Call { func, args, dst })
                }
            })
            .collect::<Result<_, _>>()?;

        // The body must end in a terminator (or be terminated everywhere a
        // fall-through could reach the end). We check only the last
        // instruction; richer CFG validation is left to tests.
        match insts.last() {
            Some(
                Inst::Ret { .. }
                | Inst::Jmp { .. }
                | Inst::Br { .. }
                | Inst::Halt
                | Inst::Fail { .. },
            ) => {}
            _ => return Err(ProgramError::MissingTerminator(name.to_string())),
        }

        Ok(Function {
            name,
            param_count: self.param_count,
            reg_count: self.next_reg,
            insts,
        })
    }
}

/// Builds a [`Program`] out of named functions.
///
/// # Examples
///
/// ```
/// use sde_vm::ProgramBuilder;
///
/// let mut pb = ProgramBuilder::new();
/// pb.function("main", 0, |f| {
///     let r = f.imm(1, sde_symbolic::Width::W8);
///     f.ret(Some(r));
/// });
/// let program = pb.build().unwrap();
/// assert!(program.function_id("main").is_some());
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    builders: Vec<FunctionBuilder>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a function; the closure receives its [`FunctionBuilder`].
    ///
    /// Calls between functions are resolved by name when
    /// [`build`](Self::build) runs, so definition order does not matter.
    pub fn function(
        &mut self,
        name: &str,
        param_count: u16,
        body: impl FnOnce(&mut FunctionBuilder),
    ) -> &mut Self {
        let mut fb = FunctionBuilder::new(Arc::from(name), param_count);
        body(&mut fb);
        self.builders.push(fb);
        self
    }

    /// Assembles the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] for unplaced labels, duplicate or unknown
    /// function names, and bodies without a final terminator.
    pub fn build(self) -> Result<Program, ProgramError> {
        let mut by_name: HashMap<Arc<str>, FuncId> = HashMap::new();
        for (i, fb) in self.builders.iter().enumerate() {
            if by_name.insert(fb.name.clone(), FuncId(i as u32)).is_some() {
                return Err(ProgramError::DuplicateFunction(fb.name.to_string()));
            }
        }
        let functions: Vec<Function> = self
            .builders
            .into_iter()
            .map(|fb| fb.finish(&by_name))
            .collect::<Result<_, _>>()?;
        Ok(Program { functions, by_name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sde_symbolic::BinOp;

    #[test]
    fn build_simple_function() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 2, |f| {
            let dst = f.reg();
            f.bin(BinOp::Add, dst, f.param(0), f.param(1));
            f.ret(Some(dst));
        });
        let p = pb.build().unwrap();
        let id = p.function_id("f").unwrap();
        let func = p.function(id);
        assert_eq!(func.param_count(), 2);
        assert_eq!(func.reg_count(), 3);
        assert_eq!(func.len(), 2);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut pb = ProgramBuilder::new();
        pb.function("loop", 0, |f| {
            let top = f.label();
            let out = f.label();
            f.place(top);
            let c = f.imm(0, Width::BOOL);
            f.br(c, top, out);
            f.place(out);
            f.ret(None);
        });
        let p = pb.build().unwrap();
        let func = p.function(p.function_id("loop").unwrap());
        match func.inst(1) {
            Some(Inst::Br {
                then_target,
                else_target,
                ..
            }) => {
                assert_eq!(*then_target, 0);
                assert_eq!(*else_target, 2);
            }
            other => panic!("unexpected inst {other:?}"),
        }
    }

    #[test]
    fn unplaced_label_is_an_error() {
        let mut pb = ProgramBuilder::new();
        pb.function("bad", 0, |f| {
            let l = f.label();
            f.jmp(l);
        });
        match pb.build() {
            Err(ProgramError::UnplacedLabel { function, .. }) => assert_eq!(function, "bad"),
            other => panic!("expected UnplacedLabel, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_function_is_an_error() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 0, |f| f.ret(None));
        pb.function("f", 0, |f| f.ret(None));
        assert_eq!(
            pb.build().unwrap_err(),
            ProgramError::DuplicateFunction("f".into())
        );
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 0, |f| {
            f.call("ghost", &[], None);
            f.ret(None);
        });
        match pb.build() {
            Err(ProgramError::UnknownFunction { caller, callee }) => {
                assert_eq!(caller, "f");
                assert_eq!(callee, "ghost");
            }
            other => panic!("expected UnknownFunction, got {other:?}"),
        }
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let mut pb = ProgramBuilder::new();
        pb.function("f", 0, |f| {
            f.nop();
        });
        assert_eq!(
            pb.build().unwrap_err(),
            ProgramError::MissingTerminator("f".into())
        );
    }

    #[test]
    fn cross_function_calls_resolve_regardless_of_order() {
        let mut pb = ProgramBuilder::new();
        pb.function("caller", 0, |f| {
            let r = f.reg();
            f.call("callee", &[], Some(r));
            f.ret(Some(r));
        });
        pb.function("callee", 0, |f| {
            let r = f.imm(9, Width::W8);
            f.ret(Some(r));
        });
        let p = pb.build().unwrap();
        let caller = p.function(p.function_id("caller").unwrap());
        match caller.inst(0) {
            Some(Inst::Call { func, .. }) => {
                assert_eq!(p.function(*func).name(), "callee");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    use sde_symbolic::Width;
}
