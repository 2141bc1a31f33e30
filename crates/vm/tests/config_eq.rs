//! The structural state comparison against the rendering-based one it
//! replaced on the engine's confirmation path.
//!
//! [`VmState::config_eq`] / [`VmState::dedup_eq`] decide by pointer where
//! two states share storage, cell by cell and term by term where they do
//! not; the `*_reference` versions look every cell up by hash and sort
//! the constraints' renderings. On states of one symbol table whose
//! variables all print their id — what these scripts build — the two must
//! agree: pairs that share a heap root, pairs equal in content but built
//! apart, path conditions that are permutations of each other, pairs one
//! operation apart, pairs whose paths differ in one constraint only.

use proptest::prelude::*;
use sde_symbolic::{Expr, ExprRef, Solver, SymbolTable, Value, Width};
use sde_vm::{step, Program, ProgramBuilder, StepResult, VmCtx, VmState};

/// One edit of a state through the public surface the engine uses.
#[derive(Debug, Clone)]
enum Op {
    /// Run `poke(addr, value)`: one byte store. `value` indexes the pool.
    Poke { addr: u32, value: usize },
    /// Add constraint `index` of the pool to the path condition.
    Constrain(usize),
    /// Mint one more input named `name`.
    Input(usize),
    /// A failure-model decision: branch trace and path digest.
    Branch { kind: u32, taken: bool },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..24, 0usize..8).prop_map(|(addr, value)| Op::Poke { addr, value }),
            (0usize..8).prop_map(Op::Constrain),
            (0usize..3).prop_map(Op::Input),
            (1u32..4, any::<bool>()).prop_map(|(kind, taken)| Op::Branch { kind, taken }),
        ],
        0..14,
    )
}

/// The program, the symbols and the value / constraint pools the scripts
/// index into. One table, `fresh` variables: every rendering names its id.
struct World {
    program: Program,
    solver: Solver,
    symbols: SymbolTable,
    values: Vec<Value>,
    constraints: Vec<ExprRef>,
}

impl World {
    fn new() -> World {
        let mut pb = ProgramBuilder::new();
        pb.function("poke", 2, |f| {
            let (addr, value) = (f.param(0), f.param(1));
            f.store(addr, value);
            f.ret(None);
        });
        let mut symbols = SymbolTable::new();
        let vars: Vec<ExprRef> = (0..4)
            .map(|_| Expr::sym(symbols.fresh("x", Width::W8)))
            .collect();
        let byte = |n| Expr::const_(n, Width::W8);
        let values = (0..4)
            .map(|n| Value::const_(n, Width::W8))
            .chain(vars.iter().cloned().map(Value::from))
            .collect();
        let constraints = (0..8)
            .map(|i| match i % 2 {
                0 => Expr::ult(vars[i / 2].clone(), byte(10 + i as u64)),
                _ => Expr::ne(vars[i / 2].clone(), vars[(i / 2 + 1) % 4].clone()),
            })
            .collect();
        World {
            program: pb.build().unwrap(),
            solver: Solver::new(),
            symbols,
            values,
            constraints,
        }
    }

    fn apply(&mut self, state: &mut VmState, script: &[Op]) {
        for op in script {
            match *op {
                Op::Poke { addr, value } => {
                    let args = [
                        Value::const_(u64::from(addr), Width::W32),
                        self.values[value].clone(),
                    ];
                    assert!(state.prepare(&self.program, "poke", &args));
                    let mut ctx = VmCtx::new(&self.solver, &mut self.symbols);
                    loop {
                        match step(&self.program, state, &mut ctx) {
                            StepResult::Continue => {}
                            StepResult::HandlerDone(None) => break,
                            other => panic!("poke only stores and returns: {other:?}"),
                        }
                    }
                }
                Op::Constrain(index) => state.constrain(self.constraints[index].clone()),
                Op::Input(name) => {
                    state.next_input_occurrence(["drop", "dup", "x"][name]);
                }
                Op::Branch { kind, taken } => state.record_external_branch(kind, 0, taken),
            }
        }
    }
}

/// `script` with its path constraints in reverse order, everything else
/// where it was: the same constraint multiset, met in another order.
fn with_constraints_reversed(script: &[Op]) -> Vec<Op> {
    let mut reversed: Vec<Op> = (script.iter().rev())
        .filter(|op| matches!(op, Op::Constrain(_)))
        .cloned()
        .collect();
    (script.iter())
        .map(|op| match op {
            Op::Constrain(_) => reversed.remove(0),
            other => other.clone(),
        })
        .collect()
}

/// `script` with its last path constraint swapped for another of the
/// pool: as many constraints, one of them different, all else equal.
fn with_one_constraint_swapped(script: &[Op]) -> Vec<Op> {
    let mut script = script.to_vec();
    if let Some(Op::Constrain(index)) =
        (script.iter_mut().rev()).find(|op| matches!(op, Op::Constrain(_)))
    {
        *index = (*index + 3) % 8;
    }
    script
}

fn assert_agree(a: &VmState, b: &VmState, what: &str) -> Result<(), TestCaseError> {
    for (x, y) in [(a, b), (b, a)] {
        prop_assert_eq!(
            x.config_eq(y),
            x.config_eq_reference(y),
            "config_eq, {}",
            what
        );
        prop_assert_eq!(x.dedup_eq(y), x.dedup_eq_reference(y), "dedup_eq, {}", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn structural_comparison_agrees_with_the_rendering_oracle(
        common in ops(),
        left in ops(),
        right in ops(),
        extra in ops(),
    ) {
        let mut world = World::new();
        let mut base = VmState::fresh(&world.program);
        world.apply(&mut base, &common);

        // `a`: the base's clone, written a little further.
        let mut a = base.clone();
        world.apply(&mut a, &left);
        prop_assert!(a.config_eq(&a.clone()) && a.dedup_eq(&a.clone()));
        assert_agree(&a, &base, "a state and the clone it grew from")?;

        // Same edits on another clone: equal, the common part shared.
        let mut twin = base.clone();
        world.apply(&mut twin, &left);
        prop_assert!(a.dedup_eq(&twin), "same script from a shared base");
        assert_agree(&a, &twin, "same script from a shared base")?;

        // Same edits from scratch: equal, nothing shared.
        let mut apart = VmState::fresh(&world.program);
        world.apply(&mut apart, &common);
        world.apply(&mut apart, &left);
        prop_assert!(a.dedup_eq(&apart), "same script, built apart");
        assert_agree(&a, &apart, "same script, built apart")?;

        // The same constraints met in another order: a permutation.
        let mut permuted = VmState::fresh(&world.program);
        world.apply(&mut permuted, &with_constraints_reversed(&common));
        world.apply(&mut permuted, &with_constraints_reversed(&left));
        prop_assert!(a.config_eq(&permuted), "constraints permuted");
        assert_agree(&a, &permuted, "constraints permuted")?;

        // As many constraints, one of them another: only the path differs.
        let mut off_by_one = VmState::fresh(&world.program);
        world.apply(&mut off_by_one, &with_constraints_reversed(&common));
        world.apply(&mut off_by_one, &with_one_constraint_swapped(&left));
        assert_agree(&a, &off_by_one, "one constraint swapped")?;
        assert_agree(&permuted, &off_by_one, "permuted, one constraint swapped")?;

        // A sibling: shares the base, differs (usually) after it.
        let mut sibling = base.clone();
        world.apply(&mut sibling, &right);
        assert_agree(&a, &sibling, "siblings of one base")?;

        // One more stretch of edits on top of `a` itself.
        let mut later = a.clone();
        world.apply(&mut later, &extra);
        assert_agree(&a, &later, "a state and its continuation")?;
        assert_agree(&twin, &later, "a twin and the continuation")?;

        // Memory size is the future's business: `dedup_eq` only.
        let mut roomy = VmState::fresh_with_memory(&world.program, 1 << 20);
        world.apply(&mut roomy, &common);
        world.apply(&mut roomy, &left);
        prop_assert!(a.config_eq(&roomy) && !a.dedup_eq(&roomy));
        assert_agree(&a, &roomy, "same script, other memory size")?;
    }
}
