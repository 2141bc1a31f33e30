//! Differential tests for the incremental solver stack (DESIGN.md §6):
//! the exact cache must be answer-preserving. A seeded sweep of random
//! constraint sets is solved by two solvers — caching on and caching
//! off — and they must agree query for query, model for model, with
//! every returned model actually satisfying its query. Re-asking a query under fresh
//! symbols must be a pure cache hit: the exact cache keys modulo
//! order-preserving symbol renaming, and the answer for a group is a
//! pure function of its canonical form.

use sde_symbolic::{
    Expr, ExprRef, Model, PathCondition, Solver, SolverResult, SymVar, SymbolTable, Width,
};

/// Deterministic xorshift64 generator: the sweep is fully reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random width-1 constraint over the variable pool: comparisons of
/// variables against constants, each other, and small affine terms — the
/// shapes path conditions are made of.
fn random_constraint(rng: &mut Rng, vars: &[SymVar]) -> ExprRef {
    let var = Expr::sym(vars[rng.below(vars.len())].clone());
    let other = Expr::sym(vars[rng.below(vars.len())].clone());
    let k = Expr::const_(rng.below(64) as u64, Width::W8);
    let lhs = match rng.below(3) {
        0 => var.clone(),
        1 => Expr::add(
            var.clone(),
            Expr::const_(1 + rng.below(16) as u64, Width::W8),
        ),
        _ => var.clone(),
    };
    let rhs = match rng.below(3) {
        0 => k.clone(),
        1 => other,
        _ => k,
    };
    match rng.below(5) {
        0 => Expr::eq(lhs, rhs),
        1 => Expr::ne(lhs, rhs),
        2 => Expr::ult(lhs, rhs),
        3 => Expr::ule(lhs, rhs),
        _ => Expr::ugt(lhs, rhs),
    }
}

/// Seed of the sweep. The constraint pool is the first thing drawn from
/// it, so `pool_over(&mut Rng(SEED), other_vars)` rebuilds the same pool,
/// shape for shape, over another variable family.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

fn pool_over(rng: &mut Rng, vars: &[SymVar]) -> Vec<ExprRef> {
    (0..40).map(|_| random_constraint(rng, vars)).collect()
}

fn conjunction(pool: &[ExprRef], picks: &[usize]) -> PathCondition {
    picks
        .iter()
        .fold(PathCondition::new(), |pc, &i| pc.with(pool[i].clone()))
}

/// `result` with every variable of `from` renamed to its counterpart in
/// `to`.
fn renamed(result: &SolverResult, from: &[SymVar], to: &[SymVar]) -> SolverResult {
    let SolverResult::Sat(m) = result else {
        return result.clone();
    };
    let model: Model = from
        .iter()
        .zip(to)
        .filter_map(|(f, t)| Some((t.id(), m.value_of(f.id())?)))
        .collect();
    assert_eq!(model.len(), m.len(), "model mentions a foreign variable");
    SolverResult::Sat(model)
}

fn verdict(r: &SolverResult) -> &'static str {
    match r {
        SolverResult::Sat(_) => "sat",
        SolverResult::Unsat => "unsat",
        SolverResult::Unknown => "unknown",
    }
}

fn assert_model_satisfies(pc: &PathCondition, r: &SolverResult, label: &str, round: usize) {
    if let SolverResult::Sat(m) = r {
        assert_eq!(
            pc.eval(m),
            Some(true),
            "round {round}: {label} returned model {m} that does not satisfy {pc}"
        );
    }
}

/// The core differential property: a caching and a cache-free solver
/// answer an identical stream of random queries; whenever the cache-free
/// baseline decides a query, the caching one must return the same
/// answer — verdict and model — and every model must satisfy its query.
/// (A cache layer *may* decide a query the baseline abandons as Unknown —
/// that is the documented budget caveat — but with the default budget and
/// these domains no query goes Unknown.)
#[test]
fn cache_layers_preserve_verdicts() {
    let mut table = SymbolTable::new();
    let vars: Vec<SymVar> = (0..4)
        .map(|i| table.fresh(&format!("v{i}"), Width::W8))
        .collect();
    let mut rng = Rng(SEED);
    let pool = pool_over(&mut rng, &vars);

    let all_on = Solver::new();
    let all_off = Solver::new();
    all_off.set_caching(false);
    let mut multi_variable_rounds = 0;

    for round in 0..400 {
        let n = 1 + rng.below(5);
        let picks: Vec<usize> = (0..n).map(|_| rng.below(pool.len())).collect();
        let constraints: Vec<ExprRef> = picks.iter().map(|&i| pool[i].clone()).collect();
        let pc = conjunction(&pool, &picks);

        let baseline = all_off.check(&pc);
        assert_ne!(
            verdict(&baseline),
            "unknown",
            "round {round}: baseline unexpectedly exhausted its budget on {pc}"
        );
        assert_model_satisfies(&pc, &baseline, "baseline", round);
        let got = all_on.check(&pc);
        assert_eq!(
            verdict(&got),
            verdict(&baseline),
            "round {round}: the cache disagrees with the cache-free baseline on {pc}"
        );
        assert_model_satisfies(&pc, &got, "all-layers-on", round);
        // One answer per query: hits, misses and caching off agree model
        // for model.
        assert_eq!(got, baseline, "round {round}: cached model differs on {pc}");

        // Renaming is invisible: the same query over four fresh symbols,
        // minted in the same order, is answered entirely by the exact
        // cache — same verdict, the same model under the renaming, not one
        // search node.
        let fresh: Vec<SymVar> = (0..4)
            .map(|i| table.fresh(&format!("f{round}_{i}"), Width::W8))
            .collect();
        let pc_fresh = conjunction(&pool_over(&mut Rng(SEED), &fresh), &picks);
        let before = all_on.stats();
        let again = all_on.check(&pc_fresh);
        let after = all_on.stats();
        assert_eq!(
            again,
            renamed(&baseline, &vars, &fresh),
            "round {round}: renamed re-ask of {pc} answered differently"
        );
        assert_eq!(
            after.nodes_visited, before.nodes_visited,
            "round {round}: renamed re-ask of {pc} searched"
        );
        if !pc.is_empty() && !pc.is_trivially_false() {
            assert!(
                after.group_cache_hits > before.group_cache_hits,
                "round {round}: renamed re-ask of {pc} missed the group cache"
            );
        }

        // An order-*reversing* renaming is a different canonical form (the
        // search orders variables by id): the warm solver must answer it
        // like a cold one, never from the forward form's entry.
        let mut mirrored: Vec<SymVar> = (0..4)
            .map(|i| table.fresh(&format!("m{round}_{i}"), Width::W8))
            .collect();
        mirrored.reverse();
        let pc_mirrored = conjunction(&pool_over(&mut Rng(SEED), &mirrored), &picks);
        assert_eq!(
            all_on.check(&pc_mirrored),
            all_off.check(&pc_mirrored),
            "round {round}: stale hit on the mirrored form of {pc}"
        );
        multi_variable_rounds += usize::from(constraints.iter().any(|c| c.vars().len() > 1));

        // Spot checks on the raw (unsimplified) constraint list: the full
        // stack must agree with a cache-free solve model for model.
        if round % 7 == 0 {
            let witness_baseline = all_off.check_constraints(&constraints);
            let witness_full = all_on.check_constraints(&constraints);
            assert_eq!(
                witness_full, witness_baseline,
                "round {round}: raw-list answer diverged on {constraints:?}"
            );
            assert_eq!(all_on.model(&pc), all_off.model(&pc), "round {round}: {pc}");
            if let SolverResult::Sat(m) = &witness_full {
                for c in &constraints {
                    assert_eq!(
                        c.eval(m),
                        Some(1),
                        "round {round}: witness model violates {c}"
                    );
                }
            }
        }
    }

    // The sweep must actually have exercised every layer, or the
    // equivalence above proves nothing.
    let stats = all_on.stats();
    assert!(stats.cache_hits > 0, "no whole-query cache hits: {stats:?}");
    assert!(stats.group_cache_hits > 0, "no group cache hits: {stats:?}");
    assert!(
        multi_variable_rounds > 100,
        "too few multi-variable groups to tell rank order from reversal: {multi_variable_rounds}"
    );
    let uncached = all_off.stats();
    assert!(
        uncached.cache_hits == 0 && uncached.group_cache_hits == 0,
        "the baseline must answer everything from scratch: {uncached:?}"
    );
}
