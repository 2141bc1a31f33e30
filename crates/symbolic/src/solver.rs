//! A bounded, complete-over-small-domains bit-vector model finder.
//!
//! Pipeline per query (mirroring KLEE's solver stack in miniature):
//!
//! 1. **Simplification** — constraints are already simplified on entry to
//!    the path condition; trivially false sets short-circuit, and concrete
//!    constraints are folded away before any cache is consulted.
//! 2. **Independence partitioning** — constraints are grouped by shared
//!    variables (union–find over the memoized [`Expr::vars`] sets, no DAG
//!    walks and no hashing); each group is solved separately and models
//!    are merged. A branch condition usually touches one or two variables,
//!    so this is the main cost saver — and it is what makes the cache
//!    below effective, because group-sized keys recur far more often than
//!    whole path conditions do.
//! 3. **Exact caching** — each group is put in *canonical form* (`canon.rs`:
//!    variables renamed to their rank in ascending [`SymId`] order,
//!    constraints in the order of their renamed forms) and looked up, and
//!    later stored, under that form; a cached model is translated back
//!    through the rank table. Sibling states share every group of
//!    their common path-condition prefix, and forked copies of a sender
//!    ask the same shapes under freshly minted symbols, so the solver
//!    answers each constraint *shape* once. With
//!    [`Solver::set_group_caching`]`(false)` the same scheme is applied at
//!    whole-query granularity (the query as one group).
//! 4. **Interval refinement** — per-variable unsigned bounds are tightened
//!    from comparison constraints, shrinking enumeration domains; an
//!    emptied interval proves the group UNSAT.
//! 5. **Backtracking enumeration** — variables ordered by domain size;
//!    candidate values are tried likely-first (bounds, 0, 1) and partial
//!    evaluation prunes violated constraints early. A node budget caps the
//!    search; exhaustion yields [`SolverResult::Unknown`].
//!
//! Layers 4–5 run on the canonical form too, which gives the invariant the
//! bit-identity contract rests on: **the answer for a group is a pure
//! function of its canonical form** — verdict, translated model and node
//! count are the same on a cache hit, on a miss and with caching off. Every
//! query is answered that one way, so a model — whether it decides a branch
//! or becomes a test case or bug witness — never depends on query order or
//! cache contents.
//!
//! Each cache layer is individually switchable for ablation measurements:
//! [`Solver::set_caching`] (exact cache master switch) and
//! [`Solver::set_group_caching`] (per-group vs whole-query granularity).
//!
//! [`Expr::vars`]: crate::Expr::vars

use crate::canon;
use crate::expr::{BinOp, CastOp, Expr, ExprKind, ExprRef};
use crate::interval::Interval;
use crate::model::Model;
use crate::path::PathCondition;
use crate::snapshot::{CodecError, SnapReader, SnapWriter};
use crate::table::SymId;
use crate::vars::VarSet;
use crate::width::Width;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Resource limits for a single satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudget {
    /// Maximum number of search nodes (variable assignments tried) per
    /// independent constraint group.
    pub max_nodes: u64,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget {
            max_nodes: 2_000_000,
        }
    }
}

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverResult {
    /// Satisfiable, with a witness assigning every constrained variable.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before a decision was reached.
    Unknown,
}

impl SolverResult {
    /// Returns `true` for [`SolverResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolverResult::Sat(_))
    }

    /// Returns `true` for [`SolverResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolverResult::Unsat)
    }
}

/// Counters describing solver work done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total queries received (including cache hits).
    pub queries: u64,
    /// Queries answered *entirely* from the exact cache (every independent
    /// group examined was a cache hit; no solving was needed).
    pub cache_hits: u64,
    /// Independent constraint groups answered from the exact group cache.
    pub group_cache_hits: u64,
    /// Always 0: the solver no longer reuses models of related queries.
    /// Kept only because the standalone benchmark package reads it; it
    /// goes with that benchmark's `solver.reuse_hits` metric.
    pub model_reuse_hits: u64,
    /// Always 0: the solver no longer reuses UNSAT cores. Kept only
    /// because the standalone benchmark package reads it; it goes with
    /// that benchmark's `solver.ucore_hits` metric.
    pub ucore_hits: u64,
    /// Queries decided satisfiable.
    pub sat: u64,
    /// Queries decided unsatisfiable.
    pub unsat: u64,
    /// Queries abandoned on budget exhaustion.
    pub unknown: u64,
    /// Search nodes visited across all queries.
    pub nodes_visited: u64,
}

/// A cached answer; a SAT model assigns *ranks*, not real variables.
#[derive(Debug, Clone)]
enum CacheEntry {
    Sat(Model),
    Unsat,
}

/// One hash bucket of the exact cache: (canonical form, answer).
type CacheBucket = Vec<(Vec<u64>, CacheEntry)>;

/// One exported exact-cache entry: the canonical form plus `Some(model
/// over ranks)` for SAT / `None` for UNSAT (the serializable form of
/// [`CacheEntry`]).
type ExportedEntry = (Vec<u64>, Option<Model>);

/// One exported exact-cache shard: `(key, bucket)` pairs sorted by key.
type ExportedShard = Vec<(u64, Vec<ExportedEntry>)>;

/// Number of independently-locked cache shards. Sharding keeps lock
/// contention negligible when several threads query one solver
/// concurrently ([`Solver`] is `Sync`).
const CACHE_SHARDS: usize = 16;

/// The exact-cache shard a key lives in.
fn shard_of(key: u64) -> usize {
    key as usize % CACHE_SHARDS
}

/// Lock-free work counters (see [`SolverStats`] for the snapshot form).
#[derive(Debug, Default)]
struct StatCells {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    group_cache_hits: AtomicU64,
    sat: AtomicU64,
    unsat: AtomicU64,
    unknown: AtomicU64,
    nodes_visited: AtomicU64,
}

/// One independent constraint group: its (real) constraints in canonical
/// order, the union of their memoized var-sets — which, being id-sorted,
/// is the rank table of the canonical form — the form itself, and the
/// exact-cache key derived from it.
#[derive(Debug)]
struct Group {
    constraints: Vec<ExprRef>,
    vars: VarSet,
    form: Vec<u64>,
    key: u64,
}

impl Group {
    fn new(mut constraints: Vec<ExprRef>, vars: VarSet) -> Group {
        let form = canon::order(&mut constraints, &vars);
        Group {
            key: canon::key(&form),
            constraints,
            vars,
            form,
        }
    }
}

/// The constraint solver. See the module documentation for the pipeline.
///
/// # Examples
///
/// ```
/// use sde_symbolic::{Expr, PathCondition, Solver, SymbolTable, Width};
///
/// let mut t = SymbolTable::new();
/// let x = Expr::sym(t.fresh("x", Width::W8));
/// let pc = PathCondition::new().with(Expr::eq(x.clone(), Expr::const_(7, Width::W8)));
/// let solver = Solver::new();
/// let model = solver.model(&pc).expect("x = 7 is satisfiable");
/// assert_eq!(model.iter().next().map(|(_, v)| v), Some(7));
/// // x == 7 ∧ x == 9 is unsatisfiable:
/// assert!(!solver.is_sat(&pc.with(Expr::eq(x, Expr::const_(9, Width::W8)))));
/// ```
#[derive(Debug)]
pub struct Solver {
    budget: SolverBudget,
    stats: StatCells,
    cache: Vec<Mutex<HashMap<u64, CacheBucket>>>,
    caching: AtomicBool,
    group_caching: AtomicBool,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            budget: SolverBudget::default(),
            stats: StatCells::default(),
            cache: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            caching: AtomicBool::new(true),
            group_caching: AtomicBool::new(true),
        }
    }
}

impl Solver {
    /// Creates a solver with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit budget.
    pub fn with_budget(budget: SolverBudget) -> Self {
        Solver {
            budget,
            ..Self::default()
        }
    }

    /// A solver configured like this one — same budget, same two
    /// ablation toggles — with empty caches and zeroed counters. A sharded
    /// run gives one to each worker, so an ablation set on the engine's
    /// solver holds on every thread.
    pub fn fresh_like(&self) -> Self {
        Solver {
            budget: self.budget,
            caching: AtomicBool::new(self.caching.load(Relaxed)),
            group_caching: AtomicBool::new(self.group_caching.load(Relaxed)),
            ..Self::default()
        }
    }

    /// A snapshot of the work counters.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            queries: self.stats.queries.load(Relaxed),
            cache_hits: self.stats.cache_hits.load(Relaxed),
            group_cache_hits: self.stats.group_cache_hits.load(Relaxed),
            model_reuse_hits: 0,
            ucore_hits: 0,
            sat: self.stats.sat.load(Relaxed),
            unsat: self.stats.unsat.load(Relaxed),
            unknown: self.stats.unknown.load(Relaxed),
            nodes_visited: self.stats.nodes_visited.load(Relaxed),
        }
    }

    /// Enables or disables the exact query cache (for ablation
    /// measurements). Disabling also clears it.
    pub fn set_caching(&self, enabled: bool) {
        self.caching.store(enabled, Relaxed);
        if !enabled {
            for shard in &self.cache {
                shard.lock().expect("cache shard").clear();
            }
        }
    }

    /// Chooses the exact cache's granularity: per independent group
    /// (default) or whole-query (the pre-incremental behavior, kept as an
    /// ablation point). No effect while caching is disabled entirely.
    ///
    /// Both granularities key on canonical forms — whole-query treats the
    /// query as one group — so the cache stays consistent across switches
    /// and no clear is needed.
    pub fn set_group_caching(&self, enabled: bool) {
        self.group_caching.store(enabled, Relaxed);
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, CacheBucket>> {
        &self.cache[shard_of(key)]
    }

    /// Exports the solver's entire mutable state — counters, ablation
    /// toggles and the exact cache — as a [`SolverSnapshot`].
    ///
    /// Shard contents are captured verbatim (bucket order preserved) with
    /// shard key lists sorted, so exporting the same state twice yields
    /// identical snapshots.
    pub fn export_state(&self) -> SolverSnapshot {
        let exact = self
            .cache
            .iter()
            .map(|shard| {
                let shard = shard.lock().expect("cache shard");
                let mut entries: ExportedShard = shard
                    .iter()
                    .map(|(key, bucket)| {
                        let bucket = bucket
                            .iter()
                            .map(|(set, entry)| {
                                let model = match entry {
                                    CacheEntry::Sat(m) => Some(m.clone()),
                                    CacheEntry::Unsat => None,
                                };
                                (set.clone(), model)
                            })
                            .collect();
                        (*key, bucket)
                    })
                    .collect();
                entries.sort_by_key(|(key, _)| *key);
                entries
            })
            .collect();
        SolverSnapshot {
            stats: self.stats(),
            caching: self.caching.load(Relaxed),
            group_caching: self.group_caching.load(Relaxed),
            exact,
        }
    }

    /// Restores state exported by [`Solver::export_state`], replacing
    /// all current counters, toggles and cache contents.
    ///
    /// After an import, cache lookups behave exactly as they did on the
    /// exporting solver: entry order within buckets is preserved, so query
    /// answers (and their trace-layer attribution) replay identically.
    pub fn import_state(&self, snap: &SolverSnapshot) {
        let s = &snap.stats;
        self.stats.queries.store(s.queries, Relaxed);
        self.stats.cache_hits.store(s.cache_hits, Relaxed);
        self.stats
            .group_cache_hits
            .store(s.group_cache_hits, Relaxed);
        self.stats.sat.store(s.sat, Relaxed);
        self.stats.unsat.store(s.unsat, Relaxed);
        self.stats.unknown.store(s.unknown, Relaxed);
        self.stats.nodes_visited.store(s.nodes_visited, Relaxed);
        self.caching.store(snap.caching, Relaxed);
        self.group_caching.store(snap.group_caching, Relaxed);
        debug_assert_eq!(self.cache.len(), snap.exact.len(), "cache shard count");
        for (shard, entries) in self.cache.iter().zip(&snap.exact) {
            let mut shard = shard.lock().expect("cache shard");
            shard.clear();
            for (key, bucket) in entries {
                let restored: CacheBucket = bucket
                    .iter()
                    .map(|(set, model)| {
                        let entry = match model {
                            Some(m) => CacheEntry::Sat(m.clone()),
                            None => CacheEntry::Unsat,
                        };
                        (set.clone(), entry)
                    })
                    .collect();
                shard.insert(*key, restored);
            }
        }
    }

    /// Decides satisfiability of a path condition.
    pub fn check(&self, pc: &PathCondition) -> SolverResult {
        if pc.is_trivially_false() {
            self.stats.queries.fetch_add(1, Relaxed);
            self.stats.unsat.fetch_add(1, Relaxed);
            record_fold_unsat();
            return SolverResult::Unsat;
        }
        let constraints: Vec<ExprRef> = pc.iter().cloned().collect();
        self.solve_query(&constraints)
    }

    /// Decides satisfiability of an explicit constraint list (conjunction).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when a constraint is not of width 1.
    pub fn check_constraints(&self, constraints: &[ExprRef]) -> SolverResult {
        self.solve_query(constraints)
    }

    /// Returns `true` when `pc ∧ cond` may be satisfiable.
    ///
    /// `Unknown` counts as *may*, so exploration over-approximates rather
    /// than silently dropping feasible paths.
    pub fn may_be_true(&self, pc: &PathCondition, cond: &ExprRef) -> bool {
        if cond.is_true() {
            return !matches!(self.check(pc), SolverResult::Unsat);
        }
        if cond.is_false() {
            return false;
        }
        !matches!(self.check(&pc.with(cond.clone())), SolverResult::Unsat)
    }

    /// Returns `true` when `cond` holds in every model of `pc`
    /// (i.e. `pc ∧ ¬cond` is unsatisfiable).
    pub fn must_be_true(&self, pc: &PathCondition, cond: &ExprRef) -> bool {
        matches!(
            self.check(&pc.with(Expr::not(cond.clone()))),
            SolverResult::Unsat
        )
    }

    /// Convenience: `check(pc)` is satisfiable (Unknown counts as `false`).
    pub fn is_sat(&self, pc: &PathCondition) -> bool {
        self.check(pc).is_sat()
    }

    /// Returns a witness model of `pc`, or `None` when unsatisfiable or
    /// unknown.
    pub fn model(&self, pc: &PathCondition) -> Option<Model> {
        if pc.is_trivially_false() {
            self.stats.queries.fetch_add(1, Relaxed);
            self.stats.unsat.fetch_add(1, Relaxed);
            record_fold_unsat();
            return None;
        }
        let constraints: Vec<ExprRef> = pc.iter().cloned().collect();
        match self.solve_query(&constraints) {
            SolverResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    // ----- internals ------------------------------------------------------

    /// Full pipeline for one query, plus trace instrumentation.
    ///
    /// When the calling thread has an enabled `sde-trace` sink installed
    /// (the engine installs one per traced run), a `Query` event is
    /// recorded with the answering layer, the verdict, the independence
    /// group count and the wall-clock duration; untraced runs pay one
    /// thread-local check.
    fn solve_query(&self, constraints: &[ExprRef]) -> SolverResult {
        let trace = sde_trace::thread_sink();
        let Some(sink) = trace else {
            return self.solve_query_traced(constraints, None).0;
        };
        let start = std::time::Instant::now();
        let (result, layer, groups) = self.solve_query_traced(constraints, Some(&*sink));
        let verdict = match &result {
            SolverResult::Sat(_) => sde_trace::Verdict::Sat,
            SolverResult::Unsat => sde_trace::Verdict::Unsat,
            SolverResult::Unknown => sde_trace::Verdict::Unknown,
        };
        sink.record(sde_trace::TraceEvent::Query {
            layer,
            verdict,
            groups,
            dur_us: start.elapsed().as_micros() as u64,
        });
        result
    }

    /// The query pipeline. Returns the verdict plus, for the trace layer,
    /// which layer answered the whole query and how many independence
    /// groups it split into (0 when answered before partitioning).
    fn solve_query_traced(
        &self,
        constraints: &[ExprRef],
        trace: Option<&dyn sde_trace::TraceSink>,
    ) -> (SolverResult, sde_trace::QueryLayer, u64) {
        use sde_trace::QueryLayer;
        self.stats.queries.fetch_add(1, Relaxed);

        // Layer 1: fold out concrete constraints; bail on a false one.
        let mut work: Vec<ExprRef> = Vec::with_capacity(constraints.len());
        for c in constraints {
            debug_assert_eq!(c.width(), Width::BOOL);
            if c.is_concrete() {
                if c.eval(&Model::new()) == Some(1) {
                    continue;
                }
                self.stats.unsat.fetch_add(1, Relaxed);
                return (SolverResult::Unsat, QueryLayer::Fold, 0);
            }
            work.push(c.clone());
        }
        if work.is_empty() {
            self.stats.sat.fetch_add(1, Relaxed);
            return (SolverResult::Sat(Model::new()), QueryLayer::Fold, 0);
        }

        let caching = self.caching.load(Relaxed);
        let group_caching = caching && self.group_caching.load(Relaxed);

        // Whole-query granularity (ablation fallback): the query is looked
        // up, and later stored, as one group.
        let whole = (caching && !group_caching).then(|| {
            let vars = canon::vars_of(&work);
            Group::new(std::mem::take(&mut work), vars)
        });
        if let Some(whole) = &whole {
            if let Some(result) = self.exact_lookup(whole) {
                self.stats.cache_hits.fetch_add(1, Relaxed);
                self.tally(&result);
                // Group counts must stay deterministic in traces even on
                // this pre-partition hit path, so partition when traced.
                let n = if trace.is_some() {
                    partition(whole.constraints.clone()).len() as u64
                } else {
                    0
                };
                return (result, QueryLayer::Exact, n);
            }
            // Partition the canonical order, so that which group is
            // examined first is a function of the form being stored.
            work = whole.constraints.clone();
        }

        // Layer 2: partition, then solve each group through the remaining
        // layers independently.
        let groups = partition(work);
        let mut combined = Model::new();
        let mut all_groups_cached = true;
        let mut outcome = None;
        for group in &groups {
            let (result, from_exact) = self.solve_one_group(group, group_caching, trace);
            all_groups_cached &= from_exact;
            match result {
                SolverResult::Sat(m) => combined.extend(&m),
                SolverResult::Unsat => {
                    outcome = Some(SolverResult::Unsat);
                    break;
                }
                SolverResult::Unknown => {
                    all_groups_cached = false;
                    outcome = Some(SolverResult::Unknown);
                    break;
                }
            }
        }
        let result = outcome.unwrap_or(SolverResult::Sat(combined));

        // `cache_hits` keeps its historical meaning: the query was answered
        // without any solving — here, every group examined hit the exact
        // group cache (an early UNSAT group counts; later groups were not
        // needed).
        if group_caching && all_groups_cached {
            self.stats.cache_hits.fetch_add(1, Relaxed);
        }

        if let Some(whole) = &whole {
            let entry = match &result {
                SolverResult::Sat(m) => {
                    Some(CacheEntry::Sat(canon::model_to_ranks(m, &whole.vars)))
                }
                SolverResult::Unsat => Some(CacheEntry::Unsat),
                SolverResult::Unknown => None,
            };
            if let Some(entry) = entry {
                self.exact_store(whole, entry);
            }
        }

        self.tally(&result);
        let layer = if group_caching && all_groups_cached {
            QueryLayer::Exact
        } else {
            QueryLayer::Solve
        };
        (result, layer, groups.len() as u64)
    }

    fn tally(&self, result: &SolverResult) {
        match result {
            SolverResult::Sat(_) => self.stats.sat.fetch_add(1, Relaxed),
            SolverResult::Unsat => self.stats.unsat.fetch_add(1, Relaxed),
            SolverResult::Unknown => self.stats.unknown.fetch_add(1, Relaxed),
        };
    }

    /// Layers 3–5 for one independent group. Returns the verdict and
    /// whether it came from the exact group cache.
    fn solve_one_group(
        &self,
        group: &Group,
        group_caching: bool,
        trace: Option<&dyn sde_trace::TraceSink>,
    ) -> (SolverResult, bool) {
        use sde_trace::{GroupLayer, TraceEvent};
        let group_hit = |layer: GroupLayer| {
            if let Some(sink) = trace {
                sink.record(TraceEvent::QueryGroup { layer });
            }
        };

        // Layer 3: exact group cache, keyed modulo symbol renaming.
        if group_caching {
            if let Some(result) = self.exact_lookup(group) {
                self.stats.group_cache_hits.fetch_add(1, Relaxed);
                group_hit(GroupLayer::Exact);
                return (result, true);
            }
        }
        group_hit(GroupLayer::Solve);

        // Layers 4–5: solve for real — on terms built from the canonical
        // form alone, whether or not the answer will be cached, so that it
        // is a function of the form and nothing else.
        let (result, entry) = match self.solve_group(&canon::decode(&group.form)) {
            SolverResult::Sat(m) => (
                SolverResult::Sat(canon::model_from_ranks(&m, &group.vars)),
                Some(CacheEntry::Sat(m)),
            ),
            SolverResult::Unsat => (SolverResult::Unsat, Some(CacheEntry::Unsat)),
            SolverResult::Unknown => (SolverResult::Unknown, None),
        };
        if let (true, Some(entry)) = (group_caching, entry) {
            self.exact_store(group, entry);
        }
        (result, false)
    }

    /// The cached answer for `group`'s canonical form, its model
    /// translated back through the rank table.
    fn exact_lookup(&self, group: &Group) -> Option<SolverResult> {
        let shard = self.shard(group.key).lock().expect("cache shard");
        let (_, entry) = shard
            .get(&group.key)?
            .iter()
            .find(|(form, _)| *form == group.form)?;
        Some(match entry {
            CacheEntry::Sat(m) => SolverResult::Sat(canon::model_from_ranks(m, &group.vars)),
            CacheEntry::Unsat => SolverResult::Unsat,
        })
    }

    fn exact_store(&self, group: &Group, entry: CacheEntry) {
        let mut shard = self.shard(group.key).lock().expect("cache shard");
        let bucket = shard.entry(group.key).or_default();
        // A concurrent solver may have answered the same query while we
        // were solving; keep the bucket duplicate-free.
        if !bucket.iter().any(|(form, _)| *form == group.form) {
            bucket.push((group.form.clone(), entry));
        }
    }

    // ----- ground solving -------------------------------------------------

    /// Interval refinement plus backtracking enumeration for one group.
    fn solve_group(&self, constraints: &[ExprRef]) -> SolverResult {
        // Variable inventory with widths, read off the memoized var-sets.
        let mut var_widths: BTreeMap<SymId, Width> = BTreeMap::new();
        for c in constraints {
            for (id, w) in c.vars().iter() {
                var_widths.insert(id, w);
            }
        }

        // Interval refinement from direct comparisons.
        let mut env: BTreeMap<SymId, Interval> = var_widths
            .iter()
            .map(|(id, w)| (*id, Interval::full(*w)))
            .collect();
        for _ in 0..4 {
            let mut changed = false;
            for c in constraints {
                changed |= refine(c, &mut env);
            }
            if env.values().any(Interval::is_empty) {
                return SolverResult::Unsat;
            }
            if !changed {
                break;
            }
        }

        // Order variables by refined domain size (fail-first).
        let mut order: Vec<SymId> = var_widths.keys().copied().collect();
        order.sort_by_key(|id| env[id].size());

        let mut model = Model::new();
        let mut nodes = 0u64;
        let verdict = self.dfs(constraints, &order, 0, &env, &mut model, &mut nodes);
        self.stats.nodes_visited.fetch_add(nodes, Relaxed);
        match verdict {
            Verdict::Sat => SolverResult::Sat(model),
            Verdict::Unsat => SolverResult::Unsat,
            Verdict::Budget => SolverResult::Unknown,
        }
    }

    fn dfs(
        &self,
        constraints: &[ExprRef],
        order: &[SymId],
        depth: usize,
        env: &BTreeMap<SymId, Interval>,
        model: &mut Model,
        nodes: &mut u64,
    ) -> Verdict {
        // Evaluate constraints under the partial assignment.
        let mut all_true = true;
        for c in constraints {
            match c.eval(model) {
                Some(1) => {}
                Some(_) => return Verdict::Unsat,
                None => {
                    all_true = false;
                }
            }
        }
        if all_true {
            return Verdict::Sat;
        }
        if depth == order.len() {
            // All variables assigned yet some constraint undecided: cannot
            // happen (full assignment decides every constraint).
            unreachable!("full assignment left a constraint undecided");
        }

        // Interval-level prune: with current singletons folded in, every
        // constraint must still be able to reach 1.
        let mut pruned_env = env.clone();
        for (id, v) in model.iter() {
            pruned_env.insert(id, Interval::singleton(v));
        }
        for c in constraints {
            if !Interval::of_expr(c, &pruned_env).contains(1) {
                return Verdict::Unsat;
            }
        }

        let var = order[depth];
        let dom = env[&var];
        let mut budget_hit = false;
        for value in candidate_values(dom) {
            *nodes += 1;
            if *nodes > self.budget.max_nodes {
                return Verdict::Budget;
            }
            model.assign(var, value);
            match self.dfs(constraints, order, depth + 1, env, model, nodes) {
                Verdict::Sat => return Verdict::Sat,
                Verdict::Unsat => {}
                Verdict::Budget => {
                    budget_hit = true;
                    break;
                }
            }
        }
        model.unassign(var);
        if budget_hit {
            Verdict::Budget
        } else {
            Verdict::Unsat
        }
    }
}

/// A serializable image of a [`Solver`]'s mutable state, produced by
/// [`Solver::export_state`] and consumed by [`Solver::import_state`].
///
/// Checkpoint/resume needs the caches bit-for-bit: the trace stream of a
/// resumed run attributes every query to the cache layer that answered
/// it, so a resumed solver must hit and miss exactly where an
/// uninterrupted one would. The snapshot therefore keeps per-shard
/// layout and bucket insertion order — not just the logical cache
/// contents.
#[derive(Debug, Clone)]
pub struct SolverSnapshot {
    stats: SolverStats,
    caching: bool,
    group_caching: bool,
    /// Per cache shard, sorted by key: the exact cache's buckets, each
    /// entry `(canonical form, Some(model over ranks) | None=UNSAT)`.
    exact: Vec<ExportedShard>,
}

impl SolverSnapshot {
    /// The exported work counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The exported ablation toggles `(caching, group_caching)`.
    pub fn toggles(&self) -> (bool, bool) {
        (self.caching, self.group_caching)
    }

    /// Total entries in the exact cache across all shards.
    pub fn exact_entries(&self) -> usize {
        self.exact
            .iter()
            .flatten()
            .map(|(_, bucket)| bucket.len())
            .sum()
    }

    /// Serializes the snapshot into `w`.
    pub fn write_into(&self, w: &mut SnapWriter) {
        let s = &self.stats;
        for v in [
            s.queries,
            s.cache_hits,
            s.group_cache_hits,
            s.sat,
            s.unsat,
            s.unknown,
            s.nodes_visited,
        ] {
            w.varint(v);
        }
        w.bool(self.caching);
        w.bool(self.group_caching);
        w.varint(self.exact.len() as u64);
        for shard in &self.exact {
            w.varint(shard.len() as u64);
            for (key, bucket) in shard {
                w.varint(*key);
                w.varint(bucket.len() as u64);
                for (form, model) in bucket {
                    // On the wire a form is the terms it denotes, through
                    // the shared expression codec.
                    let set = canon::decode(form);
                    w.varint(set.len() as u64);
                    for c in &set {
                        w.expr(c);
                    }
                    match model {
                        Some(m) => {
                            w.u8(1);
                            w.model(m);
                        }
                        None => w.u8(0),
                    }
                }
            }
        }
    }

    /// Deserializes a snapshot written by [`SolverSnapshot::write_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input (including
    /// a shard count that does not match this build's shard layout, and
    /// an exact-cache entry that is not its own canonical form or sits
    /// under a key other than that form's).
    pub fn read_from(r: &mut SnapReader<'_>) -> Result<SolverSnapshot, CodecError> {
        let stats = SolverStats {
            queries: r.varint()?,
            cache_hits: r.varint()?,
            group_cache_hits: r.varint()?,
            model_reuse_hits: 0,
            ucore_hits: 0,
            sat: r.varint()?,
            unsat: r.varint()?,
            unknown: r.varint()?,
            nodes_visited: r.varint()?,
        };
        let caching = r.bool()?;
        let group_caching = r.bool()?;
        let shards = r.checked_len("exact cache shard count")?;
        if shards != CACHE_SHARDS {
            return Err(CodecError::Malformed("exact cache shard count"));
        }
        let mut exact = Vec::with_capacity(shards);
        for index in 0..shards {
            let keys = r.checked_len("exact cache key count")?;
            let mut shard = Vec::with_capacity(keys);
            for _ in 0..keys {
                let key = r.varint()?;
                let entries = r.checked_len("exact cache bucket size")?;
                let mut bucket = Vec::with_capacity(entries);
                for _ in 0..entries {
                    let n = r.checked_len("exact cache set size")?;
                    let mut set = Vec::with_capacity(n);
                    for _ in 0..n {
                        set.push(r.expr()?);
                    }
                    let model = match r.u8()? {
                        0 => None,
                        1 => Some(r.model()?),
                        _ => return Err(CodecError::Malformed("cache entry tag")),
                    };
                    let form = canon::check_entry(&set, model.as_ref())?;
                    if canon::key(&form) != key || shard_of(key) != index {
                        return Err(CodecError::Malformed("exact cache entry key"));
                    }
                    bucket.push((form, model));
                }
                shard.push((key, bucket));
            }
            exact.push(shard);
        }
        Ok(SolverSnapshot {
            stats,
            caching,
            group_caching,
            exact,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Sat,
    Unsat,
    Budget,
}

/// Likely-first enumeration of an interval: bounds and small values first,
/// then a full sweep.
fn candidate_values(dom: Interval) -> impl Iterator<Item = u64> {
    let (lo, hi) = (dom.lo(), dom.hi());
    let prefix: Vec<u64> = [lo, hi, 0, 1]
        .into_iter()
        .filter(|v| dom.contains(*v))
        .collect();
    let mut seen: Vec<u64> = prefix.clone();
    seen.sort_unstable();
    seen.dedup();
    let prefix_set = seen;
    let mut first = prefix.clone();
    first.dedup();
    first
        .into_iter()
        .chain((lo..=hi).filter(move |v| prefix_set.binary_search(v).is_err()))
}

/// Tightens a variable's interval from a top-level comparison of the shape
/// `var ⋈ e` or `e ⋈ var` (through zext casts). Returns `true` when a bound
/// changed.
fn refine(c: &Expr, env: &mut BTreeMap<SymId, Interval>) -> bool {
    let ExprKind::Binary { op, lhs, rhs } = c.kind() else {
        return false;
    };
    let mut changed = false;
    if let Some(id) = as_var(lhs) {
        let other = Interval::of_expr(rhs, env);
        changed |= refine_var(id, *op, other, false, env);
    }
    if let Some(id) = as_var(rhs) {
        let other = Interval::of_expr(lhs, env);
        changed |= refine_var(id, *op, other, true, env);
    }
    changed
}

/// Unwraps `Sym` and `Zext(Sym)` (zero extension preserves unsigned
/// ordering, so bounds transfer directly).
fn as_var(e: &Expr) -> Option<SymId> {
    match e.kind() {
        ExprKind::Sym(v) => Some(v.id()),
        ExprKind::Cast {
            op: CastOp::Zext,
            arg,
            ..
        } => match arg.kind() {
            ExprKind::Sym(v) => Some(v.id()),
            _ => None,
        },
        _ => None,
    }
}

/// Applies `var ⋈ other` (or `other ⋈ var` when `flipped`).
fn refine_var(
    id: SymId,
    op: BinOp,
    other: Interval,
    flipped: bool,
    env: &mut BTreeMap<SymId, Interval>,
) -> bool {
    if other.is_empty() {
        return false;
    }
    let current = match env.get(&id) {
        Some(i) => *i,
        None => return false,
    };
    let refined = match (op, flipped) {
        (BinOp::Eq, _) => current.intersect(&other),
        (BinOp::Ne, _) => {
            if other.is_singleton() {
                let v = other.lo();
                if current.is_singleton() && current.lo() == v {
                    Interval::empty()
                } else if current.lo() == v {
                    Interval::new(v + 1, current.hi())
                } else if current.hi() == v {
                    Interval::new(current.lo(), v - 1)
                } else {
                    current
                }
            } else {
                current
            }
        }
        // var < other  ⇒  var ≤ other.hi − 1
        (BinOp::Ult, false) => {
            if other.hi() == 0 {
                Interval::empty()
            } else {
                current.intersect(&Interval::new(0, other.hi() - 1))
            }
        }
        // other < var  ⇒  var ≥ other.lo + 1
        (BinOp::Ult, true) => {
            current.intersect(&Interval::new(other.lo().saturating_add(1), u64::MAX))
        }
        (BinOp::Ule, false) => current.intersect(&Interval::new(0, other.hi())),
        (BinOp::Ule, true) => current.intersect(&Interval::new(other.lo(), u64::MAX)),
        _ => current,
    };
    if refined != current {
        env.insert(id, refined);
        true
    } else {
        false
    }
}

/// Trace hook for the trivially-false shortcut paths of `check`/`model`:
/// they answer at the fold layer without entering `solve_query`, but must
/// still appear as queries so traces reconcile with `SolverStats`.
fn record_fold_unsat() {
    sde_trace::record(|| sde_trace::TraceEvent::Query {
        layer: sde_trace::QueryLayer::Fold,
        verdict: sde_trace::Verdict::Unsat,
        groups: 0,
        dur_us: 0,
    });
}

/// Groups the constraints into independent clusters by shared variables:
/// union–find over [`SymId`]s, read straight off the memoized var-sets —
/// no hashing, the canonical form is per group and needs the group's
/// var-set first. Groups are ordered by first constituent constraint.
fn partition(work: Vec<ExprRef>) -> Vec<Group> {
    fn find(parent: &mut HashMap<SymId, SymId>, mut x: SymId) -> SymId {
        loop {
            let p = *parent.get(&x).unwrap_or(&x);
            if p == x {
                return x;
            }
            // Path halving.
            let gp = *parent.get(&p).unwrap_or(&p);
            parent.insert(x, gp);
            x = gp;
        }
    }

    let mut parent: HashMap<SymId, SymId> = HashMap::new();
    for c in &work {
        let mut ids = c.vars().ids();
        let first = ids.next().expect("concrete constraints were folded out");
        for v in ids {
            let (rf, rv) = (find(&mut parent, first), find(&mut parent, v));
            if rf != rv {
                parent.insert(rv, rf);
            }
        }
    }

    let mut root_index: HashMap<SymId, usize> = HashMap::new();
    let mut members: Vec<(Vec<ExprRef>, VarSet)> = Vec::new();
    for c in work {
        let first = c
            .vars()
            .min_var()
            .expect("concrete constraints were folded out");
        let root = find(&mut parent, first);
        let gi = *root_index.entry(root).or_insert_with(|| {
            members.push((Vec::new(), VarSet::empty()));
            members.len() - 1
        });
        let (constraints, vars) = &mut members[gi];
        *vars = vars.union(c.vars());
        constraints.push(c);
    }
    members
        .into_iter()
        .map(|(constraints, vars)| Group::new(constraints, vars))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    fn c8(v: u64) -> ExprRef {
        Expr::const_(v, Width::W8)
    }

    #[test]
    fn empty_pc_is_sat() {
        let s = Solver::new();
        assert!(s.is_sat(&PathCondition::new()));
    }

    #[test]
    fn simple_equalities() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let x = Expr::sym(xv.clone());
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::eq(x.clone(), c8(7)));
        let m = s.model(&pc).unwrap();
        assert_eq!(m.value_of(xv.id()), Some(7));
        assert!(s.check(&pc.with(Expr::eq(x, c8(9)))).is_unsat());
    }

    #[test]
    fn figure_one_paths() {
        // The paper's Fig. 1 program: x == 0 | 10 < x < 50 | x != 0 ∧ x <= 10 | 50 <= x.
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let x = Expr::sym(xv.clone());
        let s = Solver::new();
        let eq0 = Expr::eq(x.clone(), c8(0));
        let lt50 = Expr::ult(x.clone(), c8(50));
        let gt10 = Expr::ugt(x.clone(), c8(10));

        let paths = [
            PathCondition::new().with(eq0.clone()),
            PathCondition::new()
                .with(Expr::not(eq0.clone()))
                .with(lt50.clone())
                .with(gt10.clone()),
            PathCondition::new()
                .with(Expr::not(eq0.clone()))
                .with(lt50.clone())
                .with(Expr::not(gt10.clone())),
            PathCondition::new()
                .with(Expr::not(eq0))
                .with(Expr::not(lt50)),
        ];
        let expectations: [&dyn Fn(u64) -> bool; 4] = [
            &|v| v == 0,
            &|v| v > 10 && v < 50,
            &|v| v != 0 && v <= 10,
            &|v| v >= 50,
        ];
        for (pc, ok) in paths.iter().zip(expectations) {
            let m = s
                .model(pc)
                .unwrap_or_else(|| panic!("path {pc} should be sat"));
            let v = m.value_of(xv.id()).expect("x constrained on every path");
            assert!(ok(v), "model {v} violates {pc}");
        }
    }

    #[test]
    fn unsat_via_intervals() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        let pc = PathCondition::new()
            .with(Expr::ult(x.clone(), c8(10)))
            .with(Expr::ugt(x.clone(), c8(20)));
        assert!(s.check(&pc).is_unsat());
    }

    #[test]
    fn independent_groups_are_combined() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let s = Solver::new();
        let pc = PathCondition::new()
            .with(Expr::eq(Expr::sym(xv.clone()), c8(3)))
            .with(Expr::eq(Expr::sym(yv.clone()), c8(5)));
        let m = s.model(&pc).unwrap();
        assert_eq!(m.value_of(xv.id()), Some(3));
        assert_eq!(m.value_of(yv.id()), Some(5));
    }

    #[test]
    fn linked_constraints() {
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W8);
        let yv = t.fresh("y", Width::W8);
        let (x, y) = (Expr::sym(xv.clone()), Expr::sym(yv.clone()));
        let s = Solver::new();
        // x + y == 10 ∧ x == 2·y → y=.., exhaustive over 8-bit.
        let pc = PathCondition::new()
            .with(Expr::eq(Expr::add(x.clone(), y.clone()), c8(10)))
            .with(Expr::eq(x, Expr::mul(y, c8(2))));
        let m = s.model(&pc).unwrap();
        let (xv_, yv_) = (m.value_of(xv.id()).unwrap(), m.value_of(yv.id()).unwrap());
        assert_eq!(Width::W8.truncate(xv_ + yv_), 10);
        assert_eq!(Width::W8.truncate(2 * yv_), xv_);
    }

    #[test]
    fn must_be_true_works() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::ult(x.clone(), c8(5)));
        assert!(s.must_be_true(&pc, &Expr::ult(x.clone(), c8(10))));
        assert!(!s.must_be_true(&pc, &Expr::ult(x.clone(), c8(3))));
        assert!(s.may_be_true(&pc, &Expr::ult(x.clone(), c8(3))));
        assert!(!s.may_be_true(&pc, &Expr::ugt(x, c8(5))));
    }

    #[test]
    fn wide_variables_with_sparse_constraints() {
        // 32-bit variable: enumeration is hopeless, but the likely-first
        // candidates decide x != 0 instantly.
        let mut t = SymbolTable::new();
        let xv = t.fresh("x", Width::W32);
        let x = Expr::sym(xv.clone());
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::ne(x.clone(), Expr::const_(0, Width::W32)));
        let m = s.model(&pc).unwrap();
        assert_ne!(m.value_of(xv.id()), Some(0));
        // And an upper-bounded one.
        let pc2 = PathCondition::new()
            .with(Expr::ult(x.clone(), Expr::const_(1000, Width::W32)))
            .with(Expr::ugt(x, Expr::const_(997, Width::W32)));
        let m2 = s.model(&pc2).unwrap();
        let v = m2.value_of(xv.id()).unwrap();
        assert!(v > 997 && v < 1000);
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let s = Solver::new();
        let pc = PathCondition::new().with(Expr::eq(x, c8(1)));
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&pc));
        let stats = s.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        // A disabled cache is cleared and answers nothing.
        s.set_caching(false);
        assert!(s.is_sat(&pc));
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn group_cache_answers_shared_prefixes() {
        // Two queries share the {x == 1} group; only the disjoint part of
        // the second query needs solving.
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let y = Expr::sym(t.fresh("y", Width::W8));
        let z = Expr::sym(t.fresh("z", Width::W8));
        let s = Solver::new();
        let base = PathCondition::new().with(Expr::eq(x, c8(1)));
        assert!(s.is_sat(&base.with(Expr::eq(y.clone(), c8(2)))));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.group_cache_hits, 0);

        // Shares group {x == 1}; group {z == 3} is new, so the query is
        // not a whole-query cache hit.
        assert!(s.is_sat(&base.with(Expr::eq(z, c8(3)))));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.group_cache_hits, 1);

        // Both groups now cached → counts as a full cache hit.
        assert!(s.is_sat(&base.with(Expr::eq(y, c8(2)))));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.group_cache_hits, 3);
    }

    #[test]
    fn ablation_toggles_disable_each_layer() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let pc = PathCondition::new()
            .with(Expr::ugt(x.clone(), c8(3)))
            .with(Expr::ult(x.clone(), c8(10)));

        // Whole-query granularity: repeats hit, but group stats stay zero.
        let s = Solver::new();
        s.set_group_caching(false);
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&pc));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.group_cache_hits, 0);

        // Everything off: no layer answers anything.
        let s = Solver::new();
        s.set_caching(false);
        assert!(s.is_sat(&pc));
        assert!(s.is_sat(&pc));
        let stats = s.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.group_cache_hits, 0);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.sat, 2);
    }

    #[test]
    fn fresh_like_copies_configuration_but_no_cache_entry() {
        let mut t = SymbolTable::new();
        let x = Expr::sym(t.fresh("x", Width::W8));
        let pc = PathCondition::new()
            .with(Expr::ugt(x.clone(), c8(3)))
            .with(Expr::ult(x, c8(10)));
        let budget = SolverBudget { max_nodes: 77_777 };
        // The three ablation settings the bench bins' `--layers` applies:
        // full, exact-only and off.
        for toggles in [(true, true), (true, false), (false, true)] {
            let (caching, group_caching) = toggles;
            let s = Solver::with_budget(budget);
            s.set_caching(caching);
            s.set_group_caching(group_caching);
            assert!(s.is_sat(&pc));
            let warmed = s.export_state();
            assert_eq!(warmed.exact_entries() > 0, caching, "{toggles:?}");

            let copy = s.fresh_like();
            assert_eq!(copy.budget, budget);
            let snap = copy.export_state();
            assert_eq!(snap.toggles(), toggles);
            assert_eq!(snap.exact_entries(), 0, "{toggles:?}");
            assert_eq!(copy.stats(), SolverStats::default());
        }
    }

    #[test]
    fn solver_is_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Solver>();

        // Concurrent queries against one shared solver: all agree, and the
        // counters account for every query.
        let mut t = SymbolTable::new();
        let vars: Vec<_> = (0..4)
            .map(|i| t.fresh(&format!("v{i}"), Width::W8))
            .collect();
        let s = Solver::new();
        std::thread::scope(|scope| {
            for v in &vars {
                let s = &s;
                scope.spawn(move || {
                    let pc = PathCondition::new().with(Expr::eq(Expr::sym(v.clone()), c8(7)));
                    for _ in 0..8 {
                        assert!(s.is_sat(&pc));
                    }
                });
            }
        });
        let stats = s.stats();
        assert_eq!(stats.queries, 32);
        assert_eq!(stats.sat, 32);
        assert!(stats.cache_hits >= 28, "{} hits", stats.cache_hits);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut t = SymbolTable::new();
        // Force a large search: 4 unconstrained-ish 16-bit vars with a
        // constraint only a deep sweep can decide unsat.
        let vars: Vec<_> = (0..3)
            .map(|i| t.fresh(&format!("v{i}"), Width::W16))
            .collect();
        let sum = vars
            .iter()
            .map(|v| Expr::sym(v.clone()))
            .reduce(Expr::add)
            .unwrap();
        // sum*0 + 1 == 0 is unsat but the rewrite folds it; instead use
        // xor-chain != itself ^ 1 pattern that resists the simplifier:
        let lhs = Expr::xor(sum.clone(), Expr::const_(1, Width::W16));
        let pc = PathCondition::new().with(Expr::eq(lhs, sum));
        let s = Solver::with_budget(SolverBudget { max_nodes: 50 });
        assert_eq!(s.check(&pc), SolverResult::Unknown);
        assert_eq!(s.stats().unknown, 1);
    }

    #[test]
    fn boolean_drop_variables() {
        // The SDE workload shape: many independent width-1 drop decisions.
        let mut t = SymbolTable::new();
        let drops: Vec<_> = (0..20)
            .map(|i| t.fresh(&format!("drop{i}"), Width::BOOL))
            .collect();
        let s = Solver::new();
        let mut pc = PathCondition::new();
        for (i, d) in drops.iter().enumerate() {
            let lit = Expr::sym(d.clone());
            pc = pc.with(if i % 2 == 0 { lit } else { Expr::not(lit) });
        }
        let m = s.model(&pc).unwrap();
        for (i, d) in drops.iter().enumerate() {
            assert_eq!(m.value_of(d.id()), Some(u64::from(i % 2 == 0)));
        }
    }
}
