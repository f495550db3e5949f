//! Prefix-CDF-pruned branch-and-bound over the power-of-2 allocation
//! lattice: the *exact* Stage-I optimum at a fraction of the
//! metaheuristics' cost, a node-budgeted anytime solve with a certified
//! bound, and a Γ-robust worst-case variant.
//!
//! # Search skeleton
//!
//! Every application chooses one `(processor type, power-of-two count)`
//! option, so Stage-I is a search over the small per-app option lattice
//! under per-type capacity. [`Lattice`] explores it depth-first in a
//! *permuted* application order — widest bound gap (`max φ − min φ`
//! contribution) first, so the most discriminating decisions sit at the
//! top of the tree — while the incumbent comparison stays in *canonical*
//! (batch) order with exactly [`Exhaustive`](super::Exhaustive)'s total
//! order: maximum `φ₁`, then minimum summed expected completion time,
//! then lexicographically smallest option path. The result is
//! bit-identical to `Exhaustive` — allocation bytes, `φ₁` bits and
//! tie-breaks — which the equivalence suite pins.
//!
//! # Pruning
//!
//! Per-application `φ₁`-contribution bounds come straight from the
//! [`Phi1Engine`]'s prefix-CDF tables — one linear pass per application
//! over the SoA arena ([`Phi1Engine::option_stats_into`]). Because
//! applications can outnumber processors, per-app maxima alone are far
//! too loose; `prepare` folds them into a *budget DP*: for every
//! permutation suffix and every total-processor budget, the best
//! reachable log-probability sum (and minimum expected-time sum) with
//! per-type capacities relaxed to their total. A subtree's optimistic
//! bound (chosen probabilities × budget-feasible suffix bound) is then
//! one table lookup, screened in log space; only bounds within `±EPS`
//! of the incumbent trigger the *exact-product confirmation*: the bound
//! product and the optimistic minimum expected-time sum are recomputed
//! in canonical order with the same float association every leaf uses,
//! so ties are decided by exact float comparisons with no margins at
//! all (`fl(×)`/`fl(+)` are monotone per argument, hence every leaf
//! below the node is bounded *bit-exactly*). Zero-probability bound
//! factors are tracked by count rather than `ln(0)`, so deadline-starved
//! instances degrade into an exact min-sum search instead of a tie
//! explosion.
//!
//! # Two phases
//!
//! Until a positive-probability leaf is committed the prune threshold is
//! `ln 0 = −∞`, and the budget DP cannot see that one processor type is
//! full, so a search that must first wade through zero leaves prunes
//! nothing. Both drivers therefore search twice at most. *Phase 1* cuts
//! every child whose (worst-case) bound is exactly zero. For the plain
//! solver, `prepare` also builds one suffix table per processor type
//! next to `dlog`: `tlog[t][d][f]` is the largest `Σ ln p` the permuted
//! applications `d..` can reach using at most `f` processors of type
//! `t`, every other type unconstrained, and `−∞` when no positive
//! completion fits. A phase-1 child that passes the screen is cut
//! without a node visit when `chosen + ln p + min_t tlog[t][d+1][free_t]`
//! is `−∞` or below the threshold. *Phase 2* is the search above,
//! unchanged, and runs only when phase 1 commits no positive leaf: a
//! zero leaf never beats a positive one on the primary key, so a
//! positive phase-1 winner is the optimum. Phase 1 is skipped when the
//! root's own bounds are zero. [`LatticeCounters`] sum both phases. The Γ-robust solver keeps its per-mask tables (below) and
//! takes the phase split only.
//!
//! The tightest-deadline proof (see the Γ-robust tier) is a third
//! search. Only [`Lattice::solve_with_engine`] and [`GammaRobust`] run
//! it; [`Allocator::allocate_with_engine`],
//! [`Lattice::optimum_with_engine`] and [`Lattice::anytime_with_engine`]
//! stop at the optimum.
//!
//! # Anytime solve
//!
//! [`Lattice::anytime_with_engine`] runs both phases on one worker under
//! one constant budget of [`Lattice::NODE_BUDGET`] nodes. A search that
//! ends inside it is the exact solve above, bit for bit. One that runs
//! out returns its best allocation with an [`Unproven`] certificate: the
//! nodes it visited and a bound no allocation's `φ₁` exceeds.
//!
//! Where a search runs out, nearly every allocation near the optimum
//! reaches `φ₁ ≈ 1`, and the bound screens cannot separate them: the
//! optimum differs from the incumbent in the last few bits of `φ₁` (a
//! prefix-CDF read may round a few ulps above 1, and so may a `φ₁`).
//! So an exhausted solve then runs the *capacity DP*: over the
//! applications in canonical order and every vector of used processors
//! per type, the best `(φ₁ desc, Σ E[T] asc)` prefix reaching it.
//! `fl(x · p)` is monotone in `x`, so the largest prefix product at a
//! state extends to the largest final product: the DP's `φ₁` is the
//! maximum over every capacity-feasible allocation, bit for bit, and
//! becomes the certificate's bound. Its `Σ E[T]` is only a good guess
//! (prefixes whose products round together are kept by product alone),
//! so the answer is the better of the DP's allocation and the search's
//! incumbent. The DP runs only while its states times options stay
//! under `DP_WORK`; past that, the bound is the root's: the smallest of
//! the budget DP and the per-type tables at full capacity, widened by
//! `EPS` in log space. The answer depends on the inputs and the deadline
//! alone.
//!
//! # Parallelism
//!
//! At several workers each phase first searches serially for at most
//! `SERIAL_BUDGET` nodes below the root and returns that winner when the
//! search ends inside the budget. Only a longer phase splits, and only
//! what the serial prefix left: along the path it was on, every later
//! sibling at every depth and the child it had just reached become
//! tasks on the [`cdsf_system::pool`] work-stealing pool. Each task
//! starts from the prefix's incumbent. Workers share a monotonic
//! worst-case-`φ₁` lower bound (atomic `f64`-bits max) that only ever
//! prunes subtrees *strictly* beaten on the primary key, and each
//! task's winner lands in its own slot; the final argmax is a reduction
//! under the strict total order, so results are bit-identical for every
//! worker count and steal interleaving.
//!
//! # Γ-robust tier
//!
//! [`GammaRobust`] runs the same skeleton but scores each leaf by its
//! *worst-case* `φ₁`: an adversary may degrade the availability of up
//! to `Γ` processor types by a factor `γ`, and degrading availability
//! by `γ` scales every loaded completion time by `1/γ`, so the degraded
//! deadline probability is exactly `Pr(T ≤ γΔ)` — another prefix-CDF
//! lookup, no new PMF arithmetic. The inner adversary is resolved
//! exactly by enumerating the (few) type subsets of size `min(Γ, T)`.
//! The search then prunes against *worst-case* bounds, not nominal
//! ones: `prepare` recomputes the budget DP once per adversary subset
//! (degraded probabilities where the subset hits an option's type) and
//! the screen key is the minimum over subsets of the per-mask log
//! chains, with the nominal key retained as a tiebreak and as the guard
//! of the zero-regime expected-time screen — a zero worst-case bound
//! with positive nominal probability can still win on the nominal key,
//! so only the exact confirmation may prune it. The confirmation stays
//! the nominal-only exact cascade: every leaf's worst case is dominated
//! by its nominal probability, which the nominal bound dominates
//! bit-exactly, so a nominal cut can never discard a worst-case winner.
//! When even the optimum has zero (worst-case) `φ₁`, the solver returns
//! [`LatticeSolution::Infeasible`] carrying `tightest_deadline` — the
//! smallest deadline any feasible allocation could meet with positive
//! probability, computed by an exact bottleneck search over the
//! per-option minimum loaded completion times. That is a *proof* of
//! infeasibility, not a heuristic fallback.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use super::Allocator;
use crate::allocation::{Allocation, Assignment};
use crate::engine::{OptionStats, Phi1Engine};
use crate::{RaError, Result};
use cdsf_system::{pool, Batch, Platform};
use serde::{Deserialize, Serialize};

/// Slack band of the log-space screen: bounds farther than this below
/// the incumbent's log are pruned outright, bounds within the band go
/// through the exact-product confirmation. The accumulated log-sum
/// rounding over a 64-deep path is below `1e-11`, so the band is ~100×
/// wider than the worst numerical error — the screen can only ever
/// misroute a node *into* the (exact) confirmation, never prune one it
/// should not.
const EPS: f64 = 1e-9;

/// Relative band of the zero-regime expected-time screen: subtrees whose
/// optimistic sum exceeds the incumbent's by more than this factor are
/// certain losers even after float re-association; anything closer goes
/// through the exact confirmation.
const SUM_BAND: f64 = 1.0 + 1e-9;

/// Sentinel for "application not yet assigned" in the canonical path.
const UNSET: u32 = u32::MAX;

/// Nodes below the root a search phase at several workers spends
/// serially before it splits what is left. A phase that finishes inside
/// the budget returns the serial winner; only a longer one pays the
/// pool's start-up. Measured (EXPERIMENTS.md, "Host width read once,
/// serial-first root split"): the largest `dualstage` pool solve takes
/// 58 081 nodes, and two workers beat one by 1.5× on a 1.24 M-node
/// search.
const SERIAL_BUDGET: u64 = 1 << 16;

/// States times options above which an exhausted anytime solve skips the
/// capacity DP: about the work of the node budget again.
const DP_WORK: usize = 1 << 22;

/// Why an anytime solve's answer is not proven optimal: its node budget
/// ran out first (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Unproven {
    /// Nodes visited, counting the one the budget ran out on.
    pub nodes: u64,
    /// A bound no allocation's `φ₁` exceeds: the capacity DP's exact
    /// maximum, or the root's bound where the DP is too large.
    pub phi1_bound: f64,
}

/// One candidate option with its precomputed bound data.
#[derive(Debug, Clone, Copy)]
struct Opt {
    asg: Assignment,
    /// `Pr(T ≤ Δ)` under nominal availability.
    prob: f64,
    /// `Pr(T ≤ γΔ)`: the probability if the option's own type is
    /// degraded. Equals `prob` for the plain solver.
    degraded: f64,
    /// Expected loaded completion time.
    exp_time: f64,
    /// Smallest loaded completion-time pulse (infeasibility proofs).
    min_loaded: f64,
    /// `ln prob` when `prob > 0`, else unused (`d_zero` set instead).
    d_log: f64,
    /// 1 when this option's probability is exactly zero.
    d_zero: u8,
    /// `ln degraded` when `degraded > 0` (`dg_zero` set otherwise).
    /// Mirrors `d_log` for the Γ-robust per-mask bound tables.
    dg_log: f64,
    /// 1 when the degraded probability is exactly zero.
    dg_zero: u8,
}

/// The log of one option's probability under adversary subset `mask`:
/// the degraded log when the option's own type is degraded, the nominal
/// log otherwise, `-inf` when that probability is exactly zero (so the
/// value composes by plain addition — `-inf` absorbs).
#[inline]
fn mask_opt_log(o: &Opt, mask: u32) -> f64 {
    if mask & (1 << o.asg.proc_type.0) != 0 {
        if o.dg_zero != 0 {
            f64::NEG_INFINITY
        } else {
            o.dg_log
        }
    } else if o.d_zero != 0 {
        f64::NEG_INFINITY
    } else {
        o.d_log
    }
}

/// Per-application aggregates of the bound tables.
#[derive(Debug, Clone, Copy)]
struct AppBounds {
    /// Option range `start..start + len` in the flat option arena.
    start: u32,
    len: u32,
    /// Maximum deadline probability over the options (the upper
    /// φ₁-contribution bound).
    max_prob: f64,
    /// Minimum expected completion time over the options (the
    /// optimistic sum bound used for exact tie pruning).
    min_exp: f64,
    /// `max_prob − min_prob`: the bound gap the search order keys on.
    gap: f64,
}

/// Node/prune counters of one solve, summed over both search phases.
/// Deterministic for single-threaded solves; at higher worker counts the
/// shared bound makes visit counts interleaving-dependent (the *result*
/// never is).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatticeCounters {
    /// Search-tree nodes visited (including leaves).
    pub nodes: u64,
    /// Subtrees pruned by a log-space screen alone: the budget DP's
    /// sorted screen, phase 1's zero-bound cut and its per-type tables.
    pub screen_pruned: u64,
    /// Subtrees pruned by the exact-product confirmation.
    pub confirm_pruned: u64,
    /// Subtrees pruned because remaining capacity cannot host the
    /// remaining applications.
    pub capacity_pruned: u64,
    /// Complete allocations evaluated.
    pub leaves: u64,
}

impl LatticeCounters {
    fn add(&mut self, o: &LatticeCounters) {
        self.nodes += o.nodes;
        self.screen_pruned += o.screen_pruned;
        self.confirm_pruned += o.confirm_pruned;
        self.capacity_pruned += o.capacity_pruned;
        self.leaves += o.leaves;
    }
}

/// Diagnostics of one solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatticeReport {
    /// The optimum's objective: `φ₁` for [`Lattice`], worst-case `φ₁`
    /// for [`GammaRobust`].
    pub phi1: f64,
    /// The optimum's nominal (undegraded) `φ₁`; equals `phi1` for the
    /// plain solver.
    pub nominal_phi1: f64,
    /// The optimum's summed expected completion time.
    pub sum_exp: f64,
    /// Search counters.
    pub counters: LatticeCounters,
}

/// Outcome of an exact lattice solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LatticeSolution {
    /// The exact optimum, with positive (worst-case) `φ₁`.
    Optimal {
        /// The φ₁-optimal allocation.
        alloc: Allocation,
        /// Its objective value (worst-case `φ₁` for [`GammaRobust`]).
        phi1: f64,
    },
    /// *Proof* that no feasible allocation meets the deadline with
    /// positive (worst-case) probability.
    Infeasible {
        /// The best-effort optimum under the same total order (zero
        /// probability, minimum summed expected time) — what a caller
        /// that must allocate anyway should use.
        alloc: Allocation,
        /// The smallest deadline for which a feasible allocation with
        /// positive (worst-case) `φ₁` exists: the min-bottleneck of the
        /// per-option minimum loaded completion times. Solving again at
        /// any deadline `≥` this value yields `Optimal`; any deadline
        /// `<` it is provably hopeless.
        tightest_deadline: f64,
    },
}

impl LatticeSolution {
    /// The allocation regardless of feasibility.
    pub fn allocation(&self) -> &Allocation {
        match self {
            LatticeSolution::Optimal { alloc, .. } => alloc,
            LatticeSolution::Infeasible { alloc, .. } => alloc,
        }
    }
}

/// Reusable solver state: bound tables, permutation, DFS buffers. All
/// vectors retain capacity across solves, so a warm scratch makes
/// repeated serve-path calls allocation-free.
#[derive(Debug, Default)]
pub struct LatticeScratch {
    opts: Vec<Opt>,
    apps: Vec<AppBounds>,
    /// Search (permuted) application order: widest bound gap first.
    perm: Vec<usize>,
    /// Γ-adversary type subsets (bitmasks); empty for the plain solver.
    subsets: Vec<u32>,
    /// Engine linear-pass buffers.
    stats: Vec<OptionStats>,
    stats_degraded: Vec<OptionStats>,
    /// Per-option `(cost, option index)` for the bottleneck proof.
    costs: Vec<(f64, u32)>,
    /// Serial-path DFS state.
    state: SearchState,
    /// Root free capacity per type.
    root_free: Vec<u32>,
    /// Budget-constrained suffix bound: `dlog[d * stride + b]` is the
    /// maximum `Σ ln prob` the permuted applications `d..` can reach
    /// using at most `b` processors *in total* (per-type splits relaxed
    /// away); `-inf` when every such completion carries a zero factor
    /// or does not fit the budget at all.
    dlog: Vec<f64>,
    /// Matching minimum `Σ expected time` under the same budget
    /// relaxation (`+inf` when the budget cannot host the suffix);
    /// screens the zero-probability regime where the total order falls
    /// to the expected-time sum.
    emin: Vec<f64>,
    /// Row stride of `dlog`/`emin`: total processors + 1.
    stride: usize,
    /// Per-type suffix bounds of the plain solver's phase 1:
    /// `tlog[(t * (n+1) + d) * tstride + f]` is the maximum `Σ ln prob`
    /// the permuted applications `d..` can reach using at most `f`
    /// processors of type `t`, every other type unconstrained; `-inf`
    /// when no positive completion fits. Empty for the Γ-robust solver.
    tlog: Vec<f64>,
    /// Row stride of `tlog`: the largest type's processor count + 1.
    tstride: usize,
    /// Γ-robust per-mask suffix bounds: `wdlog[m * (n+1) * stride + d *
    /// stride + b]` is `dlog` recomputed with adversary subset `m`'s
    /// per-option probabilities (degraded where the type is hit). Empty
    /// for the plain solver. The worst-case screen key is the minimum
    /// over masks — far sharper than the nominal bound when degradation
    /// moves the optimum.
    wdlog: Vec<f64>,
    /// Per-option per-mask log probability, `wopt_log[opt * masks + m]`
    /// (`-inf` on zero): [`mask_opt_log`] flattened so the hot loops
    /// index instead of re-branching on the mask bit.
    wopt_log: Vec<f64>,
    /// Capacity-DP layers: per used-processor state, the best `(φ₁,
    /// Σ E[T])` prefix (`φ₁ = -inf` when unreached).
    dp: Vec<(f64, f64)>,
    dp_next: Vec<(f64, f64)>,
    /// `dp_back[app * states + state]`: the option index that reached
    /// `state` at `app` on the best prefix.
    dp_back: Vec<u16>,
}

impl LatticeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The best complete allocation seen by one search, in a reusable slot.
#[derive(Debug, Default, Clone)]
struct BestSlot {
    valid: bool,
    /// Worst-case φ₁ (equals `prob` for the plain solver).
    worst: f64,
    /// Nominal φ₁, accumulated in canonical order.
    prob: f64,
    sum_exp: f64,
    /// Canonical per-application option index.
    path: Vec<u32>,
}

impl BestSlot {
    /// Strict total order: worst-case φ₁ desc, nominal φ₁ desc, summed
    /// expected time asc, path asc — [`super::Exhaustive`]'s order with
    /// the worst-case key prepended (degenerate for the plain solver,
    /// where `worst == prob`).
    fn beaten_by(&self, worst: f64, prob: f64, sum_exp: f64, path: &[u32]) -> bool {
        if !self.valid {
            return true;
        }
        worst > self.worst
            || (worst == self.worst
                && (prob > self.prob
                    || (prob == self.prob
                        && (sum_exp < self.sum_exp
                            || (sum_exp == self.sum_exp && path < self.path.as_slice())))))
    }
}

/// Mutable per-worker DFS state.
#[derive(Debug, Default)]
struct SearchState {
    /// Canonical path under construction (`UNSET` = unassigned).
    chosen: Vec<u32>,
    /// Free processors per type.
    free: Vec<u32>,
    free_total: u32,
    /// Cached prune threshold: `max(local best, shared bound)`.
    prune_bits: u64,
    ln_prune: f64,
    /// Per-depth child-ordering buffers
    /// (`(worst key, nominal key, sum key, idx)`), reused across visits
    /// and solves.
    orders: Vec<Vec<(f64, f64, f64, u32)>>,
    /// Per-depth per-mask running `Σ ln prob_m` of the assigned prefix
    /// (`wstack[depth * masks + m]`; `-inf` once a mask-zero factor is
    /// committed). Empty for the plain solver.
    wstack: Vec<f64>,
    best: BestSlot,
    counters: LatticeCounters,
    /// Set when the search ran out of its node budget: the incumbent is
    /// then unproven.
    exhausted: bool,
    /// The path an exhausted search was on: `chosen` when it ran out.
    cut: Vec<u32>,
}

impl SearchState {
    /// Marks the search exhausted and keeps the path it was on. Out of
    /// line, so the budget costs the search's hot loop one compare.
    #[cold]
    #[inline(never)]
    fn run_out(&mut self) {
        self.exhausted = true;
        self.cut.clone_from(&self.chosen);
    }

    /// Resets for a fresh (sub)tree rooted at full capacity.
    fn reset(&mut self, num_apps: usize, root_free: &[u32], nmasks: usize) {
        self.chosen.clear();
        self.chosen.resize(num_apps, UNSET);
        self.free.clear();
        self.free.extend_from_slice(root_free);
        self.free_total = root_free.iter().sum();
        self.prune_bits = 0;
        self.ln_prune = f64::NEG_INFINITY;
        if self.orders.len() < num_apps {
            self.orders.resize_with(num_apps, Vec::new);
        }
        self.wstack.clear();
        self.wstack.resize((num_apps + 1) * nmasks, 0.0);
        self.best.valid = false;
        self.best.path.clear();
        self.best.path.resize(num_apps, UNSET);
        self.counters = LatticeCounters::default();
        self.exhausted = false;
        self.cut.clear();
    }
}

/// Read-only search context shared by every worker of one solve.
struct Ctx<'a> {
    opts: &'a [Opt],
    apps: &'a [AppBounds],
    perm: &'a [usize],
    subsets: &'a [u32],
    /// Budget-constrained suffix bounds (see [`LatticeScratch::dlog`]).
    dlog: &'a [f64],
    emin: &'a [f64],
    stride: usize,
    /// Per-mask suffix bounds and per-option per-mask log factors (see
    /// [`LatticeScratch::wdlog`]); both empty for the plain solver.
    wdlog: &'a [f64],
    wopt_log: &'a [f64],
    /// Row count of one mask's `wdlog` block: `(apps + 1) * stride`.
    mask_rows: usize,
    /// Per-type suffix bounds (see [`LatticeScratch::tlog`]).
    tlog: &'a [f64],
    tstride: usize,
    /// Phase 1: cut every zero-bound child and screen the rest against
    /// `tlog`.
    positive_only: bool,
    /// Shared worst-case-φ₁ lower bound (`f64` bits; non-negative, so
    /// bit order equals value order and `fetch_max` is a float max).
    shared: &'a AtomicU64,
    /// Node visits after which a worker gives up ([`u64::MAX`] for the
    /// exact solvers, which never do).
    node_budget: u64,
}

impl LatticeScratch {
    /// The read-only context of one search phase over this prepared
    /// scratch.
    fn ctx<'a>(&'a self, shared: &'a AtomicU64, positive_only: bool, node_budget: u64) -> Ctx<'a> {
        Ctx {
            opts: &self.opts,
            apps: &self.apps,
            perm: &self.perm,
            subsets: &self.subsets,
            dlog: &self.dlog,
            emin: &self.emin,
            stride: self.stride,
            wdlog: &self.wdlog,
            wopt_log: &self.wopt_log,
            mask_rows: (self.apps.len() + 1) * self.stride,
            tlog: &self.tlog,
            tstride: self.tstride,
            positive_only,
            shared,
            node_budget,
        }
    }
}

/// What the screen/confirmation decided about one child subtree.
enum Verdict {
    Prune,
    Descend,
}

impl Ctx<'_> {
    #[inline]
    fn opt(&self, app: usize, idx: u32) -> &Opt {
        &self.opts[(self.apps[app].start + idx) as usize]
    }

    /// The per-type suffix bound of permuted depth `depth` once `asg` is
    /// taken from `free`: the minimum over types `t` of
    /// `tlog[t][depth][free_t]`.
    #[inline]
    fn type_bound(&self, free: &[u32], depth: usize, asg: Assignment) -> f64 {
        let rows = self.apps.len() + 1;
        let mut bound = f64::INFINITY;
        for (t, &f) in free.iter().enumerate() {
            let f = if t == asg.proc_type.0 {
                f - asg.procs
            } else {
                f
            };
            bound = bound.min(self.tlog[(t * rows + depth) * self.tstride + f as usize]);
        }
        bound
    }

    /// Refreshes the cached prune threshold from the shared bound and
    /// the local incumbent.
    #[inline]
    fn refresh_prune(&self, st: &mut SearchState) {
        let shared = self.shared.load(Ordering::Relaxed);
        let local = if st.best.valid {
            st.best.worst.to_bits()
        } else {
            0
        };
        let bits = shared.max(local);
        if bits != st.prune_bits {
            st.prune_bits = bits;
            st.ln_prune = f64::from_bits(bits).ln();
        }
    }

    /// Takes option `idx` for the application at permuted depth `depth`
    /// on the way down, from the parent's `(chosen_log, zero_terms,
    /// chosen_sum)` (see [`Ctx::dfs`]) to the child's. The split's tasks
    /// retrace a path with it; `dfs` makes the same steps inline, where
    /// calling this measured 6–7 % slower.
    #[inline]
    fn assign(
        &self,
        st: &mut SearchState,
        depth: usize,
        idx: u32,
        (chosen_log, zero_terms, chosen_sum): (f64, u32, f64),
    ) -> (f64, u32, f64) {
        let app = self.perm[depth];
        let o = self.opt(app, idx);
        let nm = self.subsets.len();
        let oi = (self.apps[app].start + idx) as usize;
        for mi in 0..nm {
            st.wstack[(depth + 1) * nm + mi] =
                st.wstack[depth * nm + mi] + self.wopt_log[oi * nm + mi];
        }
        st.chosen[app] = idx;
        st.free[o.asg.proc_type.0] -= o.asg.procs;
        st.free_total -= o.asg.procs;
        let log = if o.d_zero == 0 {
            chosen_log + o.d_log
        } else {
            chosen_log
        };
        (
            log,
            zero_terms + u32::from(o.d_zero),
            chosen_sum + o.exp_time,
        )
    }

    /// The exact-product confirmation for the subtree where `st.chosen`
    /// holds the partial assignment: recomputes the optimistic bound
    /// product and minimum expected-time sum in canonical application
    /// order — the same association order every leaf uses, so by the
    /// per-argument monotonicity of `fl(×)`/`fl(+)` every leaf below
    /// satisfies `leaf.prob ≤ bound` and `leaf.sum ≥ min_sum`
    /// *bit-exactly*, and the prune decisions below need no margins.
    fn confirm(&self, st: &SearchState) -> Verdict {
        let mut bound = 1.0f64;
        let mut min_sum = 0.0f64;
        for (app, ab) in self.apps.iter().enumerate() {
            let c = st.chosen[app];
            if c == UNSET {
                bound *= ab.max_prob;
                min_sum += ab.min_exp;
            } else {
                let o = self.opt(app, c);
                bound *= o.prob;
                min_sum += o.exp_time;
            }
        }
        // Strictly beaten on the primary key by a leaf some worker has
        // already committed: nothing below can be the global argmax
        // (every leaf's worst case is dominated by its nominal
        // probability, which `bound` dominates bit-exactly).
        if bound < f64::from_bits(st.prune_bits) {
            return Verdict::Prune;
        }
        let b = &st.best;
        if !b.valid || bound > b.worst {
            return Verdict::Descend;
        }
        if bound < b.worst {
            return Verdict::Prune;
        }
        // Tie on the worst-case key. A tying leaf must also saturate the
        // nominal bound, so the nominal incumbent key decides next.
        if bound < b.prob {
            return Verdict::Prune;
        }
        if bound > b.prob {
            return Verdict::Descend;
        }
        // Tie on both probability keys: the optimistic sum decides; an
        // exact tie there may still be won on the path, so descend.
        if min_sum > b.sum_exp {
            return Verdict::Prune;
        }
        Verdict::Descend
    }

    /// Evaluates the complete allocation in `st.chosen`: canonical-order
    /// probability product and expected-time sum, worst-case φ₁ over the
    /// adversary subsets, incumbent update, shared-bound publication.
    fn leaf(&self, st: &mut SearchState) {
        st.counters.leaves += 1;
        let mut prob = 1.0f64;
        let mut sum_exp = 0.0f64;
        for app in 0..self.apps.len() {
            let o = self.opt(app, st.chosen[app]);
            prob *= o.prob;
            sum_exp += o.exp_time;
        }
        let worst = if self.subsets.is_empty() {
            prob
        } else {
            let mut w = f64::INFINITY;
            for &mask in self.subsets {
                let mut p = 1.0f64;
                for app in 0..self.apps.len() {
                    let o = self.opt(app, st.chosen[app]);
                    p *= if mask & (1 << o.asg.proc_type.0) != 0 {
                        o.degraded
                    } else {
                        o.prob
                    };
                }
                if p < w {
                    w = p;
                }
            }
            w
        };
        if st.best.beaten_by(worst, prob, sum_exp, &st.chosen) {
            st.best.valid = true;
            st.best.worst = worst;
            st.best.prob = prob;
            st.best.sum_exp = sum_exp;
            st.best.path.copy_from_slice(&st.chosen);
            self.shared.fetch_max(worst.to_bits(), Ordering::Relaxed);
        }
    }

    /// Depth-first search from permuted depth `depth`. `chosen_log` sums
    /// the logs of the assigned positive probabilities, `zero_terms`
    /// counts assigned exactly-zero probabilities, `chosen_sum` sums the
    /// assigned expected times (in permutation order — used only by the
    /// banded zero-regime screen, never for exact decisions).
    fn dfs(
        &self,
        st: &mut SearchState,
        depth: usize,
        chosen_log: f64,
        zero_terms: u32,
        chosen_sum: f64,
    ) {
        st.counters.nodes += 1;
        if st.counters.nodes > self.node_budget {
            st.run_out();
            return;
        }
        let n = self.apps.len();
        if depth == n {
            self.leaf(st);
            return;
        }
        // Every remaining application needs at least one processor.
        if st.free_total < (n - depth) as u32 {
            st.counters.capacity_pruned += 1;
            return;
        }
        let app = self.perm[depth];
        let ab = self.apps[app];
        let nm = self.subsets.len();
        // Score every capacity-feasible child by its optimistic
        // worst-case bound (the minimum over adversary masks of the
        // per-mask log chain; for the plain solver there is exactly the
        // nominal chain) alongside the nominal bound: `-inf` when the
        // corresponding bound is exactly zero. When even the nominal
        // bound is zero, the optimistic expected-time sum takes over as
        // the tertiary key.
        let mut order = std::mem::take(&mut st.orders[depth]);
        order.clear();
        for idx in 0..ab.len {
            let o = self.opt(app, idx);
            if st.free[o.asg.proc_type.0] < o.asg.procs {
                continue;
            }
            let b_after = (st.free_total - o.asg.procs) as usize;
            let nxt = (depth + 1) * self.stride + b_after;
            // An infinite optimistic suffix sum means the remaining
            // budget cannot host the remaining applications even with
            // per-type capacities relaxed: the child subtree has no
            // leaves at all, so it is pruned before it can cost a node
            // visit or a confirmation.
            if self.emin[nxt] == f64::INFINITY {
                st.counters.capacity_pruned += 1;
                continue;
            }
            let suffix = self.dlog[nxt];
            let nkey = if o.d_zero != 0 || suffix == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                chosen_log + o.d_log + suffix
            };
            let wkey = if nm == 0 {
                nkey
            } else {
                let oi = (ab.start + idx) as usize;
                let mut w = f64::INFINITY;
                for mi in 0..nm {
                    let k = st.wstack[depth * nm + mi]
                        + self.wopt_log[oi * nm + mi]
                        + self.wdlog[mi * self.mask_rows + nxt];
                    if k < w {
                        w = k;
                    }
                }
                w
            };
            // A positive per-mask chain forces a positive nominal chain,
            // so `nkey == -inf` implies `wkey == -inf` and the sum key
            // is only ever needed in the all-zero tail.
            let smin = if nkey == f64::NEG_INFINITY {
                chosen_sum + o.exp_time + self.emin[nxt]
            } else {
                0.0
            };
            order.push((wkey, nkey, smin, idx));
        }
        // Most promising child first, so the very first dive lands on a
        // (near-)optimal incumbent and everything after prunes against
        // it. The keys are deterministic functions of the tables and the
        // partial assignment, so the exploration order — and with it the
        // serial counters — is reproducible; the *result* is
        // order-independent because the incumbent order is total.
        order.sort_unstable_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| b.1.total_cmp(&a.1))
                .then_with(|| a.2.total_cmp(&b.2))
                .then_with(|| a.3.cmp(&b.3))
        });
        let mut cut = order.len();
        for (pos, &(wkey, nkey, smin, idx)) in order.iter().enumerate() {
            self.refresh_prune(st);
            let zero_bound = wkey == f64::NEG_INFINITY;
            // Sorted screen: once one child is a certain loser, every
            // remaining child is too (bounds only decrease along the
            // order, and within the all-zero tail the optimistic sums
            // only increase).
            if zero_bound {
                // Phase 1 wants positive leaves only, and once one is
                // committed no zero-bound subtree can win.
                if self.positive_only || f64::from_bits(st.prune_bits) > 0.0 {
                    cut = pos;
                    break;
                }
                // All-zero regime: when the nominal bound is zero too
                // and the incumbent is all zero, the order falls to the
                // expected-time sum; prune clear losers, route near-ties
                // to confirmation. A zero *worst* bound with a positive
                // nominal bound can still win on the nominal key against
                // a zero-worst incumbent, so it must reach confirmation
                // (which decides exactly) — never this screen.
                let b = &st.best;
                if nkey == f64::NEG_INFINITY
                    && b.valid
                    && b.worst == 0.0
                    && b.prob == 0.0
                    && smin > b.sum_exp * SUM_BAND
                {
                    cut = pos;
                    break;
                }
            } else if wkey < st.ln_prune - EPS {
                cut = pos;
                break;
            }
            let o = *self.opt(app, idx);
            // Phase 1's per-type screen: the budget DP pools every type's
            // processors, so it misses a full type.
            if self.positive_only && !self.tlog.is_empty() {
                let key = chosen_log + o.d_log + self.type_bound(&st.free, depth + 1, o.asg);
                if key == f64::NEG_INFINITY || key < st.ln_prune - EPS {
                    st.counters.screen_pruned += 1;
                    continue;
                }
            }
            let confirm = zero_bound || wkey <= st.ln_prune + EPS;
            st.chosen[app] = idx;
            if confirm {
                if let Verdict::Prune = self.confirm(st) {
                    st.counters.confirm_pruned += 1;
                    st.chosen[app] = UNSET;
                    continue;
                }
            }
            let child_zero = zero_terms + u32::from(o.d_zero);
            let child_log = if o.d_zero == 0 {
                chosen_log + o.d_log
            } else {
                chosen_log
            };
            let oi = (ab.start + idx) as usize;
            for mi in 0..nm {
                let parent = st.wstack[depth * nm + mi];
                st.wstack[(depth + 1) * nm + mi] = parent + self.wopt_log[oi * nm + mi];
            }
            st.free[o.asg.proc_type.0] -= o.asg.procs;
            st.free_total -= o.asg.procs;
            self.dfs(
                st,
                depth + 1,
                child_log,
                child_zero,
                chosen_sum + o.exp_time,
            );
            st.free[o.asg.proc_type.0] += o.asg.procs;
            st.free_total += o.asg.procs;
            st.chosen[app] = UNSET;
            if st.exhausted {
                break;
            }
        }
        st.counters.screen_pruned += (order.len() - cut) as u64;
        st.orders[depth] = order;
    }
}

/// Builds the scratch's bound tables, option arena, and search order for
/// one `(engine, deadline, adversary)` instance — one linear pass per
/// application over the engine's prefix-CDF arena, plus the per-app
/// option sort. `gamma` is `Some((budget, degradation))` for the
/// Γ-robust variant.
fn prepare(
    scratch: &mut LatticeScratch,
    engine: &Phi1Engine,
    platform: &Platform,
    deadline: f64,
    gamma: Option<(usize, f64)>,
) -> Result<()> {
    scratch.opts.clear();
    scratch.apps.clear();
    scratch.perm.clear();
    scratch.subsets.clear();
    scratch.root_free.clear();
    scratch
        .root_free
        .extend(platform.types().iter().map(|t| t.count()));

    let n = engine.num_apps();
    for app in 0..n {
        scratch.stats.clear();
        engine.option_stats_into(app, deadline, &mut scratch.stats);
        if scratch.stats.is_empty() {
            return Err(RaError::NoFeasibleAllocation);
        }
        scratch.stats_degraded.clear();
        if let Some((_, g)) = gamma {
            engine.option_stats_into(app, g * deadline, &mut scratch.stats_degraded);
        }
        let start = scratch.opts.len();
        for (k, s) in scratch.stats.iter().enumerate() {
            let degraded = if gamma.is_some() {
                scratch.stats_degraded[k].prob
            } else {
                s.prob
            };
            scratch.opts.push(Opt {
                asg: s.asg,
                prob: s.prob,
                degraded,
                exp_time: s.exp_time,
                min_loaded: s.min_loaded,
                d_log: 0.0,
                d_zero: 0,
                dg_log: 0.0,
                dg_zero: 0,
            });
        }
        // Exhaustive's per-app option order: probability descending,
        // expected time ascending, engine order on full ties (the sort
        // is stable), so canonical paths mean the same thing in both
        // solvers and the path tiebreak is shared.
        scratch.opts[start..].sort_by(|a, b| {
            b.prob
                .total_cmp(&a.prob)
                .then_with(|| a.exp_time.total_cmp(&b.exp_time))
        });
        let slice = &mut scratch.opts[start..];
        let max_prob = slice.iter().map(|o| o.prob).fold(0.0f64, f64::max);
        let min_prob = slice.iter().map(|o| o.prob).fold(f64::INFINITY, f64::min);
        let min_exp = slice
            .iter()
            .map(|o| o.exp_time)
            .fold(f64::INFINITY, f64::min);
        for o in slice.iter_mut() {
            if o.prob > 0.0 {
                (o.d_log, o.d_zero) = (o.prob.ln(), 0);
            } else {
                (o.d_log, o.d_zero) = (0.0, 1);
            }
            if o.degraded > 0.0 {
                (o.dg_log, o.dg_zero) = (o.degraded.ln(), 0);
            } else {
                (o.dg_log, o.dg_zero) = (0.0, 1);
            }
        }
        let len = (scratch.opts.len() - start) as u32;
        scratch.apps.push(AppBounds {
            start: start as u32,
            len,
            max_prob,
            min_exp,
            gap: max_prob - min_prob,
        });
    }

    // Search order: widest bound gap first (most discriminating choices
    // at the top of the tree), fewer options and batch order as ties.
    scratch.perm.extend(0..n);
    let apps = &scratch.apps;
    scratch.perm.sort_by(|&a, &b| {
        apps[b]
            .gap
            .total_cmp(&apps[a].gap)
            .then_with(|| apps[a].len.cmp(&apps[b].len))
            .then_with(|| a.cmp(&b))
    });

    // Budget DP over the permutation suffixes, innermost loop over the
    // options of one application. The per-type capacities are relaxed to
    // their total, so the tables upper-bound (probability) / lower-bound
    // (expected-time sum) every completion of the corresponding subtree —
    // and unlike per-app maxima they stay sharp when applications
    // outnumber processors and nobody can take their best option.
    let total: usize = scratch.root_free.iter().map(|&f| f as usize).sum();
    let stride = total + 1;
    scratch.stride = stride;
    scratch.dlog.clear();
    scratch.dlog.resize((n + 1) * stride, 0.0);
    scratch.emin.clear();
    scratch.emin.resize((n + 1) * stride, 0.0);
    for d in (0..n).rev() {
        let ab = scratch.apps[scratch.perm[d]];
        for b in 0..stride {
            let mut best_log = f64::NEG_INFINITY;
            let mut best_sum = f64::INFINITY;
            for k in 0..ab.len {
                let o = &scratch.opts[(ab.start + k) as usize];
                let procs = o.asg.procs as usize;
                if procs > b {
                    continue;
                }
                let nxt = (d + 1) * stride + (b - procs);
                if o.d_zero == 0 {
                    let cand = o.d_log + scratch.dlog[nxt];
                    if cand > best_log {
                        best_log = cand;
                    }
                }
                let s = o.exp_time + scratch.emin[nxt];
                if s < best_sum {
                    best_sum = s;
                }
            }
            scratch.dlog[d * stride + b] = best_log;
            scratch.emin[d * stride + b] = best_sum;
        }
    }

    // Per-type DPs for the plain solver's phase 1: the same recurrence
    // with one type's capacity kept and every other type's dropped, so
    // an application's best positive option off type `t` costs nothing.
    scratch.tlog.clear();
    if gamma.is_none() {
        let tstride = scratch.root_free.iter().max().map_or(0, |&c| c as usize) + 1;
        let rows = (n + 1) * tstride;
        scratch.tstride = tstride;
        scratch.tlog.resize(scratch.root_free.len() * rows, 0.0);
        for (t, &cap) in scratch.root_free.iter().enumerate() {
            for d in (0..n).rev() {
                let ab = scratch.apps[scratch.perm[d]];
                let opts = &scratch.opts[ab.start as usize..(ab.start + ab.len) as usize];
                let elsewhere = opts
                    .iter()
                    .filter(|o| o.d_zero == 0 && o.asg.proc_type.0 != t)
                    .map(|o| o.d_log)
                    .fold(f64::NEG_INFINITY, f64::max);
                let (row, next) = ((t * (n + 1) + d) * tstride, (t * (n + 1) + d + 1) * tstride);
                for f in 0..=cap as usize {
                    let mut best = elsewhere + scratch.tlog[next + f];
                    for o in opts {
                        let procs = o.asg.procs as usize;
                        if o.d_zero == 0 && o.asg.proc_type.0 == t && procs <= f {
                            best = best.max(o.d_log + scratch.tlog[next + f - procs]);
                        }
                    }
                    scratch.tlog[row + f] = best;
                }
            }
        }
    }

    scratch.wdlog.clear();
    scratch.wopt_log.clear();
    if let Some((budget, _)) = gamma {
        let t = engine.num_types();
        let k = budget.min(t);
        push_subsets(t, k, 0, 0, &mut scratch.subsets);
        let nm = scratch.subsets.len();

        // Flatten the per-option per-mask factors so every hot loop
        // below (DP, child scoring, confirmation) indexes instead of
        // re-testing the mask bit.
        scratch.wopt_log.reserve(scratch.opts.len() * nm);
        for o in &scratch.opts {
            for &mask in &scratch.subsets {
                scratch.wopt_log.push(mask_opt_log(o, mask));
            }
        }

        // Per-mask budget DP: `dlog` recomputed with each adversary
        // subset's probabilities. A positive per-mask chain forces a
        // positive nominal chain (degraded ≤ nominal), so these tables
        // are `-inf` wherever `dlog` is. The search screens on the
        // minimum over masks — the worst-case analogue of the nominal
        // bound, and the reason Γ-robust pruning bites: the nominal
        // bound alone wildly overestimates a degraded optimum.
        let rows = (n + 1) * stride;
        scratch.wdlog.resize(nm * rows, 0.0);
        for mi in 0..nm {
            let base = mi * rows;
            for d in (0..n).rev() {
                let ab = scratch.apps[scratch.perm[d]];
                for b in 0..stride {
                    let mut best = f64::NEG_INFINITY;
                    for k in 0..ab.len {
                        let oi = (ab.start + k) as usize;
                        let procs = scratch.opts[oi].asg.procs as usize;
                        if procs > b {
                            continue;
                        }
                        let dl = scratch.wopt_log[oi * nm + mi];
                        if dl == f64::NEG_INFINITY {
                            continue;
                        }
                        let cand = dl + scratch.wdlog[base + (d + 1) * stride + (b - procs)];
                        if cand > best {
                            best = cand;
                        }
                    }
                    scratch.wdlog[base + d * stride + b] = best;
                }
            }
        }
    }
    Ok(())
}

/// Appends every `k`-subset of `0..t` as a bitmask, lexicographically.
fn push_subsets(t: usize, k: usize, from: usize, mask: u32, out: &mut Vec<u32>) {
    if k == 0 {
        out.push(mask);
        return;
    }
    for j in from..=t.saturating_sub(k) {
        push_subsets(t, k - 1, j + 1, mask | (1 << j), out);
    }
}

/// Exact min-bottleneck search over the minimum loaded completion times:
/// the smallest deadline any capacity-feasible allocation can meet with
/// positive (worst-case) probability. `cost_scale` is `1/γ` when an
/// adversary with budget ≥ 1 can stretch any single application's
/// completion, else `1`.
fn tightest_deadline(scratch: &mut LatticeScratch, cost_scale: f64) -> f64 {
    scratch.costs.clear();
    for ab in &scratch.apps {
        let start = scratch.costs.len();
        for idx in 0..ab.len {
            let o = &scratch.opts[(ab.start + idx) as usize];
            scratch.costs.push((o.min_loaded * cost_scale, idx));
        }
        scratch.costs[start..].sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let mut free = scratch.root_free.clone();
    let free_total: u32 = free.iter().sum();
    let mut best = f64::INFINITY;
    bottleneck_dfs(
        &scratch.apps,
        &scratch.opts,
        &scratch.costs,
        0,
        0.0,
        &mut free,
        free_total,
        &mut best,
    );
    best
}

#[allow(clippy::too_many_arguments)]
fn bottleneck_dfs(
    apps: &[AppBounds],
    opts: &[Opt],
    costs: &[(f64, u32)],
    depth: usize,
    cur_max: f64,
    free: &mut [u32],
    free_total: u32,
    best: &mut f64,
) {
    if depth == apps.len() {
        // Pruning below keeps `cur_max < *best` invariant at leaves.
        *best = cur_max;
        return;
    }
    if free_total < (apps.len() - depth) as u32 {
        return;
    }
    let ab = apps[depth];
    for &(cost, idx) in &costs[ab.start as usize..(ab.start + ab.len) as usize] {
        if cost >= *best {
            break; // costs ascend: nothing later can improve
        }
        let o = &opts[(ab.start + idx) as usize];
        if free[o.asg.proc_type.0] < o.asg.procs {
            continue;
        }
        free[o.asg.proc_type.0] -= o.asg.procs;
        bottleneck_dfs(
            apps,
            opts,
            costs,
            depth + 1,
            cur_max.max(cost),
            free,
            free_total - o.asg.procs,
            best,
        );
        free[o.asg.proc_type.0] += o.asg.procs;
    }
}

/// One serial search phase over a prepared scratch, visiting at most
/// `node_budget` nodes. Leaves the outcome in `scratch.state`: the
/// winner in `best` (not valid when the phase committed no leaf),
/// `exhausted` when the budget ran out first.
fn search_serial(scratch: &mut LatticeScratch, positive_only: bool, node_budget: u64) {
    let mut st = std::mem::take(&mut scratch.state);
    st.reset(
        scratch.apps.len(),
        &scratch.root_free,
        scratch.subsets.len(),
    );
    let shared = AtomicU64::new(0);
    scratch
        .ctx(&shared, positive_only, node_budget)
        .dfs(&mut st, 0, 0.0, 0, 0.0);
    scratch.state = st;
}

/// The capacity DP of an exhausted anytime solve (see the module docs):
/// the allocation of maximal `φ₁`, ties to the smaller `Σ E[T]` as the
/// DP saw them. `None` when nothing fits the capacities or the states
/// times options exceed [`DP_WORK`].
fn capacity_dp(scratch: &mut LatticeScratch) -> Option<BestSlot> {
    let caps = &scratch.root_free;
    let mut strides = Vec::with_capacity(caps.len());
    let mut states = 1usize;
    for &cap in caps {
        strides.push(states);
        states = states.checked_mul(cap as usize + 1)?;
    }
    let options: usize = scratch.apps.iter().map(|ab| ab.len as usize).sum();
    if states.checked_mul(options)? > DP_WORK {
        return None;
    }
    let n = scratch.apps.len();
    const UNREACHED: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);
    let (dp, next) = (&mut scratch.dp, &mut scratch.dp_next);
    dp.clear();
    dp.resize(states, UNREACHED);
    dp[0] = (1.0, 0.0);
    scratch.dp_back.clear();
    scratch.dp_back.resize(n * states, 0);
    let mut used = vec![0u32; caps.len()];
    for (app, ab) in scratch.apps.iter().enumerate() {
        next.clear();
        next.resize(states, UNREACHED);
        let opts = &scratch.opts[ab.start as usize..(ab.start + ab.len) as usize];
        let back = &mut scratch.dp_back[app * states..(app + 1) * states];
        for (state, &(prob, sum)) in dp.iter().enumerate() {
            if prob == f64::NEG_INFINITY {
                continue;
            }
            for (t, u) in used.iter_mut().enumerate() {
                *u = (state / strides[t]) as u32 % (caps[t] + 1);
            }
            for (k, o) in opts.iter().enumerate() {
                let t = o.asg.proc_type.0;
                if used[t] + o.asg.procs > caps[t] {
                    continue;
                }
                let to = state + o.asg.procs as usize * strides[t];
                let cand = (prob * o.prob, sum + o.exp_time);
                let held = next[to];
                if cand.0 > held.0 || (cand.0 == held.0 && cand.1 < held.1) {
                    next[to] = cand;
                    back[to] = k as u16;
                }
            }
        }
        std::mem::swap(dp, next);
    }
    let mut best: Option<(usize, (f64, f64))> = None;
    for (state, &v) in dp.iter().enumerate() {
        let better = match best {
            None => v.0 > f64::NEG_INFINITY,
            Some((_, b)) => v.0 > b.0 || (v.0 == b.0 && v.1 < b.1),
        };
        if better {
            best = Some((state, v));
        }
    }
    let (mut state, (prob, sum_exp)) = best?;
    let mut path = vec![UNSET; n];
    for app in (0..n).rev() {
        let k = scratch.dp_back[app * states + state];
        path[app] = u32::from(k);
        let o = &scratch.opts[(scratch.apps[app].start + u32::from(k)) as usize];
        state -= o.asg.procs as usize * strides[o.asg.proc_type.0];
    }
    Some(BestSlot {
        valid: true,
        worst: prob,
        prob,
        sum_exp,
        path,
    })
}

/// Where an exhausted serial search stopped: per depth of the path it
/// was on, root first, the position of the path's child in that depth's
/// child order. Empty when the search was not exhausted.
fn cut_path(scratch: &LatticeScratch) -> Vec<usize> {
    let st = &scratch.state;
    scratch
        .perm
        .iter()
        .zip(&st.orders)
        .map_while(|(&app, order)| {
            let idx = *st.cut.get(app)?;
            (idx != UNSET).then(|| {
                order
                    .iter()
                    .position(|c| c.3 == idx)
                    .expect("the path's children were ordered")
            })
        })
        .collect()
}

/// One search phase at `threads` workers: the winning slot (`None` when
/// the phase committed no leaf), its counters left in
/// `scratch.state.counters`. One worker stops after `node_budget` nodes
/// and leaves `scratch.state.exhausted` set. Several workers first search
/// serially for at most `serial_budget` nodes below the root; only a
/// phase that outruns it is split, and the split searches only what the
/// prefix left, to the end.
fn search_phase(
    scratch: &mut LatticeScratch,
    threads: usize,
    positive_only: bool,
    serial_budget: u64,
    node_budget: u64,
) -> Result<Option<BestSlot>> {
    // The root's own visit is free, so even a zero budget orders the
    // root's children before it splits.
    let budget = if threads > 1 {
        serial_budget.saturating_add(1)
    } else {
        node_budget
    };
    search_serial(scratch, positive_only, budget);
    if threads == 1 || !scratch.state.exhausted {
        return Ok(scratch.state.best.valid.then(|| scratch.state.best.clone()));
    }
    let s: &LatticeScratch = scratch;
    let n = s.apps.len();
    let nmasks = s.subsets.len();
    let prefix = &s.state;
    let path = cut_path(s);
    let levels = path.len();

    // The split: one task per child the prefix left, fanned out over the
    // work-stealing pool. A task `(depth, idx)` takes option `idx` below
    // the path's node at `depth`: the later siblings at every depth, and
    // at the deepest, the child the prefix had only just reached.
    // Everything else it finished, so no leaf there beats its incumbent.
    let mut tasks: Vec<(usize, u32)> = Vec::new();
    for (depth, &pos) in path.iter().enumerate() {
        let from = pos + usize::from(depth + 1 < levels);
        tasks.extend(prefix.orders[depth][from..].iter().map(|c| (depth, c.3)));
    }
    // The incumbent is a committed leaf: it seeds the shared bound and
    // every task's own incumbent, so ties on the primary key prune as
    // they would have serially, and each slot's winner is at least as
    // good as it.
    let shared = AtomicU64::new(if prefix.best.valid {
        prefix.best.worst.to_bits()
    } else {
        0
    });
    // Each task's winner lands in its own slot; the merge below is a
    // reduction under the strict total order, so the argmax is
    // bit-identical for every worker count.
    let slots: Vec<OnceLock<(Option<BestSlot>, LatticeCounters)>> =
        tasks.iter().map(|_| OnceLock::new()).collect();
    pool::run(
        threads,
        tasks.len(),
        None,
        SearchState::default,
        |task, st: &mut SearchState| -> Result<()> {
            let ctx = s.ctx(&shared, positive_only, u64::MAX);
            st.reset(n, &s.root_free, nmasks);
            if prefix.best.valid {
                st.best.clone_from(&prefix.best);
            }
            // Retrace the path to the task's node, then take its child.
            let (depth, idx) = tasks[task];
            let mut acc = (0.0, 0, 0.0);
            for d in 0..depth {
                acc = ctx.assign(st, d, prefix.cut[s.perm[d]], acc);
            }
            // The parent's screen, for the child this task owns: phase 1
            // never enters a zero-probability option.
            if !(positive_only && ctx.opt(s.perm[depth], idx).d_zero != 0) {
                let (log, zeros, sum) = ctx.assign(st, depth, idx, acc);
                ctx.dfs(st, depth + 1, log, zeros, sum);
            }
            let best = st.best.valid.then(|| st.best.clone());
            slots[task]
                .set((best, st.counters))
                .expect("each split task runs once");
            Ok(())
        },
    )?;

    let mut merged: Option<BestSlot> = None;
    // The exhausted serial prefix's visits count too.
    let mut counters = prefix.counters;
    for slot in slots {
        let (best, c) = slot.into_inner().expect("error-free run fills every slot");
        counters.add(&c);
        if let Some(b) = best {
            let take = match &merged {
                None => true,
                Some(m) => m.beaten_by(b.worst, b.prob, b.sum_exp, &b.path),
            };
            if take {
                merged = Some(b);
            }
        }
    }
    // Stash the merged counters where `optimum` builds the report from;
    // the split finished what the prefix left.
    scratch.state.counters = counters;
    scratch.state.exhausted = false;
    Ok(merged)
}

/// The root's bound on the objective in log space: the smallest of the
/// (worst-case) suffix tables at full capacity. No allocation's
/// `Σ ln p` exceeds it beyond the log-sum rounding `EPS` covers; `-inf`
/// when none is positive. Phase 1 would then cut every root child, so it
/// is skipped — and with it, at several workers, one round of pool
/// start-up.
fn root_log_bound(scratch: &LatticeScratch) -> f64 {
    let n = scratch.apps.len();
    let total = scratch.stride - 1;
    if scratch.subsets.is_empty() {
        scratch
            .root_free
            .iter()
            .enumerate()
            .map(|(t, &cap)| scratch.tlog[t * (n + 1) * scratch.tstride + cap as usize])
            .fold(scratch.dlog[total], f64::min)
    } else {
        let rows = (n + 1) * scratch.stride;
        (0..scratch.subsets.len())
            .map(|m| scratch.wdlog[m * rows + total])
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs the full branch-and-bound for a prepared scratch and returns the
/// winning slot; `None` when no capacity-feasible allocation exists. The
/// counters of both phases end up in `scratch.state.counters`. At one
/// worker the two phases share `node_budget` nodes; a search that runs
/// out returns its incumbent (`None` if it had none) with
/// `scratch.state.exhausted` set.
fn search(
    scratch: &mut LatticeScratch,
    threads: usize,
    serial_budget: u64,
    node_budget: u64,
) -> Result<Option<BestSlot>> {
    let mut first = LatticeCounters::default();
    if root_log_bound(scratch) > f64::NEG_INFINITY {
        let positive = search_phase(scratch, threads, true, serial_budget, node_budget)?;
        if scratch.state.exhausted || positive.as_ref().is_some_and(|b| b.worst > 0.0) {
            return Ok(positive);
        }
        first = scratch.state.counters;
    }
    let left = node_budget.saturating_sub(first.nodes);
    let best = search_phase(scratch, threads, false, serial_budget, left)?;
    scratch.state.counters.add(&first);
    Ok(best)
}

/// `deadline` when it is positive and finite.
fn valid_deadline(deadline: f64) -> Result<f64> {
    if !(deadline > 0.0) || !deadline.is_finite() {
        return Err(RaError::BadParameter {
            name: "deadline",
            value: deadline,
        });
    }
    Ok(deadline)
}

/// The report of the winning slot of a search that just ran.
fn report(scratch: &LatticeScratch, best: &BestSlot) -> LatticeReport {
    LatticeReport {
        phi1: best.worst,
        nominal_phi1: best.prob,
        sum_exp: best.sum_exp,
        counters: scratch.state.counters,
    }
}

/// Shared search behind both allocators: validates, prepares the scratch
/// and searches. The optimum's objective is in the report: zero when no
/// allocation meets the deadline with positive (worst-case) probability.
fn optimum(
    engine: &Phi1Engine,
    platform: &Platform,
    deadline: f64,
    threads: usize,
    gamma: Option<(usize, f64)>,
    scratch: &mut LatticeScratch,
) -> Result<(Allocation, LatticeReport)> {
    valid_deadline(deadline)?;
    if threads == 0 {
        return Err(RaError::BadParameter {
            name: "threads",
            value: 0.0,
        });
    }
    if let Some((_, g)) = gamma {
        if !(g > 0.0 && g <= 1.0) {
            return Err(RaError::BadParameter {
                name: "degradation",
                value: g,
            });
        }
    }
    prepare(scratch, engine, platform, deadline, gamma)?;
    let best =
        search(scratch, threads, SERIAL_BUDGET, u64::MAX)?.ok_or(RaError::NoFeasibleAllocation)?;
    Ok((path_allocation(scratch, &best.path), report(scratch, &best)))
}

/// [`optimum`] classified: a positive optimum is `Optimal`, a zero one
/// `Infeasible` with the tightest-deadline proof.
fn solve(
    engine: &Phi1Engine,
    platform: &Platform,
    deadline: f64,
    threads: usize,
    gamma: Option<(usize, f64)>,
    scratch: &mut LatticeScratch,
) -> Result<(LatticeSolution, LatticeReport)> {
    let (alloc, report) = optimum(engine, platform, deadline, threads, gamma, scratch)?;
    let solution = if report.phi1 > 0.0 {
        LatticeSolution::Optimal {
            alloc,
            phi1: report.phi1,
        }
    } else {
        let scale = match gamma {
            Some((budget, g)) if budget >= 1 => 1.0 / g,
            _ => 1.0,
        };
        LatticeSolution::Infeasible {
            alloc,
            tightest_deadline: tightest_deadline(scratch, scale),
        }
    };
    Ok((solution, report))
}

/// The allocation a canonical option path names.
fn path_allocation(scratch: &LatticeScratch, path: &[u32]) -> Allocation {
    Allocation::new(
        path.iter()
            .enumerate()
            .map(|(app, &idx)| scratch.opts[(scratch.apps[app].start + idx) as usize].asg)
            .collect(),
    )
}

/// What a budgeted search proved about the plain solver's optimum.
#[derive(Debug)]
pub(crate) enum Budgeted {
    /// The exact φ₁-optimal allocation; its φ₁ is positive.
    Optimum(Allocation),
    /// No allocation meets the deadline with positive probability, or
    /// none fits the capacities at all (callers rule that out first).
    Zero,
    /// The node budget ran out first: nothing is proven.
    Unproven,
}

/// The plain solver's phase 1 as a serial search of at most
/// `node_budget` nodes on this thread's scratch, for a deadline the
/// caller has already validated. Phase 2 never runs: its zero-probability
/// optimum is not needed, so a deadline-infeasible instance costs the
/// few nodes phase 1 takes to find no positive leaf. Simulated
/// annealing's certified early exit is the only caller.
pub(crate) fn budgeted_optimum(
    engine: &Phi1Engine,
    platform: &Platform,
    deadline: f64,
    node_budget: u64,
) -> Result<Budgeted> {
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        prepare(scratch, engine, platform, deadline, None)?;
        search_serial(scratch, true, node_budget);
        let st = &scratch.state;
        Ok(if st.exhausted {
            Budgeted::Unproven
        } else if st.best.valid && st.best.worst > 0.0 {
            Budgeted::Optimum(path_allocation(scratch, &st.best.path))
        } else {
            Budgeted::Zero
        })
    })
}

thread_local! {
    /// Per-thread scratch behind the [`Allocator`] entry points, so the
    /// serve path's repeated single-threaded calls reuse warm buffers.
    static SCRATCH: RefCell<LatticeScratch> = RefCell::new(LatticeScratch::new());
}

/// Exact φ₁-optimal Stage-I allocation by prefix-CDF-pruned
/// branch-and-bound (see the module docs). Bit-identical to
/// [`super::Exhaustive`] — at a fraction of the node count.
#[derive(Debug, Clone, Copy)]
pub struct Lattice {
    /// Worker threads for the root-level split. The engine is built by
    /// the caller, or by [`Allocator::allocate`] at the host width.
    pub threads: usize,
}

impl Default for Lattice {
    fn default() -> Self {
        Self {
            threads: cdsf_system::default_threads(),
        }
    }
}

impl Lattice {
    /// Creates the policy with the given thread count (≥ 1).
    pub fn new(threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(RaError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        Ok(Self { threads })
    }

    /// Full-fidelity entry point: the exact solution (including the
    /// infeasibility proof) and the search report, reusing `scratch`.
    pub fn solve_with_engine(
        &self,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
        scratch: &mut LatticeScratch,
    ) -> Result<(LatticeSolution, LatticeReport)> {
        solve(engine, platform, deadline, self.threads, None, scratch)
    }

    /// The exact optimum and the search report, reusing `scratch`,
    /// without the tightest-deadline proof: `report.phi1 == 0.0` says no
    /// allocation meets the deadline with positive probability, and the
    /// allocation is then the minimum-expected-time one.
    pub fn optimum_with_engine(
        &self,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
        scratch: &mut LatticeScratch,
    ) -> Result<(Allocation, LatticeReport)> {
        optimum(engine, platform, deadline, self.threads, None, scratch)
    }

    /// Nodes an anytime solve visits, both phases together, before it
    /// returns its incumbent unproven: 4.7–7.1 ms of CPU where the
    /// frontier's searches ran out, on a 2-vCPU host (EXPERIMENTS.md,
    /// "A node-budgeted lattice for every exact serve request").
    pub const NODE_BUDGET: u64 = 1 << 15;

    /// The anytime solve (see the module docs): the exact optimum as
    /// [`Lattice::optimum_with_engine`] finds it, searched on this thread
    /// for at most [`Lattice::NODE_BUDGET`] nodes. `None` in the last
    /// place proves the answer optimal; otherwise the answer is the best
    /// allocation the budget and the capacity DP reached, with its
    /// certificate. The answer depends on the inputs and the deadline
    /// alone.
    ///
    /// # Errors
    ///
    /// [`RaError::NoFeasibleAllocation`] when no allocation fits the
    /// capacities, and [`RaError::BudgetExhausted`] when the budget ran
    /// out before the search reached any allocation.
    pub fn anytime_with_engine(
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
        scratch: &mut LatticeScratch,
    ) -> Result<(Allocation, LatticeReport, Option<Unproven>)> {
        prepare(scratch, engine, platform, valid_deadline(deadline)?, None)?;
        let mut best = search(scratch, 1, SERIAL_BUDGET, Self::NODE_BUDGET)?;
        let nodes = scratch.state.counters.nodes;
        let mut unproven = None;
        if scratch.state.exhausted {
            let mut phi1_bound = (root_log_bound(scratch) + EPS).exp();
            if let Some(dp) = capacity_dp(scratch) {
                phi1_bound = dp.worst;
                let incumbent = best.as_ref();
                if incumbent.map_or(true, |b| {
                    b.beaten_by(dp.worst, dp.prob, dp.sum_exp, &dp.path)
                }) {
                    best = Some(dp);
                }
            }
            unproven = Some(Unproven { nodes, phi1_bound });
        }
        let best = match best {
            Some(best) => best,
            None if unproven.is_some() => return Err(RaError::BudgetExhausted { nodes }),
            None => return Err(RaError::NoFeasibleAllocation),
        };
        let alloc = path_allocation(scratch, &best.path);
        Ok((alloc, report(scratch, &best), unproven))
    }
}

impl Allocator for Lattice {
    fn name(&self) -> &'static str {
        "Lattice"
    }

    fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        // Like `Exhaustive`, a deadline-infeasible instance still yields
        // the best-effort (zero-probability, minimum expected time)
        // allocation; only capacity infeasibility errors.
        SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            let (alloc, _) = self.optimum_with_engine(platform, engine, deadline, &mut scratch)?;
            Ok(alloc)
        })
    }
}

/// Γ-robust exact Stage-I allocation: maximizes the *worst-case* `φ₁`
/// when an adversary may degrade the availability of up to
/// [`budget`](Self::budget) processor types by
/// [`degradation`](Self::degradation) (see the module docs). When even
/// the optimum is hopeless, [`Allocator::allocate`] returns
/// [`RaError::ProvenInfeasible`] carrying the exact tightest feasible
/// deadline — a proof, not a fallback.
#[derive(Debug, Clone, Copy)]
pub struct GammaRobust {
    /// Worker threads for the root-level split. The engine is built by
    /// the caller, or by [`Allocator::allocate`] at the host width.
    pub threads: usize,
    /// Γ: how many processor types the adversary may degrade at once.
    pub budget: usize,
    /// γ ∈ (0, 1]: availability multiplier of a degraded type (loaded
    /// completion times stretch by `1/γ`).
    pub degradation: f64,
}

impl Default for GammaRobust {
    fn default() -> Self {
        Self {
            threads: cdsf_system::default_threads(),
            budget: 1,
            degradation: 0.9,
        }
    }
}

impl GammaRobust {
    /// Full-fidelity entry point: the exact worst-case solution and the
    /// search report, reusing `scratch`.
    pub fn solve_with_engine(
        &self,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
        scratch: &mut LatticeScratch,
    ) -> Result<(LatticeSolution, LatticeReport)> {
        solve(
            engine,
            platform,
            deadline,
            self.threads,
            Some((self.budget, self.degradation)),
            scratch,
        )
    }
}

impl Allocator for GammaRobust {
    fn name(&self) -> &'static str {
        "GammaRobust"
    }

    fn allocate_with_engine(
        &self,
        batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        if batch.is_empty() {
            return Err(RaError::EmptyBatch);
        }
        SCRATCH.with(|s| {
            let mut scratch = s.borrow_mut();
            let (solution, _) = self.solve_with_engine(platform, engine, deadline, &mut scratch)?;
            match solution {
                LatticeSolution::Optimal { alloc, .. } => Ok(alloc),
                LatticeSolution::Infeasible {
                    tightest_deadline, ..
                } => Err(RaError::ProvenInfeasible { tightest_deadline }),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::*;
    use crate::allocators::Exhaustive;
    use cdsf_system::{Application, ProcTypeId, ProcessorType};

    /// The paper batch plus a fourth application whose only option with
    /// a positive deadline probability at [`DEADLINE`] is all eight
    /// Type-2 processors, which app 3 wants too. On the paper platform
    /// no allocation is then positive (apps 1 and 2 cannot both fit on
    /// Type 1 beside app 3), so phase 2 runs.
    fn contended_batch(pulses: usize) -> Batch {
        let hog = Application::builder("hog")
            .serial_iters(100)
            .parallel_iters(4096)
            .exec_time_normal(40_000.0, pulses)
            .unwrap()
            .exec_time_normal(18_000.0, pulses)
            .unwrap()
            .build()
            .unwrap();
        let mut apps = paper_batch(pulses).apps().to_vec();
        apps.push(hog);
        Batch::new(apps)
    }

    /// The paper platform with eight Type-1 processors: the rest of
    /// [`contended_batch`] fits beside the hog, so a positive optimum
    /// exists but the budget DP still lets app 3 take Type 2.
    fn wide_platform() -> Platform {
        let paper = paper_platform();
        let t1 = &paper.types()[0];
        Platform::new(vec![
            ProcessorType::new("Type 1", 8, t1.availability().clone()).unwrap(),
            paper.types()[1].clone(),
        ])
        .unwrap()
    }

    /// Unpruned reference search over a prepared scratch: plain recursion
    /// in canonical application order, leaf evaluation copied verbatim
    /// from [`Ctx::leaf`], no bounds. The total order is strict (distinct
    /// allocations have distinct paths), so any search order yields the
    /// same winner — which is exactly what the pruned solver must match.
    fn unpruned_best(scratch: &LatticeScratch) -> Option<BestSlot> {
        fn rec(
            s: &LatticeScratch,
            depth: usize,
            free: &mut [u32],
            chosen: &mut [u32],
            best: &mut BestSlot,
        ) {
            let n = s.apps.len();
            if depth == n {
                let mut prob = 1.0f64;
                let mut sum_exp = 0.0f64;
                for (app, &choice) in chosen.iter().enumerate() {
                    let o = &s.opts[(s.apps[app].start + choice) as usize];
                    prob *= o.prob;
                    sum_exp += o.exp_time;
                }
                let worst = if s.subsets.is_empty() {
                    prob
                } else {
                    let mut w = f64::INFINITY;
                    for &mask in &s.subsets {
                        let mut p = 1.0f64;
                        for (app, &choice) in chosen.iter().enumerate() {
                            let o = &s.opts[(s.apps[app].start + choice) as usize];
                            p *= if mask & (1 << o.asg.proc_type.0) != 0 {
                                o.degraded
                            } else {
                                o.prob
                            };
                        }
                        if p < w {
                            w = p;
                        }
                    }
                    w
                };
                if best.beaten_by(worst, prob, sum_exp, chosen) {
                    best.valid = true;
                    best.worst = worst;
                    best.prob = prob;
                    best.sum_exp = sum_exp;
                    best.path.copy_from_slice(chosen);
                }
                return;
            }
            let ab = s.apps[depth];
            for idx in 0..ab.len {
                let o = s.opts[(ab.start + idx) as usize];
                if free[o.asg.proc_type.0] < o.asg.procs {
                    continue;
                }
                free[o.asg.proc_type.0] -= o.asg.procs;
                chosen[depth] = idx;
                rec(s, depth + 1, free, chosen, best);
                chosen[depth] = UNSET;
                free[o.asg.proc_type.0] += o.asg.procs;
            }
        }
        let n = scratch.apps.len();
        let mut free = scratch.root_free.clone();
        let mut chosen = vec![UNSET; n];
        let mut best = BestSlot {
            path: vec![UNSET; n],
            ..BestSlot::default()
        };
        rec(scratch, 0, &mut free, &mut chosen, &mut best);
        best.valid.then_some(best)
    }

    fn assert_slots_bit_equal(a: &BestSlot, b: &BestSlot, what: &str) {
        assert_eq!(a.path, b.path, "{what}: paths differ");
        assert_eq!(
            a.worst.to_bits(),
            b.worst.to_bits(),
            "{what}: worst-case φ₁ bits differ"
        );
        assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "{what}: φ₁ bits differ");
        assert_eq!(
            a.sum_exp.to_bits(),
            b.sum_exp.to_bits(),
            "{what}: Σ expected-time bits differ"
        );
    }

    #[test]
    fn reproduces_paper_table4_robust_row() {
        let alloc = Lattice::new(1)
            .unwrap()
            .allocate(&paper_batch(64), &paper_platform(), DEADLINE)
            .unwrap();
        let a = alloc.assignments();
        assert_eq!(
            a[0],
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2
            }
        );
        assert_eq!(
            a[1],
            Assignment {
                proc_type: ProcTypeId(0),
                procs: 2
            }
        );
        assert_eq!(
            a[2],
            Assignment {
                proc_type: ProcTypeId(1),
                procs: 8
            }
        );
    }

    #[test]
    fn matches_exhaustive_bit_exactly_across_deadlines() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        // Spans infeasible (800), tight, the paper's, and slack deadlines;
        // tight ones exercise zero-probability ties and the min-sum order.
        for deadline in [800.0, 1500.0, 2500.0, DEADLINE, 5000.0, 20_000.0] {
            let ex = Exhaustive
                .allocate_with_engine(&b, &p, &engine, deadline)
                .unwrap();
            let la = Lattice::new(1)
                .unwrap()
                .allocate_with_engine(&b, &p, &engine, deadline)
                .unwrap();
            assert_eq!(ex, la, "deadline {deadline}: allocations differ");
        }
    }

    #[test]
    fn pruned_search_matches_unpruned_reference() {
        // The paper instance, then the capacity-contended one with and
        // without a positive optimum; 800 is deadline-infeasible for all.
        let instances = [
            ("paper", paper_batch(32), paper_platform()),
            ("contended", contended_batch(32), paper_platform()),
            ("contended-wide", contended_batch(32), wide_platform()),
        ];
        // Serial prefixes this short run out a few nodes past their first
        // dive's leaf: inside the first root child, or in a later one
        // after finishing the child that holds the optimum.
        const FEW: [u64; 2] = [6, 12];
        let (mut cut_first, mut kept) = (0, 0);
        let mut scratch = LatticeScratch::new();
        for (name, b, p) in &instances {
            let engine = Phi1Engine::build(b, p).unwrap();
            for deadline in [800.0, 2500.0, DEADLINE, 8000.0] {
                for gamma in [None, Some((1, 0.9)), Some((2, 0.7))] {
                    prepare(&mut scratch, &engine, p, deadline, gamma).unwrap();
                    let reference = unpruned_best(&scratch).unwrap();
                    // At two workers: budget 0 splits every root child, a
                    // few nodes run the serial prefix out mid-search so the
                    // split takes the children it left, and the default
                    // budget finishes serially.
                    for (threads, budget) in [
                        (1, SERIAL_BUDGET),
                        (2, 0),
                        (2, FEW[0]),
                        (2, FEW[1]),
                        (2, SERIAL_BUDGET),
                    ] {
                        let pruned = search(&mut scratch, threads, budget, u64::MAX)
                            .unwrap()
                            .unwrap();
                        assert_slots_bit_equal(
                            &pruned,
                            &reference,
                            &format!(
                                "{name}, deadline {deadline}, gamma {gamma:?}, \
                                 {threads} workers, serial budget {budget}"
                            ),
                        );
                        // The prefix's own state outlives the split.
                        let root = match cut_path(&scratch).first() {
                            Some(&pos) if FEW.contains(&budget) => pos,
                            _ => continue,
                        };
                        let winner = pruned.path[scratch.perm[0]];
                        if root == 0 {
                            cut_first += 1;
                        } else if scratch.state.orders[0][..root]
                            .iter()
                            .any(|c| c.3 == winner)
                        {
                            kept += 1;
                        }
                    }
                    if deadline == DEADLINE && gamma.is_none() {
                        assert_eq!(
                            reference.worst > 0.0,
                            *name != "contended",
                            "{name}: the instance lost its shape"
                        );
                    }
                }
            }
        }
        assert!(cut_first > 0, "no prefix ran out in its first root child");
        assert!(kept > 0, "no prefix finished the optimum's root child");
    }

    #[test]
    fn per_type_tables_cut_a_contended_pool_instance() {
        use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator};
        // Instance 16 of a seeded pool of 8 apps on 4 types of 8–16
        // processors: app 0's only positive option needs 8 processors of
        // type 2. Without the per-type tables and the phase split the
        // search visited 1 331 842 nodes; with them it visits 7 250.
        let mix = |a: u64| {
            let mut z = 42 ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let p = PlatformGenerator {
            num_types: 4,
            procs_per_type: (8, 16),
            ..PlatformGenerator::default()
        }
        .generate(mix(48))
        .unwrap();
        let b = BatchGenerator {
            num_apps: 8,
            pulses: 16,
            ..BatchGenerator::default()
        }
        .generate(&p, mix(49))
        .unwrap();
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let (solution, report) = Lattice::new(1)
            .unwrap()
            .solve_with_engine(&p, &engine, 4_000.0, &mut LatticeScratch::new())
            .unwrap();
        assert!(matches!(solution, LatticeSolution::Optimal { .. }));
        assert!(
            report.counters.nodes <= 20_000,
            "contended instance needs {} nodes",
            report.counters.nodes
        );
    }

    /// The Stage-I bench instance (`cdsf_bench::bench_instance`):
    /// `num_apps` applications with 12-pulse PMFs on 3 types of 8–16
    /// processors.
    fn bench_instance(num_apps: usize) -> (Batch, Platform) {
        use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
        let platform = PlatformGenerator {
            num_types: 3,
            procs_per_type: (8, 16),
            availability_pulses: 3,
            availability_range: Range::new(0.3, 1.0).unwrap(),
        }
        .generate(11)
        .unwrap();
        let batch = BatchGenerator {
            num_apps,
            total_iters: (1_000, 8_000),
            serial_fraction: Range::new(0.02, 0.2).unwrap(),
            mean_exec_time: Range::new(1_000.0, 6_000.0).unwrap(),
            type_heterogeneity: Range::new(0.6, 1.8).unwrap(),
            pulses: 12,
        }
        .generate(&platform, 12)
        .unwrap();
        (batch, platform)
    }

    #[test]
    fn anytime_solve_inside_its_budget_is_the_exact_optimum() {
        // Positive optima, zero ones (phase 2 spends what phase 1 left)
        // and a plateau search of 11 105 nodes.
        let mut cases = Vec::new();
        for (b, p) in [
            (paper_batch(32), paper_platform()),
            (contended_batch(32), paper_platform()),
            (contended_batch(32), wide_platform()),
        ] {
            for deadline in [100.0, 800.0, 2500.0, DEADLINE, 8000.0] {
                cases.push((b.clone(), p.clone(), deadline));
            }
        }
        let (b, p) = bench_instance(12);
        cases.push((b, p, 5_500.0));
        let mut scratch = LatticeScratch::new();
        let mut largest = 0;
        for (b, p, deadline) in &cases {
            let engine = Phi1Engine::build(b, p).unwrap();
            let (alloc, report, unproven) =
                Lattice::anytime_with_engine(p, &engine, *deadline, &mut scratch).unwrap();
            assert_eq!(unproven, None, "Δ = {deadline}");
            for threads in [1, 2] {
                let exact = Lattice::new(threads)
                    .unwrap()
                    .optimum_with_engine(p, &engine, *deadline, &mut LatticeScratch::new())
                    .unwrap();
                assert_eq!(alloc, exact.0, "Δ = {deadline}, {threads} workers");
                assert_eq!(report.phi1.to_bits(), exact.1.phi1.to_bits());
                assert_eq!(report.sum_exp.to_bits(), exact.1.sum_exp.to_bits());
                if threads == 1 {
                    assert_eq!(report, exact.1, "Δ = {deadline}: serial counters");
                }
            }
            largest = largest.max(report.counters.nodes);
        }
        assert!(largest > 10_000, "no case searched past a few nodes");
        assert!(Lattice::anytime_with_engine(
            &paper_platform(),
            &Phi1Engine::build(&paper_batch(8), &paper_platform()).unwrap(),
            f64::NAN,
            &mut scratch
        )
        .is_err());
    }

    #[test]
    fn anytime_solve_certifies_what_its_budget_did_not_prove() {
        // Every allocation near the optimum reaches φ₁ = 1 (to a few ulps)
        // here; the unbudgeted search takes ~15 M nodes to decide the ties
        // on φ₁'s last bits and the expected-time sum.
        let (b, p) = bench_instance(16);
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let (alloc, report, unproven) =
            Lattice::anytime_with_engine(&p, &engine, 10_000.0, &mut LatticeScratch::new())
                .unwrap();
        let unproven = unproven.expect("the budget runs out");
        assert_eq!(unproven.nodes, Lattice::NODE_BUDGET + 1);
        assert_eq!(report.counters.nodes, unproven.nodes);
        assert!((report.phi1 - 1.0).abs() < 1e-12, "φ₁ = {}", report.phi1);
        assert!(unproven.phi1_bound >= report.phi1);
        alloc.validate(&b, &p).unwrap();
        let evaluated = crate::robustness::evaluate_with_engine(&engine, &b, &p, &alloc, 10_000.0)
            .unwrap()
            .joint;
        assert!(unproven.phi1_bound >= evaluated);
        // Nothing about the answer depends on the scratch's history.
        let mut warm = LatticeScratch::new();
        Lattice::anytime_with_engine(&p, &engine, 4_000.0, &mut warm).unwrap();
        let again = Lattice::anytime_with_engine(&p, &engine, 10_000.0, &mut warm).unwrap();
        assert_eq!((again.0, again.1, again.2), (alloc, report, Some(unproven)));
    }

    #[test]
    fn allocate_path_skips_the_proof_not_the_optimum() {
        let solver = Lattice::new(1).unwrap();
        for (b, p, deadline) in [
            (paper_batch(32), paper_platform(), 100.0),
            (contended_batch(32), paper_platform(), DEADLINE),
        ] {
            let engine = Phi1Engine::build(&b, &p).unwrap();
            let (solution, report) = solver
                .solve_with_engine(&p, &engine, deadline, &mut LatticeScratch::new())
                .unwrap();
            assert!(matches!(solution, LatticeSolution::Infeasible { .. }));
            let allocated = solver
                .allocate_with_engine(&b, &p, &engine, deadline)
                .unwrap();
            assert_eq!(&allocated, solution.allocation());
            let (alloc, searched) = solver
                .optimum_with_engine(&p, &engine, deadline, &mut LatticeScratch::new())
                .unwrap();
            assert_eq!(&alloc, solution.allocation());
            assert_eq!(searched, report);
            assert_eq!(searched.phi1, 0.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let robust = GammaRobust::default();
        let mut scratch = LatticeScratch::new();
        for deadline in [2500.0, DEADLINE] {
            // The plain lattice, then the Γ-robust one.
            for gamma in [None, Some((robust.budget, robust.degradation))] {
                prepare(&mut scratch, &engine, &p, deadline, gamma).unwrap();
                let serial = search(&mut scratch, 1, SERIAL_BUDGET, u64::MAX)
                    .unwrap()
                    .unwrap();
                // Budget 0 splits every root child, 6 nodes split the
                // children a cut-short prefix left, and the default
                // finishes this instance serially.
                for budget in [0, 6, SERIAL_BUDGET] {
                    for threads in [2, 4, 7] {
                        let what = format!(
                            "deadline {deadline}, gamma {gamma:?}, {threads} workers, \
                             serial budget {budget}"
                        );
                        let split = search(&mut scratch, threads, budget, u64::MAX)
                            .unwrap()
                            .unwrap();
                        assert_eq!(
                            path_allocation(&scratch, &split.path),
                            path_allocation(&scratch, &serial.path),
                            "{what}"
                        );
                        assert_eq!(
                            split.worst.to_bits(),
                            serial.worst.to_bits(),
                            "φ₁ bits, {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gamma_budget_zero_reduces_to_plain_lattice() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let mut scratch = LatticeScratch::new();
        let plain = Lattice::new(1)
            .unwrap()
            .solve_with_engine(&p, &engine, DEADLINE, &mut scratch)
            .unwrap();
        let zero_budget = GammaRobust {
            threads: 1,
            budget: 0,
            degradation: 0.9,
        }
        .solve_with_engine(&p, &engine, DEADLINE, &mut scratch)
        .unwrap();
        assert_eq!(plain.0, zero_budget.0);
        assert_eq!(plain.1.phi1.to_bits(), zero_budget.1.phi1.to_bits());
        assert_eq!(
            zero_budget.1.phi1.to_bits(),
            zero_budget.1.nominal_phi1.to_bits(),
            "no adversary: worst case equals nominal"
        );
    }

    #[test]
    fn gamma_robust_matches_brute_force_adversary() {
        let (b, p) = (paper_batch(16), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let (budget, g) = (1usize, 0.9f64);
        let solver = GammaRobust {
            threads: 1,
            budget,
            degradation: g,
        };
        let mut scratch = LatticeScratch::new();
        let (solution, report) = solver
            .solve_with_engine(&p, &engine, DEADLINE, &mut scratch)
            .unwrap();
        // Worst case over every feasible allocation × every adversary
        // subset, with probabilities from the same engine lookups.
        let mut best_worst = f64::NEG_INFINITY;
        for alloc in Allocation::enumerate_feasible(&b, &p).unwrap() {
            let mut worst = f64::INFINITY;
            for degraded_type in 0..p.num_types() {
                let mut prob = 1.0f64;
                for (i, asg) in alloc.assignments().iter().enumerate() {
                    let d = if asg.proc_type.0 == degraded_type {
                        g * DEADLINE
                    } else {
                        DEADLINE
                    };
                    prob *= engine.prob(i, asg.proc_type, asg.procs, d).unwrap();
                }
                worst = worst.min(prob);
            }
            best_worst = best_worst.max(worst);
        }
        assert_eq!(report.phi1.to_bits(), best_worst.to_bits());
        match solution {
            LatticeSolution::Optimal { phi1, .. } => {
                assert!(phi1 > 0.0);
                assert_eq!(phi1.to_bits(), best_worst.to_bits());
            }
            LatticeSolution::Infeasible { .. } => panic!("paper instance is feasible"),
        }
    }

    #[test]
    fn infeasibility_proof_is_tight() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let solver = Lattice::new(1).unwrap();
        let mut scratch = LatticeScratch::new();
        let (solution, _) = solver
            .solve_with_engine(&p, &engine, 100.0, &mut scratch)
            .unwrap();
        let LatticeSolution::Infeasible {
            alloc,
            tightest_deadline,
        } = solution
        else {
            panic!("deadline 100 must be infeasible");
        };
        assert_eq!(alloc.assignments().len(), 3, "best-effort alloc returned");
        assert!(tightest_deadline > 100.0);
        // At the proven tightest deadline the instance becomes feasible…
        let (at, _) = solver
            .solve_with_engine(&p, &engine, tightest_deadline, &mut scratch)
            .unwrap();
        assert!(
            matches!(at, LatticeSolution::Optimal { phi1, .. } if phi1 > 0.0),
            "solving at the tightest deadline must be feasible"
        );
        // …and one ULP-ish below it provably is not.
        let (below, _) = solver
            .solve_with_engine(&p, &engine, tightest_deadline * (1.0 - 1e-12), &mut scratch)
            .unwrap();
        assert!(
            matches!(below, LatticeSolution::Infeasible { .. }),
            "below the tightest deadline must stay infeasible"
        );
    }

    #[test]
    fn gamma_allocate_reports_proven_infeasibility() {
        let (b, p) = (paper_batch(32), paper_platform());
        let solver = GammaRobust {
            threads: 1,
            ..GammaRobust::default()
        };
        let err = solver.allocate(&b, &p, 100.0).unwrap_err();
        let RaError::ProvenInfeasible { tightest_deadline } = err else {
            panic!("expected a proven-infeasible error, got {err}");
        };
        // The γ-adversary stretches the bottleneck by 1/γ relative to the
        // plain proof.
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let mut scratch = LatticeScratch::new();
        let (plain, _) = Lattice::new(1)
            .unwrap()
            .solve_with_engine(&p, &engine, 100.0, &mut scratch)
            .unwrap();
        let LatticeSolution::Infeasible {
            tightest_deadline: plain_tight,
            ..
        } = plain
        else {
            panic!("plain solver must also prove infeasibility");
        };
        assert_eq!(
            tightest_deadline.to_bits(),
            (plain_tight / solver.degradation).to_bits()
        );
    }

    #[test]
    fn scratch_reuse_is_bit_deterministic() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let solver = Lattice::new(1).unwrap();
        let robust = GammaRobust {
            threads: 1,
            ..GammaRobust::default()
        };
        // Interleave plain/γ/infeasible solves through ONE scratch and
        // check each against a cold scratch.
        let mut warm = LatticeScratch::new();
        for deadline in [DEADLINE, 100.0, 2500.0, 8000.0, DEADLINE] {
            let w1 = solver
                .solve_with_engine(&p, &engine, deadline, &mut warm)
                .unwrap();
            let c1 = solver
                .solve_with_engine(&p, &engine, deadline, &mut LatticeScratch::new())
                .unwrap();
            assert_eq!(w1.0, c1.0, "plain, deadline {deadline}");
            assert_eq!(w1.1.phi1.to_bits(), c1.1.phi1.to_bits());
            let w2 = robust
                .solve_with_engine(&p, &engine, deadline, &mut warm)
                .unwrap();
            let c2 = robust
                .solve_with_engine(&p, &engine, deadline, &mut LatticeScratch::new())
                .unwrap();
            assert_eq!(w2.0, c2.0, "gamma, deadline {deadline}");
            assert_eq!(w2.1.phi1.to_bits(), c2.1.phi1.to_bits());
        }
    }

    #[test]
    fn counters_show_pruning_work() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let mut scratch = LatticeScratch::new();
        let (_, report) = Lattice::new(1)
            .unwrap()
            .solve_with_engine(&p, &engine, DEADLINE, &mut scratch)
            .unwrap();
        let c = report.counters;
        assert!(c.leaves >= 1, "at least the optimum is a leaf");
        assert!(c.nodes >= c.leaves);
        assert!(
            c.screen_pruned + c.confirm_pruned > 0,
            "the paper instance must exercise the bound: {c:?}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        let (b, p) = (paper_batch(8), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        assert!(Lattice::new(0).is_err());
        assert!(Lattice::new(1)
            .unwrap()
            .allocate_with_engine(&b, &p, &engine, f64::NAN)
            .is_err());
        assert!(Lattice::new(1)
            .unwrap()
            .allocate_with_engine(&cdsf_system::Batch::new(vec![]), &p, &engine, DEADLINE)
            .is_err());
        for bad_gamma in [0.0, -0.5, 1.5, f64::NAN] {
            let solver = GammaRobust {
                threads: 1,
                budget: 1,
                degradation: bad_gamma,
            };
            assert!(
                solver
                    .allocate_with_engine(&b, &p, &engine, DEADLINE)
                    .is_err(),
                "degradation {bad_gamma} must be rejected"
            );
        }
    }

    #[test]
    fn prebuilt_engine_matches_self_built_path() {
        let (b, p) = (paper_batch(32), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let direct = Lattice::new(1).unwrap().allocate(&b, &p, DEADLINE).unwrap();
        let via_engine = Lattice::new(1)
            .unwrap()
            .allocate_with_engine(&b, &p, &engine, DEADLINE)
            .unwrap();
        assert_eq!(direct, via_engine);
    }
}
