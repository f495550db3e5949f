//! Metaheuristic allocators for large instances: simulated annealing and a
//! genetic algorithm.
//!
//! Both score candidates through the flat [`OptionProbs`] φ₁ kernel (one
//! evaluation is `N` contiguous array reads), the SA inner loop maintains
//! its genome state incrementally via [`DeltaFitness`] (`O(changed)`
//! lookups per mutation), and both maintain feasibility with a shared
//! capacity-repair routine. They are fully deterministic given their seed
//! — including under parallelism: SA runs independent restart chains with
//! per-chain seeds and merges by `(fitness, lowest chain)`; GA evaluates
//! fitness in order-stitched parallel chunks, which are pure array reads
//! and hence bit-identical to the serial sweep. SA's chains stop as soon
//! as they reach the optimum a budgeted lattice solve has proven, which
//! saves their remaining steps without changing their results.

use super::lattice::{self, Budgeted};
use super::{engine_options, Allocator};
use crate::allocation::{Allocation, Assignment};
use crate::engine::Phi1Engine;
use crate::phi1::{DeltaFitness, OptionProbs};
use crate::{RaError, Result};
use cdsf_system::{Batch, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-app option lists plus the flat per-option φ₁ probabilities: the
/// search landscape.
struct Landscape {
    options: Vec<Vec<Assignment>>,
    probs: OptionProbs,
    capacities: Vec<u32>,
}

impl Landscape {
    #[cfg(test)]
    fn build(batch: &Batch, platform: &Platform, deadline: f64) -> Result<Self> {
        let engine = Phi1Engine::build(batch, platform)?;
        Self::from_engine(&engine, platform, deadline)
    }

    /// The landscape at `deadline`; `NoFeasibleAllocation` when not every
    /// application can hold a processor at once. On such inputs
    /// [`Self::repair`] would move one-processor groups between
    /// over-subscribed types forever.
    fn from_engine(engine: &Phi1Engine, platform: &Platform, deadline: f64) -> Result<Self> {
        let probs = OptionProbs::from_engine(engine, deadline)?;
        let options = engine_options(engine)?;
        let capacities: Vec<u32> = platform.types().iter().map(|t| t.count()).collect();
        if !packable(&options, &capacities) {
            return Err(RaError::NoFeasibleAllocation);
        }
        Ok(Self {
            options,
            probs,
            capacities,
        })
    }

    fn num_apps(&self) -> usize {
        self.options.len()
    }

    /// Joint probability of a genome; exactly 0.0 for any missing lookup
    /// (bit-identical to the legacy probability-table product).
    fn fitness(&self, genome: &[Assignment]) -> f64 {
        self.probs.fitness(genome)
    }

    fn is_feasible(&self, genome: &[Assignment]) -> bool {
        self.capacities.iter().enumerate().all(|(j, &cap)| {
            let used: u32 = genome
                .iter()
                .filter(|a| a.proc_type.0 == j)
                .map(|a| a.procs)
                .sum();
            used <= cap
        })
    }

    /// Repairs an infeasible genome in place and returns whether it is
    /// feasible afterwards: while some type is over-subscribed, halve the
    /// largest group on that type; once a group hits one processor, move
    /// it to a random one-processor option of that app on another type,
    /// or give up when there is none. `used` is the per-type demand,
    /// reused across calls so the proposal loop never allocates.
    fn repair(&self, genome: &mut [Assignment], rng: &mut StdRng, used: &mut Vec<u32>) -> bool {
        used.clear();
        used.resize(self.capacities.len(), 0);
        for asg in genome.iter() {
            used[asg.proc_type.0] += asg.procs;
        }
        loop {
            let Some(over) = (0..used.len()).find(|&j| used[j] > self.capacities[j]) else {
                return true;
            };
            // Largest group on the over-subscribed type.
            let (victim, _) = genome
                .iter()
                .enumerate()
                .filter(|(_, a)| a.proc_type.0 == over)
                .max_by_key(|(_, a)| a.procs)
                .expect("over-subscribed type must host a group");
            let procs = genome[victim].procs;
            if procs > 1 {
                genome[victim].procs = procs / 2;
                used[over] -= procs - procs / 2;
            } else {
                let is_alt = |a: &&Assignment| a.proc_type.0 != over && a.procs == 1;
                let alts = self.options[victim].iter().filter(is_alt).count();
                if alts == 0 {
                    return false;
                }
                let pick = rng.gen_range(0..alts);
                let alt = *self.options[victim]
                    .iter()
                    .filter(is_alt)
                    .nth(pick)
                    .expect("pick is below the alternative count");
                genome[victim] = alt;
                used[over] -= 1;
                used[alt.proc_type.0] += 1;
            }
        }
    }

    /// Fills `genome` with a random option per app, repairs it, and
    /// returns whether it is feasible.
    fn random_genome(
        &self,
        genome: &mut Vec<Assignment>,
        rng: &mut StdRng,
        used: &mut Vec<u32>,
    ) -> bool {
        genome.clear();
        genome.extend(
            self.options
                .iter()
                .map(|opts| opts[rng.gen_range(0..opts.len())]),
        );
        self.repair(genome, rng, used)
    }
}

/// Whether every application can hold one processor at the same time:
/// a matching of applications to processor types, at most
/// `capacities[j]` applications on type `j`, found by augmenting paths.
/// Every `(app, type)` pair offers a one-processor option, so this holds
/// exactly when some capacity-feasible genome exists.
fn packable(options: &[Vec<Assignment>], capacities: &[u32]) -> bool {
    /// Places `app`, moving already-placed apps along an augmenting path.
    fn place(
        app: usize,
        options: &[Vec<Assignment>],
        capacities: &[u32],
        holders: &mut [Vec<usize>],
        seen: &mut [bool],
    ) -> bool {
        for asg in options[app].iter().filter(|a| a.procs == 1) {
            let j = asg.proc_type.0;
            if seen[j] {
                continue;
            }
            seen[j] = true;
            if holders[j].len() < capacities[j] as usize {
                holders[j].push(app);
                return true;
            }
            for k in 0..holders[j].len() {
                if place(holders[j][k], options, capacities, holders, seen) {
                    holders[j][k] = app;
                    return true;
                }
            }
        }
        false
    }
    let mut holders = vec![Vec::new(); capacities.len()];
    let mut seen = vec![false; capacities.len()];
    (0..options.len()).all(|app| {
        seen.fill(false);
        place(app, options, capacities, &mut holders, &mut seen)
    })
}

/// Proposal steps of one chain per lattice node the ceiling proof may
/// visit. A node costs about as much as a step, so a proof that runs out
/// of budget wastes at most a quarter of one chain — under the saving of
/// the allocation-free repair on every chain.
const STEPS_PER_CEILING_NODE: u64 = 4;

/// Simulated annealing over the allocation space.
///
/// Neighbourhood: reassign one application to a random alternative option
/// (with capacity repair). Acceptance: Metropolis on the joint probability.
/// Geometric cooling. `restarts` independent chains run across `threads`
/// workers; chain `c` is seeded `seed + c`, so chain 0 reproduces the
/// single-chain search exactly and the merge (best fitness, ties to the
/// lowest chain index) is deterministic for every thread count.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    /// Number of proposal steps per chain.
    pub iterations: usize,
    /// Initial temperature (in probability units; φ₁ ∈ [0, 1], so 0.1 is a
    /// permissive start).
    pub initial_temp: f64,
    /// Geometric cooling factor per step, in `(0, 1)`.
    pub cooling: f64,
    /// RNG seed; chain `c` uses `seed.wrapping_add(c)`.
    pub seed: u64,
    /// Number of independent restart chains.
    pub restarts: usize,
    /// Worker threads for the restart chains. The engine is built by the
    /// caller, or by [`Allocator::allocate`] at the host width.
    pub threads: usize,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            initial_temp: 0.1,
            cooling: 0.9995,
            seed: 0x5EED,
            restarts: 4,
            threads: cdsf_system::default_threads(),
        }
    }
}

/// Telemetry from one pooled multi-start annealing run
/// ([`SimulatedAnnealing::allocate_multi_start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiStartReport {
    /// Restart chains launched.
    pub restarts: usize,
    /// Index of the chain whose best genome won the in-order argmax
    /// reduction (ties go to the lowest index, so this is invariant
    /// across worker counts).
    pub winner: usize,
    /// Workers the pool actually engaged (1 on the inline serial path).
    pub workers: usize,
    /// Restart chunks stolen across workers (0 on serial runs).
    pub chunks_stolen: u64,
    /// Proposal steps the chains ran in total: `restarts × iterations`
    /// unless chains stopped at the proven optimum. A function of the
    /// inputs, like `winner`.
    pub steps: u64,
}

/// Per-worker scratch for the pooled restart chains: one incremental
/// evaluator plus the proposal and repair buffers, allocated by the
/// first chain a worker runs and re-primed in place for every later
/// chain.
struct ChainScratch<'a> {
    delta: Option<DeltaFitness<'a>>,
    candidate: Vec<Assignment>,
    changed: Vec<usize>,
    used: Vec<u32>,
}

impl ChainScratch<'_> {
    fn new() -> Self {
        Self {
            delta: None,
            candidate: Vec::new(),
            changed: Vec::new(),
            used: Vec::new(),
        }
    }
}

impl SimulatedAnnealing {
    /// Creates the policy, validating parameters (default restart/thread
    /// counts).
    pub fn new(iterations: usize, initial_temp: f64, cooling: f64, seed: u64) -> Result<Self> {
        if iterations == 0 {
            return Err(RaError::BadParameter {
                name: "iterations",
                value: 0.0,
            });
        }
        if !(initial_temp > 0.0) {
            return Err(RaError::BadParameter {
                name: "initial_temp",
                value: initial_temp,
            });
        }
        if !(cooling > 0.0 && cooling < 1.0) {
            return Err(RaError::BadParameter {
                name: "cooling",
                value: cooling,
            });
        }
        Ok(Self {
            iterations,
            initial_temp,
            cooling,
            seed,
            ..Default::default()
        })
    }

    /// Lattice nodes the ceiling proof may visit: one per
    /// [`STEPS_PER_CEILING_NODE`] proposal steps of one chain.
    fn ceiling_budget(&self) -> u64 {
        self.iterations as u64 / STEPS_PER_CEILING_NODE
    }

    /// The exact maximum of [`OptionProbs::fitness`] over the feasible
    /// genomes, from a serial lattice solve within
    /// [`Self::ceiling_budget`] nodes; `+inf`, which no chain reaches,
    /// when the budget runs out first. The lattice maximizes the same
    /// product of the same engine probabilities over the same
    /// capacity-feasible option space, so SA's own fitness of its
    /// optimum is the maximum bit for bit — and exactly 0.0 when no
    /// allocation can meet the deadline, which the lattice's first phase
    /// proves without searching for the zero-probability optimum.
    /// `land` has already proven some genome feasible.
    fn ceiling(
        &self,
        land: &Landscape,
        engine: &Phi1Engine,
        platform: &Platform,
        deadline: f64,
    ) -> Result<f64> {
        Ok(
            match lattice::budgeted_optimum(engine, platform, deadline, self.ceiling_budget())? {
                Budgeted::Optimum(alloc) => land.fitness(alloc.assignments()),
                Budgeted::Zero => 0.0,
                Budgeted::Unproven => f64::INFINITY,
            },
        )
    }

    /// One annealing chain from `seed`, with the proposal steps it ran;
    /// `None` when no feasible start was found. The chain stops early
    /// once its best fitness reaches `ceiling`: the best genome only
    /// changes on a strictly greater fitness, which no feasible genome
    /// has, so the result is the one the full run would return. The
    /// state machine — RNG stream, proposal sequence, Metropolis
    /// branches — is untouched by the scratch reuse: the proposal buffer
    /// carries the same bytes a fresh clone would, and
    /// [`DeltaFitness::reset`] leaves the evaluator bit-identical to a
    /// fresh `new`.
    fn run_chain<'a>(
        &self,
        land: &'a Landscape,
        seed: u64,
        ceiling: f64,
        scratch: &mut ChainScratch<'a>,
    ) -> (Option<(Vec<Assignment>, f64)>, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = Vec::with_capacity(land.num_apps());
        let mut feasible = land.random_genome(&mut current, &mut rng, &mut scratch.used);
        // Ensure a feasible start even if repair gave up on a pathological
        // draw: retry a few times.
        for _ in 0..32 {
            if feasible {
                break;
            }
            feasible = land.random_genome(&mut current, &mut rng, &mut scratch.used);
        }
        if !feasible {
            return (None, 0);
        }
        // Incremental evaluator over the current genome: a proposal only
        // pays `O(changed)` probability lookups (the mutated gene plus any
        // genes touched by repair), and the exact product it reports is
        // bit-identical to a full recompute — so the Metropolis branch and
        // the RNG stream are unchanged from the legacy O(N)-lookup loop.
        if let Some(delta) = scratch.delta.as_mut() {
            delta.reset(&current);
        } else {
            scratch.delta = Some(DeltaFitness::new(&land.probs, &current));
        }
        let delta = scratch.delta.as_mut().expect("evaluator primed above");
        let mut current_fit = delta.fitness();
        let mut best = current.clone();
        let mut best_fit = current_fit;
        let mut temp = self.initial_temp;

        let mut steps = 0;
        while steps < self.iterations && best_fit < ceiling {
            steps += 1;
            let app = rng.gen_range(0..land.num_apps());
            let opt = land.options[app][rng.gen_range(0..land.options[app].len())];
            // The proposal reuses the scratch buffer (copy-in + swap on
            // accept) instead of cloning a fresh Vec per iteration.
            scratch.candidate.clear();
            scratch.candidate.extend_from_slice(&current);
            scratch.candidate[app] = opt;
            if !land.repair(&mut scratch.candidate, &mut rng, &mut scratch.used) {
                temp *= self.cooling;
                continue;
            }
            scratch.changed.clear();
            for (i, (new, old)) in scratch.candidate.iter().zip(&current).enumerate() {
                if new != old {
                    delta.set_gene(i, *new);
                    scratch.changed.push(i);
                }
            }
            let fit = delta.fitness();
            let accept = fit >= current_fit
                || rng.gen::<f64>() < ((fit - current_fit) / temp.max(1e-12)).exp();
            if accept {
                std::mem::swap(&mut current, &mut scratch.candidate);
                current_fit = fit;
                if fit > best_fit {
                    best.clear();
                    best.extend_from_slice(&current);
                    best_fit = fit;
                }
            } else {
                // Roll the evaluator back to `current` (pure lookups, so
                // the cached state is exactly as before the proposal).
                for &i in &scratch.changed {
                    delta.set_gene(i, current[i]);
                }
            }
            temp *= self.cooling;
        }
        (Some((best, best_fit)), steps as u64)
    }

    /// Pooled multi-start annealing: the `restarts` seeded chains run as
    /// independent tasks on the shared work-stealing pool
    /// ([`cdsf_system::pool::run`]), each worker reusing one
    /// [`DeltaFitness`] + proposal-buffer scratch across every chain it
    /// executes. Chain `c` writes its result into slot `c`; the reduction
    /// is an in-order argmax with strict `>` (ties keep the lowest chain
    /// index), so the winning allocation — and the reported winner index —
    /// is a function of the seeds alone, never of worker count or steal
    /// interleaving. Before the chains start, a budgeted lattice solve
    /// may prove the optimum's fitness; chains stop as soon as they reach
    /// it, which changes their cost but not their results.
    pub fn allocate_multi_start(
        &self,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<(Allocation, MultiStartReport)> {
        if self.restarts == 0 {
            return Err(RaError::BadParameter {
                name: "restarts",
                value: 0.0,
            });
        }
        if self.threads == 0 {
            return Err(RaError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        // One pre-assigned result slot per chain: (best genome, fitness).
        type ChainSlot = Mutex<Option<(Vec<Assignment>, f64)>>;
        let land = Landscape::from_engine(engine, platform, deadline)?;
        let ceiling = self.ceiling(&land, engine, platform, deadline)?;
        let slots: Vec<ChainSlot> = (0..self.restarts).map(|_| Mutex::new(None)).collect();
        let steps = AtomicU64::new(0);
        let land_ref = &land;
        let stats = cdsf_system::pool::run(
            self.threads,
            self.restarts,
            None,
            ChainScratch::new,
            |c, scratch| {
                let (out, ran) =
                    self.run_chain(land_ref, self.seed.wrapping_add(c as u64), ceiling, scratch);
                *slots[c].lock().expect("chain slot") = out;
                steps.fetch_add(ran, Ordering::Relaxed);
                Ok::<(), RaError>(())
            },
        )?;

        // Deterministic merge: best fitness, ties to the lowest chain index
        // (strict `>` keeps the earlier chain on equal fitness).
        let mut best: Option<(usize, Vec<Assignment>, f64)> = None;
        for (c, slot) in slots.into_iter().enumerate() {
            let Some((genome, fit)) = slot.into_inner().expect("chain slot") else {
                continue;
            };
            if best.as_ref().map_or(true, |(_, _, bf)| fit > *bf) {
                best = Some((c, genome, fit));
            }
        }
        match best {
            Some((winner, genome, _)) => Ok((
                Allocation::new(genome),
                MultiStartReport {
                    restarts: self.restarts,
                    winner,
                    workers: stats.workers,
                    chunks_stolen: stats.chunks_stolen.iter().map(|&c| c as u64).sum(),
                    steps: steps.into_inner(),
                },
            )),
            None => Err(RaError::NoFeasibleAllocation),
        }
    }
}

impl Allocator for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "SimulatedAnnealing"
    }

    fn allocate_with_engine(
        &self,
        _batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        self.allocate_multi_start(platform, engine, deadline)
            .map(|(alloc, _)| alloc)
    }
}

/// Genetic algorithm over the allocation space.
///
/// Tournament selection, one-point crossover, per-gene mutation, capacity
/// repair, elitism of one. Fitness sweeps over the population are pure
/// probability-table lookups, evaluated in parallel chunks stitched back
/// in population order — bit-identical for every thread count.
#[derive(Debug, Clone, Copy)]
pub struct GeneticAlgorithm {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for selection.
    pub tournament: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the fitness sweeps. The engine is built by the
    /// caller, or by [`Allocator::allocate`] at the host width.
    pub threads: usize,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        Self {
            population: 64,
            generations: 200,
            mutation_rate: 0.05,
            tournament: 3,
            seed: 0xBEEF,
            threads: cdsf_system::default_threads(),
        }
    }
}

impl GeneticAlgorithm {
    /// Creates the policy, validating parameters (default thread count).
    pub fn new(
        population: usize,
        generations: usize,
        mutation_rate: f64,
        tournament: usize,
        seed: u64,
    ) -> Result<Self> {
        if population < 2 {
            return Err(RaError::BadParameter {
                name: "population",
                value: population as f64,
            });
        }
        if generations == 0 {
            return Err(RaError::BadParameter {
                name: "generations",
                value: 0.0,
            });
        }
        if !(0.0..=1.0).contains(&mutation_rate) {
            return Err(RaError::BadParameter {
                name: "mutation_rate",
                value: mutation_rate,
            });
        }
        if tournament == 0 || tournament > population {
            return Err(RaError::BadParameter {
                name: "tournament",
                value: tournament as f64,
            });
        }
        Ok(Self {
            population,
            generations,
            mutation_rate,
            tournament,
            seed,
            threads: cdsf_system::default_threads(),
        })
    }

    /// Population fitness sweep: parallel chunks, stitched in order.
    fn eval_fitness(&self, land: &Landscape, pop: &[Vec<Assignment>]) -> Vec<f64> {
        if self.threads <= 1 || pop.len() < 2 * self.threads {
            return pop.iter().map(|g| land.fitness(g)).collect();
        }
        let chunk = pop.len().div_ceil(self.threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.threads);
            for piece in pop.chunks(chunk) {
                let land = &*land;
                handles
                    .push(scope.spawn(move || {
                        piece.iter().map(|g| land.fitness(g)).collect::<Vec<f64>>()
                    }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("fitness worker panicked"))
                .collect()
        })
    }
}

impl Allocator for GeneticAlgorithm {
    fn name(&self) -> &'static str {
        "GeneticAlgorithm"
    }

    fn allocate_with_engine(
        &self,
        _batch: &Batch,
        platform: &Platform,
        engine: &Phi1Engine,
        deadline: f64,
    ) -> Result<Allocation> {
        if self.threads == 0 {
            return Err(RaError::BadParameter {
                name: "threads",
                value: 0.0,
            });
        }
        let land = Landscape::from_engine(engine, platform, deadline)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut used = Vec::new();
        let n = land.num_apps();

        let mut pop: Vec<Vec<Assignment>> = (0..self.population)
            .map(|_| {
                let mut genome = Vec::with_capacity(n);
                land.random_genome(&mut genome, &mut rng, &mut used);
                genome
            })
            .collect();
        let mut fits: Vec<f64> = self.eval_fitness(&land, &pop);

        for _ in 0..self.generations {
            // Elitism: carry the best genome over unchanged.
            let elite_idx = fits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("population non-empty");
            let mut next = Vec::with_capacity(self.population);
            next.push(pop[elite_idx].clone());

            let tournament_pick = |rng: &mut StdRng, pop: &[Vec<Assignment>], fits: &[f64]| {
                let mut best: Option<usize> = None;
                for _ in 0..self.tournament {
                    let c = rng.gen_range(0..pop.len());
                    if best.map_or(true, |b| fits[c] > fits[b]) {
                        best = Some(c);
                    }
                }
                best.expect("tournament ≥ 1")
            };

            while next.len() < self.population {
                let a = tournament_pick(&mut rng, &pop, &fits);
                let b = tournament_pick(&mut rng, &pop, &fits);
                // One-point crossover.
                let cut = if n > 1 { rng.gen_range(1..n) } else { 0 };
                let mut child: Vec<Assignment> = pop[a][..cut]
                    .iter()
                    .chain(&pop[b][cut..])
                    .copied()
                    .collect();
                // Mutation.
                for (i, gene) in child.iter_mut().enumerate() {
                    if rng.gen::<f64>() < self.mutation_rate {
                        *gene = land.options[i][rng.gen_range(0..land.options[i].len())];
                    }
                }
                if land.repair(&mut child, &mut rng, &mut used) {
                    next.push(child);
                }
            }
            pop = next;
            fits = self.eval_fitness(&land, &pop);
        }

        let best_idx = fits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("population non-empty");
        if fits[best_idx] <= 0.0 && !land.is_feasible(&pop[best_idx]) {
            return Err(RaError::NoFeasibleAllocation);
        }
        Ok(Allocation::new(pop[best_idx].clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::testutil::*;
    use crate::robustness::evaluate;
    use cdsf_system::ProcTypeId;
    use cdsf_workloads::generators::{BatchGenerator, PlatformGenerator, Range};
    use proptest::prelude::*;

    /// The chain loop before the certified early exit: allocating repair
    /// and feasibility check, a full fitness recompute per proposal, and
    /// every chain run for all of its `iterations`. Every result of
    /// [`SimulatedAnnealing::allocate_multi_start`] must match it.
    mod reference {
        use super::*;

        fn is_feasible(land: &Landscape, genome: &[Assignment]) -> bool {
            let mut used = vec![0u32; land.capacities.len()];
            for asg in genome {
                used[asg.proc_type.0] += asg.procs;
            }
            used.iter().zip(&land.capacities).all(|(u, c)| u <= c)
        }

        fn repair(land: &Landscape, genome: &mut [Assignment], rng: &mut StdRng) {
            loop {
                let mut used = vec![0u32; land.capacities.len()];
                for asg in genome.iter() {
                    used[asg.proc_type.0] += asg.procs;
                }
                let Some(over) = (0..used.len()).find(|&j| used[j] > land.capacities[j]) else {
                    return;
                };
                let (victim, _) = genome
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.proc_type.0 == over)
                    .max_by_key(|(_, a)| a.procs)
                    .unwrap();
                if genome[victim].procs > 1 {
                    genome[victim].procs /= 2;
                } else {
                    let alts: Vec<Assignment> = land.options[victim]
                        .iter()
                        .copied()
                        .filter(|a| a.proc_type.0 != over && a.procs == 1)
                        .collect();
                    if alts.is_empty() {
                        return;
                    }
                    genome[victim] = alts[rng.gen_range(0..alts.len())];
                }
            }
        }

        fn random_genome(land: &Landscape, rng: &mut StdRng) -> Vec<Assignment> {
            let mut g: Vec<Assignment> = land
                .options
                .iter()
                .map(|opts| opts[rng.gen_range(0..opts.len())])
                .collect();
            repair(land, &mut g, rng);
            g
        }

        fn run_chain(
            sa: &SimulatedAnnealing,
            land: &Landscape,
            seed: u64,
        ) -> Option<(Vec<Assignment>, f64)> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut current = random_genome(land, &mut rng);
            for _ in 0..32 {
                if is_feasible(land, &current) {
                    break;
                }
                current = random_genome(land, &mut rng);
            }
            if !is_feasible(land, &current) {
                return None;
            }
            let mut current_fit = land.fitness(&current);
            let mut best = current.clone();
            let mut best_fit = current_fit;
            let mut temp = sa.initial_temp;
            for _ in 0..sa.iterations {
                let app = rng.gen_range(0..land.num_apps());
                let mut candidate = current.clone();
                candidate[app] = land.options[app][rng.gen_range(0..land.options[app].len())];
                repair(land, &mut candidate, &mut rng);
                if !is_feasible(land, &candidate) {
                    temp *= sa.cooling;
                    continue;
                }
                let fit = land.fitness(&candidate);
                let accept = fit >= current_fit
                    || rng.gen::<f64>() < ((fit - current_fit) / temp.max(1e-12)).exp();
                if accept {
                    current = candidate;
                    current_fit = fit;
                    if fit > best_fit {
                        best = current.clone();
                        best_fit = fit;
                    }
                }
                temp *= sa.cooling;
            }
            Some((best, best_fit))
        }

        /// Every chain in turn, merged by the strict-`>` in-order argmax:
        /// the winning chain and its allocation.
        pub(super) fn multi_start(
            sa: &SimulatedAnnealing,
            land: &Landscape,
        ) -> Option<(usize, Allocation)> {
            let mut best: Option<(usize, Vec<Assignment>, f64)> = None;
            for c in 0..sa.restarts {
                let Some((genome, fit)) = run_chain(sa, land, sa.seed.wrapping_add(c as u64))
                else {
                    continue;
                };
                if best.as_ref().map_or(true, |(_, _, bf)| fit > *bf) {
                    best = Some((c, genome, fit));
                }
            }
            best.map(|(c, genome, _)| (c, Allocation::new(genome)))
        }
    }

    /// A random small instance — `apps` applications on `types` processor
    /// types of 1–6 processors each — with three deadlines: below every
    /// loaded completion time (every allocation has φ₁ = 0), inside their
    /// span at `frac`, and above all of them (every allocation has φ₁ = 1).
    fn small_instance(
        apps: usize,
        types: usize,
        seed: u64,
        frac: f64,
    ) -> (Phi1Engine, Platform, [f64; 3]) {
        let platform = PlatformGenerator {
            num_types: types,
            procs_per_type: (1, 6),
            availability_pulses: 2,
            availability_range: Range::new(0.3, 1.0).unwrap(),
        }
        .generate(seed)
        .unwrap();
        let batch = BatchGenerator {
            num_apps: apps,
            pulses: 4,
            ..BatchGenerator::default()
        }
        .generate(&platform, seed)
        .unwrap();
        let engine = Phi1Engine::build(&batch, &platform).unwrap();
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for app in 0..apps {
            for asg in engine.options(app) {
                let pmf = engine.loaded_pmf(app, asg.proc_type, asg.procs).unwrap();
                lo = lo.min(pmf.min_value());
                hi = hi.max(pmf.max_value());
            }
        }
        (
            engine,
            platform,
            [0.5 * lo, lo + frac * (hi - lo), 2.0 * hi],
        )
    }

    /// The maximum of SA's fitness over every capacity-feasible genome.
    fn brute_force_max(land: &Landscape) -> f64 {
        fn visit(land: &Landscape, genome: &mut Vec<Assignment>, free: &mut [u32], best: &mut f64) {
            let app = genome.len();
            if app == land.num_apps() {
                *best = best.max(land.fitness(genome));
                return;
            }
            for &asg in &land.options[app] {
                if free[asg.proc_type.0] < asg.procs {
                    continue;
                }
                free[asg.proc_type.0] -= asg.procs;
                genome.push(asg);
                visit(land, genome, free, best);
                genome.pop();
                free[asg.proc_type.0] += asg.procs;
            }
        }
        let mut best = f64::NEG_INFINITY;
        visit(
            land,
            &mut Vec::new(),
            &mut land.capacities.clone(),
            &mut best,
        );
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ceiling_is_the_exact_maximum(
            apps in 1usize..=6,
            types in 1usize..=3,
            seed in 0u64..1 << 32,
            frac in 0.05f64..0.95,
        ) {
            let (engine, platform, deadlines) = small_instance(apps, types, seed, frac);
            // A budget no small instance exhausts.
            let sa = SimulatedAnnealing {
                iterations: 1 << 40,
                ..SimulatedAnnealing::default()
            };
            for (k, deadline) in deadlines.into_iter().enumerate() {
                let land = match Landscape::from_engine(&engine, &platform, deadline) {
                    Ok(land) => land,
                    // More applications than processors; see
                    // `unpackable_inputs_return_promptly`.
                    Err(RaError::NoFeasibleAllocation) => return Ok(()),
                    Err(e) => return Err(TestCaseError::fail(e.to_string())),
                };
                let ceiling = sa.ceiling(&land, &engine, &platform, deadline).unwrap();
                let max = brute_force_max(&land);
                prop_assert_eq!(ceiling.to_bits(), max.to_bits(), "deadline {}: ceiling {} vs maximum {}", deadline, ceiling, max);
                // CDFs at the top of their support may round below 1.
                match k {
                    0 => prop_assert_eq!(ceiling, 0.0),
                    2 => prop_assert!(1.0 - ceiling < 1e-12, "ceiling {} at the slack deadline", ceiling),
                    _ => {}
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn multi_start_matches_the_reference_chains(
            apps in 1usize..=6,
            types in 1usize..=3,
            seed in 0u64..1 << 32,
            frac in 0.05f64..0.95,
            iterations in 8usize..=400,
        ) {
            // Budgets of 2–100 nodes: some ceilings are proven and
            // reached, some proven and never reached, some spent — and
            // none may change a result.
            let (engine, platform, deadlines) = small_instance(apps, types, seed, frac);
            for deadline in deadlines {
                let land = Landscape::from_engine(&engine, &platform, deadline);
                for restarts in [1, 4] {
                    let base = SimulatedAnnealing {
                        iterations,
                        restarts,
                        seed,
                        threads: 1,
                        ..SimulatedAnnealing::default()
                    };
                    let want = land.as_ref().ok().and_then(|l| reference::multi_start(&base, l));
                    for threads in [1, 2, 4, 7] {
                        let got = SimulatedAnnealing { threads, ..base }
                            .allocate_multi_start(&platform, &engine, deadline);
                        match (&want, got) {
                            (Some((winner, alloc)), Ok((a, report))) => {
                                prop_assert_eq!(&a, alloc, "allocation at {} workers", threads);
                                prop_assert_eq!(report.winner, *winner, "winner at {} workers", threads);
                            }
                            (None, Err(RaError::NoFeasibleAllocation)) => {}
                            (want, got) => {
                                return Err(TestCaseError::fail(format!("reference {want:?}, got {got:?}")));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn early_exit_engages_on_the_paper_instance() {
        let (b, p) = (paper_batch(64), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        let sa = SimulatedAnnealing {
            threads: 1,
            ..SimulatedAnnealing::default()
        };
        let (alloc, report) = sa.allocate_multi_start(&p, &engine, DEADLINE).unwrap();
        let full = (sa.restarts * sa.iterations) as u64;
        assert!(
            report.steps * 100 < full,
            "chains ran {} of {full} steps",
            report.steps
        );
        let land = Landscape::from_engine(&engine, &p, DEADLINE).unwrap();
        assert_eq!(
            reference::multi_start(&sa, &land),
            Some((report.winner, alloc))
        );
    }

    #[test]
    fn spent_budget_runs_every_step_with_the_same_result() {
        let (b, p) = (paper_batch(64), paper_platform());
        let engine = Phi1Engine::build(&b, &p).unwrap();
        // 12 steps buy 3 lattice nodes, too few to reach a leaf.
        let sa = SimulatedAnnealing {
            iterations: 12,
            threads: 1,
            ..SimulatedAnnealing::default()
        };
        let land = Landscape::from_engine(&engine, &p, DEADLINE).unwrap();
        assert_eq!(
            sa.ceiling(&land, &engine, &p, DEADLINE).unwrap(),
            f64::INFINITY
        );
        let (alloc, report) = sa.allocate_multi_start(&p, &engine, DEADLINE).unwrap();
        assert_eq!(report.steps, (sa.restarts * sa.iterations) as u64);
        assert_eq!(
            reference::multi_start(&sa, &land),
            Some((report.winner, alloc))
        );
    }

    #[test]
    fn unpackable_inputs_return_promptly() {
        // 64 applications on 41 processors of two types: the instance a
        // serve spec `{apps: 64, types: 2, pulses: 4, seed: 0}` expands to.
        let platform = PlatformGenerator {
            num_types: 2,
            ..PlatformGenerator::default()
        }
        .generate(0)
        .unwrap();
        assert_eq!(platform.total_processors(), 41);
        let batch = BatchGenerator {
            num_apps: 64,
            pulses: 4,
            ..BatchGenerator::default()
        }
        .generate(&platform, 0)
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sa = SimulatedAnnealing::default().allocate(&batch, &platform, DEADLINE);
            let ga = GeneticAlgorithm::default().allocate(&batch, &platform, DEADLINE);
            tx.send((sa, ga)).unwrap();
        });
        let (sa, ga) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("SA and GA must return on unpackable inputs");
        assert!(matches!(sa, Err(RaError::NoFeasibleAllocation)), "{sa:?}");
        assert!(matches!(ga, Err(RaError::NoFeasibleAllocation)), "{ga:?}");
    }

    #[test]
    fn packability_is_a_matching_not_a_processor_count() {
        let one = |t| Assignment {
            proc_type: ProcTypeId(t),
            procs: 1,
        };
        // Two apps confined to a one-processor type cannot both fit,
        // though the platform has three processors.
        let confined = [vec![one(0)], vec![one(0)], vec![one(0), one(1)]];
        assert!(!packable(&confined, &[1, 2]));
        // App 0 takes type 0 first and must move over for app 1.
        let reroute = [vec![one(0), one(1)], vec![one(0)]];
        assert!(packable(&reroute, &[1, 1]));
        assert!(packable(&[], &[1]));
    }

    #[test]
    fn annealing_finds_near_optimal_on_paper_example() {
        let (b, p) = (paper_batch(64), paper_platform());
        let opt = super::super::Exhaustive.allocate(&b, &p, DEADLINE).unwrap();
        let p_opt = evaluate(&b, &p, &opt, DEADLINE).unwrap().joint;
        let sa = SimulatedAnnealing::default()
            .allocate(&b, &p, DEADLINE)
            .unwrap();
        sa.validate(&b, &p).unwrap();
        let p_sa = evaluate(&b, &p, &sa, DEADLINE).unwrap().joint;
        assert!(p_sa >= 0.95 * p_opt, "SA {p_sa} vs optimum {p_opt}");
    }

    #[test]
    fn genetic_finds_near_optimal_on_paper_example() {
        let (b, p) = (paper_batch(64), paper_platform());
        let opt = super::super::Exhaustive.allocate(&b, &p, DEADLINE).unwrap();
        let p_opt = evaluate(&b, &p, &opt, DEADLINE).unwrap().joint;
        let ga = GeneticAlgorithm::default()
            .allocate(&b, &p, DEADLINE)
            .unwrap();
        ga.validate(&b, &p).unwrap();
        let p_ga = evaluate(&b, &p, &ga, DEADLINE).unwrap().joint;
        assert!(p_ga >= 0.95 * p_opt, "GA {p_ga} vs optimum {p_opt}");
    }

    #[test]
    fn metaheuristics_are_seed_deterministic() {
        let (b, p) = (paper_batch(16), paper_platform());
        let sa = SimulatedAnnealing {
            seed: 1,
            ..Default::default()
        };
        assert_eq!(
            sa.allocate(&b, &p, DEADLINE).unwrap(),
            sa.allocate(&b, &p, DEADLINE).unwrap()
        );
        let ga = GeneticAlgorithm {
            seed: 2,
            generations: 30,
            ..Default::default()
        };
        assert_eq!(
            ga.allocate(&b, &p, DEADLINE).unwrap(),
            ga.allocate(&b, &p, DEADLINE).unwrap()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (b, p) = (paper_batch(16), paper_platform());
        let serial = SimulatedAnnealing {
            threads: 1,
            iterations: 4_000,
            ..Default::default()
        };
        let parallel = SimulatedAnnealing {
            threads: 8,
            iterations: 4_000,
            ..Default::default()
        };
        assert_eq!(
            serial.allocate(&b, &p, DEADLINE).unwrap(),
            parallel.allocate(&b, &p, DEADLINE).unwrap()
        );
        let ga1 = GeneticAlgorithm {
            threads: 1,
            generations: 30,
            ..Default::default()
        };
        let ga8 = GeneticAlgorithm {
            threads: 8,
            generations: 30,
            ..Default::default()
        };
        assert_eq!(
            ga1.allocate(&b, &p, DEADLINE).unwrap(),
            ga8.allocate(&b, &p, DEADLINE).unwrap()
        );
    }

    #[test]
    fn single_restart_reproduces_chain_zero() {
        // Chain 0 is seeded with `seed` itself, so the multi-restart merge
        // can only ever improve on the single-chain result.
        let (b, p) = (paper_batch(16), paper_platform());
        let single = SimulatedAnnealing {
            restarts: 1,
            iterations: 4_000,
            ..Default::default()
        };
        let multi = SimulatedAnnealing {
            restarts: 4,
            iterations: 4_000,
            ..Default::default()
        };
        let p_single = evaluate(
            &b,
            &p,
            &single.allocate(&b, &p, DEADLINE).unwrap(),
            DEADLINE,
        )
        .unwrap()
        .joint;
        let p_multi = evaluate(&b, &p, &multi.allocate(&b, &p, DEADLINE).unwrap(), DEADLINE)
            .unwrap()
            .joint;
        assert!(
            p_multi >= p_single,
            "multi-restart {p_multi} < single {p_single}"
        );
    }

    #[test]
    fn parameter_validation() {
        assert!(SimulatedAnnealing::new(0, 0.1, 0.99, 0).is_err());
        assert!(SimulatedAnnealing::new(10, 0.0, 0.99, 0).is_err());
        assert!(SimulatedAnnealing::new(10, 0.1, 1.0, 0).is_err());
        assert!(GeneticAlgorithm::new(1, 10, 0.1, 1, 0).is_err());
        assert!(GeneticAlgorithm::new(8, 0, 0.1, 1, 0).is_err());
        assert!(GeneticAlgorithm::new(8, 10, 1.5, 1, 0).is_err());
        assert!(GeneticAlgorithm::new(8, 10, 0.1, 0, 0).is_err());
        assert!(GeneticAlgorithm::new(8, 10, 0.1, 9, 0).is_err());
        let (b, p) = (paper_batch(8), paper_platform());
        let sa = SimulatedAnnealing {
            restarts: 0,
            ..Default::default()
        };
        assert!(sa.allocate(&b, &p, DEADLINE).is_err());
        let ga = GeneticAlgorithm {
            threads: 0,
            ..Default::default()
        };
        assert!(ga.allocate(&b, &p, DEADLINE).is_err());
    }

    #[test]
    fn repair_makes_oversubscription_feasible() {
        let (b, p) = (paper_batch(8), paper_platform());
        let land = Landscape::build(&b, &p, DEADLINE).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Everything on type 1 with 4 procs: demand 12 > capacity 4.
        let mut genome = vec![
            Assignment {
                proc_type: cdsf_system::ProcTypeId(0),
                procs: 4
            };
            3
        ];
        assert!(land.repair(&mut genome, &mut rng, &mut Vec::new()));
        assert!(land.is_feasible(&genome), "{genome:?}");
    }
}
