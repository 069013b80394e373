//! Deterministic parallel execution of best-of-R multi-start runs.
//!
//! The paper's experimental protocol is *best of R independent runs*
//! (FM100, FM40/20, LA-2/LA-3, PROP(20) in Tables 2–4). The runs share no
//! state — run `r` is fully determined by its seed `base_seed + r` — so
//! they parallelise perfectly at the run level without touching the
//! partitioning algorithm itself.
//!
//! Determinism is preserved by construction:
//!
//! * every run keeps the exact seed it would get sequentially
//!   (`base_seed.wrapping_add(r)`);
//! * per-run results land in a slot vector indexed by run id, never in
//!   completion order;
//! * the winner is the lowest `(cut, run_index)` pair — the same strict
//!   "first run with the minimum cut" rule the sequential loop applies.
//!
//! Consequently [`Partitioner::run_multi_parallel`] returns results
//! bit-identical to [`Partitioner::run_multi`] for every thread count.

use crate::balance::BalanceConstraint;
use crate::cancel::{self, CancelToken};
use crate::cut::CutState;
use crate::error::PartitionError;
use crate::partition::Bipartition;
use crate::partitioner::{Partitioner, RunResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a multi-start invocation may use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ParallelPolicy {
    /// One worker; runs execute in run-index order on the calling thread.
    #[default]
    Sequential,
    /// Exactly `n` workers (`0` is treated as `1`).
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl ParallelPolicy {
    /// The worker count this policy resolves to for `runs` runs: never 0,
    /// never more than `runs`.
    pub fn worker_count(self, runs: usize) -> usize {
        let raw = match self {
            ParallelPolicy::Sequential => 1,
            ParallelPolicy::Threads(n) => n.max(1),
            ParallelPolicy::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        raw.min(runs.max(1))
    }
}

thread_local! {
    /// Upper bound on the workers [`map_chunks_with`] may start from this
    /// thread; see [`IntraCap`].
    static INTRA_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// RAII cap on this thread's intra-run workers.
///
/// While the guard lives, [`map_chunks_with`] on this thread uses at
/// most `cap` workers whatever its policy says; dropping the guard
/// restores the previous cap. The cap changes only how wide the fixed
/// chunk grid is executed, never which algorithm a policy selects, so
/// results stay bit-identical. A driver that already keeps the cores
/// busy with independent work (the k-way driver's concurrent subtrees)
/// installs cap 1 so each V-cycle inside it runs on its own thread only.
/// Like the [`cancel`] slot it is per thread: a thread spawned under a
/// cap starts uncapped.
#[must_use = "the cap is lifted when the guard is dropped"]
pub struct IntraCap {
    previous: usize,
    /// Restores a thread-local slot, so it must drop on the same thread.
    _not_send: PhantomData<*const ()>,
}

impl IntraCap {
    /// Caps this thread's intra workers at `cap` (`0` is treated as `1`)
    /// until the returned guard drops.
    pub fn install(cap: usize) -> IntraCap {
        IntraCap {
            previous: INTRA_CAP.with(|c| c.replace(cap.max(1))),
            _not_send: PhantomData,
        }
    }

    /// The cap in force on this thread (`usize::MAX` when uncapped).
    pub fn current() -> usize {
        INTRA_CAP.with(Cell::get)
    }
}

impl Drop for IntraCap {
    fn drop(&mut self) {
        INTRA_CAP.with(|c| c.set(self.previous));
    }
}

/// Deterministic chunked map: the backbone of *intra-run* parallelism.
///
/// Splits `0..n` into fixed-size chunks of `chunk` items — the chunk
/// boundaries depend only on `n` and `chunk`, never on the worker count —
/// and evaluates `f(chunk_index, range)` for every chunk. Results land in
/// a slot vector indexed by chunk id (never completion order) and are
/// returned in chunk order, so the output is **bit-identical for every
/// thread policy**: parallel callers get exactly the sequential result.
///
/// Each worker builds one scratch value via `init` and threads it through
/// every chunk it claims, so per-item scratch arrays (score accumulators,
/// epoch marks) are allocated once per worker instead of once per chunk.
/// The scratch must not carry state *between* chunks that affects results
/// — chunk assignment to workers is scheduling-dependent.
///
/// The worker count is the policy's, bounded by this thread's
/// [`IntraCap`]. With one worker (or one chunk) everything runs on the
/// calling thread in chunk order with a single scratch, which also keeps
/// the thread-local [`cancel`] and [`prof`](crate::prof) slots visible.
pub fn map_chunks_with<S, T, F, I>(
    policy: ParallelPolicy,
    n: usize,
    chunk: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, std::ops::Range<usize>) -> T + Sync,
{
    let chunk = chunk.max(1);
    let chunks = n.div_ceil(chunk);
    let range_of = |c: usize| c * chunk..((c + 1) * chunk).min(n);
    let workers = policy.worker_count(chunks).min(IntraCap::current());
    if workers <= 1 {
        let mut scratch = init();
        return (0..chunks).map(|c| f(&mut scratch, c, range_of(c))).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = init();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks {
                        break;
                    }
                    let out = f(&mut scratch, c, range_of(c));
                    *slots[c].lock().expect("chunk slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("chunk slot poisoned")
                .expect("every chunk index was claimed by a worker")
        })
        .collect()
}

/// [`map_chunks_with`] without per-worker scratch.
pub fn map_chunks<T, F>(policy: ParallelPolicy, n: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    map_chunks_with(policy, n, chunk, || (), |(), c, range| f(c, range))
}

/// A complete multi-start work order: how many runs, from which base
/// seed, over how many threads.
///
/// ```
/// use prop_core::{BalanceConstraint, Prop, RunBudget};
/// use prop_netlist::generate::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generate(&GeneratorConfig::new(80, 90, 300).with_seed(5))?;
/// let balance = BalanceConstraint::bisection(graph.num_nodes());
/// let budget = RunBudget::new(4).with_seed(7).with_threads(2);
/// let best = budget.execute(&Prop::default(), &graph, balance)?;
/// assert_eq!(best.run_cuts.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunBudget {
    /// Number of independent runs (best-of-R).
    pub runs: usize,
    /// Seed of run 0; run `r` uses `base_seed + r`.
    pub base_seed: u64,
    /// Worker-thread policy.
    pub policy: ParallelPolicy,
}

impl RunBudget {
    /// A sequential budget of `runs` runs from seed 0.
    pub fn new(runs: usize) -> Self {
        RunBudget {
            runs,
            base_seed: 0,
            policy: ParallelPolicy::Sequential,
        }
    }

    /// Replaces the base seed.
    #[must_use]
    pub fn with_seed(self, base_seed: u64) -> Self {
        RunBudget { base_seed, ..self }
    }

    /// Replaces the thread policy with an explicit worker count.
    #[must_use]
    pub fn with_threads(self, threads: usize) -> Self {
        RunBudget {
            policy: ParallelPolicy::Threads(threads),
            ..self
        }
    }

    /// Replaces the thread policy.
    #[must_use]
    pub fn with_policy(self, policy: ParallelPolicy) -> Self {
        RunBudget { policy, ..self }
    }

    /// Runs the budget with `partitioner`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
    /// [`PartitionError::InvalidConfig`] when `runs == 0`.
    pub fn execute<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
    ) -> Result<RunResult, PartitionError> {
        run_multi_parallel(
            partitioner,
            graph,
            balance,
            self.runs,
            self.base_seed,
            self.policy,
        )
    }

    /// Runs the budget under a cancellation token; see
    /// [`Partitioner::run_multi_cancellable`].
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
    /// [`PartitionError::InvalidConfig`] when `runs == 0`.
    pub fn execute_cancellable<P: Partitioner + ?Sized>(
        &self,
        partitioner: &P,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
        token: &CancelToken,
    ) -> Result<MultiRunReport, PartitionError> {
        run_multi_cancellable(
            partitioner,
            graph,
            balance,
            self.runs,
            self.base_seed,
            self.policy,
            token,
        )
    }
}

/// How a cancellable multi-start invocation terminated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Every requested run finished; the result is bit-identical to the
    /// uncancellable harness.
    Completed,
    /// The token tripped: runs in flight stopped at their next pass
    /// boundary, unstarted runs were skipped. The result is the best
    /// feasible partition found up to that point.
    Cancelled,
}

/// Result of a cancellable multi-start invocation.
#[derive(Clone, PartialEq, Debug)]
pub struct MultiRunReport {
    /// The best partition found (over finished and partially-finished
    /// runs). Always balance-feasible when the initial partitions were.
    pub result: RunResult,
    /// Whether the invocation ran to completion or was cut short.
    pub status: RunStatus,
    /// How many runs began executing (each contributes one entry to
    /// `result.run_cuts`, even if it was stopped early). `0` only when
    /// the token was tripped before any run started, in which case the
    /// report carries run 0's seeded initial partition unimproved.
    pub started_runs: usize,
}

/// One finished run, parked in its slot until every run completes.
struct RunOutcome {
    partition: Bipartition,
    cut: f64,
    passes: usize,
}

fn execute_run<P: Partitioner + ?Sized>(
    partitioner: &P,
    graph: &prop_netlist::Hypergraph,
    balance: BalanceConstraint,
    base_seed: u64,
    run_index: usize,
) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(run_index as u64));
    let mut partition = Bipartition::random(graph.num_nodes(), &mut rng);
    let stats = partitioner.improve(graph, &mut partition, balance);
    // Re-derive the cost from scratch so multi-run comparison never
    // trusts incremental bookkeeping.
    let cut = CutState::new(graph, &partition).cut_cost();
    RunOutcome {
        partition,
        cut,
        passes: stats.passes,
    }
}

/// The shared implementation behind [`Partitioner::run_multi`] and
/// [`Partitioner::run_multi_parallel`].
///
/// # Errors
///
/// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
/// [`PartitionError::InvalidConfig`] when `runs == 0`.
pub(crate) fn run_multi_parallel<P: Partitioner + ?Sized>(
    partitioner: &P,
    graph: &prop_netlist::Hypergraph,
    balance: BalanceConstraint,
    runs: usize,
    base_seed: u64,
    policy: ParallelPolicy,
) -> Result<RunResult, PartitionError> {
    if graph.num_nodes() == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    if runs == 0 {
        return Err(PartitionError::InvalidConfig {
            message: "runs must be at least 1".into(),
        });
    }

    let workers = policy.worker_count(runs);
    let outcomes: Vec<RunOutcome> = if workers <= 1 {
        (0..runs)
            .map(|r| execute_run(partitioner, graph, balance, base_seed, r))
            .collect()
    } else {
        // Slot vector indexed by run id: results are stored by identity,
        // never by completion order, so thread scheduling cannot leak
        // into the output.
        let slots: Vec<Mutex<Option<RunOutcome>>> =
            (0..runs).map(|_| Mutex::new(None)).collect();
        let next_run = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let r = next_run.fetch_add(1, Ordering::Relaxed);
                    if r >= runs {
                        break;
                    }
                    let outcome = execute_run(partitioner, graph, balance, base_seed, r);
                    *slots[r].lock().expect("run slot poisoned") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("run slot poisoned")
                    .expect("every run index was claimed by a worker")
            })
            .collect()
    };

    // Winner: lowest cut, earliest run index on ties — exactly the
    // sequential loop's strict-improvement rule.
    let mut total_passes = 0;
    let mut run_cuts = Vec::with_capacity(runs);
    let mut best_index = 0;
    for (r, outcome) in outcomes.iter().enumerate() {
        total_passes += outcome.passes;
        run_cuts.push(outcome.cut);
        if outcome.cut < outcomes[best_index].cut {
            best_index = r;
        }
    }
    let best = outcomes
        .into_iter()
        .nth(best_index)
        .expect("best_index is in range");
    Ok(RunResult {
        partition: best.partition,
        cut_cost: best.cut,
        total_passes,
        run_cuts,
    })
}

/// The shared implementation behind [`Partitioner::run_multi_cancellable`].
///
/// Workers poll the token before claiming each run, and each run executes
/// with the token installed in the thread-local [`cancel`] slot so the
/// engine's pass loop can stop at a pass boundary. Because claims go
/// through one atomic counter, the set of started runs is always the
/// prefix `0..started`, and every started run parks an outcome in its
/// slot — so `run_cuts` is a prefix of the sequential trajectory.
///
/// With a token that never trips this is bit-identical to
/// [`run_multi_parallel`]: the polls change no control flow and each run
/// keeps its sequential seed and slot.
///
/// # Errors
///
/// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
/// [`PartitionError::InvalidConfig`] when `runs == 0`.
pub(crate) fn run_multi_cancellable<P: Partitioner + ?Sized>(
    partitioner: &P,
    graph: &prop_netlist::Hypergraph,
    balance: BalanceConstraint,
    runs: usize,
    base_seed: u64,
    policy: ParallelPolicy,
    token: &CancelToken,
) -> Result<MultiRunReport, PartitionError> {
    if graph.num_nodes() == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    if runs == 0 {
        return Err(PartitionError::InvalidConfig {
            message: "runs must be at least 1".into(),
        });
    }

    let workers = policy.worker_count(runs);
    let outcomes: Vec<RunOutcome> = if workers <= 1 {
        let mut outcomes = Vec::with_capacity(runs);
        for r in 0..runs {
            if token.is_cancelled() {
                break;
            }
            outcomes.push(cancel::scope(token, || {
                execute_run(partitioner, graph, balance, base_seed, r)
            }));
        }
        outcomes
    } else {
        let slots: Vec<Mutex<Option<RunOutcome>>> =
            (0..runs).map(|_| Mutex::new(None)).collect();
        let next_run = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if token.is_cancelled() {
                        break;
                    }
                    let r = next_run.fetch_add(1, Ordering::Relaxed);
                    if r >= runs {
                        break;
                    }
                    let outcome = cancel::scope(token, || {
                        execute_run(partitioner, graph, balance, base_seed, r)
                    });
                    *slots[r].lock().expect("run slot poisoned") = Some(outcome);
                });
            }
        });
        // Claims are a contiguous prefix (one atomic counter), and every
        // claimed run parks an outcome before its worker moves on.
        slots
            .into_iter()
            .map_while(|slot| slot.into_inner().expect("run slot poisoned"))
            .collect()
    };

    let started_runs = outcomes.len();
    let outcomes = if outcomes.is_empty() {
        // Tripped before any run began: fall back to run 0's seeded
        // initial partition so the report still carries a feasible
        // partition with an honestly recounted cut.
        let mut rng = StdRng::seed_from_u64(base_seed);
        let partition = Bipartition::random(graph.num_nodes(), &mut rng);
        let cut = CutState::new(graph, &partition).cut_cost();
        vec![RunOutcome {
            partition,
            cut,
            passes: 0,
        }]
    } else {
        outcomes
    };

    let mut total_passes = 0;
    let mut run_cuts = Vec::with_capacity(outcomes.len());
    let mut best_index = 0;
    for (r, outcome) in outcomes.iter().enumerate() {
        total_passes += outcome.passes;
        run_cuts.push(outcome.cut);
        if outcome.cut < outcomes[best_index].cut {
            best_index = r;
        }
    }
    let best = outcomes
        .into_iter()
        .nth(best_index)
        .expect("best_index is in range");
    Ok(MultiRunReport {
        result: RunResult {
            partition: best.partition,
            cut_cost: best.cut,
            total_passes,
            run_cuts,
        },
        status: if token.is_cancelled() {
            RunStatus::Cancelled
        } else {
            RunStatus::Completed
        },
        started_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Side;
    use crate::partitioner::ImproveStats;
    use prop_netlist::{Hypergraph, HypergraphBuilder};

    /// A do-nothing partitioner: improvement keeps the initial partition.
    struct Identity;

    impl Partitioner for Identity {
        fn name(&self) -> &str {
            "identity"
        }

        fn improve(
            &self,
            graph: &Hypergraph,
            partition: &mut Bipartition,
            _balance: BalanceConstraint,
        ) -> ImproveStats {
            ImproveStats {
                passes: 1,
                cut_cost: CutState::new(graph, partition).cut_cost(),
            }
        }
    }

    fn graph() -> Hypergraph {
        let mut b = HypergraphBuilder::new(8);
        for i in 0..7 {
            b.add_net(1.0, [i, i + 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn map_chunks_is_policy_independent() {
        let n = 1003;
        let expected: Vec<Vec<usize>> = map_chunks(ParallelPolicy::Sequential, n, 64, |c, r| {
            r.map(|i| i * 2 + c).collect()
        });
        for policy in [
            ParallelPolicy::Threads(1),
            ParallelPolicy::Threads(2),
            ParallelPolicy::Threads(4),
            ParallelPolicy::Auto,
        ] {
            let got: Vec<Vec<usize>> =
                map_chunks(policy, n, 64, |c, r| r.map(|i| i * 2 + c).collect());
            assert_eq!(got, expected, "{policy:?}");
        }
        // Every index is covered exactly once, in order.
        let flat: Vec<usize> = expected.into_iter().flatten().collect();
        assert_eq!(flat.len(), n);
        assert!(flat.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn map_chunks_handles_edge_sizes() {
        // Empty domain → no chunks.
        let empty: Vec<usize> = map_chunks(ParallelPolicy::Threads(4), 0, 8, |c, _| c);
        assert!(empty.is_empty());
        // chunk = 0 is treated as 1.
        let ones: Vec<usize> = map_chunks(ParallelPolicy::Threads(2), 3, 0, |_, r| r.len());
        assert_eq!(ones, vec![1, 1, 1]);
        // chunk larger than n → a single chunk.
        let one: Vec<usize> = map_chunks(ParallelPolicy::Threads(8), 5, 100, |_, r| r.len());
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn map_chunks_with_reuses_worker_scratch() {
        // Scratch is per worker: sequentially, one scratch sees every
        // chunk. The per-chunk *result* must not depend on that reuse —
        // here it doesn't (the scratch is reset per chunk) — and the
        // parallel output matches.
        let seq: Vec<u64> = map_chunks_with(
            ParallelPolicy::Sequential,
            100,
            7,
            Vec::<u64>::new,
            |scratch, _, r| {
                scratch.clear();
                scratch.extend(r.map(|i| i as u64));
                scratch.iter().sum()
            },
        );
        let par: Vec<u64> = map_chunks_with(
            ParallelPolicy::Threads(3),
            100,
            7,
            Vec::<u64>::new,
            |scratch, _, r| {
                scratch.clear();
                scratch.extend(r.map(|i| i as u64));
                scratch.iter().sum()
            },
        );
        assert_eq!(seq, par);
        assert_eq!(seq.iter().sum::<u64>(), (0..100u64).sum());
    }

    #[test]
    fn intra_cap_bounds_workers_and_restores() {
        assert_eq!(IntraCap::current(), usize::MAX);
        let threads_seen = |policy| {
            map_chunks(policy, 64, 1, |_, _| std::thread::current().id())
                .into_iter()
                .collect::<std::collections::HashSet<_>>()
        };
        let me = std::thread::current().id();
        {
            let _outer = IntraCap::install(3);
            {
                let _inner = IntraCap::install(0);
                assert_eq!(IntraCap::current(), 1);
                // Capped at one worker: every chunk runs on this thread.
                assert_eq!(
                    threads_seen(ParallelPolicy::Threads(4)),
                    [me].into_iter().collect()
                );
            }
            assert_eq!(IntraCap::current(), 3);
            // A spawned thread starts uncapped.
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(IntraCap::current(), usize::MAX));
            });
        }
        assert_eq!(IntraCap::current(), usize::MAX);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(ParallelPolicy::Sequential.worker_count(16), 1);
        assert_eq!(ParallelPolicy::Threads(4).worker_count(16), 4);
        assert_eq!(ParallelPolicy::Threads(0).worker_count(16), 1);
        // Never more workers than runs.
        assert_eq!(ParallelPolicy::Threads(64).worker_count(3), 3);
        assert!(ParallelPolicy::Auto.worker_count(1024) >= 1);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let sequential = Identity.run_multi(&g, balance, 12, 99).unwrap();
        for threads in [2, 3, 8, 32] {
            let parallel = Identity
                .run_multi_parallel(&g, balance, 12, 99, ParallelPolicy::Threads(threads))
                .unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        let auto = Identity
            .run_multi_parallel(&g, balance, 12, 99, ParallelPolicy::Auto)
            .unwrap();
        assert_eq!(sequential, auto);
    }

    #[test]
    fn budget_builder_roundtrip() {
        let budget = RunBudget::new(6).with_seed(42).with_threads(3);
        assert_eq!(budget.runs, 6);
        assert_eq!(budget.base_seed, 42);
        assert_eq!(budget.policy, ParallelPolicy::Threads(3));
        let auto = budget.with_policy(ParallelPolicy::Auto);
        assert_eq!(auto.policy, ParallelPolicy::Auto);

        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let via_budget = budget.execute(&Identity, &g, balance).unwrap();
        let direct = Identity.run_multi(&g, balance, 6, 42).unwrap();
        assert_eq!(via_budget, direct);
    }

    #[test]
    fn parallel_validates_inputs() {
        let empty = HypergraphBuilder::new(0).build().unwrap();
        let balance = BalanceConstraint::bisection(0);
        assert_eq!(
            Identity.run_multi_parallel(&empty, balance, 4, 0, ParallelPolicy::Auto),
            Err(PartitionError::EmptyGraph)
        );
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        assert!(matches!(
            Identity.run_multi_parallel(&g, balance, 0, 0, ParallelPolicy::Auto),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn winner_ties_break_by_run_index() {
        // Identity keeps the seeded random partition, so equal-cut runs
        // are possible; the winner must be the earliest minimal run.
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let result = Identity
            .run_multi_parallel(&g, balance, 16, 5, ParallelPolicy::Threads(4))
            .unwrap();
        let min = result
            .run_cuts
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.cut_cost, min);
        let first_min = result.run_cuts.iter().position(|&c| c == min).unwrap();
        // Reconstruct the winning run's partition from its seed.
        let mut rng = StdRng::seed_from_u64(5u64.wrapping_add(first_min as u64));
        let expected = Bipartition::random(8, &mut rng);
        assert_eq!(result.partition, expected);
        assert_eq!(result.partition.count(Side::A), 4);
    }

    #[test]
    fn untripped_token_is_bit_identical() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let plain = Identity.run_multi(&g, balance, 12, 99).unwrap();
        for policy in [
            ParallelPolicy::Sequential,
            ParallelPolicy::Threads(3),
            ParallelPolicy::Auto,
        ] {
            let token = CancelToken::new();
            let report = Identity
                .run_multi_cancellable(&g, balance, 12, 99, policy, &token)
                .unwrap();
            assert_eq!(report.result, plain, "{policy:?}");
            assert_eq!(report.status, RunStatus::Completed);
            assert_eq!(report.started_runs, 12);
        }
    }

    #[test]
    fn pre_tripped_token_yields_seeded_initial_partition() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let token = CancelToken::new();
        token.cancel();
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads(4)] {
            let report = Identity
                .run_multi_cancellable(&g, balance, 6, 42, policy, &token)
                .unwrap();
            assert_eq!(report.status, RunStatus::Cancelled);
            assert_eq!(report.started_runs, 0);
            assert_eq!(report.result.run_cuts.len(), 1);
            assert_eq!(report.result.total_passes, 0);
            // Exactly run 0's seeded initial partition, honestly recounted.
            let mut rng = StdRng::seed_from_u64(42);
            let expected = Bipartition::random(8, &mut rng);
            assert_eq!(report.result.partition, expected);
            assert_eq!(
                report.result.cut_cost,
                CutState::new(&g, &expected).cut_cost()
            );
            assert!(report.result.partition.is_balanced(balance));
        }
    }

    #[test]
    fn cancellable_validates_inputs() {
        let token = CancelToken::new();
        let empty = HypergraphBuilder::new(0).build().unwrap();
        assert_eq!(
            Identity.run_multi_cancellable(
                &empty,
                BalanceConstraint::bisection(0),
                4,
                0,
                ParallelPolicy::Auto,
                &token
            ),
            Err(PartitionError::EmptyGraph)
        );
        let g = graph();
        assert!(matches!(
            Identity.run_multi_cancellable(
                &g,
                BalanceConstraint::bisection(8),
                0,
                0,
                ParallelPolicy::Auto,
                &token
            ),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn budget_executes_cancellable() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let budget = RunBudget::new(5).with_seed(3).with_threads(2);
        let token = CancelToken::new();
        let report = budget
            .execute_cancellable(&Identity, &g, balance, &token)
            .unwrap();
        assert_eq!(report.result, budget.execute(&Identity, &g, balance).unwrap());
        assert_eq!(report.status, RunStatus::Completed);
    }

    #[test]
    fn trait_object_can_run_parallel() {
        let boxed: Box<dyn Partitioner> = Box::new(Identity);
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let result = boxed
            .run_multi_parallel(&g, balance, 4, 1, ParallelPolicy::Threads(2))
            .unwrap();
        assert_eq!(result.run_cuts.len(), 4);
    }
}
