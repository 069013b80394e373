//! The common interface of iterative-improvement partitioners.

use crate::balance::BalanceConstraint;
use crate::cancel::CancelToken;
use crate::error::PartitionError;
use crate::parallel::{self, MultiRunReport, ParallelPolicy};
use crate::partition::Bipartition;

/// Statistics of one improvement run (a sequence of passes from one
/// initial partition down to a local minimum).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ImproveStats {
    /// Number of passes executed (including the final non-improving one).
    pub passes: usize,
    /// Final cut cost.
    pub cut_cost: f64,
}

/// Result of one or more partitioning runs: the best partition found.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// The best partition found.
    pub partition: Bipartition,
    /// Its cut cost.
    pub cut_cost: f64,
    /// Total passes across all runs.
    pub total_passes: usize,
    /// Final cut cost of each individual run, in run order.
    pub run_cuts: Vec<f64>,
}

/// A one-shot global partitioner: builds a balanced bipartition directly
/// from global structure (spectra, placements, orderings, multilevel
/// clustering) instead of improving a random one.
pub trait GlobalPartitioner {
    /// Short display name, e.g. `"EIG1"`.
    fn name(&self) -> &str;

    /// Constructs a balance-feasible bipartition of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph.
    fn partition(
        &self,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
    ) -> Result<RunResult, PartitionError>;
}

/// An iterative-improvement 2-way partitioner (FM, LA, PROP, …).
///
/// Implementors provide [`improve`], which drives an existing partition to
/// a local minimum through passes; the provided harnesses add seeded
/// random initial partitions and multi-run (best-of-R) orchestration —
/// the experimental protocol of the paper (e.g. "PROP with 20 runs").
///
/// The trait requires [`Sync`] so the multi-run harness can fan
/// independent runs out over worker threads
/// ([`run_multi_parallel`]); partitioners are plain parameter structs, so
/// this costs implementors nothing.
///
/// [`improve`]: Partitioner::improve
/// [`run_multi_parallel`]: Partitioner::run_multi_parallel
pub trait Partitioner: Sync {
    /// Short display name, e.g. `"FM-bucket"` or `"PROP"`.
    fn name(&self) -> &str;

    /// Improves `partition` in place until a pass yields no positive gain,
    /// and returns pass statistics.
    ///
    /// Implementations must leave `partition` balance-feasible whenever it
    /// was feasible on entry.
    fn improve(
        &self,
        graph: &prop_netlist::Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats;

    /// How many threads one [`improve`](Partitioner::improve) call may
    /// keep busy: the width the recursive k-way driver may instead spend
    /// on running sibling subtrees concurrently
    /// ([`crate::kway`]). Engines without intra-run parallelism report 1
    /// (the default), which keeps the driver sequential.
    fn intra_width(&self) -> usize {
        1
    }

    /// Runs one improvement from a seeded random near-equal bisection.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph.
    fn run_seeded(
        &self,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
        seed: u64,
    ) -> Result<RunResult, PartitionError> {
        self.run_multi(graph, balance, 1, seed)
    }

    /// Runs `runs` independent improvements from seeded random initial
    /// partitions (seeds `base_seed, base_seed+1, …`) and returns the best.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
    /// [`PartitionError::InvalidConfig`] when `runs == 0`.
    fn run_multi(
        &self,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
        runs: usize,
        base_seed: u64,
    ) -> Result<RunResult, PartitionError> {
        self.run_multi_parallel(graph, balance, runs, base_seed, ParallelPolicy::Sequential)
    }

    /// Runs `runs` independent improvements like [`run_multi`], fanning
    /// them out over the worker threads `policy` resolves to. Each run
    /// keeps its sequential seed (`base_seed + r`) and the winner is the
    /// earliest run with the minimum cut, so the result — partition,
    /// cut, and per-run cut vector — is bit-identical to [`run_multi`]
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
    /// [`PartitionError::InvalidConfig`] when `runs == 0`.
    ///
    /// [`run_multi`]: Partitioner::run_multi
    fn run_multi_parallel(
        &self,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
        runs: usize,
        base_seed: u64,
        policy: ParallelPolicy,
    ) -> Result<RunResult, PartitionError> {
        parallel::run_multi_parallel(self, graph, balance, runs, base_seed, policy)
    }

    /// Like [`run_multi_parallel`], but under a cooperative cancellation
    /// token: tripping `token` (explicitly or by deadline) stops runs in
    /// flight at their next pass boundary and skips unstarted runs,
    /// returning the best feasible partition found so far. With a token
    /// that never trips the report's result is bit-identical to
    /// [`run_multi_parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
    /// [`PartitionError::InvalidConfig`] when `runs == 0`.
    ///
    /// [`run_multi_parallel`]: Partitioner::run_multi_parallel
    fn run_multi_cancellable(
        &self,
        graph: &prop_netlist::Hypergraph,
        balance: BalanceConstraint,
        runs: usize,
        base_seed: u64,
        policy: ParallelPolicy,
        token: &CancelToken,
    ) -> Result<MultiRunReport, PartitionError> {
        parallel::run_multi_cancellable(self, graph, balance, runs, base_seed, policy, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::CutState;
    use crate::partition::Side;
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
        let mut b = HypergraphBuilder::new(6);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [2, 3]).unwrap();
        b.add_net(1.0, [4, 5]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn multi_run_returns_best() {
        let g = graph();
        let balance = BalanceConstraint::bisection(6);
        let res = Identity.run_multi(&g, balance, 8, 0).unwrap();
        assert_eq!(res.run_cuts.len(), 8);
        assert_eq!(res.total_passes, 8);
        let min = res.run_cuts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(res.cut_cost, min);
        assert_eq!(
            res.cut_cost,
            CutState::new(&g, &res.partition).cut_cost()
        );
    }

    #[test]
    fn run_seeded_is_single_run() {
        let g = graph();
        let balance = BalanceConstraint::bisection(6);
        let res = Identity.run_seeded(&g, balance, 42).unwrap();
        assert_eq!(res.run_cuts.len(), 1);
        // Deterministic in the seed.
        let res2 = Identity.run_seeded(&g, balance, 42).unwrap();
        assert_eq!(res.partition, res2.partition);
    }

    #[test]
    fn errors_on_empty_graph_and_zero_runs() {
        let g = HypergraphBuilder::new(0).build().unwrap();
        let balance = BalanceConstraint::bisection(0);
        assert_eq!(
            Identity.run_seeded(&g, balance, 0),
            Err(PartitionError::EmptyGraph)
        );
        let g = graph();
        let balance = BalanceConstraint::bisection(6);
        assert!(matches!(
            Identity.run_multi(&g, balance, 0, 0),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Partitioner> = Box::new(Identity);
        assert_eq!(boxed.name(), "identity");
        let g = graph();
        let mut p = Bipartition::from_sides(vec![
            Side::A,
            Side::A,
            Side::A,
            Side::B,
            Side::B,
            Side::B,
        ]);
        let stats = boxed.improve(&g, &mut p, BalanceConstraint::bisection(6));
        assert_eq!(stats.passes, 1);
        assert_eq!(boxed.intra_width(), 1);
    }
}
