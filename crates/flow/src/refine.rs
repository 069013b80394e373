//! The corridor-flow refinement pass: grow → expand → max-flow → accept.
//!
//! Each round grows a corridor around the current cut, solves the
//! corridor's min-cut exactly via max-flow on the Lawler expansion, and
//! adopts the induced bipartition iff it is balance-feasible and
//! *strictly* improves the from-scratch recounted cut. Among the two
//! extreme minimum cuts of the min-cut lattice (smallest and largest
//! source side) it prefers the most balanced one; monotone strict
//! improvement bounds the rounds, and an explicit round cap bounds the
//! cost when the corridor oscillates without converging.

use crate::corridor::grow_corridor;
use crate::lawler::CorridorNetwork;
use prop_core::{prof, BalanceConstraint, Bipartition, CutState, Side, SideWeights};
use prop_netlist::Hypergraph;

/// Hard cap on grow→flow→accept rounds per pass. Each accepted round
/// strictly lowers the cut, so this only trims pathological corridors
/// that keep finding 1-net improvements on huge boundaries.
const MAX_ROUNDS: usize = 8;

/// Tuning knobs of the flow refinement pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowConfig {
    /// Master switch; `false` leaves the host engine byte-identical.
    pub enabled: bool,
    /// Cap on corridor nodes admitted per side (the balance slack may
    /// bind earlier).
    pub corridor_nodes: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            enabled: false,
            corridor_nodes: 3000,
        }
    }
}

/// What a [`refine`] pass did, for profiling and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowPassStats {
    /// Corridors grown (= min-cut rounds attempted).
    pub corridors: u64,
    /// Augmenting paths pushed across all rounds.
    pub augments: u64,
    /// Rounds whose induced bipartition was accepted.
    pub accepted: u64,
    /// Cut cost of the partition when the pass returned (recounted).
    pub cut_cost: f64,
    /// Whether the pass stopped on a cancellation request. The incoming
    /// partition is left untouched by the interrupted round.
    pub cancelled: bool,
}

/// Runs corridor-flow rounds on `partition` until no strict improvement
/// is found, the round cap trips, or cancellation is requested.
///
/// The incoming partition is assumed feasible; every accepted candidate
/// is re-verified feasible and strictly better under a from-scratch cut
/// recount, so the pass can only improve the partition. The kernel's
/// min-cut certificate is checked on every round (panics on violation —
/// a wrong max-flow answer is a bug, not a quality regression).
pub fn refine(
    graph: &Hypergraph,
    partition: &mut Bipartition,
    balance: BalanceConstraint,
    config: &FlowConfig,
) -> FlowPassStats {
    let mut stats = FlowPassStats {
        cut_cost: CutState::new(graph, partition).cut_cost(),
        ..FlowPassStats::default()
    };
    if !config.enabled {
        return stats;
    }
    for _ in 0..MAX_ROUNDS {
        let cut = CutState::new(graph, partition);
        if cut.cut_nets() == 0 {
            break;
        }
        let Some(corridor) = grow_corridor(graph, partition, &cut, balance, config.corridor_nodes)
        else {
            break;
        };
        stats.corridors += 1;
        let mut built = CorridorNetwork::build(graph, partition.sides(), &cut, &corridor);
        if built.free_nets == 0 {
            prof::count_flow_round(0, false);
            break;
        }
        let mut network = std::mem::take(&mut built.network);
        let Some(flow) = network.max_flow(built.source, built.sink) else {
            stats.cancelled = true;
            break;
        };
        stats.augments += flow.augments;
        // Self-verify the kernel before trusting its cut.
        let small = network.min_cut_source_side(built.source);
        network
            .check_min_cut(built.source, built.sink, flow.value, &small)
            .expect("max-flow certificate violated on the source-side cut");
        let large = network.min_cut_sink_side_complement(built.sink);
        network
            .check_min_cut(built.source, built.sink, flow.value, &large)
            .expect("max-flow certificate violated on the sink-side cut");

        // Evaluate both extreme min cuts; among feasible strict
        // improvers take (cut, imbalance, candidate order) — the
        // most-balanced-cut tie-break.
        let mut best: Option<(f64, f64, Bipartition)> = None;
        for side_vec in [&small, &large] {
            let assigned = built.corridor_sides(side_vec);
            let mut sides = partition.sides().to_vec();
            for (i, &node) in corridor.nodes.iter().enumerate() {
                sides[node.index()] = assigned[i];
            }
            let candidate = Bipartition::from_sides(sides);
            let cand_cut = CutState::new(graph, &candidate).cut_cost();
            if cand_cut >= stats.cut_cost {
                continue;
            }
            let weights = SideWeights::new(graph, &candidate);
            let counts = [candidate.count(Side::A), candidate.count(Side::B)];
            let w = [weights.get(Side::A), weights.get(Side::B)];
            if !balance.is_feasible(counts, w) {
                continue;
            }
            let imbalance = if balance.is_weighted() {
                (w[0] - w[1]).abs()
            } else {
                (counts[0] as f64 - counts[1] as f64).abs()
            };
            let better = match &best {
                None => true,
                Some((bc, bi, _)) => {
                    cand_cut < *bc || (cand_cut == *bc && imbalance < *bi)
                }
            };
            if better {
                best = Some((cand_cut, imbalance, candidate));
            }
        }
        match best {
            Some((cand_cut, _, candidate)) => {
                *partition = candidate;
                stats.cut_cost = cand_cut;
                stats.accepted += 1;
                prof::count_flow_round(flow.augments, true);
            }
            None => {
                prof::count_flow_round(flow.augments, false);
                break;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::{cancel, cut_cost, CancelToken};
    use prop_netlist::HypergraphBuilder;

    /// Two 3-cliques bridged by one net, node 2 misplaced: cut 2 → 1.
    fn bridged_triangles() -> (Hypergraph, Bipartition) {
        let mut b = HypergraphBuilder::new(6);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [1, 2]).unwrap();
        b.add_net(1.0, [0, 2]).unwrap();
        b.add_net(1.0, [2, 3]).unwrap();
        b.add_net(1.0, [3, 4]).unwrap();
        b.add_net(1.0, [4, 5]).unwrap();
        b.add_net(1.0, [3, 5]).unwrap();
        let g = b.build().unwrap();
        let p = Bipartition::from_sides(vec![
            Side::A,
            Side::A,
            Side::B,
            Side::B,
            Side::B,
            Side::B,
        ]);
        (g, p)
    }

    #[test]
    fn disabled_pass_is_a_no_op() {
        let (g, mut p) = bridged_triangles();
        let before = p.sides().to_vec();
        let stats = refine(&g, &mut p, BalanceConstraint::new(0.3, 0.7, 6).unwrap(), &FlowConfig::default());
        assert_eq!(p.sides(), &before[..]);
        assert_eq!(stats.corridors, 0);
        assert_eq!(stats.cut_cost, 2.0);
    }

    #[test]
    fn flow_recovers_the_bridge_cut() {
        let (g, mut p) = bridged_triangles();
        let balance = BalanceConstraint::new(0.3, 0.7, 6).unwrap();
        let config = FlowConfig {
            enabled: true,
            corridor_nodes: 100,
        };
        let stats = refine(&g, &mut p, balance, &config);
        assert_eq!(stats.cut_cost, 1.0);
        assert_eq!(cut_cost(&g, &p), 1.0);
        assert!(stats.accepted >= 1);
        assert!(!stats.cancelled);
        // 3/3 split survives the balance bound.
        assert_eq!(p.count(Side::A), 3);
    }

    #[test]
    fn accepted_cuts_never_violate_balance() {
        // Exact bisection of a 2/4 start: only side B has slack (one
        // node), so the corridor is just node 2 and the pass may move it
        // across to the feasible 3/3 bridge cut — and no further.
        let (g, mut p) = bridged_triangles();
        let balance = BalanceConstraint::bisection(6);
        let config = FlowConfig {
            enabled: true,
            corridor_nodes: 100,
        };
        let stats = refine(&g, &mut p, balance, &config);
        assert_eq!(stats.cut_cost, 1.0);
        let counts = [p.count(Side::A), p.count(Side::B)];
        assert_eq!(counts, [3, 3]);
        let w = SideWeights::new(&g, &p);
        assert!(balance.is_feasible(counts, [w.get(Side::A), w.get(Side::B)]));
    }

    #[test]
    fn bisection_with_no_slack_grows_no_corridor() {
        // Start at an exact 3/3 bisection: zero slack on both sides.
        let (g, _) = bridged_triangles();
        let mut p = Bipartition::from_sides(vec![
            Side::A,
            Side::A,
            Side::A,
            Side::B,
            Side::B,
            Side::B,
        ]);
        let stats = refine(
            &g,
            &mut p,
            BalanceConstraint::bisection(6),
            &FlowConfig {
                enabled: true,
                corridor_nodes: 100,
            },
        );
        assert_eq!(stats.corridors, 0);
        assert_eq!(stats.cut_cost, 1.0);
    }

    #[test]
    fn cancellation_leaves_the_partition_untouched() {
        let (g, mut p) = bridged_triangles();
        let before = p.sides().to_vec();
        let token = CancelToken::new();
        token.cancel();
        let stats = cancel::scope(&token, || {
            refine(
                &g,
                &mut p,
                BalanceConstraint::new(0.3, 0.7, 6).unwrap(),
                &FlowConfig {
                    enabled: true,
                    corridor_nodes: 100,
                },
            )
        });
        assert!(stats.cancelled);
        assert_eq!(p.sides(), &before[..]);
        assert_eq!(cut_cost(&g, &p), 2.0);
    }
}
