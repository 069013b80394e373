//! The Dinic max-flow solver and its self-verifying cut certificate.

use prop_core::cancel;
use std::cell::OnceCell;

/// Residual capacities at or below this threshold count as saturated.
/// Capacities are net weights (integral in practice — unit fine costs
/// stay integral through coarsening — but `f64` by type), so the guard
/// only matters for fractional-weight circuits, where it stops rounding
/// residue from producing near-zero augmenting paths.
const EPS: f64 = 1e-9;

/// Sentinel level for nodes unreached by the BFS phase.
const UNREACHED: u32 = u32::MAX;

/// One directed arc of a [`FlowNetwork`], as seen by certificate checkers.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FlowEdge {
    /// Tail node.
    pub from: usize,
    /// Head node.
    pub to: usize,
    /// Original capacity (possibly `f64::INFINITY`).
    pub capacity: f64,
    /// Flow currently assigned by the solver, in `[0, capacity]`.
    pub flow: f64,
}

/// Outcome of a [`FlowNetwork::max_flow`] run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MaxFlow {
    /// The maximum flow value (= minimum cut capacity).
    pub value: f64,
    /// Augmenting paths pushed across all blocking-flow phases.
    pub augments: u64,
    /// BFS level-graph phases run (each strictly increases the
    /// source→sink level, so this is at most the node count).
    pub rounds: u64,
}

/// A directed flow network with residual bookkeeping.
///
/// Arcs are stored as skew pairs: [`add_edge`](FlowNetwork::add_edge)
/// appends the forward arc at an even index and its zero-capacity
/// residual twin at the following odd index, so `e ^ 1` is always the
/// reverse of `e`. The per-node arc lists are a flat CSR index built
/// once, on the first query after the last edge was added.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    nodes: usize,
    to: Vec<u32>,
    /// Remaining residual capacity per arc.
    cap: Vec<f64>,
    /// Original capacity per arc (zero for residual twins).
    orig: Vec<f64>,
    /// Outgoing arc ids per node (forward arcs and residual twins).
    index: OnceCell<ArcIndex>,
}

/// Outgoing arcs per node in CSR form: node `v`'s arcs are
/// `arcs[off[v]..off[v + 1]]`, in increasing arc id.
#[derive(Clone, Debug)]
struct ArcIndex {
    off: Vec<u32>,
    arcs: Vec<u32>,
}

impl ArcIndex {
    /// Counting sort of the arc ids by tail (`to[e ^ 1]`). Arc ids are
    /// visited in increasing order, so each node keeps its arcs in the
    /// order they were added.
    fn build(nodes: usize, to: &[u32]) -> ArcIndex {
        let mut off = vec![0u32; nodes + 1];
        for e in 0..to.len() {
            off[to[e ^ 1] as usize + 1] += 1;
        }
        for v in 0..nodes {
            off[v + 1] += off[v];
        }
        let mut next = off[..nodes].to_vec();
        let mut arcs = vec![0u32; to.len()];
        for e in 0..to.len() {
            let tail = to[e ^ 1] as usize;
            arcs[next[tail] as usize] = e as u32;
            next[tail] += 1;
        }
        ArcIndex { off, arcs }
    }

    #[inline]
    fn of(&self, v: usize) -> &[u32] {
        &self.arcs[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

impl FlowNetwork {
    /// An empty network over `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            nodes: n,
            ..FlowNetwork::default()
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Appends an isolated node and returns its index.
    pub fn add_node(&mut self) -> usize {
        self.index.take();
        self.nodes += 1;
        self.nodes - 1
    }

    /// Number of directed arcs added via [`add_edge`](Self::add_edge).
    pub fn num_edges(&self) -> usize {
        self.to.len() / 2
    }

    /// Adds a directed arc `u → v` of capacity `cap` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the capacity is negative
    /// or NaN.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> usize {
        assert!(u < self.nodes && v < self.nodes, "endpoint out of range");
        assert!(cap >= 0.0, "capacity must be non-negative and not NaN");
        self.index.take();
        let id = self.to.len();
        self.to.push(v as u32);
        self.cap.push(cap);
        self.orig.push(cap);
        self.to.push(u as u32);
        self.cap.push(0.0);
        self.orig.push(0.0);
        id
    }

    /// The CSR arc index, built on first use.
    fn index(&self) -> &ArcIndex {
        self.index.get_or_init(|| ArcIndex::build(self.nodes, &self.to))
    }

    /// The forward arcs with their current flow assignment
    /// (`flow = capacity − residual`).
    pub fn edges(&self) -> Vec<FlowEdge> {
        (0..self.to.len())
            .step_by(2)
            .map(|e| FlowEdge {
                from: self.to[e + 1] as usize,
                to: self.to[e] as usize,
                capacity: self.orig[e],
                flow: if self.orig[e].is_finite() {
                    self.orig[e] - self.cap[e]
                } else {
                    // Infinite arcs track the pushed flow on the twin.
                    self.cap[e + 1]
                },
            })
            .collect()
    }

    /// Runs Dinic from `s` to `t`, mutating the residual capacities.
    ///
    /// Returns `None` when the thread-local cancellation slot trips — the
    /// poll sits at every augmentation-round (BFS phase) boundary — in
    /// which case the partial residual state must not be used for cuts.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> Option<MaxFlow> {
        assert!(s < self.num_nodes() && t < self.num_nodes() && s != t);
        let n = self.num_nodes();
        // Taken out while the residual capacities change, put back for
        // the cut queries.
        let index = self.index.take().unwrap_or_else(|| ArcIndex::build(n, &self.to));
        let mut level = vec![UNREACHED; n];
        let mut iter = vec![0u32; n];
        let mut queue = Vec::with_capacity(n);
        let mut flow = MaxFlow {
            value: 0.0,
            augments: 0,
            rounds: 0,
        };
        let outcome = loop {
            if cancel::requested() {
                break None;
            }
            if !self.bfs_levels(&index, s, t, &mut level, &mut queue) {
                break Some(flow);
            }
            flow.rounds += 1;
            iter.fill(0);
            while let Some(pushed) = self.augment(&index, s, t, &level, &mut iter) {
                flow.value += pushed;
                flow.augments += 1;
            }
        };
        let _ = self.index.set(index);
        outcome
    }

    /// Builds the residual level graph; `true` iff `t` is reachable.
    fn bfs_levels(
        &self,
        index: &ArcIndex,
        s: usize,
        t: usize,
        level: &mut [u32],
        queue: &mut Vec<u32>,
    ) -> bool {
        level.fill(UNREACHED);
        level[s] = 0;
        queue.clear();
        queue.push(s as u32);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            for &e in index.of(v) {
                let u = self.to[e as usize] as usize;
                if self.cap[e as usize] > EPS && level[u] == UNREACHED {
                    level[u] = level[v] + 1;
                    queue.push(u as u32);
                }
            }
        }
        level[t] != UNREACHED
    }

    /// Finds one augmenting path in the level graph (advancing the
    /// per-node arc cursors), pushes its bottleneck, and returns it.
    /// Iterative — corridor networks can be deep enough to overflow a
    /// recursive DFS.
    fn augment(
        &mut self,
        index: &ArcIndex,
        s: usize,
        t: usize,
        level: &[u32],
        iter: &mut [u32],
    ) -> Option<f64> {
        let mut path: Vec<u32> = Vec::new();
        let mut v = s;
        loop {
            if v == t {
                let bottleneck = path
                    .iter()
                    .map(|&e| self.cap[e as usize])
                    .fold(f64::INFINITY, f64::min);
                debug_assert!(bottleneck > EPS && bottleneck.is_finite());
                for &e in &path {
                    self.cap[e as usize] -= bottleneck;
                    self.cap[e as usize ^ 1] += bottleneck;
                }
                return Some(bottleneck);
            }
            let arcs = index.of(v);
            let mut advanced = false;
            while (iter[v] as usize) < arcs.len() {
                let e = arcs[iter[v] as usize] as usize;
                let u = self.to[e] as usize;
                if self.cap[e] > EPS && level[u] == level[v] + 1 {
                    path.push(e as u32);
                    v = u;
                    advanced = true;
                    break;
                }
                iter[v] += 1;
            }
            if !advanced {
                let e = path.pop()?;
                v = self.to[e as usize ^ 1] as usize;
                iter[v] += 1;
            }
        }
    }

    /// The source side of a minimum cut: nodes reachable from `s` in the
    /// residual graph. Call after [`max_flow`](Self::max_flow) returned
    /// `Some` — this is the *smallest* source side among all min cuts.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let index = self.index();
        let mut side = vec![false; self.num_nodes()];
        let mut queue = vec![s as u32];
        side[s] = true;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            for &e in index.of(v) {
                let u = self.to[e as usize] as usize;
                if self.cap[e as usize] > EPS && !side[u] {
                    side[u] = true;
                    queue.push(u as u32);
                }
            }
        }
        side
    }

    /// The source side of the *other* extreme minimum cut: everything
    /// that cannot reach `t` in the residual graph — the **largest**
    /// source side. Together with
    /// [`min_cut_source_side`](Self::min_cut_source_side) this brackets
    /// the lattice of min cuts, which is what the most-balanced-cut
    /// tie-break chooses between.
    pub fn min_cut_sink_side_complement(&self, t: usize) -> Vec<bool> {
        let index = self.index();
        let mut reaches_t = vec![false; self.num_nodes()];
        let mut queue = vec![t as u32];
        reaches_t[t] = true;
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            // u → v is residual iff the twin of an arc v → u has capacity.
            for &e in index.of(v) {
                let u = self.to[e as usize] as usize;
                if self.cap[e as usize ^ 1] > EPS && !reaches_t[u] {
                    reaches_t[u] = true;
                    queue.push(u as u32);
                }
            }
        }
        reaches_t.iter().map(|&r| !r).collect()
    }

    /// Verifies the max-flow = min-cut certificate of the current
    /// residual state against `value` and the cut `source_side`:
    ///
    /// 1. **Capacity** — every arc's flow lies in `[0, capacity]`.
    /// 2. **Conservation** — every node except `s`/`t` has zero net flow,
    ///    `s` emits `value`, `t` absorbs it.
    /// 3. **Cut = flow** — the total capacity of arcs crossing
    ///    `source_side → sink side` equals `value` (finite arcs only; an
    ///    infinite arc in the cut is an immediate failure). By weak
    ///    duality any cut's capacity bounds any flow from above, so
    ///    equality proves both sides optimal.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated property.
    pub fn check_min_cut(
        &self,
        s: usize,
        t: usize,
        value: f64,
        source_side: &[bool],
    ) -> Result<(), String> {
        if source_side.len() != self.num_nodes() {
            return Err("cut side vector length mismatch".into());
        }
        if !source_side[s] || source_side[t] {
            return Err("cut must separate source from sink".into());
        }
        let tol = 1e-6 * value.abs().max(1.0);
        let mut excess = vec![0.0f64; self.num_nodes()];
        let mut cut_capacity = 0.0f64;
        for edge in self.edges() {
            if edge.flow < -tol || edge.flow > edge.capacity + tol {
                return Err(format!(
                    "arc {}→{} flow {} outside [0, {}]",
                    edge.from, edge.to, edge.flow, edge.capacity
                ));
            }
            excess[edge.from] -= edge.flow;
            excess[edge.to] += edge.flow;
            if source_side[edge.from] && !source_side[edge.to] {
                if !edge.capacity.is_finite() {
                    return Err(format!(
                        "infinite-capacity arc {}→{} crosses the cut",
                        edge.from, edge.to
                    ));
                }
                cut_capacity += edge.capacity;
            }
        }
        for (v, &e) in excess.iter().enumerate() {
            let want = if v == s {
                -value
            } else if v == t {
                value
            } else {
                0.0
            };
            if (e - want).abs() > tol {
                return Err(format!("node {v} violates conservation: excess {e}, want {want}"));
            }
        }
        if (cut_capacity - value).abs() > tol {
            return Err(format!(
                "cut capacity {cut_capacity} does not witness flow value {value}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved(net: &mut FlowNetwork, s: usize, t: usize) -> MaxFlow {
        let flow = net.max_flow(s, t).expect("not cancelled");
        for side in [net.min_cut_source_side(s), net.min_cut_sink_side_complement(t)] {
            net.check_min_cut(s, t, flow.value, &side).unwrap();
        }
        flow
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 4.0);
        assert_eq!(solved(&mut net, 0, 1).value, 4.0);
        assert_eq!(net.num_edges(), 1);
    }

    #[test]
    fn disconnected_pair_has_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 4.0);
        let flow = solved(&mut net, 0, 2);
        assert_eq!(flow.value, 0.0);
        assert_eq!(flow.rounds, 0);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS figure: max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16.0);
        net.add_edge(0, 2, 13.0);
        net.add_edge(1, 2, 10.0);
        net.add_edge(2, 1, 4.0);
        net.add_edge(1, 3, 12.0);
        net.add_edge(3, 2, 9.0);
        net.add_edge(2, 4, 14.0);
        net.add_edge(4, 3, 7.0);
        net.add_edge(3, 5, 20.0);
        net.add_edge(4, 5, 4.0);
        assert_eq!(solved(&mut net, 0, 5).value, 23.0);
    }

    #[test]
    fn bottleneck_forces_residual_rerouting() {
        // Flow must cancel along the cross edge to reach the optimum 2.0.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1.0);
        net.add_edge(0, 2, 1.0);
        net.add_edge(1, 2, 1.0);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        assert_eq!(solved(&mut net, 0, 3).value, 2.0);
    }

    #[test]
    fn infinite_arcs_never_enter_the_cut() {
        // s → a (inf), a → b (3), b → t (inf): the only finite cut is {a→b}.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, f64::INFINITY);
        net.add_edge(1, 2, 3.0);
        net.add_edge(2, 3, f64::INFINITY);
        let flow = solved(&mut net, 0, 3);
        assert_eq!(flow.value, 3.0);
        let side = net.min_cut_source_side(0);
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn extreme_cuts_bracket_the_lattice() {
        // A path with two equal bottlenecks: the small cut sits right
        // after s, the large one right before t.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 2.0);
        net.add_edge(1, 2, 5.0);
        net.add_edge(2, 3, 2.0);
        let flow = solved(&mut net, 0, 3);
        assert_eq!(flow.value, 2.0);
        assert_eq!(net.min_cut_source_side(0), vec![true, false, false, false]);
        assert_eq!(
            net.min_cut_sink_side_complement(3),
            vec![true, true, true, false]
        );
    }

    #[test]
    fn certificate_rejects_wrong_claims() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 4.0);
        let flow = net.max_flow(0, 1).unwrap();
        let side = net.min_cut_source_side(0);
        assert!(net.check_min_cut(0, 1, flow.value + 1.0, &side).is_err());
        assert!(net.check_min_cut(0, 1, flow.value, &[true, true]).is_err());
        assert!(net.check_min_cut(0, 1, flow.value, &[true]).is_err());
    }

    #[test]
    fn cancellation_aborts_between_rounds() {
        let token = prop_core::CancelToken::new();
        token.cancel();
        let aborted = cancel::scope(&token, || {
            let mut net = FlowNetwork::new(2);
            net.add_edge(0, 1, 1.0);
            net.max_flow(0, 1)
        });
        assert_eq!(aborted, None);
    }
}
