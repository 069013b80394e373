//! Per-layer timing from outside the program.
//!
//! The suite's own phase counters (`prop_core::prof`, which times the
//! multilevel coarsen/initial/project/refine phases and counts levels and
//! accepted flow rounds) exist only behind the `prof` cargo feature;
//! turning it on would change the binary the untraced run measures. So
//! the traced run times the layers from outside instead: it wraps the
//! trait objects the public entry points accept and timestamps every call
//! that crosses a layer boundary:
//!
//! * [`TracedVcycle`] is the 2-way [`Partitioner`] handed to the
//!   multi-start harness or to `partition_kway`; one `improve` call is one
//!   V-cycle.
//! * [`TracedRefiner`] is the inner refiner handed to
//!   `Multilevel::with_config`. It re-composes the production `MlRefiner`
//!   from public pieces so that FM, the PROP polish and flow refinement
//!   are timed separately. It copies `MlRefiner`'s dispatch and has to
//!   follow every change to it; the caller asserts that the composed
//!   engine returns the same cut and assignment as the untraced one, so
//!   a copy that falls behind fails the traced run.
//! * [`TracedFlat`] times the `improve` calls of a flat PROP or FM engine.
//!
//! Inside a V-cycle the refiner calls are the only timestamps, so the
//! phases between them are attributed by position: the span from V-cycle
//! entry to the first refiner call is coarsening, the first
//! `coarsest_starts` calls are the initial partition, and the gap before
//! each later call is the projection of the next finer level.

use prop_core::{BalanceConstraint, Bipartition, ImproveStats, Partitioner, Prop, PropConfig};
use prop_fm::{FmBucket, SyncRoundFm};
use prop_multilevel::{FlowConfig, MlRefiner, Multilevel, MultilevelConfig};
use prop_netlist::Hypergraph;
use std::sync::Mutex;
use std::time::Instant;

/// Busy time (seconds) and work counts of each layer, summed over the
/// calls of one or more jobs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// V-cycle entry to the first refiner call: coarsening.
    pub coarsen_s: f64,
    /// Coarsest-level starts, flow excluded.
    pub initial_s: f64,
    /// Gaps between refinement calls: projection to the finer level.
    pub project_s: f64,
    /// Move-based refinement after the initial partition (FM and PROP).
    pub refine_s: f64,
    /// The part of `refine_s` spent on the input graph of the V-cycle.
    pub refine_finest_s: f64,
    /// Flow refinement at every level, initial partition included.
    pub flow_s: f64,
    /// FM passes inside the V-cycle and flat FM `improve` calls.
    pub fm_s: f64,
    /// PROP polish inside the V-cycle and flat PROP `improve` calls.
    pub prop_s: f64,
    /// Flat (non-multilevel) engine `improve` calls.
    pub flat_s: f64,
    /// V-cycle spans (entry to exit of `Multilevel::improve`).
    pub vcycle_s: f64,
    /// V-cycles run.
    pub vcycles: u64,
    /// Refiner calls after the initial partition: one per coarsening
    /// level.
    pub refine_calls: u64,
    /// Passes of those calls (FM and PROP; flow moves excluded).
    pub refine_passes: u64,
    /// FM passes.
    pub fm_passes: u64,
    /// PROP passes.
    pub prop_passes: u64,
    /// Accepted flow rounds.
    pub flow_accepted: u64,
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        self.coarsen_s += other.coarsen_s;
        self.initial_s += other.initial_s;
        self.project_s += other.project_s;
        self.refine_s += other.refine_s;
        self.refine_finest_s += other.refine_finest_s;
        self.flow_s += other.flow_s;
        self.fm_s += other.fm_s;
        self.prop_s += other.prop_s;
        self.flat_s += other.flat_s;
        self.vcycle_s += other.vcycle_s;
        self.vcycles += other.vcycles;
        self.refine_calls += other.refine_calls;
        self.refine_passes += other.refine_passes;
        self.fm_passes += other.fm_passes;
        self.prop_passes += other.prop_passes;
        self.flow_accepted += other.flow_accepted;
    }

    /// Time covered by a named layer. What is left of a job's time is the
    /// part no span accounts for.
    pub fn accounted_s(&self) -> f64 {
        self.coarsen_s + self.initial_s + self.project_s + self.refine_s + self.flow_s + self.flat_s
    }
}

/// One refiner call, as the V-cycle wrapper sees it afterwards.
struct Call {
    start: Instant,
    end: Instant,
    nodes: usize,
    fm_s: f64,
    prop_s: f64,
    flow_s: f64,
    fm_passes: u64,
    prop_passes: u64,
    flow_accepted: u64,
}

/// The production `MlRefiner`, re-composed from public pieces so that
/// each arm can be timed. At unit-weight levels it runs FM to convergence
/// and then the PROP polish; weighted levels go to an `MlRefiner` with
/// flow disabled; flow refinement runs last, under the same condition
/// `MlRefiner` applies.
pub struct TracedRefiner {
    weighted: MlRefiner,
    unit_fm: Box<dyn Partitioner>,
    polish: Option<Prop>,
    flow: FlowConfig,
    refine_skip_nodes: usize,
    log: Mutex<Vec<Call>>,
}

impl TracedRefiner {
    fn new(config: &MultilevelConfig) -> Self {
        let moves_only = MultilevelConfig {
            flow: FlowConfig {
                enabled: false,
                ..config.flow
            },
            ..*config
        };
        let unit_fm: Box<dyn Partitioner> =
            if matches!(config.intra, prop_core::ParallelPolicy::Sequential) {
                Box::new(FmBucket::default())
            } else {
                Box::new(SyncRoundFm {
                    policy: config.intra,
                    ..SyncRoundFm::default()
                })
            };
        let polish = (config.polish_passes > 0).then(|| {
            Prop::new(PropConfig {
                max_passes: config.polish_passes,
                ..PropConfig::calibrated()
            })
        });
        TracedRefiner {
            weighted: MlRefiner::new(&moves_only),
            unit_fm,
            polish,
            flow: config.flow,
            refine_skip_nodes: config.refine_skip_nodes,
            log: Mutex::new(Vec::new()),
        }
    }

    fn take_log(&self) -> Vec<Call> {
        std::mem::take(&mut *self.log.lock().expect("refiner log lock"))
    }
}

impl Partitioner for TracedRefiner {
    fn name(&self) -> &str {
        "ML-refine-traced"
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let start = Instant::now();
        let unit = graph.has_unit_weights() && graph.has_unit_node_weights();
        let mut call = Call {
            start,
            end: start,
            nodes: graph.num_nodes(),
            fm_s: 0.0,
            prop_s: 0.0,
            flow_s: 0.0,
            fm_passes: 0,
            prop_passes: 0,
            flow_accepted: 0,
        };
        let moves = if unit {
            let fm = self.unit_fm.improve(graph, partition, balance);
            call.fm_s = start.elapsed().as_secs_f64();
            call.fm_passes = fm.passes as u64;
            match &self.polish {
                None => fm,
                Some(polish) => {
                    let tick = Instant::now();
                    let stats = polish.improve(graph, partition, balance);
                    call.prop_s = tick.elapsed().as_secs_f64();
                    call.prop_passes = stats.passes as u64;
                    ImproveStats {
                        passes: fm.passes + stats.passes,
                        cut_cost: stats.cut_cost,
                    }
                }
            }
        } else {
            let stats = self.weighted.improve(graph, partition, balance);
            call.fm_s = start.elapsed().as_secs_f64();
            call.fm_passes = stats.passes as u64;
            stats
        };
        let stats = if !self.flow.enabled || (!unit && graph.num_nodes() > self.refine_skip_nodes) {
            moves
        } else {
            let tick = Instant::now();
            let flow = prop_flow::refine(graph, partition, balance, &self.flow);
            call.flow_s = tick.elapsed().as_secs_f64();
            call.flow_accepted = flow.accepted;
            ImproveStats {
                passes: moves.passes + flow.accepted as usize,
                cut_cost: flow.cut_cost,
            }
        };
        call.end = Instant::now();
        self.log.lock().expect("refiner log lock").push(call);
        stats
    }
}

/// The production `ml` engine with every V-cycle timed layer by layer.
pub struct TracedVcycle {
    engine: Multilevel<TracedRefiner>,
    starts: usize,
    totals: Mutex<Layers>,
}

impl TracedVcycle {
    /// The traced twin of `Multilevel::standard(config)`.
    pub fn new(config: MultilevelConfig) -> Self {
        TracedVcycle {
            engine: Multilevel::with_config(TracedRefiner::new(&config), config),
            starts: config.coarsest_starts.max(1),
            totals: Mutex::new(Layers::default()),
        }
    }

    /// The layer totals of every V-cycle run so far.
    pub fn layers(&self) -> Layers {
        *self.totals.lock().expect("layer totals lock")
    }
}

impl Partitioner for TracedVcycle {
    fn name(&self) -> &str {
        "ML-traced"
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let refiner = self.engine.inner();
        drop(refiner.take_log());
        let entry = Instant::now();
        let stats = self.engine.improve(graph, partition, balance);
        let exit = Instant::now();
        let calls = refiner.take_log();

        let mut l = Layers {
            vcycle_s: (exit - entry).as_secs_f64(),
            vcycles: 1,
            ..Layers::default()
        };
        let mut previous_end = entry;
        for (i, call) in calls.iter().enumerate() {
            let gap = (call.start - previous_end).as_secs_f64();
            let moves_s = (call.end - call.start).as_secs_f64() - call.flow_s;
            if i == 0 {
                l.coarsen_s += gap;
            } else if i < self.starts {
                l.initial_s += gap;
            } else {
                l.project_s += gap;
            }
            if i < self.starts {
                l.initial_s += moves_s;
            } else {
                l.refine_calls += 1;
                l.refine_s += moves_s;
                l.refine_passes += call.fm_passes + call.prop_passes;
                if call.nodes == graph.num_nodes() {
                    l.refine_finest_s += moves_s;
                }
            }
            l.flow_s += call.flow_s;
            l.fm_s += call.fm_s;
            l.prop_s += call.prop_s;
            l.fm_passes += call.fm_passes;
            l.prop_passes += call.prop_passes;
            l.flow_accepted += call.flow_accepted;
            previous_end = call.end;
        }
        self.totals.lock().expect("layer totals lock").add(&l);
        stats
    }
}

/// Which flat engine a [`TracedFlat`] wraps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlatKind {
    /// PROP (`prop-core::prop`).
    Prop,
    /// Bucket FM (`prop-fm`).
    Fm,
}

/// A flat engine whose `improve` calls are timed.
pub struct TracedFlat<P> {
    inner: P,
    kind: FlatKind,
    totals: Mutex<Layers>,
}

impl<P: Partitioner> TracedFlat<P> {
    /// Wraps `inner`, booking its time under `kind`.
    pub fn new(inner: P, kind: FlatKind) -> Self {
        TracedFlat {
            inner,
            kind,
            totals: Mutex::new(Layers::default()),
        }
    }

    /// The layer totals of every call so far.
    pub fn layers(&self) -> Layers {
        *self.totals.lock().expect("layer totals lock")
    }
}

impl<P: Partitioner> Partitioner for TracedFlat<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let tick = Instant::now();
        let stats = self.inner.improve(graph, partition, balance);
        let s = tick.elapsed().as_secs_f64();
        let mut totals = self.totals.lock().expect("layer totals lock");
        totals.flat_s += s;
        match self.kind {
            FlatKind::Prop => {
                totals.prop_s += s;
                totals.prop_passes += stats.passes as u64;
            }
            FlatKind::Fm => {
                totals.fm_s += s;
                totals.fm_passes += stats.passes as u64;
            }
        }
        stats
    }
}
