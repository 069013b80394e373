//! The two golem3 batch workloads: one large job in flight at a time,
//! driven through the library entry points the `prop` CLI calls.
//!
//! * `vcycle-golem3` — `prop partition golem3 --method ml --threads 2
//!   --runs 1 --seed S`: one intra-parallel 2-way V-cycle per job.
//! * `kway8-flow-golem3` — the same with `--k 8 --ml-flow`: recursive
//!   bisection into 8 parts, flow refinement at every level.

use crate::layers::{Layers, TracedVcycle};
use crate::report::{fill_layers, Run};
use crate::setup::{prepare, reps_in_slot, Rep, SetupReport, SETUP_REPS};
use crate::sys::{self, job_seed, median, quantile, since};
use prop_core::{partition_kway, BalanceConstraint, KwayConfig, ParallelPolicy, Partitioner, Side};
use prop_multilevel::{Multilevel, MultilevelConfig};
use prop_netlist::Hypergraph;
use prop_serve::engine::kway_assignment_hash;
use std::path::Path;
use std::time::Instant;

/// Nominal seconds per job, which turn `--seconds` into a job count.
const VCYCLE_JOB_S: f64 = 0.6;
const KWAY_JOB_S: f64 = 1.9;

/// Intra-run workers per job (`--threads 2`).
const THREADS: usize = 2;
const PARTS: usize = 8;
const R1: f64 = 0.45;
const R2: f64 = 0.55;

/// Which batch workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Vcycle,
    Kway,
}

impl Kind {
    fn salt(self) -> u64 {
        match self {
            Kind::Vcycle => 0x7663_7963_6c65,
            Kind::Kway => 0x006b_7761_7938,
        }
    }

    fn job_count(self, seconds: f64) -> usize {
        match self {
            Kind::Vcycle => ((seconds / VCYCLE_JOB_S).round() as usize).max(8),
            Kind::Kway => ((seconds / KWAY_JOB_S).round() as usize).max(4),
        }
    }
}

/// What one job returned.
struct Job {
    seconds: f64,
    cut: f64,
    connectivity: f64,
    hash: u64,
    /// Node → part, kept until the oracle recount that follows the job.
    parts: Vec<u32>,
    /// The part weights the k-way driver reports (empty for 2-way).
    weights: Vec<f64>,
}

fn ml_config(kind: Kind, seed: u64, workers: usize) -> MultilevelConfig {
    let mut config = MultilevelConfig {
        seed,
        intra: ParallelPolicy::Threads(workers),
        ..MultilevelConfig::default()
    };
    config.flow.enabled = kind == Kind::Kway;
    config
}

/// Runs one job with `engine` (the production engine or its traced twin).
fn run_job<P: Partitioner>(
    kind: Kind,
    graph: &Hypergraph,
    balance: BalanceConstraint,
    seed: u64,
    engine: &P,
) -> Result<Job, String> {
    let t = Instant::now();
    match kind {
        Kind::Vcycle => {
            let result = engine
                .run_multi_parallel(graph, balance, 1, seed, ParallelPolicy::Sequential)
                .map_err(|e| e.to_string())?;
            let seconds = since(t);
            let parts: Vec<u32> = result
                .partition
                .sides()
                .iter()
                .map(|&s| u32::from(s == Side::B))
                .collect();
            Ok(Job {
                seconds,
                cut: result.cut_cost,
                connectivity: result.cut_cost,
                hash: kway_assignment_hash(&parts),
                parts,
                weights: Vec::new(),
            })
        }
        Kind::Kway => {
            let config = KwayConfig {
                k: PARTS,
                budgets: None,
                runs: 1,
                seed,
                r1: R1,
                r2: R2,
                policy: ParallelPolicy::Sequential,
            };
            let report = partition_kway(graph, engine, &config).map_err(|e| e.to_string())?;
            let seconds = since(t);
            let p = report.partition;
            Ok(Job {
                seconds,
                cut: p.cut_cost(graph),
                connectivity: p.connectivity_cost(graph),
                hash: kway_assignment_hash(p.assignment()),
                parts: p.assignment().to_vec(),
                weights: p.part_weights().to_vec(),
            })
        }
    }
}

/// Wall and CPU seconds of a job list's iterations (engine construction
/// plus the job), which leaves out the checks between jobs, and the
/// largest peak resident memory of any one iteration.
struct Timed {
    /// The results, assignments dropped.
    jobs: Vec<Job>,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Runs the job list closed loop, one job in flight, with the engine
/// `make` builds for each seed. `after` sees every result and its engine
/// outside the timing, before the assignment is dropped; an error it
/// returns ends the list.
fn run_list<P: Partitioner>(
    kind: Kind,
    graph: &Hypergraph,
    balance: BalanceConstraint,
    seeds: &[u64],
    make: impl Fn(u64) -> P,
    mut after: impl FnMut(usize, &Job, &P) -> Result<(), String>,
) -> Result<Timed, String> {
    let mut timed = Timed {
        jobs: Vec::with_capacity(seeds.len()),
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
    };
    for (i, &seed) in seeds.iter().enumerate() {
        sys::reset_peak_rss();
        let cpu = sys::cpu_seconds();
        let t = Instant::now();
        let engine = make(seed);
        let mut job = run_job(kind, graph, balance, seed, &engine)?;
        timed.wall_s += since(t);
        timed.cpu_s += sys::cpu_seconds() - cpu;
        timed.peak_rss_mb = timed.peak_rss_mb.max(sys::peak_rss_mb());
        after(i, &job, &engine)?;
        job.parts = Vec::new();
        timed.jobs.push(job);
    }
    Ok(timed)
}

/// The production engine at `workers` intra workers.
fn production(
    kind: Kind,
    workers: usize,
) -> impl Fn(u64) -> Multilevel<prop_multilevel::MlRefiner> {
    move |seed| Multilevel::standard(ml_config(kind, seed, workers))
}

/// Recounts a job's result with the `prop-verify` oracles.
fn verify(
    kind: Kind,
    graph: &Hypergraph,
    balance: BalanceConstraint,
    job: &Job,
) -> Result<(), String> {
    if job.parts.len() != graph.num_nodes() {
        return Err(format!(
            "assignment covers {} of {} nodes",
            job.parts.len(),
            graph.num_nodes()
        ));
    }
    match kind {
        Kind::Vcycle => {
            let sides: Vec<Side> = job
                .parts
                .iter()
                .map(|&p| if p == 0 { Side::A } else { Side::B })
                .collect();
            let partition = prop_core::Bipartition::from_sides(sides);
            let cut = prop_verify::oracle::naive_cut(graph, &partition);
            if cut != job.cut {
                return Err(format!(
                    "reported cut {} but the oracle counts {cut}",
                    job.cut
                ));
            }
            if !prop_verify::oracle::naive_is_feasible(graph, &partition, balance) {
                return Err("partition violates the 45-55% balance".into());
            }
        }
        Kind::Kway => {
            let k = PARTS as u32;
            if job.parts.iter().any(|&p| p >= k) {
                return Err("assignment names a part outside 0..k".into());
            }
            let cut = prop_verify::kway::kway_cut(graph, &job.parts, k);
            let connectivity = prop_verify::kway::kway_connectivity(graph, &job.parts, k);
            if cut != job.cut || connectivity != job.connectivity {
                return Err(format!(
                    "reported cut/connectivity {}/{} but the oracles count {cut}/{connectivity}",
                    job.cut, job.connectivity
                ));
            }
            let weights = prop_verify::kway::part_weights(graph, &job.parts, k);
            if weights != job.weights {
                return Err(format!(
                    "reported part weights {:?} but the oracle counts {weights:?}",
                    job.weights
                ));
            }
            // Each of the log2(k) bisection levels keeps a side within
            // [r1, r2] of its subcircuit, so a part lies within
            // [r1^d, r2^d] of the circuit, up to one node of slack.
            let depth = PARTS.ilog2() as i32;
            let total = graph.total_node_weight();
            let slack = graph.max_node_weight();
            let cap = vec![R2.powi(depth) * total + slack; PARTS];
            let floor = R1.powi(depth) * total - slack;
            if !prop_verify::kway::check_budgets(&weights, &cap)
                || weights.iter().any(|&w| w < floor)
            {
                return Err(format!(
                    "part weights {weights:?} leave the window [{floor}, {}]",
                    cap[0]
                ));
            }
        }
    }
    Ok(())
}

/// Runs a batch workload and fills `run`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    run: &mut Run,
) -> Result<(), String> {
    let spec = prop_netlist::suite::by_name("golem3").expect("golem3 is a suite entry");

    // Set-up: the first repetition makes the graph the jobs use; the
    // others run between the jobs of the timed phase.
    let mut reps: Vec<Rep> = Vec::with_capacity(SETUP_REPS);
    let first = work.join("setup0");
    let (mut prepared, times) = prepare(&[spec], &first)?;
    reps.push((times.total(), times));
    std::fs::remove_dir_all(&first).ok();
    let graph = prepared.pop().expect("one circuit").graph;
    let balance = BalanceConstraint::weighted(R1, R2, &graph).map_err(|e| e.to_string())?;

    let jobs = kind.job_count(seconds);
    let seeds: Vec<u64> = (0..jobs as u64)
        .map(|i| job_seed(seed, kind.salt(), i))
        .collect();
    run.provenance_circuits(&[("golem3", &graph)]);
    run.provenance_num("jobs", jobs as f64);
    run.provenance_num("intra_workers", THREADS as f64);
    run.provenance_num("jobs_in_flight", 1.0);
    run.provenance_num("connections", 0.0);
    run.provenance_num("runs_per_job", 1.0);
    run.provenance_num(
        "parts",
        if kind == Kind::Kway {
            PARTS as f64
        } else {
            2.0
        },
    );

    // Timed phase: the fixed job list, closed loop, tracing off. Each
    // result is recounted between jobs, outside the timing, and the
    // set-up repetitions follow the recount.
    let mut checks = Vec::with_capacity(jobs);
    let mut recount_s = 0.0;
    let timed = run_list(
        kind,
        &graph,
        balance,
        &seeds,
        production(kind, THREADS),
        |i, job, _| {
            let t = Instant::now();
            let outcome = verify(kind, &graph, balance, job);
            recount_s += since(t);
            checks.push(outcome.map_err(|e| format!("job {i} (seed {}): {e}", seeds[i])));
            for _ in 0..reps_in_slot(i, jobs) {
                let dir = work.join(format!("setup{}", reps.len()));
                let (_, times) = prepare(&[spec], &dir)?;
                reps.push((times.total(), times));
                std::fs::remove_dir_all(&dir).ok();
            }
            Ok(())
        },
    )?;
    let setup = SetupReport::from_reps(&reps);
    run.provenance_list(
        "setup_reps_s",
        &reps.iter().map(|r| r.0).collect::<Vec<_>>(),
    );
    run.provenance_bool("peak_rss_per_job", sys::reset_peak_rss());
    for outcome in checks {
        run.record(outcome);
    }
    let results = &timed.jobs;
    let wall = timed.wall_s;

    let times: Vec<f64> = results.iter().map(|j| j.seconds).collect();
    run.provenance_list("job_s", &times);
    let job_total: f64 = times.iter().sum();
    let e = &mut run.end_to_end;
    e.set("setup_s", setup.setup_s);
    e.set("wall_s", wall);
    e.set("job_s_p50", median(&times));
    e.set("job_s_p90", quantile(&times, 0.9));
    e.set("jobs_per_s", jobs as f64 / wall);
    e.set("cut_sum", results.iter().map(|j| j.cut).sum());
    e.set(
        "connectivity_sum",
        results.iter().map(|j| j.connectivity).sum(),
    );
    e.set("peak_rss_mb", timed.peak_rss_mb);

    let l = &mut run.per_layer;
    l.set("netlist.generate_s", setup.generate_s);
    l.set("netlist.hgr_parse_s", setup.hgr_parse_s);
    l.set("netlist.hgb_write_s", setup.hgb_write_s);
    l.set("netlist.hgb_load_s", setup.hgb_load_s);
    l.set("parallel.cpu_per_wall", timed.cpu_s / wall);
    l.set("verify.recount_s", recount_s / jobs as f64);
    l.set("verify.recount_share", recount_s / job_total);
    if !trace {
        return Ok(());
    }

    // Traced pass over the same job list: must reproduce every result.
    let mut layers = Layers::default();
    let mut mismatches = Vec::new();
    let traced = run_list(
        kind,
        &graph,
        balance,
        &seeds,
        |seed| TracedVcycle::new(ml_config(kind, seed, THREADS)),
        |i, job, engine| {
            layers.add(&engine.layers());
            if job.cut != results[i].cut || job.hash != results[i].hash {
                mismatches.push(format!("job {i}: the traced engine changed the result"));
            }
            Ok(())
        },
    )?;
    let traced_total: f64 = traced.jobs.iter().map(|j| j.seconds).sum();
    let kway_overhead = if kind == Kind::Kway {
        traced_total - layers.vcycle_s
    } else {
        0.0
    };
    fill_layers(
        &mut run.per_layer,
        &layers,
        jobs as f64,
        traced_total,
        kway_overhead,
    );
    let l = &mut run.per_layer;
    if kind == Kind::Kway {
        l.set("kway.s", traced_total / jobs as f64);
        l.set("kway.nodes", layers.vcycles as f64 / jobs as f64);
        l.set("kway.engine_s", layers.vcycle_s / jobs as f64);
        l.set("kway.overhead_s", kway_overhead / jobs as f64);
    }
    l.set("trace.base_job_s", job_total / jobs as f64);
    l.set("trace.overhead_ratio", traced_total / job_total - 1.0);

    // 1-worker baseline on a prefix of the job list: same results, and
    // the 2-worker speed-up over it.
    let prefix = jobs.div_ceil(3);
    let single = run_list(
        kind,
        &graph,
        balance,
        &seeds[..prefix],
        production(kind, 1),
        |i, job, _| {
            if job.cut != results[i].cut || job.hash != results[i].hash {
                mismatches.push(format!("job {i}: 1 and {THREADS} intra workers disagree"));
            }
            Ok(())
        },
    )?;
    for message in mismatches {
        run.problem(message);
    }
    let one: f64 = single.jobs.iter().map(|j| j.seconds).sum();
    let two: f64 = results[..prefix].iter().map(|j| j.seconds).sum();
    run.per_layer.set("parallel.speedup_2w", one / two);
    run.provenance_num("speedup_baseline_jobs", prefix as f64);
    Ok(())
}
