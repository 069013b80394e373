//! `serve-suite`: the paper's Table-2 comparison served by the daemon.
//!
//! An in-process `prop_serve` daemon with 2 workers serves every Table-1
//! proxy × {`prop`, `fm`, `ml`} as best-of-`RUNS` jobs to 2 closed-loop
//! client connections. Half of the submits name a circuit uploaded to
//! the store at set-up (`circuit_id`, the read path); the other half
//! carry the `.hgr` text inline (`payload`, parsed per job). Every
//! (circuit, engine, source) combination appears equally often; the
//! workload seed sets the job order and the job seeds.

use crate::layers::{FlatKind, Layers, TracedFlat, TracedVcycle};
use crate::report::{fill_layers, Run};
use crate::setup::{prepare, reps_in_slot, Prepared, Rep, SetupReport, SETUP_REPS};
use crate::sys::{self, job_seed, median, quantile, since};
use prop_core::{BalanceConstraint, Partitioner, Prop, PropConfig, RunResult};
use prop_fm::FmBucket;
use prop_multilevel::{Multilevel, MultilevelConfig};
use prop_serve::{server, Client, Json, ServerConfig, ServerHandle, SubmitRequest, UploadRequest};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const ENGINES: [&str; 3] = ["prop", "fm", "ml"];
/// Best-of-R multi-start runs per job.
const RUNS: usize = 4;
/// Daemon workers and client connections.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Nominal seconds of one block (every combination once from the store
/// and once inline) and of its check, which replays every job: this
/// turns `--seconds` into a block count.
const BLOCK_S: f64 = 9.0;
/// The check replays the job list in this many segments, with set-up
/// repetitions between them.
const CHECK_SEGMENTS: usize = 16;
const R1: f64 = 0.45;
const R2: f64 = 0.55;
const SALT: u64 = 0x0073_6572_7665;

struct Job {
    circuit: usize,
    engine: &'static str,
    inline: bool,
    seed: u64,
}

/// The daemon's answer to one submit.
struct Reply {
    rtt_s: f64,
    run_s: f64,
    cut: f64,
    hash: u64,
}

fn start_daemon(circuits: &[Prepared], store: &Path) -> Result<ServerHandle, String> {
    let handle = server::start(&ServerConfig {
        workers: WORKERS,
        store_dir: Some(store.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    for c in circuits {
        let reply = client
            .upload(&UploadRequest {
                circuit: c.name.to_string(),
                fmt: "hgb".into(),
                payload: None,
                path: Some(c.hgb_path.to_string_lossy().into_owned()),
            })
            .map_err(|e| format!("upload {}: {e}", c.name))?;
        if reply.get("nodes").and_then(Json::as_u64) != Some(c.graph.num_nodes() as u64) {
            return Err(format!(
                "upload {}: unexpected reply {}",
                c.name,
                reply.render()
            ));
        }
    }
    Ok(handle)
}

fn stop_daemon(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// One set-up repetition: proxies, ingest and load, then daemon start
/// and store uploads. Returns the circuits, the running daemon and the
/// repetition's times.
fn set_up(
    specs: &[prop_netlist::suite::CircuitSpec],
    dir: &Path,
) -> Result<(Vec<Prepared>, ServerHandle, Rep), String> {
    let (circuits, times) = prepare(specs, dir)?;
    let t = Instant::now();
    let handle = start_daemon(&circuits, &dir.join("store"))?;
    let total = times.total() + since(t);
    Ok((circuits, handle, (total, times)))
}

fn request(job: &Job, circuit: &Prepared) -> String {
    let mut submit = SubmitRequest {
        engine: job.engine.into(),
        runs: RUNS,
        seed: job.seed,
        r1: R1,
        r2: R2,
        wait: true,
        ..SubmitRequest::default()
    };
    if job.inline {
        submit.payload = circuit.hgr.clone();
    } else {
        submit.circuit_id = circuit.name.to_string();
    }
    submit.render()
}

fn parse_reply(reply: &Json, rtt_s: f64) -> Result<Reply, String> {
    if reply.get("status").and_then(Json::as_str) != Some("completed") {
        return Err(format!("daemon answered {}", reply.render()));
    }
    let field = |k: &str| {
        reply
            .get(k)
            .ok_or_else(|| format!("reply lacks {k}: {}", reply.render()))
    };
    Ok(Reply {
        rtt_s,
        run_s: field("wall_ms")?
            .as_f64()
            .ok_or("wall_ms is not a number")?
            / 1e3,
        cut: field("cut")?.as_f64().ok_or("cut is not a number")?,
        hash: field("assignment_hash")?
            .as_str()
            .and_then(prop_serve::json::parse_hex64)
            .ok_or("assignment_hash is not a hex64")?,
    })
}

/// Runs `f` over every job index on one thread per worker state; each
/// thread takes the next index as soon as its previous one is done.
fn closed_loop<S: Send, T: Send>(
    states: Vec<S>,
    n: usize,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for mut state in states {
            let (next, out, f) = (&next, &out, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    break;
                }
                let value = f(&mut state, i);
                out.lock().expect("result slots lock")[i] = Some(value);
            });
        }
    });
    out.into_inner()
        .expect("result slots lock")
        .into_iter()
        .map(|v| v.expect("every index ran"))
        .collect()
}

/// The direct library call a job corresponds to, with the engine
/// possibly wrapped for tracing. Returns the result and its layers.
fn direct(
    job: &Job,
    graph: &prop_netlist::Hypergraph,
    traced: bool,
) -> Result<(RunResult, Layers), String> {
    let balance = BalanceConstraint::weighted(R1, R2, graph).map_err(|e| e.to_string())?;
    let run = |p: &dyn Partitioner| {
        p.run_multi(graph, balance, RUNS, job.seed)
            .map_err(|e| e.to_string())
    };
    let ml = MultilevelConfig {
        seed: job.seed,
        ..MultilevelConfig::default()
    };
    match (job.engine, traced) {
        ("prop", false) => Ok((
            run(&Prop::new(PropConfig::calibrated()))?,
            Layers::default(),
        )),
        ("fm", false) => Ok((run(&FmBucket::default())?, Layers::default())),
        ("ml", false) => Ok((run(&Multilevel::standard(ml))?, Layers::default())),
        ("prop", true) => {
            let p = TracedFlat::new(Prop::new(PropConfig::calibrated()), FlatKind::Prop);
            Ok((run(&p)?, p.layers()))
        }
        ("fm", true) => {
            let p = TracedFlat::new(FmBucket::default(), FlatKind::Fm);
            Ok((run(&p)?, p.layers()))
        }
        ("ml", true) => {
            let p = TracedVcycle::new(ml);
            Ok((run(&p)?, p.layers()))
        }
        (other, _) => Err(format!("unknown engine {other}")),
    }
}

/// Replays the jobs in `range` directly and checks the daemon's answers
/// against them and against the oracles. Returns per-job seconds, recount
/// seconds and layers.
fn replay(
    jobs: &[Job],
    replies: &[Result<Reply, String>],
    circuits: &[Prepared],
    traced: bool,
    range: Range<usize>,
) -> Vec<Result<(f64, f64, Layers), String>> {
    closed_loop(vec![(); CONNECTIONS], range.len(), |(), k| {
        let i = range.start + k;
        let job = &jobs[i];
        let reply = replies[i].as_ref().map_err(Clone::clone)?;
        let graph = &circuits[job.circuit].graph;
        let t = Instant::now();
        let (result, layers) = direct(job, graph, traced)?;
        let seconds = since(t);
        let t = Instant::now();
        let hash = prop_serve::engine::assignment_hash(result.partition.sides());
        let balance = BalanceConstraint::weighted(R1, R2, graph).map_err(|e| e.to_string())?;
        let recount = prop_verify::oracle::naive_cut(graph, &result.partition);
        let feasible = prop_verify::oracle::naive_is_feasible(graph, &result.partition, balance);
        let recount_s = since(t);
        let name = circuits[job.circuit].name;
        if reply.cut != result.cut_cost || reply.hash != hash {
            return Err(format!(
                "{name}/{} seed {}: daemon cut {} hash {:016x}, direct cut {} hash {hash:016x}",
                job.engine, job.seed, reply.cut, reply.hash, result.cut_cost
            ));
        }
        if recount != result.cut_cost || !feasible {
            return Err(format!(
                "{name}/{} seed {}: oracle cut {recount} (reported {}), feasible {feasible}",
                job.engine, job.seed, result.cut_cost
            ));
        }
        Ok((seconds, recount_s, layers))
    })
}

/// Runs `serve-suite` and fills `run`.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path, run: &mut Run) -> Result<(), String> {
    let specs = prop_netlist::suite::table1();

    // Set-up: the first repetition's daemon serves the timed phase; the
    // others run between the segments of the check.
    let mut reps: Vec<Rep> = Vec::with_capacity(SETUP_REPS);
    let (circuits, handle, times) = set_up(&specs, &work.join("setup0"))?;
    reps.push(times);

    let blocks = ((seconds / BLOCK_S).round() as usize).max(1);
    let mut jobs = Vec::new();
    for _ in 0..blocks {
        for circuit in 0..circuits.len() {
            for engine in ENGINES {
                for inline in [false, true] {
                    jobs.push(Job {
                        circuit,
                        engine,
                        inline,
                        seed: 0,
                    });
                }
            }
        }
    }
    sys::shuffle(&mut jobs, job_seed(seed, SALT, u64::MAX));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.seed = job_seed(seed, SALT, i as u64);
    }
    let graphs: Vec<(&str, &prop_netlist::Hypergraph)> =
        circuits.iter().map(|c| (c.name, &c.graph)).collect();
    run.provenance_circuits(&graphs);
    run.provenance_num("jobs", jobs.len() as f64);
    run.provenance_num("daemon_workers", WORKERS as f64);
    run.provenance_num("connections", CONNECTIONS as f64);
    run.provenance_num("runs_per_job", RUNS as f64);

    // Timed phase: 2 closed-loop connections against the 2 workers.
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        clients.push(Client::connect(handle.addr()).map_err(|e| format!("cannot connect: {e}"))?);
    }
    let peak_reset = sys::reset_peak_rss();
    let cpu0 = sys::cpu_seconds();
    let t = Instant::now();
    let replies = closed_loop(clients, jobs.len(), |client, i| {
        let line = request(&jobs[i], &circuits[jobs[i].circuit]);
        let sent = Instant::now();
        let reply = client.roundtrip(&line);
        let rtt_s = since(sent);
        reply
            .map_err(|e| e.to_string())
            .and_then(|r| parse_reply(&r, rtt_s))
    });
    let wall = since(t);
    let cpu = sys::cpu_seconds() - cpu0;
    let peak_rss = sys::peak_rss_mb();
    stop_daemon(handle);
    run.provenance_bool("peak_rss_reset_after_setup", peak_reset);

    // Correctness: every answer against the direct library call, in
    // segments with the later set-up repetitions between them.
    let n_jobs = jobs.len();
    let segments = CHECK_SEGMENTS.min(n_jobs);
    let mut checked = Vec::with_capacity(n_jobs);
    for segment in 0..segments {
        let range = segment * n_jobs / segments..(segment + 1) * n_jobs / segments;
        checked.extend(replay(&jobs, &replies, &circuits, false, range));
        for _ in 0..reps_in_slot(segment, segments) {
            let dir = work.join(format!("setup{}", reps.len()));
            let (_, handle, times) = set_up(&specs, &dir)?;
            stop_daemon(handle);
            reps.push(times);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let setup = SetupReport::from_reps(&reps);
    run.provenance_list(
        "setup_reps_s",
        &reps.iter().map(|r| r.0).collect::<Vec<_>>(),
    );
    let mut direct_total = 0.0;
    let mut recount_total = 0.0;
    for (i, outcome) in checked.iter().enumerate() {
        if let Ok((s, r, _)) = outcome {
            direct_total += s;
            recount_total += r;
        }
        run.record(
            outcome
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("job {i}: {e}")),
        );
    }

    let ok: Vec<&Reply> = replies.iter().filter_map(|r| r.as_ref().ok()).collect();
    let rtts: Vec<f64> = ok.iter().map(|r| r.rtt_s).collect();
    run.provenance_list("job_s", &rtts);
    let n = jobs.len() as f64;
    let e = &mut run.end_to_end;
    e.set("setup_s", setup.setup_s);
    e.set("wall_s", wall);
    e.set("job_s_p50", median(&rtts));
    e.set("job_s_p90", quantile(&rtts, 0.9));
    e.set("jobs_per_s", n / wall);
    let cut_sum: f64 = ok.iter().map(|r| r.cut).sum();
    e.set("cut_sum", cut_sum);
    e.set("connectivity_sum", cut_sum);
    e.set("peak_rss_mb", peak_rss);

    let l = &mut run.per_layer;
    l.set("netlist.generate_s", setup.generate_s);
    l.set("netlist.hgr_parse_s", setup.hgr_parse_s);
    l.set("netlist.hgb_write_s", setup.hgb_write_s);
    l.set("netlist.hgb_load_s", setup.hgb_load_s);
    l.set("parallel.cpu_per_wall", cpu / wall);
    l.set(
        "serve.run_s_p50",
        median(&ok.iter().map(|r| r.run_s).collect::<Vec<_>>()),
    );
    l.set(
        "serve.overhead_s_p50",
        median(&ok.iter().map(|r| r.rtt_s - r.run_s).collect::<Vec<_>>()),
    );
    l.set(
        "serve.store_jobs",
        jobs.iter().filter(|j| !j.inline).count() as f64,
    );
    l.set(
        "serve.inline_jobs",
        jobs.iter().filter(|j| j.inline).count() as f64,
    );
    l.set("verify.recount_s", recount_total / n);
    l.set("verify.recount_share", recount_total / direct_total);
    if !trace {
        return Ok(());
    }

    // Traced replay: the same checks, with every engine call timed.
    let mut layers = Layers::default();
    let mut traced_total = 0.0;
    for (i, outcome) in replay(&jobs, &replies, &circuits, true, 0..n_jobs)
        .into_iter()
        .enumerate()
    {
        match outcome {
            Ok((s, _, l)) => {
                traced_total += s;
                layers.add(&l);
            }
            Err(e) => run.problem(format!("traced job {i}: {e}")),
        }
    }
    fill_layers(&mut run.per_layer, &layers, n, traced_total, 0.0);
    run.per_layer.set("trace.base_job_s", direct_total / n);
    run.per_layer
        .set("trace.overhead_ratio", traced_total / direct_total - 1.0);
    Ok(())
}
