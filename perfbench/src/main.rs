//! The benchmark binary. `run.py` builds and runs it; see `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --work-dir <dir> [--rev <source revision>]
//! ```
//!
//! Prints a metric table, a provenance record and, as the last line, the
//! result object. Exits 1 when any result fails its check.

mod batch;
mod layers;
mod report;
mod serve;
mod setup;
mod sys;

use report::Run;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["vcycle-golem3", "kway8-flow-golem3", "serve-suite"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        work_dir: PathBuf::new(),
        rev: "unknown".into(),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--rev" => args.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0.0 || args.work_dir.as_os_str().is_empty() {
        return Err("--seconds and --work-dir are required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new();
    run.provenance_str("workload", &args.workload);
    run.provenance_num("seed", args.seed as f64);
    run.provenance_num("seconds", args.seconds);
    run.provenance_bool("trace", args.trace);
    run.provenance_str("rev", &args.rev);
    run.provenance_num("nproc", sys::nproc() as f64);

    let probe_before = sys::host_probe_s();
    let work = args
        .work_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = match args.workload.as_str() {
        "serve-suite" => serve::run(args.seed, args.seconds, args.trace, &work, &mut run),
        name => {
            let kind = if name == "vcycle-golem3" {
                batch::Kind::Vcycle
            } else {
                batch::Kind::Kway
            };
            batch::run(kind, args.seed, args.seconds, args.trace, &work, &mut run)
        }
    };
    std::fs::remove_dir_all(&work).ok();
    run.provenance_list("host_probe_s", &[probe_before, sys::host_probe_s()]);
    if let Err(message) = outcome {
        eprintln!("perfbench: {}: {message}", args.workload);
        return ExitCode::FAILURE;
    }
    let verified = (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64;
    run.end_to_end.set("verified_ratio", verified);
    // The quality sums in both modes, so that traced and untraced runs of
    // a seed can be compared.
    for name in ["cut_sum", "connectivity_sum"] {
        let value = run.end_to_end.get(name);
        run.provenance_num(name, value);
    }

    for problem in &run.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let table = if args.trace {
        run.per_layer.table()
    } else {
        run.end_to_end.table()
    };
    print!(
        "{} (seed {}, {} jobs checked)\n{table}",
        args.workload, args.seed, run.attempted
    );
    println!("{}", run.provenance_json());
    println!("{}", run.result_json(args.trace));
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
