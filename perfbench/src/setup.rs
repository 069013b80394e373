//! Input preparation: proxy generation, `.hgr` → `.hgb` ingest and mmap
//! load, timed step by step and repeated so that the reported set-up
//! time is a median over identical repetitions.

use crate::sys::{median, since};
use prop_netlist::suite::CircuitSpec;
use prop_netlist::{format, hgb, Hypergraph};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Identical set-up repetitions per run; `setup_s` is their median. The
/// first makes the inputs the jobs use. The others are spread over the
/// rest of the run, between jobs and outside their timing, so that the
/// median samples the host over the whole run and not only its first
/// second (see [`reps_in_slot`]).
pub const SETUP_REPS: usize = 48;

/// How many of the `SETUP_REPS - 1` later repetitions run in gap `slot`
/// of `slots` gaps between the jobs: as evenly as the counts allow.
pub fn reps_in_slot(slot: usize, slots: usize) -> usize {
    let later = SETUP_REPS - 1;
    (slot + 1) * later / slots - slot * later / slots
}

/// One circuit, ready for jobs.
pub struct Prepared {
    /// Suite name.
    pub name: &'static str,
    /// The graph loaded from the `.hgb` snapshot.
    pub graph: Hypergraph,
    /// The `.hgr` text the graph was ingested from (inline submits send it).
    pub hgr: String,
    /// The `.hgb` snapshot on disk.
    pub hgb_path: PathBuf,
}

/// Seconds spent in each netlist step of one repetition, summed over
/// its circuits.
#[derive(Clone, Copy, Default)]
pub struct StepTimes {
    pub generate_s: f64,
    pub hgr_write_s: f64,
    pub hgr_parse_s: f64,
    pub hgb_write_s: f64,
    pub hgb_load_s: f64,
}

impl StepTimes {
    /// The repetition's whole netlist time.
    pub fn total(&self) -> f64 {
        self.generate_s + self.hgr_write_s + self.hgr_parse_s + self.hgb_write_s + self.hgb_load_s
    }
}

/// One repetition: its whole time in seconds and its netlist steps.
pub type Rep = (f64, StepTimes);

/// Medians of the step times over the repetitions of a run.
pub struct SetupReport {
    /// Median whole-repetition time.
    pub setup_s: f64,
    pub generate_s: f64,
    pub hgr_parse_s: f64,
    pub hgb_write_s: f64,
    pub hgb_load_s: f64,
}

impl SetupReport {
    /// Summarises repetitions given as (total seconds, step times).
    pub fn from_reps(reps: &[Rep]) -> SetupReport {
        let pick =
            |f: fn(&StepTimes) -> f64| median(&reps.iter().map(|r| f(&r.1)).collect::<Vec<_>>());
        SetupReport {
            setup_s: median(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
            generate_s: pick(|s| s.generate_s),
            hgr_parse_s: pick(|s| s.hgr_parse_s),
            hgb_write_s: pick(|s| s.hgb_write_s),
            hgb_load_s: pick(|s| s.hgb_load_s),
        }
    }
}

/// Generates each circuit's proxy, writes it as `.hgr`, ingests that into
/// a `.hgb` snapshot under `dir` and loads the snapshot back through the
/// mmap loader. Checks that every round trip returns the generated graph
/// (outside the timed steps).
pub fn prepare(specs: &[CircuitSpec], dir: &Path) -> Result<(Vec<Prepared>, StepTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut times = StepTimes::default();
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let generated = spec.instantiate().map_err(|e| e.to_string())?;
        times.generate_s += since(t);

        let hgr_path = dir.join(format!("{}.hgr", spec.name));
        let t = Instant::now();
        std::fs::write(&hgr_path, format::write_hgr(&generated))
            .map_err(|e| format!("cannot write {}: {e}", hgr_path.display()))?;
        times.hgr_write_s += since(t);

        let t = Instant::now();
        let hgr = std::fs::read_to_string(&hgr_path)
            .map_err(|e| format!("cannot read {}: {e}", hgr_path.display()))?;
        let parsed = format::parse_hgr(&hgr).map_err(|e| format!("{}: {e}", spec.name))?;
        times.hgr_parse_s += since(t);

        let hgb_path = dir.join(format!("{}.hgb", spec.name));
        let t = Instant::now();
        hgb::write_hgb_file(&parsed, &hgb_path)
            .map_err(|e| format!("cannot write {}: {e}", hgb_path.display()))?;
        times.hgb_write_s += since(t);

        let t = Instant::now();
        let (graph, _) = hgb::load_hgb(&hgb_path).map_err(|e| format!("{}: {e}", spec.name))?;
        times.hgb_load_s += since(t);

        if parsed != generated || graph != generated {
            return Err(format!(
                "{}: the .hgr/.hgb round trip changed the graph",
                spec.name
            ));
        }
        out.push(Prepared {
            name: spec.name,
            graph,
            hgr,
            hgb_path,
        });
    }
    Ok((out, times))
}
