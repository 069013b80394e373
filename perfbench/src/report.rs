//! Metric names, the result of one run, and its JSON rendering.

use crate::layers::Layers;
use prop_netlist::Hypergraph;

/// End-to-end metrics (untraced run), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("jobs_per_s", "1/s"),
    ("cut_sum", "nets"),
    ("connectivity_sum", "nets"),
    ("verified_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("netlist.generate_s", "s"),
    ("netlist.hgr_parse_s", "s"),
    ("netlist.hgb_write_s", "s"),
    ("netlist.hgb_load_s", "s"),
    ("coarsen.s", "s"),
    ("coarsen.levels", "count"),
    ("project.s", "s"),
    ("initial.s", "s"),
    ("refine.s", "s"),
    ("refine.calls", "count"),
    ("refine.passes", "count"),
    ("refine.finest_s", "s"),
    ("vcycle.other_s", "s"),
    ("parallel.speedup_2w", "ratio"),
    ("parallel.cpu_per_wall", "ratio"),
    ("flow.s", "s"),
    ("flow.accepted", "count"),
    ("kway.s", "s"),
    ("kway.nodes", "count"),
    ("kway.engine_s", "s"),
    ("kway.overhead_s", "s"),
    ("prop.s", "s"),
    ("prop.passes", "count"),
    ("fm.s", "s"),
    ("fm.passes", "count"),
    ("serve.run_s_p50", "s"),
    ("serve.overhead_s_p50", "s"),
    ("serve.store_jobs", "count"),
    ("serve.inline_jobs", "count"),
    ("verify.recount_s", "s"),
    ("verify.recount_share", "ratio"),
    ("trace.base_job_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
];

/// Named values with units.
pub struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    fn new(spec: &[(&'static str, &'static str)]) -> Metrics {
        Metrics(spec.iter().map(|&(name, unit)| (name, unit, 0.0)).collect())
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// On a name missing from the metric list: a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        slot.2 = value;
    }

    /// A metric's value.
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2)
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, unit, value)| format!("  {name:<26} {value:>16.6} {unit}\n"))
            .collect()
    }
}

/// A finite number in JSON, every digit kept.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Everything one run reports.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    provenance: Vec<(String, String)>,
}

impl Run {
    pub fn new() -> Run {
        Run {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            end_to_end: Metrics::new(&END_TO_END),
            per_layer: Metrics::new(&PER_LAYER),
            provenance: Vec::new(),
        }
    }

    /// Counts one attempted job and whether it completed and verified.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.problems.push(message);
        }
    }

    /// A correctness failure that is not a job of its own.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn provenance_num(&mut self, key: &str, value: f64) {
        self.provenance.push((key.into(), number(value)));
    }

    pub fn provenance_list(&mut self, key: &str, values: &[f64]) {
        let list: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.provenance
            .push((key.into(), format!("[{}]", list.join(", "))));
    }

    pub fn provenance_bool(&mut self, key: &str, value: bool) {
        self.provenance.push((key.into(), value.to_string()));
    }

    pub fn provenance_str(&mut self, key: &str, value: &str) {
        self.provenance
            .push((key.into(), format!("\"{}\"", value.escape_default())));
    }

    pub fn provenance_circuits(&mut self, circuits: &[(&str, &Hypergraph)]) {
        let list: Vec<String> = circuits
            .iter()
            .map(|(name, g)| {
                format!(
                    "{{\"name\": \"{name}\", \"nodes\": {}, \"nets\": {}, \"pins\": {}}}",
                    g.num_nodes(),
                    g.num_nets(),
                    g.num_pins()
                )
            })
            .collect();
        self.provenance
            .push(("circuits".into(), format!("[{}]", list.join(", "))));
    }

    /// The provenance record as one JSON object.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.json()
        )
    }
}

/// Fills the V-cycle and engine layer metrics from traced totals over
/// `jobs` jobs that took `job_s` seconds in all. `outside_s` is time
/// booked to a layer outside the V-cycle (the k-way driver), so that
/// what remains is the time no span accounts for.
pub fn fill_layers(m: &mut Metrics, l: &Layers, jobs: f64, job_s: f64, outside_s: f64) {
    let per_job = |v: f64| v / jobs;
    m.set("coarsen.s", per_job(l.coarsen_s));
    if l.vcycles > 0 {
        m.set("coarsen.levels", l.refine_calls as f64 / l.vcycles as f64);
    }
    m.set("project.s", per_job(l.project_s));
    m.set("initial.s", per_job(l.initial_s));
    m.set("refine.s", per_job(l.refine_s));
    m.set("refine.calls", per_job(l.refine_calls as f64));
    m.set("refine.passes", per_job(l.refine_passes as f64));
    m.set("refine.finest_s", per_job(l.refine_finest_s));
    m.set("flow.s", per_job(l.flow_s));
    m.set("flow.accepted", per_job(l.flow_accepted as f64));
    m.set("prop.s", per_job(l.prop_s));
    m.set("prop.passes", per_job(l.prop_passes as f64));
    m.set("fm.s", per_job(l.fm_s));
    m.set("fm.passes", per_job(l.fm_passes as f64));
    let unaccounted = job_s - l.accounted_s() - outside_s;
    m.set("vcycle.other_s", per_job(unaccounted));
    m.set("trace.unaccounted_ratio", unaccounted / job_s);
}
