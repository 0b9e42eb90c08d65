//! End-to-end benchmark of the Sybil-resistant truth discovery pipeline.
//!
//! ```text
//! perfbench --workload <campaign_batch|fingerprint_enroll|serve_stream>
//!           --seed N --seconds S --trace 0|1 --server PATH [--out DIR]
//! ```
//!
//! Every input is generated from `--seed`. The workload runs for about
//! `--seconds`, checks its outputs, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records spans
//! around each call into the program and prints the per-layer metrics,
//! writing the spans and per-pass layer breakdowns under `--out`.
//! `perfbench/README.md` defines every metric per workload.

mod batch;
mod campaign;
mod enroll;
mod host;
mod http;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Passes a batch workload makes even when `--seconds` runs out first.
pub const MIN_PASSES: usize = 5;
/// Reads a batch workload makes at least, so `read_p50_ms` has ten
/// samples beyond it.
pub const MIN_READS: usize = 20;

/// End-to-end metrics with their units, printed by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p99_ms", "ms"),
    ("bulk_reports_per_s", "reports/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units, printed by every `--trace 1` run;
/// a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.http.requests", "count"),
    ("server.http.busy_ms", "ms"),
    ("server.http.wait_ms", "ms"),
    ("server.http.bytes_in", "bytes"),
    ("server.http.bytes_out", "bytes"),
    ("runtime.json.parse_us_per_report.upload", "us"),
    ("runtime.json.parse_us_per_report.bulk", "us"),
    ("runtime.json.render_ms", "ms"),
    ("platform.epoch.ms", "ms"),
    ("platform.epoch.fold_ms", "ms"),
    ("platform.epoch.regroup_ms", "ms"),
    ("platform.epoch.discover_ms", "ms"),
    ("platform.epoch.audit_ms", "ms"),
    ("platform.epoch.swap_ms", "ms"),
    ("platform.epoch.dirty_accounts", "count"),
    ("platform.epoch.rebuilds", "count"),
    ("platform.epoch.lock_share", "ratio"),
    ("platform.ingest.ns_per_report", "ns"),
    ("platform.ingest.rejected", "count"),
    ("truth.fold.ms", "ms"),
    ("truth.fold.reports", "count"),
    ("core.ag_ts.candidate_ms", "ms"),
    ("core.ag_ts.candidates", "count"),
    ("core.ag_ts.decide_ms", "ms"),
    ("core.ag_ts.edges", "count"),
    ("core.ag_ts.edge_yield", "ratio"),
    ("core.ag_tr.candidate_ms", "ms"),
    ("core.ag_tr.candidates", "count"),
    ("core.ag_tr.decide_ms", "ms"),
    ("core.ag_tr.edges", "count"),
    ("core.ag_tr.edge_yield", "ratio"),
    ("timeseries.dtw.lb_kim_pruned", "count"),
    ("timeseries.dtw.lb_keogh_pruned", "count"),
    ("timeseries.dtw.early_abandoned", "count"),
    ("timeseries.dtw.full_evals", "count"),
    ("graph.union_find.ms", "ms"),
    ("graph.components", "count"),
    ("core.framework.ms", "ms"),
    ("core.framework.iterations", "count"),
    ("core.framework.warm_started", "count"),
    ("platform.audit.ms", "ms"),
    ("platform.audit.targets", "count"),
    ("core.ag_fp.rings_split", "count"),
    ("fingerprint.extract.us_per_account", "us"),
    ("signal.fft.real_pair_calls", "count"),
    ("cluster.kmeans.ms", "ms"),
    ("cluster.kmeans.iterations", "count"),
    ("cluster.kmeans.distance_evals", "count"),
    ("cluster.kmeans.skipped_by_norm", "count"),
    ("runtime.pool.jobs", "count"),
    ("runtime.pool.wakeups", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.open.sent", "count"),
    ("loadgen.open.succeeded", "count"),
    ("loadgen.open.failed", "count"),
    ("loadgen.bulk.sent", "count"),
    ("loadgen.bulk.succeeded", "count"),
    ("loadgen.bulk.failed", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.attributed_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One invocation's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: PathBuf,
}

/// The `'static` name of a listed metric.
///
/// # Panics
///
/// Panics on a name neither list holds — a bug in a workload.
pub fn metric_name(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("unlisted metric `{name}`"))
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn insert(&mut self, name: &str, value: f64) {
        self.0.insert(metric_name(name), value);
    }

    /// Inserts `<what>_p<p>_ms` for each percentile, each refused unless
    /// ten samples lie beyond it.
    pub fn latency(&mut self, what: &str, ms: &[f64], percentiles: &[f64]) -> Result<(), String> {
        for &p in percentiles {
            self.insert(&format!("{what}_p{p}_ms"), stats::percentile(ms, p, what)?);
        }
        Ok(())
    }
}

/// One traced pass split by layer: the layers' self times (signed ns)
/// add up to `wall_ns`, the unattributed remainder included.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub wall_ns: u64,
    pub layers: BTreeMap<&'static str, i128>,
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Traced passes (empty with `--trace 0`).
    pub breakdowns: Vec<Breakdown>,
}

/// The median of a non-empty sample.
pub fn median_of(values: &[f64]) -> f64 {
    stats::median(values).expect("median of an empty sample")
}

/// FNV-1a over 64-bit words: a run-stable digest of published output.
pub fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Sybil rings as sorted account lists, one per owner with Sybil
/// accounts.
pub fn rings_of(owners: &[usize], is_sybil: &[bool]) -> Vec<Vec<usize>> {
    let mut rings: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (account, (&owner, &sybil)) in owners.iter().zip(is_sybil).enumerate() {
        if sybil {
            rings.entry(owner).or_default().push(account);
        }
    }
    rings.into_values().collect()
}

fn parse_args(args: &[String]) -> Result<(String, Run, Option<PathBuf>), String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let run = Run {
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds,
        trace,
        server: get("server")?.into(),
    };
    Ok((
        get("workload")?.clone(),
        run,
        flags.get("out").map(PathBuf::from),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "campaign_batch" => campaign::run(&run),
        "fingerprint_enroll" => enroll::run(&run),
        "serve_stream" => serve::run(&run),
        other => Err(format!("unknown workload `{other}`")),
    };
    let spans = if run.trace {
        trace::finish()
    } else {
        Vec::new()
    };
    let outcome = match result.and_then(|o| finish(o, &run, &workload, &spans, out)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &outcome.failures {
        eprintln!("perfbench: {workload}: check failed: {f}");
    }
    let listed = if run.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, &(name, unit)) in listed.iter().enumerate() {
        let value = outcome.metrics.0[name];
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Completes the metric set, checks and records the traced breakdowns.
fn finish(
    mut o: Outcome,
    run: &Run,
    workload: &str,
    spans: &[trace::SpanRec],
    out: Option<PathBuf>,
) -> Result<Outcome, String> {
    if run.trace {
        if o.breakdowns.is_empty() {
            return Err("the traced run recorded no pass".into());
        }
        for b in &o.breakdowns {
            let sum: i128 = b.layers.values().sum();
            if sum != i128::from(b.wall_ns) {
                o.failures.push(format!(
                    "layers add up to {sum} ns of a {} ns pass",
                    b.wall_ns
                ));
            }
        }
        // The trace.* figures come from one pass, the median by wall time,
        // so they add up: attributed + unattributed = wall.
        let mut by_wall: Vec<&Breakdown> = o.breakdowns.iter().collect();
        by_wall.sort_by_key(|b| b.wall_ns);
        let mid = by_wall[(by_wall.len() - 1) / 2];
        let rest = mid.layers.get(trace::UNATTRIBUTED).copied().unwrap_or(0);
        o.metrics.insert("trace.wall_ms", mid.wall_ns as f64 / 1e6);
        o.metrics.insert("trace.unattributed_ms", rest as f64 / 1e6);
        o.metrics.insert(
            "trace.attributed_ms",
            (i128::from(mid.wall_ns) - rest) as f64 / 1e6,
        );
        if let Some(dir) = out {
            let path = write_trace(&dir, workload, run.seed, spans, &o.breakdowns)?;
            eprintln!("perfbench: spans written to {}", path.display());
        }
        for &(name, _) in PER_LAYER {
            o.metrics.0.entry(name).or_insert(0.0);
        }
    }
    let listed = if run.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in listed {
        match o.metrics.0.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {name} is {v}")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(o)
}

/// Writes the recorded spans (with self times) and the per-pass layer
/// breakdowns as one JSON document.
fn write_trace(
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[trace::SpanRec],
    breakdowns: &[Breakdown],
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let own = trace::self_times(spans);
    let mut doc = String::from("{\"spans\": [");
    for (i, (s, self_ns)) in spans.iter().zip(&own).enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            doc,
            "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {self_ns}}}",
            s.name, s.start_ns, s.end_ns
        )
        .expect("string write");
    }
    doc.push_str("\n], \"passes\": [");
    for (i, b) in breakdowns.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let layers: Vec<String> = b
            .layers
            .iter()
            .map(|(layer, ns)| format!("\"{layer}\": {ns}"))
            .collect();
        write!(
            doc,
            "{sep}{{\"wall_ns\": {}, \"self_ns_by_layer\": {{{}}}}}",
            b.wall_ns,
            layers.join(", ")
        )
        .expect("string write");
    }
    doc.push_str("\n]}\n");
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
