//! The pass loop the two in-process workloads share: repeated passes over
//! inputs built during set-up, result reads after each pass, output
//! checks, and in a traced run the per-layer samples of every pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sybil_td::runtime::{obs, pool};

use crate::host::{Mix, Speed, BALANCED};
use crate::trace::{self, Node};
use crate::{median_of, Breakdown, Metrics, Outcome, Run, MIN_PASSES, MIN_READS, SETUPS};

/// What one pass measured.
pub struct Pass<O> {
    pub wall_ns: u64,
    /// Time of the intake stage: ingest, or feature extraction.
    pub intake_ns: u64,
    /// Per account: how long its intake took.
    pub per_account_ns: Vec<u64>,
    /// Per account: from its intake's end to the result's publication.
    pub fresh_ns: Vec<u64>,
    pub output: O,
}

/// One in-process workload.
pub trait Batch {
    type Output;
    /// Result reads rendered after each pass.
    const READS_PER_PASS: usize;
    /// The host reference this workload's times are scaled by.
    const REFERENCE: Mix;
    /// Inputs one pass takes in (reports or captures).
    fn items(&self) -> usize;
    fn pass(&self) -> Result<Pass<Self::Output>, String>;
    /// The published result as a reader receives it.
    fn render(&self, output: &Self::Output) -> String;
    fn digest(&self, output: &Self::Output) -> u64;
    /// Checks of the first measured pass's output.
    fn check(&self, output: &Self::Output, failures: &mut Vec<String>);
    /// In a traced run, right after a pass: its attribution tree, with
    /// the layer samples handed to `sample`.
    fn layers(
        &self,
        pass: &Pass<Self::Output>,
        sample: &mut dyn FnMut(&str, f64),
    ) -> Result<Node, String>;
}

fn read_ms<B: Batch>(b: &B, output: &B::Output) -> f64 {
    let t = Instant::now();
    let doc = {
        let _s = trace::span("runtime.json.render");
        b.render(output)
    };
    black_box(doc.len());
    t.elapsed().as_secs_f64() * 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Each account's median over the passes, in ms. The host stalls a pass
/// at random moments, so a stall lands on different accounts in different
/// passes; the median keeps each account's own cost, and the percentiles
/// across accounts then describe the accounts, not the stalls.
fn per_account_medians(passes: &[Vec<u64>]) -> Vec<f64> {
    (0..passes.first().map_or(0, Vec::len))
        .map(|a| median_of(&passes.iter().map(|p| ms(p[a])).collect::<Vec<_>>()))
        .collect()
}

/// Sets the workload up [`SETUPS`] times, then makes passes for
/// `run.seconds` (at least [`MIN_PASSES`]).
pub fn run<B: Batch>(run: &Run, setup: impl Fn(u64) -> B) -> Result<Outcome, String> {
    let mut setup_speed = Speed::new(BALANCED);
    let mut speed = Speed::new(B::REFERENCE);
    let mut setup_s = Vec::new();
    let mut b = None;
    for _ in 0..SETUPS {
        drop(b.take());
        setup_speed.sample(2);
        let t = Instant::now();
        let fresh = setup(run.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        b = Some(fresh);
    }
    let b = b.expect("at least one set-up");

    // One unmeasured pass warms caches and the worker pool; a traced run
    // also times untraced passes to compare its traced ones with.
    let mut untraced_ms = vec![ms(b.pass()?.wall_ns)];
    if run.trace {
        let deadline = Instant::now() + Duration::from_secs_f64(run.seconds / 3.0);
        while untraced_ms.len() < 4 || Instant::now() < deadline {
            untraced_ms.push(ms(b.pass()?.wall_ns));
        }
        trace::start();
    }

    let mut failures = Vec::new();
    let mut pass_ms = Vec::new();
    let mut per_s = Vec::new();
    let mut reads_ms = Vec::new();
    let mut per_account_ns = Vec::new();
    let mut fresh_ns = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut breakdowns = Vec::new();
    let mut first_digest = None;
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    while pass_ms.len() < MIN_PASSES || Instant::now() < deadline {
        speed.sample(1);
        let pool_before = pool::stats();
        obs::reset();
        let p = b.pass()?;
        if run.trace {
            let pool_after = pool::stats();
            let mut sample = |name: &str, v: f64| {
                layers.entry(crate::metric_name(name)).or_default().push(v);
            };
            let tree = b.layers(&p, &mut sample)?;
            sample(
                "runtime.pool.jobs",
                (pool_after.jobs - pool_before.jobs) as f64,
            );
            sample(
                "runtime.pool.wakeups",
                (pool_after.wakeups - pool_before.wakeups) as f64,
            );
            breakdowns.push(Breakdown {
                wall_ns: tree.ns,
                layers: tree.layer_totals(),
            });
        }
        for _ in 0..B::READS_PER_PASS {
            reads_ms.push(read_ms(&b, &p.output));
        }
        let d = b.digest(&p.output);
        match first_digest {
            None => {
                first_digest = Some(d);
                b.check(&p.output, &mut failures);
            }
            Some(first) if first != d => failures.push(format!(
                "pass {} published digest {d:016x}, pass 1 published {first:016x}",
                pass_ms.len() + 1
            )),
            Some(_) => {}
        }
        while reads_ms.len() < MIN_READS {
            reads_ms.push(read_ms(&b, &p.output));
        }
        pass_ms.push(ms(p.wall_ns));
        per_s.push(b.items() as f64 / (p.intake_ns as f64 / 1e9));
        per_account_ns.push(p.per_account_ns);
        fresh_ns.push(p.fresh_ns);
    }

    // End-to-end times at the host's nominal speed (see `host`), each
    // scaled by the reference runs made next to it.
    let k = speed.scale("passes");
    let scaled = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x * k).collect() };
    let mut m = Metrics::new();
    m.insert(
        "setup_s",
        median_of(&setup_s) * setup_speed.scale("set-ups"),
    );
    m.insert("pass_ms", median_of(&pass_ms) * k);
    m.latency(
        "ingest",
        &scaled(per_account_medians(&per_account_ns)),
        &[50.0, 99.0],
    )?;
    m.latency("read", &scaled(reads_ms.clone()), &[50.0])?;
    m.latency(
        "fresh",
        &scaled(per_account_medians(&fresh_ns)),
        &[50.0, 99.0],
    )?;
    m.insert("bulk_reports_per_s", median_of(&per_s) / k);
    m.insert("peak_rss_mb", crate::stats::vm_hwm_mb("self")?);
    if run.trace {
        for (name, values) in &layers {
            m.insert(name, median_of(values));
        }
        m.insert("runtime.json.render_ms", median_of(&reads_ms));
        m.insert(
            "trace.overhead_pct",
            (median_of(&pass_ms) / median_of(&untraced_ms) - 1.0) * 100.0,
        );
    }
    Ok(Outcome {
        attempted: (pass_ms.len() + reads_ms.len()) as u64,
        failed: 0,
        failures,
        metrics: m,
        breakdowns,
    })
}
