//! `fingerprint_enroll`: the Attack-I defense. Each pass extracts the
//! Table-II fingerprint features of one raw MEMS capture per account and
//! runs Algorithm 2 with AG-FP at a known device count.

use std::collections::BTreeMap;
use std::time::Instant;

use sybil_td::cluster::{KMeans, KMeansConfig};
use sybil_td::core::{AgFp, FrameworkResult, Grouping, SybilResistantTd};
use sybil_td::fingerprint::catalog::standard_catalog;
use sybil_td::fingerprint::{
    fingerprint_features, CaptureConfig, DeviceInstance, SensorCapture, FINGERPRINT_DIMENSIONS,
};
use sybil_td::runtime::json::{Json, ToJson};
use sybil_td::runtime::obs::{self, WindowRecord};
use sybil_td::runtime::parallel::{parallel_map, parallel_map_range};
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig};
use sybil_td::signal::features::standardize;
use sybil_td::truth::SensingData;

use crate::batch::{self, Batch, Pass};
use crate::host::{Mix, BALANCED};
use crate::trace::{self, Node};
use crate::{digest, rings_of, Outcome, Run};

/// Enrolling accounts.
const ACCOUNTS: usize = 2_000;
/// Sybil rings, each of [`RING_SIZE`] accounts sharing one device.
const RINGS: usize = 40;
/// Accounts per ring.
const RING_SIZE: usize = 5;
/// Known device count handed to AG-FP: the catalog's model count. The
/// elbow method's default `max_k = n` would cost O(n²) k-means runs.
const K: usize = 8;
/// k-means restarts AG-FP runs (its default configuration).
const AG_FP_RESTARTS: usize = 12;

struct Enrolment {
    data: SensingData,
    captures: Vec<SensorCapture>,
    rings: Vec<Vec<usize>>,
    framework: SybilResistantTd<AgFp>,
}

/// One pass's published result, with what the checks and the traced run
/// need.
struct Enrolled {
    features: Vec<Vec<f64>>,
    result: FrameworkResult,
    window: Option<WindowRecord>,
}

/// Honest owners each get a device of their own; every ring shares one.
/// Devices are manufactured from one seeded stream and captures from one
/// stream per account, so synthesis parallelises deterministically.
fn setup(seed: u64) -> Enrolment {
    let mut config = ScaledCampaignConfig::new(ACCOUNTS).with_seed(seed);
    config.num_rings = RINGS;
    config.accounts_per_ring = RING_SIZE;
    let campaign = ScaledCampaign::generate(&config);
    let catalog = standard_catalog();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_de71_ce00_0001);
    let mut devices: Vec<DeviceInstance> = Vec::new();
    let mut manufacture = |rng: &mut StdRng| {
        let model = &catalog[rng.gen_range(0..catalog.len())].model;
        devices.push(model.manufacture(rng));
        devices.len() - 1
    };
    let mut ring_device = BTreeMap::new();
    let device_of: Vec<usize> = campaign
        .owners
        .iter()
        .zip(&campaign.is_sybil)
        .map(|(&owner, &sybil)| {
            if sybil {
                *ring_device
                    .entry(owner)
                    .or_insert_with(|| manufacture(&mut rng))
            } else {
                manufacture(&mut rng)
            }
        })
        .collect();
    let capture_config = CaptureConfig::paper_default();
    let captures = parallel_map_range(ACCOUNTS, |account| {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ account as u64);
        devices[device_of[account]].capture(&capture_config, &mut rng)
    });
    Enrolment {
        rings: rings_of(&campaign.owners, &campaign.is_sybil),
        data: campaign.data,
        captures,
        framework: SybilResistantTd::new(AgFp::new().with_known_k(K)),
    }
}

impl Batch for Enrolment {
    type Output = Enrolled;
    const READS_PER_PASS: usize = 20;
    /// Feature extraction and k-means slowed less than hash-map updates
    /// and more than a small dynamic program, about like the balanced mix;
    /// both run on every core, and a reference on one core missed a slow
    /// second core (passes ranged 525–751 ms while its factor stayed
    /// within 0.65–0.73).
    const REFERENCE: Mix = Mix {
        parallel: true,
        ..BALANCED
    };

    fn items(&self) -> usize {
        self.captures.len()
    }

    fn pass(&self) -> Result<Pass<Self::Output>, String> {
        let _pass = trace::span("pass");
        let t0 = Instant::now();
        let extracted = {
            let _s = trace::span("fingerprint.extract_all");
            parallel_map(&self.captures, |capture| {
                let t = Instant::now();
                let features = fingerprint_features(capture);
                let done = Instant::now();
                (features, (done - t).as_nanos() as u64, done)
            })
        };
        let intake_ns = t0.elapsed().as_nanos() as u64;
        let mut features = Vec::with_capacity(extracted.len());
        let mut per_account_ns = Vec::with_capacity(extracted.len());
        let mut done_at = Vec::with_capacity(extracted.len());
        for (f, ns, done) in extracted {
            features.push(f);
            per_account_ns.push(ns);
            done_at.push(done);
        }
        // A traced pass wraps discovery in a telemetry window, so its
        // stage tree can be grafted under the benchmark's span.
        let traced = trace::active();
        let (result, window) = {
            let _s = trace::span("core.discover");
            if traced {
                obs::window_begin();
            }
            let result = self.framework.discover(&self.data, &features);
            (result, traced.then(|| obs::window_end("enroll")).flatten())
        };
        let published = Instant::now();
        Ok(Pass {
            wall_ns: (published - t0).as_nanos() as u64,
            intake_ns,
            per_account_ns,
            fresh_ns: done_at
                .iter()
                .map(|&t| (published - t).as_nanos() as u64)
                .collect(),
            output: Enrolled {
                features,
                result,
                window,
            },
        })
    }

    /// The result's truths and labels as one JSON document.
    fn render(&self, e: &Self::Output) -> String {
        Json::obj([
            ("truths", e.result.truths.to_json()),
            ("labels", e.result.grouping.labels().to_vec().to_json()),
        ])
        .render()
    }

    fn digest(&self, e: &Self::Output) -> u64 {
        let r = &e.result;
        let mut words: Vec<u64> = vec![r.iterations as u64];
        words.extend(r.truths.iter().map(|t| t.map_or(u64::MAX, f64::to_bits)));
        words.extend(r.grouping.labels().iter().map(|&l| l as u64));
        words.extend(r.group_weights.iter().map(|w| w.to_bits()));
        digest(&words)
    }

    /// The published partition must be exactly what k-means at the known
    /// device count makes of the standardized features, with at most `K`
    /// groups, from 80 finite features per account.
    fn check(&self, e: &Self::Output, failures: &mut Vec<String>) {
        let standardized = standardize(&e.features).0;
        let reference =
            KMeans::new(KMeansConfig::new(K).with_restarts(AG_FP_RESTARTS)).fit(&standardized);
        if Grouping::from_labels(&reference.assignments).groups() != e.result.grouping.groups() {
            failures.push("AG-FP partition differs from k-means on the same features".into());
        }
        if e.result.grouping.len() > K {
            failures.push(format!(
                "AG-FP made {} groups, k = {K}",
                e.result.grouping.len()
            ));
        }
        if e.features
            .iter()
            .any(|f| f.len() != FINGERPRINT_DIMENSIONS || f.iter().any(|x| !x.is_finite()))
        {
            failures.push("a fingerprint is not 80 finite features".into());
        }
    }

    fn layers(
        &self,
        p: &Pass<Self::Output>,
        sample: &mut dyn FnMut(&str, f64),
    ) -> Result<Node, String> {
        let window = p
            .output
            .window
            .as_ref()
            .ok_or("discovery recorded no telemetry window")?;
        let root = trace::last_index("pass").ok_or("no pass span")?;
        let discover = trace::last_index("core.discover").ok_or("no discover span")?;
        let windows = BTreeMap::from([(discover, Node::from_window(&window.trace))]);
        let tree = Node::from_spans(&trace::snapshot(), root, &windows);
        let report = obs::snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |&(_, v)| v as f64)
        };
        let kmeans_iterations = report
            .histograms
            .iter()
            .find(|h| h.name == "cluster.kmeans.iterations")
            .map_or(0.0, |h| h.sum);
        let labels = p.output.result.grouping.labels();
        let rings_split = self
            .rings
            .iter()
            .filter(|ring| ring.iter().any(|&a| labels[a] != labels[ring[0]]))
            .count();
        let ms = |name: &str| tree.total(name) as f64 / 1e6;
        let per_account_us: Vec<f64> = p.per_account_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        sample(
            "fingerprint.extract.us_per_account",
            crate::median_of(&per_account_us),
        );
        sample(
            "signal.fft.real_pair_calls",
            counter("signal.fft.real_pair_calls"),
        );
        sample("core.framework.ms", ms("core.discover"));
        sample("core.framework.iterations", counter("framework.iterations"));
        sample(
            "core.framework.warm_started",
            counter("framework.warm_starts"),
        );
        sample("core.ag_fp.rings_split", rings_split as f64);
        sample("cluster.kmeans.ms", ms("ag_fp.kmeans"));
        sample("cluster.kmeans.iterations", kmeans_iterations);
        sample(
            "cluster.kmeans.distance_evals",
            counter("grouping.ag_fp.pairs.candidate"),
        );
        sample(
            "cluster.kmeans.skipped_by_norm",
            counter("grouping.ag_fp.pairs.skipped_by_blocking"),
        );
        Ok(tree)
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    batch::run(run, setup)
}
