//! `campaign_batch`: the Attack-II defense at scale. Each pass takes a
//! 100k-account `ScaledCampaign` already in memory to a published
//! snapshot through a fresh `EpochEngine` whose grouping joins the AG-TS
//! and AG-TR decision edges, with the stochastic audit on.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sybil_td::core::grouping::blocking;
use sybil_td::core::{AccountGrouping, AgTr, AgTs, EdgeGrouping, Grouping, SybilResistantTd};
use sybil_td::graph::UnionFind;
use sybil_td::platform::{AuditPolicy, EpochConfig, EpochEngine, EpochSnapshot};
use sybil_td::runtime::json::ToJson;
use sybil_td::runtime::obs;
use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig};
use sybil_td::truth::{Report, SensingData};

use crate::batch::{self, Batch, Pass};
use crate::host::Mix;
use crate::trace::{self, Node};
use crate::{digest, rings_of, Outcome, Run};

/// Accounts in the campaign.
const ACCOUNTS: usize = 100_000;
/// AG-TS affinity threshold: Eq. 6 scales as T²/m, so at m = 2000 tasks
/// the worked example's ρ = 1 would reject even perfect replicas.
const RHO: f64 = 0.01;
/// AG-TR dissimilarity threshold.
const PHI: f64 = 1.0;

/// The benchmark's grouping: the union of the AG-TS and AG-TR decision
/// edges, remembering each signal's last edge count for the traced run.
#[derive(Clone)]
struct JointGrouping {
    ts: AgTs,
    tr: AgTr,
    last: Arc<Mutex<EdgeCounts>>,
}

#[derive(Debug, Clone, Default)]
struct EdgeCounts {
    ts: usize,
    tr: usize,
    joined: Vec<(usize, usize)>,
}

impl AccountGrouping for JointGrouping {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        let mut uf = UnionFind::new(data.num_accounts());
        for (i, j) in self.decision_edges(data, None) {
            uf.union(i, j);
        }
        Grouping::new(uf.into_groups())
    }

    fn name(&self) -> &'static str {
        "AG-TS+AG-TR"
    }
}

impl EdgeGrouping for JointGrouping {
    fn decision_edges(&self, data: &SensingData, dirty: Option<&[bool]>) -> Vec<(usize, usize)> {
        let ts = {
            let _s = trace::span("core.ag_ts.decision_edges");
            self.ts.decision_edges(data, dirty)
        };
        let tr = {
            let _s = trace::span("core.ag_tr.decision_edges");
            self.tr.decision_edges(data, dirty)
        };
        let _s = trace::span("bench.join_edges");
        let (ts_len, tr_len) = (ts.len(), tr.len());
        let mut edges = ts;
        edges.extend(tr);
        edges.sort_unstable();
        edges.dedup();
        *self.last.lock().expect("edge counts poisoned") = EdgeCounts {
            ts: ts_len,
            tr: tr_len,
            joined: edges.clone(),
        };
        edges
    }
}

/// Inputs every pass starts from.
struct Campaign {
    seed: u64,
    data: SensingData,
    reports: Vec<Report>,
    /// `reports[offsets[a]..offsets[a + 1]]` are account `a`'s reports.
    offsets: Vec<usize>,
    honest_mean: Vec<Option<f64>>,
    rings: Vec<Vec<usize>>,
    grouping: JointGrouping,
    /// Per-account task sets, built on first use by the traced run's
    /// AG-TS candidate probe.
    task_sets: OnceCell<Vec<Vec<usize>>>,
}

fn setup(seed: u64) -> Campaign {
    let ScaledCampaign {
        data,
        owners,
        is_sybil,
        ..
    } = ScaledCampaign::generate(&ScaledCampaignConfig::new(ACCOUNTS).with_seed(seed));
    let mut reports = Vec::with_capacity(data.num_reports());
    let mut offsets = Vec::with_capacity(owners.len() + 1);
    offsets.push(0);
    for account in 0..owners.len() {
        reports.extend(data.account_reports(account).copied());
        offsets.push(reports.len());
    }
    let mut sums = vec![(0.0, 0usize); data.num_tasks()];
    for r in data.reports().iter().filter(|r| !is_sybil[r.account]) {
        sums[r.task].0 += r.value;
        sums[r.task].1 += 1;
    }
    let honest_mean = sums
        .iter()
        .map(|&(sum, count)| (count > 0).then(|| sum / count as f64))
        .collect();
    Campaign {
        seed,
        data,
        reports,
        offsets,
        honest_mean,
        rings: rings_of(&owners, &is_sybil),
        grouping: JointGrouping {
            ts: AgTs::new(RHO),
            tr: AgTr::new(PHI),
            last: Arc::default(),
        },
        task_sets: OnceCell::new(),
    }
}

/// Checks that every Sybil ring forms exactly one group of its own.
pub(crate) fn check_rings(labels: &[usize], rings: &[Vec<usize>], failures: &mut Vec<String>) {
    let mut members: BTreeMap<usize, usize> = BTreeMap::new();
    for &l in labels {
        *members.entry(l).or_insert(0) += 1;
    }
    for ring in rings {
        let label = labels[ring[0]];
        if ring.iter().any(|&a| labels[a] != label) {
            failures.push(format!("ring {ring:?} split across groups"));
        } else if members[&label] != ring.len() {
            failures.push(format!(
                "ring {ring:?} shares its group with {} other accounts",
                members[&label] - ring.len()
            ));
        }
    }
}

impl Batch for Campaign {
    type Output = Arc<EpochSnapshot>;
    const READS_PER_PASS: usize = 8;
    /// Half hash-map updates, half the balanced mix. A pass is mostly
    /// updates of per-account and per-task tables and in some busy spells
    /// slowed just like them (2.8× against 3.0×), but in others like the
    /// balanced mix; over 10-pass windows of two 150 s runs, this blend
    /// kept the scaled pass within 1.14× where either alone let it move
    /// 1.28×.
    const REFERENCE: Mix = Mix {
        chase_steps: 37_500,
        sorts: 1,
        hash_rounds: 10,
        dp_tables: 240,
        parallel: false,
    };

    fn items(&self) -> usize {
        self.reports.len()
    }

    fn pass(&self) -> Result<Pass<Self::Output>, String> {
        let _pass = trace::span("pass");
        let t0 = Instant::now();
        let mut engine = EpochEngine::new(
            SybilResistantTd::new(self.grouping.clone()),
            self.data.num_tasks(),
            EpochConfig::default(),
        );
        engine.set_audit(AuditPolicy::default().with_seed(self.seed));
        engine.set_audit_reference(self.honest_mean.clone());
        let n = self.offsets.len() - 1;
        let mut per_account_ns = Vec::with_capacity(n);
        let mut handed_over = Vec::with_capacity(n);
        {
            let _s = trace::span("platform.ingest");
            for a in 0..n {
                let ta = Instant::now();
                for r in &self.reports[self.offsets[a]..self.offsets[a + 1]] {
                    engine
                        .ingest(r.account, r.task, r.value, r.timestamp)
                        .map_err(|e| format!("report of account {a} refused: {e}"))?;
                }
                let done = Instant::now();
                per_account_ns.push((done - ta).as_nanos() as u64);
                handed_over.push(done);
            }
        }
        let intake_ns = t0.elapsed().as_nanos() as u64;
        {
            let _s = trace::span("platform.epoch");
            engine.run_epoch_incremental();
        }
        let output = {
            let _s = trace::span("platform.latest");
            engine.latest()
        };
        let published = Instant::now();
        Ok(Pass {
            wall_ns: (published - t0).as_nanos() as u64,
            intake_ns,
            per_account_ns,
            fresh_ns: handed_over
                .iter()
                .map(|&t| (published - t).as_nanos() as u64)
                .collect(),
            output,
        })
    }

    /// The `/truths` document of the snapshot.
    fn render(&self, output: &Self::Output) -> String {
        output.to_json().render()
    }

    fn digest(&self, s: &Self::Output) -> u64 {
        let mut words: Vec<u64> = vec![s.epoch, s.num_reports as u64, s.iterations as u64];
        words.extend(s.truths.iter().map(|t| t.map_or(u64::MAX, f64::to_bits)));
        words.extend(s.labels.iter().map(|&l| l as u64));
        words.extend(s.group_weights.iter().map(|w| w.to_bits()));
        words.extend(s.audited.iter().map(|&a| a as u64));
        words.extend(s.convicted.iter().map(|&a| a as u64));
        digest(&words)
    }

    fn check(&self, s: &Self::Output, failures: &mut Vec<String>) {
        check_rings(&s.labels, &self.rings, failures);
        if s.num_reports != self.reports.len() {
            failures.push(format!(
                "snapshot holds {} of {} reports",
                s.num_reports,
                self.reports.len()
            ));
        }
    }

    fn layers(
        &self,
        p: &Pass<Self::Output>,
        sample: &mut dyn FnMut(&str, f64),
    ) -> Result<Node, String> {
        let report = obs::snapshot();
        let counter = |name: &str| {
            report
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |&(_, v)| v as f64)
        };
        let window = obs::latest_window().ok_or("the epoch recorded no telemetry window")?;
        let root = trace::last_index("pass").ok_or("no pass span")?;
        let epoch = trace::last_index("platform.epoch").ok_or("no epoch span")?;
        let windows = BTreeMap::from([(epoch, Node::from_window(&window.trace))]);
        let tree = Node::from_spans(&trace::snapshot(), root, &windows);
        let ms = |name: &str| tree.total(name) as f64 / 1e6;

        // Probes outside the pass: AG-TS candidate generation alone (it
        // has no stage span of its own), and union-find over the pass's
        // joined edges.
        let task_sets = self.task_sets.get_or_init(|| {
            (0..self.data.num_accounts())
                .map(|a| self.data.tasks_of(a))
                .collect()
        });
        let t = Instant::now();
        std::hint::black_box(blocking::ts_candidates(
            task_sets,
            self.data.num_tasks(),
            None,
        ));
        let ts_candidate_ms = t.elapsed().as_secs_f64() * 1e3;
        let counts = self
            .grouping
            .last
            .lock()
            .expect("edge counts poisoned")
            .clone();
        let t = Instant::now();
        let mut uf = UnionFind::new(self.offsets.len() - 1);
        for &(i, j) in &counts.joined {
            uf.union(i, j);
        }
        let components = uf.set_count();
        sample("graph.union_find.ms", t.elapsed().as_secs_f64() * 1e3);
        sample("graph.components", components as f64);

        sample("platform.epoch.ms", ms("platform.epoch"));
        sample("platform.epoch.fold_ms", ms("epoch.fold"));
        sample("platform.epoch.regroup_ms", ms("epoch.regroup"));
        sample("platform.epoch.discover_ms", ms("epoch.discover"));
        sample("platform.epoch.audit_ms", ms("epoch.audit"));
        sample("platform.epoch.swap_ms", ms("epoch.swap"));
        sample(
            "platform.epoch.dirty_accounts",
            counter("epoch.regroup.dirty_accounts"),
        );
        sample("platform.epoch.rebuilds", counter("epoch.regroup.rebuilds"));
        sample(
            "platform.epoch.lock_share",
            tree.total("platform.epoch") as f64 / p.wall_ns as f64,
        );
        sample(
            "platform.ingest.ns_per_report",
            p.intake_ns as f64 / self.reports.len() as f64,
        );
        sample("truth.fold.ms", ms("epoch.fold"));
        sample("truth.fold.reports", counter("server.epoch.folded"));
        let ts_candidates = counter("grouping.ag_ts.pairs.candidate");
        sample("core.ag_ts.candidate_ms", ts_candidate_ms);
        sample("core.ag_ts.candidates", ts_candidates);
        sample(
            "core.ag_ts.decide_ms",
            ms("core.ag_ts.decision_edges") - ts_candidate_ms,
        );
        sample("core.ag_ts.edges", counts.ts as f64);
        sample(
            "core.ag_ts.edge_yield",
            counts.ts as f64 / ts_candidates.max(1.0),
        );
        let tr_candidates = counter("grouping.ag_tr.pairs.candidate");
        let dtw_ms = ms("timeseries.pruned_pairwise");
        sample("core.ag_tr.candidate_ms", ms("ag_tr.dtw_edges") - dtw_ms);
        sample("core.ag_tr.candidates", tr_candidates);
        sample("core.ag_tr.decide_ms", dtw_ms);
        sample("core.ag_tr.edges", counts.tr as f64);
        sample(
            "core.ag_tr.edge_yield",
            counts.tr as f64 / tr_candidates.max(1.0),
        );
        for k in [
            "lb_kim_pruned",
            "lb_keogh_pruned",
            "early_abandoned",
            "full_evals",
        ] {
            let name = format!("timeseries.dtw.{k}");
            sample(&name, counter(&name));
        }
        sample("core.framework.ms", ms("epoch.discover"));
        sample("core.framework.iterations", counter("framework.iterations"));
        sample(
            "core.framework.warm_started",
            counter("framework.warm_starts"),
        );
        sample("platform.audit.ms", ms("epoch.audit"));
        sample("platform.audit.targets", counter("platform.audit.targets"));
        Ok(tree)
    }
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    batch::run(run, setup)
}
