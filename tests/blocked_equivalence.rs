//! Blocked vs exhaustive grouping equivalence: candidate generation is a
//! pure superset filter, so turning blocking on must change *nothing*
//! observable — identical groups, identical labels, identical audit
//! reports — on paper-scale campaigns, on a 202-group Sybil-replay
//! campaign, and on random campaigns, at 1 and 4 worker threads.
//!
//! This is the contract that makes blocking safe to enable by default:
//! the prefix filter (AG-TS) and endpoint cells (AG-TR) provably cover
//! every above-/below-threshold pair, so the exhaustive scan can only add
//! pairs the decision stage rejects anyway.

use sybil_td::core::{AccountGrouping, AgTr, AgTs};
use sybil_td::platform::AuditReport;
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::runtime::{prop, prop_assert_eq};
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::SensingData;

/// Same shape as `ag_tr_equivalence.rs`: 200 legitimate accounts with
/// random trajectories plus 2 Sybil attackers whose 10 accounts each
/// replay one walk — 202 true groups, so blocking has genuine merges to
/// preserve.
fn campaign_202_groups(seed: u64) -> SensingData {
    const LEGIT: usize = 200;
    const ATTACKERS: usize = 2;
    const SYBILS: usize = 10;
    const TASKS: usize = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = SensingData::new(TASKS);
    for a in 0..LEGIT {
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) < 0.25 {
                data.add_report(a, t, -70.0 + rng.gen_range(-5f64..5.0), t as f64 * 30.0);
            }
        }
    }
    for attacker in 0..ATTACKERS {
        let mut walk: Vec<(usize, f64)> = Vec::new();
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) < 0.25 {
                walk.push((t, t as f64 * 30.0 + rng.gen_range(0f64..5.0)));
            }
        }
        for s in 0..SYBILS {
            let account = LEGIT + attacker * SYBILS + s;
            for &(t, ts) in &walk {
                data.add_report(account, t, -50.0, ts + s as f64 * 2.0);
            }
        }
    }
    data
}

/// Asserts blocked ≡ exhaustive for both pairwise signals on `data`, at 1
/// and 4 worker threads. For AG-TR the exhaustive reference is run both
/// with and without pruning — blocking must be transparent against either.
fn assert_blocked_equivalent(data: &SensingData, rho: f64) {
    let ts_blocked = AgTs::new(rho);
    let ts_exhaustive = ts_blocked.with_blocking(false);
    let tr_blocked = AgTr::default();
    let tr_exhaustive = tr_blocked.with_blocking(false);
    let tr_unpruned = tr_blocked.with_pruning(false);
    for threads in [1usize, 4] {
        set_max_threads(threads);
        let gb = ts_blocked.group(data, &[]);
        let ge = ts_exhaustive.group(data, &[]);
        assert_eq!(
            gb.groups(),
            ge.groups(),
            "AG-TS diverged at {threads} thread(s), rho {rho}"
        );
        assert_eq!(gb.labels(), ge.labels());

        let gb = tr_blocked.group(data, &[]);
        let ge = tr_exhaustive.group(data, &[]);
        let gu = tr_unpruned.group(data, &[]);
        assert_eq!(
            gb.groups(),
            ge.groups(),
            "AG-TR blocked vs exhaustive diverged at {threads} thread(s)"
        );
        assert_eq!(gb.labels(), ge.labels());
        assert_eq!(
            gb.groups(),
            gu.groups(),
            "AG-TR blocked vs unpruned diverged at {threads} thread(s)"
        );
    }
    set_max_threads(0);
}

#[test]
fn paper_scale_campaigns_group_identically() {
    for seed in [0, 3, 17] {
        let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        assert_blocked_equivalent(&scenario.data, 1.0);
    }
}

#[test]
fn paper_scale_sparse_activeness_groups_identically() {
    let scenario = Scenario::generate(
        &ScenarioConfig::paper_default()
            .with_activeness(0.4, 0.7)
            .with_seed(11),
    );
    // ρ = 0 exercises the blocked path's tightest admissible threshold.
    assert_blocked_equivalent(&scenario.data, 0.0);
}

#[test]
fn synthetic_202_group_campaign_groups_identically() {
    let data = campaign_202_groups(42);
    // Sanity: the blocked signals really merge the Sybil accounts.
    let g_tr = AgTr::default().group(&data, &[]);
    assert!(
        g_tr.groups().iter().any(|g| g.len() >= 10),
        "each attacker's accounts should form one AG-TR component"
    );
    let g_ts = AgTs::new(0.5).group(&data, &[]);
    assert!(
        g_ts.len() < data.num_accounts(),
        "AG-TS should merge the shared-walk accounts"
    );
    assert_blocked_equivalent(&data, 0.5);
}

#[test]
fn random_campaigns_group_identically() {
    // Random small campaigns: arbitrary task sets and timestamps, with a
    // planted duplicated walk so merges exist. Deterministic 128-case
    // sweep; each case checks both signals across several thresholds.
    prop::check(
        |rng: &mut StdRng| {
            let num_tasks = rng.gen_range(3usize..20);
            let accounts = rng.gen_range(2usize..14);
            let mut data = SensingData::new(num_tasks);
            for a in 0..accounts {
                let k = rng.gen_range(0usize..num_tasks.min(6) + 1);
                let mut tasks: Vec<usize> = (0..num_tasks).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..num_tasks);
                    tasks.swap(i, j);
                    data.add_report(
                        a,
                        tasks[i],
                        rng.gen_range(-90f64..-40.0),
                        rng.gen_range(0f64..7200.0),
                    );
                }
            }
            // Plant one replayed pair: the last account clones account 0's
            // trajectory with second-scale offsets.
            let clone_of: Vec<_> = data.trajectory_of(0);
            let cloned = accounts;
            for r in &clone_of {
                data.add_report(cloned, r.task, r.value, r.timestamp + 3.0);
            }
            data
        },
        |data: &SensingData| {
            for rho in [1.0, 0.1, 0.0, -1.0] {
                let blocked = AgTs::new(rho);
                let a = blocked.group(data, &[]);
                let b = blocked.with_blocking(false).group(data, &[]);
                prop_assert_eq!(a.groups(), b.groups(), "AG-TS rho {}", rho);
            }
            let blocked = AgTr::default();
            let a = blocked.group(data, &[]);
            let b = blocked.with_blocking(false).group(data, &[]);
            prop_assert_eq!(a.groups(), b.groups(), "AG-TR");
            let c = blocked.with_pruning(false).group(data, &[]);
            prop_assert_eq!(a.groups(), c.groups(), "AG-TR vs unpruned");
            Ok(())
        },
    );
}

/// The blocking second key on its motivating workload: a scaled campaign
/// where *every* account reports exactly `tasks_per_account` tasks, so
/// set-size keys alone prune nothing. The pair key must (a) keep AG-TS
/// groups identical to the exhaustive path and (b) visit well under a
/// tenth of the `n(n−1)/2` pairs the exhaustive scan would score.
#[test]
fn scaled_fixed_size_campaign_groups_identically_with_sparse_candidates() {
    use sybil_td::core::grouping::blocking::ts_candidates;
    use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig};

    let campaign = ScaledCampaign::generate(&ScaledCampaignConfig::new(3_000).with_seed(9));
    let data = &campaign.data;
    assert_blocked_equivalent(data, 0.0);

    let n = data.num_accounts();
    let task_sets: Vec<Vec<usize>> = (0..n).map(|a| data.tasks_of(a)).collect();
    let c = ts_candidates(&task_sets, data.num_tasks(), None);
    assert!(
        c.pairs.len() as u64 * 10 <= c.total_pairs,
        "{} candidates out of {} pairs — expected ≥10× reduction",
        c.pairs.len(),
        c.total_pairs
    );
}

#[test]
fn audit_reports_match_between_blocked_and_exhaustive_paths() {
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(5));
    let tr_blocked = audit(&AgTr::default(), &scenario, 2);
    let tr_exhaustive = audit(&AgTr::default().with_blocking(false), &scenario, 2);
    assert_eq!(tr_blocked, tr_exhaustive);
    let ts_blocked = audit(&AgTs::default(), &scenario, 2);
    let ts_exhaustive = audit(&AgTs::default().with_blocking(false), &scenario, 2);
    assert_eq!(ts_blocked, ts_exhaustive);
}

/// The operator-facing audit of `method` over the whole campaign.
fn audit<G: AccountGrouping>(
    method: &G,
    scenario: &Scenario,
    min_group_size: usize,
) -> AuditReport {
    AuditReport::new(
        method.group(&scenario.data, &scenario.fingerprints),
        method.name(),
        min_group_size,
    )
}
