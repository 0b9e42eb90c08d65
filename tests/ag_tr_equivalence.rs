//! Pruned vs full AG-TR equivalence: the pruned pairwise path must give
//! byte-identical groupings (same connected components, same audit
//! report) to the full-matrix path, on paper-scale campaigns and on a
//! 202-group synthetic campaign, at 1 and 4 worker threads.
//!
//! This is the contract that makes the pruning engine safe to enable by
//! default: only the `D_ij < φ` decision feeds the grouping, so a pair
//! may be reported as `∞` without its exact distance — but never
//! misclassified.

use sybil_td::core::{AccountGrouping, AgTr};
use sybil_td::platform::AuditReport;
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::SensingData;

/// A 202-true-group synthetic campaign: 200 legitimate accounts with
/// random trajectories plus 2 Sybil attackers whose 10 accounts each
/// replay one physical walk with small per-account timestamp offsets —
/// so the pruned path has genuine merges to preserve, not just
/// singletons.
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
        // One walk per attacker...
        let mut walk: Vec<(usize, f64)> = Vec::new();
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) < 0.25 {
                walk.push((t, t as f64 * 30.0 + rng.gen_range(0f64..5.0)));
            }
        }
        // ...replayed by each of its accounts a few seconds apart.
        for s in 0..SYBILS {
            let account = LEGIT + attacker * SYBILS + s;
            for &(t, ts) in &walk {
                data.add_report(account, t, -50.0, ts + s as f64 * 2.0);
            }
        }
    }
    data
}

/// Asserts the two paths agree on `data`: identical components and, for
/// entries the pruned path kept, bit-identical distances (pruned entries
/// must genuinely lie at or above φ).
fn assert_equivalent(data: &SensingData) {
    let pruned = AgTr::default();
    let full = AgTr::default().with_pruning(false);
    for threads in [1usize, 4] {
        set_max_threads(threads);
        let gp = pruned.group(data, &[]);
        let gf = full.group(data, &[]);
        assert_eq!(
            gp.groups(),
            gf.groups(),
            "groupings diverged at {threads} thread(s)"
        );
        assert_eq!(gp.labels(), gf.labels());
    }
    set_max_threads(0);
    let mp = pruned.dissimilarity_matrix(data);
    let mf = full.dissimilarity_matrix(data);
    let phi = pruned.phi();
    for (i, row) in mp.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            if v.is_finite() {
                assert_eq!(
                    v.to_bits(),
                    mf[i][j].to_bits(),
                    "kept entry ({i},{j}) drifted"
                );
            } else if i != j && mf[i][j].is_finite() {
                assert!(mf[i][j] >= phi, "pruned a below-φ pair ({i},{j})");
            }
        }
    }
}

#[test]
fn paper_scale_campaigns_group_identically() {
    for seed in [0, 3, 17] {
        let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        assert_equivalent(&scenario.data);
    }
}

#[test]
fn paper_scale_sparse_activeness_groups_identically() {
    let scenario = Scenario::generate(
        &ScenarioConfig::paper_default()
            .with_activeness(0.4, 0.7)
            .with_seed(11),
    );
    assert_equivalent(&scenario.data);
}

#[test]
fn synthetic_202_group_campaign_groups_identically() {
    let data = campaign_202_groups(42);
    // Sanity: the campaign really contains merges for pruning to preserve
    // (each attacker's replayed walk forms one multi-account component).
    let grouping = AgTr::default().group(&data, &[]);
    assert!(
        grouping.len() <= 202,
        "expected sybil merges, got {} groups",
        grouping.len()
    );
    assert!(
        grouping.groups().iter().any(|g| g.len() >= 10),
        "each attacker's accounts should form one component"
    );
    assert_equivalent(&data);
}

#[test]
fn audit_reports_match_between_pruned_and_full_paths() {
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(5));
    let report_pruned = audit(&AgTr::default(), &scenario, 2);
    let report_full = audit(&AgTr::default().with_pruning(false), &scenario, 2);
    assert_eq!(report_pruned, report_full);
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
