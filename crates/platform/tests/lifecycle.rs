//! Full lifecycle: a generated campaign replayed through the epoch
//! engine's ingest API, then grouped, aggregated and audited.

use srtd_core::{AgTr, SybilResistantTd};
use srtd_metrics::mae;
use srtd_platform::{EpochConfig, EpochEngine, EpochSnapshot, IngestError};
use srtd_sensing::{Scenario, ScenarioConfig};
use srtd_truth::{Crh, TruthDiscovery};
use std::sync::Arc;

/// Replays a scenario through the platform: register every account's
/// fingerprint, ingest every report in timestamp order, run one AG-TR
/// epoch.
fn replay(scenario: &Scenario) -> (EpochEngine<AgTr>, Arc<EpochSnapshot>) {
    let mut platform = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        scenario.data.num_tasks(),
        EpochConfig::default(),
    );
    platform
        .set_fingerprints(scenario.fingerprints.clone())
        .expect("valid fingerprints");
    let mut reports: Vec<_> = scenario.data.reports().to_vec();
    reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    for r in reports {
        platform
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("scenario reports satisfy the platform rules");
    }
    let snapshot = platform.run_epoch_incremental();
    (platform, snapshot)
}

#[test]
fn generated_scenarios_pass_platform_validation() {
    // The simulator produces physically plausible campaigns, so the
    // platform must accept every report — this pins the two subsystems'
    // contracts together.
    for seed in 0..3 {
        let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        let (platform, snapshot) = replay(&s);
        assert_eq!(snapshot.num_reports, s.data.num_reports());
        assert_eq!(snapshot.num_accounts, s.num_accounts());
        assert_eq!(platform.rejected_reports(), 0);
    }
}

#[test]
fn platform_audit_flags_the_sybil_clusters() {
    let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(5));
    let (platform, _) = replay(&s);
    let audit = platform.audit_report(3);
    assert_eq!(audit.method(), "AG-TR");
    // Exactly the two 5-account attacker clusters are flagged.
    assert_eq!(audit.suspects().len(), 2);
    for a in 0..s.num_accounts() {
        assert_eq!(audit.is_suspect(a), s.is_sybil[a], "account {a}");
    }
    assert!((audit.suspect_share() - 10.0 / 18.0).abs() < 1e-9);
}

#[test]
fn platform_end_to_end_aggregation_matches_direct_calls() {
    let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(6));
    let (platform, snapshot) = replay(&s);
    let direct = SybilResistantTd::new(AgTr::default()).discover(&s.data, &s.fingerprints);
    // The platform ingests reports in timestamp order, so floating-point
    // summation order differs from the generator's — equal to rounding.
    for (a, b) in snapshot.truths.iter().zip(&direct.truths) {
        let (a, b) = (a.expect("reported"), b.expect("reported"));
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    let plain = Crh::default().discover(platform.data());
    let truths: Vec<f64> = snapshot.truths.iter().map(|t| t.unwrap_or(0.0)).collect();
    let err = mae(&truths, &s.ground_truth).expect("lengths");
    let crh_err = mae(&plain.truths_or(0.0), &s.ground_truth).expect("lengths");
    assert!(err < crh_err, "framework {err} should beat CRH {crh_err}");
}

#[test]
fn tampered_replay_is_caught_by_validation() {
    // An attacker trying to smuggle in an absurd value, a report for a
    // task outside the campaign, a second report for the same task or a
    // forged non-finite timestamp is refused at the door.
    let s = Scenario::generate(&ScenarioConfig::paper_default().with_seed(7));
    let mut platform = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        s.data.num_tasks(),
        EpochConfig::default(),
    );
    assert!(matches!(
        platform.ingest(0, 0, 55.0, 150.0),
        Err(IngestError::ImplausibleValue { .. })
    ));
    assert!(matches!(
        platform.ingest(0, s.data.num_tasks(), -70.0, 150.0),
        Err(IngestError::UnknownTask { .. })
    ));
    assert_eq!(
        platform.ingest(0, 0, -70.0, f64::INFINITY),
        Err(IngestError::NonFiniteTimestamp)
    );
    platform.ingest(0, 0, -70.0, 150.0).expect("valid");
    assert_eq!(
        platform.ingest(0, 0, -71.0, 160.0),
        Err(IngestError::DuplicateReport)
    );
    assert_eq!(platform.rejected_reports(), 4);
    let snapshot = platform.run_epoch_incremental();
    assert_eq!(snapshot.num_reports, 1, "only the valid report folds");
}
