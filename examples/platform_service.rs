//! The platform lifecycle, end to end.
//!
//! Plays the cloud platform's role from §III-A on the epoch engine: open
//! a campaign, register the accounts' sign-in fingerprints, accept (and
//! reject!) submissions, run an epoch of AG-TR grouping plus Algorithm 2,
//! audit the account base for Sybil clusters, and compare against plain
//! truth discovery.
//!
//! Run with: `cargo run --example platform_service`

use sybil_td::core::{AgTr, SybilResistantTd};
use sybil_td::metrics::mae;
use sybil_td::platform::{EpochConfig, EpochEngine};
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::{Crh, TruthDiscovery};

fn main() {
    // The volunteers' behaviour comes from the simulator; the platform
    // sees only what a real one would: fingerprints and submissions.
    let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(11));

    let mut platform = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        scenario.data.num_tasks(),
        EpochConfig::default(),
    );
    println!(
        "published {} Wi-Fi measurement tasks",
        scenario.data.num_tasks()
    );

    platform
        .set_fingerprints(scenario.fingerprints.clone())
        .expect("valid fingerprints");
    println!(
        "registered {} accounts (fingerprints captured at sign-in)",
        scenario.fingerprints.len()
    );

    let mut reports: Vec<_> = scenario.data.reports().to_vec();
    reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    for r in &reports {
        platform
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("simulated reports are plausible");
    }
    // Tampered submissions bounce off the validator.
    let last = reports.last().expect("the campaign has reports");
    let duplicate = platform
        .ingest(last.account, last.task, last.value, last.timestamp)
        .unwrap_err();
    let implausible = platform.ingest(0, 1, 45.0, last.timestamp).unwrap_err();
    let snapshot = platform.run_epoch_incremental();
    println!(
        "accepted {} reports, rejected {} ({duplicate}; {implausible})",
        snapshot.num_reports,
        platform.rejected_reports(),
    );

    let audit = platform.audit_report(3);
    println!("\naudit via {}:", audit.method());
    for suspect in audit.suspects() {
        println!(
            "  suspected Sybil cluster g{}: accounts {:?}",
            suspect.group, suspect.accounts
        );
    }
    println!(
        "  {:.0}% of accounts flagged (paper policy: down-weight, don't ban)",
        100.0 * audit.suspect_share()
    );

    let plain = Crh::default().discover(platform.data());
    let resistant: Vec<f64> = snapshot.truths.iter().map(|t| t.unwrap_or(0.0)).collect();
    let crh_mae = mae(&plain.truths_or(0.0), &scenario.ground_truth).expect("lengths");
    let ours_mae = mae(&resistant, &scenario.ground_truth).expect("lengths");
    println!("\naggregation MAE: CRH {crh_mae:.2} dBm vs TD-TR {ours_mae:.2} dBm");
    assert!(ours_mae < crh_mae);
}
