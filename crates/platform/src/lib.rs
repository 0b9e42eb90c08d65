//! The cloud-platform side of a mobile crowdsensing system.
//!
//! §III-A: "a typical MCS system consists of a cloud-based platform and a
//! crowd of participants. The platform first publicizes a set of sensing
//! tasks … each user submits [its accomplished task set] to the platform.
//! Meanwhile, the platform collects the sensor data from the device for
//! device fingerprinting." This crate is that platform. Its one front end
//! is [`EpochEngine`], an epoch-driven service loop around one campaign:
//!
//! * [`EpochEngine::new`] — open a campaign of `num_tasks` sensing tasks
//!   with a pluggable account-grouping method,
//! * [`EpochEngine::set_fingerprints`] — register the accounts' sign-in
//!   device fingerprints (the paper's 6-second hold), refusing vectors of
//!   the wrong shape,
//! * [`EpochEngine::ingest`] — accept one report per (account, task) into
//!   a buffer, refusing unknown tasks, duplicates, non-finite input and
//!   values outside the plausible [-120, 0] dBm band,
//! * [`EpochEngine::run_epoch_incremental`] (edge groupings such as AG-TR
//!   and AG-TS) or [`EpochEngine::run_epoch`] (any grouping, e.g. AG-FP)
//!   — fold the buffered reports, re-group, run warm-started Algorithm 2
//!   and publish an immutable [`EpochSnapshot`] that readers keep serving
//!   while the next epoch computes,
//! * [`EpochEngine::audit_report`] — flag suspected Sybil clusters of the
//!   latest grouping as an [`AuditReport`].
//!
//! Against adaptive attackers who evade every behavioural grouping
//! signal, the engine can additionally run a [`StochasticAuditor`]:
//! deterministic seed-derived spot checks against trusted reference
//! values with a k-failure conviction machine (see [`stochastic`]).
//!
//! # Examples
//!
//! ```
//! use srtd_core::{AgTr, SybilResistantTd};
//! use srtd_platform::{EpochConfig, EpochEngine, IngestError};
//!
//! let framework = SybilResistantTd::new(AgTr::default());
//! let mut platform = EpochEngine::new(framework, 2, EpochConfig::default());
//! platform.ingest(0, 0, -77.0, 60.0)?;
//! // +25 dBm is no Wi-Fi reading: refused at the door.
//! assert!(matches!(
//!     platform.ingest(1, 1, 25.0, 61.0),
//!     Err(IngestError::ImplausibleValue { .. })
//! ));
//! let snapshot = platform.run_epoch_incremental();
//! let truth = snapshot.truths[0].expect("task 0 was reported");
//! assert!((truth + 77.0).abs() < 1e-9);
//! assert!(platform.audit_report(2).suspects().is_empty());
//! # Ok::<(), IngestError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod epoch;
mod error;
pub mod stochastic;

pub use audit::{AuditReport, SuspectGroup};
pub use epoch::{EpochConfig, EpochEngine, EpochReader, EpochSnapshot};
pub use error::{EnrollError, IngestError};
pub use stochastic::{AuditPolicy, EpochAudit, StochasticAuditor};
