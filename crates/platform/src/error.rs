//! Platform-side rejection reasons.

use std::error::Error;
use std::fmt;

/// Why a fingerprint registration was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum EnrollError {
    /// The fingerprint vector has the wrong dimensionality.
    BadFingerprint {
        /// Dimensions received.
        got: usize,
        /// Dimensions required.
        want: usize,
    },
    /// A fingerprint value is NaN or infinite.
    NonFiniteFingerprint,
}

impl fmt::Display for EnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnrollError::BadFingerprint { got, want } => {
                write!(
                    f,
                    "fingerprint has {got} dimensions, platform requires {want}"
                )
            }
            EnrollError::NonFiniteFingerprint => {
                write!(f, "fingerprint contains non-finite values")
            }
        }
    }
}

impl Error for EnrollError {}

/// Why the epoch engine refused a report at ingest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestError {
    /// The task index is outside the campaign.
    UnknownTask {
        /// The offending task index.
        task: usize,
        /// Tasks in the campaign.
        num_tasks: usize,
    },
    /// The value is NaN or infinite.
    NonFiniteValue,
    /// The value lies outside the plausible band of [-120, 0] dBm (a
    /// Wi-Fi RSSI of +20 dBm is physical nonsense regardless of who
    /// submits it).
    ImplausibleValue {
        /// The rejected value.
        value: f64,
    },
    /// The timestamp is NaN or infinite.
    NonFiniteTimestamp,
    /// The account already reported this task — folded or still buffered.
    DuplicateReport,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::UnknownTask { task, num_tasks } => {
                write!(f, "task {task} is outside the {num_tasks}-task campaign")
            }
            IngestError::NonFiniteValue => write!(f, "value is not finite"),
            IngestError::ImplausibleValue { value } => {
                let (lo, hi) = crate::epoch::VALUE_BAND;
                write!(
                    f,
                    "value {value} is outside the plausible band [{lo}, {hi}]"
                )
            }
            IngestError::NonFiniteTimestamp => write!(f, "timestamp is not finite"),
            IngestError::DuplicateReport => {
                write!(f, "account already reported this task")
            }
        }
    }
}

impl Error for IngestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let errors: Vec<Box<dyn Error>> = vec![
            Box::new(EnrollError::BadFingerprint { got: 3, want: 80 }),
            Box::new(EnrollError::NonFiniteFingerprint),
            Box::new(IngestError::UnknownTask {
                task: 9,
                num_tasks: 4,
            }),
            Box::new(IngestError::ImplausibleValue { value: 9e9 }),
            Box::new(IngestError::DuplicateReport),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().expect("non-empty").is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}
