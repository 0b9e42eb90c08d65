//! Pure measurement rules shared by the workloads: percentiles and their
//! sample support, open-loop latency from due times, freshness from
//! `num_reports` cut points, and `/proc` memory parsing.

use std::time::{Duration, Instant};

/// Samples a percentile must have beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// all samples at or below it (1-based rank `⌈p·n/100⌉`, clamped to
/// `1..=n`). Returns the value and how many samples lie beyond its rank.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// [`nearest_rank`] that refuses a percentile the sample cannot support:
/// fewer than [`MIN_BEYOND`] samples beyond the rank is an error.
pub fn percentile(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    match nearest_rank(values, p) {
        Some((v, beyond)) if beyond >= MIN_BEYOND => Ok(v),
        Some((_, beyond)) => Err(format!(
            "{what}: p{p} has {beyond} of {} samples beyond it, needs {MIN_BEYOND}",
            values.len()
        )),
        None => Err(format!("{what}: no samples")),
    }
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Open-loop timing of one request: the latency runs from when the
/// request was *due*, so a generator held up by an earlier stall still
/// charges the wait to the system; `late` is how far behind schedule the
/// request went out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueTiming {
    /// Completion minus due time.
    pub latency: Duration,
    /// Send minus due time (zero when sent on schedule).
    pub late: Duration,
}

/// Times one open-loop request from its due, send and completion instants.
pub fn due_timing(due: Instant, sent: Instant, done: Instant) -> DueTiming {
    DueTiming {
        latency: done.saturating_duration_since(due),
        late: sent.saturating_duration_since(due),
    }
}

/// One completed `POST /epoch`: when its response finished arriving and
/// the `num_reports` it published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCut {
    /// Completion instant (ns).
    pub done_ns: u64,
    /// Reports folded in so far, as the epoch's snapshot states.
    pub num_reports: u64,
}

/// Freshness of each upload: the time from its due instant to the
/// completion of the first epoch whose `num_reports` covers it.
///
/// `uploads[i] = (due_ns, covered_at)`, where `covered_at` is the
/// server's report count once upload `i` is in (the preload plus every
/// report accepted up to and including upload `i`). Uploads come from one
/// sequential stream, so an epoch that published at least `covered_at`
/// reports folded upload `i`. `epochs` must be in completion order; an
/// upload no epoch covers yields `None`.
pub fn freshness(uploads: &[(u64, u64)], epochs: &[EpochCut]) -> Vec<Option<u64>> {
    uploads
        .iter()
        .map(|&(due_ns, covered_at)| {
            epochs
                .iter()
                .find(|e| e.num_reports >= covered_at)
                .map(|e| e.done_ns.saturating_sub(due_ns))
        })
        .collect()
}

/// Peak resident set size in MB from a `/proc/<pid>/status` document
/// (the `VmHWM:` line, which the kernel reports in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// Peak resident set size of process `pid` (`"self"` for this one).
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The unsigned integer after `"key":` in a JSON document, found by a
/// plain scan — the timing path must not run the JSON parser it measures.
pub fn scan_u64(doc: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let at = doc.find(&pattern)? + pattern.len();
    let digits: &str = doc[at..].trim_start();
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    digits[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some((50.0, 50)));
        assert_eq!(nearest_rank(&v, 99.0), Some((99.0, 1)));
        assert_eq!(nearest_rank(&v, 90.0), Some((90.0, 10)));
        assert_eq!(nearest_rank(&v, 100.0), Some((100.0, 0)));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.0), Some((1.0, 2)));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0, "reads"), Ok(90.0));
        assert!(percentile(&hundred, 99.0, "reads").is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0, "uploads"), Ok(990.0));
        assert!(percentile(&thousand[..999], 99.0, "uploads").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn due_time_latency_charges_the_stall() {
        let due = Instant::now();
        let at = |ms: u64| due + Duration::from_millis(ms);
        // On schedule: latency is the service time.
        assert_eq!(
            due_timing(due, due, at(4)),
            DueTiming {
                latency: Duration::from_millis(4),
                late: Duration::ZERO
            }
        );
        // Sent 300 ms late behind a stall: the wait counts.
        assert_eq!(
            due_timing(due, at(300), at(304)),
            DueTiming {
                latency: Duration::from_millis(304),
                late: Duration::from_millis(300)
            }
        );
    }

    #[test]
    fn freshness_uses_the_first_covering_epoch() {
        // Preload of 100 reports; three uploads of 6 reports each.
        let uploads = [(10, 106), (20, 112), (30, 118)];
        let epochs = [
            EpochCut {
                done_ns: 25,
                num_reports: 106,
            },
            EpochCut {
                done_ns: 50,
                num_reports: 112,
            },
            EpochCut {
                done_ns: 90,
                num_reports: 118,
            },
        ];
        assert_eq!(
            freshness(&uploads, &epochs),
            vec![Some(15), Some(30), Some(60)]
        );
        // An epoch covering two uploads at once serves both.
        let jump = [EpochCut {
            done_ns: 70,
            num_reports: 118,
        }];
        assert_eq!(
            freshness(&uploads, &jump),
            vec![Some(60), Some(50), Some(40)]
        );
        assert_eq!(freshness(&uploads, &epochs[..1])[1], None);
    }

    #[test]
    fn vm_hwm_parses_the_kernel_line() {
        let status =
            "Name:\tsrtd-server\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
        assert!(vm_hwm_mb("self").expect("own status") > 0.0);
    }

    #[test]
    fn scan_u64_reads_a_field_without_parsing() {
        let doc = r#"{"epoch":3,"num_reports": 541234,"folded":12}"#;
        assert_eq!(scan_u64(doc, "num_reports"), Some(541_234));
        assert_eq!(scan_u64(doc, "epoch"), Some(3));
        assert_eq!(scan_u64(doc, "missing"), None);
    }
}
