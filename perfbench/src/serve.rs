//! `serve_stream`: the service path. A real `srtd-server` (AG-TR, 2000
//! tasks, no epoch timer) is preloaded with 90 % of a 100k-account
//! campaign, then driven in two measured phases:
//!
//! * **open loop** — one account's walk per `POST /ingest` at 100
//!   uploads/s on one thread; `GET /truths` at 1/s and `POST /epoch`
//!   every two seconds on the other. Each request is timed from its due
//!   time.
//! * **bulk** — bursts of 1000-report bodies sent back to back from a
//!   held-back slice.
//!
//! The load generator uses two threads and one connection per request;
//! every request body is rendered during set-up.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sybil_td::core::{AgTr, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine, EpochSnapshot};
use sybil_td::runtime::json::{self, Json, ToJson};
use sybil_td::runtime::obs::prom;
use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig};
use sybil_td::truth::Report;

use crate::host::{Speed, BALANCED};
use crate::http::{self, Request};
use crate::stats::{self, due_timing, scan_u64, EpochCut};
use crate::trace::{self, Node};
use crate::{median_of, rings_of, Breakdown, Metrics, Outcome, Run};

/// Accounts in the campaign.
const ACCOUNTS: usize = 100_000;
/// Share of accounts, earliest first walks first, preloaded in set-up.
const PRELOAD_SHARE: f64 = 0.9;
/// Reports per preload body.
const PRELOAD_BODY: usize = 200;
/// Reports per bulk-phase body.
const BULK_BODY: usize = 1000;
/// Open-loop upload rate (one account's walk per upload).
const UPLOADS_PER_S: f64 = 100.0;
/// Bulk bursts, bodies per burst and burst cadence. The held-back slice
/// lasts about two seconds of back-to-back bodies; spreading it over
/// bursts samples the host's speed at several moments instead of one.
/// The phase runs no epoch: epochs are the open loop's subject, and one
/// landing inside a phase this short would swing its throughput by a
/// third.
const BULK_BURSTS: usize = 5;
const BULK_BURST_BODIES: usize = 7;
const BULK_EVERY: Duration = Duration::from_millis(1500);
/// Open-loop `GET /truths` rate.
const READS_PER_S: f64 = 1.0;
/// `POST /epoch` cadence of the open loop. An incremental epoch at 100k
/// accounts holds the server for about 0.45 s and a read for about 45 ms
/// on a 2-core host; this cadence and [`READS_PER_S`] keep it about a
/// third busy, so median latencies stay below the queueing knee even
/// in the host's slow spells (see README.md).
const EPOCH_EVERY: Duration = Duration::from_secs(2);
/// Set-ups per run (each starts and preloads its own server).
const SETUPS: usize = 2;
/// Host reference runs before each set-up, before the measured phases and
/// after them; the server is idle while they run. The open loop runs one
/// more a second, and the bulk phase [`BURST_REFERENCE_RUNS`] after each
/// burst.
const REFERENCE_RUNS: usize = 5;
const BURST_REFERENCE_RUNS: usize = 3;
/// Largest difference allowed between a served truth and the in-process
/// cold recompute on the same reports (dBm): a tenth of the campaign's
/// honest report noise (σ = 2 dBm). The server converges through
/// warm-started epochs and the recompute in one cold epoch; both stop
/// when no truth moves by 1e-6 in an iteration, which on this slowly
/// contracting fixpoint leaves them up to a few hundredths apart.
const TRUTH_TOLERANCE: f64 = 0.2;

/// Every input of one run, rendered ahead of time.
struct Inputs {
    num_tasks: usize,
    preload: Vec<(Request, usize)>,
    uploads: Vec<(Request, usize)>,
    bulk: Vec<(Request, usize)>,
    /// Every report in the order the server receives it (the bulk phase
    /// sends a prefix of its slice).
    sent_order: Vec<Report>,
    rings: Vec<Vec<usize>>,
    /// Upload and bulk bodies for the traced parser probe.
    upload_bodies: Vec<String>,
    bulk_bodies: Vec<String>,
}

fn body(reports: &[Report]) -> String {
    let items: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"account\":{},\"task\":{},\"value\":{},\"timestamp\":{}}}",
                r.account, r.task, r.value, r.timestamp
            )
        })
        .collect();
    format!("{{\"reports\":[{}]}}", items.join(","))
}

fn inputs(seed: u64, open_uploads: usize) -> Inputs {
    let campaign = ScaledCampaign::generate(&ScaledCampaignConfig::new(ACCOUNTS).with_seed(seed));
    let data = &campaign.data;
    let walks: Vec<Vec<Report>> = (0..ACCOUNTS)
        .map(|a| data.account_reports(a).copied().collect())
        .collect();
    let mut order: Vec<usize> = (0..ACCOUNTS).filter(|&a| !walks[a].is_empty()).collect();
    order.sort_by(|&a, &b| {
        walks[a][0]
            .timestamp
            .total_cmp(&walks[b][0].timestamp)
            .then(a.cmp(&b))
    });
    let preloaded = (order.len() as f64 * PRELOAD_SHARE) as usize;
    let (preload_accounts, streamed) = order.split_at(preloaded);
    let (open_accounts, bulk_accounts) = streamed.split_at(open_uploads.min(streamed.len()));

    let flat = |accounts: &[usize]| -> Vec<Report> {
        accounts
            .iter()
            .flat_map(|&a| walks[a].iter().copied())
            .collect()
    };
    let chunked = |reports: &[Report], size: usize| -> Vec<(String, usize)> {
        reports.chunks(size).map(|c| (body(c), c.len())).collect()
    };
    let preload_reports = flat(preload_accounts);
    let bulk_reports = flat(bulk_accounts);
    let upload_bodies: Vec<(String, usize)> = open_accounts
        .iter()
        .map(|&a| (body(&walks[a]), walks[a].len()))
        .collect();
    let bulk_bodies = chunked(&bulk_reports, BULK_BODY);
    let post = |bodies: &[(String, usize)]| -> Vec<(Request, usize)> {
        bodies
            .iter()
            .map(|(b, n)| (Request::new("POST", "/ingest", b), *n))
            .collect()
    };
    let mut sent_order = preload_reports.clone();
    sent_order.extend(flat(open_accounts));
    sent_order.extend(bulk_reports.iter().copied());
    Inputs {
        num_tasks: data.num_tasks(),
        preload: post(&chunked(&preload_reports, PRELOAD_BODY)),
        uploads: post(&upload_bodies),
        bulk: post(&bulk_bodies),
        sent_order,
        rings: rings_of(&campaign.owners, &campaign.is_sybil),
        upload_bodies: upload_bodies.into_iter().map(|(b, _)| b).collect(),
        bulk_bodies: bulk_bodies.into_iter().map(|(b, _)| b).collect(),
    }
}

/// A running `srtd-server` child; dropping it kills and reaps the process.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(path: &std::path::Path, num_tasks: usize) -> Result<Self, String> {
        let mut child = Command::new(path)
            .args(["--port", "0", "--method", "ag-tr", "--tasks"])
            .arg(num_tasks.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on "))
            .and_then(|a| a.parse().ok());
        let server = Self {
            child: Some(child),
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            _stdout: stdout,
        };
        match addr {
            Some(_) => Ok(server),
            None => Err(format!("server did not announce its address: {line:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Asks the server to exit and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        http::send_ok(self.addr, &Request::new("POST", "/shutdown", ""))?;
        let status = self
            .child
            .take()
            .expect("server still owned")
            .wait()
            .map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts a server, preloads it and publishes the first epoch; returns
/// the server and the reports it accepted.
fn start_and_preload(run: &Run, inputs: &Inputs) -> Result<(Server, u64), String> {
    let server = Server::start(&run.server, inputs.num_tasks)?;
    let mut accepted = 0;
    for (request, n) in &inputs.preload {
        let r = http::send_ok(server.addr, request)?;
        let got = scan_u64(&r.body, "accepted").ok_or("ingest response without `accepted`")?;
        if got != *n as u64 {
            return Err(format!(
                "preload body of {n} reports: {got} accepted: {}",
                r.body
            ));
        }
        accepted += got;
    }
    let r = http::send_ok(server.addr, &Request::new("POST", "/epoch", ""))?;
    if scan_u64(&r.body, "num_reports") != Some(accepted) {
        return Err("first epoch does not cover the preload".into());
    }
    Ok((server, accepted))
}

/// One timed request of a measured phase.
#[derive(Debug, Clone)]
struct Sample {
    kind: &'static str,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    /// `accepted` of an ingest, `num_reports` of an epoch.
    count: u64,
    bytes_out: usize,
    bytes_in: usize,
    body: Option<String>,
}

fn timed(kind: &'static str, addr: SocketAddr, request: &Request, due: Instant) -> Sample {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let sent = Instant::now();
    let response = http::send_ok(addr, request);
    let done = Instant::now();
    let key = if kind == "epoch" {
        "num_reports"
    } else {
        "accepted"
    };
    let (ok, count, bytes_in) = match &response {
        Ok(r) => match scan_u64(&r.body, key) {
            Some(c) => (true, c, r.wire_len),
            None => (kind == "truths", 0, r.wire_len),
        },
        Err(e) => {
            eprintln!("perfbench: {kind} request failed: {e}");
            (false, 0, 0)
        }
    };
    Sample {
        kind,
        due,
        sent,
        done,
        ok,
        count,
        bytes_out: request.len(),
        bytes_in,
        body: response.ok().filter(|_| kind == "epoch").map(|r| r.body),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The open loop: uploads on a spawned thread, reads and epochs on this
/// one, each on its own fixed schedule.
fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    seconds: f64,
    speed: &mut Speed,
) -> (Vec<Sample>, Vec<Sample>) {
    let start = Instant::now() + Duration::from_millis(50);
    let upload_every = Duration::from_secs_f64(1.0 / UPLOADS_PER_S);
    let read_every = Duration::from_secs_f64(1.0 / READS_PER_S);
    let span = Duration::from_secs_f64(seconds);
    let mut schedule: Vec<(Instant, &'static str)> = Vec::new();
    // Reads sit half a period off the epoch ticks so the two never share
    // a due time.
    let mut t = read_every / 2;
    while t < span {
        schedule.push((start + t, "truths"));
        t += read_every;
    }
    let mut t = EPOCH_EVERY;
    while t <= span {
        schedule.push((start + t, "epoch"));
        t += EPOCH_EVERY;
    }
    // Host reference runs, a quarter period after each read, when the
    // read has long finished and an epoch is rarely still running.
    let mut t = read_every * 3 / 4;
    while t < span {
        schedule.push((start + t, "reference"));
        t += read_every;
    }
    schedule.sort_by_key(|&(due, _)| due);
    let truths = Request::get("/truths");
    let epoch = Request::new("POST", "/epoch", "");
    std::thread::scope(|scope| {
        let uploader = scope.spawn(|| {
            inputs
                .uploads
                .iter()
                .enumerate()
                .map(|(i, (request, _))| {
                    timed("ingest", addr, request, start + upload_every * i as u32)
                })
                .collect::<Vec<_>>()
        });
        let others = schedule
            .iter()
            .filter_map(|&(due, kind)| {
                let request = match kind {
                    "epoch" => &epoch,
                    "truths" => &truths,
                    _ => {
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        speed.sample(1);
                        return None;
                    }
                };
                Some(timed(kind, addr, request, due))
            })
            .collect();
        (uploader.join().expect("upload thread panicked"), others)
    })
}

/// The bulk phase: [`BULK_BURSTS`] bursts of [`BULK_BURST_BODIES`] bodies
/// sent back to back, one burst every [`BULK_EVERY`], with host
/// reference runs after each burst; returns the bodies' samples and the
/// time the bursts took.
fn bulk_phase(addr: SocketAddr, inputs: &Inputs, speed: &mut Speed) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut busy = Duration::ZERO;
    for (k, burst) in inputs
        .bulk
        .chunks(BULK_BURST_BODIES)
        .take(BULK_BURSTS)
        .enumerate()
    {
        if let Some(wait) = (start + BULK_EVERY * k as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let t = Instant::now();
        for (request, _) in burst {
            samples.push(timed("bulk", addr, request, Instant::now()));
        }
        busy += t.elapsed();
        speed.sample(BURST_REFERENCE_RUNS);
    }
    (samples, busy)
}

/// Prometheus samples by name.
fn scrape_prom(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let r = http::send_ok(addr, &Request::get("/metrics?format=prom"))?;
    Ok(prom::parse(&r.body)?
        .into_iter()
        .filter(|s| s.labels.is_empty())
        .map(|s| (s.name, s.value))
        .collect())
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    match field(doc, key)? {
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn window_tree(nodes: &Json) -> Vec<Node> {
    let Json::Arr(nodes) = nodes else {
        return Vec::new();
    };
    nodes
        .iter()
        .map(|n| Node {
            name: match field(n, "name") {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            },
            ns: num(n, "total_ns").unwrap_or(0.0) as u64,
            children: field(n, "children").map(window_tree).unwrap_or_default(),
        })
        .collect()
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let bulk_s = (BULK_EVERY * BULK_BURSTS as u32).as_secs_f64();
    let open_s = run.seconds - bulk_s;
    if open_s <= 0.0 {
        return Err(format!("--seconds must exceed the {bulk_s} s bulk phase"));
    }
    let open_uploads = (open_s * UPLOADS_PER_S) as usize;
    // The server parses bodies, updates tables, and runs AG-TR's DTW and
    // Algorithm 2 in its epochs: all four kinds of work.
    let mut setup_speed = Speed::new(BALANCED);
    let mut speed = Speed::new(BALANCED);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for i in 0..SETUPS {
        setup_speed.sample(REFERENCE_RUNS);
        let t = Instant::now();
        let inp = inputs(run.seed, open_uploads);
        let (server, preloaded) = start_and_preload(run, &inp)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.shutdown()?;
        } else {
            ready = Some((inp, server, preloaded));
        }
    }
    let (inputs, server, preloaded) = ready.expect("at least one set-up");
    let addr = server.addr;
    speed.sample(REFERENCE_RUNS);
    if run.trace {
        trace::start();
    }
    let prom_before = if run.trace {
        Some(scrape_prom(addr)?)
    } else {
        None
    };

    let phases = trace::span("pass");
    let phases_start = Instant::now();
    let (uploads, others) = {
        let _s = trace::span("loadgen.open");
        open_loop(addr, &inputs, open_s, &mut speed)
    };
    let close_open = {
        let _s = trace::span("loadgen.open.close");
        timed(
            "epoch",
            addr,
            &Request::new("POST", "/epoch", ""),
            Instant::now(),
        )
    };
    let (bulk, bulk_busy) = {
        let _s = trace::span("loadgen.bulk");
        bulk_phase(addr, &inputs, &mut speed)
    };
    let close_bulk = {
        let _s = trace::span("loadgen.bulk.close");
        timed(
            "epoch",
            addr,
            &Request::new("POST", "/epoch", ""),
            Instant::now(),
        )
    };
    let phases_wall = phases_start.elapsed();
    drop(phases);
    speed.sample(REFERENCE_RUNS);
    for (phase, samples) in [
        (
            "loadgen.open",
            uploads.iter().chain(&others).collect::<Vec<_>>(),
        ),
        ("loadgen.open.close", vec![&close_open]),
        ("loadgen.bulk", bulk.iter().collect()),
        ("loadgen.bulk.close", vec![&close_bulk]),
    ] {
        let parent = trace::last_index(phase);
        for s in samples {
            trace::record(s.kind, s.sent, s.done, parent);
        }
    }

    let mut failures = Vec::new();
    let reads: Vec<&Sample> = others.iter().filter(|s| s.kind == "truths").collect();
    let open_epochs: Vec<&Sample> = others.iter().filter(|s| s.kind == "epoch").collect();
    let all: Vec<&Sample> = uploads
        .iter()
        .chain(&others)
        .chain([&close_open, &close_bulk])
        .chain(&bulk)
        .collect();
    let failed = all.iter().filter(|s| !s.ok).count() as u64;

    // Latencies from due times; a failed request misses every limit.
    let due_ms = |samples: &[&Sample]| -> Vec<f64> {
        samples
            .iter()
            .map(|s| {
                if s.ok {
                    ms(due_timing(s.due, s.sent, s.done).latency)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    };
    let upload_refs: Vec<&Sample> = uploads.iter().collect();
    let late_max_ms = all
        .iter()
        .map(|s| ms(due_timing(s.due, s.sent, s.done).late))
        .fold(0.0, f64::max);

    // Freshness: each upload against the first epoch covering it.
    let mut covered = Vec::with_capacity(uploads.len());
    let mut total = preloaded;
    for (s, (_, n)) in uploads.iter().zip(&inputs.uploads) {
        if s.count != *n as u64 {
            failures.push(format!("upload of {n} reports: {} accepted", s.count));
        }
        total += s.count;
        covered.push((ns(s.due - phases_start), total));
    }
    let cuts: Vec<EpochCut> = open_epochs
        .iter()
        .copied()
        .chain([&close_open])
        .filter(|s| s.ok)
        .map(|s| EpochCut {
            done_ns: ns(s.done - phases_start),
            num_reports: s.count,
        })
        .collect();
    let fresh_ms: Vec<f64> = stats::freshness(&covered, &cuts)
        .into_iter()
        .map(|f| f.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
        .collect();

    let bulk_accepted: u64 = bulk.iter().map(|s| s.count).sum();
    for (s, (_, n)) in bulk.iter().zip(&inputs.bulk) {
        if s.count != *n as u64 {
            failures.push(format!("bulk body of {n} reports: {} accepted", s.count));
        }
    }
    let accepted = total + bulk_accepted;
    if close_bulk.count != accepted {
        failures.push(format!(
            "final snapshot holds {} reports, the server accepted {accepted}",
            close_bulk.count
        ));
    }

    // End-to-end times at the host's nominal speed (see `host`), except
    // freshness: the epoch schedule, not the host, sets most of it.
    let k = speed.scale("phases");
    let scaled = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x * k).collect() };
    let mut m = Metrics::new();
    m.insert(
        "setup_s",
        median_of(&setup_s) * setup_speed.scale("set-ups"),
    );
    let epoch_rtt: Vec<f64> = open_epochs.iter().map(|s| ms(s.done - s.sent)).collect();
    m.insert("pass_ms", median_of(&epoch_rtt) * k);
    m.latency("ingest", &scaled(due_ms(&upload_refs)), &[50.0, 99.0])?;
    m.latency("read", &scaled(due_ms(&reads)), &[50.0])?;
    m.latency("fresh", &fresh_ms, &[50.0, 99.0])?;
    m.insert(
        "bulk_reports_per_s",
        bulk_accepted as f64 / bulk_busy.as_secs_f64() / k,
    );
    m.insert("peak_rss_mb", stats::vm_hwm_mb(&server.pid())?);

    let layers = if run.trace {
        let prom_after = scrape_prom(addr)?;
        let history = http::send_ok(addr, &Request::get("/metrics/history?n=64"))?.body;
        Some((prom_after, history))
    } else {
        None
    };
    server.shutdown()?;

    let received = &inputs.sent_order[..(accepted as usize).min(inputs.sent_order.len())];
    let (labels, recomputed, ingest_ns_per_report) =
        check_final(&inputs, received, &close_bulk, &mut failures)?;

    let mut breakdowns = Vec::new();
    if let (Some((prom_after, history)), Some(prom_before)) = (layers, prom_before) {
        let first_epoch = scan_u64(
            open_epochs
                .first()
                .and_then(|s| s.body.as_deref())
                .unwrap_or(""),
            "epoch",
        )
        .unwrap_or(u64::MAX);
        let ctx = ServeTrace {
            prom_before,
            prom_after,
            history,
            first_epoch,
            phases_wall,
            all: &all,
            uploads: &inputs.upload_bodies,
            bulk: &inputs.bulk_bodies,
            ingest_ns_per_report,
            render_snapshot: &recomputed,
        };
        breakdowns.push(ctx.record(&mut m, &labels)?);
        m.insert("loadgen.late_max_ms", late_max_ms);
        for (phase, samples) in [
            (
                "open",
                uploads
                    .iter()
                    .chain(&others)
                    .chain([&close_open])
                    .collect::<Vec<_>>(),
            ),
            ("bulk", bulk.iter().chain([&close_bulk]).collect()),
        ] {
            let ok = samples.iter().filter(|s| s.ok).count() as f64;
            m.insert(&format!("loadgen.{phase}.sent"), samples.len() as f64);
            m.insert(&format!("loadgen.{phase}.succeeded"), ok);
            m.insert(
                &format!("loadgen.{phase}.failed"),
                samples.len() as f64 - ok,
            );
        }
    }
    Ok(Outcome {
        attempted: all.len() as u64,
        failed,
        failures,
        metrics: m,
        breakdowns,
    })
}

/// Checks the final snapshot against the streamed rings and against an
/// in-process cold recompute on the reports the server received (the bulk
/// phase sends a prefix of its slice). Returns the final labels, the
/// recomputed snapshot and the recompute's ingest cost per report.
fn check_final(
    inputs: &Inputs,
    received: &[Report],
    final_epoch: &Sample,
    failures: &mut Vec<String>,
) -> Result<(Vec<usize>, Arc<EpochSnapshot>, f64), String> {
    let fin = json::parse(final_epoch.body.as_deref().unwrap_or(""))
        .map_err(|e| format!("final epoch response: {e}"))?;
    let labels: Vec<usize> = match field(&fin, "labels") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Json::Num(x) => *x as usize,
                _ => usize::MAX,
            })
            .collect(),
        _ => return Err("final snapshot has no labels".into()),
    };
    let served_truths: Vec<Option<f64>> = match field(&fin, "truths") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v {
                Json::Num(x) => Some(*x),
                _ => None,
            })
            .collect(),
        _ => return Err("final snapshot has no truths".into()),
    };
    // The snapshot covers accounts up to the highest one received, and
    // the bulk phase may stop before the campaign's last accounts.
    let mut sent = vec![false; ACCOUNTS];
    for r in received {
        sent[r.account] = true;
    }
    if let Some(a) = (labels.len()..ACCOUNTS).find(|&a| sent[a]) {
        failures.push(format!(
            "final snapshot labels {} accounts, but account {a} sent reports",
            labels.len()
        ));
    }
    let streamed_rings: Vec<Vec<usize>> = inputs
        .rings
        .iter()
        .map(|ring| {
            ring.iter()
                .copied()
                .filter(|&a| a < labels.len() && sent[a])
                .collect::<Vec<_>>()
        })
        .filter(|ring| !ring.is_empty())
        .collect();
    crate::campaign::check_rings(&labels, &streamed_rings, failures);
    let t = Instant::now();
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        inputs.num_tasks,
        EpochConfig::default(),
    );
    for r in received {
        engine
            .ingest(r.account, r.task, r.value, r.timestamp)
            .map_err(|e| format!("recompute refused a report: {e}"))?;
    }
    let ingest_ns_per_report = t.elapsed().as_nanos() as f64 / received.len() as f64;
    let recomputed = engine.run_epoch_incremental();
    let mut worst: f64 = 0.0;
    for (task, (a, b)) in served_truths.iter().zip(&recomputed.truths).enumerate() {
        match (a, b) {
            (Some(a), Some(b)) => worst = worst.max((a - b).abs()),
            (None, None) => {}
            _ => failures.push(format!("task {task}: served {a:?}, recomputed {b:?}")),
        }
    }
    eprintln!("perfbench: served truths are within {worst} of the in-process recompute");
    if served_truths.len() != recomputed.truths.len() || worst > TRUTH_TOLERANCE {
        failures.push(format!(
            "served truths differ from the recompute by up to {worst} (tolerance {TRUTH_TOLERANCE})"
        ));
    }

    Ok((labels, recomputed, ingest_ns_per_report))
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// What the traced serve run collected after its phases.
struct ServeTrace<'a> {
    prom_before: BTreeMap<String, f64>,
    prom_after: BTreeMap<String, f64>,
    history: String,
    /// Epoch number of the first measured epoch.
    first_epoch: u64,
    phases_wall: Duration,
    all: &'a [&'a Sample],
    uploads: &'a [String],
    bulk: &'a [String],
    ingest_ns_per_report: f64,
    render_snapshot: &'a EpochSnapshot,
}

impl ServeTrace<'_> {
    fn delta(&self, name: &str) -> f64 {
        self.prom_after.get(name).copied().unwrap_or(0.0)
            - self.prom_before.get(name).copied().unwrap_or(0.0)
    }

    /// Fills the per-layer metrics and returns the phases' breakdown on
    /// the server's timeline.
    fn record(&self, m: &mut Metrics, labels: &[usize]) -> Result<Breakdown, String> {
        let busy_ms = self.delta("srtd_server_http_request_us_sum") / 1e3;
        let client_ms: f64 = self.all.iter().map(|s| ms(s.done - s.sent)).sum();
        m.insert("server.http.requests", self.all.len() as f64);
        m.insert("server.http.busy_ms", busy_ms);
        m.insert("server.http.wait_ms", client_ms - busy_ms);
        m.insert(
            "server.http.bytes_in",
            self.all.iter().map(|s| s.bytes_out).sum::<usize>() as f64,
        );
        m.insert(
            "server.http.bytes_out",
            self.all.iter().map(|s| s.bytes_in).sum::<usize>() as f64,
        );
        m.insert("runtime.pool.jobs", self.delta("srtd_runtime_pool_jobs"));
        m.insert(
            "runtime.pool.wakeups",
            self.delta("srtd_runtime_pool_wakeups"),
        );

        // The parser and renderer, timed in-process on the same documents.
        let parse_us = |bodies: &[String]| -> Result<f64, String> {
            let mut per_report = Vec::new();
            for b in bodies {
                let reports = b.matches("\"account\"").count().max(1) as f64;
                let t = Instant::now();
                let _s = trace::span("runtime.json.parse");
                json::parse(b).map_err(|e| e.to_string())?;
                per_report.push(t.elapsed().as_secs_f64() * 1e6 / reports);
            }
            Ok(median_of(&per_report))
        };
        m.insert(
            "runtime.json.parse_us_per_report.upload",
            parse_us(&self.uploads[..self.uploads.len().min(200)])?,
        );
        m.insert(
            "runtime.json.parse_us_per_report.bulk",
            parse_us(&self.bulk[..self.bulk.len().min(5)])?,
        );
        let mut render_ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let _s = trace::span("runtime.json.render");
            std::hint::black_box(self.render_snapshot.to_json().render().len());
            render_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.insert("runtime.json.render_ms", median_of(&render_ms));
        m.insert("platform.ingest.ns_per_report", self.ingest_ns_per_report);
        m.insert(
            "platform.ingest.rejected",
            self.delta("srtd_server_http_status_4xx_total"),
        );

        // Epoch windows of the measured phases.
        let doc = json::parse(&self.history).map_err(|e| format!("/metrics/history: {e}"))?;
        let Some(Json::Arr(windows)) = field(&doc, "windows") else {
            return Err("/metrics/history has no windows".into());
        };
        let mut per_epoch: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut epochs = Vec::new();
        for w in windows {
            let label = match field(w, "label") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "",
            };
            let Some(epoch) = label
                .strip_prefix("epoch-")
                .and_then(|e| e.parse::<u64>().ok())
            else {
                continue;
            };
            if epoch < self.first_epoch {
                continue;
            }
            let tree = field(w, "trace").map(window_tree).unwrap_or_default();
            let counters = field(w, "counters");
            let counter = |name: &str| counters.and_then(|c| num(c, name)).unwrap_or(0.0);
            let root = Node {
                name: "epoch".into(),
                ns: 0,
                children: tree,
            };
            let ms = |name: &str| root.total(name) as f64 / 1e6;
            let mut push = |name: &str, v: f64| {
                per_epoch
                    .entry(crate::metric_name(name))
                    .or_default()
                    .push(v)
            };
            push("platform.epoch.ms", ms("server.epoch"));
            push("platform.epoch.fold_ms", ms("epoch.fold"));
            push("platform.epoch.regroup_ms", ms("epoch.regroup"));
            push("platform.epoch.discover_ms", ms("epoch.discover"));
            push("platform.epoch.audit_ms", ms("epoch.audit"));
            push("platform.epoch.swap_ms", ms("epoch.swap"));
            push(
                "platform.epoch.dirty_accounts",
                counter("epoch.regroup.dirty_accounts"),
            );
            push("platform.epoch.rebuilds", counter("epoch.regroup.rebuilds"));
            push("truth.fold.ms", ms("epoch.fold"));
            push("truth.fold.reports", counter("server.epoch.folded"));
            let candidates = counter("grouping.ag_tr.pairs.candidate");
            let edges = counter("epoch.regroup.merged_edges");
            push(
                "core.ag_tr.candidate_ms",
                ms("ag_tr.dtw_edges") - ms("timeseries.pruned_pairwise"),
            );
            push("core.ag_tr.candidates", candidates);
            push("core.ag_tr.decide_ms", ms("timeseries.pruned_pairwise"));
            push("core.ag_tr.edges", edges);
            push("core.ag_tr.edge_yield", edges / candidates.max(1.0));
            for k in [
                "lb_kim_pruned",
                "lb_keogh_pruned",
                "early_abandoned",
                "full_evals",
            ] {
                let name = format!("timeseries.dtw.{k}");
                push(&name, counter(&name));
            }
            push("core.framework.ms", ms("epoch.discover"));
            push("core.framework.iterations", counter("framework.iterations"));
            push(
                "core.framework.warm_started",
                counter("framework.warm_starts"),
            );
            epochs.extend(root.children);
        }
        if epochs.is_empty() {
            return Err("no measured epoch in /metrics/history".into());
        }
        for (name, values) in &per_epoch {
            m.insert(name, median_of(values));
        }
        let epoch_ns: u64 = epochs.iter().map(|n| n.ns).sum();
        let wall_ns = ns(self.phases_wall);
        m.insert(
            "platform.epoch.lock_share",
            epoch_ns as f64 / wall_ns as f64,
        );
        m.insert(
            "graph.components",
            labels
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len() as f64,
        );
        m.insert("trace.overhead_pct", 0.0);

        // The phases on the server's timeline: epoch stages, the rest of
        // request handling, and the remainder (idle and socket I/O).
        let busy_ns = (busy_ms * 1e6) as u64;
        let mut children = epochs;
        children.push(Node::leaf("server.http", busy_ns.saturating_sub(epoch_ns)));
        let tree = Node {
            name: "pass".into(),
            ns: wall_ns,
            children,
        };
        Ok(Breakdown {
            wall_ns,
            layers: tree.layer_totals(),
        })
    }
}
