//! `srtd-server` — the campaign-as-a-service front end.
//!
//! A std-only HTTP/1.1 server (bare `TcpListener`, the workspace's own
//! JSON wire format) over the platform's [`EpochEngine`]: reports stream
//! in over `POST /ingest`, an epoch boundary is an explicit `POST /epoch`,
//! and readers fetch the latest published snapshot while the next epoch
//! computes. The PR-2 observability layer doubles as the metrics endpoint.
//!
//! ```text
//! srtd-server [--port N] [--tasks N] [--method ag-tr|ag-ts|singletons] [--shards N]
//!             [--epoch-interval-ms N]
//! ```
//!
//! Endpoints:
//!
//! * `GET  /healthz`  — readiness: epoch and generation counters, ingest
//!   backlog, last-epoch duration
//! * `POST /ingest`   — `{"reports":[{"account":A,"task":T,"value":V,"timestamp":S},…]}`;
//!   each report is validated and buffered, the response counts
//!   acceptances and rejections (with reasons)
//! * `POST /epoch`    — drain the buffers, fold, re-group incrementally
//!   (cached decision edges + persistent union-find; identical to a
//!   from-scratch rebuild), run warm-started Algorithm 2, publish;
//!   returns the new snapshot
//! * `GET  /truths`   — the latest published snapshot (epoch, truths, …)
//! * `GET  /groups`   — the latest grouping: labels and group weights
//! * `GET  /metrics`  — the obs registry's deterministic JSON export;
//!   `?format=prom` switches to Prometheus text exposition of the full
//!   snapshot (gauges and spans included)
//! * `GET  /metrics/history?n=N` — the last N completed epoch windows
//!   (delta reports + trace trees), oldest first
//! * `GET  /trace`    — the latest completed epoch's trace tree
//! * `POST /shutdown` — acknowledge and exit cleanly
//!
//! Every request additionally feeds the obs registry: a
//! `server.http.requests` counter, per-status-class counters
//! (`server.http.status.2xx`, …) and a `server.http.request_us` latency
//! histogram.
//!
//! `--method` picks the grouping once at start-up; the server itself is
//! one generic loop over `EpochEngine<G>` for any [`EdgeGrouping`], and
//! every epoch takes the incremental re-grouping path.
//!
//! Requests are handled sequentially on the accept thread: the engine is
//! deterministic, and the serving story is snapshot handoff, not request
//! parallelism — the heavy lifting inside an epoch already runs on the
//! runtime's persistent worker pool. Two constants keep one client from
//! stalling or killing that loop: each connection gets a read and write
//! deadline (`CONNECTION_DEADLINE`), so an idle socket is dropped rather
//! than waited on forever, and a `Content-Length` above `MAX_BODY_BYTES`
//! is answered `413` before any body buffer is allocated.
//!
//! With `--epoch-interval-ms N` a ticker thread drives epochs on a
//! timer: every `N` milliseconds it takes the engine lock and, if any
//! reports are pending, runs the same incremental epoch `POST /epoch`
//! would (explicit `POST /epoch` keeps working alongside the timer —
//! both paths serialize on the engine mutex). Ticks and timer-driven
//! epochs are counted in `server.epoch.timer_{ticks,epochs}`. The
//! shutdown route stops the ticker and joins it before the process
//! exits, so a timer-driven server still shuts down cleanly.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sybil_td::core::{
    AccountGrouping, AgTr, AgTs, EdgeGrouping, SingletonGrouping, SybilResistantTd,
};
use sybil_td::platform::{EpochConfig, EpochEngine};
use sybil_td::runtime::json::{parse, Json, ToJson};
use sybil_td::runtime::obs;

const USAGE: &str = "\
srtd-server — epoch-driven truth discovery service

USAGE:
  srtd-server [--port N] [--tasks N] [--method ag-tr|ag-ts|singletons] [--shards N]
              [--epoch-interval-ms N]

--port 0 (the default) binds an ephemeral loopback port; the chosen port
is announced on stdout as `listening on 127.0.0.1:PORT`.
--epoch-interval-ms N runs an epoch every N ms whenever reports are
pending (0, the default, disables the timer; epochs then run only on
POST /epoch).";

/// Largest request body the server reads: far above the ~80 KB of a
/// 1000-report bulk ingest body. A larger `Content-Length` is answered
/// 413 before any buffer is allocated.
const MAX_BODY_BYTES: usize = 16 << 20;

/// Per-connection read and write deadline: a client that goes silent
/// mid-request (or never sends one) is dropped after this long, so one
/// idle connection cannot hold the serial accept loop.
const CONNECTION_DEADLINE: Duration = Duration::from_secs(5);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let flags = parse_flags(args)?;
    let port: u16 = flag_parse(&flags, "port", 0)?;
    let tasks: usize = flag_parse(&flags, "tasks", 64)?;
    let shards: usize = flag_parse(&flags, "shards", 4)?;
    let epoch_interval_ms: u64 = flag_parse(&flags, "epoch-interval-ms", 0)?;
    let method = flags.get("method").map_or("ag-tr", String::as_str);
    if tasks == 0 {
        return Err("--tasks must be at least 1".into());
    }

    let config = EpochConfig { num_shards: shards };
    // The grouping method is picked once here; everything below is one
    // generic server over `EpochEngine<G>`.
    match method {
        "ag-tr" => serve(
            EpochEngine::new(SybilResistantTd::new(AgTr::default()), tasks, config),
            port,
            epoch_interval_ms,
        ),
        "ag-ts" => serve(
            EpochEngine::new(SybilResistantTd::new(AgTs::default()), tasks, config),
            port,
            epoch_interval_ms,
        ),
        "singletons" => serve(
            EpochEngine::new(SybilResistantTd::new(SingletonGrouping), tasks, config),
            port,
            epoch_interval_ms,
        ),
        other => Err(format!("unknown grouping method `{other}`")),
    }
}

/// Binds the listener, announces the port, and serves `engine` until
/// `POST /shutdown`. Every epoch takes the incremental re-grouping path:
/// all served methods are `EdgeGrouping`s, so only pairs touching a
/// dirty account are re-decided, and the published snapshot is pinned
/// identical to the batch rebuild (server-check drives an in-process
/// batch engine alongside an HTTP server and compares every epoch).
fn serve<G: EdgeGrouping + Send + 'static>(
    engine: EpochEngine<G>,
    port: u16,
    epoch_interval_ms: u64,
) -> Result<(), String> {
    obs::set_enabled(true);

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    std::io::stdout().flush().ok();

    // The accept loop and the (optional) epoch ticker share the engine
    // behind one mutex; requests stay effectively sequential, the timer
    // just interleaves whole epochs between them.
    let engine = Arc::new(Mutex::new(engine));
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let ticker = (epoch_interval_ms > 0)
        .then(|| spawn_epoch_ticker(epoch_interval_ms, &engine, &stop))
        .transpose()?;

    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept error: {e}");
                continue;
            }
        };
        match handle_connection(stream, &engine) {
            Ok(keep_serving) => {
                if !keep_serving {
                    break;
                }
            }
            Err(e) => eprintln!("connection error: {e}"),
        }
    }

    // Clean shutdown: wake the ticker, tell it to stop, wait for any
    // in-flight timer epoch to finish.
    let (flag, wake) = &*stop;
    *flag.lock().expect("stop flag poisoned") = true;
    wake.notify_all();
    if let Some(handle) = ticker {
        handle
            .join()
            .map_err(|_| "epoch ticker panicked".to_string())?;
    }
    Ok(())
}

/// Spawns the timer thread behind `--epoch-interval-ms`: every interval
/// it runs one incremental epoch if (and only if) reports are pending,
/// so an idle server does not spin epoch numbers. The `stop` pair wakes
/// it immediately on shutdown.
fn spawn_epoch_ticker<G: EdgeGrouping + Send + 'static>(
    interval_ms: u64,
    engine: &Arc<Mutex<EpochEngine<G>>>,
    stop: &Arc<(Mutex<bool>, Condvar)>,
) -> Result<std::thread::JoinHandle<()>, String> {
    let engine = Arc::clone(engine);
    let stop = Arc::clone(stop);
    let interval = Duration::from_millis(interval_ms);
    std::thread::Builder::new()
        .name("srtd-epoch-timer".into())
        .spawn(move || {
            let (flag, wake) = &*stop;
            let mut stopped = flag.lock().expect("stop flag poisoned");
            loop {
                let (guard, timeout) = wake
                    .wait_timeout(stopped, interval)
                    .expect("stop flag poisoned");
                stopped = guard;
                if *stopped {
                    return;
                }
                if timeout.timed_out() {
                    // Drop the stop lock while the epoch runs so shutdown
                    // is never blocked behind engine work.
                    drop(stopped);
                    obs::counter_add("server.epoch.timer_ticks", 1);
                    {
                        let mut engine = engine.lock().expect("engine poisoned");
                        if engine.pending_reports() > 0 {
                            engine.run_epoch_incremental();
                            obs::counter_add("server.epoch.timer_epochs", 1);
                        }
                    }
                    stopped = flag.lock().expect("stop flag poisoned");
                }
            }
        })
        .map_err(|e| format!("cannot spawn epoch ticker: {e}"))
}

/// Handles one request on `stream`; `Ok(false)` means a clean shutdown
/// was requested.
fn handle_connection<G: EdgeGrouping>(
    stream: TcpStream,
    engine: &Mutex<EpochEngine<G>>,
) -> Result<bool, String> {
    stream
        .set_read_timeout(Some(CONNECTION_DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(CONNECTION_DEADLINE)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader
        .read_line(&mut request_line)
        .map_err(|e| e.to_string())?;
    let mut parts = request_line.split_whitespace();
    let (Some(verb), Some(path)) = (parts.next(), parts.next()) else {
        return respond(
            reader.into_inner(),
            &Response::json(400, error_json("malformed request line")),
        )
        .map(|()| true);
    };
    let (verb, path) = (verb.to_string(), path.to_string());

    // Headers: only Content-Length matters for this wire format.
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        let message =
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap");
        return respond(
            reader.into_inner(),
            &Response::json(413, error_json(&message)),
        )
        .map(|()| true);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let stream = reader.into_inner();

    let started = std::time::Instant::now();
    let (path, query) = split_query(&path);
    let (response, keep_serving) = {
        let mut engine = engine.lock().expect("engine poisoned");
        route(&verb, path, &query, &body, &mut engine)
    };

    // Per-request telemetry: total + status-class counters and a latency
    // histogram. Recorded before the write so even a failed send counts.
    obs::counter_add("server.http.requests", 1);
    obs::counter_add(
        &format!("server.http.status.{}xx", response.status / 100),
        1,
    );
    obs::observe(
        "server.http.request_us",
        started.elapsed().as_secs_f64() * 1e6,
    );

    respond(stream, &response)?;
    Ok(keep_serving)
}

/// One route's outcome, before it is written to the socket.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }
}

/// Dispatches one parsed request; the bool is `false` after `/shutdown`.
fn route<G: EdgeGrouping>(
    verb: &str,
    path: &str,
    query: &[(String, String)],
    body: &str,
    engine: &mut EpochEngine<G>,
) -> (Response, bool) {
    let param = |name: &str| {
        query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let response = match (verb, path) {
        ("GET", "/healthz") => {
            let snap = engine.latest();
            let doc = Json::obj([
                ("status", Json::str("ok")),
                // Ready once a first snapshot has been published: before
                // epoch 1 every truth is still `None`.
                ("ready", (snap.epoch > 0).to_json()),
                ("epoch", snap.epoch.to_json()),
                ("generation", snap.generation.to_json()),
                ("pending", engine.pending_reports().to_json()),
                ("last_epoch_duration_ns", snap.duration_ns.to_json()),
            ]);
            Response::json(200, doc.render())
        }
        ("POST", "/ingest") => match ingest_batch(engine, body) {
            Ok(doc) => Response::json(200, doc.render()),
            Err(e) => Response::json(400, error_json(&e)),
        },
        ("POST", "/epoch") => {
            let snap = engine.run_epoch_incremental();
            Response::json(200, snap.to_json().render())
        }
        ("GET", "/truths") => Response::json(200, engine.latest().to_json().render()),
        ("GET", "/groups") => {
            let snap = engine.latest();
            let doc = Json::obj([
                ("epoch", snap.epoch.to_json()),
                ("num_groups", snap.num_groups().to_json()),
                ("labels", snap.labels.to_json()),
                ("group_weights", snap.group_weights.to_json()),
            ]);
            Response::json(200, doc.render())
        }
        ("GET", "/metrics") => match param("format") {
            Some("prom") => Response::text(200, obs::prom::render(&obs::snapshot())),
            Some(other) => Response::json(400, error_json(&format!("unknown format `{other}`"))),
            None => Response::json(200, obs::snapshot().deterministic_json()),
        },
        ("GET", "/metrics/history") => {
            let n = match param("n").map(str::parse::<usize>) {
                None => usize::MAX,
                Some(Ok(n)) => n,
                Some(Err(_)) => {
                    return (
                        Response::json(400, error_json("`n` must be a non-negative integer")),
                        true,
                    )
                }
            };
            let windows = obs::history(n);
            let doc = Json::obj([
                ("count", windows.len().to_json()),
                ("windows", Json::arr(windows.iter().map(ToJson::to_json))),
            ]);
            Response::json(200, doc.render())
        }
        ("GET", "/trace") => match obs::latest_window() {
            Some(w) => {
                let doc = Json::obj([
                    ("window", w.index.to_json()),
                    ("label", Json::str(w.label.as_str())),
                    ("trace", Json::arr(w.trace.iter().map(ToJson::to_json))),
                ]);
                Response::json(200, doc.render())
            }
            None => Response::json(404, error_json("no completed epoch window yet")),
        },
        ("POST", "/shutdown") => {
            let doc = Json::obj([("status", Json::str("shutting down"))]);
            return (Response::json(200, doc.render()), false);
        }
        _ => Response::json(404, error_json(&format!("no route {verb} {path}"))),
    };
    (response, true)
}

/// Splits `/path?k=v&k2=v2` into the path and its query pairs (values
/// may be empty; no percent-decoding — the wire format never needs it).
fn split_query(path: &str) -> (&str, Vec<(String, String)>) {
    match path.split_once('?') {
        None => (path, Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect();
            (path, pairs)
        }
    }
}

/// Parses an ingest body and feeds each report to the engine. Invalid
/// JSON is a request-level error; per-report rejections are part of a
/// successful response.
fn ingest_batch<G: AccountGrouping>(
    engine: &mut EpochEngine<G>,
    body: &str,
) -> Result<Json, String> {
    let doc = parse(body).map_err(|e| e.to_string())?;
    let Json::Obj(fields) = &doc else {
        return Err("expected a JSON object".into());
    };
    let reports = fields
        .iter()
        .find(|(k, _)| k == "reports")
        .map(|(_, v)| v)
        .ok_or_else(|| "missing `reports` array".to_string())?;
    let Json::Arr(reports) = reports else {
        return Err("`reports` must be an array".into());
    };
    let mut accepted = 0usize;
    let mut rejections = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        let (account, task, value, timestamp) = report_fields(report)
            .ok_or_else(|| format!("report {i}: need account, task, value, timestamp"))?;
        match engine.ingest(account, task, value, timestamp) {
            Ok(()) => accepted += 1,
            Err(e) => rejections.push(Json::obj([
                ("index", i.to_json()),
                ("reason", Json::str(e.to_string())),
            ])),
        }
    }
    Ok(Json::obj([
        ("accepted", accepted.to_json()),
        ("rejected", rejections.len().to_json()),
        ("rejections", Json::Arr(rejections)),
        ("pending", engine.pending_reports().to_json()),
    ]))
}

fn report_fields(report: &Json) -> Option<(usize, usize, f64, f64)> {
    let Json::Obj(fields) = report else {
        return None;
    };
    let num = |name: &str| -> Option<f64> {
        fields.iter().find_map(|(k, v)| match v {
            Json::Num(x) if k == name => Some(*x),
            _ => None,
        })
    };
    let index = |name: &str| -> Option<usize> {
        let x = num(name)?;
        (x.fract() == 0.0 && x >= 0.0).then_some(x as usize)
    };
    Some((
        index("account")?,
        index("task")?,
        num("value")?,
        num("timestamp")?,
    ))
}

fn error_json(message: &str) -> String {
    Json::obj([("error", Json::str(message))]).render()
}

fn respond(mut stream: TcpStream, response: &Response) -> Result<(), String> {
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        _ => "Error",
    };
    let wire = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.body
    );
    stream
        .write_all(wire.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| e.to_string())
}

/// Flags that take no value; their presence alone is the signal.
const BOOLEAN_FLAGS: &[&str] = &[];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), String::from("1"));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{raw}`")),
        None => Ok(default),
    }
}
