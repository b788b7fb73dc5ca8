//! The `serve_jobs` workload: an in-process `cfpd_serve::Daemon` with the
//! default `ServeConfig`, driven over HTTP by closed-loop clients that
//! each submit a 1-cell campaign, wait for it on the `/events` feed,
//! fetch its result and read status, progress and metrics meanwhile.

use crate::report::{metric, Metric, Report, Tally};
use crate::stats::{median, quantile};
use crate::{derive_seed, machine};
use cfpd_campaign::{expand, run_campaign, CampaignSpec};
use cfpd_serve::{http_call, Daemon, ServeConfig};
use cfpd_testkit::json::{self, JsonValue};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients, one per core of the reference 2-core machine.
pub const CLIENTS: usize = 2;
/// Daemon start-ups timed for `setup_s`.
pub const SETUP_REPS: usize = 25;
/// Steps of every job.
pub const JOB_STEPS: usize = 3;
/// A job not finished this long after submission counts as timed out.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Long-poll bound of one `/events` wait; a wake-up without news only
/// triggers another round of reads.
const EVENTS_WAIT_MS: u64 = 1_000;

/// Campaign text of job `k`: one cell at golden scale (small airway at
/// two generations, 2 ranks, 200 particles, 3 steps) with a seed of its
/// own, so no two jobs share a result.
pub fn job_spec(seed: u64, k: u64) -> String {
    format!(
        "[campaign]\nname = bench-{k}\n[scenario]\nranks = 2\ngenerations = 2\n\
         particles = 200\nsteps = {JOB_STEPS}\nseed = {}\n",
        derive_seed(seed, k + 1)
    )
}

/// One job as a client saw it.
pub struct JobLog {
    pub spec: String,
    /// Submit → result body received; infinite for a missed job.
    pub latency: f64,
    /// Served result document (`None` for a missed job).
    pub result: Option<String>,
    /// Submit returned → first status read showing the job running
    /// (only measured in traced runs, which poll for it).
    pub queue_wait: Option<f64>,
}

/// Everything one client recorded.
#[derive(Default)]
pub struct ClientLog {
    pub jobs: Vec<JobLog>,
    pub submit_s: Vec<f64>,
    pub status_read_s: Vec<f64>,
    pub progress_read_s: Vec<f64>,
    pub metrics_scrape_s: Vec<f64>,
    pub tally: Tally,
}

/// A measured load phase.
pub struct Load {
    pub clients: Vec<ClientLog>,
    pub elapsed: f64,
    /// Peak resident set through daemon start and the warm-up job.
    pub peak_rss_mb: f64,
}

impl Load {
    pub fn jobs(&self) -> impl Iterator<Item = &JobLog> {
        self.clients.iter().flat_map(|c| c.jobs.iter())
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.jobs().map(|j| j.latency).collect()
    }

    pub fn served(&self) -> usize {
        self.jobs().filter(|j| j.result.is_some()).count()
    }

    pub fn collect(&self, f: fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    http_call(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))
}

fn timed_call(
    addr: &str,
    method: &str,
    path: &str,
    spans: &mut Vec<f64>,
) -> Result<(u16, String), String> {
    let t0 = Instant::now();
    let out = call(addr, method, path, "");
    spans.push(t0.elapsed().as_secs_f64());
    out
}

fn parse_json(body: &str) -> Result<JsonValue, String> {
    json::parse(body).map_err(|e| format!("bad JSON {body:?}: {e:?}"))
}

/// The daemon's default configuration with its data under `dir`.
pub fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        data_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    }
}

/// Start a daemon and time `Daemon::start` until the first `200` from
/// `/healthz`.
pub fn start(dir: &Path) -> Result<(Daemon, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let daemon = Daemon::start(config(dir)).map_err(|e| format!("daemon start: {e}"))?;
    let addr = daemon.addr().to_string();
    loop {
        if let Ok((200, _)) = http_call(&addr, "GET", "/healthz", "") {
            return Ok((daemon, t0.elapsed().as_secs_f64()));
        }
        if t0.elapsed() > Duration::from_secs(10) {
            daemon.kill();
            return Err("daemon never answered /healthz".to_string());
        }
    }
}

/// Drain a daemon (it checkpoints and exits) and wait for its threads.
pub fn stop(daemon: Daemon) {
    let addr = daemon.addr().to_string();
    match http_call(&addr, "POST", "/drain", "") {
        Ok((200, _)) => daemon.join(),
        _ => daemon.kill(),
    }
}

/// Median set-up time over [`SETUP_REPS`] daemon start-ups.
pub fn setup_times(work: &Path, tally: &mut Tally) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..SETUP_REPS {
        match start(&work.join(format!("setup-{i}"))) {
            Ok((daemon, s)) => {
                tally.check(Ok(()));
                out.push(s);
                stop(daemon);
            }
            Err(e) => tally.check(Err(e)),
        }
    }
    out
}

/// The scenario a job spec expands to (its single cell).
pub fn job_scenario(spec: &str) -> Result<cfpd_core::Scenario, String> {
    let spec = CampaignSpec::from_text(spec).map_err(|e| format!("job spec: {e}"))?;
    let cells = expand(&spec).map_err(|e| format!("job spec: {e}"))?;
    cells
        .into_iter()
        .next()
        .map(|c| c.scenario)
        .ok_or_else(|| "job spec has no cell".to_string())
}

/// The `last` sequence number of the daemon's event feed.
fn feed_head(addr: &str) -> Result<u64, String> {
    let (_, body) = call(
        addr,
        "GET",
        &format!("/events?since={}&wait_ms=0", u64::MAX),
        "",
    )?;
    parse_json(&body)?
        .get("last")
        .and_then(JsonValue::as_u64)
        .ok_or("no feed head".to_string())
}

/// Why a job stopped being waited for.
enum Terminal {
    Done,
    Failed(String),
    TimedOut,
}

/// Block on `/events` until job `id` reaches a terminal state, issuing
/// one round of status, progress and metrics reads per wake-up.
fn wait_terminal(
    addr: &str,
    id: u64,
    cursor: &mut u64,
    t_submit: Instant,
    log: &mut ClientLog,
) -> Result<Terminal, String> {
    loop {
        let path = format!("/events?since={cursor}&wait_ms={EVENTS_WAIT_MS}");
        let (code, body) = call(addr, "GET", &path, "")?;
        if code != 200 {
            return Err(format!("GET /events answered {code}"));
        }
        let doc = parse_json(&body)?;
        let first = doc
            .get("first_retained")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let missed = first > *cursor + 1;
        *cursor = doc
            .get("last")
            .and_then(JsonValue::as_u64)
            .unwrap_or(*cursor);
        for e in doc
            .get("events")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
        {
            if e.get("job").and_then(JsonValue::as_u64) != Some(id) {
                continue;
            }
            match e.get("kind").and_then(JsonValue::as_str) {
                Some("done") => return Ok(Terminal::Done),
                Some(kind @ ("failed" | "cancelled")) => {
                    let detail = e.get("detail").and_then(JsonValue::as_str).unwrap_or("");
                    return Ok(Terminal::Failed(format!("job {id} {kind}: {detail}")));
                }
                _ => {}
            }
        }
        // Reads beside the writes the running jobs cause.
        let (code, status) =
            timed_call(addr, "GET", &format!("/jobs/{id}"), &mut log.status_read_s)?;
        if code != 200 {
            return Err(format!("GET /jobs/{id} answered {code}: {status}"));
        }
        timed_call(
            addr,
            "GET",
            &format!("/jobs/{id}/progress"),
            &mut log.progress_read_s,
        )?;
        timed_call(addr, "GET", "/metrics", &mut log.metrics_scrape_s)?;
        // The feed dropped events this client never saw: fall back on
        // the status document for the terminal state.
        if missed && status.contains("\"state\":\"done\"") {
            return Ok(Terminal::Done);
        }
        if t_submit.elapsed() > JOB_TIMEOUT {
            return Ok(Terminal::TimedOut);
        }
    }
}

/// One closed-loop client: submit, wait, fetch, repeat until `deadline`.
fn client(
    addr: &str,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    poll_queue: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    if let Err(e) = client_loop(addr, seed, next, deadline, poll_queue, &mut log) {
        log.tally.check(Err(e));
    }
    log
}

fn client_loop(
    addr: &str,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    poll_queue: bool,
    log: &mut ClientLog,
) -> Result<(), String> {
    let mut cursor = feed_head(addr)?;
    while Instant::now() < deadline {
        let spec = job_spec(seed, next.fetch_add(1, Ordering::Relaxed));
        serve_job(addr, spec, &mut cursor, poll_queue, log)?;
    }
    Ok(())
}

/// Submit one job, wait for it and fetch its result, logging it.
fn serve_job(
    addr: &str,
    spec: String,
    cursor: &mut u64,
    poll_queue: bool,
    log: &mut ClientLog,
) -> Result<(), String> {
    let missed = |spec: String| JobLog {
        spec,
        latency: f64::INFINITY,
        result: None,
        queue_wait: None,
    };
    let t_submit = Instant::now();
    let (code, body) = call(addr, "POST", "/jobs", &spec)?;
    log.submit_s.push(t_submit.elapsed().as_secs_f64());
    if code == 503 {
        log.tally.miss();
        log.jobs.push(missed(spec));
        return Ok(());
    }
    if code != 201 {
        return Err(format!("POST /jobs answered {code}: {body}"));
    }
    let id = parse_json(&body)?
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("no job id in {body:?}"))?;
    let queue_wait = if poll_queue {
        Some(poll_started(addr, id, Instant::now())?)
    } else {
        None
    };
    match wait_terminal(addr, id, cursor, t_submit, log)? {
        Terminal::Done => {}
        Terminal::Failed(why) => {
            log.tally.check(Err(why));
            log.jobs.push(missed(spec));
            return Ok(());
        }
        Terminal::TimedOut => {
            log.tally.miss();
            log.jobs.push(missed(spec));
            return Ok(());
        }
    }
    let (code, result) = call(addr, "GET", &format!("/jobs/{id}/result"), "")?;
    let latency = t_submit.elapsed().as_secs_f64();
    if code != 200 {
        return Err(format!("GET /jobs/{id}/result answered {code}: {result}"));
    }
    log.jobs.push(JobLog {
        spec,
        latency,
        result: Some(result),
        queue_wait,
    });
    Ok(())
}

/// Poll `GET /jobs/:id` until the job leaves the queue; the time since
/// `t0` is the job's queue wait, within one poll interval (1 ms).
fn poll_started(addr: &str, id: u64, t0: Instant) -> Result<f64, String> {
    loop {
        let (_, status) = call(addr, "GET", &format!("/jobs/{id}"), "")?;
        if !status.contains("\"state\":\"queued\"") {
            return Ok(t0.elapsed().as_secs_f64());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Drive a fresh daemon with [`CLIENTS`] closed-loop clients for
/// `window`, after one untimed warm-up job.
pub fn load(seed: u64, window: Duration, dir: &Path, poll_queue: bool) -> Result<Load, String> {
    let (daemon, _) = start(dir)?;
    let addr = daemon.addr().to_string();
    let mut warm = ClientLog::default();
    let warmed = feed_head(&addr).and_then(|mut cursor| {
        serve_job(
            &addr,
            job_spec(seed, u64::MAX / 2),
            &mut cursor,
            false,
            &mut warm,
        )
    });
    if let Err(e) = warmed {
        stop(daemon);
        return Err(format!("warm-up job: {e}"));
    }
    if warm.jobs.iter().any(|j| j.result.is_none()) || !warm.tally.correct() {
        stop(daemon);
        return Err(format!("warm-up job failed: {:?}", warm.tally.violations));
    }
    let peak_rss_mb = machine::peak_rss_mb();
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let deadline = t0 + window;
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(&addr, seed, &next, deadline, poll_queue)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    stop(daemon);
    Ok(Load {
        clients,
        elapsed,
        peak_rss_mb,
    })
}

/// A served job computed again, directly.
pub struct Direct {
    pub wall: f64,
    pub step_s: f64,
    pub parallel_efficiency: f64,
}

/// Recompute every served job with `cfpd_campaign::run_campaign`, one at
/// a time: the served bytes must equal its report, and its wall time
/// and cell metrics are the job's direct-compute numbers.
pub fn verify(load: &Load, tally: &mut Tally) -> Vec<Direct> {
    let mut out = Vec::new();
    for job in load.jobs() {
        let Some(served) = &job.result else { continue };
        let spec = match CampaignSpec::from_text(&job.spec) {
            Ok(s) => s,
            Err(e) => {
                tally.check(Err(format!("job spec: {e}")));
                continue;
            }
        };
        let t0 = Instant::now();
        let report = run_campaign(&spec, Some(1));
        let wall = t0.elapsed().as_secs_f64();
        tally.check(if *served == report.render_json() {
            Ok(())
        } else {
            Err(format!(
                "served result of {:?} differs from run_campaign",
                spec.name
            ))
        });
        if let Some(Ok(cell)) = report.cells.first() {
            out.push(Direct {
                wall,
                step_s: cell.wall.total_time / JOB_STEPS as f64,
                parallel_efficiency: cell.wall.parallel_efficiency,
            });
        }
    }
    out
}

/// The untraced end-to-end run of `serve_jobs`.
pub fn end_to_end(seed: u64, window: Duration, work: &Path) -> Report {
    let mut tally = Tally::default();
    let setup = setup_times(work, &mut tally);
    let load = match load(seed, window, &work.join("daemon"), false) {
        Ok(l) => l,
        Err(e) => {
            tally.check(Err(e));
            return Report {
                tally,
                metrics: Vec::new(),
            };
        }
    };
    // `Daemon::start` turns telemetry and the flight recorder on for the
    // whole process; the direct runs measure the default, unrecorded path.
    cfpd_telemetry::set_enabled(false);
    cfpd_flight::set_enabled(false);
    let direct = verify(&load, &mut tally);
    let metrics = serve_metrics(&setup, &direct, &load);
    for c in load.clients {
        tally.merge(c.tally);
    }
    Report { tally, metrics }
}

fn serve_metrics(setup: &[f64], direct: &[Direct], load: &Load) -> Vec<Metric> {
    let latencies = load.latencies();
    if setup.is_empty() || direct.is_empty() || latencies.is_empty() {
        return Vec::new();
    }
    let n = direct.len();
    let col = |f: fn(&Direct) -> f64| direct.iter().map(f).collect::<Vec<f64>>();
    vec![
        metric("setup_s", "s", median(setup), setup.len()),
        metric("run_s", "s", median(&col(|d| d.wall)), n),
        metric("step_s", "s", median(&col(|d| d.step_s)), n),
        metric(
            "parallel_efficiency",
            "ratio",
            median(&col(|d| d.parallel_efficiency)),
            n,
        ),
        metric("peak_rss_mb", "MiB", load.peak_rss_mb, 1),
        metric(
            "job_latency_p50_s",
            "s",
            median(&latencies),
            latencies.len(),
        ),
        metric(
            "job_latency_p90_s",
            "s",
            quantile(&latencies, 0.9),
            latencies.len(),
        ),
        metric(
            "jobs_per_s",
            "1/s",
            load.served() as f64 / load.elapsed,
            load.served(),
        ),
    ]
}
