//! `threev-perfbench`: freshness, memory and set-up cost of `threev-server`
//! on seeded hospital workloads, with its latency, capacity and CPU cost
//! per command, and a traced per-layer ladder.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run replays the workload's seeded schedule into an in-process
//! server over loopback TCP: open loop at the workload's fixed rate, then
//! closed loop over a fresh server for capacity, each followed by a full
//! read-back check.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics instead: the socket phases' latency and capacity
//! (`load.*`) plus a lock-step, layer-by-layer replay of the same commands
//! (see `trace.rs`). Either way the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; progress,
//! the machine and the sample counts go to standard error. A failed
//! correctness check still prints the result, with `"correct": false`, and
//! exits with 1.

mod check;
mod net;
mod stats;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use threev_model::{Key, Schema, TxnPlan};
use threev_server::{Client, ClientError};

use check::ReadBack;
use net::{Outcome, Sample};
use trace::Metric;
use work::{is_inquiry, Expected, Schedule, Setup, Workload};

/// Share of `--seconds` the open-loop schedule spans.
const OPEN_SHARE: f64 = 0.7;
/// Share of `--seconds` the closed-loop phase may run at most.
const PEAK_SHARE: f64 = 0.3;
/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = work::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line plus anything that makes the run incorrect.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Count one phase's requests; anything but a commit is a failure.
    fn outcomes(&mut self, phase: &str, outcomes: impl Iterator<Item = Outcome>) {
        let mut by: BTreeMap<&str, u64> = BTreeMap::new();
        for o in outcomes {
            self.attempted += 1;
            let key = match o {
                Outcome::Committed => continue,
                Outcome::Aborted => "aborted",
                Outcome::Busy => "busy",
                Outcome::Error => "error",
            };
            *by.entry(key).or_default() += 1;
            self.failed += 1;
        }
        if !by.is_empty() {
            self.problem(format!("{phase}: {by:?}"));
        }
    }

    fn read_back(&mut self, phase: &str, rb: Result<ReadBack, ClientError>) {
        let rb = rb.unwrap_or_else(|e| ReadBack {
            errors: 1,
            first_wrong: Some(format!("read-back failed: {e}")),
            ..ReadBack::default()
        });
        eprintln!(
            "check: {phase} read-back {} keys, {} wrong, {} failed reads",
            rb.checked, rb.wrong, rb.errors
        );
        if !rb.ok() {
            self.failed += rb.wrong + rb.errors;
            self.problem(format!(
                "{phase} read-back: {}",
                rb.first_wrong.as_deref().unwrap_or("?")
            ));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { -1.0 };
                format!("{name:?}: {{\"value\": {v:?}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// CPU time consumed so far by the server's threads (acceptor, workers,
/// engine), nanoseconds, from each thread's `schedstat`. They are found by
/// the names `serve` gives them; the benchmark's own unnamed threads
/// inherit the process name, `threev-perfbenc`, and do not count.
fn server_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| {
                ["threev-engine", "threev-worker", "threev-acceptor"]
                    .iter()
                    .any(|p| c.starts_with(p))
            })
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Process memory high-water mark (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ask the server for one final advancement, then read every counter and
/// journal back over a fresh connection and compare with the commands
/// that committed.
fn read_back_over(
    setup: &Setup,
    w: &Workload,
    committed: impl Iterator<Item = usize>,
) -> Result<ReadBack, ClientError> {
    let expected = Expected::of(committed.map(|i| &setup.schedule[i].1));
    let mut client = Client::connect(setup.addr())?;
    client.trigger_advancement()?;
    Ok(check::read_back(w, &expected, |keys: &[Key]| {
        client.read(keys)
    }))
}

/// Updates acknowledged before each inquiry was sent whose version is
/// above the inquiry's: what the inquiry could not yet see.
fn inquiry_lags(schedule: &Schedule, samples: &[Sample]) -> Vec<f64> {
    let mut updates: Vec<(u64, u32)> = Vec::new();
    let mut inquiries: Vec<(u64, u32)> = Vec::new();
    for s in samples {
        let (Outcome::Committed, Some(v)) = (s.outcome, s.version) else {
            continue;
        };
        if is_inquiry(&schedule[s.idx].1) {
            inquiries.push((s.sent_ns, v));
        } else {
            updates.push((s.done_ns, v));
        }
    }
    updates.sort_unstable();
    inquiries.sort_unstable();
    let mut by_version: BTreeMap<u32, u64> = BTreeMap::new();
    let mut next = 0;
    inquiries
        .iter()
        .map(|&(sent, v)| {
            while next < updates.len() && updates[next].0 < sent {
                *by_version.entry(updates[next].1).or_default() += 1;
                next += 1;
            }
            by_version.range(v + 1..).map(|(_, n)| *n).sum::<u64>() as f64
        })
        .collect()
}

/// Median and p99 latency of one request class by nearest rank, logging
/// the sample count and the highest percentile it supports.
fn latency(class: &str, lat_us: &[f64]) -> (f64, f64) {
    let top = stats::highest_supported(lat_us.len());
    eprintln!(
        "samples: {class} n={} highest supported percentile={}",
        lat_us.len(),
        top.map_or("none".to_string(), |q| format!("p{}", q * 100.0))
    );
    if !stats::supported(0.99, lat_us.len()) {
        eprintln!("warning: {class} p99 rests on fewer than 10 samples beyond it");
    }
    let sorted = stats::sorted(lat_us);
    let p = |q| stats::percentile(&sorted, q).unwrap_or(0.0);
    (p(0.5), p(0.99))
}

/// What the two socket phases measured.
struct Socket {
    schema: Schema,
    schedule: Schedule,
    samples: Vec<Sample>,
    peak_cps: f64,
    server_cpu_us_per_cmd: f64,
}

impl Socket {
    /// Latencies of committed updates or inquiries.
    fn latencies(&self, inquiries: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|x| x.outcome == Outcome::Committed)
            .filter(|x| is_inquiry(&self.schedule[x.idx].1) == inquiries)
            .map(Sample::latency_us)
            .collect()
    }

    /// The wall-clock figures of the socket phases.
    fn metrics(&self, r: &Report) -> Vec<Metric> {
        let (u50, u99) = latency("update", &self.latencies(false));
        let (i50, i99) = latency("inquiry", &self.latencies(true));
        let late = stats::sorted(
            &self
                .samples
                .iter()
                .map(|x| x.late_ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        );
        let p = |q| stats::percentile(&late, q).unwrap_or(0.0);
        vec![
            ("load.update_p50_us", u50, "us"),
            ("load.update_p99_us", u99, "us"),
            ("load.inquiry_p50_us", i50, "us"),
            ("load.inquiry_p99_us", i99, "us"),
            ("load.peak_cps", self.peak_cps, "1/s"),
            (
                "load.failed_frac",
                r.failed as f64 / r.attempted.max(1) as f64,
                "ratio",
            ),
            ("load.send_late_p50_us", p(0.5), "us"),
            ("load.send_late_p99_us", p(0.99), "us"),
            ("server.cpu_us_per_cmd", self.server_cpu_us_per_cmd, "us"),
        ]
    }
}

/// Set up twice: the first server takes the open loop, the second the
/// closed loop. Every server's store is read back after its phase.
fn socket_phases(a: &Args, r: &mut Report) -> Result<Socket, String> {
    let w = &a.workload;
    let open = Duration::from_secs_f64(a.seconds * OPEN_SHARE);
    let cap = Duration::from_secs_f64(a.seconds * PEAK_SHARE);
    let io = |e: std::io::Error| format!("set-up failed: {e}");

    let s = Setup::new(w, a.seed, open).map_err(io)?;
    eprintln!(
        "open loop: {} commands over {:.1}s at {} tps",
        s.schedule.len(),
        open.as_secs_f64(),
        w.rate_tps
    );
    let cpu0 = server_cpu_ns();
    let samples = net::open_loop(s.addr(), &s.schedule).map_err(|e| format!("open loop: {e}"))?;
    let server_cpu_us_per_cmd =
        server_cpu_ns().saturating_sub(cpu0) as f64 / 1e3 / samples.len().max(1) as f64;
    r.outcomes("open loop", samples.iter().map(|x| x.outcome));
    let committed = samples.iter().filter(|x| x.outcome == Outcome::Committed);
    r.read_back("open loop", read_back_over(&s, w, committed.map(|x| x.idx)));
    let schema = s.schema.clone();
    let schedule = s.schedule.clone();
    s.shutdown().map_err(io)?;

    let s = Setup::new(w, a.seed, open).map_err(io)?;
    let cl =
        net::closed_loop(s.addr(), &s.schedule, cap).map_err(|e| format!("closed loop: {e}"))?;
    eprintln!(
        "closed loop: {} commands in {:.3}s",
        cl.sent.len(),
        cl.elapsed().as_secs_f64()
    );
    r.outcomes("closed loop", cl.sent.iter().map(|x| x.1));
    let committed = cl.sent.iter().filter(|x| x.1 == Outcome::Committed);
    r.read_back("closed loop", read_back_over(&s, w, committed.map(|x| x.0)));
    s.shutdown().map_err(io)?;
    Ok(Socket {
        schema,
        schedule,
        samples,
        peak_cps: cl.committed_per_sec(),
        server_cpu_us_per_cmd,
    })
}

/// [`SETUPS`] back-to-back set-ups (each server shut down before the
/// next), seconds each: the first pays the process's cold start, the
/// median does not.
fn timed_setups(a: &Args) -> Result<Vec<f64>, String> {
    let open = Duration::from_secs_f64(a.seconds * OPEN_SHARE);
    (0..SETUPS)
        .map(|_| {
            let s =
                Setup::new(&a.workload, a.seed, open).map_err(|e| format!("set-up failed: {e}"))?;
            let secs = s.elapsed.as_secs_f64();
            s.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            Ok(secs)
        })
        .collect()
}

/// Untraced run: every end-to-end metric.
fn end_to_end(a: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let setup_s = timed_setups(a)?;
    eprintln!("set-ups (s): {setup_s:?}");
    let socket = socket_phases(a, &mut r)?;

    // Engine invariants and message count on an in-process replay of the
    // same commands, in schedule order.
    let e = trace::engine_pass(&socket.schema, &socket.schedule, a.seed);
    let inv = check::Invariants::of(e.engine.cluster());
    eprintln!(
        "check: replay {inv:?}, {} of {} commands failed",
        e.failed,
        socket.schedule.len()
    );
    if !inv.ok() || e.failed > 0 {
        r.failed += e.failed;
        r.problem(format!("replay: {inv:?}, {} failed", e.failed));
    }
    let msgs = trace::Kernel::of(e.engine.cluster()).messages;
    let msgs_per_cmd = msgs as f64 / socket.schedule.len().max(1) as f64;
    drop(e);

    // Wall-clock latency, capacity and server CPU time are logged here and
    // reported by the traced run: on a shared machine they spread too
    // widely between runs to gate on (perfbench/README.md).
    for (name, value, unit) in socket.metrics(&r) {
        eprintln!("{name:<34} {value:>14.3} {unit}");
    }
    let lags = stats::sorted(&inquiry_lags(&socket.schedule, &socket.samples));
    let lag = |q| stats::percentile(&lags, q).unwrap_or(0.0);
    r.metrics = vec![
        ("inquiry_lag_updates_p50", lag(0.5), "count"),
        ("inquiry_lag_updates_p99", lag(0.99), "count"),
        ("msgs_per_cmd", msgs_per_cmd, "count"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("setup_s", stats::median(&setup_s), "s"),
    ];
    Ok(r)
}

/// Traced run: every per-layer metric.
fn traced(a: &Args) -> Result<Report, String> {
    let w = &a.workload;
    let mut r = Report::default();
    let socket = socket_phases(a, &mut r)?;
    let (schema, schedule) = (&socket.schema, &socket.schedule);

    eprintln!("trace: lock-step replay of {} commands", schedule.len());
    let open = Duration::from_secs_f64(a.seconds * OPEN_SHARE);
    let s = Setup::new(w, a.seed, open).map_err(|e| format!("set-up failed: {e}"))?;
    let mut client = Client::connect(s.addr()).map_err(|e| format!("connect: {e}"))?;
    let replay = trace::replay(schema, schedule, a.seed, &mut client);
    drop(client);
    let failed = replay.driver.failed + replay.engine.failed + replay.socket_failed;
    r.attempted += 3 * schedule.len() as u64;
    r.failed += failed;
    if failed > 0 {
        r.problem(format!("lock-step replay: {failed} commands failed"));
    }
    r.read_back("socket replica", read_back_over(&s, w, 0..schedule.len()));
    s.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    match trace::replica_check(&replay.driver, &replay.engine) {
        Ok(()) => eprintln!("check: traced driver and engine fingerprints agree"),
        Err(e) => {
            r.failed += 1;
            r.problem(e);
        }
    }

    let plans: Vec<TxnPlan> = schedule.iter().map(|(_, p)| p.clone()).collect();
    let codec = trace::codec_pass(schedule, &trace::replies_of(&replay.engine, &plans));
    if codec.failed > 0 {
        r.failed += codec.failed;
        r.problem(format!(
            "codec: {} frames failed to round-trip",
            codec.failed
        ));
    }
    let mut metrics = socket.metrics(&r);
    metrics.extend(trace::layer_metrics(&replay, &codec));
    r.metrics = metrics;
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "machine: available_parallelism={} os={} arch={}; workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::consts::OS,
        std::env::consts::ARCH,
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                eprintln!("{name:<34} {value:>14.3} {unit}");
            }
            for p in &report.problems {
                eprintln!("INCORRECT: {p}");
            }
            println!("{}", report.json());
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
