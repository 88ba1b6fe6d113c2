//! The socket phases: open-loop replay and closed-loop saturation.
//!
//! Both phases deal the schedule round-robin over [`CONNECTIONS`] client
//! connections, one sender thread each. The open loop fires every request
//! at `epoch + offset` and times it from that *scheduled* instant, so a
//! stall shows in every request queued behind it. The closed loop sends
//! each lane's next request as soon as the previous reply arrives.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use threev_server::{Client, ClientError};

use crate::work::{Schedule, CONNECTIONS};

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `TxnDone` with `committed`.
    Committed,
    /// `TxnDone` without `committed`.
    Aborted,
    /// Refused under backpressure.
    Busy,
    /// Transport or server error.
    Error,
}

/// One fired request of the open loop. Times are nanoseconds from the
/// phase epoch.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Index into the schedule.
    pub idx: usize,
    /// When the request was due.
    pub due_ns: u64,
    /// When it was actually written to the socket.
    pub sent_ns: u64,
    /// When its reply arrived.
    pub done_ns: u64,
    /// How late the sender woke: `sent − max(due, previous reply)`. The
    /// part of a request's wait the generator, not the server, caused.
    pub late_ns: u64,
    /// Version the transaction executed in.
    pub version: Option<u32>,
    /// How it ended.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the scheduled instant to the reply, microseconds.
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

fn classify(
    r: Result<threev_server::client::SubmitOutcome, ClientError>,
) -> (Outcome, Option<u32>) {
    match r {
        Ok(o) if o.committed => (Outcome::Committed, o.version.map(|v| v.0)),
        Ok(o) => (Outcome::Aborted, o.version.map(|v| v.0)),
        Err(ClientError::Busy) => (Outcome::Busy, None),
        Err(_) => (Outcome::Error, None),
    }
}

/// Schedule indices dealt to `lane`.
fn lane_jobs(n: usize, lane: usize) -> impl Iterator<Item = usize> {
    (lane..n).step_by(CONNECTIONS)
}

/// Connect one client per lane, failing the phase if any cannot connect.
fn connect_all(addr: SocketAddr) -> Result<Vec<Client>, ClientError> {
    (0..CONNECTIONS).map(|_| Client::connect(addr)).collect()
}

/// Replay `schedule` open loop. Returns one sample per request, in no
/// particular order.
pub fn open_loop(addr: SocketAddr, schedule: &Schedule) -> Result<Vec<Sample>, ClientError> {
    let clients = connect_all(addr)?;
    let epoch = Instant::now() + Duration::from_millis(50);
    let mut all = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, mut client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut prev_done = Duration::ZERO;
                    for idx in lane_jobs(schedule.len(), lane) {
                        let (offset_us, plan) = &schedule[idx];
                        let due = Duration::from_micros(*offset_us);
                        wait_until(epoch, due);
                        let sent = epoch.elapsed();
                        let (outcome, version) = classify(client.submit(plan));
                        let done = epoch.elapsed();
                        out.push(Sample {
                            idx,
                            due_ns: due.as_nanos() as u64,
                            sent_ns: sent.as_nanos() as u64,
                            done_ns: done.as_nanos() as u64,
                            late_ns: sent.saturating_sub(due.max(prev_done)).as_nanos() as u64,
                            version,
                            outcome,
                        });
                        prev_done = done;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            // A panicking sender is a benchmark defect: surface it.
            all.extend(h.join().expect("sender thread panicked"));
        }
    });
    Ok(all)
}

/// Result of the closed-loop phase.
#[derive(Clone, Debug)]
pub struct ClosedLoop {
    /// Schedule indices sent, with their outcomes and reply times
    /// (nanoseconds from the phase start).
    pub sent: Vec<(usize, Outcome, u64)>,
}

/// Windows the closed-loop rate is measured over; the median counts.
const RATE_WINDOWS: usize = 5;

impl ClosedLoop {
    /// Wall time from the phase start to the last reply.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.sent.iter().map(|x| x.2).max().unwrap_or(0))
    }

    /// Committed commands per second: the median over [`RATE_WINDOWS`]
    /// windows of equal reply count, so one slow stretch of a shared
    /// machine does not set the figure.
    pub fn committed_per_sec(&self) -> f64 {
        let mut done: Vec<u64> = self
            .sent
            .iter()
            .filter(|x| x.1 == Outcome::Committed)
            .map(|x| x.2)
            .collect();
        done.sort_unstable();
        let per = done.len() / RATE_WINDOWS;
        if per == 0 {
            return 0.0;
        }
        let mut start = 0u64;
        let rates: Vec<f64> = (1..=RATE_WINDOWS)
            .map(|k| {
                let end = done[k * per - 1];
                let rate = per as f64 / ((end - start) as f64 / 1e9).max(1e-9);
                start = end;
                rate
            })
            .collect();
        crate::stats::median(&rates)
    }
}

/// Send `schedule` closed loop, back to back, stopping early at `cap`.
pub fn closed_loop(
    addr: SocketAddr,
    schedule: &Schedule,
    cap: Duration,
) -> Result<ClosedLoop, ClientError> {
    let clients = connect_all(addr)?;
    let start = Instant::now() + Duration::from_millis(50);
    let mut sent = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(lane, mut client)| {
                s.spawn(move || {
                    wait_until(start, Duration::ZERO);
                    let mut out = Vec::new();
                    for idx in lane_jobs(schedule.len(), lane) {
                        if start.elapsed() >= cap {
                            break;
                        }
                        let (outcome, _) = classify(client.submit(&schedule[idx].1));
                        out.push((idx, outcome, start.elapsed().as_nanos() as u64));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            sent.extend(h.join().expect("sender thread panicked"));
        }
    });
    Ok(ClosedLoop { sent })
}

/// Sleep until `due` after `epoch`. (`Instant::elapsed` reads zero while
/// `epoch` is still in the future.)
fn wait_until(epoch: Instant, due: Duration) {
    let now = epoch.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}
