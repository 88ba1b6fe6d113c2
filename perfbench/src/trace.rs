//! The traced run: the same commands, in schedule order, split into layers.
//!
//! Three replicas take each command in lock step, so all three meet the
//! machine in the same state and their times compare command by command.
//! Every span times a call into one layer's public functions from here;
//! nothing inside the program is touched.
//!
//! 1. **Driver** — a [`ShardedCluster`] driven the way `Engine::submit`
//!    drives it (`submit_external`, `run(SimTime::MAX)`, the
//!    `partition_records` lookup, and `trigger_advancement_all` + `run`
//!    every [`ADVANCE_EVERY`] committed updates), with the node stage
//!    profiler on. Kernel and shuttle counters are read as deltas around
//!    each span.
//! 2. **Engine** — the same commands through `Engine::submit`, untraced.
//!    Its store fingerprint must equal the driver's, which proves the split
//!    replays the engine faithfully; its time is the base of the tracing
//!    overhead.
//! 3. **Socket** — the same commands over one unloaded connection to a
//!    fresh server. Round trip minus the engine's time for the same command
//!    is the server's own time (socket, codec, worker→engine hop). Each
//!    command is followed by a `Stats` round trip, which crosses the same
//!    socket, worker and engine hop but does no engine work: the front
//!    end's cost measured on its own.
//!
//! A fourth pass times `Request`/`Response` encode and decode on the run's
//! own frames.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use threev_analysis::TxnStatus;
use threev_core::node::{ProfileMode, Stage, StageBreakdown};
use threev_model::{Key, PartitionId, Schema, TxnId, TxnPlan, VersionNo};
use threev_server::proto::{read_frame, Request, Response};
use threev_server::{Client, Engine};
use threev_shard::ShardedCluster;
use threev_sim::SimTime;

use crate::check::Invariants;
use crate::stats::{mean, percentile, sorted};
use crate::work::{is_inquiry, Schedule, Workload, ADVANCE_EVERY, PARTITIONS};

/// Monotonic nanoseconds since first use: the clock handed to the node
/// stage profiler.
fn mono_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Kernel counters summed over every partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Kernel {
    /// Events processed.
    pub events: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Timers fired.
    pub timers: u64,
    /// Messages shuttled across partitions.
    pub cross: u64,
}

impl Kernel {
    /// Read the counters of every partition of `c`.
    pub fn of(c: &ShardedCluster) -> Kernel {
        let mut k = Kernel {
            cross: c.cross_messages(),
            ..Kernel::default()
        };
        for p in 0..c.n_partitions() {
            let s = c.sim_stats(PartitionId(p));
            k.events += s.events;
            k.messages += s.messages;
            k.timers += s.timers;
        }
        k
    }

    fn add_delta(&mut self, before: Kernel, after: Kernel) {
        self.events += after.events - before.events;
        self.messages += after.messages - before.messages;
        self.timers += after.timers - before.timers;
        self.cross += after.cross - before.cross;
    }
}

/// The layer-by-layer replica of `Engine::submit`, with its spans.
pub struct Driver {
    /// The cluster being driven.
    pub cluster: ShardedCluster,
    /// Per command: `submit_external` span.
    pub submit_ns: Vec<u64>,
    /// Per command: `run(SimTime::MAX)` span.
    pub run_ns: Vec<u64>,
    /// Per command: `partition_records` lookup span.
    pub outcome_ns: Vec<u64>,
    /// Per command: the advancement round it triggered, 0 if none.
    pub advance_ns: Vec<u64>,
    /// Kernel counters accumulated over command spans.
    pub cmd_kernel: Kernel,
    /// Kernel counters accumulated over advancement spans.
    pub advance_kernel: Kernel,
    /// Advancement rounds run.
    pub rounds: u64,
    /// Commands that did not commit (or failed to submit).
    pub failed: u64,
    since_advance: u64,
}

impl Driver {
    /// A cluster configured as `Engine::new` configures it, with the node
    /// stage profiler on.
    pub fn new(schema: &Schema, seed: u64) -> Driver {
        let mut cfg = Workload::cluster_config(seed);
        cfg.protocol.node.profile = ProfileMode::On(mono_ns);
        let partitions = usize::from(cfg.topology.n_partitions());
        Driver {
            cluster: ShardedCluster::new(schema, cfg, vec![Vec::new(); partitions]),
            submit_ns: Vec::new(),
            run_ns: Vec::new(),
            outcome_ns: Vec::new(),
            advance_ns: Vec::new(),
            cmd_kernel: Kernel::default(),
            advance_kernel: Kernel::default(),
            rounds: 0,
            failed: 0,
            since_advance: 0,
        }
    }

    /// Execute command `seq` the way `Engine::submit` does, one span per
    /// call.
    pub fn step(&mut self, seq: u64, plan: &TxnPlan) {
        let before = Kernel::of(&self.cluster);
        let t = Instant::now();
        let submitted = self.cluster.submit_external(seq, plan, None);
        self.submit_ns.push(ns_since(t));
        let (run, outcome, advance) = match submitted {
            Ok(txn) => self.execute(txn, plan, before),
            Err(_) => {
                self.failed += 1;
                (0, 0, 0)
            }
        };
        self.run_ns.push(run);
        self.outcome_ns.push(outcome);
        self.advance_ns.push(advance);
    }

    fn execute(&mut self, txn: TxnId, plan: &TxnPlan, before: Kernel) -> (u64, u64, u64) {
        let t = Instant::now();
        self.cluster.run(SimTime::MAX);
        let run = ns_since(t);
        self.cmd_kernel.add_delta(before, Kernel::of(&self.cluster));

        let t = Instant::now();
        let p = self.cluster.topology().partition_of(plan.root.node);
        let status = self
            .cluster
            .partition_records(p)
            .iter()
            .rev()
            .find(|r| r.id == txn)
            .map(|r| r.status);
        let outcome = ns_since(t);
        if status != Some(TxnStatus::Committed) {
            self.failed += 1;
            return (run, outcome, 0);
        }
        if is_inquiry(plan) {
            return (run, outcome, 0);
        }
        self.since_advance += 1;
        if self.since_advance < ADVANCE_EVERY {
            return (run, outcome, 0);
        }
        let before = Kernel::of(&self.cluster);
        let t = Instant::now();
        self.cluster.trigger_advancement_all();
        self.cluster.run(SimTime::MAX);
        let advance = ns_since(t);
        self.advance_kernel
            .add_delta(before, Kernel::of(&self.cluster));
        self.since_advance = 0;
        self.rounds += 1;
        (run, outcome, advance)
    }
}

/// The same commands through `Engine::submit`, untraced.
pub struct EnginePass {
    /// The engine after the pass.
    pub engine: Engine,
    /// Per command: `Engine::submit` span.
    pub submit_ns: Vec<u64>,
    /// Per command: the version it executed in (`None` if it failed).
    pub versions: Vec<Option<u32>>,
    /// Commands that did not commit.
    pub failed: u64,
}

impl EnginePass {
    /// An engine configured as the served one.
    pub fn new(schema: &Schema, seed: u64) -> EnginePass {
        EnginePass {
            engine: Engine::new(schema, Workload::cluster_config(seed), ADVANCE_EVERY),
            submit_ns: Vec::new(),
            versions: Vec::new(),
            failed: 0,
        }
    }

    /// Submit one command, timed.
    pub fn step(&mut self, plan: &TxnPlan) {
        let t = Instant::now();
        let out = self.engine.submit(plan);
        self.submit_ns.push(ns_since(t));
        match out {
            Ok(o) if o.committed => self.versions.push(o.version.map(|v| v.0)),
            _ => {
                self.failed += 1;
                self.versions.push(None);
            }
        }
    }
}

/// Run `schedule` through the engine alone.
pub fn engine_pass(schema: &Schema, schedule: &Schedule, seed: u64) -> EnginePass {
    let mut e = EnginePass::new(schema, seed);
    for (_, plan) in schedule {
        e.step(plan);
    }
    e
}

/// The driver, the engine and the socket replicas after a lock-step
/// replay.
pub struct Replay {
    /// The layer-by-layer driver.
    pub driver: Driver,
    /// The untraced engine.
    pub engine: EnginePass,
    /// Socket round trip per command.
    pub rtt_ns: Vec<u64>,
    /// `Stats` round trip after each command.
    pub stats_rtt_ns: Vec<u64>,
    /// Socket commands that did not commit.
    pub socket_failed: u64,
}

/// Run `schedule` through the three replicas in lock step: each command
/// goes through the driver, then the engine, then the socket before the
/// next one starts.
pub fn replay(schema: &Schema, schedule: &Schedule, seed: u64, client: &mut Client) -> Replay {
    let mut r = Replay {
        driver: Driver::new(schema, seed),
        engine: EnginePass::new(schema, seed),
        rtt_ns: Vec::with_capacity(schedule.len()),
        stats_rtt_ns: Vec::with_capacity(schedule.len()),
        socket_failed: 0,
    };
    for (seq, (_, plan)) in schedule.iter().enumerate() {
        r.driver.step(seq as u64, plan);
        r.engine.step(plan);
        let t = Instant::now();
        let out = client.submit(plan);
        r.rtt_ns.push(ns_since(t));
        let t = Instant::now();
        let stats = client.stats();
        r.stats_rtt_ns.push(ns_since(t));
        if !matches!(out, Ok(o) if o.committed) || stats.is_err() {
            r.socket_failed += 1;
        }
    }
    r
}

/// A `fmt::Write` sink that folds its bytes into FNV-1a 64.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// The hash `Engine::fingerprint_hash` reports, computed over any
/// cluster: FNV-1a of the same canonical dump (`vu`/`vr` and every key's
/// version layout, in global node order), streamed instead of buffered.
pub fn fingerprint_hash(c: &ShardedCluster) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for id in c.node_ids() {
        let n = c.node(id);
        let _ = writeln!(h, "node {id:?} vu={:?} vr={:?}", n.vu(), n.vr());
        let mut keys: Vec<Key> = n.store().keys().collect();
        keys.sort_unstable();
        for k in keys {
            let _ = writeln!(h, "  {k:?} => {:?}", n.store().layout(k));
        }
    }
    h.0
}

/// What the codec pass measured.
pub struct Codec {
    /// Mean request frame bytes per command.
    pub req_bytes: f64,
    /// Mean response frame bytes per command.
    pub resp_bytes: f64,
    /// Encode + decode of request and response, nanoseconds per command.
    pub ns_per_cmd: f64,
    /// Frames that failed to round-trip.
    pub failed: u64,
}

/// Passes over the commands for the codec timing; the median pass counts.
const CODEC_PASSES: usize = 3;

/// Encode and decode every command's request and reply frame.
pub fn codec_pass(schedule: &Schedule, replies: &[Response]) -> Codec {
    let requests: Vec<Request> = schedule
        .iter()
        .map(|(_, plan)| Request::Submit { plan: plan.clone() })
        .collect();
    let mut req_bytes = 0u64;
    let mut resp_bytes = 0u64;
    let mut failed = 0u64;
    let mut pass_ns = Vec::with_capacity(CODEC_PASSES);
    for pass in 0..CODEC_PASSES {
        let t = Instant::now();
        for (req, resp) in requests.iter().zip(replies) {
            let (Ok(rf), Ok(sf)) = (req.encode(), resp.encode()) else {
                failed += 1;
                continue;
            };
            let req_ok = matches!(read_frame(&mut &rf[..]), Ok(Some((k, p)))
                if Request::decode(k, &p).as_ref() == Ok(req));
            let resp_ok = matches!(read_frame(&mut &sf[..]), Ok(Some((k, p)))
                if Response::decode(k, &p).as_ref() == Ok(resp));
            if pass == 0 {
                req_bytes += rf.len() as u64;
                resp_bytes += sf.len() as u64;
                failed += u64::from(!req_ok) + u64::from(!resp_ok);
            }
        }
        pass_ns.push(ns_since(t) as f64);
    }
    let n = requests.len().max(1) as f64;
    Codec {
        req_bytes: req_bytes as f64 / n,
        resp_bytes: resp_bytes as f64 / n,
        ns_per_cmd: crate::stats::median(&pass_ns) / n,
        failed,
    }
}

/// The reply the server sends for each command of the engine pass.
pub fn replies_of(pass: &EnginePass, plans: &[TxnPlan]) -> Vec<Response> {
    plans
        .iter()
        .enumerate()
        .map(|(seq, plan)| Response::TxnDone {
            txn: TxnId::new(seq as u64, plan.root.node),
            committed: pass.versions[seq].is_some(),
            version: pass.versions[seq].map(VersionNo),
        })
        .collect()
}

/// A named per-layer metric with its unit.
pub type Metric = (&'static str, f64, &'static str);

fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

fn p(sorted_values: &[f64], q: f64) -> f64 {
    percentile(sorted_values, q).unwrap_or(0.0)
}

/// Compute every per-layer metric of the lock-step replay and codec pass.
pub fn layer_metrics(replay: &Replay, codec: &Codec) -> Vec<Metric> {
    let d = &replay.driver;
    let e = &replay.engine;
    let cmds = d.submit_ns.len().max(1) as f64;
    let c = &d.cluster;
    let ids = c.node_ids();
    let nodes = ids.len() as f64;
    let rounds = d.rounds as f64;

    // Engine layer.
    let engine_us = us(&e.submit_ns);
    let tenth = (engine_us.len() / 10).max(1);
    let drift = mean(&engine_us[engine_us.len() - tenth..]) / mean(&engine_us[..tenth]).max(1e-9);
    let ec = e.engine.cluster();
    let retained: usize = (0..PARTITIONS)
        .map(|p| ec.partition_records(PartitionId(p)).len())
        .sum();

    // Shard layer spans. A command's traced time is the sum of
    // its spans, including the advancement round it triggered.
    let traced_us: Vec<f64> = (0..d.submit_ns.len())
        .map(|k| (d.submit_ns[k] + d.run_ns[k] + d.outcome_ns[k] + d.advance_ns[k]) as f64 / 1e3)
        .collect();
    let round_us: Vec<f64> = us(&d.advance_ns).into_iter().filter(|&v| v > 0.0).collect();
    let traced_total: f64 = traced_us.iter().sum();
    let advance_total: f64 = round_us.iter().sum();

    // Node stages.
    let mut stages = StageBreakdown::default();
    for &id in &ids {
        if let Some(b) = c.node(id).stage_breakdown() {
            stages.merge(b);
        }
    }
    let stage = |s: Stage| stages.ns[s as usize] as f64 / cmds;
    let subtxns: u64 = ids
        .iter()
        .map(|&id| c.node(id).stats().subtxns_executed)
        .sum();

    // Advancement records.
    let mut virt = Vec::new();
    let mut p2 = Vec::new();
    for part in 0..PARTITIONS {
        for r in c.advancements(PartitionId(part)) {
            virt.push(r.total().as_micros() as f64);
            p2.push(r.p2_rounds as f64);
        }
    }

    // Storage.
    let mut gc_renamed = 0u64;
    let mut gc_dropped = 0u64;
    let mut copies = 0u64;
    let mut reads = 0u64;
    let mut max_versions = 0u32;
    let mut keys = 0usize;
    for &id in &ids {
        let s = c.node(id).store_stats();
        gc_renamed += s.gc_renamed;
        gc_dropped += s.gc_dropped;
        copies += s.copies_created;
        reads += s.reads;
        max_versions = max_versions.max(s.max_versions_of_any_item);
        keys += c.node(id).store().keys().count();
    }
    let per_round_node = |v: u64| v as f64 / (rounds * nodes).max(1.0);

    // Server layer (socket round trip minus engine time, command by command), over the
    // commands that triggered no advancement round: the server's own work
    // does not depend on it, and the round's run-to-run variation would
    // swamp the difference.
    let self_us: Vec<f64> = (0..replay.rtt_ns.len())
        .filter(|&k| d.advance_ns[k] == 0)
        .map(|k| (replay.rtt_ns[k] as f64 - e.submit_ns[k] as f64) / 1e3)
        .collect();
    let server_self = mean(&self_us);
    // Coverage adds spans that were each measured on their own: the traced
    // engine spans, the codec pass and the front end's `Stats` round trip.
    // A layer no span times shows as coverage below 1.
    let front_us = mean(&us(&replay.stats_rtt_ns));
    let covered = mean(&traced_us) + codec.ns_per_cmd / 1e3 + front_us;
    let coverage = covered / mean(&us(&replay.rtt_ns)).max(1e-9);

    let k = &d.cmd_kernel;
    vec![
        ("proto.req_bytes_per_cmd", codec.req_bytes, "B"),
        ("proto.resp_bytes_per_cmd", codec.resp_bytes, "B"),
        ("proto.codec_ns_per_cmd", codec.ns_per_cmd, "ns"),
        ("server.self_us_mean", server_self, "us"),
        ("server.self_us_p99", p(&sorted(&self_us), 0.99), "us"),
        ("engine.submit_us_mean", mean(&engine_us), "us"),
        ("engine.submit_us_p99", p(&sorted(&engine_us), 0.99), "us"),
        ("engine.outcome_us_mean", mean(&us(&d.outcome_ns)), "us"),
        ("engine.drift_ratio", drift, "ratio"),
        (
            "engine.records_retained_per_cmd",
            retained as f64 / cmds,
            "count",
        ),
        (
            "shard.submit_external_us_mean",
            mean(&us(&d.submit_ns)),
            "us",
        ),
        ("shard.run_us_mean", mean(&us(&d.run_ns)), "us"),
        ("shard.cross_msgs_per_cmd", k.cross as f64 / cmds, "count"),
        ("sim.events_per_cmd", k.events as f64 / cmds, "count"),
        ("sim.msgs_per_cmd", k.messages as f64 / cmds, "count"),
        ("sim.timers_per_cmd", k.timers as f64 / cmds, "count"),
        ("node.validate_ns_per_cmd", stage(Stage::Validate), "ns"),
        ("node.store_ns_per_cmd", stage(Stage::Store), "ns"),
        ("node.counter_ns_per_cmd", stage(Stage::Counter), "ns"),
        (
            "node.dispatch_self_ns_per_cmd",
            stages.other_ns() as f64 / cmds,
            "ns",
        ),
        ("node.subtxns_per_cmd", subtxns as f64 / cmds, "count"),
        ("advance.rounds_per_1k_cmds", rounds * 1e3 / cmds, "count"),
        ("advance.wall_us_p50", p(&sorted(&round_us), 0.5), "us"),
        ("advance.wall_us_p99", p(&sorted(&round_us), 0.99), "us"),
        (
            "advance.share_of_engine",
            advance_total / traced_total.max(1e-9),
            "ratio",
        ),
        ("advance.virtual_us_mean", mean(&virt), "us"),
        ("advance.p2_rounds_mean", mean(&p2), "count"),
        (
            "advance.msgs_per_round",
            d.advance_kernel.messages as f64 / rounds.max(1.0),
            "count",
        ),
        (
            "storage.gc_renamed_per_round",
            per_round_node(gc_renamed),
            "count",
        ),
        (
            "storage.gc_dropped_per_round",
            per_round_node(gc_dropped),
            "count",
        ),
        ("storage.keys_total", keys as f64, "count"),
        ("storage.copies_per_cmd", copies as f64 / cmds, "count"),
        ("storage.reads_per_cmd", reads as f64 / cmds, "count"),
        ("storage.max_versions", f64::from(max_versions), "count"),
        ("attribution.coverage", coverage, "ratio"),
        (
            "trace.overhead_ratio",
            traced_total / engine_us.iter().sum::<f64>().max(1e-9),
            "ratio",
        ),
    ]
}

/// Invariants and replica equivalence of the two in-process passes.
pub fn replica_check(d: &Driver, e: &EnginePass) -> Result<(), String> {
    let driver_fp = fingerprint_hash(&d.cluster);
    let (engine_fp, _, _) = e.engine.fingerprint_hash();
    if driver_fp != engine_fp {
        return Err(format!(
            "traced driver fingerprint {driver_fp:#x} != engine fingerprint {engine_fp:#x}"
        ));
    }
    for (what, inv) in [
        ("driver", Invariants::of(&d.cluster)),
        ("engine", Invariants::of(e.engine.cluster())),
    ] {
        if !inv.ok() {
            return Err(format!("{what} invariants violated: {inv:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny() -> (Schema, Schedule) {
        let w = Workload::by_name("inquiry-heavy").expect("known workload");
        let h = w.hospital(7, Duration::from_millis(120));
        (h.schema(), threev_server::load::schedule(&h))
    }

    #[test]
    fn fingerprint_replica_matches_engine() {
        let (schema, schedule) = tiny();
        let e = engine_pass(&schema, &schedule, 7);
        assert_eq!(
            fingerprint_hash(e.engine.cluster()),
            e.engine.fingerprint_hash().0
        );
    }

    #[test]
    fn traced_driver_replays_engine_submit() {
        let (schema, schedule) = tiny();
        assert!(
            schedule.len() > 100,
            "need enough commands for advancements"
        );
        let mut d = Driver::new(&schema, 7);
        for (seq, (_, plan)) in schedule.iter().enumerate() {
            d.step(seq as u64, plan);
        }
        let e = engine_pass(&schema, &schedule, 7);
        assert_eq!(d.failed, 0);
        assert_eq!(e.failed, 0);
        assert!(d.rounds > 0, "cadence must fire");
        assert_eq!(e.engine.stats().advancements, d.rounds);
        replica_check(&d, &e).expect("driver and engine agree");
    }

    #[test]
    fn codec_round_trips_the_run_frames() {
        let (schema, schedule) = tiny();
        let e = engine_pass(&schema, &schedule, 7);
        let plans: Vec<TxnPlan> = schedule.iter().map(|(_, p)| p.clone()).collect();
        let c = codec_pass(&schedule, &replies_of(&e, &plans));
        assert_eq!(c.failed, 0);
        assert!(c.req_bytes > c.resp_bytes && c.resp_bytes > 16.0);
    }
}
