//! Uniform engine runners.
//!
//! Every experiment compares engines over the *same* schema and arrival
//! stream; this module runs one engine and distils the run into an
//! [`EngineReport`] with the fields every `exp_*` binary needs.

use threev_analysis::{RunSummary, TxnRecord, VersionTimeline};
use threev_baselines::{ManualCluster, ManualConfig, NoCoordCluster, TwoPcCluster, TwoPcConfig};
use threev_core::advance::{AdvancementPolicy, AdvancementRecord};
use threev_core::client::Arrival;
use threev_model::{PartitionId, Schema};
use threev_shard::{ShardedCluster, ShardedConfig};
use threev_sim::{SimConfig, SimTime};

/// The one partition of every 3V run here.
const P0: PartitionId = PartitionId(0);

/// Which protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The paper's 3V algorithm.
    ThreeV,
    /// Global strict-2PL + two-phase commit (paper §1 option 1).
    TwoPc,
    /// No coordination (paper §1 option 2).
    NoCoord,
    /// Manual epoch versioning (paper §1 option 3).
    Manual,
}

impl Engine {
    /// All four engines, 3V first.
    pub const ALL: [Engine; 4] = [
        Engine::ThreeV,
        Engine::TwoPc,
        Engine::NoCoord,
        Engine::Manual,
    ];

    /// Short display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Engine::ThreeV => "3v",
            Engine::TwoPc => "global-2pc",
            Engine::NoCoord => "no-coord",
            Engine::Manual => "manual",
        }
    }
}

/// Options shared by the runners.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Number of database nodes.
    pub n_nodes: u16,
    /// Simulation kernel config.
    pub sim: SimConfig,
    /// Virtual-time horizon (runs that cannot quiesce stop here).
    pub horizon: SimTime,
    /// 3V advancement policy.
    pub advancement: AdvancementPolicy,
    /// Enable NC3V locks (required iff the workload has NC transactions).
    pub locks: bool,
    /// Manual-versioning epochs.
    pub manual: ManualConfig,
    /// 2PC retry policy.
    pub two_pc: TwoPcConfig,
}

impl RunOpts {
    /// Defaults over `n_nodes` nodes with the given horizon.
    pub fn new(n_nodes: u16, horizon: SimTime) -> Self {
        RunOpts {
            n_nodes,
            sim: SimConfig::default(),
            horizon,
            advancement: AdvancementPolicy::Manual,
            locks: false,
            manual: ManualConfig::default(),
            two_pc: TwoPcConfig::default(),
        }
    }
}

/// Distilled result of one engine run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The engine that ran.
    pub engine: Engine,
    /// All transaction records.
    pub records: Vec<TxnRecord>,
    /// Summary over the full horizon.
    pub summary: RunSummary,
    /// Total protocol messages.
    pub messages: u64,
    /// Messages by tag (`subtxn`, `2pc`, `advance`, `notice`, `client`, …).
    pub messages_by_tag: Vec<(String, u64)>,
    /// Version timeline (3V: measured; Manual: nominal; others: none).
    pub timeline: Option<VersionTimeline>,
    /// Advancement records (3V only).
    pub advancements: Vec<AdvancementRecord>,
    /// Aggregate dual writes across nodes (3V straggler overhead, X7).
    pub dual_writes: u64,
    /// Aggregate copy-on-update copies across nodes.
    pub copies_created: u64,
    /// Aggregate update operations applied at stores.
    pub store_updates: u64,
    /// High-water mark of live versions of any item (X4).
    pub max_versions: u32,
    /// Manual versioning: updates lost to closed versions.
    pub lost_updates: u64,
    /// 3V: compensating subtransactions applied across nodes (X10).
    pub compensations: u64,
    /// 3V: tombstones created (compensation overtook the original; X10).
    pub tombstones: u64,
    /// Virtual time when the run ended.
    pub ended_at: SimTime,
}

impl EngineReport {
    /// Committed transactions per second of virtual time.
    pub fn tps(&self) -> f64 {
        self.summary.throughput_tps
    }
}

fn summarize(records: &[TxnRecord], end: SimTime) -> RunSummary {
    // Throughput over the span to the last commit: engines that quiesce
    // early are not rewarded, saturated engines are not excused.
    let last_commit = records
        .iter()
        .filter_map(|r| r.completed)
        .max()
        .unwrap_or(end);
    RunSummary::from_records(records, SimTime::ZERO, last_commit)
}

fn tag_counts(stats: &threev_sim::SimStats) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = stats
        .messages_by_tag
        .iter()
        .map(|(k, c)| (k.to_string(), *c))
        .collect();
    v.sort();
    v
}

/// Run the 3V engine: one partition of `opts.n_nodes` nodes.
pub fn run_three_v(schema: &Schema, arrivals: Vec<Arrival>, opts: &RunOpts) -> EngineReport {
    let mut cfg = ShardedConfig::new(1, opts.n_nodes).advancement(opts.advancement);
    cfg.sim = opts.sim.clone();
    if opts.locks {
        cfg = cfg.with_locks();
    }
    let mut cluster = ShardedCluster::new(schema, cfg, vec![arrivals]);
    // Periodic policies re-arm forever; a horizon bounds both cases.
    cluster.run_until(opts.horizon);
    let ended_at = cluster.now();
    let records = cluster.partition_records(P0).to_vec();
    let (mut dual, mut copies, mut updates, mut maxv) = (0, 0, 0, 0);
    let (mut compensations, mut tombstones) = (0, 0);
    for id in cluster.node_ids() {
        let node = cluster.node(id);
        let s = node.store_stats();
        dual += s.dual_writes;
        copies += s.copies_created;
        updates += s.updates;
        maxv = maxv.max(s.max_versions_of_any_item);
        compensations += node.stats().compensations_applied;
        tombstones += node.stats().tombstones;
    }
    let stats = cluster.sim_stats(P0);
    EngineReport {
        engine: Engine::ThreeV,
        summary: summarize(&records, ended_at),
        messages: stats.messages,
        messages_by_tag: tag_counts(stats),
        timeline: Some(cluster.coordinator(P0).timeline().clone()),
        advancements: cluster.advancements(P0).to_vec(),
        dual_writes: dual,
        copies_created: copies,
        store_updates: updates,
        max_versions: maxv,
        lost_updates: 0,
        compensations,
        tombstones,
        records,
        ended_at,
    }
}

/// Run the global-2PC engine.
pub fn run_two_pc(schema: &Schema, arrivals: Vec<Arrival>, opts: &RunOpts) -> EngineReport {
    let mut cluster = TwoPcCluster::new(
        schema,
        opts.n_nodes,
        opts.sim.clone(),
        opts.two_pc.clone(),
        arrivals,
    );
    cluster.run(opts.horizon);
    let ended_at = cluster.now();
    let records = cluster.records().to_vec();
    let (mut copies, mut updates) = (0, 0);
    for i in 0..opts.n_nodes {
        copies += cluster.store_stats(i).copies_created;
        updates += cluster.store_stats(i).updates;
    }
    EngineReport {
        engine: Engine::TwoPc,
        summary: summarize(&records, ended_at),
        messages: cluster.sim_stats().messages,
        messages_by_tag: tag_counts(cluster.sim_stats()),
        timeline: None,
        advancements: Vec::new(),
        dual_writes: 0,
        copies_created: copies,
        store_updates: updates,
        max_versions: 1,
        lost_updates: 0,
        compensations: 0,
        tombstones: 0,
        records,
        ended_at,
    }
}

/// Run the no-coordination engine.
pub fn run_no_coord(schema: &Schema, arrivals: Vec<Arrival>, opts: &RunOpts) -> EngineReport {
    let mut cluster = NoCoordCluster::new(schema, opts.n_nodes, opts.sim.clone(), arrivals);
    cluster.run(opts.horizon);
    let ended_at = cluster.now();
    let records = cluster.records().to_vec();
    let (mut copies, mut updates) = (0, 0);
    for i in 0..opts.n_nodes {
        copies += cluster.store_stats(i).copies_created;
        updates += cluster.store_stats(i).updates;
    }
    EngineReport {
        engine: Engine::NoCoord,
        summary: summarize(&records, ended_at),
        messages: cluster.sim_stats().messages,
        messages_by_tag: tag_counts(cluster.sim_stats()),
        timeline: None,
        advancements: Vec::new(),
        dual_writes: 0,
        copies_created: copies,
        store_updates: updates,
        max_versions: 1,
        lost_updates: 0,
        compensations: 0,
        tombstones: 0,
        records,
        ended_at,
    }
}

/// Run the manual-versioning engine.
pub fn run_manual(schema: &Schema, arrivals: Vec<Arrival>, opts: &RunOpts) -> EngineReport {
    let mut cluster = ManualCluster::new(
        schema,
        opts.n_nodes,
        opts.sim.clone(),
        opts.manual.clone(),
        arrivals,
    );
    cluster.run_until(opts.horizon);
    let ended_at = cluster.now();
    let records = cluster.records().to_vec();
    let (mut copies, mut updates, mut maxv) = (0, 0, 0);
    for i in 0..opts.n_nodes {
        let s = cluster.store_stats(i);
        copies += s.copies_created;
        updates += s.updates;
        maxv = maxv.max(s.max_versions_of_any_item);
    }
    EngineReport {
        engine: Engine::Manual,
        summary: summarize(&records, ended_at),
        messages: cluster.sim_stats().messages,
        messages_by_tag: tag_counts(cluster.sim_stats()),
        timeline: Some(cluster.nominal_timeline()),
        advancements: Vec::new(),
        dual_writes: 0,
        copies_created: copies,
        store_updates: updates,
        max_versions: maxv,
        lost_updates: cluster.lost_updates(),
        compensations: 0,
        tombstones: 0,
        records,
        ended_at,
    }
}

/// Run `engine` over `(schema, arrivals)` with `opts`.
pub fn run_engine(
    engine: Engine,
    schema: &Schema,
    arrivals: Vec<Arrival>,
    opts: &RunOpts,
) -> EngineReport {
    match engine {
        Engine::ThreeV => run_three_v(schema, arrivals, opts),
        Engine::TwoPc => run_two_pc(schema, arrivals, opts),
        Engine::NoCoord => run_no_coord(schema, arrivals, opts),
        Engine::Manual => run_manual(schema, arrivals, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_analysis::TxnStatus;
    use threev_sim::SimDuration;
    use threev_workload::{SyntheticParams, SyntheticWorkload};

    #[test]
    fn all_engines_run_the_same_workload() {
        let w = SyntheticWorkload::new(SyntheticParams {
            n_nodes: 3,
            rate_tps: 800.0,
            duration: SimDuration::from_millis(300),
            ..SyntheticParams::default()
        });
        let (schema, arrivals) = w.generate();
        let opts = RunOpts::new(3, SimTime(5_000_000));
        for engine in Engine::ALL {
            let report = run_engine(engine, &schema, arrivals.clone(), &opts);
            assert_eq!(report.engine, engine);
            assert_eq!(report.records.len(), arrivals.len(), "{engine:?}");
            let committed = report
                .records
                .iter()
                .filter(|r| r.status == TxnStatus::Committed)
                .count();
            assert!(
                committed as f64 / arrivals.len() as f64 > 0.9,
                "{engine:?}: {committed}/{}",
                arrivals.len()
            );
            assert!(report.messages > 0);
            assert!(report.tps() > 0.0);
        }
    }
}
