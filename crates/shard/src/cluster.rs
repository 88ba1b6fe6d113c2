//! The sharded discrete-event cluster driver.
//!
//! A [`ShardedCluster`] hosts one [`Simulation`] per partition — each with
//! its own nodes, its own advancement [`Coordinator`], its own client, and
//! its own decorrelated RNG streams ([`SimConfig::for_partition`]) — and
//! shuttles cross-partition messages between them through the kernels'
//! partition outboxes. The shuttle is deterministic:
//!
//! 1. find the earliest pending event time `t` across all partitions,
//! 2. run every partition's kernel up to exactly `t`,
//! 3. drain the outboxes in partition order and inject every
//!    cross-partition message into its target kernel at `t + cross_latency`.
//!
//! Because `t` is the *global* minimum, no kernel ever runs past a message
//! another kernel is about to send it: a message emitted at `t` arrives at
//! `t + cross_latency > t`, and every kernel's clock is exactly `t` when
//! the injection happens. Intra-partition delivery (including the fault
//! plane) stays entirely inside each kernel, untouched.
//!
//! With one partition the outbox is always empty and the shuttle reduces
//! to running the single kernel event by event. That makes this the one
//! DES driver of the workspace: a plain 3V cluster of `n` nodes is
//! `ShardedCluster::new(schema, ShardedConfig::new(1, n), vec![arrivals])`,
//! and `tests/single_partition.rs` pins its behaviour with golden hashes.
//!
//! Crash injection is supported with **one partition only**. Cross-partition
//! resolution pins live in volatile node state and are not recovered from
//! the WAL, so on a multi-partition run a crash could strand a foreign
//! partition's gauge row; pins exist per partition *pair*, so a
//! one-partition run has none and WAL recovery restores everything a crash
//! drops. `ShardedConfig::partition_protocol` — the check both this driver
//! and the threaded one go through — rejects crashes when there are
//! two or more partitions.

use threev_analysis::{TxnRecord, VersionTimeline};
use threev_core::advance::{AdvancementPolicy, AdvancementRecord, Coordinator};
use threev_core::client::{Arrival, ClientActor};
use threev_core::cluster::{build_partition_actors, ClusterActor, ThreeVConfig};
use threev_core::msg::{Msg, ProtocolMsg};
use threev_core::node::{BackendConfig, DurabilityMode, ThreeVNode};
use threev_model::{Key, NodeId, PartitionId, PlanError, Schema, Topology, TxnId, TxnPlan};
use threev_sim::{SimConfig, SimDuration, SimStats, SimTime, Simulation, Trace};

/// Configuration of a sharded cluster.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Partition layout (also carried into every node's config).
    pub topology: Topology,
    /// Base simulation settings; partition `p` runs under
    /// [`SimConfig::for_partition`]`(p)`.
    pub sim: SimConfig,
    /// Protocol settings, shared by all partitions.
    pub protocol: ThreeVConfig,
    /// Fixed one-way latency of the inter-partition links. Must be
    /// non-zero: a zero-latency cross link would let a message arrive in
    /// the same instant it was sent, breaking the shuttle's "no kernel
    /// runs past an incoming message" argument.
    pub cross_latency: SimDuration,
}

impl ShardedConfig {
    /// Default configuration over `n_partitions` partitions of
    /// `nodes_per_partition` nodes each.
    pub fn new(n_partitions: u16, nodes_per_partition: u16) -> Self {
        ShardedConfig {
            topology: Topology::new(n_partitions, nodes_per_partition),
            sim: SimConfig::default(),
            protocol: ThreeVConfig::default(),
            cross_latency: SimDuration::from_micros(250),
        }
    }

    /// Set the RNG seed (partition 0 uses it verbatim; others derive).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Set the advancement policy of every partition's coordinator.
    #[must_use]
    pub fn advancement(mut self, policy: AdvancementPolicy) -> Self {
        self.protocol.coordinator.policy = policy;
        self
    }

    /// Enable NC3V locking on every node.
    #[must_use]
    pub fn with_locks(mut self) -> Self {
        self.protocol.node.locks_enabled = true;
        self
    }

    /// Set the per-node durability mode.
    #[must_use]
    pub fn durability(mut self, mode: DurabilityMode) -> Self {
        self.protocol.node.durability = mode;
        self
    }

    /// Set the storage backend (mem or paged) for every node in every
    /// partition. Paged nodes write their page files under the configured
    /// directory, one subdirectory per node.
    #[must_use]
    pub fn backend(mut self, backend: BackendConfig) -> Self {
        self.protocol.node.backend = backend;
        self
    }

    /// Set the inter-partition link latency.
    #[must_use]
    pub fn cross_latency(mut self, latency: SimDuration) -> Self {
        self.cross_latency = latency;
        self
    }

    /// The protocol settings every partition's actor block is built from:
    /// [`ShardedConfig::protocol`] with this layout carried into every
    /// node. The one construction check shared by the DES driver and the
    /// threaded one ([`crate::threaded::build_sharded_actors`]).
    ///
    /// # Panics
    /// Panics unless there are exactly `streams` arrival streams, one per
    /// partition, and when the fault plane schedules node crashes on two
    /// or more partitions (resolution pins are not WAL-recovered; see the
    /// module docs) — static configuration bugs.
    pub(crate) fn partition_protocol(&self, streams: usize) -> ThreeVConfig {
        assert_eq!(
            streams,
            usize::from(self.topology.n_partitions()),
            "one arrival stream per partition"
        );
        assert!(
            self.topology.is_single() || self.sim.faults.crashes.is_empty(),
            "crash injection needs a single partition \
             (cross-partition resolution pins are not WAL-recovered)"
        );
        let mut protocol = self.protocol.clone();
        protocol.node.topology = self.topology;
        protocol
    }
}

/// Why [`ShardedCluster::submit_external`] refused a plan. External
/// submissions come from outside the pre-validated arrival lists (the
/// network front end), so every structural defect is reported instead of
/// asserted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The plan fails [`TxnPlan::validate`] against its declared kind.
    Invalid(PlanError),
    /// A subtransaction names a node id outside the topology's database
    /// nodes (a coordinator, client, gauge, or out-of-range id).
    UnknownNode(NodeId),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid plan: {e}"),
            SubmitError::UnknownNode(n) => write!(f, "plan visits non-database node {n}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a [`ShardedCluster::run`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// No partition has pending events or undelivered cross traffic.
    Quiescent(SimTime),
    /// The virtual-time cap was reached with work still pending.
    TimeCapped,
}

/// A sharded 3V cluster: `P` independent partition kernels plus the
/// cross-partition message shuttle.
pub struct ShardedCluster {
    topo: Topology,
    cross_latency: SimDuration,
    sims: Vec<Simulation<ClusterActor>>,
    route_buf: Vec<(NodeId, NodeId, Msg)>,
    cross_messages: u64,
}

impl ShardedCluster {
    /// Build a sharded cluster over the *global* `schema`, with one
    /// arrival stream per partition (`arrivals[p]` is driven by partition
    /// `p`'s client; its plans should be rooted on partition-`p` nodes).
    ///
    /// # Panics
    /// Panics when `cross_latency` is zero, and on every configuration
    /// `ShardedConfig::partition_protocol` rejects — all static
    /// configuration bugs.
    pub fn new(schema: &Schema, cfg: ShardedConfig, arrivals: Vec<Vec<Arrival>>) -> Self {
        let topo = cfg.topology;
        let protocol = cfg.partition_protocol(arrivals.len());
        assert!(
            cfg.cross_latency > SimDuration::ZERO,
            "cross-partition latency must be non-zero"
        );
        let sims = arrivals
            .into_iter()
            .enumerate()
            .map(|(p, stream)| {
                let pid = PartitionId(p as u16);
                let actors = build_partition_actors(schema, &protocol, stream, pid);
                Simulation::new_partition(actors, topo.base(pid).0, cfg.sim.for_partition(p))
            })
            .collect();
        let mut cluster = ShardedCluster {
            topo,
            cross_latency: cfg.cross_latency,
            sims,
            route_buf: Vec::new(),
            cross_messages: 0,
        };
        // Kernels deliver `on_start` lazily on their first run call; prime
        // them here so `earliest_event` sees the initial client timers (and
        // any time-zero cross sends are shuttled) before the first step.
        cluster.step_to(SimTime::ZERO);
        cluster
    }

    /// The partition layout.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Number of partitions.
    pub fn n_partitions(&self) -> u16 {
        self.topo.n_partitions()
    }

    /// Earliest pending event across all partition kernels.
    fn earliest_event(&self) -> Option<SimTime> {
        self.sims.iter().filter_map(Simulation::next_event_at).min()
    }

    /// Run every kernel to exactly `t`, then shuttle the cross-partition
    /// messages that were emitted.
    fn step_to(&mut self, t: SimTime) {
        for sim in &mut self.sims {
            sim.run_until(t);
        }
        let deliver = t + self.cross_latency;
        // Outboxes are drained and injected in partition order, and each
        // kernel assigns injected messages consecutive sequence numbers, so
        // same-instant cross deliveries have a deterministic total order.
        for p in 0..self.sims.len() {
            let mut buf = std::mem::take(&mut self.route_buf);
            self.sims[p].drain_outbox(&mut buf);
            for (from, to, msg) in buf.drain(..) {
                let q = self.topo.partition_of(to).index();
                self.cross_messages += 1;
                self.sims[q].inject_at(deliver, from, to, msg);
            }
            self.route_buf = buf;
        }
    }

    /// Run until every partition is quiescent, or until the virtual-time
    /// cap is reached.
    pub fn run(&mut self, cap: SimTime) -> ShardOutcome {
        loop {
            match self.earliest_event() {
                None => return ShardOutcome::Quiescent(self.now()),
                Some(t) if t > cap => {
                    for sim in &mut self.sims {
                        sim.run_until(cap);
                    }
                    return ShardOutcome::TimeCapped;
                }
                Some(t) => self.step_to(t),
            }
        }
    }

    /// Run all events up to `until` and stop there (mid-run inspection).
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.earliest_event() {
            if t > until {
                break;
            }
            self.step_to(t);
        }
        for sim in &mut self.sims {
            sim.run_until(until);
        }
    }

    /// Current virtual time (all kernels agree after any run call).
    pub fn now(&self) -> SimTime {
        self.sims
            .iter()
            .map(Simulation::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Submit a transaction from *outside* the arrival lists — the seam
    /// the network front end drives. The plan is validated, registered
    /// with the root partition's client actor (so the completion lands in
    /// a [`TxnRecord`]), and injected as a `Submit` at the current virtual
    /// time. The caller owns the global `seq` counter; id assignment is
    /// `TxnId::new(seq, root_node)`, mirroring what the client actor does
    /// for scheduled arrivals. Run the cluster afterwards to execute it.
    pub fn submit_external(
        &mut self,
        seq: u64,
        plan: &TxnPlan,
        fail_node: Option<NodeId>,
    ) -> Result<TxnId, SubmitError> {
        plan.validate().map_err(SubmitError::Invalid)?;
        for n in plan.root.nodes() {
            if !self.topo.is_db_node(n) {
                return Err(SubmitError::UnknownNode(n));
            }
        }
        let root = plan.root.node;
        let p = self.topo.partition_of(root);
        let client = self.topo.client(p);
        let txn = TxnId::new(seq, root);
        let journal_keys = plan.journal_keys();
        let now = self.now();
        self.client_mut(p)
            .register_external(txn, plan.kind, now, journal_keys);
        self.sims[p.index()].inject(
            client,
            root,
            Msg::submit(txn, plan.kind, plan.root.clone(), client, fail_node),
        );
        Ok(txn)
    }

    /// Partition `p`'s client actor.
    fn client_mut(&mut self, p: PartitionId) -> &mut ClientActor<Msg> {
        match self.sims[p.index()].actors_mut().last_mut() {
            Some(ClusterActor::Client(c)) => c,
            // lint-allow(panic-hygiene): the client occupies the last
            // actor slot of every partition block by construction — same
            // invariant `partition_records` leans on.
            _ => unreachable!("client occupies the last actor slot of the partition"),
        }
    }

    /// Remove and return `txn`'s record from partition `p`'s client,
    /// O(log n) (see [`ClientActor::take_record`]). The server engine
    /// retires each record this way once it has built the reply; the DES
    /// drivers never call it, so their [`records`](Self::records) stay
    /// complete for the auditor.
    pub fn take_record(&mut self, p: PartitionId, txn: TxnId) -> Option<TxnRecord> {
        self.client_mut(p).take_record(txn)
    }

    /// Remove and return partition `p`'s completed advancement records
    /// and version timeline (see [`Coordinator::take_history`]).
    pub fn take_advancement_history(
        &mut self,
        p: PartitionId,
    ) -> (Vec<AdvancementRecord>, VersionTimeline) {
        let slot = usize::from(self.topo.nodes_per_partition());
        match self.sims[p.index()].actors_mut().get_mut(slot) {
            Some(ClusterActor::Coordinator(c)) => c.take_history(),
            // lint-allow(panic-hygiene): the coordinator occupies slot k of
            // every partition block by construction.
            _ => unreachable!("coordinator occupies actor slot k of the partition"),
        }
    }

    /// The database node whose store holds `key`: its home under the
    /// schema the cluster was built from. Probes each node's store, so
    /// the cluster keeps no schema copy for this.
    pub fn home_of(&self, key: Key) -> Option<NodeId> {
        self.sims
            .iter()
            .flat_map(|sim| sim.actors())
            .find_map(|actor| match actor {
                ClusterActor::Node(n) if n.store().contains(key) => Some(n.store().node()),
                _ => None,
            })
    }

    /// Ask partition `p`'s coordinator for one advancement now.
    pub fn trigger_advancement(&mut self, p: PartitionId) {
        let client = self.topo.client(p);
        let coord = self.topo.coordinator(p);
        self.sims[p.index()].inject(client, coord, Msg::TriggerAdvancement);
    }

    /// Inject a protocol message for delivery to `to` at the absolute
    /// virtual time `at`, bypassing the transport (scripted replays — the
    /// Table 1 scenario). It lands in the kernel of `to`'s partition.
    pub fn inject_at(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: Msg) {
        let p = self.topo.partition_of(to);
        self.sims[p.index()].inject_at(at, from, to, msg);
    }

    /// Enable trace recording in every partition's kernel.
    pub fn enable_trace(&mut self) {
        for sim in &mut self.sims {
            sim.enable_trace();
        }
    }

    /// Take partition `p`'s recorded trace.
    pub fn take_trace(&mut self, p: PartitionId) -> Option<Trace> {
        self.sims[p.index()].take_trace()
    }

    /// Ask every partition's coordinator for one advancement now.
    pub fn trigger_advancement_all(&mut self) {
        for p in 0..self.n_partitions() {
            self.trigger_advancement(PartitionId(p));
        }
    }

    /// Total messages shuttled across partition boundaries so far.
    pub fn cross_messages(&self) -> u64 {
        self.cross_messages
    }

    /// Kernel statistics of partition `p`.
    pub fn sim_stats(&self, p: PartitionId) -> &SimStats {
        self.sims[p.index()].stats()
    }

    /// Transaction records collected by partition `p`'s client, if the
    /// client slot is populated as constructed.
    pub fn try_partition_records(&self, p: PartitionId) -> Option<&[TxnRecord]> {
        match self.sims.get(p.index())?.actors().last()? {
            ClusterActor::Client(c) => Some(c.records()),
            _ => None,
        }
    }

    /// Transaction records collected by partition `p`'s client.
    pub fn partition_records(&self, p: PartitionId) -> &[TxnRecord] {
        // lint-allow(panic-hygiene): the client occupies the last actor
        // slot of every partition block by construction
        // (build_partition_actors); a mismatch is a harness defect, not a
        // reachable protocol state.
        self.try_partition_records(p)
            .expect("client occupies the last actor slot of the partition")
    }

    /// All transaction records, merged across partitions in submission
    /// order (ties broken by partition index).
    pub fn records(&self) -> Vec<TxnRecord> {
        let mut all: Vec<TxnRecord> = Vec::new();
        for p in 0..self.n_partitions() {
            all.extend_from_slice(self.partition_records(PartitionId(p)));
        }
        all.sort_by_key(|r| r.submitted);
        all
    }

    /// The engine of the node with *global* id `id`, if `id` names a
    /// database node of the topology.
    pub fn try_node(&self, id: NodeId) -> Option<&ThreeVNode> {
        let p = self.topo.partition_of(id);
        let local = usize::from(id.0.checked_sub(self.topo.base(p).0)?);
        if local >= usize::from(self.topo.nodes_per_partition()) {
            return None;
        }
        match self.sims.get(p.index())?.actors().get(local)? {
            ClusterActor::Node(n) => Some(n),
            _ => None,
        }
    }

    /// The engine of the node with *global* id `id`.
    pub fn node(&self, id: NodeId) -> &ThreeVNode {
        // lint-allow(panic-hygiene): node slots are fixed at construction;
        // an id outside the topology's node range is a test/bench indexing
        // bug. Fallible callers use `try_node`.
        self.try_node(id).expect("global id names a database node")
    }

    /// Partition `p`'s coordinator, if its slot is populated as
    /// constructed.
    pub fn try_coordinator(&self, p: PartitionId) -> Option<&Coordinator> {
        let slot = usize::from(self.topo.nodes_per_partition());
        match self.sims.get(p.index())?.actors().get(slot)? {
            ClusterActor::Coordinator(c) => Some(c),
            _ => None,
        }
    }

    /// Partition `p`'s coordinator.
    pub fn coordinator(&self, p: PartitionId) -> &Coordinator {
        // lint-allow(panic-hygiene): the coordinator occupies slot k of
        // every partition block by construction.
        self.try_coordinator(p)
            .expect("coordinator occupies actor slot k of the partition")
    }

    /// Completed advancement records of partition `p`.
    pub fn advancements(&self, p: PartitionId) -> &[AdvancementRecord] {
        self.coordinator(p).records()
    }

    /// All global node ids, in partition order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.n_partitions())
            .flat_map(|p| self.topo.nodes(PartitionId(p)))
            .collect()
    }

    /// Are all nodes of all partitions quiescent?
    pub fn all_quiescent(&self) -> bool {
        self.node_ids()
            .iter()
            .all(|&id| self.node(id).is_quiescent())
    }

    /// Highest number of simultaneously live versions of any item on any
    /// node of any partition (the paper's bound: ≤ 3 per partition).
    pub fn max_versions_high_water(&self) -> u32 {
        self.node_ids()
            .iter()
            .map(|&id| self.node(id).store_stats().max_versions_of_any_item)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_analysis::TxnStatus;
    use threev_model::{KeyDecl, SubtxnPlan, TxnPlan, UpdateOp, VersionNo};

    fn ms(x: u64) -> SimTime {
        SimTime(x * 1_000)
    }

    /// One counter + one journal per node, for `n` global nodes.
    fn schema(nodes: &[NodeId]) -> Schema {
        let mut decls = Vec::new();
        for &n in nodes {
            decls.push(KeyDecl::counter(Key(u64::from(n.0)), n, 0));
            decls.push(KeyDecl::journal(Key(1_000 + u64::from(n.0)), n));
        }
        Schema::new(decls)
    }

    fn visit(nodes: &[NodeId], amount: i64) -> TxnPlan {
        let mut root = SubtxnPlan::new(nodes[0])
            .update(Key(u64::from(nodes[0].0)), UpdateOp::Add(amount))
            .update(
                Key(1_000 + u64::from(nodes[0].0)),
                UpdateOp::Append { amount, tag: 1 },
            );
        for &n in &nodes[1..] {
            root = root.child(
                SubtxnPlan::new(n)
                    .update(Key(u64::from(n.0)), UpdateOp::Add(amount))
                    .update(
                        Key(1_000 + u64::from(n.0)),
                        UpdateOp::Append { amount, tag: 1 },
                    ),
            );
        }
        TxnPlan::commuting(root)
    }

    /// A scheduled crash of node 0 with an in-memory WAL, after the
    /// arrival window (an in-flight subtransaction is lost with its node).
    fn crashing(cfg: ShardedConfig) -> ShardedConfig {
        let mut cfg = cfg.durability(DurabilityMode::Memory {
            checkpoint_every: 8,
        });
        cfg.sim.faults.crashes = vec![threev_sim::NodeCrash {
            node: NodeId(0),
            at: ms(20),
            restart_after: SimDuration::from_millis(2),
        }];
        cfg
    }

    /// Resolution pins are per partition pair and volatile, so a crash on
    /// a multi-partition run is rejected at construction.
    #[test]
    #[should_panic(expected = "crash injection needs a single partition")]
    fn crashes_on_two_partitions_are_rejected() {
        let topo = Topology::new(2, 2);
        let all: Vec<NodeId> = (0..2).flat_map(|p| topo.nodes(PartitionId(p))).collect();
        let cfg = crashing(ShardedConfig::new(2, 2));
        let _ = ShardedCluster::new(&schema(&all), cfg, vec![vec![], vec![]]);
    }

    /// One partition has no pins: a crashed node restarts from its WAL and
    /// the run converges like a clean one.
    #[test]
    fn crashes_on_one_partition_recover() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let arrivals: Vec<Arrival> = (0..10)
            .map(|i| Arrival::at(ms(i), visit(&nodes, 1)))
            .collect();
        let cfg = crashing(ShardedConfig::new(1, 2).seed(4));
        let mut cluster = ShardedCluster::new(&schema(&nodes), cfg, vec![arrivals]);
        assert!(matches!(
            cluster.run(SimTime::MAX),
            ShardOutcome::Quiescent(_)
        ));
        assert_eq!(cluster.sim_stats(PartitionId(0)).crashes, 1);
        assert_eq!(cluster.node(NodeId(0)).stats().recoveries, 1);
        let recs = cluster.partition_records(PartitionId(0));
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.status == TxnStatus::Committed));
        // The restarted node still takes part in an advancement.
        cluster.trigger_advancement(PartitionId(0));
        assert!(matches!(
            cluster.run(SimTime::MAX),
            ShardOutcome::Quiescent(_)
        ));
        assert_eq!(cluster.advancements(PartitionId(0)).len(), 1);
        assert!(cluster.all_quiescent());
    }

    /// A schema that homes a key on the coordinator's id is refused.
    #[test]
    #[should_panic(expected = "schema names node 2 but cluster has 1 partitions of 2 nodes")]
    fn schema_beyond_the_topology_is_rejected() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let _ = ShardedCluster::new(&schema(&nodes), ShardedConfig::new(1, 2), vec![vec![]]);
    }

    /// A cross-partition commuting tree commits on every partition, the
    /// gauge pins release, and both partitions advance independently.
    #[test]
    fn cross_partition_tree_commits_everywhere() {
        let topo = Topology::new(2, 2);
        let p0 = PartitionId(0);
        let p1 = PartitionId(1);
        let all: Vec<NodeId> = topo.nodes(p0).into_iter().chain(topo.nodes(p1)).collect();
        let schema = schema(&all);
        // Rooted on partition 0, charging one node of each partition.
        let plan = visit(&[topo.nodes(p0)[0], topo.nodes(p1)[1]], 5);
        let arrivals0 = vec![Arrival::at(ms(1), plan)];
        let cfg = ShardedConfig::new(2, 2).seed(7);
        let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals0, vec![]]);
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, ShardOutcome::Quiescent(_)));
        assert!(cluster.cross_messages() > 0, "tree must cross partitions");
        let recs = cluster.partition_records(p0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].status, TxnStatus::Committed);
        // Both touched nodes saw the charge.
        for id in [topo.nodes(p0)[0], topo.nodes(p1)[1]] {
            let store = cluster.node(id).store();
            let layout = store.layout(Key(u64::from(id.0)));
            let latest = layout.as_ref().and_then(|l| l.last());
            assert_eq!(
                latest.and_then(|(_, v)| v.as_counter()),
                Some(5),
                "node {id} counter"
            );
        }
        // With the pins released, each partition can advance on its own.
        cluster.trigger_advancement_all();
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, ShardOutcome::Quiescent(_)));
        assert_eq!(cluster.advancements(p0).len(), 1);
        assert_eq!(cluster.advancements(p1).len(), 1);
        assert!(cluster.all_quiescent());
    }

    /// An aborted cross-partition tree compensates on every partition: no
    /// partial effects survive anywhere.
    #[test]
    fn cross_partition_abort_leaves_no_trace() {
        let topo = Topology::new(2, 2);
        let p0 = PartitionId(0);
        let p1 = PartitionId(1);
        let all: Vec<NodeId> = topo.nodes(p0).into_iter().chain(topo.nodes(p1)).collect();
        let schema = schema(&all);
        let victim = topo.nodes(p1)[0];
        let targets = [topo.nodes(p0)[0], victim];
        let arrivals0 = vec![
            Arrival::failing_at(ms(1), visit(&targets, 100), victim),
            Arrival::at(ms(2), visit(&targets, 7)),
        ];
        let cfg = ShardedConfig::new(2, 2).seed(11);
        let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals0, vec![]]);
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, ShardOutcome::Quiescent(_)));
        let recs = cluster.partition_records(p0);
        assert_eq!(recs[0].status, TxnStatus::Aborted);
        assert_eq!(recs[1].status, TxnStatus::Committed);
        for id in targets {
            let store = cluster.node(id).store();
            let layout = store.layout(Key(u64::from(id.0)));
            let latest = layout.as_ref().and_then(|l| l.last());
            assert_eq!(
                latest.and_then(|(_, v)| v.as_counter()),
                Some(7),
                "only the healthy visit survives on node {id}"
            );
        }
        // Counters balanced after compensation: advancement still works.
        cluster.trigger_advancement_all();
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, ShardOutcome::Quiescent(_)));
        assert_eq!(cluster.advancements(p0).len(), 1);
        assert_eq!(cluster.advancements(p1).len(), 1);
    }

    /// Partitions with no mutual traffic do not wait on each other: a
    /// partition with local-only traffic advances even while another
    /// partition is idle, and its advancement exchanges no cross traffic.
    #[test]
    fn advancement_is_partition_local_without_cross_traffic() {
        let topo = Topology::new(3, 2);
        let all: Vec<NodeId> = (0..3).flat_map(|p| topo.nodes(PartitionId(p))).collect();
        let schema = schema(&all);
        // Only partition 1 has traffic, strictly local.
        let locals = topo.nodes(PartitionId(1));
        let arrivals1: Vec<Arrival> = (0..10)
            .map(|i| Arrival::at(ms(1 + i), visit(&locals, 1)))
            .collect();
        let cfg = ShardedConfig::new(3, 2).seed(3);
        let mut cluster = ShardedCluster::new(&schema, cfg, vec![vec![], arrivals1, vec![]]);
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, ShardOutcome::Quiescent(_)));
        assert_eq!(cluster.cross_messages(), 0, "no cross traffic expected");
        cluster.trigger_advancement(PartitionId(1));
        let out = cluster.run(SimTime::MAX);
        assert!(matches!(out, ShardOutcome::Quiescent(_)));
        assert_eq!(cluster.advancements(PartitionId(1)).len(), 1);
        assert_eq!(
            cluster.cross_messages(),
            0,
            "advancement of a local-only partition must not message peers"
        );
    }

    /// An externally injected plan takes the same path as a scheduled
    /// arrival: same record, same store contents, same commit.
    #[test]
    fn external_submission_matches_arrival_run() {
        let topo = Topology::new(2, 2);
        let all: Vec<NodeId> = (0..2).flat_map(|p| topo.nodes(PartitionId(p))).collect();
        let schema = schema(&all);
        let cross = [topo.nodes(PartitionId(0))[0], topo.nodes(PartitionId(1))[1]];
        let plan = visit(&cross, 9);

        let run_fp = |cluster: &ShardedCluster| {
            use std::fmt::Write as _;
            let mut out = String::new();
            for r in cluster.partition_records(PartitionId(0)) {
                let _ = writeln!(out, "{r:?}");
            }
            for &id in &cross {
                let n = cluster.node(id);
                let mut keys: Vec<_> = n.store().keys().collect();
                keys.sort_unstable();
                for k in keys {
                    let _ = writeln!(out, "{k:?} => {:?}", n.store().layout(k));
                }
            }
            out
        };

        // Path A: the plan rides the arrival list at t=0.
        let cfg = ShardedConfig::new(2, 2).seed(5);
        let arrivals = vec![vec![Arrival::at(SimTime::ZERO, plan.clone())], vec![]];
        let mut via_arrival = ShardedCluster::new(&schema, cfg.clone(), arrivals);
        assert!(matches!(
            via_arrival.run(SimTime::MAX),
            ShardOutcome::Quiescent(_)
        ));

        // Path B: the same plan is injected externally at t=0.
        let mut via_external = ShardedCluster::new(&schema, cfg, vec![vec![], vec![]]);
        let txn = via_external.submit_external(0, &plan, None).unwrap();
        assert_eq!(txn, TxnId::new(0, cross[0]));
        assert!(matches!(
            via_external.run(SimTime::MAX),
            ShardOutcome::Quiescent(_)
        ));

        assert_eq!(run_fp(&via_arrival), run_fp(&via_external));

        // Structural rejections never reach the kernel.
        let empty = TxnPlan::commuting(SubtxnPlan::new(cross[0]));
        assert!(matches!(
            via_external.submit_external(1, &empty, None),
            Err(SubmitError::Invalid(_))
        ));
        let foreign = visit(&[topo.client(PartitionId(0))], 1);
        assert!(matches!(
            via_external.submit_external(1, &foreign, None),
            Err(SubmitError::UnknownNode(_))
        ));
    }

    /// A served transaction's record and a finished round's history can be
    /// taken out of the cluster; homes resolve through the node stores.
    #[test]
    fn records_and_history_can_be_retired() {
        let topo = Topology::new(2, 2);
        let all: Vec<NodeId> = (0..2).flat_map(|p| topo.nodes(PartitionId(p))).collect();
        let schema = schema(&all);
        for &n in &all {
            assert_eq!(schema.home(Key(1_000 + u64::from(n.0))), Some(n));
        }
        let mut cluster = ShardedCluster::new(
            &schema,
            ShardedConfig::new(2, 2).seed(5),
            vec![vec![], vec![]],
        );
        for &n in &all {
            assert_eq!(cluster.home_of(Key(1_000 + u64::from(n.0))), Some(n));
        }
        assert_eq!(cluster.home_of(Key(999_999)), None);

        let p0 = PartitionId(0);
        let plan = visit(&[all[0], all[3]], 4);
        let txn = cluster.submit_external(0, &plan, None).unwrap();
        cluster.run(SimTime::MAX);
        let rec = cluster.take_record(p0, txn).expect("record registered");
        assert_eq!(rec.status, TxnStatus::Committed);
        assert!(cluster.partition_records(p0).is_empty());
        assert!(cluster.take_record(p0, txn).is_none());

        cluster.trigger_advancement_all();
        cluster.run(SimTime::MAX);
        let (rounds, timeline) = cluster.take_advancement_history(p0);
        assert_eq!(rounds.len(), 1);
        // Version 0 closed at construction; the round closed and
        // published version 1.
        assert_eq!(timeline.len(), 3);
        assert!(timeline.published_at(VersionNo(1)).is_some());
        assert!(cluster.advancements(p0).is_empty());
        assert!(cluster.coordinator(p0).timeline().is_empty());
        assert_eq!(cluster.advancements(PartitionId(1)).len(), 1);
    }

    /// Deterministic replay: same seed, same outcome, across the shuttle.
    #[test]
    fn sharded_replay_is_deterministic() {
        let build = || {
            let topo = Topology::new(2, 2);
            let all: Vec<NodeId> = (0..2).flat_map(|p| topo.nodes(PartitionId(p))).collect();
            let schema = schema(&all);
            let cross = [topo.nodes(PartitionId(0))[0], topo.nodes(PartitionId(1))[0]];
            let arrivals0: Vec<Arrival> = (0..30)
                .map(|i| Arrival::at(ms(1 + i), visit(&cross, 1)))
                .collect();
            let arrivals1: Vec<Arrival> = (0..30)
                .map(|i| Arrival::at(ms(2 + i), visit(&[topo.nodes(PartitionId(1))[1]], 2)))
                .collect();
            let cfg = ShardedConfig::new(2, 2)
                .seed(99)
                .advancement(AdvancementPolicy::Periodic {
                    first: SimDuration::from_millis(7),
                    period: SimDuration::from_millis(13),
                });
            let mut cluster = ShardedCluster::new(&schema, cfg, vec![arrivals0, arrivals1]);
            cluster.run(SimTime(2_000_000));
            (
                cluster.now(),
                cluster.cross_messages(),
                cluster.sim_stats(PartitionId(0)).messages,
                cluster.sim_stats(PartitionId(1)).messages,
                cluster.records().len(),
            )
        };
        assert_eq!(build(), build());
    }
}
