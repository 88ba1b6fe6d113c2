//! The command-driven engine behind the server.
//!
//! An [`Engine`] owns a [`ShardedCluster`] and executes one command at a
//! time: a submission is injected at the current virtual instant and the
//! cluster runs to quiescence before the outcome is reported. That makes
//! the server's protocol-visible behaviour a pure function of the command
//! sequence — the socket layer may race over *which* command arrives next,
//! but never over what a given command does. The loopback e2e test leans
//! on this: a workload replayed through real sockets must leave the same
//! committed store as the in-process driver at the same seed.
//!
//! Version advancement runs on a commit cadence (`advance_every`): after
//! every N committed updates the engine asks every partition's coordinator
//! for one advancement and drains it, so read-only transactions see fresh
//! versions without any wall-clock timers inside the deterministic core.
//!
//! The engine holds no history. It retires each transaction record from
//! its client actor as it builds the reply, moving the reads into the
//! outcome, and it drops every coordinator's advancement records and
//! version timeline after each round; [`Engine::retained`] reports both as
//! zero between commands. It keeps no schema copy either: read homes
//! resolve through the nodes' stores. What still grows with history is
//! the data itself — journals, by design (every append is a value), and
//! the nodes' compensation tombstones, which are not yet reclaimed.

use std::collections::BTreeMap;

use threev_model::{Key, NodeId, Schema, SubtxnPlan, TxnId, TxnKind, TxnPlan, VersionNo};
use threev_shard::{ShardedCluster, ShardedConfig, SubmitError};
use threev_sim::SimTime;

use crate::proto::{ReadResult, ServerStats};
use threev_analysis::TxnStatus;
use threev_model::PartitionId;

/// Why the engine refused or failed a command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The cluster rejected the plan before execution.
    Submit(SubmitError),
    /// A read named a key the schema does not declare.
    UnknownKey(Key),
    /// The cluster ran to quiescence but the transaction's record is
    /// missing or unfinished — an engine invariant violation, reported
    /// (never panicked) so the server can answer with a typed error.
    RecordMissing(TxnId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Submit(e) => write!(f, "{e}"),
            EngineError::UnknownKey(k) => write!(f, "key {k} is not in the schema"),
            EngineError::RecordMissing(t) => {
                write!(f, "transaction {t:?} left no finished record")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The reported outcome of one submitted transaction.
#[derive(Clone, Debug)]
pub struct TxnOutcome {
    /// Id the engine assigned.
    pub txn: TxnId,
    /// Did the whole tree commit?
    pub committed: bool,
    /// Version the transaction executed in.
    pub version: Option<VersionNo>,
    /// Reads observed during execution.
    pub reads: Vec<ReadResult>,
}

/// Sizes of the per-command and per-round state the engine holds, summed
/// over partitions. All are zero between commands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Retained {
    /// Transaction records held by the client actors.
    pub records: usize,
    /// Completed advancement records held by the coordinators.
    pub advancement_records: usize,
    /// Version-timeline entries held by the coordinators.
    pub timeline_entries: usize,
}

/// The sharded cluster plus the submission/advancement bookkeeping the
/// server needs.
pub struct Engine {
    cluster: ShardedCluster,
    next_seq: u64,
    advance_every: u64,
    since_advance: u64,
    submitted: u64,
    committed: u64,
    aborted: u64,
    reads_served: u64,
    advancements: u64,
}

impl Engine {
    /// Build an engine over `schema` with no scheduled arrivals: every
    /// transaction enters through [`Engine::submit`]. `advance_every` is
    /// the commit cadence of automatic version advancement (0 disables
    /// it; advancement then only happens via
    /// [`Engine::trigger_advancement`]).
    pub fn new(schema: &Schema, cfg: ShardedConfig, advance_every: u64) -> Self {
        let partitions = usize::from(cfg.topology.n_partitions());
        let cluster = ShardedCluster::new(schema, cfg, vec![Vec::new(); partitions]);
        let mut engine = Engine {
            cluster,
            next_seq: 0,
            advance_every,
            since_advance: 0,
            submitted: 0,
            committed: 0,
            aborted: 0,
            reads_served: 0,
            advancements: 0,
        };
        // A fresh coordinator's timeline already marks version 0 closed.
        engine.drop_history();
        engine
    }

    /// Execute one plan to completion and report its outcome.
    pub fn submit(&mut self, plan: &TxnPlan) -> Result<TxnOutcome, EngineError> {
        let txn = self
            .cluster
            .submit_external(self.next_seq, plan, None)
            .map_err(EngineError::Submit)?;
        self.next_seq += 1;
        self.submitted += 1;
        self.cluster.run(SimTime::MAX);
        let outcome = self.outcome_of(plan.root.node, txn)?;
        if outcome.committed {
            self.committed += 1;
            if plan.kind != TxnKind::ReadOnly && self.advance_every > 0 {
                self.since_advance += 1;
                if self.since_advance >= self.advance_every {
                    self.trigger_advancement();
                }
            }
        } else {
            self.aborted += 1;
        }
        Ok(outcome)
    }

    /// Read the transaction-visible values of `keys` through a read-only
    /// transaction tree spanning every home node. Duplicates are served
    /// once; results come back in first-occurrence order. O(k log k) in
    /// the keys of the request.
    pub fn read(&mut self, keys: &[Key]) -> Result<Vec<ReadResult>, EngineError> {
        // Each distinct key's position in the reply, by first occurrence.
        let mut position: BTreeMap<Key, usize> = BTreeMap::new();
        let mut by_node: BTreeMap<NodeId, Vec<Key>> = BTreeMap::new();
        let mut root_node = None;
        for &k in keys {
            if position.contains_key(&k) {
                continue;
            }
            let home = self.cluster.home_of(k).ok_or(EngineError::UnknownKey(k))?;
            position.insert(k, position.len());
            // Root on the first key's home node.
            root_node.get_or_insert(home);
            by_node.entry(home).or_default().push(k);
        }
        let Some(root_node) = root_node else {
            return Ok(Vec::new());
        };
        // Every other node becomes a child subtransaction (order fixed by
        // the BTreeMap for determinism).
        let mut root = SubtxnPlan::new(root_node);
        if let Some(ks) = by_node.remove(&root_node) {
            for k in ks {
                root = root.read(k);
            }
        }
        for (node, ks) in by_node {
            let mut sub = SubtxnPlan::new(node);
            for k in ks {
                sub = sub.read(k);
            }
            root = root.child(sub);
        }
        let outcome = self.submit(&TxnPlan::read_only(root))?;
        self.reads_served += 1;
        // Move the observations into request order; the first observation
        // of a key wins.
        let mut out: Vec<Option<ReadResult>> = vec![None; position.len()];
        for r in outcome.reads {
            if let Some(&i) = position.get(&r.key) {
                out[i].get_or_insert(r);
            }
        }
        out.into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(EngineError::RecordMissing(outcome.txn))
    }

    /// One advancement round: ask every partition's coordinator and run
    /// the cluster until the round completes. The round's history is
    /// dropped once it has run.
    pub fn trigger_advancement(&mut self) {
        self.cluster.trigger_advancement_all();
        self.cluster.run(SimTime::MAX);
        self.drop_history();
        self.since_advance = 0;
        self.advancements += 1;
    }

    /// Drop every coordinator's advancement records and timeline: the
    /// server has no consumer for them, and they grow by one round each.
    fn drop_history(&mut self) {
        for p in self.partitions() {
            drop(self.cluster.take_advancement_history(p));
        }
    }

    /// Server counters. `busy_rejections` belongs to the socket layer and
    /// is filled in there; the engine reports it as zero.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted,
            committed: self.committed,
            aborted: self.aborted,
            reads_served: self.reads_served,
            advancements: self.advancements,
            busy_rejections: 0,
            cross_messages: self.cluster.cross_messages(),
            virtual_now_us: self.cluster.now().0,
        }
    }

    /// Retained-state sizes: what the engine holds that is not store data.
    pub fn retained(&self) -> Retained {
        let mut r = Retained::default();
        for p in self.partitions() {
            r.records += self.cluster.partition_records(p).len();
            let coordinator = self.cluster.coordinator(p);
            r.advancement_records += coordinator.records().len();
            r.timeline_entries += coordinator.timeline().len();
        }
        r
    }

    /// Canonical dump of every node's committed store: `vu`/`vr` plus the
    /// full per-key version layouts, in global node order. Two engines
    /// that executed equivalent histories produce byte-identical dumps.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for id in self.cluster.node_ids() {
            let n = self.cluster.node(id);
            let _ = writeln!(out, "node {id:?} vu={:?} vr={:?}", n.vu(), n.vr());
            let mut keys: Vec<Key> = n.store().keys().collect();
            keys.sort_unstable();
            for k in keys {
                let _ = writeln!(out, "  {k:?} => {:?}", n.store().layout(k));
            }
        }
        out
    }

    /// `(fnv1a64(fingerprint), node count, total keys)` — the compact form
    /// shipped over the wire.
    pub fn fingerprint_hash(&self) -> (u64, u32, u64) {
        let dump = self.fingerprint();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in dump.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let ids = self.cluster.node_ids();
        let keys: u64 = ids
            .iter()
            .map(|&id| self.cluster.node(id).store().keys().count() as u64)
            .sum();
        (hash, ids.len() as u32, keys)
    }

    /// Direct access to the cluster (tests and the in-process driver).
    pub fn cluster(&self) -> &ShardedCluster {
        &self.cluster
    }

    /// Retire `txn`'s record and build its outcome from it.
    fn outcome_of(&mut self, root: NodeId, txn: TxnId) -> Result<TxnOutcome, EngineError> {
        let p = self.cluster.topology().partition_of(root);
        let record = self
            .cluster
            .take_record(p, txn)
            .ok_or(EngineError::RecordMissing(txn))?;
        if record.status == TxnStatus::InFlight {
            return Err(EngineError::RecordMissing(txn));
        }
        Ok(TxnOutcome {
            txn,
            committed: record.status == TxnStatus::Committed,
            version: record.version,
            reads: record
                .reads
                .into_iter()
                .map(|o| ReadResult {
                    key: o.key,
                    version: o.version,
                    value: o.value,
                })
                .collect(),
        })
    }

    /// All partition ids, for callers iterating engine state.
    pub fn partitions(&self) -> Vec<PartitionId> {
        (0..self.cluster.n_partitions()).map(PartitionId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{KeyDecl, Topology, UpdateOp};

    fn schema(topo: Topology) -> Schema {
        let mut decls = Vec::new();
        for p in 0..topo.n_partitions() {
            for n in topo.nodes(PartitionId(p)) {
                decls.push(KeyDecl::counter(Key(u64::from(n.0)), n, 0));
                decls.push(KeyDecl::journal(Key(1_000 + u64::from(n.0)), n));
            }
        }
        Schema::new(decls)
    }

    fn engine(partitions: u16, nodes: u16) -> Engine {
        let cfg = ShardedConfig::new(partitions, nodes).seed(0xE1);
        let schema = schema(cfg.topology);
        Engine::new(&schema, cfg, 4)
    }

    #[test]
    fn submit_commits_and_reads_see_it_after_advancement() {
        let mut e = engine(2, 2);
        let topo = e.cluster().topology();
        let a = topo.nodes(PartitionId(0))[0];
        let b = topo.nodes(PartitionId(1))[1];
        let plan = TxnPlan::commuting(
            SubtxnPlan::new(a)
                .update(Key(u64::from(a.0)), UpdateOp::Add(5))
                .child(SubtxnPlan::new(b).update(Key(u64::from(b.0)), UpdateOp::Add(7))),
        );
        let out = e.submit(&plan).unwrap();
        assert!(out.committed);
        e.trigger_advancement();
        let reads = e.read(&[Key(u64::from(a.0)), Key(u64::from(b.0))]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].value.as_counter(), Some(5));
        assert_eq!(reads[1].value.as_counter(), Some(7));
        let stats = e.stats();
        assert_eq!(stats.submitted, 2); // update + read-only tree
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.reads_served, 1);
        assert!(stats.cross_messages > 0);
    }

    #[test]
    fn unknown_key_and_invalid_plan_are_reported() {
        let mut e = engine(1, 2);
        assert_eq!(
            e.read(&[Key(999_999)]),
            Err(EngineError::UnknownKey(Key(999_999)))
        );
        let empty = TxnPlan::commuting(SubtxnPlan::new(NodeId(0)));
        assert!(matches!(e.submit(&empty), Err(EngineError::Submit(_))));
        // Errors consume no sequence numbers or counters.
        assert_eq!(e.stats().submitted, 0);
    }

    #[test]
    fn duplicate_reads_are_served_once_in_request_order() {
        let mut e = engine(1, 2);
        let n0 = NodeId(0);
        let plan = TxnPlan::commuting(SubtxnPlan::new(n0).update(Key(0), UpdateOp::Add(3)));
        assert!(e.submit(&plan).unwrap().committed);
        e.trigger_advancement();
        let reads = e.read(&[Key(1), Key(0), Key(1)]).unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].key, Key(1));
        assert_eq!(reads[1].key, Key(0));
        assert_eq!(reads[1].value.as_counter(), Some(3));
    }

    #[test]
    fn advancement_cadence_fires_every_n_commits() {
        let mut e = engine(1, 1);
        let plan = TxnPlan::commuting(SubtxnPlan::new(NodeId(0)).update(Key(0), UpdateOp::Add(1)));
        for _ in 0..8 {
            assert!(e.submit(&plan).unwrap().committed);
        }
        // advance_every = 4 → two automatic rounds.
        assert_eq!(e.stats().advancements, 2);
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let build = || {
            let mut e = engine(2, 2);
            let topo = e.cluster().topology();
            let n = topo.nodes(PartitionId(0))[0];
            let plan = TxnPlan::commuting(
                SubtxnPlan::new(n).update(Key(u64::from(n.0)), UpdateOp::Add(2)),
            );
            e.submit(&plan).unwrap();
            e.trigger_advancement();
            e.fingerprint_hash()
        };
        assert_eq!(build(), build());
        let (_, nodes, keys) = build();
        assert_eq!(nodes, 4);
        assert!(keys > 0);
    }
}
