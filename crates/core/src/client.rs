//! The workload-driver actor, shared by every engine.
//!
//! The client owns the run's ground truth: it assigns transaction ids,
//! submits plans at their scheduled arrival times, and fills in the
//! [`TxnRecord`]s that the analysis crate summarises and audits. It is
//! generic over the engine's message type through [`ProtocolMsg`], so the
//! 3V engine and all three baselines are driven by the exact same code.

use std::collections::BTreeMap;

use threev_analysis::{TxnRecord, TxnStatus};
use threev_model::{NodeId, TxnId, TxnPlan};
use threev_sim::{Actor, Ctx, SimTime};

use crate::msg::{ClientEvent, ProtocolMsg};

/// One scheduled transaction arrival.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Virtual time the client submits the transaction.
    pub at: SimTime,
    /// The plan.
    pub plan: TxnPlan,
    /// Fault injection: the node whose subtransaction will abort
    /// (experiment X10). `None` for normal transactions.
    pub fail_node: Option<NodeId>,
}

impl Arrival {
    /// A normal arrival.
    pub fn at(at: SimTime, plan: TxnPlan) -> Self {
        Arrival {
            at,
            plan,
            fail_node: None,
        }
    }

    /// An arrival whose subtransaction at `node` will abort and compensate.
    pub fn failing_at(at: SimTime, plan: TxnPlan, node: NodeId) -> Self {
        Arrival {
            at,
            plan,
            fail_node: Some(node),
        }
    }
}

/// The client actor: submits [`Arrival`]s in time order and records what
/// comes back.
pub struct ClientActor<M> {
    arrivals: Vec<Arrival>,
    next: usize,
    next_seq: u64,
    records: Vec<TxnRecord>,
    index: BTreeMap<TxnId, usize>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: ProtocolMsg> ClientActor<M> {
    /// New client over `arrivals` (will be sorted by time).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.at);
        ClientActor {
            arrivals,
            next: 0,
            next_seq: 0,
            records: Vec::new(),
            index: BTreeMap::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Records collected so far (complete after the run quiesces).
    pub fn records(&self) -> &[TxnRecord] {
        &self.records
    }

    /// Consume the client, returning its records.
    pub fn into_records(self) -> Vec<TxnRecord> {
        self.records
    }

    fn submit_due(&mut self, ctx: &mut Ctx<'_, M>) {
        while self.next < self.arrivals.len() && self.arrivals[self.next].at <= ctx.now() {
            let arrival = self.arrivals[self.next].clone();
            self.next += 1;
            let root = arrival.plan.root.node;
            let txn = TxnId::new(self.next_seq, root);
            self.next_seq += 1;

            // Ground truth for the auditor: journal keys this plan appends
            // to. (Counters cannot be audited per-writer; journals can.)
            let journal_keys = arrival.plan.journal_keys();

            self.index.insert(txn, self.records.len());
            self.records.push(TxnRecord::submitted(
                txn,
                arrival.plan.kind,
                ctx.now(),
                journal_keys,
            ));
            ctx.send_tagged(
                root,
                M::submit(
                    txn,
                    arrival.plan.kind,
                    arrival.plan.root,
                    ctx.me(),
                    arrival.fail_node,
                ),
                "submit",
            );
        }
        self.schedule_next(ctx);
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_, M>) {
        if let Some(a) = self.arrivals.get(self.next) {
            ctx.schedule(a.at.since(ctx.now()), 0);
        }
    }

    fn record_mut(&mut self, txn: TxnId) -> Option<&mut TxnRecord> {
        self.index.get(&txn).map(|&i| &mut self.records[i])
    }

    /// Remove and return `txn`'s record, O(log n) through the index. The
    /// last record takes the freed slot, so [`records`](Self::records)
    /// loses its submission order once anything is taken; the DES drivers
    /// never take, and the server engine keeps no other record. A
    /// completion that arrives for a taken transaction is dropped, as for
    /// any unknown id.
    pub fn take_record(&mut self, txn: TxnId) -> Option<TxnRecord> {
        let i = self.index.remove(&txn)?;
        let record = self.records.swap_remove(i);
        if let Some(moved) = self.records.get(i) {
            self.index.insert(moved.id, i);
        }
        Some(record)
    }

    /// Register a transaction submitted from *outside* the arrival list —
    /// the network front end injects `Msg::Submit` directly into the
    /// simulation, then calls this so the completion that bounces back to
    /// the client actor lands in a known record instead of being dropped
    /// by [`record_mut`]. The caller owns id assignment; `kind` and
    /// `journal_keys` mirror what [`submit_due`](Self::submit_due) records
    /// for scheduled arrivals.
    pub fn register_external(
        &mut self,
        txn: TxnId,
        kind: threev_model::TxnKind,
        at: SimTime,
        journal_keys: Vec<threev_model::Key>,
    ) {
        self.index.insert(txn, self.records.len());
        self.records
            .push(TxnRecord::submitted(txn, kind, at, journal_keys));
    }
}

impl<M: ProtocolMsg> Actor for ClientActor<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _token: u64) {
        self.submit_due(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, _from: NodeId, msg: M) {
        let Some(event) = msg.client_event() else {
            return;
        };
        let now = ctx.now();
        match event {
            ClientEvent::Done {
                txn,
                version,
                committed,
            } => {
                if let Some(rec) = self.record_mut(txn) {
                    if rec.completed.is_none() {
                        rec.completed = Some(now);
                    }
                    // An abort report always wins: the completion chain and
                    // the compensation path race (see node::tree_complete).
                    if !committed {
                        rec.status = TxnStatus::Aborted;
                    } else if rec.status == TxnStatus::InFlight {
                        rec.status = TxnStatus::Committed;
                    }
                    if rec.version.is_none() {
                        rec.version = version;
                    }
                }
            }
            ClientEvent::Reads { txn, reads } => {
                if let Some(rec) = self.record_mut(txn) {
                    rec.reads.extend(reads);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{Key, SubtxnPlan, TxnKind, UpdateOp};

    /// Minimal message type standing in for an engine.
    #[derive(Debug, Clone)]
    enum FakeMsg {
        Submit {
            txn: TxnId,
            #[allow(dead_code)]
            kind: TxnKind,
        },
        Done {
            txn: TxnId,
        },
    }

    impl ProtocolMsg for FakeMsg {
        fn submit(
            txn: TxnId,
            kind: TxnKind,
            _plan: SubtxnPlan,
            _client: NodeId,
            _fail: Option<NodeId>,
        ) -> Self {
            FakeMsg::Submit { txn, kind }
        }
        fn client_event(self) -> Option<ClientEvent> {
            match self {
                FakeMsg::Done { txn } => Some(ClientEvent::Done {
                    txn,
                    version: None,
                    committed: true,
                }),
                _ => None,
            }
        }
    }

    /// Echo node: acks every submission.
    struct EchoNode;
    impl Actor for EchoNode {
        type Msg = FakeMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, FakeMsg>, from: NodeId, msg: FakeMsg) {
            if let FakeMsg::Submit { txn, .. } = msg {
                ctx.send(from, FakeMsg::Done { txn });
            }
        }
    }

    enum TestActor {
        Node(EchoNode),
        Client(ClientActor<FakeMsg>),
    }
    impl Actor for TestActor {
        type Msg = FakeMsg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, FakeMsg>) {
            if let TestActor::Client(c) = self {
                c.on_start(ctx)
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, FakeMsg>, from: NodeId, msg: FakeMsg) {
            match self {
                TestActor::Node(n) => n.on_message(ctx, from, msg),
                TestActor::Client(c) => c.on_message(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, FakeMsg>, token: u64) {
            if let TestActor::Client(c) = self {
                c.on_timer(ctx, token)
            }
        }
    }

    fn plan(journal: bool) -> TxnPlan {
        let mut p = SubtxnPlan::new(NodeId(0)).update(Key(1), UpdateOp::Add(1));
        if journal {
            p = p.update(Key(2), UpdateOp::Append { amount: 5, tag: 1 });
        }
        TxnPlan::commuting(p)
    }

    #[test]
    fn submits_in_order_and_records_completions() {
        use threev_sim::{SimConfig, SimTime, Simulation};
        let arrivals = vec![
            Arrival::at(SimTime(3_000), plan(false)),
            Arrival::at(SimTime(1_000), plan(true)),
        ];
        let client = ClientActor::<FakeMsg>::new(arrivals);
        let mut sim = Simulation::new(
            vec![TestActor::Node(EchoNode), TestActor::Client(client)],
            SimConfig::seeded(1),
        );
        sim.run_to_quiescence(SimTime::MAX);
        let TestActor::Client(c) = &sim.actors()[1] else {
            unreachable!()
        };
        let records = c.records();
        assert_eq!(records.len(), 2);
        // Sorted by arrival: the journal plan (t=1ms) got seq 0.
        assert_eq!(records[0].id.seq, 0);
        assert_eq!(records[0].journal_keys_written, vec![Key(2)]);
        assert!(records[1].journal_keys_written.is_empty());
        assert!(records.iter().all(|r| r.status == TxnStatus::Committed));
        assert!(records[0].submitted >= SimTime(1_000));
        assert!(records[0].completed.unwrap() > records[0].submitted);
    }

    #[test]
    fn take_record_removes_one_and_keeps_the_index_consistent() {
        let mut c = ClientActor::<FakeMsg>::new(Vec::new());
        let ids: Vec<TxnId> = (0..4).map(|s| TxnId::new(s, NodeId(0))).collect();
        for &id in &ids {
            c.register_external(id, TxnKind::Commuting, SimTime::ZERO, Vec::new());
        }
        assert_eq!(c.take_record(ids[1]).map(|r| r.id), Some(ids[1]));
        assert!(c.take_record(ids[1]).is_none(), "taken twice");
        // The record that moved into the freed slot is still found.
        assert_eq!(c.take_record(ids[3]).map(|r| r.id), Some(ids[3]));
        assert_eq!(c.take_record(ids[0]).map(|r| r.id), Some(ids[0]));
        assert_eq!(c.records().len(), 1);
        assert_eq!(c.records()[0].id, ids[2]);
        assert_eq!(c.take_record(ids[2]).map(|r| r.id), Some(ids[2]));
        assert!(c.records().is_empty());
    }
}
