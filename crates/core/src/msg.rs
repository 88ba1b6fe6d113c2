//! The 3V wire protocol.
//!
//! Every message is asynchronous: user-transaction handling never blocks on
//! a reply (Theorem 4.2). The only request/response exchanges are between
//! the advancement coordinator and nodes (acks and counter polls), and the
//! NC3V two-phase commit — both of which, per the paper, either do not touch
//! user transactions at all or only the non-well-behaved ones.

use threev_analysis::ReadObservation;
use threev_model::{NodeId, SubtxnId, SubtxnPlan, TxnId, TxnKind, VersionNo};

use crate::counters::CounterSnapshot;

/// Messages exchanged in a 3V cluster (nodes, coordinator, client).
#[derive(Clone, Debug)]
pub enum Msg {
    // ------------------------------------------------------------- client
    /// Client submits a root transaction to its root node.
    Submit {
        /// Transaction id (assigned by the client).
        txn: TxnId,
        /// Kind, which selects the execution path.
        kind: TxnKind,
        /// Root subtransaction plan.
        plan: SubtxnPlan,
        /// Actor to report results to.
        client: NodeId,
        /// Fault injection: subtransactions landing on this node abort and
        /// trigger compensation (experiment X10).
        fail_node: Option<NodeId>,
    },
    /// Node → client: transaction finished.
    TxnDone {
        /// Transaction id.
        txn: TxnId,
        /// Version the transaction executed in.
        version: VersionNo,
        /// Committed (`true`) or aborted/compensated (`false`).
        committed: bool,
    },
    /// Node → client: reads collected by one subtransaction.
    ReadResults {
        /// Transaction id.
        txn: TxnId,
        /// Observations, in step order.
        reads: Vec<ReadObservation>,
    },

    // ---------------------------------------------------- subtransactions
    /// Parent node ships a child subtransaction to its node (§4.1 step 5).
    Subtxn {
        /// Transaction id.
        txn: TxnId,
        /// Kind inherited from the root.
        kind: TxnKind,
        /// The transaction version `V(T)`, carried by every descendant.
        version: VersionNo,
        /// The child's plan subtree.
        plan: SubtxnPlan,
        /// Parent subtransaction (for the completion-notice tree).
        parent_sub: SubtxnId,
        /// Client to report reads to.
        client: NodeId,
        /// Fault injection marker (propagated from `Submit`).
        fail_node: Option<NodeId>,
    },
    /// Child node → parent node: the child's whole subtree terminated.
    /// Pure user-level bookkeeping — no subtransaction ever waits on it.
    SubtreeDone {
        /// Transaction id.
        txn: TxnId,
        /// The parent subtransaction being notified.
        parent_sub: SubtxnId,
        /// Nodes that executed any part of the subtree (for NC3V 2PC and
        /// lock clean-up fan-out).
        participants: Vec<NodeId>,
        /// Whether any subtransaction in the subtree aborted.
        clean: bool,
    },
    /// Compensating subtransaction (§3.2): undo transaction `txn`'s local
    /// effects and propagate to its other neighbours. Counted in `R`/`C`
    /// exactly like an ordinary subtransaction — except across a partition
    /// boundary, where the hop is uncounted (sender and receiver live in
    /// different version spaces) and the receiver's gauge pin keeps its
    /// footprint alive instead.
    Compensate {
        /// Transaction to compensate.
        txn: TxnId,
        /// The version the transaction executed in *at the sender*. A
        /// receiver in another partition ignores it and compensates at its
        /// own footprint's version.
        version: VersionNo,
    },
    /// Root node → every participant of a cross-partition tree, on clean
    /// commit only: the transaction resolved, release any gauge pins held
    /// for it. Fire-and-forget and uncounted (it rides the reliable data
    /// plane); on abort no resolve is sent — the compensation flood is the
    /// release signal, which keeps the two from racing.
    XpResolve {
        /// The resolved transaction.
        txn: TxnId,
    },

    // ------------------------------------------------- version advancement
    /// Phase 1: coordinator → nodes, switch to the new update version.
    StartAdvancement {
        /// The new update version `vu_new = vu_old + 1`.
        vu_new: VersionNo,
    },
    /// Phase 1 ack.
    AdvanceAck {
        /// Echoed version.
        vu_new: VersionNo,
    },
    /// Phases 2/4: coordinator polls one version's counters.
    ReadCounters {
        /// Poll round (monotone per advancement).
        round: u64,
        /// Version being drained.
        version: VersionNo,
    },
    /// A node's atomic counter snapshot.
    CountersReport {
        /// Echoed round.
        round: u64,
        /// Echoed version being drained. Rounds restart at zero for each
        /// polling phase, so under duplication/retransmit the coordinator
        /// needs the version to reject a stale phase-2 report arriving
        /// during phase 4 (and vice versa).
        version: VersionNo,
        /// The snapshot.
        snapshot: CounterSnapshot,
    },
    /// Phase 3: coordinator → nodes, publish the new read version.
    AdvanceRead {
        /// The new read version `vr_new = vr_old + 1`.
        vr_new: VersionNo,
    },
    /// Phase 3 ack.
    AdvanceReadAck {
        /// Echoed version.
        vr_new: VersionNo,
    },
    /// Phase 4 finale: garbage-collect versions `< vr_new`.
    Gc {
        /// The surviving read version.
        vr_new: VersionNo,
    },
    /// Node → coordinator: garbage collection done. The coordinator waits
    /// for all acks before the advancement ends — otherwise a prompt next
    /// advancement could open a fourth version while a GC notice is still
    /// in flight, breaking the ≤3-copies bound.
    GcAck {
        /// Echoed read version.
        vr_new: VersionNo,
    },
    /// Driver → coordinator: run one advancement now (manual policy).
    TriggerAdvancement,

    // ------------------------------------------------------------- NC3V
    /// 2PC prepare from the NC transaction's root node.
    NcPrepare {
        /// Transaction id.
        txn: TxnId,
    },
    /// Participant vote.
    NcVote {
        /// Transaction id.
        txn: TxnId,
        /// Voting node.
        node: NodeId,
        /// `true` = prepared to commit.
        yes: bool,
    },
    /// Coordinator decision broadcast.
    NcDecision {
        /// Transaction id.
        txn: TxnId,
        /// `true` = commit, `false` = roll back.
        commit: bool,
    },
    /// Asynchronous clean-up of commute locks after a well-behaved
    /// transaction tree completes (§5: "a special clean-up phase … release
    /// all commute locks … asynchronous with respect to well-behaved
    /// transactions").
    ReleaseLocks {
        /// Transaction whose locks are released.
        txn: TxnId,
    },
}

/// Client-observable protocol events, extracted by the shared client actor.
#[derive(Clone, Debug)]
pub enum ClientEvent {
    /// Transaction finished.
    Done {
        /// Transaction id.
        txn: TxnId,
        /// Version it executed in, if the engine versions data.
        version: Option<VersionNo>,
        /// Commit (`true`) or abort (`false`).
        committed: bool,
    },
    /// Read observations arrived.
    Reads {
        /// Transaction id.
        txn: TxnId,
        /// The observations.
        reads: Vec<ReadObservation>,
    },
}

/// Implemented by each engine's message type so the one client actor in
/// [`crate::client`] can drive any engine (3V or the baselines).
///
/// `Clone` is part of the wire contract: the transport's fault plane may
/// deliver any message twice, so every protocol message must be
/// duplicable.
pub trait ProtocolMsg: Sized + Clone {
    /// Build the submission message for a transaction.
    fn submit(
        txn: TxnId,
        kind: TxnKind,
        plan: SubtxnPlan,
        client: NodeId,
        fail_node: Option<NodeId>,
    ) -> Self;

    /// Interpret an incoming message as a client event, if it is one.
    fn client_event(self) -> Option<ClientEvent>;
}

impl ProtocolMsg for Msg {
    fn submit(
        txn: TxnId,
        kind: TxnKind,
        plan: SubtxnPlan,
        client: NodeId,
        fail_node: Option<NodeId>,
    ) -> Self {
        Msg::Submit {
            txn,
            kind,
            plan,
            client,
            fail_node,
        }
    }

    fn client_event(self) -> Option<ClientEvent> {
        match self {
            Msg::TxnDone {
                txn,
                version,
                committed,
            } => Some(ClientEvent::Done {
                txn,
                version: Some(version),
                committed,
            }),
            Msg::ReadResults { txn, reads } => Some(ClientEvent::Reads { txn, reads }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::Key;

    #[test]
    fn submit_round_trip() {
        let txn = TxnId::new(1, NodeId(0));
        let plan = SubtxnPlan::new(NodeId(0)).read(Key(1));
        let m = Msg::submit(txn, TxnKind::ReadOnly, plan, NodeId(9), None);
        assert!(matches!(m, Msg::Submit { .. }));
        assert!(m.client_event().is_none());
    }

    #[test]
    fn client_events_extracted() {
        let txn = TxnId::new(1, NodeId(0));
        let done = Msg::TxnDone {
            txn,
            version: VersionNo(2),
            committed: true,
        };
        match done.client_event() {
            Some(ClientEvent::Done {
                version: Some(v),
                committed: true,
                ..
            }) => assert_eq!(v, VersionNo(2)),
            other => panic!("unexpected: {other:?}"),
        }
        let reads = Msg::ReadResults { txn, reads: vec![] };
        assert!(matches!(
            reads.client_event(),
            Some(ClientEvent::Reads { .. })
        ));
        assert!(Msg::TriggerAdvancement.client_event().is_none());
    }
}
