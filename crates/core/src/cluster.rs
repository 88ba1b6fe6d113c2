//! The actor block of a simulated 3V cluster: the dispatch enum every
//! driver hosts, and the one builder that lays a partition's actors out.
//!
//! Actor layout (fixed by [`Topology`](threev_model::Topology)): partition
//! `p`'s database nodes occupy ids from `base(p)`, then come its
//! advancement coordinator and its client (workload driver). With one
//! partition of `n` nodes that is nodes `0..n`, coordinator `n`, client
//! `n + 1`. The drivers — the sharded DES shuttle and the real-thread
//! hosting — live in `threev-shard`.

use threev_model::{NodeId, PartitionId, Schema};
use threev_sim::{Actor, Ctx};

use crate::advance::{Coordinator, CoordinatorConfig};
use crate::client::{Arrival, ClientActor};
use crate::msg::Msg;
use crate::node::{NodeConfig, ThreeVNode};

/// Protocol-level configuration of a 3V cluster.
#[derive(Clone, Debug, Default)]
pub struct ThreeVConfig {
    /// Per-node settings (locks, retries).
    pub node: NodeConfig,
    /// Coordinator settings (advancement policy, polling).
    pub coordinator: CoordinatorConfig,
}

/// One actor of the cluster (dispatch enum).
#[allow(clippy::large_enum_variant)]
pub enum ClusterActor {
    /// A database node.
    Node(ThreeVNode),
    /// The advancement coordinator.
    Coordinator(Coordinator),
    /// The workload driver.
    Client(ClientActor<Msg>),
}

impl Actor for ClusterActor {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        match self {
            ClusterActor::Node(_) => {}
            ClusterActor::Coordinator(c) => c.on_start(ctx),
            ClusterActor::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match self {
            ClusterActor::Node(n) => n.on_message(ctx, from, msg),
            ClusterActor::Coordinator(c) => c.on_message(ctx, from, msg),
            ClusterActor::Client(c) => c.on_message(ctx, from, msg),
        }
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_, Msg>, batch: &mut Vec<(NodeId, Msg)>) {
        // Forward the whole batch so the inner actor's own `on_batch`
        // (not just the per-message default) sees it.
        match self {
            ClusterActor::Node(n) => n.on_batch(ctx, batch),
            ClusterActor::Coordinator(c) => c.on_batch(ctx, batch),
            ClusterActor::Client(c) => c.on_batch(ctx, batch),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        match self {
            ClusterActor::Node(n) => n.on_timer(ctx, token),
            ClusterActor::Coordinator(c) => c.on_timer(ctx, token),
            ClusterActor::Client(c) => c.on_timer(ctx, token),
        }
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Only database nodes have crash-injectable state; coordinator and
        // client crashes are out of scope for this reproduction.
        if let ClusterActor::Node(n) = self {
            n.on_crash(ctx);
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if let ClusterActor::Node(n) = self {
            n.on_restart(ctx);
        }
    }
}

/// Build the actor block of partition `p`, in the global id layout fixed
/// by `cfg.node.topology`: the partition's database nodes, then its
/// advancement coordinator (restricted to exactly those nodes), then its
/// client driving `arrivals`. The caller hosts the block at the topology's
/// base offset (e.g. via `Simulation::new_partition`), so actor `i` of the
/// returned vector is global actor `base(p) + i`.
///
/// `schema` is the *global* schema: every node picks out the keys homed on
/// its own global id, so all partitions share one schema value.
///
/// # Panics
/// Panics when `p` is outside the topology or the schema homes a key on
/// an id that is not a database node of it — static configuration bugs.
pub fn build_partition_actors(
    schema: &Schema,
    cfg: &ThreeVConfig,
    arrivals: Vec<Arrival>,
    p: PartitionId,
) -> Vec<ClusterActor> {
    let topo = cfg.node.topology;
    assert!(
        p.0 < topo.n_partitions(),
        "partition {p} outside topology with {} partitions",
        topo.n_partitions()
    );
    let stray = schema
        .decls()
        .iter()
        .map(|d| d.node)
        .find(|&n| !topo.is_db_node(n));
    assert!(
        stray.is_none(),
        "schema names node {} but cluster has {} partitions of {} nodes",
        stray.map_or(0, |n| n.0),
        topo.n_partitions(),
        topo.nodes_per_partition()
    );
    let nodes = topo.nodes(p);
    let mut actors: Vec<ClusterActor> = nodes
        .iter()
        .map(|id| ClusterActor::Node(ThreeVNode::new(schema, *id, cfg.node.clone())))
        .collect();
    actors.push(ClusterActor::Coordinator(Coordinator::for_nodes(
        nodes,
        cfg.coordinator.clone(),
    )));
    actors.push(ClusterActor::Client(ClientActor::new(arrivals)));
    actors
}
