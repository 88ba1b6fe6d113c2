//! Partition topology for sharded clusters.
//!
//! The paper's counter scheme (§2.2) is per *node pair*; scaled out, a
//! partition tracking every node in the cluster would make advancement
//! cost grow with cluster size. Instead (following the partial-replication
//! idea of Sutra & Shapiro), cross-partition traffic is accounted **per
//! peer partition**: a pair of sender-local gauge rows keyed by a reserved
//! [`NodeId`] stands in for the remote partition, so a partition's
//! advancement only ever waits on peers it actually exchanged
//! subtransactions with — the communication graph, not the cluster.
//!
//! [`Topology`] fixes the global actor-id layout of a sharded run: each
//! partition owns a contiguous id block of `nodes_per_partition + 2`
//! actors — its database nodes, then its advancement coordinator, then its
//! client. [`Topology::single`] is the degenerate one-partition layout of a
//! standalone node: every id maps to partition 0, exactly as under
//! `Topology::new(1, n)`.

use std::fmt;

use crate::ids::NodeId;

/// Identifier of one partition of a sharded cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u16);

impl PartitionId {
    /// Index into dense per-partition arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// First [`NodeId`] of the reserved *gauge* range: `GAUGE_BASE + p` stands
/// for peer partition `p` in a node's counter tables. Gauge ids are pure
/// accounting keys — no actor ever has one, and the transport never routes
/// to one. Keeping them inside the ordinary `NodeId` space lets the
/// cross-partition rows ride the existing counter snapshots, WAL records,
/// and checkpoints without a second counter representation.
pub const GAUGE_BASE: u16 = 0xFF00;

/// The gauge [`NodeId`] standing for peer partition `p` in counter tables.
#[inline]
pub fn gauge_node(p: PartitionId) -> NodeId {
    NodeId(GAUGE_BASE + p.0)
}

/// If `n` is a gauge id, the peer partition it stands for.
#[inline]
pub fn gauge_peer(n: NodeId) -> Option<PartitionId> {
    (n.0 >= GAUGE_BASE).then(|| PartitionId(n.0 - GAUGE_BASE))
}

/// The global actor-id layout of a sharded cluster.
///
/// Partition `p` owns ids `[p·stride, (p+1)·stride)` where
/// `stride = nodes_per_partition + 2`: first its database nodes, then its
/// coordinator, then its client. All layout questions — which partition an
/// id belongs to, whether two ids are partition-local to each other —
/// answer from this one struct, so every layer agrees on the mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Topology {
    n_partitions: u16,
    nodes_per_partition: u16,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

impl Topology {
    /// The degenerate one-partition topology: every id is partition 0 and
    /// every pair of ids is partition-local, exactly as under
    /// `Topology::new(1, n)`, without naming `n`. The default topology of a
    /// node built outside a cluster.
    pub fn single() -> Self {
        Topology {
            n_partitions: 1,
            nodes_per_partition: 0,
        }
    }

    /// Layout for `n_partitions` partitions of `nodes_per_partition`
    /// database nodes each.
    pub fn new(n_partitions: u16, nodes_per_partition: u16) -> Self {
        assert!(n_partitions >= 1, "at least one partition");
        assert!(nodes_per_partition >= 1, "at least one node per partition");
        let stride = nodes_per_partition as u32 + 2;
        assert!(
            n_partitions as u32 * stride <= GAUGE_BASE as u32,
            "id space exhausted: {n_partitions} partitions x stride {stride} \
             collides with the gauge range at {GAUGE_BASE:#x}"
        );
        Topology {
            n_partitions,
            nodes_per_partition,
        }
    }

    /// Number of partitions.
    #[inline]
    pub fn n_partitions(&self) -> u16 {
        self.n_partitions
    }

    /// Database nodes per partition (0 for the degenerate single layout,
    /// which never consults it).
    #[inline]
    pub fn nodes_per_partition(&self) -> u16 {
        self.nodes_per_partition
    }

    /// Actor ids per partition block (nodes + coordinator + client).
    #[inline]
    pub fn stride(&self) -> u16 {
        self.nodes_per_partition + 2
    }

    /// Is this the degenerate single-partition layout?
    #[inline]
    pub fn is_single(&self) -> bool {
        self.n_partitions == 1
    }

    /// Partition owning actor id `n`.
    #[inline]
    pub fn partition_of(&self, n: NodeId) -> PartitionId {
        if self.is_single() {
            return PartitionId(0);
        }
        debug_assert!(n.0 < GAUGE_BASE, "gauge ids have no partition");
        PartitionId(n.0 / self.stride())
    }

    /// Are `a` and `b` hosted by the same partition?
    #[inline]
    pub fn same_partition(&self, a: NodeId, b: NodeId) -> bool {
        self.is_single() || self.partition_of(a) == self.partition_of(b)
    }

    /// First actor id of partition `p`'s block.
    #[inline]
    pub fn base(&self, p: PartitionId) -> NodeId {
        NodeId(p.0 * self.stride())
    }

    /// The database-node ids of partition `p`.
    pub fn nodes(&self, p: PartitionId) -> Vec<NodeId> {
        let base = self.base(p).0;
        (base..base + self.nodes_per_partition)
            .map(NodeId)
            .collect()
    }

    /// Partition `p`'s advancement coordinator id.
    #[inline]
    pub fn coordinator(&self, p: PartitionId) -> NodeId {
        NodeId(self.base(p).0 + self.nodes_per_partition)
    }

    /// Partition `p`'s client id.
    #[inline]
    pub fn client(&self, p: PartitionId) -> NodeId {
        NodeId(self.base(p).0 + self.nodes_per_partition + 1)
    }

    /// Is `n` a database node of this layout (not a coordinator, client,
    /// gauge, or out-of-range id)?
    pub fn is_db_node(&self, n: NodeId) -> bool {
        if gauge_peer(n).is_some() {
            return false;
        }
        let p = PartitionId(n.0 / self.stride());
        p.0 < self.n_partitions && n.0 - self.base(p).0 < self.nodes_per_partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_topology_is_all_partition_zero() {
        let t = Topology::single();
        assert!(t.is_single());
        assert_eq!(t.partition_of(NodeId(0)), PartitionId(0));
        assert_eq!(t.partition_of(NodeId(9_999)), PartitionId(0));
        assert!(t.same_partition(NodeId(3), NodeId(7_000)));
        assert_eq!(Topology::default(), t);
    }

    #[test]
    fn block_layout() {
        let t = Topology::new(4, 3);
        assert_eq!(t.stride(), 5);
        assert_eq!(t.base(PartitionId(2)), NodeId(10));
        assert_eq!(
            t.nodes(PartitionId(2)),
            vec![NodeId(10), NodeId(11), NodeId(12)]
        );
        assert_eq!(t.coordinator(PartitionId(2)), NodeId(13));
        assert_eq!(t.client(PartitionId(2)), NodeId(14));
        assert_eq!(t.partition_of(NodeId(14)), PartitionId(2));
        assert_eq!(t.partition_of(NodeId(4)), PartitionId(0));
        assert!(t.same_partition(NodeId(10), NodeId(14)));
        assert!(!t.same_partition(NodeId(9), NodeId(10)));
        assert!(t.is_db_node(NodeId(12)));
        assert!(!t.is_db_node(NodeId(13)), "coordinator");
        assert!(!t.is_db_node(NodeId(14)), "client");
        assert!(!t.is_db_node(NodeId(20)), "past the last partition");
        assert!(!t.is_db_node(gauge_node(PartitionId(1))));
    }

    #[test]
    fn gauge_ids_round_trip_and_stay_clear_of_real_ids() {
        let p = PartitionId(7);
        let g = gauge_node(p);
        assert_eq!(gauge_peer(g), Some(p));
        assert_eq!(gauge_peer(NodeId(500)), None);
        // The largest permitted layout still clears the gauge range.
        let t = Topology::new(256, 8);
        let last = t.client(PartitionId(255));
        assert!(last.0 < GAUGE_BASE);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PartitionId(3).to_string(), "P3");
        assert_eq!(format!("{:?}", PartitionId(3)), "P3");
    }
}
