//! Read staleness.
//!
//! A read serves version `v`; version `v` stopped accumulating updates the
//! moment the advancement coordinator opened version `v + 1` (Phase 1). The
//! *staleness* of the read is the time elapsed since that moment — exactly
//! the "how far behind queries get" knob the paper discusses (§7, comparison
//! with ref \[17\]; §1 "reads … always behind by up to a month").
//!
//! The coordinator publishes a [`VersionTimeline`]; combined with the read
//! records it yields the staleness distribution of experiment X3.

use std::collections::BTreeMap;

use threev_model::VersionNo;
use threev_sim::{SimDuration, SimTime};

use crate::hist::Histogram;
use crate::records::{TxnRecord, TxnStatus};
use threev_model::TxnKind;

/// When each version opened, closed, and became readable.
#[derive(Clone, Debug, Default)]
pub struct VersionTimeline {
    /// Version -> time it stopped accumulating updates (Phase 1 start of the
    /// advancement that opened its successor). Version 0 closes at time 0:
    /// updates never target the initial read version.
    closed_at: BTreeMap<VersionNo, SimTime>,
    /// Version -> time it became the read version (Phase 3 broadcast).
    published_at: BTreeMap<VersionNo, SimTime>,
}

impl VersionTimeline {
    /// New timeline; version 0 is closed at time zero by construction.
    pub fn new() -> Self {
        let mut t = VersionTimeline::default();
        t.closed_at.insert(VersionNo::ZERO, SimTime::ZERO);
        t
    }

    /// Record that `v` stopped accumulating updates at `at`.
    pub fn record_closed(&mut self, v: VersionNo, at: SimTime) {
        self.closed_at.entry(v).or_insert(at);
    }

    /// Record that `v` became the read version at `at`.
    pub fn record_published(&mut self, v: VersionNo, at: SimTime) {
        self.published_at.entry(v).or_insert(at);
    }

    /// Entries held: close instants plus publish instants.
    pub fn len(&self) -> usize {
        self.closed_at.len() + self.published_at.len()
    }

    /// Does the timeline hold no entry?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// When `v` closed, if known.
    pub fn closed_at(&self, v: VersionNo) -> Option<SimTime> {
        self.closed_at.get(&v).copied()
    }

    /// When `v` was published, if known.
    pub fn published_at(&self, v: VersionNo) -> Option<SimTime> {
        self.published_at.get(&v).copied()
    }

    /// Staleness of a read completing at `at` against version `v`, if the
    /// close time of `v` is known.
    pub fn staleness(&self, v: VersionNo, at: SimTime) -> Option<SimDuration> {
        self.closed_at(v).map(|c| at.since(c))
    }

    /// Staleness histogram (µs) over all committed read-only records that
    /// carry a version.
    pub fn staleness_histogram(&self, records: &[TxnRecord]) -> Histogram {
        let mut h = Histogram::new();
        for r in records {
            if r.kind != TxnKind::ReadOnly || r.status != TxnStatus::Committed {
                continue;
            }
            if let (Some(v), Some(done)) = (r.version, r.completed) {
                if let Some(s) = self.staleness(v, done) {
                    h.record(s.as_micros());
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{NodeId, TxnId};

    #[test]
    fn version_zero_closed_at_start() {
        let t = VersionTimeline::new();
        assert_eq!(t.closed_at(VersionNo(0)), Some(SimTime::ZERO));
        assert_eq!(
            t.staleness(VersionNo(0), SimTime(500)),
            Some(SimDuration(500))
        );
        assert_eq!(t.staleness(VersionNo(1), SimTime(500)), None);
    }

    #[test]
    fn close_and_publish_are_first_write_wins() {
        let mut t = VersionTimeline::new();
        t.record_closed(VersionNo(1), SimTime(100));
        t.record_closed(VersionNo(1), SimTime(999));
        assert_eq!(t.closed_at(VersionNo(1)), Some(SimTime(100)));
        t.record_published(VersionNo(1), SimTime(200));
        assert_eq!(t.published_at(VersionNo(1)), Some(SimTime(200)));
    }

    #[test]
    fn histogram_over_reads() {
        let mut t = VersionTimeline::new();
        t.record_closed(VersionNo(1), SimTime(1_000));

        let mk = |seq, v: u32, done: u64| {
            let mut r = TxnRecord::submitted(
                TxnId::new(seq, NodeId(0)),
                TxnKind::ReadOnly,
                SimTime(0),
                vec![],
            );
            r.status = TxnStatus::Committed;
            r.completed = Some(SimTime(done));
            r.version = Some(VersionNo(v));
            r
        };
        let records = vec![mk(1, 0, 700), mk(2, 1, 1_500), mk(3, 1, 3_000)];
        let h = t.staleness_histogram(&records);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 2_000); // read 3: 3000 - 1000
        assert_eq!(h.min(), 500); // read 2: 1500 - 1000
    }
}
