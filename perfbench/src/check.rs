//! Correctness checks run on every benchmark run.
//!
//! * **Read-back.** After a final advancement, every balance counter must
//!   equal the sum of the `Add`s that committed against it and every
//!   charges journal must hold exactly one entry per `Append`.
//! * **Engine invariants.** An in-process replay of the same commands
//!   must keep at most three live versions of any item (the 3V bound) and
//!   record no invariant breach and no malformed subtransaction.

use threev_model::{Key, NodeId, Value};
use threev_server::proto::ReadResult;
use threev_shard::ShardedCluster;

use crate::work::{Expected, Workload};

/// Keys per read request during read-back (keeps journal replies well
/// under the frame limit).
const READ_CHUNK: usize = 128;

/// Result of one read-back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadBack {
    /// Keys read and compared.
    pub checked: u64,
    /// Keys whose value disagreed with the expectation (or were missing).
    pub wrong: u64,
    /// Read requests that failed outright.
    pub errors: u64,
    /// The first disagreement, for the log.
    pub first_wrong: Option<String>,
}

impl ReadBack {
    /// Did every key read back as expected?
    pub fn ok(&self) -> bool {
        self.wrong == 0 && self.errors == 0
    }

    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.first_wrong.is_none() {
            self.first_wrong = Some(what);
        }
    }
}

/// Read every balance counter and journal of `w` through `read` and
/// compare against `expected`.
pub fn read_back<E: std::fmt::Display>(
    w: &Workload,
    expected: &Expected,
    mut read: impl FnMut(&[Key]) -> Result<Vec<ReadResult>, E>,
) -> ReadBack {
    let (balances, journals) = w.all_keys();
    let mut out = ReadBack::default();
    for keys in balances
        .chunks(READ_CHUNK)
        .chain(journals.chunks(READ_CHUNK))
    {
        let results = match read(keys) {
            Ok(r) => r,
            Err(e) => {
                out.errors += 1;
                out.wrong(format!("read of {} keys failed: {e}", keys.len()));
                continue;
            }
        };
        for &k in keys {
            out.checked += 1;
            let Some(r) = results.iter().find(|r| r.key == k) else {
                out.wrong(format!("{k:?} missing from the reply"));
                continue;
            };
            match &r.value {
                Value::Counter(v) => {
                    let want = expected.sums.get(&k).copied().unwrap_or(0);
                    if *v != want {
                        out.wrong(format!("{k:?} = {v}, expected {want}"));
                    }
                }
                Value::Journal(entries) => {
                    let want = expected.appends.get(&k).copied().unwrap_or(0);
                    if entries.len() as u64 != want {
                        out.wrong(format!(
                            "{k:?} holds {} entries, expected {want}",
                            entries.len()
                        ));
                    }
                }
                other => out.wrong(format!("{k:?} has unexpected value {other:?}")),
            }
        }
    }
    out
}

/// Engine-internal invariants of a cluster after a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Invariants {
    /// Highest live-version count of any item (3V bound: ≤ 3).
    pub max_versions: u32,
    /// Σ `NodeStats::invariant_breaches`.
    pub invariant_breaches: u64,
    /// Σ `NodeStats::malformed_rejected`.
    pub malformed_rejected: u64,
}

impl Invariants {
    /// Read the invariants off every node of `cluster`.
    pub fn of(cluster: &ShardedCluster) -> Invariants {
        let ids: Vec<NodeId> = cluster.node_ids();
        Invariants {
            max_versions: cluster.max_versions_high_water(),
            invariant_breaches: ids
                .iter()
                .map(|&id| cluster.node(id).stats().invariant_breaches)
                .sum(),
            malformed_rejected: ids
                .iter()
                .map(|&id| cluster.node(id).stats().malformed_rejected)
                .sum(),
        }
    }

    /// Do they hold?
    pub fn ok(&self) -> bool {
        self.max_versions <= 3 && self.invariant_breaches == 0 && self.malformed_rejected == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{JournalEntry, TxnId};
    use threev_workload::hospital::{balance_key, charges_key};

    const TINY: Workload = Workload {
        name: "tiny",
        patients: 2,
        read_pct: 0,
        rate_tps: 1.0,
    };

    /// A reader over an in-memory map of the "store".
    fn reader(
        store: &std::collections::BTreeMap<Key, Value>,
    ) -> impl FnMut(&[Key]) -> Result<Vec<ReadResult>, String> + '_ {
        |keys| {
            Ok(keys
                .iter()
                .map(|&k| ReadResult {
                    key: k,
                    version: None,
                    value: store.get(&k).cloned().unwrap_or(Value::Counter(0)),
                })
                .collect())
        }
    }

    fn correct_store(expected: &Expected) -> std::collections::BTreeMap<Key, Value> {
        let (balances, journals) = TINY.all_keys();
        let mut store = std::collections::BTreeMap::new();
        for k in balances {
            store.insert(
                k,
                Value::Counter(expected.sums.get(&k).copied().unwrap_or(0)),
            );
        }
        for k in journals {
            let n = expected.appends.get(&k).copied().unwrap_or(0);
            let entry = JournalEntry {
                txn: TxnId::new(0, NodeId(0)),
                amount: 1,
                tag: 1,
            };
            store.insert(k, Value::Journal(vec![entry; n as usize]));
        }
        store
    }

    fn expected() -> Expected {
        let mut e = Expected::default();
        e.sums.insert(balance_key(1, 0), 700);
        e.sums.insert(balance_key(5, 1), 42);
        e.appends.insert(charges_key(1, 0), 2);
        e.appends.insert(charges_key(5, 1), 1);
        e
    }

    #[test]
    fn a_correct_store_passes() {
        let e = expected();
        let store = correct_store(&e);
        let rb = read_back(&TINY, &e, reader(&store));
        assert!(rb.ok(), "{rb:?}");
        assert_eq!(rb.checked, 2 * 8 * 2);
    }

    #[test]
    fn a_planted_wrong_counter_fails_the_check() {
        let e = expected();
        let mut store = correct_store(&e);
        store.insert(balance_key(5, 1), Value::Counter(41));
        let rb = read_back(&TINY, &e, reader(&store));
        assert!(!rb.ok());
        assert_eq!(rb.wrong, 1);
        assert!(rb.first_wrong.unwrap().contains("expected 42"));
    }

    #[test]
    fn a_short_journal_or_failed_read_fails_the_check() {
        let e = expected();
        let mut store = correct_store(&e);
        store.insert(charges_key(1, 0), Value::Journal(Vec::new()));
        assert_eq!(read_back(&TINY, &e, reader(&store)).wrong, 1);
        let failing = |_: &[Key]| -> Result<Vec<ReadResult>, String> { Err("down".into()) };
        let rb = read_back(&TINY, &e, failing);
        assert!(!rb.ok());
        assert!(rb.errors > 0);
    }
}
