//! The three hospital workloads and the set-up every run shares.
//!
//! Every workload is the paper's §1 hospital (`threev-workload`'s
//! [`HospitalWorkload`]) spread over 4 partitions × 2 nodes, one
//! department per node, with version advancement every 32 committed
//! updates. They differ in patients (working-set size) and inquiry share
//! (read-path weight); each is replayed open loop at a fixed rate.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use threev_model::{Key, OpStep, Schema, TxnKind, TxnPlan, UpdateOp};
use threev_server::{serve, Engine, ServerConfig, ServerHandle};
use threev_shard::{ShardedConfig, ShardedHospital};
use threev_sim::SimDuration;
use threev_workload::hospital::{balance_key, charges_key};
use threev_workload::HospitalWorkload;

/// Partitions of the served cluster.
pub const PARTITIONS: u16 = 4;
/// Database nodes per partition.
pub const NODES_PER_PARTITION: u16 = 2;
/// Departments: one per database node.
pub const DEPARTMENTS: u16 = PARTITIONS * NODES_PER_PARTITION;
/// Committed updates between automatic advancement rounds.
pub const ADVANCE_EVERY: u64 = 32;
/// Client connections (and sender threads) of the socket phases.
pub const CONNECTIONS: usize = 2;

/// One named traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// Patients per department (keys = 2 × departments × patients).
    pub patients: u64,
    /// Percentage of arrivals that are read-only inquiries.
    pub read_pct: u8,
    /// Fixed open-loop Poisson rate.
    pub rate_tps: f64,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hospital-small",
        patients: 64,
        read_pct: 20,
        rate_tps: 2_000.0,
    },
    Workload {
        name: "hospital-large",
        patients: 20_000,
        read_pct: 20,
        rate_tps: 1_000.0,
    },
    Workload {
        name: "inquiry-heavy",
        patients: 64,
        read_pct: 80,
        rate_tps: 2_000.0,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The sharded hospital for `seed`, with arrivals over `window`.
    pub fn hospital(&self, seed: u64, window: Duration) -> ShardedHospital {
        let base = HospitalWorkload {
            departments: DEPARTMENTS,
            patients: self.patients,
            rate_tps: self.rate_tps,
            read_pct: self.read_pct,
            max_fanout: 3,
            duration: SimDuration::from_micros(window.as_micros() as u64),
            zipf_s: 0.9,
            seed,
        };
        ShardedHospital::new(
            base,
            threev_model::Topology::new(PARTITIONS, NODES_PER_PARTITION),
        )
    }

    /// The cluster configuration every engine of a run uses.
    pub fn cluster_config(seed: u64) -> ShardedConfig {
        ShardedConfig::new(PARTITIONS, NODES_PER_PARTITION).seed(seed)
    }

    /// Every balance counter and charges journal, department-major.
    pub fn all_keys(&self) -> (Vec<Key>, Vec<Key>) {
        let mut balances = Vec::new();
        let mut journals = Vec::new();
        for d in 0..DEPARTMENTS {
            for p in 0..self.patients {
                balances.push(balance_key(d, p));
                journals.push(charges_key(d, p));
            }
        }
        (balances, journals)
    }
}

/// `(offset_us, plan)` arrivals sorted by offset: the open-loop schedule.
pub type Schedule = Vec<(u64, TxnPlan)>;

/// Is `plan` a read-only inquiry?
pub fn is_inquiry(plan: &TxnPlan) -> bool {
    plan.kind == TxnKind::ReadOnly
}

/// One set-up: the schema, the schedule, and a bound server.
pub struct Setup {
    /// The global schema the server serves.
    pub schema: Schema,
    /// The seeded schedule.
    pub schedule: Schedule,
    /// The running server.
    pub server: ServerHandle,
    /// Wall time of the set-up.
    pub elapsed: Duration,
}

impl Setup {
    /// Build schema, engine and schedule and bind a loopback server.
    pub fn new(w: &Workload, seed: u64, window: Duration) -> std::io::Result<Setup> {
        let t0 = Instant::now();
        let hospital = w.hospital(seed, window);
        let schema = hospital.schema();
        let engine = Engine::new(&schema, Workload::cluster_config(seed), ADVANCE_EVERY);
        let schedule = threev_server::load::schedule(&hospital);
        let server = serve(
            engine,
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: CONNECTIONS,
                queue_capacity: 64,
                idle_timeout: Duration::from_secs(60),
                allow_stall: false,
            },
        )?;
        Ok(Setup {
            schema,
            schedule,
            server,
            elapsed: t0.elapsed(),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stop the server and wait for its threads.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.server.request_shutdown();
        self.server.join()
    }
}

/// What a correct store holds after a set of visits committed: the sum of
/// `Add`s per balance counter and the number of `Append`s per journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    /// Balance key → sum of its `Add`s.
    pub sums: BTreeMap<Key, i64>,
    /// Journal key → number of `Append`s.
    pub appends: BTreeMap<Key, u64>,
}

impl Expected {
    /// Account for every update step of `plans`.
    pub fn of<'a>(plans: impl IntoIterator<Item = &'a TxnPlan>) -> Expected {
        let mut e = Expected::default();
        for plan in plans {
            for (_, step) in plan.root.all_steps() {
                if let OpStep::Update(k, op) = step {
                    match op {
                        UpdateOp::Add(d) => *e.sums.entry(*k).or_default() += d,
                        UpdateOp::Append { .. } => *e.appends.entry(*k).or_default() += 1,
                        _ => {}
                    }
                }
            }
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_server::proto::Request;

    /// The schedule as the bytes the server would receive.
    fn wire(w: &Workload, seed: u64) -> Vec<u8> {
        let h = w.hospital(seed, Duration::from_millis(300));
        let mut out = Vec::new();
        for (at, plan) in threev_server::load::schedule(&h) {
            out.extend(at.to_le_bytes());
            let frame = Request::Submit { plan }.encode().expect("frame fits");
            out.extend(frame);
        }
        out
    }

    #[test]
    fn a_seed_gives_a_byte_identical_schedule() {
        for w in WORKLOADS {
            let a = wire(&w, 42);
            assert!(a.len() > 1_000, "{} produced no schedule", w.name);
            assert_eq!(a, wire(&w, 42), "{} is not reproducible", w.name);
            assert_ne!(a, wire(&w, 43), "{} ignores its seed", w.name);
        }
    }

    #[test]
    fn expected_sums_follow_the_plans() {
        let h = WORKLOADS[0].hospital(5, Duration::from_millis(100));
        let schedule = threev_server::load::schedule(&h);
        let e = Expected::of(schedule.iter().map(|(_, p)| p));
        let visits = schedule.iter().filter(|(_, p)| !is_inquiry(p)).count();
        assert!(visits > 0);
        // Every visit charges one balance and appends one journal entry
        // per department it touches.
        let charged: usize = schedule
            .iter()
            .filter(|(_, p)| !is_inquiry(p))
            .map(|(_, p)| p.root.count())
            .sum();
        assert_eq!(e.appends.values().sum::<u64>(), charged as u64);
        assert!(e.sums.len() <= charged && !e.sums.is_empty());
    }
}
