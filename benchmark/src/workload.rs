//! The four workloads: what each deploys, the scripts its clients run, and
//! the data set behind them. README.md records why each was chosen.

use parking_lot::Mutex;
use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment, SmrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb::smr::SmrLeaseOptions;
use shadowdb::DbClientStats;
use shadowdb_loe::Loc;
use shadowdb_runtime::Runtime;
use shadowdb_sqldb::Database;
use shadowdb_tob::TobDeployment;
use shadowdb_wal::Disk;
use shadowdb_workloads::tpcc::{self, TpccGen, TpccScale, TpccTxn};
use shadowdb_workloads::{bank, KvGen, KvOptions, TxnRequest};
use std::sync::Arc;
use std::time::Instant;

/// The run length `BENCHMARK.json` declares. Script lengths below are the
/// fixed work of one run at this length; `--seconds s` scales the measured
/// part by `s / RUN_SECONDS` (warm-up stays as it is).
pub const RUN_SECONDS: u64 = 20;

/// Initial balance of every bank account (`bank::load`).
pub const INITIAL_BALANCE: i64 = 1_000;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// State-machine replication: every replica executes every ordered
    /// transaction.
    Smr,
    /// Primary-backup: two active replicas plus a spare.
    Pbr,
}

#[derive(Clone, Copy, Debug)]
pub enum Data {
    /// `BankTransfer`s over uniformly chosen accounts.
    BankTransfers { rows: usize },
    /// Zipfian point reads and deposits over the accounts table.
    Kv(KvOptions),
    /// The TPC-C mix on one warehouse.
    Tpcc(TpccScale),
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub mode: Mode,
    pub clients: usize,
    /// Set-up transactions at the head of every client's script.
    pub warmup: usize,
    /// Measured transactions per client at [`RUN_SECONDS`].
    pub measured: usize,
    pub data: Data,
    /// Per-replica WAL on real files, `DurabilityOptions::default()`.
    pub wal: bool,
    /// SMR read leases, `SmrLeaseOptions::default()`.
    pub leases: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "smr_bank",
        mode: Mode::Smr,
        clients: 8,
        warmup: 500,
        measured: 2_600,
        data: Data::BankTransfers { rows: 100_000 },
        wal: false,
        leases: false,
    },
    Spec {
        name: "pbr_bank_wal",
        mode: Mode::Pbr,
        clients: 8,
        warmup: 500,
        measured: 3_800,
        data: Data::BankTransfers { rows: 10_000 },
        wal: true,
        leases: false,
    },
    Spec {
        name: "smr_kv_read95",
        mode: Mode::Smr,
        clients: 8,
        warmup: 2_500,
        measured: 56_000,
        data: Data::Kv(KvOptions {
            rows: 100_000,
            read_fraction: 0.95,
            theta: 0.99,
        }),
        wal: false,
        leases: true,
    },
    Spec {
        name: "pbr_tpcc",
        mode: Mode::Pbr,
        clients: 4,
        warmup: 500,
        measured: 5_900,
        data: Data::Tpcc(TpccScale {
            districts: 10,
            customers_per_district: 300,
            items: 10_000,
            orders_per_district: 300,
        }),
        wal: false,
        leases: false,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Script length per client for a run of `seconds`.
    pub fn script_len(&self, seconds: u64) -> usize {
        let scaled = (self.measured as u64 * seconds).div_ceil(RUN_SECONDS) as usize;
        self.warmup + scaled.max(1)
    }

    /// Replicas that execute transactions (PBR's spare stays idle).
    pub fn active_replicas(&self) -> usize {
        match self.mode {
            Mode::Smr => 3,
            Mode::Pbr => 2,
        }
    }

    pub fn is_bank(&self) -> bool {
        !matches!(self.data, Data::Tpcc(_))
    }
}

/// SplitMix64: derives independent generator seeds from `--seed`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Client `client`'s script: a pure function of `(seed, client, len)`.
pub fn script(spec: &Spec, seed: u64, client: usize, len: usize) -> Vec<TxnRequest> {
    let s = mix(seed ^ mix(client as u64 + 1));
    match spec.data {
        Data::BankTransfers { rows } => {
            let mut g = bank::BankGen::new(s, rows);
            (0..len).map(|_| g.next_transfer()).collect()
        }
        Data::Kv(opts) => KvGen::new(s, opts).script(len),
        Data::Tpcc(scale) => {
            let mut g = TpccGen::new(s, scale, client as u64 + 1);
            (0..len).map(|_| TxnRequest::Tpcc(g.next_txn())).collect()
        }
    }
}

/// Every client's script, and the seconds generating them took.
pub fn scripts(spec: &Spec, seed: u64, len: usize) -> (Vec<Vec<TxnRequest>>, f64) {
    let t0 = Instant::now();
    let all = (0..spec.clients)
        .map(|c| script(spec, seed, c, len))
        .collect();
    (all, t0.elapsed().as_secs_f64())
}

/// Loads the workload's schema and initial rows into one database.
pub fn load(spec: &Spec, seed: u64, db: &Database) {
    match spec.data {
        Data::BankTransfers { rows } => bank::load(db, rows).expect("bank loads"),
        Data::Kv(opts) => bank::load(db, opts.rows).expect("kv loads"),
        Data::Tpcc(scale) => tpcc::load(db, &scale, mix(seed)).expect("tpcc loads"),
    }
}

/// TPC-C rolls back the NewOrders whose last line names item 0 (1 % by
/// specification); every other abort is a failure.
pub fn aborts_by_design(txn: &TxnRequest) -> bool {
    matches!(txn, TxnRequest::Tpcc(TpccTxn::NewOrder { lines, .. })
        if lines.last().is_some_and(|l| l.item == 0))
}

/// What a deployment exposes to the driver, in one shape for both modes.
pub struct Deployed {
    pub clients: Vec<Loc>,
    /// Every database replica location (PBR: the spare last).
    pub replicas: Vec<Loc>,
    pub tob: TobDeployment,
    pub stats: Vec<Arc<Mutex<DbClientStats>>>,
    pub disks: Vec<Disk>,
    /// Handles to every replica's database, in `replicas` order, kept by
    /// the loader so outputs are checked from outside.
    pub dbs: Vec<Database>,
}

/// Deploys `spec` through the shipping builders into `rt`: Paxos backend,
/// three machines, compiled execution, default window and batch, uniform
/// engines. Clients start on their own as soon as the graph is built.
pub fn deploy<R: Runtime>(
    rt: &mut R,
    spec: &Spec,
    seed: u64,
    scripts: Arc<Vec<Vec<TxnRequest>>>,
) -> Deployed {
    let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = dbs.clone();
    let loaded = *spec;
    let mut options = DeployOptions::new(
        spec.clients,
        move |i| scripts[i].clone(),
        move |db| {
            load(&loaded, seed, db);
            captured.lock().push(db.clone());
        },
    );
    options.diversity = shadowdb::diversity::DiversityPolicy::Uniform;
    options.durability = spec.wal.then(DurabilityOptions::default);
    options.smr_leases = spec.leases.then(SmrLeaseOptions::default);
    let (clients, replicas, tob, stats, disks) = match spec.mode {
        Mode::Smr => {
            let d = SmrDeployment::build(rt, &options);
            (d.clients, d.replicas, d.tob, d.stats, d.disks)
        }
        Mode::Pbr => {
            let d = PbrDeployment::build(rt, &options, PbrOptions::default());
            (d.clients, d.replicas, d.tob, d.stats, d.disks)
        }
    };
    let dbs = dbs.lock().clone();
    assert_eq!(dbs.len(), replicas.len(), "one database per replica");
    Deployed {
        clients,
        replicas,
        tob,
        stats,
        disks,
        dbs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_a_pure_function_of_the_seed() {
        for spec in &WORKLOADS {
            let a = script(spec, 7, 1, 40);
            assert_eq!(a, script(spec, 7, 1, 40), "{}", spec.name);
            assert_ne!(a, script(spec, 8, 1, 40), "{}: seed ignored", spec.name);
            assert_ne!(a, script(spec, 7, 2, 40), "{}: client ignored", spec.name);
        }
    }

    #[test]
    fn seconds_scale_the_measured_part_only() {
        let s = &WORKLOADS[0];
        assert_eq!(s.script_len(RUN_SECONDS), s.warmup + s.measured);
        assert_eq!(s.script_len(2 * RUN_SECONDS), s.warmup + 2 * s.measured);
        assert!(s.script_len(1) > s.warmup);
    }

    #[test]
    fn only_invalid_item_new_orders_abort_by_design() {
        let spec = find("pbr_tpcc").unwrap();
        let script = script(spec, 3, 0, 4_000);
        let n = script.iter().filter(|t| aborts_by_design(t)).count();
        assert!(n > 0 && n < 100, "about 0.45 % of the mix, got {n}");
        assert!(!aborts_by_design(&TxnRequest::BankRead { account: 1 }));
    }
}
