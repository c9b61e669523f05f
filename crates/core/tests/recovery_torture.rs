//! Recovery torture: crash patterns against ShadowDB-PBR.
//!
//! The paper's recovery procedure must keep durability and exactly-once
//! answers through any single-failure pattern (and restart cleanly when
//! "failures occur during recovery"). Each scenario runs a bank workload,
//! injects its crash schedule, and requires: every transaction answered,
//! answered-before-crash deposits present in the survivors' state, and
//! surviving replicas in agreement.

use parking_lot::Mutex;
use shadowdb::deploy::{DeployOptions, PbrDeployment};
use shadowdb::diversity::DiversityPolicy;
use shadowdb::pbr::PbrOptions;
use shadowdb_loe::{Loc, VTime};
use shadowdb_simnet::Simulation;
use shadowdb_sqldb::Database;
use shadowdb_tob::ExecutionMode;
use shadowdb_workloads::bank;
use std::sync::Arc;
use std::time::Duration;

const ACCOUNTS: usize = 800;
const TXNS: usize = 120;
const CLIENTS: usize = 2;

struct Torture {
    sim: Simulation,
    d: PbrDeployment,
    dbs: Arc<Mutex<Vec<Database>>>,
}

fn setup(seed: u64, active_replicas: usize) -> Torture {
    let mut sim = shadowdb_simnet::testing::default_net(seed);
    let dbs: Arc<Mutex<Vec<Database>>> = Arc::new(Mutex::new(Vec::new()));
    let captured = dbs.clone();
    let options = DeployOptions {
        diversity: DiversityPolicy::Trio,
        mode: ExecutionMode::Compiled,
        client_timeout: Duration::from_millis(400),
        active_replicas,
        ..DeployOptions::new(
            CLIENTS,
            |client| {
                let mut g = bank::BankGen::new(70 + client as u64, ACCOUNTS);
                (0..TXNS).map(|_| g.next_txn()).collect()
            },
            move |db| {
                bank::load(db, ACCOUNTS).expect("loads");
                captured.lock().push(db.clone());
            },
        )
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(300),
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    Torture { sim, d, dbs }
}

fn run_until_some_commits(t: &mut Torture, target: usize) -> VTime {
    let mut ms = 5;
    while t.d.committed() < target {
        t.sim.run_until(VTime::from_millis(ms));
        ms += 5;
        assert!(ms < 120_000, "no progress toward {target} commits");
    }
    t.sim.now()
}

fn finish_and_check(mut t: Torture, crashed: &[usize]) {
    t.sim.run_until_quiescent(VTime::from_secs(1_200));
    assert_eq!(
        t.d.committed(),
        CLIENTS * TXNS,
        "every transaction answered"
    );
    // Surviving replicas agree on the final balance total.
    let dbs = t.dbs.lock();
    let sums: Vec<i64> = dbs
        .iter()
        .enumerate()
        .filter(|(i, _)| !crashed.contains(i))
        .map(|(_, db)| {
            db.execute("SELECT SUM(balance) FROM accounts")
                .expect("sums")
                .rows[0][0]
                .as_int()
                .expect("int")
        })
        .collect();
    assert!(
        sums.windows(2).all(|w| w[0] == w[1]),
        "survivors agree: {sums:?}"
    );
    // And the total is exactly initial money plus all answered deposits.
    let mut expected = (ACCOUNTS as i64) * 1_000;
    for client in 0..CLIENTS as u64 {
        let mut g = bank::BankGen::new(70 + client, ACCOUNTS);
        for _ in 0..TXNS {
            if let shadowdb_workloads::TxnRequest::BankDeposit { amount, .. } = g.next_txn() {
                expected += amount;
            }
        }
    }
    assert_eq!(sums[0], expected, "durability + exactly-once");
}

#[test]
fn primary_crash_early() {
    let mut t = setup(101, 2);
    let now = run_until_some_commits(&mut t, 5);
    t.sim.crash_at(now, t.d.replicas[0]);
    finish_and_check(t, &[0]);
}

#[test]
fn backup_crash_early() {
    let mut t = setup(102, 2);
    let now = run_until_some_commits(&mut t, 5);
    t.sim.crash_at(now, t.d.replicas[1]);
    finish_and_check(t, &[1]);
}

#[test]
fn primary_then_new_primary_crash() {
    // Two sequential failures: the promoted backup also dies; the spare —
    // brought up to date by the first recovery — must carry on alone.
    let mut t = setup(103, 2);
    let now = run_until_some_commits(&mut t, 5);
    t.sim.crash_at(now, t.d.replicas[0]);
    let before = t.d.committed();
    let now = run_until_some_commits(&mut t, before + 30);
    t.sim.crash_at(now, t.d.replicas[1]);
    finish_and_check(t, &[0, 1]);
}

#[test]
fn crash_during_recovery_restarts_procedure() {
    // The backup dies while the *first* recovery (from the primary crash)
    // is still running: "If failures occur during recovery, the procedure
    // is restarted."
    let mut t = setup(104, 3);
    let now = run_until_some_commits(&mut t, 5);
    t.sim.crash_at(now, t.d.replicas[0]);
    // Detection fires at +300 ms; the second crash lands mid-recovery.
    t.sim
        .crash_at(now + Duration::from_millis(350), t.d.replicas[1]);
    finish_and_check(t, &[0, 1]);
}

#[test]
fn three_active_replicas_tolerate_one_crash() {
    let mut t = setup(105, 3);
    let now = run_until_some_commits(&mut t, 10);
    t.sim.crash_at(now, t.d.replicas[1]);
    finish_and_check(t, &[1]);
}

mod election_safety_props {
    //! Property: under an *arbitrary* seeded nemesis schedule, no two PBR
    //! replicas ever execute client transactions as primary of the same
    //! configuration epoch. The deployment's [`shadowdb::probe::Probe`]
    //! records an `Event::Primary` the first time a replica executes as
    //! primary of an epoch; split-brain would surface as one config seq
    //! with two locations, which `check_one_primary_per_seq` rejects.

    use super::{ACCOUNTS, CLIENTS, TXNS};
    use proptest::prelude::*;
    use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment};
    use shadowdb::pbr::PbrOptions;
    use shadowdb::probe::{check_one_primary_per_seq, Probe};
    use shadowdb_loe::{Loc, VTime};
    use shadowdb_runtime::fault::mix64;
    use shadowdb_runtime::{FaultTopology, Nemesis, NemesisProfile, NodeFaultKind};
    use shadowdb_workloads::bank;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn at_most_one_primary_per_epoch_under_arbitrary_nemesis(
            seed in 0u64..(1u64 << 32),
            profile_idx in 0usize..NemesisProfile::ALL.len(),
            duration_ms in 500u64..3_000,
        ) {
            let profile = NemesisProfile::ALL[profile_idx];
            let duration = Duration::from_millis(duration_ms);
            let probe = Probe::default();
            let mut sim = shadowdb_simnet::testing::default_net(seed ^ 0x5eed);
            // A profile that restarts its victim reboots it from its disk.
            let durable = profile == NemesisProfile::PowerLoss;
            let options = DeployOptions {
                client_timeout: Duration::from_millis(400),
                probe: Some(probe.clone()),
                durability: durable.then(DurabilityOptions::default),
                ..DeployOptions::new(
                    CLIENTS,
                    |client| {
                        let mut g = bank::BankGen::new(70 + client as u64, ACCOUNTS);
                        (0..TXNS).map(|_| g.next_txn()).collect()
                    },
                    |db| bank::load(db, ACCOUNTS).expect("loads"),
                )
            };
            let pbr = PbrOptions {
                heartbeat_every: Duration::from_millis(50),
                detect_after: Duration::from_millis(300),
                ..PbrOptions::default()
            };
            let d = PbrDeployment::build(&mut sim, &options, pbr);
            let topo = FaultTopology {
                clients: d.clients.clone(),
                core: (CLIENTS as u32..sim.node_count()).map(Loc::new).collect(),
                victim: d.replicas[0],
                groups: Vec::new(),
                joiner: None,
                donor: None,
            };
            let plan = Nemesis::new(seed, profile, duration).plan(&topo);
            for (n, f) in plan.node_faults.iter().enumerate() {
                match f.kind {
                    NodeFaultKind::Crash => sim.crash_at(f.at, f.loc),
                    NodeFaultKind::RestartDurable => {
                        d.reboot(&mut sim, f.loc, f.at, mix64(seed ^ n as u64))
                    }
                }
            }
            sim.install_fault_plan(plan);
            // Run well past the heal point; the property is about what was
            // *observed*, not convergence (the chaos soaks assert that).
            sim.run_until(VTime::ZERO + duration + Duration::from_secs(20));

            if let Err(v) = check_one_primary_per_seq(&probe.events(), &[]) {
                let case = format!("seed {seed}, {profile:?}, {duration_ms} ms");
                return Err(TestCaseError::fail(format!("{case}: {v}")));
            }
        }
    }
}

#[test]
fn no_crash_no_resends_across_seeds() {
    for seed in [1u64, 2, 3] {
        let mut t = setup(200 + seed, 2);
        t.sim.run_until_quiescent(VTime::from_secs(1_200));
        assert_eq!(t.d.committed(), CLIENTS * TXNS);
        let resends: u64 = t.d.stats.iter().map(|s| s.lock().resends).sum();
        assert_eq!(resends, 0, "failure-free runs never retry (seed {seed})");
        let loc: Vec<Loc> = t.d.replicas.clone();
        let _ = loc;
    }
}
