//! The non-ShadowDB systems of Fig. 9, as simulator server processes.
//!
//! * [`StandaloneServer`] — an unreplicated database server: the real
//!   `shadowdb-sqldb` engine behind a per-request JDBC/network overhead.
//!   Saturation = one CPU's worth of request handling (the paper's H2
//!   standalone tops out around 6 400 update txns/s).
//! * [`LockCoupledReplServer`] — the built-in replication of the
//!   table-locking engines (H2 replication, MySQL replication): a
//!   transaction holds its (table or row) lock *across the synchronous
//!   round trip to the replica*, so throughput is bounded by
//!   `1 / lock-hold-time` regardless of client count, waiters time out
//!   under heavy contention, and — for MySQL — growing contention degrades
//!   the achievable rate ("Adding more clients results in even higher
//!   contention and lower overall throughput").
//!
//! Both execute the submitted transactions against a real engine, so the
//! functional path is genuine; only the timing is modelled.

use parking_lot::Mutex;
use shadowdb::client::DbClient;
use shadowdb::msgs::{reply_msg, TxnEnvelope, SUBMIT_HEADER};
use shadowdb::route::{GroupRoute, Policy, Routes};
use shadowdb::DbClientStats;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr};
use shadowdb_loe::{Loc, VTime};
use shadowdb_simnet::testing::default_net;
use shadowdb_sqldb::{Database, SqlValue};
use shadowdb_workloads::TxnRequest;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Per-request overhead of the client/server path (JDBC marshalling,
/// socket handling) charged at the server. Calibrated so a standalone H2
/// saturates near the paper's ≈6 400 update transactions per second on the
/// micro-benchmark.
pub const REQUEST_OVERHEAD: Duration = Duration::from_micros(120);

/// An unreplicated database server.
pub struct StandaloneServer {
    db: Database,
    step_cost: Duration,
}

impl StandaloneServer {
    /// Creates a server over `db`.
    pub fn new(db: Database) -> StandaloneServer {
        StandaloneServer {
            db,
            step_cost: Duration::ZERO,
        }
    }
}

impl Process for StandaloneServer {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if msg.header != cached_header!(SUBMIT_HEADER) {
            return;
        }
        let Some(env) = TxnEnvelope::from_value(&msg.body) else {
            return;
        };
        let (committed, result, cost) = env
            .txn
            .apply(&self.db)
            .map(|o| (o.committed, o.result, o.cost))
            .unwrap_or_else(|e| (false, vec![SqlValue::Text(e.to_string())], Duration::ZERO));
        self.step_cost += cost + REQUEST_OVERHEAD;
        out.push(SendInstr::now(
            env.client,
            reply_msg(ctx.slf, env.cseq, committed, &result),
        ));
    }
    fn take_step_cost(&mut self) -> Duration {
        std::mem::take(&mut self.step_cost)
    }
    fn clone_box(&self) -> Box<dyn Process> {
        let db = Database::new(self.db.profile().clone());
        db.restore(&self.db.snapshot()).expect("valid snapshot");
        Box::new(StandaloneServer {
            db,
            step_cost: self.step_cost,
        })
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.db.byte_size().hash(&mut h);
    }
}

/// Contention behaviour of a lock-coupled replicated engine.
#[derive(Clone, Copy, Debug)]
pub struct LockCoupling {
    /// How long the critical lock is held per transaction: execution plus
    /// the synchronous replication round trip.
    pub hold: Duration,
    /// Waiters older than this abort with a lock timeout.
    pub lock_timeout: Duration,
    /// Extra hold time per queued waiter (thrashing under contention —
    /// 0 for H2's flat saturation, > 0 for MySQL's declining curve).
    pub contention_slowdown: Duration,
}

impl LockCoupling {
    /// H2 replication: "contention is too high and transactions timeout
    /// when trying to lock the database table" — flat early saturation.
    pub fn h2_replication() -> LockCoupling {
        LockCoupling {
            hold: Duration::from_micros(600),
            lock_timeout: Duration::from_millis(100),
            contention_slowdown: Duration::ZERO,
        }
    }

    /// MySQL replication (memory engine): peaks near 3 900 txns/s, then
    /// declines as added clients add contention.
    pub fn mysql_replication() -> LockCoupling {
        LockCoupling {
            hold: Duration::from_micros(250),
            lock_timeout: Duration::from_millis(500),
            contention_slowdown: Duration::from_micros(2),
        }
    }
}

/// A replicated, lock-coupled database server.
pub struct LockCoupledReplServer {
    db: Database,
    coupling: LockCoupling,
    /// When the (virtual) critical lock becomes free.
    lock_free_at: VTime,
}

impl LockCoupledReplServer {
    /// Creates the server.
    pub fn new(db: Database, coupling: LockCoupling) -> LockCoupledReplServer {
        LockCoupledReplServer {
            db,
            coupling,
            lock_free_at: VTime::ZERO,
        }
    }

    /// The instantaneous backlog: how many base holds are already queued
    /// ahead of a request arriving now.
    fn backlog(&self, now: VTime) -> u32 {
        let waiting = self.lock_free_at.saturating_since(now).as_micros();
        (waiting / self.coupling.hold.as_micros().max(1)) as u32
    }
}

impl Process for LockCoupledReplServer {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if msg.header != cached_header!(SUBMIT_HEADER) {
            return;
        }
        let Some(env) = TxnEnvelope::from_value(&msg.body) else {
            return;
        };
        let backlog = self.backlog(ctx.now);
        let start = ctx.now.max(self.lock_free_at);
        let wait = start.saturating_since(ctx.now);
        if wait > self.coupling.lock_timeout {
            // Lock timeout: the engine aborts the transaction.
            let delay = self.coupling.lock_timeout;
            out.push(SendInstr::after(
                delay,
                env.client,
                reply_msg(
                    ctx.slf,
                    env.cseq,
                    false,
                    &[SqlValue::Text("lock timeout".into())],
                ),
            ));
            return;
        }
        // Execute for real (functional path), then model the lock-coupled
        // hold across the replication round trip.
        let (committed, result) = env
            .txn
            .apply(&self.db)
            .map(|o| (o.committed, o.result))
            .unwrap_or_else(|e| (false, vec![SqlValue::Text(e.to_string())]));
        let hold = self.coupling.hold + self.coupling.contention_slowdown * backlog;
        self.lock_free_at = start + hold;
        let done_in = self.lock_free_at.saturating_since(ctx.now);
        out.push(SendInstr::after(
            done_in,
            env.client,
            reply_msg(ctx.slf, env.cseq, committed, &result),
        ));
    }
    fn clone_box(&self) -> Box<dyn Process> {
        let db = Database::new(self.db.profile().clone());
        db.restore(&self.db.snapshot()).expect("valid snapshot");
        Box::new(LockCoupledReplServer {
            db,
            coupling: self.coupling,
            lock_free_at: self.lock_free_at,
        })
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.lock_free_at.as_micros().hash(&mut h);
    }
}

/// Runs `n_clients` closed-loop database clients (client `i` submitting
/// `txns_for(i)`) against one baseline `server` on a fresh simulated LAN,
/// to quiescence.
pub fn drive(
    seed: u64,
    n_clients: usize,
    txns_for: impl Fn(usize) -> Vec<TxnRequest>,
    server: Box<dyn Process>,
) -> Vec<Arc<Mutex<DbClientStats>>> {
    let mut sim = default_net(seed);
    let server_loc = Loc::new(n_clients as u32);
    let mut stats = Vec::new();
    for i in 0..n_clients {
        let s = Arc::new(Mutex::new(DbClientStats::default()));
        stats.push(s.clone());
        // The baseline server is a primary with no backups and no TOB.
        let route = GroupRoute::new(Policy::Pbr, Vec::new(), vec![server_loc]);
        let c = DbClient::new(Routes::single(route), txns_for(i), s)
            .with_timeout(Duration::from_secs(600));
        sim.add_node(Box::new(c));
    }
    let added = sim.add_node(server);
    assert_eq!(added, server_loc);
    for i in 0..n_clients {
        sim.send_at(VTime::ZERO, Loc::new(i as u32), DbClient::start_msg());
    }
    sim.run_until_quiescent(VTime::from_secs(36_000));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::steady_state;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_workloads::bank;

    fn drive(
        server: Box<dyn Process>,
        n_clients: usize,
        txns: usize,
    ) -> Vec<Arc<Mutex<DbClientStats>>> {
        let txns_for = |i| {
            let mut g = bank::BankGen::new(i as u64, 1_000);
            (0..txns).map(|_| g.next_txn()).collect()
        };
        super::drive(1, n_clients, txns_for, server)
    }

    fn bank_db() -> Database {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 1_000).unwrap();
        db
    }

    #[test]
    fn standalone_answers_all() {
        let stats = drive(Box::new(StandaloneServer::new(bank_db())), 3, 50);
        for s in &stats {
            assert_eq!(s.lock().committed(), 50);
        }
    }

    #[test]
    fn standalone_saturates_near_calibration() {
        let stats = drive(Box::new(StandaloneServer::new(bank_db())), 16, 400);
        let p = steady_state(&stats, true);
        // 1 / (exec ≈ 36 µs + 120 µs overhead) ≈ 6.4 k/s.
        assert!(p.throughput > 4_500.0 && p.throughput < 8_000.0, "{p:?}");
    }

    #[test]
    fn h2_replication_saturates_flat() {
        let one = {
            let s = drive(
                Box::new(LockCoupledReplServer::new(
                    bank_db(),
                    LockCoupling::h2_replication(),
                )),
                1,
                200,
            );
            steady_state(&s, true)
        };
        let many = {
            let s = drive(
                Box::new(LockCoupledReplServer::new(
                    bank_db(),
                    LockCoupling::h2_replication(),
                )),
                16,
                200,
            );
            steady_state(&s, true)
        };
        // Saturation is flat: 16 clients get at most ~the hold-rate…
        assert!(many.throughput < 2_200.0, "{many:?}");
        // …and more than one client alone achieves.
        assert!(many.throughput > one.throughput, "{one:?} vs {many:?}");
    }

    #[test]
    fn mysql_declines_under_contention() {
        let mk = || {
            Box::new(LockCoupledReplServer::new(
                bank_db(),
                LockCoupling::mysql_replication(),
            ))
        };
        let at8 = steady_state(&drive(mk(), 8, 300), true);
        let at32 = steady_state(&drive(mk(), 32, 300), true);
        assert!(
            at8.throughput > at32.throughput,
            "decline: {at8:?} vs {at32:?}"
        );
    }
}
