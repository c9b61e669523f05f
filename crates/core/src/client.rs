//! Closed-loop ShadowDB clients.
//!
//! "In case of failures, clients may timeout and resend transactions to
//! the replicas. To ensure that a transaction is executed only once, each
//! replica has to keep track of which transactions have been performed
//! already, treating duplicates as no-ops" — the client side of that
//! contract: per-client sequence numbers, resend on timeout, first answer
//! wins.
//!
//! One client type covers every deployment: it holds a
//! [`crate::route::GroupRoute`] per replica group and reaches each group
//! the way its ordering policy asks — a PBR group at its believed primary
//! (on timeout, every replica; only the primary answers), an SMR group
//! through its TOB servers (first answer from any replica wins). A
//! single-shard transaction goes straight to the owning group; a
//! cross-shard one is fanned out as a 2PC Prepare to every participant
//! group, and the coordinator group answers through the ordinary reply
//! path.

use crate::msgs::{parse_reply, parse_stale_config, TxnEnvelope};
use crate::route::Routes;
use parking_lot::Mutex;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::fault::mix64;
use shadowdb_workloads::{TwoPcRecord, TxnRequest};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// Internal retransmission timer: body `<cseq>`.
const TIMEOUT_HEADER: &str = "sdbclient/timeout";
/// Kick-off message.
const START_HEADER: &str = "sdbclient/start";

/// Retransmission backoff ceiling, as a multiple of the base timeout.
/// With doubling per resend round, the cap is reached after three rounds.
const BACKOFF_CAP_MULT: u32 = 8;

/// Per-transaction measurements shared with the experiment driver.
#[derive(Clone, Debug, Default)]
pub struct DbClientStats {
    /// One entry per answered transaction:
    /// `(submit time, answer time, committed)`.
    pub completed: Vec<(VTime, VTime, bool)>,
    /// The answer's result values, parallel to `completed` (the client is
    /// closed-loop, so entry `i` answers client sequence number `i`).
    pub results: Vec<Vec<shadowdb_sqldb::SqlValue>>,
    /// Retransmissions performed.
    pub resends: u64,
    /// Resubmissions triggered by a `StaleConfig` NACK (the client was
    /// talking to a replica that is no longer primary — or no longer a
    /// member — and chased the configuration the NACK reported).
    pub redirects: u64,
}

impl DbClientStats {
    /// Mean submit-to-answer latency over committed transactions.
    pub fn mean_latency(&self) -> Option<Duration> {
        let committed: Vec<u64> = self
            .completed
            .iter()
            .filter(|(_, _, c)| *c)
            .map(|(s, d, _)| d.saturating_since(*s).as_micros() as u64)
            .collect();
        if committed.is_empty() {
            return None;
        }
        Some(Duration::from_micros(
            committed.iter().sum::<u64>() / committed.len() as u64,
        ))
    }

    /// Number of committed transactions.
    pub fn committed(&self) -> usize {
        self.completed.iter().filter(|(_, _, c)| *c).count()
    }

    /// The committed transactions as serializability-checker observations,
    /// with the read results the client actually saw. `txns` must be the
    /// script this client ran (closed loop: entry `i` of `completed`
    /// answers `txns[i]`).
    pub fn observations(&self, txns: &[TxnRequest]) -> Vec<crate::serializability::Observation> {
        self.completed
            .iter()
            .enumerate()
            .filter(|(_, (_, _, committed))| *committed)
            .map(
                |(i, (submitted, answered, _))| crate::serializability::Observation {
                    submitted: *submitted,
                    answered: *answered,
                    txn: txns[i].clone(),
                    result: self.results.get(i).cloned().unwrap_or_default(),
                },
            )
            .collect()
    }
}

/// A closed-loop database client: submits, waits for the answer, submits
/// the next transaction.
#[derive(Clone)]
pub struct DbClient {
    /// Where each group is believed to be reachable: updated from replies
    /// and from `StaleConfig` NACKs.
    routes: Routes,
    txns: Vec<TxnRequest>,
    next: usize,
    outstanding: Option<(i64, VTime)>,
    resend_round: u64,
    /// SMR: monotone broadcast msgid. Every submission — including a
    /// resend of the same cseq — uses a *fresh* msgid, because the TOB
    /// service deduplicates by `(client, msgid)` and would otherwise
    /// silently swallow the retransmission; the replicas deduplicate by
    /// cseq and re-send the cached answer, which is the reply-recovery
    /// path when the original answer was lost.
    bcast_seq: i64,
    timeout: Duration,
    stats: Arc<Mutex<DbClientStats>>,
}

impl DbClient {
    /// Creates a client that will submit `txns` in order.
    pub fn new(
        routes: Routes,
        txns: Vec<TxnRequest>,
        stats: Arc<Mutex<DbClientStats>>,
    ) -> DbClient {
        DbClient {
            routes,
            txns,
            next: 0,
            outstanding: None,
            resend_round: 0,
            bcast_seq: 0,
            timeout: Duration::from_secs(5),
            stats,
        }
    }

    /// Overrides the retransmission timeout (default 5 s).
    pub fn with_timeout(mut self, timeout: Duration) -> DbClient {
        self.timeout = timeout;
        self
    }

    /// The kick-off message.
    pub fn start_msg() -> Msg {
        Msg::new(START_HEADER, Value::Unit)
    }

    /// The retransmission delay for the current resend round: jittered
    /// exponential backoff. The base timeout doubles per round, capped at
    /// [`BACKOFF_CAP_MULT`]× the base, then scaled by a deterministic
    /// jitter factor in `[0.75, 1.25)` derived from `(client, cseq,
    /// round)` — deterministic so simulation runs replay exactly, jittered
    /// so a fleet of clients whose timeouts expire together (e.g. after a
    /// partition) does not retransmit in lockstep forever.
    fn retry_delay(&self, slf: Loc, cseq: i64) -> Duration {
        let round = self.resend_round.min(31) as u32;
        let mult = (1u32 << round.min(16)).min(BACKOFF_CAP_MULT);
        let backoff = self.timeout.saturating_mul(mult);
        let h = mix64(mix64(u64::from(slf.index()) ^ ((cseq as u64) << 24)) ^ self.resend_round);
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        backoff.mul_f64(0.75 + 0.5 * frac)
    }

    fn submit(&mut self, ctx: &Ctx, cseq: i64, resend: bool, outs: &mut Vec<SendInstr>) {
        self.send_submits(ctx, cseq, resend, outs);
        outs.push(SendInstr::after(
            self.retry_delay(ctx.slf, cseq),
            ctx.slf,
            Msg::new(TIMEOUT_HEADER, Value::Int(cseq)),
        ));
    }

    /// The submission sends alone, without arming a retransmission timer.
    /// `StaleConfig` redirects use this directly: the original timer chain
    /// for the outstanding transaction is still armed, and stacking a
    /// second chain would multiply resend storms.
    fn send_submits(&mut self, ctx: &Ctx, cseq: i64, resend: bool, outs: &mut Vec<SendInstr>) {
        let txn = self.txns[cseq as usize].clone();
        let Routes { map, groups } = &mut self.routes;
        let sharded;
        let parts: &[usize] = match groups.len() {
            1 => &[0], // one group owns every key: nothing to partition
            _ => {
                sharded = map.participants(&txn);
                &sharded
            }
        };
        let txn = match parts {
            [_] => txn, // single-shard: the original request, fast path
            _ => TxnRequest::TwoPc(TwoPcRecord::Prepare {
                txnid: (ctx.slf, cseq),
                participants: parts.to_vec(),
                txn: Box::new(txn),
            }),
        };
        let env = TxnEnvelope::new(ctx.slf, cseq, txn);
        // A resend no longer knows who leads: it asks everyone, through
        // the next server of the rotation.
        let rotation = self.resend_round as usize;
        for p in parts {
            let spent = groups[*p].submit(ctx.slf, &env, resend, self.bcast_seq, rotation, outs);
            self.bcast_seq += i64::from(spent);
        }
    }

    /// Handles a `StaleConfig` NACK: the addressed replica refused the
    /// submission because it is not the primary of the configuration it
    /// knows. The route of the group it names adopts the report, and if
    /// that moved it the outstanding transaction is resubmitted at once.
    fn on_stale_config(
        &mut self,
        ctx: &Ctx,
        st: crate::msgs::StaleConfig,
        outs: &mut Vec<SendInstr>,
    ) {
        if self.routes.adopt(&st) && self.outstanding.map(|(c, _)| c) == Some(st.cseq) {
            self.stats.lock().redirects += 1;
            self.send_submits(ctx, st.cseq, false, outs);
        }
    }

    fn send_next(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        if self.outstanding.is_some() || self.next >= self.txns.len() {
            return;
        }
        let cseq = self.next as i64;
        self.next += 1;
        self.outstanding = Some((cseq, ctx.now));
        self.resend_round = 0;
        self.submit(ctx, cseq, false, outs);
    }
}

impl Process for DbClient {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        let h = msg.header;
        if h == cached_header!(START_HEADER) {
            self.send_next(ctx, out);
        } else if h == cached_header!(TIMEOUT_HEADER) {
            let cseq = msg.body.int();
            if let Some((outstanding, _)) = self.outstanding {
                if outstanding == cseq {
                    self.resend_round += 1;
                    self.stats.lock().resends += 1;
                    self.submit(ctx, cseq, true, out);
                }
            }
        } else if let Some(st) = parse_stale_config(msg) {
            self.on_stale_config(ctx, st, out);
        } else if let Some(reply) = parse_reply(msg) {
            self.routes.note_reply(reply.from);
            if let Some((outstanding, sent)) = self.outstanding {
                if reply.cseq == outstanding {
                    self.outstanding = None;
                    let mut stats = self.stats.lock();
                    stats.completed.push((sent, ctx.now, reply.committed));
                    stats.results.push(reply.results);
                    drop(stats);
                    self.send_next(ctx, out);
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (self.next, self.resend_round, self.bcast_seq).hash(&mut h);
        self.outstanding
            .map(|(c, t)| (c, t.as_micros()))
            .hash(&mut h);
        // Where the next send goes is state too.
        self.routes.hash(&mut h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::reply_msg;
    use crate::route::{GroupRoute, Policy};
    use shadowdb_sqldb::SqlValue;

    fn client(n: usize) -> (DbClient, Arc<Mutex<DbClientStats>>) {
        let stats = Arc::new(Mutex::new(DbClientStats::default()));
        let txns = (0..n)
            .map(|i| TxnRequest::BankDeposit {
                account: i as i64,
                amount: 1,
            })
            .collect();
        (
            DbClient::new(
                Routes::single(GroupRoute::new(
                    Policy::Pbr,
                    Vec::new(),
                    vec![Loc::new(5), Loc::new(6)],
                )),
                txns,
                stats.clone(),
            ),
            stats,
        )
    }

    #[test]
    fn submits_to_primary_then_everyone_on_timeout() {
        let (mut c, stats) = client(1);
        let ctx = Ctx::new(Loc::new(0), VTime::ZERO);
        let outs = c.step(&ctx, &DbClient::start_msg());
        let submits: Vec<Loc> = outs
            .iter()
            .filter(|o| o.dest != ctx.slf)
            .map(|o| o.dest)
            .collect();
        assert_eq!(submits, vec![Loc::new(5)]);
        let outs = c.step(
            &Ctx::new(Loc::new(0), VTime::from_secs(5)),
            &Msg::new(TIMEOUT_HEADER, Value::Int(0)),
        );
        let resubmits: Vec<Loc> = outs
            .iter()
            .filter(|o| o.dest != ctx.slf)
            .map(|o| o.dest)
            .collect();
        assert_eq!(resubmits, vec![Loc::new(5), Loc::new(6)]);
        assert_eq!(stats.lock().resends, 1);
    }

    #[test]
    fn reply_completes_and_advances() {
        let (mut c, stats) = client(2);
        let slf = Loc::new(0);
        c.step(
            &Ctx::new(slf, VTime::from_millis(1)),
            &DbClient::start_msg(),
        );
        let outs = c.step(
            &Ctx::new(slf, VTime::from_millis(5)),
            &reply_msg(Loc::new(5), 0, true, &[SqlValue::Int(1)]),
        );
        assert!(
            outs.iter().any(|o| o.dest == Loc::new(5)),
            "next txn submitted"
        );
        let s = stats.lock();
        assert_eq!(s.committed(), 1);
        assert_eq!(s.mean_latency(), Some(Duration::from_millis(4)));
    }

    #[test]
    fn duplicate_replies_ignored() {
        let (mut c, stats) = client(2);
        let slf = Loc::new(0);
        c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
        c.step(
            &Ctx::new(slf, VTime::from_millis(5)),
            &reply_msg(Loc::new(5), 0, true, &[]),
        );
        c.step(
            &Ctx::new(slf, VTime::from_millis(6)),
            &reply_msg(Loc::new(5), 0, true, &[]),
        );
        assert_eq!(stats.lock().completed.len(), 1);
    }

    /// The retransmission timer backs off exponentially with jitter: each
    /// round's delay sits in `[0.75, 1.25)`× the doubled base, capped at
    /// `BACKOFF_CAP_MULT`× the base timeout.
    #[test]
    fn resend_timer_backs_off_exponentially_with_cap() {
        let (c, _stats) = client(1);
        let mut c = c.with_timeout(Duration::from_millis(100));
        let slf = Loc::new(0);
        let timer_delay = |outs: &[SendInstr]| -> Duration {
            outs.iter()
                .find(|o| o.dest == slf)
                .expect("a retransmission timer")
                .delay
        };
        let outs = c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
        let mut delays = vec![timer_delay(&outs)];
        for round in 1..=6u64 {
            let outs = c.step(
                &Ctx::new(slf, VTime::from_secs(round)),
                &Msg::new(TIMEOUT_HEADER, Value::Int(0)),
            );
            delays.push(timer_delay(&outs));
        }
        let base = Duration::from_millis(100);
        for (round, d) in delays.iter().enumerate() {
            let mult = (1u32 << round.min(16)).min(BACKOFF_CAP_MULT);
            let lo = base.saturating_mul(mult).mul_f64(0.75);
            let hi = base.saturating_mul(mult).mul_f64(1.25);
            assert!(
                *d >= lo && *d < hi,
                "round {round}: delay {d:?} outside [{lo:?}, {hi:?})"
            );
        }
        // Rounds past the cap stay bounded.
        assert!(delays[6] <= base.saturating_mul(BACKOFF_CAP_MULT).mul_f64(1.25));
        // Rounds 4 and 5 are both at the cap: any difference is jitter.
        assert_ne!(delays[4], delays[5], "jitter should vary across rounds");
    }

    /// After a timeout resend reaches every replica, two replicas may both
    /// answer the same transaction; the client must count it once and
    /// continue cleanly with the next (dedup by cseq, first answer wins).
    #[test]
    fn duplicate_answers_after_resend_deduplicated_by_cseq() {
        let (mut c, stats) = client(2);
        let slf = Loc::new(0);
        c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
        // Timeout: resend goes to both replicas.
        let outs = c.step(
            &Ctx::new(slf, VTime::from_secs(5)),
            &Msg::new(TIMEOUT_HEADER, Value::Int(0)),
        );
        assert_eq!(outs.iter().filter(|o| o.dest != slf).count(), 2);
        // Both replicas answer cseq 0; the first completes it and submits
        // cseq 1, the second is a duplicate and must be ignored.
        let outs = c.step(
            &Ctx::new(slf, VTime::from_millis(5100)),
            &reply_msg(Loc::new(6), 0, true, &[SqlValue::Int(7)]),
        );
        assert!(outs.iter().any(|o| o.dest != slf), "cseq 1 submitted");
        let outs = c.step(
            &Ctx::new(slf, VTime::from_millis(5200)),
            &reply_msg(Loc::new(5), 0, true, &[SqlValue::Int(7)]),
        );
        assert!(outs.is_empty(), "duplicate answer must be a no-op");
        assert_eq!(stats.lock().completed.len(), 1);
        // The outstanding transaction is still cseq 1 and completes
        // normally.
        c.step(
            &Ctx::new(slf, VTime::from_millis(5300)),
            &reply_msg(Loc::new(6), 1, true, &[]),
        );
        let s = stats.lock();
        assert_eq!(s.completed.len(), 2);
        assert_eq!(s.committed(), 2);
        assert_eq!(s.resends, 1);
    }

    /// A `StaleConfig` NACK redirects the outstanding submission to the
    /// primary of the reported configuration — without waiting for the
    /// retransmission timeout — and later NACKs with older config
    /// sequences cannot roll the target back.
    #[test]
    fn stale_config_nack_chases_the_reported_primary() {
        use crate::msgs::{stale_config_msg, ReplicaConfig};
        let (mut c, stats) = client(2);
        let slf = Loc::new(0);
        c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
        // Replica 5 answers: "not me — config 1 is [6, 7]".
        let cfg1 = ReplicaConfig {
            seq: 1,
            members: vec![Loc::new(6), Loc::new(7)],
        };
        let outs = c.step(
            &Ctx::new(slf, VTime::from_millis(2)),
            &stale_config_msg(Loc::new(5), 0, &cfg1),
        );
        let targets: Vec<Loc> = outs.iter().map(|o| o.dest).collect();
        assert_eq!(targets, vec![Loc::new(6)], "redirected to the primary");
        assert_eq!(stats.lock().redirects, 1);
        // An older config cannot roll the client back to replica 5.
        let cfg0 = ReplicaConfig {
            seq: 0,
            members: vec![Loc::new(5), Loc::new(6)],
        };
        let outs = c.step(
            &Ctx::new(slf, VTime::from_millis(3)),
            &stale_config_msg(Loc::new(6), 0, &cfg0),
        );
        assert!(outs.is_empty(), "an older report moves nothing: {outs:?}");
        // The new primary answers and the next transaction goes straight
        // to it.
        let outs = c.step(
            &Ctx::new(slf, VTime::from_millis(5)),
            &reply_msg(Loc::new(6), 0, true, &[]),
        );
        assert!(
            outs.iter().any(|o| o.dest == Loc::new(6)),
            "next txn targets the learned primary, got {outs:?}"
        );
        // A timeout resend now fans out to the *new* membership first.
        let outs = c.step(
            &Ctx::new(slf, VTime::from_secs(30)),
            &Msg::new(TIMEOUT_HEADER, Value::Int(1)),
        );
        let resubmits: Vec<Loc> = outs
            .iter()
            .filter(|o| o.dest != slf)
            .map(|o| o.dest)
            .collect();
        assert_eq!(
            resubmits,
            vec![Loc::new(6), Loc::new(7), Loc::new(5)],
            "new members lead, old locations stay reachable at the tail"
        );
    }

    /// Where the client will send next is part of its state: the model
    /// checker must not merge two clients that will address different
    /// replicas.
    #[test]
    fn clients_that_differ_only_in_the_believed_primary_have_different_fingerprints() {
        use shadowdb_eventml::process::fingerprint;
        let slf = Loc::new(0);
        let answered_by = |replica: u32| {
            let (mut c, _stats) = client(2);
            c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
            c.step(
                &Ctx::new(slf, VTime::from_millis(5)),
                &reply_msg(Loc::new(replica), 0, true, &[]),
            );
            c
        };
        let (a, b) = (answered_by(5), answered_by(6));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&*a.clone_box()));
    }

    #[test]
    fn aborted_replies_counted_separately() {
        let (mut c, stats) = client(1);
        let slf = Loc::new(0);
        c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
        c.step(
            &Ctx::new(slf, VTime::from_millis(2)),
            &reply_msg(Loc::new(5), 0, false, &[]),
        );
        let s = stats.lock();
        assert_eq!(s.completed.len(), 1);
        assert_eq!(s.committed(), 0);
        assert_eq!(s.mean_latency(), None);
    }
}
