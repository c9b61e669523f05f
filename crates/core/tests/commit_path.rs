//! The commit path's one invariant, checked from outside: **no
//! acknowledgment leaves a replica before the fsync that covers its
//! record.**
//!
//! A durable primary + backup pair is stepped by hand over in-memory
//! disks, so the test — not a runtime — decides when each forward, ack and
//! `sdb/sync` is delivered and when the backup loses power. An observer
//! reads every send the two replicas emit and compares it with what
//! `wal::recover` finds on the disks *at that moment* (the unsynced tail is
//! invisible to it, exactly as it is to a reboot):
//!
//! * an `sdb/ack` for index *i* ⇒ the backup's disk holds record *i*;
//! * an `sdb/reply` ⇒ the record is on **both** disks.
//!
//! The observer returns `Err` instead of panicking so that its teeth can
//! be shown: against a disk that lied about a sync (rolled back one group
//! with `Disk::truncate_synced` after the ack left) it must fail.
//!
//! The asynchronous-disk leg runs the same pair over deferred disks: a
//! sync handed to the disk completes only when the test says so — late,
//! after further appends and forwards, or never before a power cut — and
//! its completion comes back as an `sdb/synced` message, through a
//! completion sink the test installs as a runtime would. Against a syncer
//! that reports at hand-off instead of at completion the observer must
//! fail too.

use proptest::prelude::*;
use shadowdb::msgs::{
    parse_reply, submit_msg, ReplicaConfig, TxnEnvelope, ACK_HEADER, FORWARD_HEADER, REPLY_HEADER,
    SYNCED_HEADER, SYNC_HEADER,
};
use shadowdb::pbr::{PbrOptions, PbrReplica};
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::completion::{self, Collected};
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_wal::{recover, Disk};
use shadowdb_workloads::{bank, TxnRequest};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

const PRIMARY: usize = 0;
const BACKUP: usize = 1;
const TOB: Loc = Loc::new(5);
const CLIENTS: usize = 4;
const ROWS: usize = 16;
/// Client `k` lives at location `CLIENT_BASE + k`.
const CLIENT_BASE: u32 = 10;

fn client(k: usize) -> Loc {
    Loc::new(CLIENT_BASE + k as u32)
}

fn database() -> Database {
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, ROWS).expect("bank loads");
    db
}

fn config() -> ReplicaConfig {
    ReplicaConfig::initial(vec![Loc::new(0), Loc::new(1)])
}

/// What the observer reports: an acknowledgment the disks do not back.
#[derive(Debug, PartialEq)]
struct Violation(String);

impl From<Violation> for TestCaseError {
    fn from(v: Violation) -> TestCaseError {
        TestCaseError::fail(v.0)
    }
}

/// One of the pair over its disk, through the builder steps the
/// deployment's recipe takes.
fn replica(disk: &Disk, snapshot_every: i64) -> PbrReplica {
    let options = PbrOptions::default();
    PbrReplica::new(database(), config(), Vec::new(), vec![TOB], options)
        .with_wal(disk.clone(), snapshot_every)
}

/// The pair, their disks, and the wires between them.
struct World {
    replicas: [PbrReplica; 2],
    disks: [Disk; 2],
    snapshot_every: i64,
    /// Frames on their way to each replica from the other, FIFO like the
    /// TCP connection they model.
    wire: [VecDeque<Msg>; 2],
    /// Each replica's zero-delay self-sends (its scheduled `sdb/sync`s)
    /// and the sync completions its disk reported (`sdb/synced`).
    inbox: [VecDeque<Msg>; 2],
    /// The completion sink installed on this thread, and each replica's
    /// incarnation: a completion for a dead one is dropped.
    posted: Arc<Collected>,
    incarnation: [u64; 2],
    /// The disks are virtual: each reports its sync at hand-off, and
    /// [`World::sync`] delivers that report with the sync.
    virtual_disks: bool,
    /// Per client: the last submission sent and its sequence number.
    submitted: Vec<Option<(i64, Msg)>>,
    /// `(client, cseq)` → execution index, read off the primary's forwards.
    /// No configuration is ever adopted here, so the WAL index of a
    /// transaction's record equals its execution index at both replicas.
    index_of: HashMap<(Loc, i64), i64>,
    /// Highest cseq answered per client, and how many acks left the backup.
    answered: Vec<i64>,
    acks: usize,
}

impl World {
    /// The pair over virtual disks: a sync is durable at hand-off, and its
    /// `sdb/synced` is delivered with it (time stands still here).
    fn new(snapshot_every: i64) -> World {
        World::over(snapshot_every, true, || Disk::in_memory(Duration::ZERO))
    }

    /// The pair over deferred disks: each sync completes when the test
    /// calls [`World::complete`].
    fn deferred(snapshot_every: i64) -> World {
        World::over(snapshot_every, false, || {
            Disk::in_memory_deferred(Duration::ZERO)
        })
    }

    fn over(snapshot_every: i64, virtual_disks: bool, disk: impl Fn() -> Disk) -> World {
        let disks = [disk(), disk()];
        let posted = Arc::new(Collected::default());
        completion::install_sink(posted.clone());
        World {
            replicas: [PRIMARY, BACKUP].map(|i| replica(&disks[i], snapshot_every)),
            disks: disks.clone(),
            snapshot_every,
            wire: [VecDeque::new(), VecDeque::new()],
            inbox: [VecDeque::new(), VecDeque::new()],
            posted,
            incarnation: [1, 1],
            virtual_disks,
            submitted: vec![None; CLIENTS],
            index_of: HashMap::new(),
            answered: vec![-1; CLIENTS],
            acks: 0,
        }
    }

    /// The observer: what one emitted send claims, against the disks.
    fn observe(&mut self, from: usize, send: &SendInstr) -> Result<(), Violation> {
        let on_disk = |disk: &Disk, idx: i64| {
            let rec = recover(disk);
            // Where the record itself is still in the log, it must be the
            // transaction the index names.
            for (i, body) in &rec.records {
                let env = TxnEnvelope::from_value(body.snd().expect("tagged record"))
                    .expect("a transaction record");
                assert_eq!(self.index_of.get(&(env.client, env.cseq)), Some(i));
            }
            // (Index 0 vouches for nothing; an empty disk reads as -1.)
            rec.high_index().max(0) >= idx
        };
        let h = send.msg.header.name();
        if h == FORWARD_HEADER {
            let (idx, env) = send.msg.body.snd().expect("forward body").unpair();
            let env = TxnEnvelope::from_value(env).expect("forwarded envelope");
            self.index_of.insert((env.client, env.cseq), idx.int());
        } else if h == ACK_HEADER && from == BACKUP {
            let idx = send.msg.body.snd().and_then(Value::fst).expect("ack").int();
            self.acks += 1;
            if !on_disk(&self.disks[BACKUP], idx) {
                return Err(Violation(format!(
                    "ack for {idx} left before the backup's sync"
                )));
            }
        } else if h == REPLY_HEADER {
            let reply = parse_reply(&send.msg).expect("a reply");
            let idx = self.index_of[&(send.dest, reply.cseq)];
            for (who, name) in [(PRIMARY, "primary"), (BACKUP, "backup")] {
                if !on_disk(&self.disks[who], idx) {
                    return Err(Violation(format!(
                        "reply for {idx} left without the record on the {name}'s disk"
                    )));
                }
            }
            let k = (send.dest.index() - CLIENT_BASE) as usize;
            self.answered[k] = self.answered[k].max(reply.cseq);
        }
        Ok(())
    }

    /// Steps replica `who` on `msg`, observes every send, and routes them.
    fn step(&mut self, who: usize, msg: &Msg) -> Result<(), Violation> {
        let slf = Loc::new(who as u32);
        let ctx = Ctx::new(slf, VTime::from_millis(1));
        let replica = &mut self.replicas[who];
        let outs = completion::stepping(slf, self.incarnation[who], || replica.step(&ctx, msg));
        self.collect_completions();
        for send in outs {
            self.observe(who, &send)?;
            if send.dest == slf {
                if send.delay.is_zero() {
                    self.inbox[who].push_back(send.msg);
                } // heartbeat timers: time stands still here
            } else if send.dest.index() < 2 {
                self.wire[send.dest.index() as usize].push_back(send.msg);
            }
        }
        Ok(())
    }

    /// Client `k` submits its next deposit.
    fn submit(&mut self, k: usize) -> Result<(), Violation> {
        let cseq = self.submitted[k].as_ref().map_or(0, |(c, _)| c + 1);
        let txn = TxnRequest::BankDeposit {
            account: (k as i64 * 5 + cseq) % ROWS as i64,
            amount: 3,
        };
        let msg = submit_msg(&TxnEnvelope::new(client(k), cseq, txn));
        self.submitted[k] = Some((cseq, msg.clone()));
        self.step(PRIMARY, &msg)
    }

    /// Client `k` retransmits its last submission (if it made one).
    fn resubmit(&mut self, k: usize) -> Result<(), Violation> {
        match self.submitted[k].clone() {
            Some((_, msg)) => self.step(PRIMARY, &msg),
            None => Ok(()),
        }
    }

    /// Delivers the oldest frame in flight to `who`, if any.
    fn deliver(&mut self, who: usize) -> Result<(), Violation> {
        match self.wire[who].pop_front() {
            Some(msg) => self.step(who, &msg),
            None => Ok(()),
        }
    }

    /// Moves what the disks reported into the inboxes of the incarnations
    /// that handed the syncs off, dropping reports for dead ones.
    fn collect_completions(&mut self) {
        for (loc, epoch, _, msg) in self.posted.take() {
            let who = loc.index() as usize;
            if epoch == self.incarnation[who] {
                self.inbox[who].push_back(msg);
            }
        }
    }

    /// `who`'s disk completes the sync handed to it, if one is in flight.
    fn complete(&mut self, who: usize) -> bool {
        let done = self.disks[who].complete_next();
        self.collect_completions();
        done
    }

    /// Delivers `who`'s scheduled `sdb/sync` — or, when none is scheduled,
    /// a stray one (a previous incarnation's can outlive a restart). Over
    /// virtual disks the `sdb/synced` a step's hand-off posted follows at
    /// once, with the next sync it may hand off.
    fn sync(&mut self, who: usize) -> Result<(), Violation> {
        let msg = self.inbox[who]
            .pop_front()
            .unwrap_or_else(|| Msg::new(SYNC_HEADER, Value::Unit));
        self.step(who, &msg)?;
        let reported = |m: &Msg| m.header.name() == SYNCED_HEADER;
        while self.virtual_disks && self.inbox[who].back().is_some_and(reported) {
            let synced = self.inbox[who].pop_back().expect("a report");
            self.step(who, &synced)?;
        }
        Ok(())
    }

    /// The backup loses power: its process, its self-sends and the frames
    /// in flight to it are gone, the disk keeps a `seed`-chosen prefix of
    /// the unsynced tail, and a new incarnation recovers from it (in its
    /// first step) and asks the primary for what it missed. What the dead
    /// incarnation had already put on the wire still arrives.
    fn power_cut_backup(&mut self, seed: u64) -> Result<(), Violation> {
        self.replicas[BACKUP] = replica(&self.disks[BACKUP], self.snapshot_every).rebooted(seed);
        self.incarnation[BACKUP] += 1;
        self.wire[BACKUP].clear();
        self.inbox[BACKUP].clear();
        self.step(BACKUP, &PbrReplica::start_msg())
    }

    /// Delivers everything outstanding, and completes every sync in
    /// flight, until nothing is.
    fn quiesce(&mut self) -> Result<(), Violation> {
        let mut busy = true;
        while busy {
            busy = false;
            for who in [PRIMARY, BACKUP] {
                busy |= self.complete(who);
                busy |= !self.wire[who].is_empty() || !self.inbox[who].is_empty();
                self.deliver(who)?;
                if !self.inbox[who].is_empty() {
                    self.sync(who)?;
                }
            }
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum Op {
    Submit(usize),
    Resubmit(usize),
    Deliver(usize),
    Sync(usize),
    Complete(usize),
    PowerCutBackup(u64),
}

impl Op {
    fn apply(self, w: &mut World) -> Result<(), Violation> {
        match self {
            Op::Submit(k) => w.submit(k),
            Op::Resubmit(k) => w.resubmit(k),
            Op::Deliver(who) => w.deliver(who),
            Op::Sync(who) => w.sync(who),
            Op::Complete(who) => {
                w.complete(who);
                Ok(())
            }
            Op::PowerCutBackup(seed) => w.power_cut_backup(seed),
        }
    }
}

/// Deliveries dominate, power cuts are rare: weights 4/1/8/4/1 of 18.
fn op() -> impl Strategy<Value = Op> {
    ops(18)
}

/// [`op`] over deferred disks: disk completions join in, as often as the
/// syncs that deliver what they report (weights 4/1/8/4/1/4 of 22).
fn async_op() -> impl Strategy<Value = Op> {
    ops(22)
}

fn ops(kinds: u32) -> impl Strategy<Value = Op> {
    (0..kinds, any::<u64>()).prop_map(|(kind, x)| match kind {
        0..=3 => Op::Submit(x as usize % CLIENTS),
        4 => Op::Resubmit(x as usize % CLIENTS),
        5..=12 => Op::Deliver(x as usize % 2),
        13..=16 => Op::Sync(x as usize % 2),
        17 => Op::PowerCutBackup(x),
        _ => Op::Complete(x as usize % 2),
    })
}

/// Runs `ops` on `w` from a fresh start and checks the end state: every
/// ack and reply passed the observer on the way, and once the dust
/// settles every client has its answer.
fn run_ops(mut w: World, ops: Vec<Op>) -> Result<(), TestCaseError> {
    w.step(PRIMARY, &PbrReplica::start_msg())?;
    w.step(BACKUP, &PbrReplica::start_msg())?;
    for op in ops {
        op.apply(&mut w)?;
    }
    w.quiesce()?;
    for k in 0..CLIENTS {
        let last = w.submitted[k].as_ref().map_or(-1, |(c, _)| *c);
        prop_assert!(w.answered[k] == last, "client {k} left unanswered");
    }
    if w.submitted.iter().any(Option::is_some) {
        prop_assert!(w.acks > 0, "replies without a single ack");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Under any interleaving of submissions, retransmissions, forward and
    /// ack deliveries, syncs at either replica and backup power cuts, every
    /// ack and every reply finds its record on the disks it vouches for —
    /// and once the dust settles every client has its answer.
    #[test]
    fn no_acknowledgment_leaves_before_its_fsync(
        ops in proptest::collection::vec(op(), 1..160),
    ) {
        // A short snapshot interval puts the fold-into-snapshot sync (and
        // its log truncation) on the path as well.
        run_ops(World::new(8), ops)?;
    }

    /// The same, with every sync handed to a disk that completes it
    /// whenever the schedule says: immediately, after further appends
    /// and forwards at either replica, or never before the backup loses
    /// power. Completions are messages like any other — delivered late,
    /// or to an incarnation that is gone.
    #[test]
    fn no_acknowledgment_leaves_before_its_fsync_on_asynchronous_disks(
        ops in proptest::collection::vec(async_op(), 1..160),
    ) {
        run_ops(World::deferred(8), ops)?;
    }

    /// Group commit, counted: k forwards followed by one `sdb/sync` cost
    /// the backup exactly one disk sync and release exactly k acks — and
    /// the k submissions cost the primary one, too.
    #[test]
    fn k_forwards_share_one_sync(k in 1..=CLIENTS) {
        let mut w = World::new(1_000);
        for c in 0..k {
            w.submit(c)?;
        }
        // The forwards replicate ahead of the one sync the k appends share.
        prop_assert_eq!((w.wire[BACKUP].len(), w.inbox[PRIMARY].len()), (k, 1));
        for _ in 0..k {
            w.deliver(BACKUP)?;
        }
        prop_assert_eq!((w.acks, w.disks[BACKUP].sync_count()), (0, 0));
        prop_assert_eq!(w.inbox[BACKUP].len(), 1);
        w.sync(BACKUP)?;
        prop_assert_eq!((w.acks, w.disks[BACKUP].sync_count()), (k, 1));
        prop_assert!(w.inbox[BACKUP].is_empty(), "nothing left to sync");

        // All acks in, nothing answered: the primary's own record is not
        // durable yet. Its one sync releases all k replies.
        for _ in 0..k {
            w.deliver(PRIMARY)?;
        }
        prop_assert!(w.answered.iter().all(|a| *a == -1));
        w.sync(PRIMARY)?;
        prop_assert_eq!(w.disks[PRIMARY].sync_count(), 1);
        prop_assert_eq!(w.answered.iter().filter(|a| **a == 0).count(), k);
    }

    /// Records a tear erased are never acknowledged: forwards that were
    /// logged but not synced when the power went produce no ack from the
    /// dead incarnation, and the new one acknowledges them only after
    /// logging and syncing them again (the observer checks each).
    #[test]
    fn torn_records_are_never_acknowledged(seed in any::<u64>(), k in 1..=CLIENTS) {
        let mut w = World::new(1_000);
        for c in 0..k {
            w.submit(c)?;
            w.deliver(BACKUP)?;
        }
        w.power_cut_backup(seed)?;
        prop_assert!(w.acks == 0, "an unsynced record was acknowledged");
        prop_assert!(w.wire[PRIMARY].iter().all(|m| m.header.name() != ACK_HEADER));
        w.quiesce()?;
        prop_assert_eq!(w.answered.iter().filter(|a| **a == 0).count(), k);
    }
}

/// A sync that completes late releases exactly what it covers: the
/// backup's first forward is acknowledged when its sync reports, the
/// forward that arrived while that sync was in flight goes into the next
/// one and waits for that report.
#[test]
fn a_late_completion_releases_only_what_it_covers() {
    let mut w = World::deferred(1_000);
    w.submit(0).unwrap();
    w.deliver(BACKUP).unwrap();
    w.sync(BACKUP).unwrap(); // hands record 1 off
    w.submit(1).unwrap();
    w.deliver(BACKUP).unwrap(); // record 2, appended meanwhile
    assert_eq!(
        (w.acks, w.inbox[BACKUP].len()),
        (0, 0),
        "nothing reported yet"
    );
    assert!(w.complete(BACKUP));
    w.sync(BACKUP).unwrap(); // `sdb/synced` for 1; record 2 handed off
    assert_eq!(w.acks, 1, "the ack for 1, not for 2");
    assert!(w.complete(BACKUP));
    w.sync(BACKUP).unwrap();
    assert_eq!(w.acks, 2);
    assert_eq!(w.disks[BACKUP].sync_count(), 2);
}

/// A completion names the opening of the log it belongs to: replayed into
/// the incarnation that rebooted from the same disk — here claiming more
/// than any sync of the old one covered — it releases nothing, and the new
/// incarnation's own sync still does.
#[test]
fn a_stale_generation_is_ignored() {
    let mut w = World::deferred(1_000);
    w.submit(0).unwrap();
    w.deliver(BACKUP).unwrap();
    w.sync(BACKUP).unwrap();
    assert!(w.complete(BACKUP));
    let old = w.inbox[BACKUP]
        .front()
        .cloned()
        .expect("`sdb/synced` posted");
    w.sync(BACKUP).unwrap();
    assert_eq!(w.acks, 1);

    w.power_cut_backup(0).unwrap();
    w.quiesce().unwrap(); // the reboot catches up
    let acks = w.acks;
    w.submit(1).unwrap();
    w.deliver(BACKUP).unwrap(); // record 2, into the new incarnation's log
    w.sync(BACKUP).unwrap(); // handed off, not completed
    let claim = Value::pair(old.body.fst().expect("generation").clone(), Value::Int(100));
    w.step(BACKUP, &Msg::new(old.header, claim)).unwrap();
    assert_eq!(w.acks, acks, "a stale completion released an ack");
    assert!(w.complete(BACKUP));
    w.sync(BACKUP).unwrap();
    assert_eq!(w.acks, acks + 1);
}

/// The observer has teeth: run against a disk that lied about a sync — the
/// backup acknowledged, then the group it had "synced" turned out not to
/// be there — the same checks must fail, at the reply that vouches for the
/// lost record.
#[test]
fn a_lying_disk_fails_the_observer() {
    let mut w = World::new(1_000);
    w.submit(0).unwrap();
    w.sync(PRIMARY).unwrap();
    w.deliver(BACKUP).unwrap();
    let before_group = w.disks[BACKUP].synced_len();
    w.sync(BACKUP).unwrap();
    assert_eq!(w.acks, 1, "the honest part of the run passes the observer");
    w.disks[BACKUP].truncate_synced(before_group);
    let verdict = w.deliver(PRIMARY);
    assert_eq!(
        verdict,
        Err(Violation(
            "reply for 1 left without the record on the backup's disk".into()
        ))
    );
}

/// And on asynchronous disks: a syncer that reports a sync at hand-off,
/// before its bytes are durable, lets the backup's ack out ahead of the
/// fsync — which the same observer catches.
#[test]
fn a_syncer_reporting_at_hand_off_fails_the_observer() {
    let mut w = World::deferred(1_000);
    w.disks[BACKUP].report_at_hand_off();
    w.submit(0).unwrap();
    w.deliver(BACKUP).unwrap();
    w.sync(BACKUP).unwrap(); // hands off, and "completes" at once
    let verdict = w.sync(BACKUP); // the premature `sdb/synced`
    assert_eq!(
        verdict,
        Err(Violation("ack for 1 left before the backup's sync".into()))
    );
}
