//! State machine replication (Sec. III-B).
//!
//! "With state machine replication, all transactions are ordered by the
//! total order broadcast service": (i) the client broadcasts `T` to all
//! replicas using the service; (ii) upon delivering `T`, each database
//! executes and commits the transaction and sends the answer to the
//! client; (iii) the client waits for the first answer.
//!
//! "When a replica crashes, the protocol proceeds normally with no
//! interruptions as long as at least one replica survives." Adding a
//! replica is a reconfiguration broadcast: the request carries the
//! sequence number of the last ordered transaction, and the new replica
//! fetches the snapshot from the proposer.
//!
//! A replica that is behind — a joiner or one rebooted from its disk —
//! subscribes through the core, whose first ack opens its fetch (`from =
//! -1` asks for an image, `min` is the ack's seq), asking its donors in
//! turn, one more each second. A donor's core defers until its stream has
//! reached `min`; then it sends the core's answer (`ReplicaCore::
//! state_for`) bare. Only a durable replica keeps a window to answer
//! from: its rebooted peers are the window's readers.

use crate::msgs::{
    parse_fetch, TxnEnvelope, CATCHUP_HEADER, FETCH_HEADER, FETCH_RETRY_HEADER, LEASE_TIMER_HEADER,
    SNAPSHOT_HEADER, STALE_CONFIG_HEADER, SUBMIT_HEADER, SYNCED_HEADER, SYNC_HEADER,
};
use crate::probe::Probe;
pub use crate::replica_core::SmrLeaseOptions;
use crate::replica_core::{parse_lease_marker, Executed, ReplicaCore, Seen};
use crate::shard::ShardRole;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::Database;
use shadowdb_tob::{parse_deliver, parse_subok, Delivery};
use shadowdb_wal::Disk;
use shadowdb_workloads::TxnRequest;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// How long a fetch waits for an answer before it asks the next donor.
const FETCH_RETRY: Duration = Duration::from_secs(1);
/// The window a durable replica keeps to serve a rebooted peer's
/// catch-up: its last this many deliveries.
const REJOIN_WINDOW: usize = 4_096;

/// An SMR ShadowDB replica: a broadcast-service subscriber executing every
/// delivered transaction — the SMR ordering policy over a [`ReplicaCore`].
#[derive(Clone)]
pub struct SmrReplica {
    /// The replicated service: database, reply cache, executed counter,
    /// 2PC engine, WAL (one record per in-order delivery, keyed by its TOB
    /// sequence number), the window of recent deliveries, state transfer,
    /// the delivery stream.
    core: ReplicaCore,
    /// Reusable envelope buffer for group apply (always empty between
    /// steps; excluded from digests).
    group_scratch: Vec<TxnEnvelope>,
    /// Stagger rank of this replica's lease claims: rank 0 claims a
    /// lapsed lease first, higher ranks wait `rank * renew_every` longer,
    /// so the group converges on a single claimant without a
    /// coordination round.
    claim_rank: u64,
    /// Rebooted after a power loss: the first step recovers from the
    /// attached disk, tearing its unsynced tail from this seed.
    reboot: Option<u64>,
}

impl SmrReplica {
    /// Creates a replica that executes from sequence number 0.
    pub fn new(db: Database) -> SmrReplica {
        SmrReplica {
            core: ReplicaCore::new(db),
            group_scratch: Vec::new(),
            claim_rank: 0,
            reboot: None,
        }
    }

    /// Enables the lease-based read fast path: markers broadcast through
    /// `tob_servers` elect a holder that answers read-only transactions
    /// from its local database without a broadcast round. `claim_rank`
    /// staggers lapse claims (rank 0 moves first), and every delivered
    /// marker counts. A replica that adopts state it did not watch being
    /// ordered — a reboot's WAL replay, a joiner's snapshot — re-anchors
    /// the lease itself (the core's `reanchor_lease`), so the builder
    /// steps chain in any order.
    pub fn with_read_leases(
        mut self,
        tob_servers: Vec<Loc>,
        claim_rank: u64,
        opts: SmrLeaseOptions,
    ) -> SmrReplica {
        assert!(!tob_servers.is_empty(), "leases need a TOB entry point");
        self.core.set_tob_servers(tob_servers);
        self.core.enable_lease(opts);
        self.claim_rank = claim_rank;
        self
    }

    /// Places this replica's group inside a sharded deployment: its shard,
    /// the shard map, and routes to every other group. Activates the 2PC
    /// engine on the delivery path. A snapshot joiner built with the
    /// group's role adopts the donor's engine state and emission counters
    /// along with the rows.
    pub fn with_role(mut self, role: ShardRole) -> SmrReplica {
        self.core.set_role(role);
        self
    }

    /// Creates a joiner (a replica added by reconfiguration), which
    /// executes nothing before a snapshot lands: its stream is held until
    /// the image anchors it. Its subscription ack opens an image fetch
    /// ([`SmrReplica::fetch_msg`]) with the ack's sequence as `min_seq` —
    /// the donor defers until its stream reaches that point, so the
    /// snapshot plus the subscribed deliveries form a gapless history —
    /// asking `donors` in turn until one answers.
    pub fn joining_from(db: Database, donors: Vec<Loc>) -> SmrReplica {
        assert!(!donors.is_empty(), "a joiner needs at least one donor");
        let mut r = SmrReplica::new(db);
        r.core.subscribe(None);
        r.core.set_donors(donors, FETCH_RETRY);
        r
    }

    /// Names the peers this replica fetches from when its stream stalls
    /// behind a gap — deliveries it missed, say to a partition — for one
    /// fetch period (`ReplicaCore::check_gap`).
    pub(crate) fn with_donors(mut self, donors: Vec<Loc>) -> SmrReplica {
        self.core.set_donors(donors, FETCH_RETRY);
        self
    }

    /// Attaches a write-ahead log: every in-order delivery is appended
    /// (keyed by its TOB sequence number) and synced at the replica's next
    /// `sdb/sync`, which its replies wait for, with a durable snapshot at
    /// most every `snapshot_every` deliveries. A durable replica also keeps its
    /// last 4 096 deliveries in the core's window, so it can catch up a
    /// rebooted peer as a donor.
    pub fn with_wal(mut self, disk: Disk, snapshot_every: i64) -> SmrReplica {
        self.core.set_window_limit(REJOIN_WINDOW);
        // Deliveries are logged under their own sequence numbers, from 0.
        self.core.attach_wal(disk, snapshot_every, -1, -1);
        self
    }

    /// Installs the deployment's observers: `probe` records this replica's
    /// lease reads, transfers and 2PC steps; `lease_audit` is the model
    /// checker's sink for lease reads.
    pub fn with_observers(mut self, probe: Option<Probe>, lease_audit: Option<Loc>) -> SmrReplica {
        self.core.observe(probe, lease_audit);
        self
    }

    /// Marks this replica — configured like the one that crashed,
    /// [`SmrReplica::with_wal`] included — as rebooted after a power loss.
    /// Its **first step** reads the disk back, at restart time and under
    /// the location the context supplies: `tear` resolves the torn unsynced
    /// tail, the latest snapshot is installed, the logged deliveries
    /// replayed, and the replica rejoins — the subscription ack tells it
    /// how far the group moved on, and `donors` serve the missed range from
    /// their windows (a snapshot only if the window does not reach back).
    pub fn rebooted(mut self, donors: Vec<Loc>, tear: u64) -> SmrReplica {
        self.reboot = Some(tear);
        self.with_donors(donors)
    }

    /// The recovery a [`SmrReplica::rebooted`] replica runs before
    /// handling its first message.
    fn recover(&mut self, ctx: &Ctx, tear: u64) {
        let (disk, rec) = self.core.recover(tear, ctx.now);
        // Snapshots are taken at `next_seq - 1` (the image's policy header
        // repeats the frontier; the WAL index already implies it).
        let snap_at = rec.snapshot.as_ref().map_or(-1, |(idx, _)| *idx);
        self.core.subscribe(Some(snap_at + 1));
        self.core.restart_window(snap_at + 1);
        // Replay the logged suffix through the normal execution path
        // (replies and 2PC sends are rendered and dropped; counters and
        // the reply cache advance exactly as they did pre-crash). The
        // replay also refills the window, so a just-recovered replica can
        // itself serve as a donor.
        self.feed(ctx.slf, None, rec.records, &mut Vec::new());
        let next = self.core.stream_next();
        self.core.resume_wal(disk, snap_at, next - 1);
        self.core.reanchor_lease(ctx.now);
    }

    /// The fetch of the deliveries from `from` on (`-1`: an image) once
    /// the donor's stream has reached `min_seq` ([`crate::msgs::fetch_msg`]).
    pub fn fetch_msg(requester: Loc, from: i64, min_seq: i64) -> Msg {
        crate::msgs::fetch_msg(requester, from, min_seq, 0)
    }

    /// Overrides the state-transfer batch bound (~50 KB by default).
    pub fn set_transfer_batch_bytes(&mut self, bytes: usize) {
        self.core.set_transfer_batch_bytes(bytes);
    }

    /// Number of transactions executed.
    pub fn executed(&self) -> i64 {
        self.core.executed()
    }

    /// A handle to this replica's database.
    pub fn database(&self) -> &Database {
        self.core.db()
    }

    /// Executes a run of in-order deliveries, group-applying consecutive
    /// transactions under one engine commit. A group flushes when a client
    /// reappears: duplicate suppression consults the reply cache, which
    /// must reflect the client's earlier request before its next one is
    /// examined.
    fn execute_deliveries<I>(
        &mut self,
        slf: Loc,
        now: Option<VTime>,
        ready: I,
        outs: &mut Vec<SendInstr>,
    ) where
        I: IntoIterator<Item = shadowdb_tob::Delivery>,
    {
        let mut group = std::mem::take(&mut self.group_scratch);
        group.clear();
        for d in ready {
            // Durability first: the raw delivery stream is what the WAL
            // mirrors (replay re-runs dedup and 2PC identically), and the
            // window is what donors serve rebooted peers from.
            self.core.remember(|| Executed::Payload(d.payload.clone()));
            self.core.wal_append(d.seq, &d.payload);
            if let Some((holder, send_us)) = parse_lease_marker(&d.payload) {
                // Suppression is evaluated at each group's flush, so the
                // envelopes before the marker must answer under the old
                // holder, those after it under the new one.
                self.flush_group(slf, now, &mut group, outs);
                self.core.install_marker(slf, now, holder, send_us);
                continue;
            }
            let Some(env) = TxnEnvelope::from_value(&d.payload) else {
                continue;
            };
            // 2PC records break the run and step the protocol engine:
            // they must see the database outside the group's shared
            // engine transaction.
            if self.core.is_twopc(&env) {
                self.flush_group(slf, now, &mut group, outs);
                self.step_twopc(slf, &env, outs);
                continue;
            }
            if group.iter().any(|g| g.client == env.client) {
                self.flush_group(slf, now, &mut group, outs);
            }
            // Duplicate suppression (client resends surface as fresh
            // broadcast msgids but identical cseq — or as duplicate
            // deliveries filtered by the InOrderBuffer already; both are
            // covered).
            if self.core.seen(env.client, env.cseq) != Seen::Fresh {
                if !self.core.replies_suppressed(slf, now) {
                    outs.extend(self.core.reply(slf, env.client));
                }
                continue;
            }
            group.push(env);
        }
        self.flush_group(slf, now, &mut group, outs);
        self.group_scratch = group;
    }

    /// Applies `group` as one engine transaction and emits replies in
    /// delivery order, with per-transaction dedup/cost bookkeeping.
    fn flush_group(
        &mut self,
        slf: Loc,
        now: Option<VTime>,
        group: &mut Vec<TxnEnvelope>,
        outs: &mut Vec<SendInstr>,
    ) {
        if group.is_empty() {
            return;
        }
        self.core.apply_run(group);
        // A suppressed reply is not lost: the reply cache advanced, so the
        // client's resend is answered the moment suppression lapses (or
        // by the holder meanwhile).
        if !self.core.replies_suppressed(slf, now) {
            // No client appears twice in a group, so each cache entry is
            // exactly this group's answer.
            outs.extend(group.iter().filter_map(|e| self.core.reply(slf, e.client)));
        }
        group.clear();
    }

    /// Steps the 2PC engine on an ordered record and emits the owed
    /// actions. Every replica of the group emits (SMR has no primary);
    /// a record is durable the moment the TOB service ordered it, so no
    /// acknowledgment gating is needed. Duplicates re-derive the owed
    /// sends from replicated state without mutating anything.
    fn step_twopc(&mut self, slf: Loc, env: &TxnEnvelope, outs: &mut Vec<SendInstr>) {
        let TxnRequest::TwoPc(rec) = &env.txn else {
            return;
        };
        // A record whose cseq is *below* the sender's high-water mark is
        // not dropped: peer emissions can reach the broadcast service out
        // of order (each source replica sequences its own sends), so an
        // "old" record may carry a protocol step this group never saw.
        // Stepping it again is safe — the engine is idempotent.
        outs.extend(match self.core.seen(env.client, env.cseq) {
            Seen::Duplicate => self.core.redrive_twopc(slf, rec.txnid()),
            _ => self.core.step_twopc(slf, env),
        });
    }

    /// Donor side of every fetch: answers `<requester, <from, min_seq>>`
    /// with the core's catch-up or image, whose policy header and
    /// identity are both the delivery frontier — the requester resumes the
    /// stream exactly there.
    fn on_fetch(&mut self, slf: Loc, msg: &Msg, outs: &mut Vec<SendInstr>) {
        let Some((requester, from, min_seq, _)) = parse_fetch(&msg.body) else {
            return;
        };
        if let Some(again) = self.core.defer_fetch(slf, msg, min_seq) {
            return outs.push(again);
        }
        let next = self.core.stream_next();
        let (header, bodies) = self.core.state_for(requester, from, Value::Int(next));
        let to = |b| SendInstr::now(requester, Msg::new(header, b));
        outs.extend(bodies.into_iter().map(to));
    }

    /// Feeds `(seq, payload)` items — a WAL replay, a donor's catch-up —
    /// through the stream as deliveries and executes what they release:
    /// they are logged, remembered, deduplicated, and answered exactly
    /// like live traffic (duplicate replies are harmless; clients drop
    /// them).
    fn feed<I>(&mut self, slf: Loc, now: Option<VTime>, items: I, outs: &mut Vec<SendInstr>)
    where
        I: IntoIterator<Item = (i64, Value)>,
    {
        let mut ready = Vec::new();
        for (seq, payload) in items {
            let d = Delivery {
                seq,
                client: slf,
                msgid: 0,
                payload,
            };
            ready.extend(self.core.offer(d));
        }
        self.execute_deliveries(slf, now, ready, outs);
    }

    /// Receiver side of a suffix rejoin: the donor's payloads, fed from
    /// the position it answered for.
    fn on_catchup(&mut self, slf: Loc, now: VTime, body: &Value, outs: &mut Vec<SendInstr>) {
        if self.core.fetching().is_none() {
            return;
        }
        let (from, list) = body.unpair();
        let items = list.elems().iter().enumerate();
        let items = items.map(|(k, p)| (from.int() + k as i64, p.clone()));
        self.feed(slf, Some(now), items, outs);
        let next = self.core.stream_next();
        if self.core.fetching().is_some_and(|min| next >= min) {
            // The suffix meets the live subscription: fully rejoined.
            self.core.fetched();
        }
    }

    fn on_snapshot_chunk(&mut self, slf: Loc, now: VTime, body: &Value, outs: &mut Vec<SendInstr>) {
        if self.core.anchored() && self.core.fetching().is_none() {
            return;
        }
        // The image carries the donor's `executed`, reply cache and — in a
        // sharded group — 2PC state, so this replica deduplicates and
        // drives cross-shard commits exactly as its donors do.
        let Some(next_seq) = self.core.accept_chunk(body).and_then(|h| h.as_int()) else {
            return;
        };
        self.core.fetched();
        // Skip everything the snapshot already covers, then replay whatever
        // arrived while joining; the image may cover a marker whose window
        // is still running, so the lease re-anchors here.
        let ready = self.core.anchor(next_seq, now);
        self.execute_deliveries(slf, Some(now), ready, outs);
    }

    /// A transaction submitted *directly* to this replica (not through the
    /// TOB): the client's read fast path. A valid holder answers read-only
    /// transactions from its local database; everything else is forwarded
    /// into the TOB under this replica's own broadcast identity, so the
    /// ordered path still answers the client (mis-flagged envelopes
    /// included — the flag is advisory, never trusted for writes).
    fn on_submit(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let Some(env) = TxnEnvelope::from_value(body) else {
            return;
        };
        if env.read_only && self.core.serve_fast_read(ctx, &env, outs) {
            return;
        }
        // No lease, so no TOB route of our own: drop, and the client's
        // broadcast resend covers the request.
        if self.core.has_lease() {
            outs.push(self.core.broadcast(ctx.slf, env.to_value()));
        }
    }
}

impl Process for SmrReplica {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if let Some(tear) = self.reboot.take() {
            self.recover(ctx, tear);
        }
        let first = out.len();
        let h = msg.header;
        if h == cached_header!(FETCH_HEADER) {
            self.on_fetch(ctx.slf, msg, out);
        } else if h == cached_header!(SNAPSHOT_HEADER) {
            self.on_snapshot_chunk(ctx.slf, ctx.now, &msg.body, out);
        } else if h == cached_header!(CATCHUP_HEADER) {
            self.on_catchup(ctx.slf, ctx.now, &msg.body, out);
        } else if h == cached_header!(SUBMIT_HEADER) {
            self.on_submit(ctx, &msg.body, out);
        } else if h == cached_header!(SYNC_HEADER) {
            let next = self.core.stream_next();
            self.core.sync(next - 1, || Value::Int(next));
        } else if h == cached_header!(SYNCED_HEADER) {
            // What it releases was checked entry by entry: no step gate.
            let next = self.core.stream_next();
            return self
                .core
                .on_synced(&msg.body, next - 1, || Value::Int(next), out);
        } else if h == cached_header!(LEASE_TIMER_HEADER) {
            // Any replica may claim, rank-staggered; every marker counts.
            self.core.on_lease_tick(ctx, Some(self.claim_rank), out);
        } else if h == cached_header!(FETCH_RETRY_HEADER) {
            self.core.on_fetch_retry(ctx.slf, out);
        } else if h == cached_header!(STALE_CONFIG_HEADER) {
            self.core.on_stale_config(msg);
        } else if let Some(seq) = parse_subok(msg) {
            // A joiner asks for an image. A disk-recovered replica runs the
            // catch-up handshake even when its disk already reaches the
            // subscription point (the suffix is then empty): the donor's
            // answer is the observable record that the rejoin took the
            // suffix path, and an empty catch-up completes it at once.
            let from = match self.core.anchored() {
                true => self.core.stream_next(),
                false => -1,
            };
            let ready = self.core.on_subok(ctx, seq, from, out);
            self.execute_deliveries(ctx.slf, Some(ctx.now), ready, out);
        } else if let Some(d) = parse_deliver(msg) {
            let ready = self.core.offer(d);
            self.execute_deliveries(ctx.slf, Some(ctx.now), ready, out);
        }
        // Durability before visibility: whatever this step sent — replies,
        // 2PC emissions, fast-path reads — waits for the sync that covers
        // every delivery logged so far. Nothing replicates ahead: the
        // broadcast service, not this replica, carries the records.
        let last = self.core.stream_next() - 1;
        self.core.gate_step(ctx.slf, last, first, out, |_| false);
        // A fetch for deliveries the stream missed vouches for nothing.
        self.core.check_gap(ctx.slf, ctx.now, out);
    }

    fn take_step_cost(&mut self) -> Duration {
        self.core.take_step_cost()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.core.executed().hash(&mut h);
        self.core.digest_requests(&mut h);
        self.core.twopc_seq().hash(&mut h);
        self.core.digest_lease(&mut h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::REPLY_HEADER;
    use crate::replica_core::LEASE_MARKER_TAG;
    use shadowdb_runtime::completion::{self, Collected};
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_tob::DELIVER_HEADER;
    use shadowdb_workloads::bank;
    use std::sync::Arc;

    const TOB: Loc = Loc::new(9);
    const SLF: Loc = Loc::new(1);
    const CLIENT: Loc = Loc::new(20);

    /// A durable lease replica over `disk`, as the deployment's recipe
    /// chains the builder steps.
    fn replica(disk: &Disk) -> SmrReplica {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 4).expect("bank loads");
        SmrReplica::new(db)
            .with_wal(disk.clone(), 1_000)
            .with_read_leases(vec![TOB], 1, SmrLeaseOptions::default())
    }

    fn deliver(seq: i64, payload: Value) -> Msg {
        let rest = Value::pair(Value::Loc(TOB), Value::pair(Value::Int(0), payload));
        Msg::new(DELIVER_HEADER, Value::pair(Value::Int(seq), rest))
    }

    fn deposit(cseq: i64) -> Value {
        let txn = TxnRequest::BankDeposit {
            account: 0,
            amount: 5,
        };
        TxnEnvelope::new(CLIENT, cseq, txn).to_value()
    }

    /// Steps `r` on `msg`, then on the `sdb/sync` it scheduled, if any,
    /// and on the `sdb/synced` its disk reported; returns how many client
    /// replies left.
    fn replies(r: &mut SmrReplica, at: VTime, msg: &Msg) -> usize {
        let ctx = Ctx::new(SLF, at);
        let posted = Arc::new(Collected::default());
        completion::install_sink(posted.clone());
        let mut step = |msg: &Msg| completion::stepping(SLF, 0, || r.step(&ctx, msg));
        let mut outs = step(msg);
        if outs.iter().any(|s| s.msg.header.name() == SYNC_HEADER) {
            outs.extend(step(&Msg::new(SYNC_HEADER, Value::Unit)));
            for (.., synced) in posted.take() {
                outs.extend(step(&synced));
            }
        }
        let reply = |s: &&SendInstr| s.msg.header.name() == REPLY_HEADER;
        outs.iter().filter(reply).count()
    }

    /// A replica whose stream stalls behind a gap — delivery 1 never came
    /// — executes nothing past it, and once the gap has lasted half a
    /// fetch period it arms a check for one fetch period after the gap
    /// opened. The check asks a donor for the deliveries from 1 on, once
    /// the donor has reached the first one held (2); its catch-up fills
    /// the gap and leaves the buffer empty.
    #[test]
    fn a_gap_in_the_stream_is_fetched_after_one_fetch_period() {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 4).expect("bank loads");
        let donor = Loc::new(0);
        let mut r = SmrReplica::new(db).with_donors(vec![donor]);
        let step =
            |r: &mut SmrReplica, ms, msg: &Msg| r.step(&Ctx::new(SLF, VTime::from_millis(ms)), msg);
        assert_eq!(step(&mut r, 0, &deliver(0, deposit(0))).len(), 1, "a reply");
        assert!(step(&mut r, 1, &deliver(2, deposit(2))).is_empty(), "held");
        let check = Msg::new(FETCH_RETRY_HEADER, Value::Unit);
        assert!(step(&mut r, 400, &deliver(3, deposit(3))).is_empty());
        let armed = SendInstr::after(Duration::from_millis(399), SLF, check.clone());
        assert_eq!(step(&mut r, 602, &deliver(4, deposit(4))), vec![armed]);
        let fetch = SendInstr::now(donor, crate::msgs::fetch_msg(SLF, 1, 2, 0));
        assert!(step(&mut r, 1_001, &check).contains(&fetch));
        let catchup = Value::pair(Value::Int(1), Value::list([deposit(1)]));
        let outs = step(&mut r, 1_002, &Msg::new(CATCHUP_HEADER, catchup));
        let reply = |s: &&SendInstr| s.msg.header.name() == REPLY_HEADER;
        assert_eq!(outs.iter().filter(reply).count(), 4);
        assert_eq!((r.executed(), r.core.stream_next()), (5, 5));
        assert!(!r.core.rejoining(), "the fetch closed");
        assert_eq!(step(&mut r, 1_003, &deliver(5, deposit(5))).len(), 1);
    }

    /// Durability × leases, pinned: a marker the WAL replays carries no
    /// receipt time, so it opens no suppression window by itself — the
    /// rebooted replica must re-anchor at its first live step and sit out
    /// one whole lease length, whatever its own clock said when the
    /// replayed marker was first delivered.
    #[test]
    fn a_rebooted_replica_acknowledges_nothing_for_one_lease_length() {
        let disk = Disk::in_memory(Duration::ZERO);
        let lease = SmrLeaseOptions::default().lease_duration;
        let holder = Value::pair(Value::Loc(Loc::new(0)), Value::Int(1_000_000));
        let marker = Value::pair(Value::str(LEASE_MARKER_TAG), holder);

        // Before the crash: another replica's marker, then a write inside
        // its window — executed, logged, not acknowledged.
        let mut first = replica(&disk);
        let t = VTime::from_secs(1);
        assert_eq!(replies(&mut first, t, &deliver(0, marker)), 0);
        assert_eq!(replies(&mut first, t, &deliver(1, deposit(0))), 0);

        // The reboot lands after that window ran out on the old clock. Its
        // first step replays both records and re-anchors at its own now.
        let mut second = replica(&disk).rebooted(vec![Loc::new(0)], 7);
        let boot = t + lease + lease;
        assert_eq!(replies(&mut second, boot, &deliver(2, deposit(1))), 0);
        assert_eq!(second.executed(), 2, "replayed one write, executed one");
        let inside = boot + (lease - Duration::from_millis(1));
        assert_eq!(replies(&mut second, inside, &deliver(3, deposit(2))), 0);
        assert_eq!(
            replies(&mut second, boot + lease, &deliver(4, deposit(3))),
            1
        );
    }
}
