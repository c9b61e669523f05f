//! The replicated service both ordering policies drive.
//!
//! The paper's PBR and SMR differ in *who orders* transactions; below the
//! ordering they are the same thing — an unmodified SQL engine plus
//! per-client-sequence-number duplicate suppression. [`ReplicaCore`] is
//! that thing, once: the database handle, the reply cache, the executed
//! counter, grouped apply, 2PC engine hosting, the write-ahead log's
//! durability point and the acknowledgments parked behind it, the bounded
//! window of recently executed items ("each replica only caches a limited
//! number of executed transactions", Sec. III-A), and the donor's answer
//! to a peer that is behind: the items it missed, or else the state image
//! in ~50 KB chunks — the replica's own requests: the fetch it sends its
//! donors in turn when it is behind, and its broadcast identity — and its
//! subscription to the group's ordered stream: the in-order buffer, held
//! until an anchor says where the stream starts for a replica that joins
//! or reboots, and the donor's wait until its stream has reached the point
//! a fetch asks for — and the one read lease: a marker ordered through
//! that stream names the holder, which serves reads locally while every
//! other replica acknowledges nothing. `pbr` and `smr` keep only their
//! ordering policy (who orders and replies, who may claim the lease and
//! which delivered markers count, what a WAL record is, what a delivery
//! does, who answers a fetch and when an answer applies) and call into
//! this module.
//!
//! The core defines the **one state image** a replica is rebuilt from,
//! whether it comes off the local disk or over the network:
//!
//! ```text
//! <executed, <policy header, <reply cache, 2PC state>>>   (the head)
//! row data                                                (the rows)
//! ```
//!
//! The policy header is opaque here (PBR: its configuration-chain
//! position; SMR: its delivery frontier). The reply cache is mandatory in
//! both uses: without it a rebuilt replica would re-execute a
//! retransmitted transaction its peers answer from cache. A durable
//! snapshot stores the head beside one row blob; a network transfer sends
//! the head once, with the first of the ~50 KB row chunks.

use crate::msgs::{
    fetch_msg, lease_audit_msg, parse_stale_config, reply_msg, sql_to_value, value_to_sql,
    TxnEnvelope, CATCHUP_HEADER, FETCH_RETRY_HEADER, LEASE_TIMER_HEADER, SNAPSHOT_HEADER,
    SYNCED_HEADER, SYNC_HEADER,
};
use crate::probe::{Event, Probe, TransferKind};
use crate::shard::{ShardRole, TwoPcEngine};
use bytes::BytesMut;
use shadowdb_eventml::codec::encode_pair_with_bytes;
use shadowdb_eventml::{cached_header, Ctx, Msg, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::completion;
use shadowdb_sqldb::{Database, Effects, RowBatch, Snapshot, SqlValue};
use shadowdb_tob::{broadcast_msg, Delivery, InOrderBuffer};
use shadowdb_wal::{Disk, Recovered, Wal};
use shadowdb_workloads::{apply_group, TxnId, TxnRequest};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// How a request's client sequence number relates to the reply cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Seen {
    /// Above everything seen from this client: new work.
    Fresh,
    /// Equal to the last one seen: a retransmission.
    Duplicate,
    /// Below the last one seen.
    Stale,
}

/// `ReplicaCore::durable` after a network image install: the disk's log
/// and snapshot describe a state this replica has jumped past, so nothing
/// gates open and the next sync takes a durable snapshot regardless of the
/// interval — the disk never shows a log with a gap in it.
const NOTHING_DURABLE: i64 = i64::MIN;

/// Tag of a lease marker ordered through the group's stream:
/// `<"lease!", <holder, send_ts_us>>`. Markers ride the ordinary delivery
/// stream, so every replica observes the same holder sequence at the same
/// positions.
pub(crate) const LEASE_MARKER_TAG: &str = "lease!";

/// Tuning for the read-lease fast path, under either ordering policy. The
/// ordered stream remains the write path; a marker ordered through it
/// names one replica (the holder) whose database provably reflects every
/// acknowledged write, because every *other* replica acknowledges nothing
/// while the marker is fresh — during the lease only the holder
/// acknowledges, and anything the holder acknowledged it has executed.
/// (Under PBR only a primary acknowledges: a new one starts only once its
/// predecessor's last marker is stale.)
#[derive(Clone, Debug)]
pub struct SmrLeaseOptions {
    /// Lease length `D`: a marker delivered at local time `t` suppresses
    /// a non-holder's replies until `t + D`, while the holder's fast
    /// window ends at `send_ts + D - margin` on its own clock. Delivery
    /// follows the send, so the suppression horizon dominates the fast
    /// window at every non-holder.
    pub lease_duration: Duration,
    /// Clock-*rate* safety margin subtracted from the holder's window
    /// (virtual clocks are exact, so simulation runs keep this zero).
    pub lease_margin: Duration,
    /// Holder renewal period, also the unit of SMR's claim stagger; `D/4`
    /// keeps the lease continuously covered with slack for TOB latency.
    pub renew_every: Duration,
}

impl Default for SmrLeaseOptions {
    fn default() -> SmrLeaseOptions {
        SmrLeaseOptions {
            lease_duration: Duration::from_secs(4),
            lease_margin: Duration::ZERO,
            renew_every: Duration::from_secs(1),
        }
    }
}

/// The read lease of one replica (present iff leases are enabled).
#[derive(Clone)]
struct Lease {
    opts: SmrLeaseOptions,
    /// Holder named by the latest marker that counted.
    holder: Option<Loc>,
    /// The holder's clock (µs) stamped into that marker.
    marker_send_us: i64,
    /// Local delivery time of that marker. `None` means the marker was
    /// WAL-replayed: its receipt time is unknown, so it anchors no live
    /// suppression window (see [`ReplicaCore::reanchor_lease`]).
    marker_deliv: Option<VTime>,
    /// Holder-side wait-out: no fast reads before this. Covers the
    /// previous holder's entire window across a hand-off.
    fast_from: VTime,
}

/// Decodes a lease marker payload, if `v` is one (transaction envelopes
/// lead with a `Loc`, configuration commands and reports with other
/// tags, so the string tag is unambiguous).
pub(crate) fn parse_lease_marker(v: &Value) -> Option<(Loc, i64)> {
    let (tag, rest) = v.fst().zip(v.snd())?;
    if tag.as_str()? != LEASE_MARKER_TAG {
        return None;
    }
    let (holder, ts) = rest.fst().zip(rest.snd())?;
    Some((holder.as_loc()?, ts.as_int()?))
}

/// A snapshot being reassembled from transfer chunks.
#[derive(Clone, Default)]
struct Assembly {
    /// `(total chunks, donor-chosen id)`. Chunks are keyed by this
    /// identity: a retried fetch produces a later snapshot, and mixing
    /// chunk sets across snapshots would restore garbage. Replicas are
    /// deterministic state machines, so two snapshots with equal identity
    /// have identical content and their chunks interchange.
    id: (i64, i64),
    head: Option<Value>,
    chunks: BTreeMap<i64, bytes::Bytes>,
}

/// An executed item as the window keeps it: a delivery payload as it was
/// delivered (SMR), or a transaction as a PBR group replicates it — its
/// outcome and effects, or a 2PC record — in its typed form, far smaller
/// than its value tree, encoded only to catch a peer up.
#[derive(Clone)]
pub(crate) enum Executed {
    Payload(Value),
    Txn(TxnEnvelope),
}

/// The items a replica executed last, consecutive up to the policy's
/// frontier `end` (PBR: the executed count; SMR: the delivery sequence).
#[derive(Clone, Default)]
struct Window {
    end: i64,
    items: VecDeque<Executed>,
    /// At most this many items (0 keeps none).
    limit: usize,
}

/// The fetch a replica that is behind sends: to one donor at a time, the
/// next one each `every`, until an answer is accepted.
#[derive(Clone, Default)]
struct Fetch {
    donors: Vec<Loc>,
    every: Duration,
    /// Requests sent so far; the next goes to `donors[asked % len]`.
    asked: usize,
    open: bool,
    from: i64,
    min: i64,
    /// This incarnation's name on its requests: the broadcast count a
    /// reboot restarted at ([`ReplicaCore::recover`]), 0 before any.
    nonce: i64,
}

/// The service state and plumbing shared by every replica, whatever
/// orders its transactions. A clone is a fork, its disk included
/// ([`Wal`]'s clone).
#[derive(Clone)]
pub(crate) struct ReplicaCore {
    db: Db,
    /// client -> (last cseq, committed, results) for duplicate suppression.
    last_reply: HashMap<Loc, (i64, bool, Vec<SqlValue>)>,
    /// Number of transactions executed (PBR's election criterion).
    executed: i64,
    /// Deferred CPU cost (transaction execution, snapshot work).
    step_cost: Duration,
    /// Sharded deployments: this group's place in the shard map.
    role: Option<ShardRole>,
    /// The replicated 2PC state machine (present iff `role` is).
    engine: Option<TwoPcEngine>,
    /// Per-target-shard emission counters, advanced in lockstep at every
    /// member of a group so a promoted PBR primary continues the sequence
    /// monotonically. Under SMR *every* replica emits; receivers
    /// deduplicate semantically, since each replica's envelopes carry its
    /// own location.
    twopc_seq: Vec<i64>,
    /// Durability plane: the write-ahead log, when this replica persists
    /// its execution. Appends stay unsynced until the replica's next
    /// `sdb/sync` ([`Self::sync`]), which covers all of them at once.
    wal: Option<Wal>,
    /// The sync handed to the disk and not yet reported (`sdb/synced`):
    /// the index it makes durable — [`NOTHING_DURABLE`]
    /// once a network image voided it. At most one is in flight.
    syncing: Option<i64>,
    /// WAL index the last durable snapshot covers (truncation point).
    wal_snap_at: i64,
    /// Take a durable snapshot at most every this many WAL records.
    snapshot_every: i64,
    /// The log index through which the disk holds this replica's state:
    /// what a power cut cannot take back. `i64::MAX` without a log, so
    /// every gate is open; [`NOTHING_DURABLE`] once a network image jumped
    /// execution past what the log holds.
    durable: i64,
    /// Sends held back until `durable` reaches their index. They die with
    /// the process, like the unsynced records they acknowledge.
    parked: Vec<(i64, SendInstr)>,
    /// An `sdb/sync` is on its way to this replica.
    sync_scheduled: bool,
    /// State-transfer batch size in bytes (~50 KB in the paper).
    transfer_batch_bytes: usize,
    assembly: Assembly,
    window: Window,
    fetch: Fetch,
    /// The group's ordered stream as this replica consumes it, and whether
    /// it knows where that stream starts (`anchored`); unanchored, the
    /// buffer holds every delivery.
    stream: InOrderBuffer,
    anchored: bool,
    /// Awaiting the first `tob/subok` of a subscription (a joiner, or a
    /// replica rebooted from its disk).
    subscribing: bool,
    /// A gap the stream stalls behind: the stream's next seq then, when
    /// it was first seen, and whether a check is armed. Not in the digest:
    /// it acts only once half a fetch period has passed, and the model
    /// checker's clock moves a microsecond per step.
    gap: Option<(i64, VTime, bool)>,
    /// The broadcast service's entry points, for this replica's own
    /// broadcasts, and the msgid of the next one.
    tob_servers: Vec<Loc>,
    msgid: i64,
    /// The deployment's event log (observes state, is not state).
    probe: Option<Probe>,
    /// The model checker's lease-audit sink: every lease read is also
    /// announced to it as a message, which forks with the execution.
    lease_audit: Option<Loc>,
    /// The read lease, when enabled.
    lease: Option<Lease>,
}

impl ReplicaCore {
    pub(crate) fn new(db: Database) -> ReplicaCore {
        ReplicaCore {
            db: Db(db),
            last_reply: HashMap::new(),
            executed: 0,
            step_cost: Duration::ZERO,
            role: None,
            engine: None,
            twopc_seq: Vec::new(),
            wal: None,
            syncing: None,
            wal_snap_at: 0,
            snapshot_every: i64::MAX,
            durable: i64::MAX,
            parked: Vec::new(),
            sync_scheduled: false,
            transfer_batch_bytes: 50_000,
            assembly: Assembly::default(),
            window: Window::default(),
            fetch: Fetch::default(),
            stream: InOrderBuffer::new(),
            anchored: true,
            subscribing: false,
            gap: None,
            tob_servers: Vec::new(),
            msgid: 0,
            probe: None,
            lease_audit: None,
            lease: None,
        }
    }

    /// Places the replica's group inside a sharded deployment and
    /// activates the 2PC engine on the execution path.
    pub(crate) fn set_role(&mut self, role: ShardRole) {
        self.engine = Some(TwoPcEngine::new(role.map(), role.shard));
        self.twopc_seq = vec![0; role.map().shards()];
        self.role = Some(role);
    }

    /// Installs the deployment's observers: the event log and the model
    /// checker's lease-audit sink.
    pub(crate) fn observe(&mut self, probe: Option<Probe>, lease_audit: Option<Loc>) {
        self.probe = probe;
        self.lease_audit = lease_audit;
    }

    pub(crate) fn set_transfer_batch_bytes(&mut self, bytes: usize) {
        assert!(bytes > 0, "batches need at least one byte");
        self.transfer_batch_bytes = bytes;
    }

    /// Keeps the last `limit` executed items to catch peers up from
    /// (0 keeps none, so every peer behind gets the image).
    pub(crate) fn set_window_limit(&mut self, limit: usize) {
        self.window.limit = limit;
    }

    pub(crate) fn db(&self) -> &Database {
        &self.db
    }

    pub(crate) fn executed(&self) -> i64 {
        self.executed
    }

    /// The 2PC emission counters (replicated state, for digests).
    pub(crate) fn twopc_seq(&self) -> &[i64] {
        &self.twopc_seq
    }

    pub(crate) fn take_step_cost(&mut self) -> Duration {
        std::mem::take(&mut self.step_cost)
    }

    /// Records `event` in the deployment's log, if one is installed.
    pub(crate) fn note(&self, event: Event) {
        if let Some(p) = &self.probe {
            p.record(event);
        }
    }

    // -- duplicate suppression and execution ---------------------------------

    /// Classifies `cseq` against the last request seen from `client`.
    pub(crate) fn seen(&self, client: Loc, cseq: i64) -> Seen {
        match self.last_reply.get(&client) {
            Some((last, _, _)) if cseq == *last => Seen::Duplicate,
            Some((last, _, _)) if cseq < *last => Seen::Stale,
            _ => Seen::Fresh,
        }
    }

    /// The cached answer to the last request seen from `client`:
    /// `(cseq, committed, results)`.
    pub(crate) fn cached_reply(&self, client: Loc) -> Option<(i64, bool, &[SqlValue])> {
        self.last_reply
            .get(&client)
            .map(|(cseq, committed, result)| (*cseq, *committed, result.as_slice()))
    }

    /// The cached answer to `client`'s last request, as `slf`'s reply.
    pub(crate) fn reply(&self, slf: Loc, client: Loc) -> Option<SendInstr> {
        let (cseq, committed, result) = self.cached_reply(client)?;
        Some(SendInstr::now(
            client,
            reply_msg(slf, cseq, committed, result),
        ))
    }

    /// Whether `env` is a 2PC protocol record this replica must step the
    /// engine on (always false outside a sharded deployment).
    pub(crate) fn is_twopc(&self, env: &TxnEnvelope) -> bool {
        self.engine.is_some() && matches!(env.txn, TxnRequest::TwoPc(_))
    }

    /// Executes a run of plain transactions under ONE engine transaction
    /// (one commit for the whole run), with per-transaction cost and
    /// reply-cache bookkeeping identical to sequential execution, and
    /// returns each transaction's effects (none for one that failed).
    /// Replica execution is single-threaded, so the grouped answers match
    /// unbatched ones. Outcomes are read back through
    /// [`Self::cached_reply`]; a caller that replies per transaction must
    /// therefore not put one client twice in a run.
    pub(crate) fn apply_run(&mut self, envs: &[TxnEnvelope]) -> Vec<Effects> {
        if envs.is_empty() {
            return Vec::new();
        }
        let reqs: Vec<&TxnRequest> = envs.iter().map(|e| &e.txn).collect();
        let results = apply_group(&self.db, &reqs);
        let mut effects = Vec::with_capacity(envs.len());
        for (env, res) in envs.iter().zip(results) {
            let (committed, result, cost, fx) = res
                .map(|(o, fx)| (o.committed, o.result, o.cost, fx))
                .unwrap_or_else(|e| {
                    let error = vec![SqlValue::Text(e.to_string())];
                    (false, error, Duration::ZERO, Effects::default())
                });
            self.step_cost += cost;
            self.executed += 1;
            self.last_reply
                .insert(env.client, (env.cseq, committed, result));
            effects.push(fx);
        }
        effects
    }

    /// Steps the 2PC engine on an ordered record and renders the owed
    /// actions, advancing the emission counters. The caller decides what
    /// happens to the rendered sends (an acked PBR primary and every SMR
    /// replica emit them; backups and replays drop them — the counters
    /// still advance in lockstep).
    pub(crate) fn step_twopc(&mut self, slf: Loc, env: &TxnEnvelope) -> Vec<SendInstr> {
        let TxnRequest::TwoPc(rec) = &env.txn else {
            return Vec::new();
        };
        let (Some(role), Some(engine)) = (&mut self.role, &mut self.engine) else {
            return Vec::new();
        };
        let (actions, cost) = engine.step(rec, &self.db, self.probe.as_ref());
        self.step_cost += cost;
        self.executed += 1;
        // Placeholder entry: duplicates of 2PC records re-drive the
        // protocol (see `redrive_twopc`), never this cached value. The
        // recorded cseq is a high-water mark — a reordered older record
        // must not regress it, or a genuine duplicate of the newer one
        // would be mistaken for fresh work forever.
        let hw = self
            .last_reply
            .get(&env.client)
            .map_or(env.cseq, |(l, _, _)| env.cseq.max(*l));
        self.last_reply.insert(env.client, (hw, true, Vec::new()));
        role.render(slf, &actions, &mut self.twopc_seq)
    }

    /// Re-derives whatever the group currently owes for `txnid` from
    /// replicated state, without mutating the engine.
    pub(crate) fn redrive_twopc(&mut self, slf: Loc, txnid: TxnId) -> Vec<SendInstr> {
        let (Some(role), Some(engine)) = (&mut self.role, &self.engine) else {
            return Vec::new();
        };
        role.render(slf, &engine.emissions(txnid), &mut self.twopc_seq)
    }

    /// A replica of another group refused a 2PC record this replica sent
    /// it and reported its configuration (`sdb/stale`): the route to that
    /// group adopts it. Nothing is resent — the client's retransmitted
    /// Prepare re-drives the emissions, which now reach the right place.
    pub(crate) fn on_stale_config(&mut self, msg: &Msg) {
        if let (Some(role), Some(st)) = (&mut self.role, parse_stale_config(msg)) {
            role.routes.adopt(&st);
        }
    }

    // -- the read lease ------------------------------------------------------

    /// Enables the read lease. The policy supplies who may claim it
    /// ([`Self::on_lease_tick`]) and which delivered markers count
    /// ([`Self::install_marker`]); everything else is here.
    pub(crate) fn enable_lease(&mut self, opts: SmrLeaseOptions) {
        self.lease = Some(Lease {
            opts,
            holder: None,
            marker_send_us: 0,
            marker_deliv: None,
            fast_from: VTime::ZERO,
        });
    }

    pub(crate) fn has_lease(&self) -> bool {
        self.lease.is_some()
    }

    /// Installs the holder named by a marker that counted, delivered (or
    /// replayed: `now` is `None`) at this replica. The stream totally
    /// orders markers, so every replica steps through the same holder
    /// sequence at the same positions; only the *local* timestamps
    /// anchoring suppression and the hand-off wait-out differ per replica.
    pub(crate) fn install_marker(
        &mut self,
        slf: Loc,
        now: Option<VTime>,
        holder: Loc,
        send_us: i64,
    ) {
        let Some(l) = self.lease.as_mut() else {
            return;
        };
        if holder == slf && l.holder != Some(slf) {
            let virgin = l.holder.is_none() && l.marker_send_us == 0 && l.marker_deliv.is_none();
            l.fast_from = if virgin {
                // No lease has ever existed: nothing to outwait.
                now.unwrap_or(VTime::ZERO)
            } else {
                // A hand-off: outwait the previous window entirely. It
                // ends no later than D after this replica received the
                // previous marker (delivery follows the send); when that
                // receipt time is unknown (WAL replay, post-recovery),
                // anchor on this marker's own delivery, which is no
                // earlier.
                l.marker_deliv.or(now).unwrap_or(VTime::ZERO) + l.opts.lease_duration
            };
        }
        // A renewal (self -> self) keeps `fast_from`: any write another
        // replica acknowledged between the markers was acknowledged only
        // after *its* suppression window lapsed, i.e. after this lease's
        // own end — so it linearizes after every fast read served here.
        l.holder = Some(holder);
        l.marker_send_us = send_us;
        l.marker_deliv = now;
    }

    /// Whether this replica must acknowledge nothing right now: a marker
    /// naming someone else is still fresh. While every non-holder stays
    /// silent, the first answer a client can observe comes from the
    /// holder — which therefore has executed everything it acknowledged,
    /// the invariant the fast read path rests on. `now` is `None` during
    /// a WAL replay, which renders and discards all sends.
    pub(crate) fn replies_suppressed(&self, slf: Loc, now: Option<VTime>) -> bool {
        let (Some(l), Some(now)) = (&self.lease, now) else {
            return false;
        };
        if l.holder == Some(slf) {
            return false;
        }
        match l.marker_deliv {
            Some(t) => now < t + l.opts.lease_duration,
            None => false,
        }
    }

    /// Re-anchors the lease after adopting state this replica did not
    /// watch being ordered — a WAL replay after a reboot, an image or a
    /// stream position a joiner or a rebooted member was placed at.
    /// Markers inside that state carry no receipt time, and any of them
    /// may name a holder whose window is still running. Forget the holder
    /// identity and start suppression at `now`: for one lease length this
    /// replica neither serves fast reads nor acknowledges anything, which
    /// covers every window granted by a marker sent before `now`
    /// (suppressing too long is always safe).
    pub(crate) fn reanchor_lease(&mut self, now: VTime) {
        if let Some(l) = self.lease.as_mut() {
            l.holder = None;
            l.marker_deliv = Some(now);
        }
    }

    /// The holder's remaining fast window, if this replica may serve a
    /// fast read right now: it is placed in its stream, holds the lease
    /// under its own delivered marker, is past the hand-off wait-out, and
    /// within `send_ts + D - margin` of that marker.
    fn lease_until(&self, ctx: &Ctx) -> Option<VTime> {
        let l = self.lease.as_ref()?;
        if self.rejoining() || l.holder != Some(ctx.slf) || ctx.now < l.fast_from {
            return None;
        }
        let horizon = l.opts.lease_duration.saturating_sub(l.opts.lease_margin);
        let until = VTime::from_micros(l.marker_send_us as u64) + horizon;
        (ctx.now < until).then_some(until)
    }

    /// Answers `env` from local state on the lease-protected fast path if
    /// this replica holds the lease right now, recording the served read
    /// (lease term: the marker's stamp, valid to its window's end) with
    /// the deployment's observers. Refuses (returns false) without the
    /// lease, and anything that is not a lockless SELECT — the client's
    /// read-only flag is advisory, and a mis-flagged transaction falls
    /// through to ordered execution.
    pub(crate) fn serve_fast_read(
        &mut self,
        ctx: &Ctx,
        env: &TxnEnvelope,
        outs: &mut Vec<SendInstr>,
    ) -> bool {
        let (Some(until), Some(l)) = (self.lease_until(ctx), &self.lease) else {
            return false;
        };
        let term = l.marker_send_us;
        let Some(out) = env.txn.apply_read_only(&self.db) else {
            return false;
        };
        self.step_cost += out.cost;
        let (served_us, until_us) = (ctx.now.as_micros() as i64, until.as_micros() as i64);
        self.note(Event::LeaseRead {
            term,
            loc: ctx.slf,
            served_us,
            until_us,
        });
        if let Some(sink) = self.lease_audit {
            outs.push(SendInstr::now(
                sink,
                lease_audit_msg(term, ctx.slf, served_us, until_us),
            ));
        }
        outs.push(SendInstr::now(
            env.client,
            reply_msg(ctx.slf, env.cseq, out.committed, &out.result),
        ));
        true
    }

    /// The renewal/claim tick, re-armed every `renew_every`. `rank` is
    /// the policy's word on claiming: `None` when this replica may not
    /// claim now, else its stagger rank. The holder re-broadcasts its
    /// marker each tick (a lapsed own lease re-claims through the same
    /// marker); anyone else claims once the lease has lapsed and `rank`
    /// more periods have run out. Races are safe — the stream totally
    /// orders markers and the policy decides which count — the stagger
    /// only keeps the common case down to one claimant.
    pub(crate) fn on_lease_tick(
        &mut self,
        ctx: &Ctx,
        rank: Option<u64>,
        outs: &mut Vec<SendInstr>,
    ) {
        let Some(l) = &self.lease else { return };
        let tick = Msg::new(cached_header!(LEASE_TIMER_HEADER), Value::Unit);
        outs.push(SendInstr::after(l.opts.renew_every, ctx.slf, tick));
        let Some(rank) = rank.filter(|_| !self.rejoining()) else {
            return;
        };
        let claim = match (l.holder, l.marker_deliv) {
            (Some(h), _) if h == ctx.slf => true,
            (_, Some(deliv)) => {
                let lapse = deliv + l.opts.lease_duration;
                ctx.now >= lapse + l.opts.renew_every * (rank as u32)
            }
            // No live marker ever seen: rank-staggered initial claim.
            (_, None) => ctx.now >= VTime::ZERO + l.opts.renew_every * (rank as u32),
        };
        if claim {
            let marker = Value::pair(
                Value::str(LEASE_MARKER_TAG),
                Value::pair(Value::Loc(ctx.slf), Value::Int(ctx.now.as_micros() as i64)),
            );
            outs.push(self.broadcast(ctx.slf, marker));
        }
    }

    /// Hashes the replicated lease state into the policy's digest: the
    /// holder sequence and its stamps are functions of the delivered
    /// prefix; the local receipt times (`marker_deliv`, `fast_from`) are
    /// not.
    pub(crate) fn digest_lease(&self, h: &mut impl Hasher) {
        if let Some(l) = &self.lease {
            (l.holder, l.marker_send_us).hash(h);
        }
    }

    // -- the state image -----------------------------------------------------

    /// The non-row part of the state image. Reply-cache entries are
    /// sorted so the image is deterministic.
    fn image_head(&self, header: Value) -> Value {
        let mut entries: Vec<_> = self.last_reply.iter().collect();
        entries.sort_by_key(|(l, _)| **l);
        let replies = Value::list(entries.into_iter().map(
            |(client, (cseq, committed, result))| {
                Value::pair(
                    Value::Loc(*client),
                    Value::pair(
                        Value::Int(*cseq),
                        Value::pair(
                            Value::Bool(*committed),
                            Value::list(result.iter().map(sql_to_value)),
                        ),
                    ),
                )
            },
        ));
        // Sharded groups must also carry the 2PC protocol state and
        // emission counters: the rows alone would lose in-flight
        // cross-shard transactions (the state is small — in-flight
        // transactions only).
        let shard = match &self.engine {
            Some(e) => Value::pair(
                Value::list(self.twopc_seq.iter().map(|s| Value::Int(*s))),
                e.to_value(),
            ),
            None => Value::Unit,
        };
        Value::pair(
            Value::Int(self.executed),
            Value::pair(header, Value::pair(replies, shard)),
        )
    }

    /// Installs a state image, returning its policy header. Total and
    /// all-or-nothing: a malformed head or unrestorable rows leave the
    /// core exactly as it was (`None`).
    fn install_image(&mut self, head: &Value, rows: &Snapshot) -> Option<Value> {
        let executed = head.fst()?.as_int()?;
        let (header, rest) = head.snd()?.fst().zip(head.snd()?.snd())?;
        let (replies, shard) = rest.fst().zip(rest.snd())?;
        let mut cache = HashMap::new();
        for e in replies.as_list()? {
            let (cseq, rest) = e.snd()?.fst().zip(e.snd()?.snd())?;
            let result: Option<Vec<SqlValue>> =
                rest.snd()?.as_list()?.iter().map(value_to_sql).collect();
            cache.insert(
                e.fst()?.as_loc()?,
                (cseq.as_int()?, rest.fst()?.as_bool()?, result?),
            );
        }
        let shard_state = match (&self.role, shard) {
            (_, Value::Unit) | (None, _) => None,
            (Some(role), state) => Some(adopt_shard_state(role, state)?),
        };
        self.db.restore(rows).ok()?;
        self.executed = executed;
        self.last_reply = cache;
        if let Some((seqs, engine)) = shard_state {
            self.twopc_seq = seqs;
            self.engine = Some(engine);
        }
        Some(header.clone())
    }

    /// A durable snapshot of the current state, captured now and
    /// serialized (the image head beside one row blob) by the returned
    /// closure into the buffer it is given, on whichever thread runs it.
    fn durable_image(
        &self,
        header: Value,
        rows: Snapshot,
    ) -> impl FnOnce(&mut BytesMut) + Send + 'static {
        let head = self.image_head(header);
        move |buf| encode_pair_with_bytes(&head, buf, |blob| rows.write_bytes(blob))
    }

    /// Restores what [`Self::durable_image`] captured (a corrupt snapshot
    /// file never reaches here — the WAL checksums it — but recovery
    /// stays total regardless).
    fn install_durable_blob(&mut self, blob: &Value) -> Option<Value> {
        let rows = Snapshot::from_bytes(blob.snd()?.as_bytes()?.clone()).ok()?;
        self.install_image(blob.fst()?, &rows)
    }

    // -- durability ----------------------------------------------------------

    /// Attaches a write-ahead log over `disk`, with a durable snapshot
    /// (and log truncation) at most every `snapshot_every` records.
    /// `snap_at` is the index the disk's snapshot covers and `durable` the
    /// highest index the disk holds — both one below the policy's first
    /// record index on an empty disk.
    pub(crate) fn attach_wal(
        &mut self,
        disk: Disk,
        snapshot_every: i64,
        snap_at: i64,
        durable: i64,
    ) {
        self.snapshot_every = snapshot_every.max(1);
        self.wal_snap_at = snap_at;
        self.durable = durable;
        self.syncing = None;
        self.wal = Some(Wal::open(disk));
    }

    /// The first step of a rebooted replica: resolves what the power loss
    /// tore off the attached disk's unsynced tail (`tear` seeds
    /// [`Disk::begin_recovery`], which first lets a sync the previous
    /// incarnation handed off finish), reads the disk back and installs the
    /// latest durable image, if any. In the returned recovery the
    /// snapshot's blob is replaced by its policy header; the logged suffix
    /// is the policy's to replay through its own execution path. The log
    /// comes back *detached* — the replay must not be logged again — so
    /// hand the disk to [`Self::resume_wal`] afterwards.
    ///
    /// It also restarts the broadcast count — and names the incarnation's
    /// fetch with it — at `now` in µs plus 10^6 per
    /// index the disk holds. The service drops a `(source, msgid)` it has
    /// seen, so the count must clear every msgid an earlier incarnation
    /// used, which neither term bounds alone: a torn tail may hold the last
    /// broadcasts (an empty disk alone would restart at 0), and on a
    /// virtual clock broadcasts can share an instant. Neither term shrinks
    /// across reboots (only unsynced records tear), so each incarnation
    /// starts above the last by the µs it ran plus 10^6 per index it made
    /// durable — more than it broadcasts: one per lease tick, per
    /// heartbeat tick or adoption (PBR), per forwarded read (SMR), and an
    /// ordered read is an index. It is never below `now` alone, nor below
    /// `frontier × 10^6` alone.
    pub(crate) fn recover(&mut self, tear: u64, now: VTime) -> (Disk, Recovered) {
        let wal = self.wal.take().expect("a rebooted replica has a disk");
        let disk = wal.disk().clone();
        disk.begin_recovery(tear);
        let mut rec = shadowdb_wal::recover(&disk);
        self.msgid = now.as_micros() as i64 + (rec.high_index() + 1) * 1_000_000;
        self.fetch.nonce = self.msgid;
        rec.snapshot = rec
            .snapshot
            .and_then(|(idx, blob)| Some((idx, self.install_durable_blob(&blob)?)));
        (disk, rec)
    }

    /// Re-attaches the log after [`Self::recover`]'s replay, at the
    /// positions the disk was found to hold.
    pub(crate) fn resume_wal(&mut self, disk: Disk, snap_at: i64, durable: i64) {
        self.attach_wal(disk, self.snapshot_every, snap_at, durable);
    }

    /// Whether this replica persists its execution (policies skip building
    /// log records when it does not).
    pub(crate) fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// Appends one record to the log's unsynced tail (no-op without a
    /// log). Durable only after the replica's next [`Self::sync`].
    pub(crate) fn wal_append(&mut self, index: i64, body: &Value) {
        if let Some(w) = self.wal.as_mut() {
            w.append(index, body);
        }
    }

    /// Whether the disk holds this replica's state through log `index`.
    pub(crate) fn is_durable(&self, index: i64) -> bool {
        index <= self.durable
    }

    /// The one way out for a send that acknowledges log record `index`
    /// (or state that reflects it): it leaves now if the record is
    /// durable, else it is parked until the sync that covers it. This is
    /// the durability invariant — *no acknowledgment leaves before the
    /// fsync that covers its record* — and it holds whenever, and in
    /// whatever order, the runtime delivers `sdb/sync` and `sdb/synced`.
    pub(crate) fn gate(&mut self, index: i64, send: SendInstr, out: &mut Vec<SendInstr>) {
        if self.is_durable(index) {
            out.push(send);
        } else {
            self.parked.push((index, send));
        }
    }

    /// The end-of-step hook: both policies call it after handling a
    /// message, with `last` the newest log index and `out[first..]` the
    /// step's sends. While anything up to `last` is unsynced the sends are
    /// gated there — default-deny: whatever a step says may reflect what
    /// it (or an earlier step) just logged — and a sync is scheduled. Only
    /// self-sends pass, and what the policy lists as `ahead`: traffic that
    /// carries records *to* a peer rather than vouching for them. Costs
    /// one compare when the log is synced, and always without a log.
    pub(crate) fn gate_step(
        &mut self,
        slf: Loc,
        last: i64,
        first: usize,
        out: &mut Vec<SendInstr>,
        ahead: fn(&Msg) -> bool,
    ) {
        if self.is_durable(last) {
            return;
        }
        let mut i = first;
        while i < out.len() {
            if out[i].dest == slf || ahead(&out[i].msg) {
                i += 1;
            } else {
                self.parked.push((last, out.remove(i)));
            }
        }
        // A sync in flight starts the next one when it completes.
        if !self.sync_scheduled && self.syncing.is_none() {
            self.sync_scheduled = true;
            let sync = Msg::new(cached_header!(SYNC_HEADER), Value::Unit);
            out.push(SendInstr::now(slf, sync));
        }
    }

    /// The durability point, run on `sdb/sync`: one sync covers every
    /// record appended since the previous one (group commit — however
    /// many steps the runtime delivered in between, they cost one sync,
    /// not one each). After a network image, and once both `snapshot_every`
    /// records were logged since the last snapshot and the log written
    /// since then has outgrown that snapshot's image, the log is folded
    /// into a durable snapshot instead (which truncates it): recovery then
    /// replays at most about one image's worth of log, and a large table
    /// is imaged only as often as its log's growth calls for. `last` is
    /// the newest log index; `header` renders the policy header, only if a
    /// snapshot is actually taken.
    ///
    /// The sync is handed to the disk — the unsynced tail, plus the state
    /// captured here at `last` for a snapshot — and the replica keeps
    /// executing; the release waits for the `sdb/synced` the disk posts
    /// back through the stepping loop's completion route
    /// ([`Self::on_synced`]), after the real fsync on the file backend and
    /// the modeled one on a virtual disk. A periodic snapshot is written
    /// behind the tail's commit, so it holds up no acknowledgment, and one
    /// falling due while the previous image is still being written waits
    /// for a later sync. With nothing to write, or while a sync is in
    /// flight, this is a no-op: the completion starts the next one.
    pub(crate) fn sync(&mut self, last: i64, header: impl FnOnce() -> Value) {
        self.sync_scheduled = false;
        let Some(wal) = &self.wal else { return };
        if self.syncing.is_some() {
            return;
        }
        let checkpoint = self.durable == NOTHING_DURABLE
            || (last - self.wal_snap_at >= self.snapshot_every
                && wal.log_len() >= wal.disk().image_len()
                && !wal.disk().image_in_flight());
        if !checkpoint && wal.pending() == 0 {
            return;
        }
        let route =
            completion::route().expect("a durable replica steps inside `completion::stepping`");
        let image = checkpoint.then(|| {
            let rows = self.db.snapshot();
            let scan = self.db.profile().costs.scan_row_us * rows.row_count() as u64;
            self.step_cost += Duration::from_micros(scan);
            self.wal_snap_at = last;
            self.durable_image(header(), rows)
        });
        let wal = self.wal.as_mut().expect("checked above");
        let done = {
            let body = Value::pair(Value::Int(wal.generation() as i64), Value::Int(last));
            move |after| route.post(after, Msg::new(cached_header!(SYNCED_HEADER), body))
        };
        match image {
            // The log has a gap below a network image: only the snapshot
            // can make the state durable.
            Some(image) if self.durable == NOTHING_DURABLE => {
                wal.hand_off_snapshot(last, image, done)
            }
            Some(image) => wal.hand_off_checkpoint(last, image, done),
            None => wal.hand_off(done),
        }
        self.syncing = Some(last);
    }

    /// Handles `sdb/synced <generation, through>`, the disk's report that
    /// the sync [`Self::sync`] handed off is durable: the only place a
    /// sync advances `durable` and releases the sends parked behind it. A
    /// report for another opening of the log (an earlier incarnation's) is
    /// ignored. Records appended while the sync was in flight go straight
    /// into the next one. The release is checked entry by entry, so the
    /// caller must not gate this step's sends behind `last` again.
    pub(crate) fn on_synced(
        &mut self,
        body: &Value,
        last: i64,
        header: impl FnOnce() -> Value,
        out: &mut Vec<SendInstr>,
    ) {
        let generation = body.fst().and_then(Value::as_int);
        let Some(wal) = &self.wal else { return };
        if generation != Some(wal.generation() as i64) {
            return;
        }
        let Some(through) = self.syncing.take() else {
            return;
        };
        self.durable = through.max(self.durable);
        for (index, send) in std::mem::take(&mut self.parked) {
            self.gate(index, send, out);
        }
        if !self.is_durable(last) {
            self.sync(last, header);
        }
    }

    // -- this replica's own requests -----------------------------------------

    pub(crate) fn set_tob_servers(&mut self, servers: Vec<Loc>) {
        self.tob_servers = servers;
    }

    /// Broadcasts `payload` through the TOB under this replica's identity:
    /// through its entry point `slf % servers` (which spreads a group over
    /// the service), with its next msgid.
    pub(crate) fn broadcast(&mut self, slf: Loc, payload: Value) -> SendInstr {
        let server = self.tob_servers[slf.index() as usize % self.tob_servers.len()];
        self.msgid += 1;
        SendInstr::now(server, broadcast_msg(slf, self.msgid - 1, payload))
    }

    /// Sets whom [`Self::fetch`] asks, in turn from the first, and how long
    /// it waits for an answer before it asks the next.
    pub(crate) fn set_donors(&mut self, donors: impl IntoIterator<Item = Loc>, every: Duration) {
        (self.fetch.donors, self.fetch.every) = (donors.into_iter().collect(), every);
    }

    /// Opens the fetch of the state from `from` on (`-1`: an image), to be
    /// answered once a donor has reached `min` (once per incarnation: the
    /// retry timer it arms keeps asking until [`Self::fetched`]).
    pub(crate) fn fetch(&mut self, slf: Loc, from: i64, min: i64, out: &mut Vec<SendInstr>) {
        let f = &mut self.fetch;
        (f.from, f.min, f.open) = (from, min, !f.donors.is_empty());
        self.on_fetch_retry(slf, out);
    }

    /// While the fetch is open, asks the next donor and re-arms the retry
    /// timer ([`FETCH_RETRY_HEADER`]): a donor that crashed, or may not
    /// answer, strands no one.
    pub(crate) fn on_fetch_retry(&mut self, slf: Loc, out: &mut Vec<SendInstr>) {
        let f = &mut self.fetch;
        if f.open {
            let donor = f.donors[f.asked % f.donors.len()];
            f.asked += 1;
            out.push(SendInstr::now(
                donor,
                fetch_msg(slf, f.from, f.min, f.nonce),
            ));
            let retry = Msg::new(cached_header!(FETCH_RETRY_HEADER), Value::Unit);
            out.push(SendInstr::after(f.every, slf, retry));
        }
    }

    /// Closes the fetch: an answer was accepted, or another path made it
    /// moot. The retry timer lapses at its next firing.
    pub(crate) fn fetched(&mut self) {
        self.fetch.open = false;
    }

    /// The open fetch's `min`, if one is open.
    pub(crate) fn fetching(&self) -> Option<i64> {
        self.fetch.open.then_some(self.fetch.min)
    }

    /// Whether an answer stamped with `nonce` and the donor's stream
    /// position `at` answers the open fetch: it was asked by this
    /// incarnation, and it leaves no gap below the subscription.
    pub(crate) fn answers(&self, nonce: i64, at: i64) -> bool {
        let f = &self.fetch;
        f.open && nonce == f.nonce && at >= f.min
    }

    /// Hashes the replica's own requests (fetch, broadcast count) and its
    /// place in the stream into its policy's digest.
    pub(crate) fn digest_requests(&self, h: &mut impl Hasher) {
        let f = &self.fetch;
        (f.open, f.asked, f.from, f.min, self.msgid).hash(h);
        (self.stream.next_seq(), self.anchored, self.subscribing).hash(h);
    }

    // -- the stream subscription ---------------------------------------------

    /// Subscribes anew (a joiner, or a reboot) until [`Self::on_subok`]:
    /// the stream resumes at `Some(at)` (an SMR disk's frontier), or holds
    /// every delivery until [`Self::anchor`].
    pub(crate) fn subscribe(&mut self, at: Option<i64>) {
        (self.subscribing, self.anchored) = (true, at.is_some());
        self.stream = InOrderBuffer::starting_at(at.unwrap_or(0));
    }

    pub(crate) fn stream_next(&self) -> i64 {
        self.stream.next_seq()
    }

    pub(crate) fn anchored(&self) -> bool {
        self.anchored
    }

    /// Awaiting the subscription's ack, an anchor, or the fetch's answer.
    pub(crate) fn rejoining(&self) -> bool {
        self.subscribing || !self.anchored || self.fetch.open
    }

    /// One delivery, live or replayed: the run now in stream order, each
    /// delivery once, and none while the stream is unanchored.
    pub(crate) fn offer(&mut self, d: Delivery) -> Vec<Delivery> {
        if !self.anchored {
            self.stream.hold(d);
            return Vec::new();
        }
        self.stream.offer(d)
    }

    /// Anchors the stream at `at`, the position of the state it came with,
    /// at local time `now`: what was held from `at` on is released in
    /// order, the rest dropped. The lease re-anchors with it: the markers
    /// ordered below `at` were never seen here.
    pub(crate) fn anchor(&mut self, at: i64, now: VTime) -> Vec<Delivery> {
        let held = std::mem::replace(&mut self.stream, InOrderBuffer::starting_at(at));
        self.anchored = true;
        self.reanchor_lease(now);
        let held = held.into_pending().into_iter();
        held.flat_map(|d| self.stream.offer(d)).collect()
    }

    /// The first ack of a subscription, at `seq`, the first delivery it
    /// brings (any server's is a safe bound). A replica with donors opens
    /// its fetch from `from` with `min = seq`; one that asked before the ack
    /// (a PBR reboot) and was anchored below it by an answer holds its
    /// stream again until an answer at or past the ack anchors it. A
    /// replica without donors (a PBR joiner, whom the stream tells
    /// everything) anchors at the ack.
    pub(crate) fn on_subok(
        &mut self,
        ctx: &Ctx,
        seq: i64,
        from: i64,
        out: &mut Vec<SendInstr>,
    ) -> Vec<Delivery> {
        let answered = self.fetch.asked > 0 && !self.fetch.open;
        if !std::mem::take(&mut self.subscribing) || answered && self.stream.next_seq() >= seq {
            return Vec::new(); // a later ack, or an answer already past it
        }
        if self.fetch.donors.is_empty() {
            return self.anchor(seq.max(self.stream.next_seq()), ctx.now);
        }
        self.anchored &= self.fetch.asked == 0 || self.stream.next_seq() >= seq;
        self.fetch(ctx.slf, from, seq, out);
        Vec::new()
    }

    /// Catches the stream up past a gap — deliveries held behind one that
    /// never came (a partition dropped it): once the gap has lasted one
    /// fetch period, opens the fetch from the stream's next seq, to be
    /// answered from the first held one on. A gap still open half a period
    /// after it opened arms a retry timer for the full period, so the
    /// check runs though no further delivery comes; gaps without faults
    /// close far sooner (the saturated SMR rows of `fig9a` hold them for
    /// up to 13 ms of virtual time), so they arm nothing. Only for a
    /// replica with donors that is not rejoining anyway; run at the end of
    /// each step.
    pub(crate) fn check_gap(&mut self, slf: Loc, now: VTime, out: &mut Vec<SendInstr>) {
        let idle = !self.rejoining() && !self.fetch.donors.is_empty();
        let Some(first) = self.stream.first_held().filter(|_| idle) else {
            self.gap = None;
            return;
        };
        let next = self.stream.next_seq();
        let (since, armed) = match self.gap {
            Some((at, since, armed)) if at == next => (since, armed),
            _ => (now, false),
        };
        let waited = now.saturating_since(since);
        if waited >= self.fetch.every {
            self.gap = None;
            return self.fetch(slf, next, first, out);
        }
        let arm = waited >= self.fetch.every / 2;
        if arm && !armed {
            let check = Msg::new(cached_header!(FETCH_RETRY_HEADER), Value::Unit);
            out.push(SendInstr::after(self.fetch.every - waited, slf, check));
        }
        self.gap = Some((next, since, armed || arm));
    }

    /// Donor side: the fetch `msg`, to be asked again in 10 ms, if it must
    /// wait for this replica's stream to reach its `min`: an answer now
    /// would leave the requester a gap its subscription never fills.
    pub(crate) fn defer_fetch(&self, slf: Loc, msg: &Msg, min: i64) -> Option<SendInstr> {
        let later = Duration::from_millis(10);
        let wait = !self.anchored || self.stream.next_seq() < min;
        wait.then(|| SendInstr::after(later, slf, msg.clone()))
    }

    // -- state transfer ------------------------------------------------------

    /// Records the item executed at the frontier, which moves one on; the
    /// item is made only if the window keeps any.
    pub(crate) fn remember(&mut self, item: impl FnOnce() -> Executed) {
        let w = &mut self.window;
        w.end += 1;
        if w.limit > 0 {
            w.items.push_back(item());
            if w.items.len() > w.limit {
                w.items.pop_front();
            }
        }
    }

    /// Empties the window and puts its frontier at `at`: the position of
    /// a state image just installed.
    pub(crate) fn restart_window(&mut self, at: i64) {
        self.window.items.clear();
        self.window.end = at;
    }

    /// The donor's answer to `to`, which has reached position `from`: when
    /// the window reaches back to `from`, the catch-up body `<from,
    /// [items]>` (empty for a peer already at the frontier) under
    /// [`CATCHUP_HEADER`]; else the state image under `header`, cut into
    /// chunks identified by the frontier, under [`SNAPSHOT_HEADER`].
    /// Either way the transfer is recorded in the deployment's log.
    pub(crate) fn state_for(
        &mut self,
        to: Loc,
        from: i64,
        header: Value,
    ) -> (&'static str, Vec<Value>) {
        let end = self.window.end;
        let start = end - self.window.items.len() as i64;
        let kind = match from >= start {
            true => TransferKind::Catchup,
            false => TransferKind::Snapshot,
        };
        self.note(Event::Transfer { to, kind });
        if kind == TransferKind::Snapshot {
            return (SNAPSHOT_HEADER, self.snapshot_chunks(end, header));
        }
        let missing = self.window.items.iter().skip((from - start) as usize);
        let missing = Value::list(missing.map(|item| match item {
            Executed::Payload(v) => v.clone(),
            Executed::Txn(env) => env.to_value(),
        }));
        (CATCHUP_HEADER, vec![Value::pair(Value::Int(from), missing)])
    }

    /// Cuts a full state image into transfer chunks of ~`transfer_batch_
    /// bytes` rows each, charging serialization cost per the engine
    /// profile. Chunk body: `<i, <<total, id>, data>>`, where `data` is
    /// the row bytes — and on the first chunk `<head, row bytes>`, so
    /// the non-row part travels once and arrival order is moot. `id` is
    /// the donor's snapshot identity (see [`Assembly`]): its frontier.
    fn snapshot_chunks(&mut self, id: i64, header: Value) -> Vec<Value> {
        let snapshot = self.db.snapshot();
        let batches = snapshot.to_batches(self.transfer_batch_bytes);
        let costs = self.db.profile().costs;
        // Snapshot preparation: session setup plus scanning every row.
        self.step_cost += Duration::from_millis(300)
            + Duration::from_micros(costs.scan_row_us * snapshot.row_count() as u64);
        let cols: usize = batches.iter().map(RowBatch::column_values).sum();
        self.step_cost += Duration::from_micros(costs.serialize_col_us * cols as u64);
        let total = batches.len() as i64;
        let mut head = Some(self.image_head(header));
        batches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let rows = Value::Bytes(b.encode());
                let data = match head.take() {
                    Some(h) => Value::pair(h, rows),
                    None => rows,
                };
                Value::pair(
                    Value::Int(i as i64),
                    Value::pair(Value::pair(Value::Int(total), Value::Int(id)), data),
                )
            })
            .collect()
    }

    /// Drops a half-received snapshot (its configuration was superseded).
    pub(crate) fn abandon_transfer(&mut self) {
        self.assembly = Assembly::default();
    }

    /// Receives one transfer chunk. Once every chunk of one snapshot
    /// identity has arrived the image is installed (charging bulk-insert
    /// cost), the window restarted at the donor's frontier, and the
    /// image's policy header returned; a durable replica then takes a
    /// durable snapshot at its next sync.
    pub(crate) fn accept_chunk(&mut self, body: &Value) -> Option<Value> {
        let (i, rest) = body.fst().zip(body.snd())?;
        let (meta, data) = rest.fst().zip(rest.snd())?;
        let id = (meta.fst()?.as_int()?, meta.snd()?.as_int()?);
        if self.assembly.id != id {
            self.assembly = Assembly {
                id,
                ..Assembly::default()
            };
        }
        let rows = match data.as_bytes() {
            Some(b) => b,
            None => {
                self.assembly.head = Some(data.fst()?.clone());
                data.snd()?.as_bytes()?
            }
        };
        self.assembly.chunks.insert(i.as_int()?, rows.clone());
        if (self.assembly.chunks.len() as i64) < id.0 {
            return None;
        }
        let batches: Vec<RowBatch> = self
            .assembly
            .chunks
            .values()
            .map(|b| RowBatch::decode(b.clone()).ok())
            .collect::<Option<_>>()?;
        let snapshot = Snapshot::from_batches(&batches).ok()?;
        let head = self.assembly.head.take()?;
        let header = self.install_image(&head, &snapshot)?;
        let costs = self.db.profile().costs;
        let rows: usize = batches.iter().map(|b| b.rows.len()).sum();
        let bytes: usize = batches.iter().map(RowBatch::encoded_len).sum();
        self.step_cost += Duration::from_micros(
            costs.bulk_insert_us * rows as u64 + costs.bulk_insert_byte_ns * bytes as u64 / 1_000,
        );
        if self.wal.is_some() {
            self.durable = NOTHING_DURABLE;
            // A sync in flight covers a log the image jumped past.
            if let Some(through) = &mut self.syncing {
                *through = NOTHING_DURABLE;
            }
        }
        self.restart_window(id.1);
        self.assembly = Assembly::default();
        Some(header)
    }
}

/// Decodes a donor's (or a durable image's) 2PC emission counters and
/// protocol state for this replica's shard.
fn adopt_shard_state(role: &ShardRole, state: &Value) -> Option<(Vec<i64>, TwoPcEngine)> {
    let seqs: Vec<i64> = state
        .fst()?
        .as_list()?
        .iter()
        .map(Value::as_int)
        .collect::<Option<_>>()?;
    let engine = TwoPcEngine::from_value(state.snd()?, role.map(), role.shard)?;
    (seqs.len() == role.map().shards()).then_some((seqs, engine))
}

/// The replica's database, whose clone is a fork: model checking forks
/// executions, and `Database`'s own `Clone` shares state.
struct Db(Database);

impl Clone for Db {
    fn clone(&self) -> Db {
        Db(self.0.fork())
    }
}

impl std::ops::Deref for Db {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{GroupRoute, Policy, Routes};
    use proptest::prelude::*;
    use shadowdb_runtime::completion::Collected;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_workloads::{bank, ShardMap, TwoPcRecord};
    use std::sync::Arc;

    /// A core over shard 0 of a `shards`-way bank (sharded iff `shards > 1`).
    fn core(shards: usize) -> ReplicaCore {
        let db = Database::new(EngineProfile::h2());
        bank::load_shard(&db, 40, shards, 0).unwrap();
        let mut c = ReplicaCore::new(db);
        c.set_transfer_batch_bytes(128); // several chunks per image
        if shards > 1 {
            let policy = Policy::Smr { read_leases: false };
            let group = GroupRoute::new(policy, vec![Loc::new(90)], vec![Loc::new(91)]);
            c.set_role(ShardRole {
                shard: 0,
                routes: Routes::new(ShardMap::new(shards), vec![group; shards]),
            });
        }
        c
    }

    fn deposit(client: u32, cseq: i64, account: i64) -> TxnEnvelope {
        let txn = TxnRequest::BankDeposit { account, amount: 7 };
        TxnEnvelope::new(Loc::new(client), cseq, txn)
    }

    /// Everything an image must carry, in comparable form.
    fn state(c: &ReplicaCore) -> (i64, Vec<i64>, Option<Value>, bytes::Bytes, Value) {
        (
            c.executed,
            c.twopc_seq.clone(),
            c.engine.as_ref().map(TwoPcEngine::to_value),
            c.db.snapshot().to_bytes(),
            c.image_head(Value::Unit), // the sorted reply cache
        )
    }

    /// The blob value a durable image renders.
    fn rendered(image: impl FnOnce(&mut BytesMut)) -> Value {
        let mut buf = BytesMut::new();
        image(&mut buf);
        shadowdb_eventml::codec::decode_value(&mut buf.freeze()).expect("an image decodes")
    }

    /// A sharded donor mid-protocol: plain work executed, one cross-shard
    /// transfer decided but not yet done, `cache` merged into the reply
    /// cache.
    fn busy_donor(cache: Vec<(u32, i64, bool, Vec<i64>)>) -> ReplicaCore {
        let mut donor = core(2);
        donor.apply_run(&[deposit(1, 0, 2), deposit(2, 0, 4)]);
        let txn = TxnRequest::BankTransfer {
            from: 2,
            to: 5,
            amount: 30,
        };
        let txnid = (Loc::new(3), 0);
        let prepare = TwoPcRecord::Prepare {
            txnid,
            participants: vec![0, 1],
            txn: Box::new(txn),
        };
        let vote = TwoPcRecord::Vote {
            txnid,
            shard: 1,
            granted: true,
        };
        // The coordinator owes nothing until the peer's vote arrives; the
        // vote decides, so the decision goes out and a counter advances.
        let env = TxnEnvelope::new(Loc::new(3), 0, TxnRequest::TwoPc(prepare));
        assert!(donor.step_twopc(Loc::new(50), &env).is_empty());
        let env = TxnEnvelope::new(Loc::new(60), 0, TxnRequest::TwoPc(vote));
        assert!(!donor.step_twopc(Loc::new(50), &env).is_empty());
        assert_eq!(donor.twopc_seq, vec![0, 1]);
        for (client, cseq, committed, result) in cache {
            let result = result.into_iter().map(SqlValue::Int).collect();
            donor
                .last_reply
                .insert(Loc::new(client), (cseq, committed, result));
        }
        donor
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Image encode → install preserves the reply cache, counters,
        /// engine state and rows, through both carriers: the durable blob
        /// and the chunked transfer (fed in reverse arrival order).
        #[test]
        fn image_round_trips_through_disk_and_network(
            cache in proptest::collection::vec(
                (100u32..140, any::<i64>(), any::<bool>(),
                 proptest::collection::vec(any::<i64>(), 0..4)),
                0..24,
            )
        ) {
            let mut donor = busy_donor(cache);
            let header = Value::Int(77);
            let blob = rendered(donor.durable_image(header.clone(), donor.db.snapshot()));
            let mut from_disk = core(2);
            prop_assert_eq!(from_disk.install_durable_blob(&blob), Some(header.clone()));
            prop_assert_eq!(state(&from_disk), state(&donor));

            let chunks = donor.snapshot_chunks(9, header.clone());
            prop_assert!(chunks.len() > 2);
            let mut joiner = core(2);
            let mut installed = None;
            for c in chunks.iter().rev() {
                prop_assert!(installed.is_none(), "installed before the last chunk");
                installed = joiner.accept_chunk(c);
            }
            prop_assert_eq!(installed, Some(header));
            prop_assert_eq!(state(&joiner), state(&donor));
        }
    }

    /// Install is total: malformed heads, garbage shard state, truncated
    /// row blobs and junk chunks never panic, and anything rejected leaves
    /// the core exactly as it was — and usable.
    #[test]
    fn malformed_images_are_rejected_whole() {
        let donor = busy_donor(vec![(100, 4, true, vec![1])]);
        let good = rendered(donor.durable_image(Value::Int(1), donor.db.snapshot()));
        let (head, rows) = good.unpair();
        let (executed, rest) = head.unpair();
        let (header, rest) = rest.unpair();
        let (replies, shard) = rest.unpair();
        let rehead = |replies: Value, shard: Value| {
            let tail = Value::pair(header.clone(), Value::pair(replies, shard));
            Value::pair(Value::pair(executed.clone(), tail), rows.clone())
        };
        let bad_entry = Value::list([Value::pair(Value::Loc(Loc::new(1)), Value::Int(3))]);
        let mut broken = vec![
            Value::Unit,
            Value::Int(3),
            Value::pair(Value::Unit, rows.clone()),
            Value::pair(Value::pair(executed.clone(), Value::Unit), rows.clone()),
            Value::pair(head.clone(), Value::Int(0)),
            rehead(Value::Int(0), shard.clone()),
            rehead(bad_entry, shard.clone()),
            rehead(replies.clone(), Value::pair(Value::Int(1), Value::Int(2))),
            rehead(
                replies.clone(),
                Value::pair(Value::list([]), shard.snd().unwrap().clone()),
            ),
        ];
        let bytes = rows.as_bytes().unwrap();
        broken.extend(
            (0..bytes.len()).map(|cut| Value::pair(head.clone(), Value::Bytes(bytes.slice(..cut)))),
        );
        let mut c = core(2);
        c.apply_run(&[deposit(1, 0, 2)]);
        for blob in &broken {
            let before = state(&c);
            if c.install_durable_blob(blob).is_none() {
                assert_eq!(state(&c), before, "rejected image left a mark: {blob:?}");
            }
            assert_eq!(c.accept_chunk(blob), None);
        }
        // Still a working core: it executes, and then takes a good image.
        let before = c.executed;
        c.apply_run(&[deposit(9, 0, 2)]);
        assert_eq!(c.executed, before + 1);
        assert_eq!(c.install_durable_blob(&good), Some(Value::Int(1)));
        assert_eq!(state(&c), state(&donor));
    }

    /// Grouped apply ≡ one-at-a-time apply on outcomes, `executed` and
    /// the reply cache (including a request the engine refuses).
    #[test]
    fn grouped_apply_matches_sequential_apply() {
        let mut run: Vec<TxnEnvelope> = (0..12).map(|i| deposit(i, 3, i64::from(i) * 2)).collect();
        let read = TxnRequest::BankRead { account: 4 };
        run.push(TxnEnvelope::new(Loc::new(20), 0, read));
        run.push(deposit(21, 0, 9_999)); // no such account
        let transfer = TxnRequest::BankTransfer {
            from: 2,
            to: 6,
            amount: 11,
        };
        run.push(TxnEnvelope::new(Loc::new(22), 5, transfer));
        let (mut grouped, mut single) = (core(1), core(1));
        grouped.apply_run(&run);
        for env in &run {
            single.apply_run(std::slice::from_ref(env));
        }
        assert_eq!(grouped.executed, run.len() as i64);
        assert_eq!(state(&grouped), state(&single));
        assert_eq!(grouped.seen(Loc::new(3), 3), Seen::Duplicate);
        assert_eq!(grouped.seen(Loc::new(3), 2), Seen::Stale);
        assert_eq!(grouped.seen(Loc::new(3), 4), Seen::Fresh);
    }

    /// The one transfer rule, for both policies: a window of limit 4 at
    /// positions 10 and up answers a peer with exactly the items it
    /// missed when it reaches back to the peer's position, and with the
    /// image otherwise — including after an image install, which
    /// restarts it empty at the image's position. Each answer is in the
    /// log under its kind.
    #[test]
    fn the_window_answers_with_a_suffix_or_the_image() {
        enum Want {
            Suffix(Vec<i64>),
            Image,
        }
        // (case, window limit, install an image at 20 first, from, answer)
        let cases = [
            (
                "from at the start",
                4,
                false,
                12,
                Want::Suffix(vec![12, 13, 14, 15]),
            ),
            ("from one below the start", 4, false, 11, Want::Image),
            ("no window", 0, false, 15, Want::Image),
            ("below an installed image", 4, true, 15, Want::Image),
        ];
        let peer = Loc::new(7);
        for (case, limit, install, from, want) in cases {
            let probe = Probe::default();
            let mut c = core(1);
            c.observe(Some(probe.clone()), None);
            c.set_window_limit(limit);
            c.restart_window(10);
            for p in 10..16 {
                c.remember(|| Executed::Payload(Value::Int(p)));
            }
            if install {
                let mut donor = core(1);
                donor.restart_window(20);
                for chunk in donor.snapshot_chunks(20, Value::Unit) {
                    c.accept_chunk(&chunk);
                }
                assert_eq!(c.window.end, 20, "{case}: restarted at the image");
            }
            let frontier = c.window.end;
            let (header, bodies) = c.state_for(peer, from, Value::Unit);
            let kind = match want {
                Want::Suffix(items) => {
                    assert_eq!(header, CATCHUP_HEADER, "{case}");
                    let items = Value::list(items.into_iter().map(Value::Int));
                    assert_eq!(bodies, vec![Value::pair(Value::Int(from), items)], "{case}");
                    TransferKind::Catchup
                }
                Want::Image => {
                    assert_eq!(header, SNAPSHOT_HEADER, "{case}");
                    let mut joiner = core(1);
                    let installed = bodies.iter().filter_map(|b| joiner.accept_chunk(b));
                    assert_eq!(installed.count(), 1, "{case}: the chunks make one image");
                    assert_eq!(
                        joiner.window.end, frontier,
                        "{case}: identified by the frontier"
                    );
                    TransferKind::Snapshot
                }
            };
            let recorded = Event::Transfer { to: peer, kind };
            assert_eq!(probe.events(), vec![recorded], "{case}");
        }
    }

    /// The one fetch, for both policies: each firing of the retry timer
    /// asks the next donor in turn and re-arms the timer; once an answer
    /// is accepted, the next firing asks no one and the timer stops.
    /// Without donors nothing is asked and no fetch opens.
    #[test]
    fn a_fetch_asks_its_donors_in_turn_until_answered() {
        let slf = Loc::new(9);
        let every = Duration::from_millis(250);
        let mut c = core(1);
        c.set_donors(vec![Loc::new(1), Loc::new(2), Loc::new(3)], every);
        let mut out = Vec::new();
        c.fetch(slf, 5, 7, &mut out);
        assert_eq!(c.fetching(), Some(7));
        let mut asked = Vec::new();
        for _ in 0..5 {
            let [ask, timer] = out.as_slice() else {
                panic!("one ask and one timer: {out:?}")
            };
            assert_eq!(ask.msg, fetch_msg(slf, 5, 7, 0));
            asked.push(ask.dest.index());
            assert_eq!((timer.dest, timer.delay), (slf, every));
            assert_eq!(timer.msg.header.name(), FETCH_RETRY_HEADER);
            out.clear();
            c.on_fetch_retry(slf, &mut out);
        }
        assert_eq!(asked, [1, 2, 3, 1, 2]);
        c.fetched();
        assert_eq!(c.fetching(), None);
        out.clear();
        c.on_fetch_retry(slf, &mut out);
        assert!(out.is_empty(), "an answered fetch re-arms nothing: {out:?}");

        let mut alone = core(1);
        alone.set_donors(Vec::new(), every);
        alone.fetch(slf, 5, 0, &mut out);
        assert!(out.is_empty() && alone.fetching().is_none());
    }

    /// The one subscription, for every kind of subscriber: at the first
    /// ack a replica without donors anchors there; one with donors opens
    /// its fetch with `min` = the ack's seq — an SMR reboot keeps the
    /// anchor its disk gave it, a replica whose early answer anchored it
    /// below the ack holds its stream again, one at or past the ack keeps
    /// it; later acks change nothing.
    #[test]
    fn the_first_subscription_ack_anchors_or_opens_the_fetch() {
        let slf = Loc::new(9);
        let ctx = Ctx::new(slf, VTime::ZERO);
        let d = |seq| Delivery {
            seq,
            client: slf,
            msgid: 0,
            payload: Value::Int(seq),
        };
        let seqs = |ds: Vec<Delivery>| ds.iter().map(|d| d.seq).collect::<Vec<_>>();
        let every = Duration::from_millis(100);
        let mut out = Vec::new();

        // A joiner without donors holds until its ack anchors it.
        let mut joiner = core(1);
        joiner.subscribe(None);
        for seq in [3, 6, 7] {
            assert!(joiner.offer(d(seq)).is_empty(), "held");
        }
        assert_eq!(seqs(joiner.on_subok(&ctx, 6, -1, &mut out)), [6, 7]);
        assert!(out.is_empty() && !joiner.rejoining());
        assert!(
            joiner.on_subok(&ctx, 2, -1, &mut out).is_empty(),
            "a later ack"
        );
        assert_eq!(seqs(joiner.offer(d(8))), [8]);

        // A reboot resuming at its disk's frontier keeps it and fetches.
        let mut smr = core(1);
        smr.set_donors(vec![Loc::new(1)], every);
        smr.subscribe(Some(4));
        assert!(smr.on_subok(&ctx, 9, 4, &mut out).is_empty());
        assert_eq!((smr.anchored(), smr.fetching()), (true, Some(9)));
        assert_eq!(out[0].msg, fetch_msg(slf, 4, 9, 0));

        // A fetch asked before the ack: an answer below the ack is undone,
        // one at or past it stands.
        for (anchor, kept) in [(None, false), (Some(5), false), (Some(9), true)] {
            let mut pbr = core(1);
            pbr.set_donors(vec![Loc::new(1), Loc::new(2)], every);
            pbr.subscribe(None);
            pbr.fetch(slf, 0, 0, &mut out);
            if let Some(at) = anchor {
                assert!(pbr.answers(0, at));
                pbr.anchor(at, VTime::ZERO);
            }
            out.clear();
            assert!(pbr.on_subok(&ctx, 9, 0, &mut out).is_empty());
            assert_eq!(pbr.anchored(), kept, "{anchor:?}");
            assert_eq!(pbr.fetching(), Some(9), "re-aimed");
            assert!(!pbr.answers(0, 8) && pbr.answers(0, 9) && !pbr.answers(1, 9));
        }
    }

    /// Chunks of different snapshot identities never mix: a chunk of
    /// another identity restarts the assembly instead of completing it.
    #[test]
    fn reassembly_rejects_mixed_snapshot_identities() {
        let mut donor = core(1);
        let first = donor.snapshot_chunks(1, Value::Int(1));
        donor.apply_run(&[deposit(1, 0, 2)]);
        let second = donor.snapshot_chunks(2, Value::Int(2));
        assert_eq!(first.len(), second.len());
        let (last, rest) = second.split_last().unwrap();
        let mut joiner = core(1);
        for c in rest {
            assert_eq!(joiner.accept_chunk(c), None);
        }
        // The count is now one short; a chunk of the *other* snapshot in
        // the missing position must not complete the image.
        assert_eq!(joiner.accept_chunk(first.last().unwrap()), None);
        assert_eq!(joiner.accept_chunk(last), None, "assembly restarted");
        assert_eq!(joiner.executed, 0);
        let installed: Vec<Value> = rest.iter().filter_map(|c| joiner.accept_chunk(c)).collect();
        assert_eq!(installed, vec![Value::Int(2)]);
        assert_eq!(state(&joiner), state(&donor));
    }

    /// `(index, image bytes, log bytes since the previous image)` of every
    /// periodic image a replica over a `rows`-row bank takes in `records`
    /// appends of about 90 bytes, one sync each, with `snapshot_every`
    /// 512.
    fn periodic_images(rows: usize, records: i64) -> Vec<(i64, usize, usize)> {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, rows).unwrap();
        let mut c = ReplicaCore::new(db);
        c.attach_wal(Disk::in_memory(Duration::ZERO), 512, 0, 0);
        let body = Value::Bytes(bytes::Bytes::from(vec![7u8; 80]));
        let posted = Arc::new(Collected::default());
        completion::install_sink(posted.clone());
        let mut taken = Vec::new();
        for i in 1..=records {
            c.wal_append(i, &body);
            let log = c.wal.as_ref().unwrap().log_len();
            completion::stepping(Loc::new(0), 0, || c.sync(i, || Value::Unit));
            for (.., synced) in posted.take() {
                c.on_synced(&synced.body, i, || Value::Unit, &mut Vec::new());
            }
            if c.wal_snap_at == i {
                taken.push((i, c.wal.as_ref().unwrap().disk().image_len(), log));
            }
        }
        taken
    }

    /// A periodic image waits for the log to outgrow the last one: a
    /// 10 000-row replica takes its first at 512 records and its second
    /// only at the first sync where the log written since is at least
    /// as large as that first image, while a 64-row replica, whose image
    /// is smaller than 512 records of log, still takes one every 512.
    #[test]
    fn a_periodic_image_waits_for_the_log_to_outgrow_the_last_one() {
        let big = periodic_images(10_000, 6_000);
        assert_eq!(big[0].0, 512);
        let (first, (second, _, log)) = (big[0].1, big[1]);
        assert!(
            first > 512 * 100,
            "a 10 000-row image outweighs 512 records"
        );
        assert!(log >= first, "the log outgrew the image");
        assert!(log < first + 100, "the image came at the first such sync");
        assert!(second > 2 * 512, "later than the record count alone asks");

        let small = periodic_images(64, 2_048);
        let at: Vec<i64> = small.iter().map(|t| t.0).collect();
        assert_eq!(at, vec![512, 1_024, 1_536, 2_048]);
        assert!(small.iter().all(|t| t.1 < t.2), "each image under its log");
    }
}
