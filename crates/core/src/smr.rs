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

use crate::msgs::{reply_msg, TxnEnvelope, STALE_CONFIG_HEADER, SUBMIT_HEADER, SYNC_HEADER};
use crate::probe::{Event, Probe, TransferKind};
use crate::replica_core::{ReplicaCore, Seen};
use crate::shard::ShardRole;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::Database;
use shadowdb_tob::{broadcast_msg, parse_deliver, parse_subok, Delivery, InOrderBuffer};
use shadowdb_wal::Disk;
use shadowdb_workloads::TxnRequest;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Request a snapshot from a replica: body `<requester>` or
/// `<requester, min_seq>` (the donor defers until it has executed at
/// least `min_seq` deliveries, so the snapshot can never undershoot the
/// requester's subscription point).
pub const FETCH_SNAPSHOT_HEADER: &str = "smr/fetchsnap";
/// A snapshot chunk: body `<chunk, <<total, next_seq>, data>>` (the core's
/// transfer format; the image's policy header is `next_seq`).
pub const SNAPSHOT_CHUNK_HEADER: &str = "smr/snapchunk";
/// Joiner-internal retry timer: if the snapshot has not landed (donor
/// crashed mid-stream), re-request from the next donor on the list.
const JOIN_RETRY_HEADER: &str = "smr/joinretry";
/// A disk-recovered replica asks a donor for the delivery suffix it
/// missed: body `<requester, <from_seq, min_seq>>`. The donor answers
/// from its recent-delivery cache when it reaches back to `from_seq`,
/// else falls back to a full snapshot.
const FETCH_DELTA_HEADER: &str = "smr/fetchdelta";
/// The missed suffix: body `<from_seq, [payload...]>` (consecutive
/// delivery payloads starting at `from_seq`).
const DELTA_HEADER: &str = "smr/delta";
/// Self-rearming renewal/claim tick for the read-lease plane.
const LEASE_TIMER_HEADER: &str = "smr/leasetick";
/// Tag of a lease marker ordered through the TOB:
/// `<"lease!", <holder, send_ts_us>>`. Markers ride the ordinary delivery
/// stream (and the WAL with it), so every replica observes the same
/// holder sequence at the same slots.
const LEASE_MARKER_TAG: &str = "lease!";

/// Tuning for the SMR read-lease fast path. The TOB remains the write
/// path; a marker ordered through it elects one replica (the holder)
/// whose database provably reflects every acknowledged write, because
/// every *other* replica suppresses client replies while the marker is
/// fresh — during the lease only the holder acknowledges, and anything
/// the holder acknowledged it has executed.
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
    /// Holder renewal period, also the unit of the claim stagger; `D/4`
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

/// The read-lease plane of one replica (present iff leases are enabled).
#[derive(Clone)]
struct LeaseState {
    opts: SmrLeaseOptions,
    /// TOB entry points for this replica's own broadcasts (markers and
    /// forwarded reads).
    tob_servers: Vec<Loc>,
    /// Claim stagger rank: rank 0 claims a lapsed lease first, higher
    /// ranks wait `rank * renew_every` longer, so the group converges on
    /// a single claimant without a coordination round.
    claim_rank: u64,
    /// Holder named by the latest executed marker.
    holder: Option<Loc>,
    /// The holder's clock (µs) stamped into that marker.
    marker_send_us: i64,
    /// Local delivery time of that marker. `None` means the marker was
    /// WAL-replayed: its receipt time is unknown, so it anchors no live
    /// suppression window (see [`SmrReplica::reanchor_lease`]).
    marker_deliv: Option<VTime>,
    /// Holder-side wait-out: no fast reads before this. Covers the
    /// previous holder's entire window across a hand-off.
    fast_from: VTime,
    /// msgid counter for this replica's own broadcasts.
    msgid: i64,
}

/// Decodes a lease marker payload, if `v` is one (transaction envelopes
/// lead with a `Loc`, so the string tag is unambiguous).
fn parse_lease_marker(v: &Value) -> Option<(Loc, i64)> {
    let (tag, rest) = v.fst().zip(v.snd())?;
    if tag.as_str()? != LEASE_MARKER_TAG {
        return None;
    }
    let (holder, ts) = rest.fst().zip(rest.snd())?;
    Some((holder.as_loc()?, ts.as_int()?))
}

/// An SMR ShadowDB replica: a broadcast-service subscriber executing every
/// delivered transaction — the SMR ordering policy over a [`ReplicaCore`].
#[derive(Clone)]
pub struct SmrReplica {
    /// The replicated service: database, reply cache, executed counter,
    /// 2PC engine, WAL (one record per in-order delivery, keyed by its TOB
    /// sequence number), state transfer.
    core: ReplicaCore,
    incoming: InOrderBuffer,
    /// Snapshot-joining state: deliveries buffer inside `incoming` until
    /// the snapshot establishes the starting sequence number.
    joining: bool,
    /// Donor candidates for a self-driven join ([`SmrReplica::joining_from`]):
    /// the subscription ack triggers the fetch, retries rotate through the
    /// list so a donor crash mid-stream does not strand the joiner.
    donors: Vec<Loc>,
    /// The TOB subscription point, once acked — the fetch's `min_seq`.
    sub_seq: Option<i64>,
    /// Fetch attempts so far (indexes the donor rotation).
    join_attempts: u64,
    /// Reusable envelope buffer for group apply (always empty between
    /// steps; excluded from digests).
    group_scratch: Vec<TxnEnvelope>,
    /// Disk-recovered and waiting to fetch the delivery suffix the disk
    /// missed from a donor.
    rejoin: bool,
    /// Recent in-order deliveries `(seq, payload)`, consecutive up to
    /// `next_seq` — the donor-side cache for suffix-only rejoins.
    recent: VecDeque<(i64, Value)>,
    /// Bound on `recent` (0 disables the cache).
    recent_limit: usize,
    /// Lease-based read fast path, when enabled.
    lease: Option<LeaseState>,
    /// Rebooted after a power loss: the first step recovers from the
    /// attached disk, tearing its unsynced tail from this seed.
    reboot: Option<u64>,
}

impl SmrReplica {
    /// Creates a replica that executes from sequence number 0.
    pub fn new(db: Database) -> SmrReplica {
        SmrReplica {
            core: ReplicaCore::new(db),
            incoming: InOrderBuffer::new(),
            joining: false,
            donors: Vec::new(),
            sub_seq: None,
            join_attempts: 0,
            group_scratch: Vec::new(),
            rejoin: false,
            recent: VecDeque::new(),
            recent_limit: 0,
            lease: None,
            reboot: None,
        }
    }

    /// Enables the lease-based read fast path: markers broadcast through
    /// `tob_servers` elect a holder that answers read-only transactions
    /// from its local database without a broadcast round. `claim_rank`
    /// staggers lapse claims (rank 0 moves first). A replica that adopts
    /// state it did not watch being ordered — a reboot's WAL replay, a
    /// joiner's snapshot — re-anchors the plane itself
    /// ([`SmrReplica::reanchor_lease`]), so the builder steps chain in any
    /// order.
    pub fn with_read_leases(
        mut self,
        tob_servers: Vec<Loc>,
        claim_rank: u64,
        opts: SmrLeaseOptions,
    ) -> SmrReplica {
        assert!(!tob_servers.is_empty(), "leases need a TOB entry point");
        self.lease = Some(LeaseState {
            opts,
            tob_servers,
            claim_rank,
            holder: None,
            marker_send_us: 0,
            marker_deliv: None,
            fast_from: VTime::ZERO,
            msgid: 0,
        });
        self
    }

    /// The message that starts the renewal/claim tick; the deployment
    /// sends it once at boot to every lease-enabled replica.
    pub fn lease_start_msg() -> Msg {
        Msg::new(LEASE_TIMER_HEADER, Value::Unit)
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

    /// Creates a replica that first fetches a snapshot from `donor` before
    /// executing (a replica added by reconfiguration). The deployment must
    /// route a [`FETCH_SNAPSHOT_HEADER`] request to the donor.
    pub fn joining(db: Database) -> SmrReplica {
        SmrReplica {
            joining: true,
            ..SmrReplica::new(db)
        }
    }

    /// Creates a self-driven joiner: once the deployment subscribes it at
    /// the broadcast service, the subscription ack triggers a snapshot
    /// fetch from `donors[0]` with the ack's sequence as `min_seq` — the
    /// donor defers until its execution reaches that point, so the
    /// snapshot plus the subscribed deliveries form a gapless history. If
    /// the snapshot does not land (donor crashed mid-stream), retries
    /// rotate through `donors`.
    pub fn joining_from(db: Database, donors: Vec<Loc>) -> SmrReplica {
        assert!(!donors.is_empty(), "a joiner needs at least one donor");
        SmrReplica {
            donors,
            ..SmrReplica::joining(db)
        }
    }

    /// Attaches a write-ahead log: every in-order delivery is appended
    /// (keyed by its TOB sequence number) and synced at the replica's next
    /// `sdb/sync`, which its replies wait for, with a durable snapshot
    /// every `snapshot_every` deliveries. Durable replicas also keep
    /// `recent_limit` recent deliveries in memory so they can serve
    /// suffix-only rejoins as donors.
    pub fn with_wal(mut self, disk: Disk, snapshot_every: i64, recent_limit: usize) -> SmrReplica {
        self.recent_limit = recent_limit;
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
    /// their recent-delivery caches (a snapshot only if none reaches back).
    pub fn rebooted(mut self, donors: Vec<Loc>, tear: u64) -> SmrReplica {
        self.donors = donors;
        self.reboot = Some(tear);
        self
    }

    /// The recovery a [`SmrReplica::rebooted`] replica runs before
    /// handling its first message.
    fn recover(&mut self, ctx: &Ctx, tear: u64) {
        let (disk, rec) = self.core.recover(tear);
        // Snapshots are taken at `next_seq - 1` (the image's policy header
        // repeats the frontier; the WAL index already implies it).
        let snap_at = rec.snapshot.as_ref().map_or(-1, |(idx, _)| *idx);
        self.incoming = InOrderBuffer::starting_at(snap_at + 1);
        // Replay the logged suffix through the normal execution path
        // (replies and 2PC sends are rendered and dropped; counters and
        // the reply cache advance exactly as they did pre-crash). The
        // replay also refills `recent`, so a just-recovered replica can
        // itself serve as a donor.
        let mut discard = Vec::new();
        for (seq, payload) in &rec.records {
            let d = Delivery {
                seq: *seq,
                client: ctx.slf,
                msgid: 0,
                payload: payload.clone(),
            };
            let ready = self.incoming.offer(d);
            self.execute_deliveries(ctx.slf, None, ready, &mut discard);
        }
        let next = self.incoming.next_seq();
        self.core.resume_wal(disk, snap_at, next - 1);
        self.rejoin = true;
        self.sub_seq = None;
        if let Some(l) = self.lease.as_mut() {
            // This replica's broadcast msgids must not collide with any it
            // used before the crash (the service dedups per source);
            // restart the counter well past anything plausibly used.
            l.msgid = next.max(0).saturating_mul(1_000_000);
        }
        self.reanchor_lease(ctx.now);
    }

    /// Re-anchors the lease plane after adopting state this replica did
    /// not watch being ordered — a WAL replay after a reboot, a snapshot
    /// installed by a joiner. Markers inside that state carry no receipt
    /// time, and any of them may name a holder whose window is still
    /// running. Forget the holder identity and start suppression at `now`:
    /// for one lease length this replica neither serves fast reads nor
    /// acknowledges writes, which covers every window granted by a marker
    /// sent before `now` (suppressing too long is always safe).
    fn reanchor_lease(&mut self, now: VTime) {
        if let Some(l) = self.lease.as_mut() {
            l.holder = None;
            l.marker_deliv = Some(now);
        }
    }

    /// Builds the snapshot-fetch request sent to the donor replica.
    pub fn fetch_snapshot_msg(requester: Loc) -> Msg {
        Msg::new(FETCH_SNAPSHOT_HEADER, Value::Loc(requester))
    }

    /// A snapshot-fetch request the donor defers until it has executed at
    /// least `min_seq` deliveries.
    pub fn fetch_snapshot_after_msg(requester: Loc, min_seq: i64) -> Msg {
        Msg::new(
            FETCH_SNAPSHOT_HEADER,
            Value::pair(Value::Loc(requester), Value::Int(min_seq)),
        )
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
            // recent cache is what donors serve suffix rejoins from.
            if self.recent_limit > 0 {
                self.recent.push_back((d.seq, d.payload.clone()));
                while self.recent.len() > self.recent_limit {
                    self.recent.pop_front();
                }
            }
            self.core.wal_append(d.seq, &d.payload);
            if let Some((holder, send_us)) = parse_lease_marker(&d.payload) {
                // Suppression is evaluated at each group's flush, so the
                // envelopes before the marker must answer under the old
                // holder, those after it under the new one.
                self.flush_group(slf, now, &mut group, outs);
                self.execute_lease_marker(slf, now, holder, send_us);
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
                if !self.replies_suppressed(slf, now) {
                    outs.extend(self.cached_reply(slf, env.client));
                }
                continue;
            }
            group.push(env);
        }
        self.flush_group(slf, now, &mut group, outs);
        self.group_scratch = group;
    }

    /// Installs the holder named by a marker delivered (or replayed) at
    /// this replica. The TOB totally orders markers, so every replica
    /// steps through the same holder sequence at the same slots; only
    /// the *local* timestamps anchoring suppression and the hand-off
    /// wait-out differ per replica.
    fn execute_lease_marker(&mut self, slf: Loc, now: Option<VTime>, holder: Loc, send_us: i64) {
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

    /// Whether this replica must withhold client replies right now: a
    /// marker naming someone else is still fresh. While every non-holder
    /// stays silent, the first answer a client can observe comes from the
    /// holder — which therefore has executed everything it acknowledged,
    /// the invariant the fast read path rests on. Protocol traffic (2PC
    /// records) is never suppressed.
    fn replies_suppressed(&self, slf: Loc, now: Option<VTime>) -> bool {
        let Some(l) = &self.lease else {
            return false;
        };
        // WAL replay renders and discards all sends; suppression state is
        // irrelevant there.
        let Some(now) = now else {
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
        if !self.replies_suppressed(slf, now) {
            // No client appears twice in a group, so each cache entry is
            // exactly this group's answer.
            outs.extend(
                group
                    .iter()
                    .filter_map(|e| self.cached_reply(slf, e.client)),
            );
        }
        group.clear();
    }

    /// The reply-cache answer for `client`'s last request, as a send.
    fn cached_reply(&self, slf: Loc, client: Loc) -> Option<SendInstr> {
        let (cseq, committed, result) = self.core.cached_reply(client)?;
        Some(SendInstr::now(
            client,
            reply_msg(slf, cseq, committed, result),
        ))
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

    fn on_fetch_snapshot(&mut self, slf: Loc, body: &Value, outs: &mut Vec<SendInstr>) {
        let (requester, min_seq) = match body.as_loc() {
            Some(l) => (l, 0),
            None => match (body.fst(), body.snd()) {
                (Some(l), Some(s)) => match l.as_loc() {
                    Some(l) => (l, s.int()),
                    None => return,
                },
                _ => return,
            },
        };
        if self.incoming.next_seq() < min_seq {
            // Behind the requester's subscription point: a snapshot now
            // would leave a delivery gap the joiner can never fill. Answer
            // once execution has advanced past it.
            outs.push(SendInstr::after(
                Duration::from_millis(10),
                slf,
                Msg::new(FETCH_SNAPSHOT_HEADER, body.clone()),
            ));
            return;
        }
        // The image's identity and policy header are both the delivery
        // frontier: the joiner resumes the stream exactly there.
        let next = self.incoming.next_seq();
        let chunks = self.core.snapshot_chunks(next, Value::Int(next));
        outs.extend(
            chunks
                .into_iter()
                .map(|c| SendInstr::now(requester, Msg::new(SNAPSHOT_CHUNK_HEADER, c))),
        );
    }

    /// Fires (or retries) the join request once the subscription point is
    /// known — a snapshot fetch for a fresh joiner, the missed suffix
    /// `[next_seq, sub_seq)` for a disk-recovered replica — rotating
    /// through the donor list and re-arming the retry timer: a donor
    /// crash mid-stream must not strand the joiner.
    fn kick_join(&mut self, slf: Loc, outs: &mut Vec<SendInstr>) {
        let Some(seq) = self.sub_seq else { return };
        if self.donors.is_empty() {
            return;
        }
        let donor = self.donors[(self.join_attempts as usize) % self.donors.len()];
        self.join_attempts += 1;
        let request = if self.joining {
            SmrReplica::fetch_snapshot_after_msg(slf, seq)
        } else {
            let range = Value::pair(Value::Int(self.incoming.next_seq()), Value::Int(seq));
            Msg::new(FETCH_DELTA_HEADER, Value::pair(Value::Loc(slf), range))
        };
        outs.push(SendInstr::now(donor, request));
        outs.push(SendInstr::after(
            Duration::from_secs(1),
            slf,
            Msg::new(JOIN_RETRY_HEADER, Value::Unit),
        ));
    }

    /// Donor side of a suffix rejoin. Serve `[from, next_seq)` from the
    /// recent-delivery cache when it reaches back to `from`; fall back to
    /// a full snapshot otherwise. Like a snapshot fetch, the request is
    /// deferred while this replica is behind the requester's subscription
    /// point.
    fn on_fetch_delta(&mut self, slf: Loc, body: &Value, outs: &mut Vec<SendInstr>) {
        let (requester, rest) = body.unpair();
        let (from, min_seq) = rest.unpair();
        let (requester, from, min_seq) = (requester.loc(), from.int(), min_seq.int());
        let next = self.incoming.next_seq();
        if next < min_seq {
            outs.push(SendInstr::after(
                Duration::from_millis(10),
                slf,
                Msg::new(FETCH_DELTA_HEADER, body.clone()),
            ));
            return;
        }
        let cache_start = next - self.recent.len() as i64;
        if from >= cache_start {
            let payloads: Vec<Value> = self
                .recent
                .iter()
                .filter(|(s, _)| *s >= from)
                .map(|(_, p)| p.clone())
                .collect();
            self.core.note(Event::Transfer {
                to: requester,
                kind: TransferKind::Catchup,
            });
            outs.push(SendInstr::now(
                requester,
                Msg::new(
                    DELTA_HEADER,
                    Value::pair(Value::Int(from), Value::list(payloads)),
                ),
            ));
        } else {
            self.core.note(Event::Transfer {
                to: requester,
                kind: TransferKind::Snapshot,
            });
            self.on_fetch_snapshot(
                slf,
                &Value::pair(Value::Loc(requester), Value::Int(min_seq)),
                outs,
            );
        }
    }

    /// Receiver side of a suffix rejoin: feed the donor's payloads into
    /// the in-order buffer as synthetic deliveries and execute normally —
    /// they are logged, cached, deduplicated, and answered exactly like
    /// live traffic (duplicate replies are harmless; clients drop them).
    fn on_delta(&mut self, slf: Loc, now: VTime, body: &Value, outs: &mut Vec<SendInstr>) {
        if !self.rejoin {
            return;
        }
        let (from, list) = body.unpair();
        let from = from.int();
        let Some(items) = list.as_list() else { return };
        let mut ready = Vec::new();
        for (k, payload) in items.iter().enumerate() {
            let d = Delivery {
                seq: from + k as i64,
                client: slf,
                msgid: 0,
                payload: payload.clone(),
            };
            ready.extend(self.incoming.offer(d));
        }
        self.execute_deliveries(slf, Some(now), ready, outs);
        if self.sub_seq.is_some_and(|s| self.incoming.next_seq() >= s) {
            // The suffix meets the live subscription: fully rejoined.
            self.rejoin = false;
        }
    }

    fn on_snapshot_chunk(&mut self, slf: Loc, now: VTime, body: &Value, outs: &mut Vec<SendInstr>) {
        if !self.joining && !self.rejoin {
            return;
        }
        // The image carries the donor's `executed`, reply cache and — in a
        // sharded group — 2PC state, so this replica deduplicates and
        // drives cross-shard commits exactly as its donors do.
        let Some(next_seq) = self.core.accept_chunk(body).and_then(|h| h.as_int()) else {
            return;
        };
        self.joining = false;
        self.rejoin = false;
        // The image may cover a marker whose window is still running.
        self.reanchor_lease(now);
        // Skip everything the snapshot already covers, then replay whatever
        // arrived while joining.
        let held = std::mem::replace(&mut self.incoming, InOrderBuffer::starting_at(next_seq));
        // The cache must stay consecutive up to `next_seq`; pre-restore
        // entries no longer are.
        self.recent.clear();
        let mut ready = Vec::new();
        for d in held.into_pending() {
            ready.extend(self.incoming.offer(d));
        }
        self.execute_deliveries(slf, Some(now), ready, outs);
    }

    /// The holder's remaining fast window, if this replica may serve a
    /// fast read right now: it is the holder, past the hand-off wait-out,
    /// and within `send_ts + D - margin` of its own marker.
    fn lease_until(&self, ctx: &Ctx) -> Option<VTime> {
        let l = self.lease.as_ref()?;
        if l.holder != Some(ctx.slf) || ctx.now < l.fast_from {
            return None;
        }
        let horizon = l.opts.lease_duration.saturating_sub(l.opts.lease_margin);
        let until = VTime::from_micros(l.marker_send_us as u64) + horizon;
        (ctx.now < until).then_some(until)
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
        if env.read_only && !self.joining && !self.rejoin {
            if let (Some(until), Some(l)) = (self.lease_until(ctx), &self.lease) {
                if self
                    .core
                    .serve_lease_read(ctx, &env, l.marker_send_us, until, outs)
                {
                    return;
                }
            }
        }
        let Some(l) = self.lease.as_mut() else {
            // No lease plane, so no TOB route of our own: drop, and the
            // client's broadcast resend covers the request.
            return;
        };
        let server = l.tob_servers[ctx.slf.index() as usize % l.tob_servers.len()];
        let msgid = l.msgid;
        l.msgid += 1;
        outs.push(SendInstr::now(
            server,
            broadcast_msg(ctx.slf, msgid, env.to_value()),
        ));
    }

    /// The renewal/claim tick. The holder re-broadcasts its marker each
    /// tick; a replica observing a lapsed (or absent) lease claims it
    /// after its rank-staggered patience runs out. Races are safe — the
    /// TOB totally orders markers and the latest one wins everywhere —
    /// the stagger only keeps the common case down to one claimant.
    fn on_lease_timer(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        let Some(l) = &self.lease else { return };
        outs.push(SendInstr::after(
            l.opts.renew_every,
            ctx.slf,
            Msg::new(LEASE_TIMER_HEADER, Value::Unit),
        ));
        if self.joining || self.rejoin {
            return;
        }
        let l = self.lease.as_ref().expect("checked above");
        let claim = match (l.holder, l.marker_deliv) {
            // This replica holds the lease: renew unconditionally (a
            // lapsed own lease re-claims through the same marker).
            (Some(h), _) if h == ctx.slf => true,
            // Someone else holds it: claim only once it has lapsed and
            // this replica's stagger rank has run out.
            (_, Some(deliv)) => {
                let lapse = deliv + l.opts.lease_duration;
                ctx.now >= lapse + l.opts.renew_every * (l.claim_rank as u32)
            }
            // No live marker ever seen: rank-staggered initial claim.
            (_, None) => ctx.now >= VTime::ZERO + l.opts.renew_every * (l.claim_rank as u32),
        };
        if !claim {
            return;
        }
        let l = self.lease.as_mut().expect("checked above");
        let server = l.tob_servers[ctx.slf.index() as usize % l.tob_servers.len()];
        let msgid = l.msgid;
        l.msgid += 1;
        let marker = Value::pair(
            Value::str(LEASE_MARKER_TAG),
            Value::pair(Value::Loc(ctx.slf), Value::Int(ctx.now.as_micros() as i64)),
        );
        outs.push(SendInstr::now(
            server,
            broadcast_msg(ctx.slf, msgid, marker),
        ));
    }
}

impl Process for SmrReplica {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if let Some(tear) = self.reboot.take() {
            self.recover(ctx, tear);
        }
        let first = out.len();
        let h = msg.header;
        if h == cached_header!(FETCH_SNAPSHOT_HEADER) {
            self.on_fetch_snapshot(ctx.slf, &msg.body, out);
        } else if h == cached_header!(SNAPSHOT_CHUNK_HEADER) {
            self.on_snapshot_chunk(ctx.slf, ctx.now, &msg.body, out);
        } else if h == cached_header!(FETCH_DELTA_HEADER) {
            self.on_fetch_delta(ctx.slf, &msg.body, out);
        } else if h == cached_header!(DELTA_HEADER) {
            self.on_delta(ctx.slf, ctx.now, &msg.body, out);
        } else if h == cached_header!(SUBMIT_HEADER) {
            self.on_submit(ctx, &msg.body, out);
        } else if h == cached_header!(SYNC_HEADER) {
            let next = self.incoming.next_seq();
            self.core.sync(next - 1, || Value::Int(next), out);
        } else if h == cached_header!(LEASE_TIMER_HEADER) {
            self.on_lease_timer(ctx, out);
        } else if h == cached_header!(JOIN_RETRY_HEADER) {
            if self.joining || self.rejoin {
                self.kick_join(ctx.slf, out);
            }
        } else if h == cached_header!(STALE_CONFIG_HEADER) {
            self.core.on_stale_config(msg);
        } else if let Some(seq) = parse_subok(msg) {
            // The subscription ack pins the join's `min_seq`: the first
            // ack wins (every broadcast server acks its own sequence, and
            // each covers all slots from its ack onward, so any single ack
            // is a safe lower bound for the fetch).
            if (self.rejoin || self.joining) && self.sub_seq.is_none() {
                self.sub_seq = Some(seq);
                // A disk-recovered replica runs the delta handshake even
                // when its disk already reaches the subscription point
                // (the suffix is then empty): the donor's answer is the
                // observable record that the rejoin took the suffix path,
                // and feeding an empty delta completes the rejoin
                // immediately.
                self.kick_join(ctx.slf, out);
            }
        } else if let Some(d) = parse_deliver(msg) {
            let ready = self.incoming.offer(d);
            if !self.joining {
                self.execute_deliveries(ctx.slf, Some(ctx.now), ready, out);
            }
        }
        // Durability before visibility: whatever this step sent — replies,
        // 2PC emissions, fast-path reads — waits for the sync that covers
        // every delivery logged so far. Nothing replicates ahead: the
        // broadcast service, not this replica, carries the records.
        let last = self.incoming.next_seq() - 1;
        self.core.gate_step(ctx.slf, last, first, out, |_| false);
    }

    fn take_step_cost(&mut self) -> Duration {
        self.core.take_step_cost()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (self.core.executed(), self.joining, self.incoming.next_seq()).hash(&mut h);
        (self.sub_seq, self.join_attempts, self.rejoin).hash(&mut h);
        self.core.twopc_seq().hash(&mut h);
        if let Some(l) = &self.lease {
            // Replicated lease state only: the holder sequence and its
            // stamps are functions of the delivered TOB prefix; the local
            // receipt times (`marker_deliv`, `fast_from`) are not.
            (l.holder, l.marker_send_us, l.msgid).hash(&mut h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::REPLY_HEADER;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_tob::DELIVER_HEADER;
    use shadowdb_workloads::bank;

    const TOB: Loc = Loc::new(9);
    const SLF: Loc = Loc::new(1);
    const CLIENT: Loc = Loc::new(20);

    /// A durable lease replica over `disk`, as the deployment's recipe
    /// chains the builder steps.
    fn replica(disk: &Disk) -> SmrReplica {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 4).expect("bank loads");
        SmrReplica::new(db)
            .with_wal(disk.clone(), 1_000, 16)
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

    /// Steps `r` on `msg` and then on the `sdb/sync` it scheduled, if any;
    /// returns how many client replies left.
    fn replies(r: &mut SmrReplica, at: VTime, msg: &Msg) -> usize {
        let ctx = Ctx::new(SLF, at);
        let mut outs = r.step(&ctx, msg);
        if outs.iter().any(|s| s.msg.header.name() == SYNC_HEADER) {
            outs.extend(r.step(&ctx, &Msg::new(SYNC_HEADER, Value::Unit)));
        }
        let reply = |s: &&SendInstr| s.msg.header.name() == REPLY_HEADER;
        outs.iter().filter(reply).count()
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
