//! The replicated service both ordering policies drive.
//!
//! The paper's PBR and SMR differ in *who orders* transactions; below the
//! ordering they are the same thing — an unmodified SQL engine plus
//! per-client-sequence-number duplicate suppression. [`ReplicaCore`] is
//! that thing, once: the database handle, the reply cache, the executed
//! counter, grouped apply, 2PC engine hosting, the write-ahead log's
//! durability point and the acknowledgments parked behind it, and chunked
//! state transfer. `pbr` and `smr` keep only their ordering policy (who
//! orders, who replies, who may serve a fast read, what a WAL record is)
//! and call into this module.
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
    lease_audit_msg, parse_stale_config, reply_msg, sql_to_value, value_to_sql, TxnEnvelope,
    SYNC_HEADER,
};
use crate::probe::{Event, Probe};
use crate::shard::{ShardRole, TwoPcEngine};
use shadowdb_eventml::{cached_header, Ctx, Msg, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::{Database, RowBatch, Snapshot, SqlValue};
use shadowdb_wal::{Disk, Recovered, Wal};
use shadowdb_workloads::{apply_group, TxnId, TxnRequest};
use std::collections::{BTreeMap, HashMap};
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

/// The service state and plumbing shared by every replica, whatever
/// orders its transactions.
pub(crate) struct ReplicaCore {
    db: Database,
    /// client -> (last cseq, committed, results) for duplicate suppression.
    last_reply: HashMap<Loc, (i64, bool, Vec<SqlValue>)>,
    /// Number of transactions executed (PBR's election criterion).
    executed: i64,
    /// Deferred CPU cost (transaction execution, snapshot work, fsyncs).
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
    /// WAL index the last durable snapshot covers (truncation point).
    wal_snap_at: i64,
    /// Take a durable snapshot every this many WAL records.
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
    /// The deployment's event log (observes state, is not state).
    probe: Option<Probe>,
    /// The model checker's lease-audit sink: every lease read is also
    /// announced to it as a message, which forks with the execution.
    lease_audit: Option<Loc>,
}

impl ReplicaCore {
    pub(crate) fn new(db: Database) -> ReplicaCore {
        ReplicaCore {
            db,
            last_reply: HashMap::new(),
            executed: 0,
            step_cost: Duration::ZERO,
            role: None,
            engine: None,
            twopc_seq: Vec::new(),
            wal: None,
            wal_snap_at: 0,
            snapshot_every: i64::MAX,
            durable: i64::MAX,
            parked: Vec::new(),
            sync_scheduled: false,
            transfer_batch_bytes: 50_000,
            assembly: Assembly::default(),
            probe: None,
            lease_audit: None,
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

    /// Whether `env` is a 2PC protocol record this replica must step the
    /// engine on (always false outside a sharded deployment).
    pub(crate) fn is_twopc(&self, env: &TxnEnvelope) -> bool {
        self.engine.is_some() && matches!(env.txn, TxnRequest::TwoPc(_))
    }

    /// Executes a run of plain transactions under ONE engine transaction
    /// (one commit for the whole run), with per-transaction cost and
    /// reply-cache bookkeeping identical to sequential execution. Replica
    /// execution is single-threaded, so the grouped answers match
    /// unbatched ones. Outcomes are read back through
    /// [`Self::cached_reply`]; a caller that replies per transaction must
    /// therefore not put one client twice in a run.
    pub(crate) fn apply_run(&mut self, envs: &[TxnEnvelope]) {
        if envs.is_empty() {
            return;
        }
        let reqs: Vec<&TxnRequest> = envs.iter().map(|e| &e.txn).collect();
        let results = apply_group(&self.db, &reqs);
        for (env, res) in envs.iter().zip(results) {
            let (committed, result, cost) = res
                .map(|o| (o.committed, o.result, o.cost))
                .unwrap_or_else(|e| (false, vec![SqlValue::Text(e.to_string())], Duration::ZERO));
            self.step_cost += cost;
            self.executed += 1;
            self.last_reply
                .insert(env.client, (env.cseq, committed, result));
        }
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

    /// Answers `env` from local state on the lease-protected fast path,
    /// recording the served read (lease `term`, valid to `until`) with the
    /// deployment's observers. Refuses (returns false) anything that is
    /// not a lockless SELECT — the client's read-only flag is advisory,
    /// and a mis-flagged transaction falls through to ordered execution.
    pub(crate) fn serve_lease_read(
        &mut self,
        ctx: &Ctx,
        env: &TxnEnvelope,
        term: i64,
        until: VTime,
        outs: &mut Vec<SendInstr>,
    ) -> bool {
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

    /// Serializes a durable snapshot: the image head beside one row blob.
    fn durable_blob(&self, header: Value, snapshot: &Snapshot) -> Value {
        Value::pair(self.image_head(header), Value::Bytes(snapshot.to_bytes()))
    }

    /// Restores what [`Self::durable_blob`] captured (a corrupt snapshot
    /// file never reaches here — the WAL checksums it — but recovery
    /// stays total regardless).
    fn install_durable_blob(&mut self, blob: &Value) -> Option<Value> {
        let rows = Snapshot::from_bytes(blob.snd()?.as_bytes()?.clone()).ok()?;
        self.install_image(blob.fst()?, &rows)
    }

    // -- durability ----------------------------------------------------------

    /// Attaches a write-ahead log over `disk`, with a durable snapshot
    /// (and log truncation) every `snapshot_every` records. `snap_at` is
    /// the index the disk's snapshot covers and `durable` the highest
    /// index the disk holds — both one below the policy's first record
    /// index on an empty disk.
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
        self.wal = Some(Wal::open(disk));
    }

    /// The first step of a rebooted replica: resolves what the power loss
    /// tore off the attached disk's unsynced tail (`tear` seeds
    /// [`Disk::begin_recovery`]), reads the disk back and installs the
    /// latest durable image, if any. In the returned recovery the
    /// snapshot's blob is replaced by its policy header; the logged suffix
    /// is the policy's to replay through its own execution path. The log
    /// comes back *detached* — the replay must not be logged again — so
    /// hand the disk to [`Self::resume_wal`] afterwards.
    pub(crate) fn recover(&mut self, tear: u64) -> (Disk, Recovered) {
        let wal = self.wal.take().expect("a rebooted replica has a disk");
        let disk = wal.disk().clone();
        disk.begin_recovery(tear);
        let mut rec = shadowdb_wal::recover(&disk);
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
    /// whatever order, the runtime delivers `sdb/sync`.
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
        if !self.sync_scheduled {
            self.sync_scheduled = true;
            let sync = Msg::new(cached_header!(SYNC_HEADER), Value::Unit);
            out.push(SendInstr::now(slf, sync));
        }
    }

    /// The durability point, run on `sdb/sync`: one fsync covers every
    /// record appended since the previous one (group commit — however
    /// many steps the runtime delivered in between, they cost one sync,
    /// not one each), then everything parked behind it is released into
    /// `out`. Every `snapshot_every` records, and after a network image,
    /// the log is folded into a durable snapshot instead (which truncates
    /// it). `last` is the newest log index; `header` renders the policy
    /// header, only if a snapshot is actually taken.
    pub(crate) fn sync(
        &mut self,
        last: i64,
        header: impl FnOnce() -> Value,
        out: &mut Vec<SendInstr>,
    ) {
        self.sync_scheduled = false;
        if self.wal.is_none() {
            return;
        }
        let cost =
            if self.durable == NOTHING_DURABLE || last - self.wal_snap_at >= self.snapshot_every {
                let snapshot = self.db.snapshot();
                let scan = self.db.profile().costs.scan_row_us * snapshot.row_count() as u64;
                let blob = self.durable_blob(header(), &snapshot);
                self.wal_snap_at = last;
                let w = self.wal.as_mut().expect("checked above");
                Duration::from_micros(scan) + w.save_snapshot(last, &blob)
            } else {
                // Zero when nothing was appended since the last sync.
                self.wal.as_mut().expect("checked above").commit()
            };
        self.step_cost += cost;
        self.durable = last;
        for (index, send) in std::mem::take(&mut self.parked) {
            self.gate(index, send, out);
        }
    }

    // -- chunked state transfer ----------------------------------------------

    /// Cuts a full state image into transfer chunks of ~`transfer_batch_
    /// bytes` rows each, charging serialization cost per the engine
    /// profile. Chunk body: `<i, <<total, id>, data>>`, where `data` is
    /// the row bytes — and on the first chunk `<head, row bytes>`, so
    /// the non-row part travels once and arrival order is moot. `id` is
    /// the donor's snapshot identity (see [`Assembly`]).
    pub(crate) fn snapshot_chunks(&mut self, id: i64, header: Value) -> Vec<Value> {
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
    /// cost) and its policy header returned; a durable replica then takes
    /// a durable snapshot at its next sync.
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
        }
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

impl Clone for ReplicaCore {
    /// Deep-copies the database so the fork is independent (model
    /// checking forks executions; `Database`'s own `Clone` shares state).
    fn clone(&self) -> ReplicaCore {
        let db = Database::new(self.db.profile().clone());
        db.restore(&self.db.snapshot())
            .expect("snapshot of a valid database restores");
        ReplicaCore {
            db,
            last_reply: self.last_reply.clone(),
            executed: self.executed,
            step_cost: self.step_cost,
            role: self.role.clone(),
            engine: self.engine.clone(),
            twopc_seq: self.twopc_seq.clone(),
            // The fork shares the original's disk: model checking never
            // runs durable replicas, and a shared-append fork would
            // corrupt the index sequence — reopening keeps the clone
            // well-formed for read-only use.
            wal: self.wal.as_ref().map(|w| Wal::open(w.disk().clone())),
            wal_snap_at: self.wal_snap_at,
            snapshot_every: self.snapshot_every,
            durable: self.durable,
            parked: self.parked.clone(),
            sync_scheduled: self.sync_scheduled,
            transfer_batch_bytes: self.transfer_batch_bytes,
            assembly: self.assembly.clone(),
            probe: self.probe.clone(),
            lease_audit: self.lease_audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{GroupRoute, Policy, Routes};
    use proptest::prelude::*;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_workloads::{bank, ShardMap, TwoPcRecord};

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
            let blob = donor.durable_blob(header.clone(), &donor.db.snapshot());
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
        let good = donor.durable_blob(Value::Int(1), &donor.db.snapshot());
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
}
