//! Primary-backup replication (Sec. III-A).
//!
//! Normal case, hand-written as in the paper: (i) the client sends `T` to
//! the primary; (ii) the primary, on first reception, executes and commits
//! `T` and forwards it to the backups; (iii) the backups execute, commit,
//! and acknowledge; (iv) the primary replies to the client once *all*
//! (recovered) backups acknowledged. Execution is sequential at every
//! replica; duplicates are no-ops via per-client sequence numbers. With a
//! write-ahead log attached, "commit" includes the fsync: a backup's ack
//! and the primary's reply each wait for the `sdb/sync` that covers their
//! record, while the forward leaves ahead of the primary's — the two
//! replicas sync in parallel.
//!
//! Failure handling runs through the verified broadcast service:
//!
//! 1. a replica suspecting a crash **stops** executing in the current
//!    configuration;
//! 2. it broadcasts a new-configuration proposal tagged with the current
//!    configuration's sequence number;
//! 3. replicas adopt only the **first** delivered proposal per
//!    configuration, then exchange `(g+1, seq_r)` election messages;
//! 4. the member with the largest executed-transaction sequence number
//!    (ties → smallest identifier) becomes primary;
//! 5. the new primary sends missing transactions from its cache, or a full
//!    snapshot in ~50 KB batches when the cache does not reach far enough;
//! 6. backups acknowledge;
//! 7. the primary resumes — immediately after the *first* acknowledgment
//!    when overlapped state transfer is enabled (possible with ≥3
//!    replicas), else after all of them.

use crate::msgs::{
    config_reply_msg, reply_msg, stale_config_msg, ConfigCommand, ReplicaConfig, TxnEnvelope,
    ACK_HEADER, CATCHUP_HEADER, CONFIG_QUERY_HEADER, ELECT_HEADER, FORWARD_HEADER, HB_TIMER_HEADER,
    HEARTBEAT_HEADER, RECOVERY_ACK_HEADER, REFETCH_HEADER, SNAPSHOT_HEADER, STALE_CONFIG_HEADER,
    SUBMIT_HEADER, SYNC_HEADER,
};
use crate::probe::{Event, Probe, TransferKind};
use crate::replica_core::{ReplicaCore, Seen};
use crate::shard::ShardRole;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::Database;
use shadowdb_tob::{broadcast_msg, parse_deliver, parse_subok, Delivery, InOrderBuffer};
use shadowdb_wal::Disk;
use shadowdb_workloads::{TxnOutcome, TxnRequest};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Tag of a WAL record holding an executed transaction envelope.
pub(crate) const WREC_TXN: i64 = 0;
/// Tag of a WAL record holding an adopted configuration (the replica's
/// position on the config chain must recover along with its data).
pub(crate) const WREC_CONFIG: i64 = 1;

/// Tuning knobs for a PBR replica.
#[derive(Clone, Debug)]
pub struct PbrOptions {
    /// Heartbeat period.
    pub heartbeat_every: Duration,
    /// Silence threshold after which a peer is suspected ("detection time
    /// is configurable"; Fig. 10(a) uses 10 s).
    pub detect_after: Duration,
    /// Executed-transaction cache size for catch-up ("each replica only
    /// caches a limited number of executed transactions").
    pub cache_limit: usize,
    /// State-transfer batch size in bytes (~50 KB in the paper).
    pub transfer_batch_bytes: usize,
    /// Resume normal processing after the first recovered backup instead
    /// of all of them (Sec. III-A's overlapped state transfer).
    pub overlapped_transfer: bool,
    /// Enable the lease-based read fast path: the primary answers
    /// read-only transactions from local state, without forwarding, while
    /// it provably holds the group's read lease. Off by default — the
    /// seed's behavior is byte-identical with this unset.
    pub read_leases: bool,
    /// Lease length `D`. A grant echoed at primary-clock time `t` covers
    /// fast reads until `t + D - lease_margin`; a promoted primary waits
    /// `D + lease_margin` after finishing recovery before serving.
    pub lease_duration: Duration,
    /// Clock-error allowance subtracted from every lease and added to
    /// every wait-out. Zero is sound on simnet (one virtual clock);
    /// real-clock runtimes must set it to cover their worst-case skew.
    pub lease_margin: Duration,
}

impl Default for PbrOptions {
    fn default() -> Self {
        PbrOptions {
            heartbeat_every: Duration::from_millis(1_000),
            detect_after: Duration::from_secs(10),
            cache_limit: 10_000,
            transfer_batch_bytes: 50_000,
            overlapped_transfer: false,
            read_leases: false,
            lease_duration: Duration::from_secs(4),
            lease_margin: Duration::ZERO,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Mode {
    /// Normal-case processing.
    Normal,
    /// Stopped: suspicion raised, awaiting the configuration decision.
    Stopped,
    /// Recovering: election/catch-up in the new configuration.
    Recovering,
    /// Not a member of the current configuration.
    Idle,
}

#[derive(Clone)]
struct Pending {
    env: TxnEnvelope,
    outcome: TxnOutcome,
    waiting: BTreeSet<Loc>,
    /// WAL index of this transaction's own record: the entry is released
    /// only once the local log is durable through it, too.
    wal: i64,
    /// Sends computed at execute time (2PC votes, decisions, replies to
    /// other groups) that must not escape before the backups acknowledged:
    /// they reflect state the group has not durably replicated yet.
    extra: Vec<SendInstr>,
    /// Suppress the client reply on release (2PC records answer through
    /// the protocol, not the reply path).
    suppress_reply: bool,
}

/// A primary-backup ShadowDB replica: the PBR ordering policy over a
/// [`ReplicaCore`].
#[derive(Clone)]
pub struct PbrReplica {
    /// The replicated service: database, reply cache, executed counter,
    /// 2PC engine, WAL, state transfer.
    core: ReplicaCore,
    options: PbrOptions,
    config: ReplicaConfig,
    spares: Vec<Loc>,
    tob_servers: Vec<Loc>,
    mode: Mode,
    /// Cache of executed transactions for catch-up; `log[0]` has index
    /// `log_start`.
    log: VecDeque<TxnEnvelope>,
    log_start: i64,
    /// Primary: transactions awaiting backup acks, by index.
    pending: BTreeMap<i64, Pending>,
    /// Primary: backups currently participating in acknowledgments.
    active_backups: BTreeSet<Loc>,
    /// Backup: out-of-order forwards buffered by index.
    forward_buf: BTreeMap<i64, TxnEnvelope>,
    /// Failure detection.
    last_heard: HashMap<Loc, VTime>,
    hb_armed: bool,
    /// Reconfiguration machinery.
    tob_in: InOrderBuffer,
    tob_msgid: i64,
    election: HashMap<Loc, i64>,
    recovery_acks: BTreeSet<Loc>,
    /// Election tie-break preference installed by the last `Promote`
    /// command; cleared by every other configuration adoption.
    promote_pref: Option<Loc>,
    /// A joiner created mid-run awaits its first `tob/subok` to anchor
    /// `tob_in` at the broadcast seq its dynamic subscription starts at.
    join_sync: bool,
    /// Last configuration seq this replica reported to the probe.
    probe_last: Option<i64>,
    /// Sends rendered while executing 2PC records; the primary attaches
    /// them to the pending entry (ack-gated), everyone else drops them.
    twopc_outbox: Vec<SendInstr>,
    /// Monotone WAL record index (transactions and config adoptions share
    /// one sequence; `executed` alone cannot index config records).
    wal_index: i64,
    /// Set by disk recovery: ask the group for the suffix the disk missed
    /// (re-sent on the heartbeat timer until recovery completes).
    need_refetch: bool,
    /// Primary: per-peer lease grants — the latest of our own heartbeat
    /// timestamps each member of the current configuration has echoed
    /// back. The lease holds while *every* other member's echo is fresh;
    /// a peer that adopts a newer configuration stops echoing, so the
    /// lease self-expires within `lease_duration` of any membership
    /// change. Timing state: excluded from the digest, like `last_heard`.
    lease_echo: HashMap<Loc, VTime>,
    /// Backup: the latest primary heartbeat timestamp seen in the current
    /// configuration — echoed back on our own heartbeats.
    primary_ts: VTime,
    /// No fast-path reads before this instant: a primary promoted by
    /// recovery waits out the previous configuration's largest possible
    /// outstanding lease.
    lease_wait_until: VTime,
    /// Rebooted after a power loss: the first step recovers from the
    /// attached disk, tearing its unsynced tail from this seed.
    reboot: Option<u64>,
}

impl PbrReplica {
    /// Creates a replica over `db` in the initial configuration.
    /// `spares` are replacement candidates for crashed members;
    /// `tob_servers` are the broadcast service's entry points.
    pub fn new(
        db: Database,
        config: ReplicaConfig,
        spares: Vec<Loc>,
        tob_servers: Vec<Loc>,
        options: PbrOptions,
    ) -> PbrReplica {
        let mut core = ReplicaCore::new(db);
        core.set_transfer_batch_bytes(options.transfer_batch_bytes);
        PbrReplica {
            core,
            options,
            config,
            spares,
            tob_servers,
            mode: Mode::Normal,
            log: VecDeque::new(),
            log_start: 0,
            pending: BTreeMap::new(),
            active_backups: BTreeSet::new(),
            forward_buf: BTreeMap::new(),
            last_heard: HashMap::new(),
            hb_armed: false,
            tob_in: InOrderBuffer::new(),
            tob_msgid: 0,
            election: HashMap::new(),
            recovery_acks: BTreeSet::new(),
            promote_pref: None,
            join_sync: false,
            probe_last: None,
            twopc_outbox: Vec::new(),
            wal_index: 0,
            need_refetch: false,
            lease_echo: HashMap::new(),
            primary_ts: VTime::ZERO,
            lease_wait_until: VTime::ZERO,
            reboot: None,
        }
    }

    /// Creates a replica joining a running group mid-stream. It starts
    /// outside any configuration (`seq: -1`, no members, hence `Idle`) and
    /// fast-forwards onto the config chain from the first command its
    /// dynamic TOB subscription delivers — commands carry the explicit
    /// successor membership precisely so a joiner need not know the
    /// history it missed. The deployment must subscribe it at the TOB
    /// servers *before* broadcasting `AddReplica`, so the command that
    /// names it is guaranteed to reach it.
    pub fn joiner(db: Database, tob_servers: Vec<Loc>, options: PbrOptions) -> PbrReplica {
        let mut r = PbrReplica::new(
            db,
            ReplicaConfig {
                seq: -1,
                members: Vec::new(),
            },
            Vec::new(),
            tob_servers,
            options,
        );
        r.join_sync = true;
        r
    }

    /// Places this replica's group inside a sharded deployment: its shard,
    /// the shard map, and routes to every other group. Activates the 2PC
    /// engine on the replicated execution path.
    pub fn with_role(mut self, role: ShardRole) -> PbrReplica {
        self.core.set_role(role);
        self
    }

    /// Installs the deployment's observers: `probe` records this replica's
    /// primaryships, lease reads, transfers and 2PC steps; `lease_audit`
    /// is the model checker's sink for lease reads.
    pub fn with_observers(mut self, probe: Option<Probe>, lease_audit: Option<Loc>) -> PbrReplica {
        self.core.observe(probe, lease_audit);
        self
    }

    /// Attaches a write-ahead log: every executed transaction and adopted
    /// configuration is appended and synced at the replica's next
    /// `sdb/sync` (group commit), which its acknowledgments wait for, with
    /// a durable snapshot (and log truncation) every `snapshot_every`
    /// records.
    pub fn with_wal(mut self, disk: Disk, snapshot_every: i64) -> PbrReplica {
        self.core.attach_wal(disk, snapshot_every, 0, 0);
        self
    }

    /// Marks this replica — configured like the one that crashed,
    /// [`PbrReplica::with_wal`] included — as rebooted after a power loss.
    /// Its **first step** reads the disk back, at restart time and under
    /// the location the context supplies: `tear` resolves the torn unsynced
    /// tail, the latest snapshot is installed, the logged suffix replayed,
    /// and the replica rejoins for whatever the disk missed (`sdb/refetch`:
    /// catch-up only, unless the primary's cache no longer reaches back).
    pub fn rebooted(mut self, tear: u64) -> PbrReplica {
        self.reboot = Some(tear);
        self
    }

    /// The recovery a [`PbrReplica::rebooted`] replica runs before
    /// handling its first message.
    fn recover(&mut self, slf: Loc, tear: u64) {
        let (disk, rec) = self.core.recover(tear);
        let mut snap_at = 0;
        if let Some((idx, header)) = &rec.snapshot {
            // The durable image's policy header is the replica's position
            // on the config chain.
            if let Some(c) = ReplicaConfig::from_value(header) {
                self.config = c;
            }
            self.log_start = self.core.executed();
            snap_at = *idx;
        }
        for (_, body) in &rec.records {
            self.replay_record(slf, body);
        }
        self.wal_index = rec.high_index().max(0);
        self.core.resume_wal(disk, snap_at, self.wal_index);
        // The disk knows everything up to the crash; the group has moved
        // on. Rejoin: re-anchor the TOB subscription and ask the primary
        // for the missed suffix.
        self.mode = Mode::Recovering;
        self.join_sync = true;
        self.need_refetch = true;
    }

    /// Replays one WAL record onto local state. Nothing is sent: 2PC
    /// replay advances the emission counters in lockstep (exactly as a
    /// backup does) and drops the rendered sends.
    fn replay_record(&mut self, slf: Loc, body: &Value) {
        let (tag, payload) = body.unpair();
        match tag.int() {
            WREC_TXN => {
                if let Some(env) = TxnEnvelope::from_value(payload) {
                    self.execute_txn_group(slf, std::slice::from_ref(&env));
                    self.twopc_outbox.clear();
                }
            }
            WREC_CONFIG => {
                if let Some(c) = ReplicaConfig::from_value(payload) {
                    self.config = c;
                }
            }
            _ => {}
        }
    }

    /// The kick-off message a deployment sends each replica.
    pub fn start_msg() -> Msg {
        Msg::new(HB_TIMER_HEADER, Value::Unit)
    }

    /// Number of transactions executed (for assertions in tests).
    pub fn executed(&self) -> i64 {
        self.core.executed()
    }

    /// Current configuration (for assertions in tests).
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// A handle to this replica's database.
    pub fn database(&self) -> &Database {
        self.core.db()
    }

    fn is_primary(&self, slf: Loc) -> bool {
        self.config.primary() == slf
    }

    /// Executes a run of transactions, group-applying consecutive plain
    /// requests under one engine commit, with per-transaction log and
    /// reply-cache bookkeeping identical to sequential execution. In a
    /// sharded deployment, 2PC records break the run and step the protocol
    /// engine instead: the rendered sends land in the outbox and the
    /// emission counters advance — at every member, so counters stay in
    /// lockstep; non-primaries drop the rendered sends afterwards.
    fn execute_txn_group(&mut self, slf: Loc, envs: &[TxnEnvelope]) {
        let mut run_start = 0usize;
        for (i, env) in envs.iter().enumerate() {
            if self.core.is_twopc(env) {
                self.apply_plain_run(&envs[run_start..i]);
                run_start = i + 1;
                let instrs = self.core.step_twopc(slf, env);
                self.twopc_outbox.extend(instrs);
                self.record_executed(env);
            }
        }
        self.apply_plain_run(&envs[run_start..]);
    }

    fn apply_plain_run(&mut self, envs: &[TxnEnvelope]) {
        self.core.apply_run(envs);
        for env in envs {
            self.record_executed(env);
        }
    }

    /// What a PBR WAL record is: the executed envelope itself. The same
    /// envelope enters the catch-up cache.
    fn record_executed(&mut self, env: &TxnEnvelope) {
        if self.core.has_wal() {
            let body = Value::pair(Value::Int(WREC_TXN), env.to_value());
            self.wal_index += 1;
            self.core.wal_append(self.wal_index, &body);
        }
        self.log.push_back(env.clone());
        while self.log.len() > self.options.cache_limit {
            self.log.pop_front();
            self.log_start += 1;
        }
    }

    // -- read-lease fast path ----------------------------------------------

    /// If this replica currently holds the group's read lease, the
    /// instant it expires; `None` when it may not serve fast-path reads.
    ///
    /// The lease holds iff every *other member of the configuration* has
    /// echoed one of our grant timestamps within the last
    /// `lease_duration - lease_margin`. Requiring all members (not just
    /// the acknowledging backups) is what makes hand-off sound: any
    /// reconfiguration excluding us is proposed by a member that stopped
    /// hearing us `detect_after` ago, so its echo — which our lease
    /// depends on — froze before the proposal, and the successor primary's
    /// wait-out (anchored at its post-recovery Normal transition, which
    /// follows every new member's adoption) strictly covers our expiry.
    fn lease_until(&self, ctx: &Ctx) -> Option<VTime> {
        let o = &self.options;
        if !o.read_leases || self.mode != Mode::Normal || ctx.now < self.lease_wait_until {
            return None;
        }
        let horizon = o.lease_duration.saturating_sub(o.lease_margin);
        let mut until = ctx.now + horizon;
        for m in &self.config.members {
            if *m == ctx.slf {
                continue;
            }
            let expiry = *self.lease_echo.get(m)? + horizon;
            if ctx.now >= expiry {
                return None;
            }
            until = until.min(expiry);
        }
        Some(until)
    }

    // -- normal case -------------------------------------------------------

    fn on_submit(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal || !self.is_primary(ctx.slf) {
            // A settled non-primary (a backup, or a replica the chain left
            // behind) NACKs with its configuration so the client can chase
            // the chain; mid-election modes stay silent — the answer is
            // still being decided and a guess could point backwards.
            let settled = self.mode == Mode::Normal
                || (self.mode == Mode::Idle && !self.config.members.is_empty());
            if settled {
                if let Some(env) = TxnEnvelope::from_value(body) {
                    outs.push(SendInstr::now(
                        env.client,
                        stale_config_msg(ctx.slf, env.cseq, &self.config),
                    ));
                }
            }
            return;
        }
        let Some(env) = TxnEnvelope::from_value(body) else {
            return;
        };
        // Duplicate suppression by client sequence number. Peer 2PC
        // records are exempt from the lower-than-last drop: their cseq is
        // the sender's emission counter, and two sends from the same peer
        // can reorder in flight, so an "old" record may carry a step the
        // engine has never seen. Stepping it is safe — the engine is
        // idempotent — while dropping it would stall the transaction
        // until a client retransmission re-drives the protocol.
        let is_2pc = self.core.is_twopc(&env);
        match self.core.seen(env.client, env.cseq) {
            Seen::Duplicate => return self.reply_duplicate(ctx, &env, outs),
            Seen::Stale if !is_2pc => return,
            _ => {}
        }
        // Lease-protected read fast path: answer from local state, no
        // forwarding, no ack round. Three gates beyond the lease itself:
        // the client's read-only claim, re-checked by the core (which
        // refuses anything that isn't a lockless SELECT — a mis-flagged
        // transaction falls through to ordered execution);
        // and no unacknowledged *write* pending — an executed write the
        // backups have not all acked is visible locally but could be lost
        // in a failover, and a read that observed it would go
        // non-monotonic when a successor primary without it answers the
        // client's next read. Pending read-only entries are harmless
        // (they left no mark on the database) and must not close the
        // gate: under pipelined load the ordered read traffic itself
        // would otherwise keep `pending` occupied and the fast path
        // would never open.
        if env.read_only && self.pending.values().all(|p| p.env.read_only) {
            if let Some(until) = self.lease_until(ctx) {
                if self
                    .core
                    .serve_lease_read(ctx, &env, self.config.seq, until, outs)
                {
                    return;
                }
            }
        }
        // This replica is about to execute a client transaction while
        // believing itself primary of the current configuration.
        if self.probe_last != Some(self.config.seq) {
            self.probe_last = Some(self.config.seq);
            self.core.note(Event::Primary {
                seq: self.config.seq,
                loc: ctx.slf,
            });
        }
        self.execute_txn_group(ctx.slf, std::slice::from_ref(&env));
        let extra = std::mem::take(&mut self.twopc_outbox);
        let idx = self.core.executed();
        let (_, committed, result) = self
            .core
            .cached_reply(env.client)
            .expect("just executed this client's request");
        if self.active_backups.is_empty() {
            if is_2pc {
                // No backups to wait for: the engine's sends go out with
                // this step (behind its sync, on a durable replica).
                outs.extend(extra);
            } else {
                outs.push(SendInstr::now(
                    env.client,
                    reply_msg(ctx.slf, env.cseq, committed, result),
                ));
            }
        } else {
            for b in self.config.backups() {
                outs.push(SendInstr::now(
                    *b,
                    Msg::new(
                        FORWARD_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Int(idx), env.to_value()),
                        ),
                    ),
                ));
            }
            let outcome = TxnOutcome {
                committed,
                result: result.to_vec(),
                cost: Duration::ZERO,
            };
            self.pending.insert(
                idx,
                Pending {
                    env,
                    outcome,
                    waiting: self.active_backups.clone(),
                    wal: self.wal_index,
                    extra,
                    suppress_reply: is_2pc,
                },
            );
        }
    }

    /// Answers a retransmission of the last-seen request. Plain requests
    /// get the cached reply; 2PC records instead re-derive the owed
    /// protocol sends from replicated state (the cached entry is a
    /// placeholder — the real answer flows through the protocol).
    fn reply_duplicate(&mut self, ctx: &Ctx, env: &TxnEnvelope, outs: &mut Vec<SendInstr>) {
        if let (true, TxnRequest::TwoPc(rec)) = (self.core.is_twopc(env), &env.txn) {
            return self.redrive_twopc(ctx, rec.txnid(), outs);
        }
        // `last_reply` is written at *execution* time, but the answer is
        // only owed once the backups acknowledged. While the client's
        // transaction is still pending, the cached outcome is not durable:
        // a partially partitioned primary (clients reachable, backups not)
        // that answered a retransmission from the cache would acknowledge
        // a write its successor never saw. Stay silent — the ack flush
        // replies here, or the client's broadcast resend reaches whoever
        // takes over.
        if self.pending.values().any(|p| p.env.client == env.client) {
            return;
        }
        if let Some((last, committed, result)) = self.core.cached_reply(env.client) {
            outs.push(SendInstr::now(
                env.client,
                reply_msg(ctx.slf, last, committed, result),
            ));
        }
    }

    /// Re-emits whatever the group currently owes for `txnid`. If unacked
    /// forwards are outstanding the emission parks on the newest pending
    /// entry instead of going out directly: the state it reflects becomes
    /// durable only once the backups acknowledged everything executed so
    /// far, and backups apply forwards in index order, so the newest
    /// entry's acks imply all older entries were executed there too.
    fn redrive_twopc(
        &mut self,
        ctx: &Ctx,
        txnid: shadowdb_workloads::TxnId,
        outs: &mut Vec<SendInstr>,
    ) {
        let instrs = self.core.redrive_twopc(ctx.slf, txnid);
        if let Some(p) = self.pending.values_mut().next_back() {
            p.extra.extend(instrs);
        } else {
            outs.extend(instrs);
        }
    }

    fn on_forward(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.is_primary(ctx.slf) {
            return; // stale configuration
        }
        if self.mode == Mode::Stopped || self.mode == Mode::Idle {
            return;
        }
        let (idx, env) = rest.unpair();
        let Some(env) = TxnEnvelope::from_value(env) else {
            return;
        };
        self.forward_buf.insert(idx.int(), env);
        self.drain_forwards(ctx, outs);
    }

    /// Applies buffered forwards in index order (a recovering backup
    /// buffers them until its snapshot arrives). Consecutive forwards are
    /// group-applied under one engine commit; a group breaks when a client
    /// reappears, so per-client reply bookkeeping stays exact per cseq.
    fn drain_forwards(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal {
            return;
        }
        loop {
            let mut batch: Vec<TxnEnvelope> = Vec::new();
            loop {
                let idx = self.core.executed() + 1 + batch.len() as i64;
                let Some(env) = self.forward_buf.remove(&idx) else {
                    break;
                };
                if batch.iter().any(|b| b.client == env.client) {
                    self.forward_buf.insert(idx, env);
                    break;
                }
                batch.push(env);
            }
            if batch.is_empty() {
                return;
            }
            let first = self.core.executed() + 1;
            self.execute_txn_group(ctx.slf, &batch);
            // Backups advance the 2PC emission counters in lockstep but
            // never send: emission is the (acked) primary's job.
            self.twopc_outbox.clear();
            for off in 0..batch.len() as i64 {
                outs.push(self.ack(ctx.slf, first + off));
            }
        }
    }

    /// This backup's acknowledgment of forward `idx` to the primary.
    fn ack(&self, slf: Loc, idx: i64) -> SendInstr {
        SendInstr::now(
            self.config.primary(),
            Msg::new(
                ACK_HEADER,
                Value::pair(
                    Value::Int(self.config.seq),
                    Value::pair(Value::Int(idx), Value::Loc(slf)),
                ),
            ),
        )
    }

    fn on_ack(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || !self.is_primary(ctx.slf) {
            return;
        }
        let (idx, from) = rest.unpair();
        let (idx, from) = (idx.int(), from.loc());
        // Backups apply forwards strictly in index order, so an ack of
        // `idx` implies every lower index was executed there too — treat
        // it as cumulative. This is what un-stalls a pending entry whose
        // per-index ack was lost to a power cycle: the rebooted backup's
        // catch-up ack names only its post-replay high-water mark.
        let stalled: Vec<i64> = self
            .pending
            .range(..=idx)
            .filter(|(_, p)| p.waiting.contains(&from))
            .map(|(i, _)| *i)
            .collect();
        for i in stalled {
            self.pending
                .get_mut(&i)
                .expect("present")
                .waiting
                .remove(&from);
        }
        self.release_pending(ctx.slf, outs);
    }

    /// Releases every pending entry that all its backups acknowledged and
    /// whose own record the local log holds durably — client reply, then
    /// the sends parked on it. An entry stays in `pending` until *both*
    /// hold (called when either may have changed: an ack, a sync), so the
    /// silence of `reply_duplicate` and the lease-read gate cover a
    /// transaction until a power cut here could no longer erase it.
    fn release_pending(&mut self, slf: Loc, outs: &mut Vec<SendInstr>) {
        let ready: Vec<i64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.waiting.is_empty() && self.core.is_durable(p.wal))
            .map(|(i, _)| *i)
            .collect();
        for i in ready {
            let p = self.pending.remove(&i).expect("present");
            if !p.suppress_reply {
                let reply = reply_msg(slf, p.env.cseq, p.outcome.committed, &p.outcome.result);
                self.core
                    .gate(p.wal, SendInstr::now(p.env.client, reply), outs);
            }
            for send in p.extra {
                self.core.gate(p.wal, send, outs);
            }
        }
    }

    // -- failure detection --------------------------------------------------

    fn on_hb_timer(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        // Re-arm.
        outs.push(SendInstr::after(
            self.options.heartbeat_every,
            ctx.slf,
            Msg::new(HB_TIMER_HEADER, Value::Unit),
        ));
        if self.mode == Mode::Idle {
            return;
        }
        // The heartbeat's timestamp drives the read lease: a settled
        // primary stamps its own clock (a grant request), everyone else
        // echoes the latest primary timestamp they saw in this
        // configuration (a grant). Members that adopt a newer
        // configuration send under the new seq, which the old primary
        // ignores — leases die within `lease_duration` of any change.
        let ts = if self.is_primary(ctx.slf) && self.mode == Mode::Normal {
            ctx.now.as_micros() as i64
        } else {
            self.primary_ts.as_micros() as i64
        };
        for m in &self.config.members {
            if *m != ctx.slf {
                outs.push(SendInstr::now(
                    *m,
                    Msg::new(
                        HEARTBEAT_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Loc(ctx.slf), Value::Int(ts)),
                        ),
                    ),
                ));
            }
        }
        if self.need_refetch && self.mode == Mode::Recovering {
            self.send_refetch(ctx, outs);
        }
        if !matches!(self.mode, Mode::Normal | Mode::Recovering) {
            return; // a decision for this configuration is already pending
        }
        let suspects: Vec<Loc> = self
            .config
            .members
            .iter()
            .copied()
            .filter(|m| {
                *m != ctx.slf
                    && ctx
                        .now
                        .saturating_since(*self.last_heard.get(m).unwrap_or(&VTime::ZERO))
                        > self.options.detect_after
            })
            .collect();
        if !suspects.is_empty() {
            self.propose_reconfiguration(ctx, &suspects, outs);
        }
    }

    fn on_heartbeat(&mut self, ctx: &Ctx, body: &Value) {
        let (cfg, rest) = body.unpair();
        let (from, ts) = rest.unpair();
        let from = from.loc();
        self.last_heard.insert(from, ctx.now);
        if cfg.int() != self.config.seq || ts.int() <= 0 {
            return; // lease traffic is per-configuration; 0 carries no grant
        }
        let ts = VTime::from_micros(ts.int() as u64);
        if self.is_primary(ctx.slf) {
            // A member echoed one of our grant timestamps back.
            let e = self.lease_echo.entry(from).or_insert(VTime::ZERO);
            *e = (*e).max(ts);
        } else if from == self.config.primary() {
            // Record the primary's grant timestamp for our next echo.
            self.primary_ts = self.primary_ts.max(ts);
        }
    }

    /// Disk recovery's rejoin request: ask every peer for the suffix the
    /// WAL missed (only the settled primary answers). Sent from the first
    /// heartbeat tick after restart and re-sent every tick until a
    /// catch-up (or snapshot, or a configuration change) resolves it —
    /// the primary itself may still be recovering when the first ask
    /// lands.
    fn send_refetch(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        for m in self.config.members.clone() {
            if m != ctx.slf {
                outs.push(SendInstr::now(
                    m,
                    Msg::new(
                        REFETCH_HEADER,
                        Value::pair(Value::Loc(ctx.slf), Value::Int(self.core.executed())),
                    ),
                ));
            }
        }
    }

    /// Donor side of the rejoin handshake. Answer as the elector would:
    /// replay from the cache when it reaches back far enough, else
    /// stream a full snapshot.
    fn on_refetch(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal || !self.is_primary(ctx.slf) {
            return;
        }
        let (from, behind) = body.unpair();
        let (from, behind) = (from.loc(), behind.int());
        if self.config.contains(from) {
            self.send_state(from, behind, outs);
        }
    }

    /// Brings `to`, which has executed `behind` transactions, up to date:
    /// replay the missing transactions from the cache when it reaches
    /// back far enough (an already-caught-up requester gets an empty
    /// catch-up — a no-op transfer that still completes the handshake),
    /// else stream the full state image in ~50 KB chunks.
    fn send_state(&mut self, to: Loc, behind: i64, outs: &mut Vec<SendInstr>) {
        let seq = Value::Int(self.config.seq);
        if behind >= self.log_start {
            let missing: Vec<Value> = self
                .log
                .iter()
                .skip((behind - self.log_start) as usize)
                .map(TxnEnvelope::to_value)
                .collect();
            self.core.note(Event::Transfer {
                to,
                kind: TransferKind::Catchup,
            });
            let body = Value::pair(seq, Value::pair(Value::Int(behind), Value::list(missing)));
            outs.push(SendInstr::now(to, Msg::new(CATCHUP_HEADER, body)));
        } else {
            self.core.note(Event::Transfer {
                to,
                kind: TransferKind::Snapshot,
            });
            // The image's policy header is the config-chain position: a
            // disk restore needs it; a network joiner already holds it
            // from the TOB and checks only the seq wrapped around each
            // chunk, which drops stragglers from older configurations.
            let chunks = self
                .core
                .snapshot_chunks(self.core.executed(), self.config.to_value());
            outs.extend(chunks.into_iter().map(|c| {
                SendInstr::now(to, Msg::new(SNAPSHOT_HEADER, Value::pair(seq.clone(), c)))
            }));
        }
    }

    /// Step 1–2 of the recovery procedure: stop, then broadcast a proposal.
    fn propose_reconfiguration(&mut self, ctx: &Ctx, suspects: &[Loc], outs: &mut Vec<SendInstr>) {
        self.mode = Mode::Stopped;
        let mut members: Vec<Loc> = self
            .config
            .members
            .iter()
            .copied()
            .filter(|m| !suspects.contains(m))
            .collect();
        // Optionally replace crashed members with spares.
        let candidates: Vec<Loc> = self
            .spares
            .iter()
            .copied()
            .filter(|s| !members.contains(s) && !suspects.contains(s))
            .collect();
        let mut candidates = candidates.into_iter();
        while members.len() < self.config.members.len() {
            match candidates.next() {
                Some(s) => members.push(s),
                None => break,
            }
        }
        let proposal = ConfigCommand::NewConfig { members }.to_payload(self.config.seq);
        let msgid = self.tob_msgid;
        self.tob_msgid += 1;
        let server = self.tob_servers[(ctx.slf.index() as usize) % self.tob_servers.len()];
        outs.push(SendInstr::now(
            server,
            broadcast_msg(ctx.slf, msgid, proposal),
        ));
    }

    // -- recovery ------------------------------------------------------------

    /// Step 3: a totally ordered configuration command arrives.
    fn on_tob_deliver(&mut self, ctx: &Ctx, msg: &Msg, outs: &mut Vec<SendInstr>) {
        let Some(d) = parse_deliver(msg) else { return };
        for d in self.tob_in.offer(d) {
            self.on_config_delivery(ctx, &d, outs);
        }
    }

    fn on_config_delivery(&mut self, ctx: &Ctx, d: &Delivery, outs: &mut Vec<SendInstr>) {
        let Some((old_seq, cmd)) = ConfigCommand::parse(&d.payload) else {
            return;
        };
        let adopt = if self.mode == Mode::Idle {
            // Replicas outside the group (joiners, removed members) missed
            // intermediate configurations, so they fast-forward onto the
            // chain: safe because commands carry the explicit successor
            // membership and the TOB totally orders the chain, and Idle
            // replicas hold no authority the jump could conflict with.
            old_seq >= self.config.seq
        } else {
            // Members adopt only the *first* command per configuration.
            old_seq == self.config.seq
        };
        if !adopt {
            return;
        }
        self.promote_pref = cmd.preferred();
        self.adopt_config(
            ctx,
            ReplicaConfig {
                seq: old_seq + 1,
                members: cmd.members().to_vec(),
            },
            outs,
        );
    }

    /// First acknowledgment of this replica's dynamic TOB subscription:
    /// anchor the in-order buffer at the seq the subscription starts at
    /// (the default buffer expects seq 0 and would wait forever for
    /// history the service will never send a late subscriber).
    fn on_subok(&mut self, ctx: &Ctx, seq: i64, outs: &mut Vec<SendInstr>) {
        if !self.join_sync {
            return; // later acks from the remaining servers re-confirm
        }
        self.join_sync = false;
        let old = std::mem::replace(&mut self.tob_in, InOrderBuffer::starting_at(seq));
        for d in old.into_pending() {
            for d in self.tob_in.offer(d) {
                self.on_config_delivery(ctx, &d, outs);
            }
        }
    }

    fn adopt_config(&mut self, ctx: &Ctx, config: ReplicaConfig, outs: &mut Vec<SendInstr>) {
        self.config = config;
        if self.core.has_wal() {
            let body = Value::pair(Value::Int(WREC_CONFIG), self.config.to_value());
            self.wal_index += 1;
            self.core.wal_append(self.wal_index, &body);
        }
        // An adopted configuration supersedes any in-flight refetch: the
        // election's own catch-up brings this replica up to date.
        self.need_refetch = false;
        self.pending.clear();
        self.forward_buf.clear();
        self.election.clear();
        self.recovery_acks.clear();
        self.active_backups.clear();
        self.core.abandon_transfer();
        // Grants and echoes are per-configuration: from here on our
        // heartbeats carry the new seq, so the old primary's lease starves.
        self.lease_echo.clear();
        self.primary_ts = VTime::ZERO;
        // Fresh grace period for the new membership.
        for m in &self.config.members {
            self.last_heard.insert(*m, ctx.now);
        }
        if !self.config.contains(ctx.slf) {
            self.mode = Mode::Idle;
            return;
        }
        self.mode = Mode::Recovering;
        // Step 3 (election): send (g+1, seq_r) to all members.
        for m in &self.config.members {
            if *m == ctx.slf {
                self.election.insert(ctx.slf, self.core.executed());
            } else {
                outs.push(SendInstr::now(
                    *m,
                    Msg::new(
                        ELECT_HEADER,
                        Value::pair(
                            Value::Int(self.config.seq),
                            Value::pair(Value::Loc(ctx.slf), Value::Int(self.core.executed())),
                        ),
                    ),
                ));
            }
        }
        self.maybe_elect(ctx, outs);
    }

    fn on_elect(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            return;
        }
        let (from, executed) = rest.unpair();
        self.election.insert(from.loc(), executed.int());
        self.maybe_elect(ctx, outs);
    }

    /// Step 4: once every member reported, the one with the largest
    /// executed sequence number (ties → the `Promote` preference, then
    /// smallest id) is primary. The preference only breaks ties: a
    /// promoted-but-behind replica must not win, or committed transactions
    /// it never executed would be lost.
    fn maybe_elect(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        if self.election.len() < self.config.members.len() {
            return;
        }
        let pref = self.promote_pref;
        let primary = self
            .config
            .members
            .iter()
            .copied()
            .max_by_key(|m| {
                (
                    self.election[m],
                    Some(*m) == pref,
                    std::cmp::Reverse(m.index()),
                )
            })
            .expect("non-empty membership");
        // Reorder the configuration so members[0] is the primary.
        let mut members = self.config.members.clone();
        members.retain(|m| *m != primary);
        members.insert(0, primary);
        self.config.members = members;
        if primary != ctx.slf {
            return; // wait for catch-up from the new primary
        }
        // Step 5: bring the backups up to date.
        for b in self.config.backups().to_vec() {
            self.send_state(b, self.election[&b], outs);
        }
        if self.config.backups().is_empty() {
            self.enter_normal_as_primary(ctx);
        }
    }

    /// The post-recovery Normal transition of a (possibly new) primary:
    /// before serving any fast-path read in this configuration, wait out
    /// the largest lease the previous configuration's primary could still
    /// be holding. Every new member has adopted the new configuration by
    /// now (adoption precedes the election reports and recovery acks that
    /// got us here), so any echo feeding an old lease froze before this
    /// instant: `lease_duration + lease_margin` from here covers it.
    fn enter_normal_as_primary(&mut self, ctx: &Ctx) {
        self.mode = Mode::Normal;
        if self.options.read_leases {
            self.lease_wait_until =
                ctx.now + self.options.lease_duration + self.options.lease_margin;
        }
    }

    fn on_catchup(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = body.unpair();
        if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            return;
        }
        let (start, txns) = rest.unpair();
        let start = start.int();
        // Collect the run of missing transactions, then group-apply it
        // under one engine commit (no replies are sent during catch-up, so
        // repeated clients inside the run are fine).
        let mut batch: Vec<TxnEnvelope> = Vec::new();
        for (off, t) in txns.elems().iter().enumerate() {
            if start + off as i64 == self.core.executed() + batch.len() as i64 {
                if let Some(env) = TxnEnvelope::from_value(t) {
                    batch.push(env);
                }
            }
        }
        if !batch.is_empty() {
            self.execute_txn_group(ctx.slf, &batch);
            // Catch-up replay advances 2PC counters without emitting.
            self.twopc_outbox.clear();
        }
        // Acknowledge the post-replay high-water mark (acks are cumulative
        // at the primary), and do so even when the catch-up was empty:
        // when no reconfiguration happened — a disk-recovered backup
        // rejoining its unchanged configuration — the primary may hold
        // pending entries stalled on this replica, including ones whose
        // execution the WAL already held but whose acks died with the
        // connection at the power cut.
        outs.push(self.ack(ctx.slf, self.core.executed()));
        self.finish_recovery(ctx, outs);
    }

    fn on_snapshot(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (cfg, chunk) = body.unpair();
        if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            return;
        }
        // The image carries the donor's reply cache, `executed` and — in a
        // sharded group — its 2PC state and emission counters, so this
        // replica resumes exactly where the group is.
        if self.core.accept_chunk(chunk).is_some() {
            self.log.clear();
            self.log_start = self.core.executed();
            self.finish_recovery(ctx, outs);
        }
    }

    /// Step 6: acknowledge recovery to the primary and resume.
    fn finish_recovery(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        self.need_refetch = false;
        outs.push(SendInstr::now(
            self.config.primary(),
            Msg::new(
                RECOVERY_ACK_HEADER,
                Value::pair(Value::Int(self.config.seq), Value::Loc(ctx.slf)),
            ),
        ));
        if self.is_primary(ctx.slf) {
            self.enter_normal_as_primary(ctx);
        } else {
            self.mode = Mode::Normal;
        }
        self.drain_forwards(ctx, outs);
    }

    /// Answers a configuration-status query with this replica's view of
    /// the chain (used by `ReconfigHandle` to CAS the next command and to
    /// poll convergence).
    fn on_config_query(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        outs.push(SendInstr::now(
            body.loc(),
            config_reply_msg(
                ctx.slf,
                &self.config,
                self.core.executed(),
                self.mode == Mode::Normal,
            ),
        ));
    }

    /// Step 7: the primary resumes once the required backups acknowledged.
    fn on_recovery_ack(&mut self, ctx: &Ctx, body: &Value) {
        let (cfg, from) = body.unpair();
        if cfg.int() != self.config.seq || !self.is_primary(ctx.slf) {
            return;
        }
        self.recovery_acks.insert(from.loc());
        self.active_backups.insert(from.loc());
        let needed = if self.options.overlapped_transfer {
            1
        } else {
            self.config.backups().len()
        };
        if self.mode == Mode::Recovering && self.recovery_acks.len() >= needed {
            self.enter_normal_as_primary(ctx);
        }
    }
}

/// The sends that never wait for the local sync: those that carry
/// transactions *to* a backup rather than vouch for them. The forward
/// acknowledges nothing, and leaving ahead of the primary's fsync lets the
/// backups log and sync while the primary does (commit latency is the
/// slower of the two syncs, not their sum). Catch-up and snapshot chunks
/// are the same kind of traffic and share the forwards' FIFO link: held
/// back, a later forward would overtake the state it builds on, and a
/// backup that lost that forward would never be sent it again.
fn replicates_ahead(msg: &Msg) -> bool {
    let h = msg.header;
    h == cached_header!(FORWARD_HEADER)
        || h == cached_header!(CATCHUP_HEADER)
        || h == cached_header!(SNAPSHOT_HEADER)
}

impl PbrReplica {
    /// First-step initialization: learn our own identity from the context
    /// and, after a reboot, read the disk back under it.
    fn ensure_init(&mut self, ctx: &Ctx) {
        if self.hb_armed {
            return;
        }
        self.hb_armed = true;
        if let Some(tear) = self.reboot.take() {
            self.recover(ctx.slf, tear);
        }
        if !self.config.contains(ctx.slf) {
            self.mode = Mode::Idle; // a spare, until a configuration adds us
            return;
        }
        // Startup counts as hearing from everyone (grace period).
        for m in self.config.members.clone() {
            self.last_heard.entry(m).or_insert(ctx.now);
        }
        if self.is_primary(ctx.slf) {
            self.active_backups = self.config.backups().iter().copied().collect();
        }
    }
}

impl Process for PbrReplica {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        self.ensure_init(ctx);
        let first = out.len();
        let h = msg.header;
        if h == cached_header!(SUBMIT_HEADER) {
            self.on_submit(ctx, &msg.body, out);
        } else if h == cached_header!(FORWARD_HEADER) {
            self.on_forward(ctx, &msg.body, out);
        } else if h == cached_header!(ACK_HEADER) {
            // Logs nothing, and what it releases was checked against the
            // log entry by entry: holding it for the step's newest index
            // would make every reply wait out the *next* sync as well.
            return self.on_ack(ctx, &msg.body, out);
        } else if h == cached_header!(SYNC_HEADER) {
            self.core
                .sync(self.wal_index, || self.config.to_value(), out);
            self.release_pending(ctx.slf, out);
        } else if h == cached_header!(HB_TIMER_HEADER) {
            self.on_hb_timer(ctx, out);
        } else if h == cached_header!(HEARTBEAT_HEADER) {
            self.on_heartbeat(ctx, &msg.body);
        } else if h == cached_header!(ELECT_HEADER) {
            self.on_elect(ctx, &msg.body, out);
        } else if h == cached_header!(CATCHUP_HEADER) {
            self.on_catchup(ctx, &msg.body, out);
        } else if h == cached_header!(SNAPSHOT_HEADER) {
            self.on_snapshot(ctx, &msg.body, out);
        } else if h == cached_header!(RECOVERY_ACK_HEADER) {
            self.on_recovery_ack(ctx, &msg.body);
        } else if h == cached_header!(REFETCH_HEADER) {
            self.on_refetch(ctx, &msg.body, out);
        } else if h == cached_header!(CONFIG_QUERY_HEADER) {
            self.on_config_query(ctx, &msg.body, out);
        } else if h == cached_header!(STALE_CONFIG_HEADER) {
            self.core.on_stale_config(msg);
        } else if let Some(seq) = parse_subok(msg) {
            self.on_subok(ctx, seq, out);
        } else {
            self.on_tob_deliver(ctx, msg, out);
        }
        // Durability before visibility: whatever this step sent waits for
        // the sync that covers what the replica has logged — except the
        // forwards and state transfer, which replicate ahead of it.
        self.core
            .gate_step(ctx.slf, self.wal_index, first, out, replicates_ahead);
    }

    fn take_step_cost(&mut self) -> Duration {
        self.core.take_step_cost()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        (self.core.executed(), self.config.seq, self.mode).hash(&mut h);
        (self.promote_pref, self.join_sync, self.need_refetch).hash(&mut h);
        self.core.twopc_seq().hash(&mut h);
    }
}
