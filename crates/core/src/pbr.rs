//! Primary-backup replication (Sec. III-A).
//!
//! Normal case, hand-written as in the paper: (i) the client sends `T` to
//! the primary; (ii) the primary, on first reception, executes and commits
//! `T` and forwards its outcome and row effects to the backups
//! ([`TxnRequest::Applied`]); (iii) the backups apply the effects, commit,
//! and acknowledge — they never run `T` itself, so they need not execute
//! deterministically; (iv) the primary replies to the client once *all*
//! (recovered) backups acknowledged. The same applied form is what the
//! catch-up window keeps and what the write-ahead log records; only a
//! sharded group's 2PC records travel as themselves, and every member
//! steps its protocol engine on them. Execution is sequential at every
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
//!    configuration, then broadcast `(g+1, member, seq_r)` election reports
//!    through the same service (a proposal or report is re-sent every
//!    heartbeat until the stream delivers it);
//! 4. the report completing the set elects the `Promote` target, if any,
//!    else the largest executed-transaction sequence number (ties →
//!    smallest identifier) — at the same delivery at every member;
//! 5. the new primary — first brought up by the highest report's member,
//!    if it is a `Promote` target behind it — sends each member the
//!    core's answer (`ReplicaCore::state_for`: the missing transactions
//!    from its window of the last `cache_limit` executed, or a full
//!    snapshot in ~50 KB batches when the window does not reach far
//!    enough), stamped with the stream seq its election completed at (a
//!    member holds them until it has delivered that seq);
//! 6. backups acknowledge;
//! 7. the primary resumes — immediately after the *first* acknowledgment
//!    when overlapped state transfer is enabled (possible with ≥3
//!    replicas), else after all of them.
//!
//! The read lease is the replica core's, as under SMR: with it on, a
//! Normal primary broadcasts a marker through the group's stream every
//! `renew_every` and serves reads locally under its own delivered marker.
//! A delivered marker counts only if its holder leads the elected
//! configuration at that stream position, and an elected primary enters
//! Normal no earlier than `D` after the last marker that counted at it —
//! a fact of the stream order, whatever `detect_after` is.
//!
//! A replica rebooted from its disk rejoins the way a joiner does: it
//! subscribes anew and holds its stream until the answer to its fetch —
//! from the settled primary, with the group's configuration in elected
//! order — says where the stream starts. Its disk's configuration only
//! names whom to ask, in turn, one more each heartbeat period.

use crate::msgs::{
    config_reply_msg, parse_fetch, stale_config_msg, ConfigCommand, ReplicaConfig, TxnEnvelope,
    ACK_HEADER, CATCHUP_HEADER, CONFIG_QUERY_HEADER, FETCH_HEADER, FETCH_RETRY_HEADER,
    FORWARD_HEADER, HB_TIMER_HEADER, HEARTBEAT_HEADER, LEASE_TIMER_HEADER, RECOVERY_ACK_HEADER,
    SNAPSHOT_HEADER, STALE_CONFIG_HEADER, SUBMIT_HEADER, SYNCED_HEADER, SYNC_HEADER,
};
use crate::probe::{Event, Probe};
use crate::replica_core::{parse_lease_marker, Executed, ReplicaCore, Seen, SmrLeaseOptions};
use crate::shard::ShardRole;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::Database;
use shadowdb_tob::{parse_deliver, parse_subok, Delivery};
use shadowdb_wal::{Disk, Recovered};
use shadowdb_workloads::{Applied, TxnRequest};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Tag of a WAL record holding an executed transaction as the group
/// replicates it (an [`TxnRequest::Applied`] envelope, or a 2PC record).
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
    /// How many executed transactions the replica core's window keeps to
    /// catch a member up ("each replica only caches a limited number of
    /// executed transactions"); a member further behind gets a snapshot.
    pub cache_limit: usize,
    /// State-transfer batch size in bytes (~50 KB in the paper).
    pub transfer_batch_bytes: usize,
    /// Resume normal processing after the first recovered backup instead
    /// of all of them (Sec. III-A's overlapped state transfer).
    pub overlapped_transfer: bool,
}

impl Default for PbrOptions {
    fn default() -> Self {
        PbrOptions {
            heartbeat_every: Duration::from_millis(1_000),
            detect_after: Duration::from_secs(10),
            cache_limit: 10_000,
            transfer_batch_bytes: 50_000,
            overlapped_transfer: false,
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
    waiting: BTreeSet<Loc>,
    /// WAL index of this transaction's own record: the entry is released
    /// only once the local log is durable through it, too.
    wal: i64,
    /// Sends computed at execute time (the client's reply; for a 2PC
    /// record, which answers through the protocol, votes, decisions and
    /// replies to other groups) that must not escape before the backups
    /// acknowledged: they reflect state the group has not durably
    /// replicated yet.
    extra: Vec<SendInstr>,
}

/// A primary-backup ShadowDB replica: the PBR ordering policy over a
/// [`ReplicaCore`].
#[derive(Clone)]
pub struct PbrReplica {
    /// The replicated service: database, reply cache, executed counter,
    /// 2PC engine, WAL, the window of executed transactions, state
    /// transfer, this replica's fetch and broadcast identity.
    core: ReplicaCore,
    options: PbrOptions,
    config: ReplicaConfig,
    spares: Vec<Loc>,
    mode: Mode,
    /// Primary: transactions awaiting backup acks, by index.
    pending: BTreeMap<i64, Pending>,
    /// Primary: backups currently participating in acknowledgments.
    active_backups: BTreeSet<Loc>,
    /// Backup: out-of-order forwards buffered by index.
    forward_buf: BTreeMap<i64, TxnEnvelope>,
    /// Failure detection.
    last_heard: HashMap<Loc, VTime>,
    hb_armed: bool,
    /// This replica's configuration broadcast (a proposal or a report)
    /// the stream has not delivered yet.
    unordered: Option<SendInstr>,
    /// The reports the stream has delivered for the current configuration.
    election: BTreeMap<Loc, i64>,
    /// The stream seq whose delivery completed the current
    /// configuration's election — for a member a fetch's answer placed,
    /// the last seq that answer reflects — and -1 until then (the
    /// deployed configuration, seq 0, needs no election).
    elected_at: i64,
    /// Catch-up and snapshot chunks stamped with an election seq this
    /// replica's stream has not delivered yet.
    held: Vec<Msg>,
    recovery_acks: BTreeSet<Loc>,
    /// The member the last `Promote` command elects; cleared by every
    /// other configuration adoption.
    promote_pref: Option<Loc>,
    /// Last configuration seq this replica reported to the probe.
    probe_last: Option<i64>,
    /// Sends rendered while executing 2PC records; the primary attaches
    /// them to the pending entry (ack-gated), everyone else drops them.
    twopc_outbox: Vec<SendInstr>,
    /// Monotone WAL record index (transactions and config adoptions share
    /// one sequence; `executed` alone cannot index config records).
    wal_index: i64,
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
        core.set_window_limit(options.cache_limit);
        core.set_tob_servers(tob_servers);
        PbrReplica {
            core,
            options,
            config,
            spares,
            mode: Mode::Normal,
            pending: BTreeMap::new(),
            active_backups: BTreeSet::new(),
            forward_buf: BTreeMap::new(),
            last_heard: HashMap::new(),
            hb_armed: false,
            unordered: None,
            election: BTreeMap::new(),
            elected_at: -1,
            held: Vec::new(),
            recovery_acks: BTreeSet::new(),
            promote_pref: None,
            probe_last: None,
            twopc_outbox: Vec::new(),
            wal_index: 0,
        }
    }

    /// Creates a replica joining a running group mid-stream. It starts
    /// outside any configuration (`seq: -1`, no members, hence `Idle`) and
    /// fast-forwards onto the config chain from the first command its
    /// dynamic TOB subscription delivers — commands carry the explicit
    /// successor membership precisely so a joiner need not know the
    /// history it missed. The deployment must subscribe it at the TOB
    /// servers *before* broadcasting `AddReplica`, so the command that
    /// names it is guaranteed to reach it; the stream is held until the
    /// subscription's ack anchors it.
    pub fn joiner(db: Database, tob_servers: Vec<Loc>, options: PbrOptions) -> PbrReplica {
        let outside = ReplicaConfig {
            seq: -1,
            members: Vec::new(),
        };
        let mut r = PbrReplica::new(db, outside, Vec::new(), tob_servers, options);
        r.core.subscribe(None);
        r
    }

    /// Places this replica's group inside a sharded deployment: its shard,
    /// the shard map, and routes to every other group. Activates the 2PC
    /// engine on the replicated execution path.
    pub fn with_role(mut self, role: ShardRole) -> PbrReplica {
        self.core.set_role(role);
        self
    }

    /// Enables the lease-based read fast path: a Normal primary broadcasts
    /// a marker through the group's stream every `renew_every` and, once
    /// its own marker is delivered, answers read-only transactions from
    /// local state without forwarding. A marker counts only if its holder
    /// leads the elected configuration at its stream position, and a new
    /// primary takes no submission while its predecessor's last marker is
    /// fresh.
    pub fn with_read_leases(mut self, opts: SmrLeaseOptions) -> PbrReplica {
        self.core.enable_lease(opts);
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
    /// a durable snapshot (and log truncation) at most every
    /// `snapshot_every` records (see `ReplicaCore::sync`).
    pub fn with_wal(mut self, disk: Disk, snapshot_every: i64) -> PbrReplica {
        self.core.attach_wal(disk, snapshot_every, 0);
        self
    }

    /// Marks this replica — configured like the one that crashed,
    /// [`PbrReplica::with_wal`] included — as rebooted after a power loss.
    /// Its **first step** reads the disk back, at restart time and under
    /// the location the context supplies: `tear` resolves the torn unsynced
    /// tail, the latest snapshot is installed, the logged suffix replayed,
    /// and the replica fetches the group's configuration and whatever the
    /// disk missed (catch-up only, unless the primary's window no longer
    /// reaches back). The deployment subscribes it anew.
    pub fn rebooted(mut self, tear: u64) -> PbrReplica {
        self.core.set_reboot(tear);
        self
    }

    /// The recovery a [`PbrReplica::rebooted`] replica runs before
    /// handling its first message, on what the core read off its disk
    /// (`ReplicaCore::first_step`); returns the newest log index.
    fn recover(&mut self, slf: Loc, rec: Recovered, out: &mut Vec<SendInstr>) -> i64 {
        if let Some((_, header)) = &rec.snapshot {
            // The durable image's policy header is the replica's position
            // on the config chain.
            if let Some(c) = ReplicaConfig::from_value(header) {
                self.config = c;
            }
            self.core.restart_window(self.core.executed());
        }
        for (_, body) in &rec.records {
            self.replay_record(slf, body);
        }
        self.wal_index = rec.high_index().max(0);
        // The disk knows everything up to the crash; the group has moved
        // on. Rejoin as a joiner does: the stream is held until the answer
        // anchors it ([`PbrReplica::rejoin`]). Ask the disk configuration's
        // members, then its spares, at once; the subscription's ack raises
        // the fetch's `min`.
        self.mode = Mode::Recovering;
        self.core.subscribe(None);
        let spares = self.spares.iter().filter(|s| !self.config.contains(**s));
        let donors = self.config.members.iter().chain(spares).copied();
        self.core
            .set_donors(donors.filter(|m| *m != slf), self.options.heartbeat_every);
        self.core.fetch(slf, self.core.executed(), 0, out);
        self.wal_index
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
    /// reply-cache bookkeeping identical to sequential execution, and
    /// returns each as the group replicates it. A client's request (at the
    /// primary) becomes its outcome and effects, an
    /// [`TxnRequest::Applied`] one (at a backup, in a catch-up or a
    /// replay) is applied and stays itself. In a sharded deployment, 2PC
    /// records break the run and step the protocol engine instead: the
    /// rendered sends land in the outbox and the emission counters advance
    /// — at every member, so counters stay in lockstep; non-primaries drop
    /// the rendered sends afterwards.
    fn execute_txn_group(&mut self, slf: Loc, envs: &[TxnEnvelope]) -> Vec<TxnEnvelope> {
        let mut replicated = Vec::with_capacity(envs.len());
        let mut run_start = 0usize;
        for (i, env) in envs.iter().enumerate() {
            if self.core.is_twopc(env) {
                self.apply_plain_run(&envs[run_start..i], &mut replicated);
                run_start = i + 1;
                let instrs = self.core.step_twopc(slf, env);
                self.twopc_outbox.extend(instrs);
                self.record_executed(env);
                replicated.push(env.clone());
            }
        }
        self.apply_plain_run(&envs[run_start..], &mut replicated);
        replicated
    }

    fn apply_plain_run(&mut self, envs: &[TxnEnvelope], replicated: &mut Vec<TxnEnvelope>) {
        let effects = self.core.apply_run(envs);
        for (env, effects) in envs.iter().zip(effects) {
            let applied = match env.txn {
                TxnRequest::Applied(_) => env.clone(),
                _ => {
                    let (_, committed, result) = self
                        .core
                        .cached_reply(env.client)
                        .expect("just executed this client's request");
                    let txn = TxnRequest::Applied(Applied::new(committed, result, &effects));
                    TxnEnvelope { txn, ..*env }
                }
            };
            self.record_executed(&applied);
            replicated.push(applied);
        }
    }

    /// What a PBR WAL record is: the executed transaction as the group
    /// replicates it. The same envelope enters the core's catch-up window,
    /// its record in an allocation of its own.
    fn record_executed(&mut self, env: &TxnEnvelope) {
        self.log(WREC_TXN, || env.to_value());
        self.core.remember(|| {
            let txn = match &env.txn {
                TxnRequest::Applied(a) => TxnRequest::Applied(a.compact()),
                other => other.clone(),
            };
            Executed::Txn(TxnEnvelope { txn, ..*env })
        });
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
            if let (true, Some(env)) = (settled, TxnEnvelope::from_value(body)) {
                let nack = stale_config_msg(ctx.slf, env.cseq, &self.config);
                outs.push(SendInstr::now(env.client, nack));
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
        // forwarding, no ack round. Two gates beyond the lease itself:
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
        let gated = env.read_only && self.pending.values().all(|p| p.env.read_only);
        if gated && self.core.serve_fast_read(ctx, &env, outs) {
            return;
        }
        // This replica is about to execute a client transaction while
        // believing itself primary of the current configuration.
        let seq = self.config.seq;
        if self.probe_last.replace(seq) != Some(seq) {
            self.core.note(Event::Primary { seq, loc: ctx.slf });
        }
        let replicated = self.execute_txn_group(ctx.slf, std::slice::from_ref(&env));
        let mut extra = std::mem::take(&mut self.twopc_outbox);
        if !is_2pc {
            extra.extend(self.core.reply(ctx.slf, env.client));
        }
        let idx = self.core.executed();
        if self.active_backups.is_empty() {
            // No backups to wait for: the answer goes out with this step
            // (behind its sync, on a durable replica).
            outs.extend(extra);
        } else {
            let replicated = replicated.into_iter().next().expect("one executed");
            let forward = Value::pair(Value::Int(idx), replicated.to_value());
            for b in self.config.backups() {
                outs.push(self.in_config(*b, FORWARD_HEADER, forward.clone()));
            }
            let (waiting, wal) = (self.active_backups.clone(), self.wal_index);
            let pending = Pending {
                env,
                waiting,
                wal,
                extra,
            };
            self.pending.insert(idx, pending);
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
        outs.extend(self.core.reply(ctx.slf, env.client));
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
    /// buffers them until its snapshot arrives), consecutive ones under
    /// one engine commit. Each carries its outcome, so the reply cache is
    /// exact per cseq however often a client recurs in the run.
    fn drain_forwards(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        if self.mode != Mode::Normal {
            return;
        }
        let first = self.core.executed() + 1;
        let mut batch: Vec<TxnEnvelope> = Vec::new();
        while let Some(env) = self.forward_buf.remove(&(first + batch.len() as i64)) {
            batch.push(env);
        }
        if batch.is_empty() {
            return;
        }
        self.execute_txn_group(ctx.slf, &batch);
        // Backups advance the 2PC emission counters in lockstep but never
        // send: emission is the (acked) primary's job.
        self.twopc_outbox.clear();
        for off in 0..batch.len() as i64 {
            outs.push(self.ack(ctx.slf, first + off));
        }
    }

    /// This backup's acknowledgment of forward `idx` to the primary.
    fn ack(&self, slf: Loc, idx: i64) -> SendInstr {
        let ack = Value::pair(Value::Int(idx), Value::Loc(slf));
        self.in_config(self.config.primary(), ACK_HEADER, ack)
    }

    /// A send to `to` within this replica's configuration: body
    /// `<config, body>`.
    fn in_config(&self, to: Loc, header: &'static str, body: Value) -> SendInstr {
        let body = Value::pair(Value::Int(self.config.seq), body);
        SendInstr::now(to, Msg::new(header, body))
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
        for (_, p) in self.pending.range_mut(..=idx) {
            p.waiting.remove(&from);
        }
        self.release_pending(outs);
    }

    /// Releases every pending entry that all its backups acknowledged and
    /// whose own record the local log holds durably — client reply, then
    /// the sends parked on it. An entry stays in `pending` until *both*
    /// hold (called when either may have changed: an ack, a sync), so the
    /// silence of `reply_duplicate` and the lease-read gate cover a
    /// transaction until a power cut here could no longer erase it.
    fn release_pending(&mut self, outs: &mut Vec<SendInstr>) {
        let ready: Vec<i64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.waiting.is_empty() && self.core.is_durable(p.wal))
            .map(|(i, _)| *i)
            .collect();
        for i in ready {
            let p = self.pending.remove(&i).expect("present");
            for send in p.extra {
                self.core.gate(p.wal, send, outs);
            }
        }
    }

    // -- failure detection --------------------------------------------------

    fn on_hb_timer(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        let every = self.options.heartbeat_every;
        outs.push(SendInstr::after(every, ctx.slf, Self::start_msg())); // re-arm
        if self.mode == Mode::Idle {
            return;
        }
        for m in &self.config.members {
            if *m != ctx.slf {
                outs.push(self.in_config(*m, HEARTBEAT_HEADER, Value::Loc(ctx.slf)));
            }
        }
        // A configuration broadcast the stream has not delivered: again.
        outs.extend(self.unordered.clone());
        // A recovered primary held back by its predecessor's lease: again.
        if self.mode == Mode::Recovering && self.recovered(ctx.slf) {
            self.enter_normal_as_primary(ctx);
        }
        if !matches!(self.mode, Mode::Normal | Mode::Recovering) {
            return; // a decision for this configuration is already pending
        }
        let silent = |m: &Loc| {
            let heard = self.last_heard.get(m).copied().unwrap_or(VTime::ZERO);
            *m != ctx.slf && ctx.now.saturating_since(heard) > self.options.detect_after
        };
        let suspects: Vec<Loc> = self.config.members.iter().copied().filter(silent).collect();
        if !suspects.is_empty() {
            self.propose_reconfiguration(ctx, &suspects, outs);
        }
    }

    fn on_heartbeat(&mut self, ctx: &Ctx, body: &Value) {
        let (_, from) = body.unpair();
        self.last_heard.insert(from.loc(), ctx.now);
    }

    /// Donor side of a rebooted member's fetch: a replica whose
    /// configuration is settled answers once its stream has reached `min`,
    /// stamped `<at, <nonce, config>>` (its configuration holds from stream
    /// seq `at`) — the primary with the state a member missed, anyone else
    /// with the configuration alone (`()` for the state), which places the
    /// requester but does not recover it: its next retry asks the next one.
    fn on_fetch(&mut self, ctx: &Ctx, msg: &Msg, outs: &mut Vec<SendInstr>) {
        let Some((to, from, min, nonce)) = parse_fetch(&msg.body) else {
            return;
        };
        // Settled: a Normal member, or a replica outside the group that
        // holds the deployed configuration or has seen its election end.
        let outside = self.mode == Mode::Idle && self.elected() && !self.config.members.is_empty();
        if self.mode != Mode::Normal && !outside {
            return;
        }
        if let Some(again) = self.core.defer_fetch(ctx.slf, msg, min) {
            return outs.push(again);
        }
        let stamp = Value::pair(Value::Int(nonce), self.config.to_value());
        let stamp = Value::pair(Value::Int(self.core.stream_next()), stamp);
        if self.mode == Mode::Normal && self.is_primary(ctx.slf) && self.config.contains(to) {
            return self.send_state(to, from, stamp, outs);
        }
        outs.push(self.in_config(to, CATCHUP_HEADER, Value::pair(stamp, Value::Unit)));
    }

    /// Brings `to`, which has executed `behind` transactions, up to date
    /// with the core's answer (a requester already caught up gets an empty
    /// catch-up, which still completes the handshake), each message
    /// stamped `<config, <stamp, ...>>` — the seq the election completed
    /// at, or a fetch's answer: see [`PbrReplica::on_state`]. The image's
    /// policy header is the config-chain position, which a disk restore
    /// needs; a network joiner holds it from the TOB.
    fn send_state(&mut self, to: Loc, behind: i64, stamp: Value, outs: &mut Vec<SendInstr>) {
        let (header, bodies) = self.core.state_for(to, behind, self.config.to_value());
        for b in bodies {
            outs.push(self.in_config(to, header, Value::pair(stamp.clone(), b)));
        }
    }

    /// Step 1–2 of the recovery procedure: stop, then broadcast a proposal.
    fn propose_reconfiguration(&mut self, ctx: &Ctx, suspects: &[Loc], outs: &mut Vec<SendInstr>) {
        self.mode = Mode::Stopped;
        let live = |m: &Loc| !suspects.contains(m);
        let mut members: Vec<Loc> = self.config.members.iter().copied().filter(live).collect();
        // Replace crashed members with spares, as far as there are any.
        let spares = self.spares.iter().copied();
        let spares = spares.filter(|s| live(s) && !members.contains(s));
        let spares: Vec<Loc> = spares
            .take(self.config.members.len() - members.len())
            .collect();
        members.extend(spares);
        let proposal = ConfigCommand::NewConfig { members }.to_payload(self.config.seq);
        self.broadcast(ctx.slf, proposal, outs);
    }

    /// Broadcasts `payload` through the TOB as this replica's one
    /// unordered configuration broadcast, replacing any earlier one. The
    /// heartbeat timer re-sends it until the stream delivers it; the
    /// service drops the copies it has already seen.
    fn broadcast(&mut self, slf: Loc, payload: Value, outs: &mut Vec<SendInstr>) {
        let send = self.core.broadcast(slf, payload);
        outs.push(send.clone());
        self.unordered = Some(send);
    }

    // -- recovery ------------------------------------------------------------

    /// Steps 3–4: deliveries the stream released (a `tob/deliver`, or
    /// those an anchor released), handled in stream order; then the held
    /// state they may have caught up with.
    fn deliver(&mut self, ctx: &Ctx, ready: Vec<Delivery>, outs: &mut Vec<SendInstr>) {
        for d in ready {
            self.on_config_delivery(ctx, &d, outs);
        }
        for m in std::mem::take(&mut self.held) {
            self.on_state(ctx, &m, outs);
        }
    }

    fn on_config_delivery(&mut self, ctx: &Ctx, d: &Delivery, outs: &mut Vec<SendInstr>) {
        // The broadcast body is `<source, <msgid, payload>>`.
        let msgid = |u: &SendInstr| u.msg.body.snd().and_then(Value::fst)?.as_int();
        if d.client == ctx.slf && self.unordered.as_ref().and_then(msgid) == Some(d.msgid) {
            self.unordered = None;
        }
        if let Some((holder, send_us)) = parse_lease_marker(&d.payload) {
            // Only the elected primary's markers count: one delivered
            // behind the command that deposed its holder installs nothing.
            if self.elected() && self.config.members.first() == Some(&holder) {
                self.core
                    .install_marker(ctx.slf, Some(ctx.now), holder, send_us);
            }
            return;
        }
        if let Some(report) = parse_report(&d.payload) {
            return self.on_report(ctx, d.seq, report, outs);
        }
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
        let config = ReplicaConfig {
            seq: old_seq + 1,
            members: cmd.members().to_vec(),
        };
        self.adopt_config(ctx, config, outs);
    }

    /// Appends the record `<tag, record()>` to the write-ahead log, if
    /// there is one.
    fn log(&mut self, tag: i64, record: impl FnOnce() -> Value) {
        if self.core.has_wal() {
            self.wal_index += 1;
            let body = Value::pair(Value::Int(tag), record());
            self.core.wal_append(self.wal_index, &body);
        }
    }

    /// Adopts `config` and logs it: a disk's last configuration names whom
    /// a reboot asks.
    fn log_config(&mut self, config: ReplicaConfig) {
        self.log(WREC_CONFIG, || config.to_value());
        self.config = config;
    }

    fn adopt_config(&mut self, ctx: &Ctx, config: ReplicaConfig, outs: &mut Vec<SendInstr>) {
        self.log_config(config);
        // An adopted configuration supersedes an open fetch: the
        // election's own catch-up brings this replica up to date.
        self.core.fetched();
        self.pending.clear();
        self.forward_buf.clear();
        self.election.clear();
        self.elected_at = -1;
        self.recovery_acks.clear();
        self.active_backups.clear();
        self.core.abandon_transfer();
        // Fresh grace period for the new membership.
        let heard = self.config.members.iter().map(|m| (*m, ctx.now));
        self.last_heard.extend(heard);
        if !self.config.contains(ctx.slf) {
            self.mode = Mode::Idle;
            return;
        }
        self.mode = Mode::Recovering;
        // Step 3 (election): report through the stream, behind the command.
        let report = report_payload(self.config.seq, ctx.slf, self.core.executed());
        self.broadcast(ctx.slf, report, outs);
    }

    /// Step 4: a member's report, delivered at stream seq `at` (ignored
    /// unless it is for the current configuration). Every member counts
    /// the same reports in stream order, so the one completing the set
    /// elects the same primary everywhere.
    fn on_report(&mut self, ctx: &Ctx, at: i64, r: (i64, Loc, i64), outs: &mut Vec<SendInstr>) {
        let (seq, member, executed) = r;
        if seq != self.config.seq || !self.config.contains(member) {
            return;
        }
        self.election.insert(member, executed);
        if self.election.len() < self.config.members.len() {
            return;
        }
        self.elected_at = at;
        // The highest report (ties → smallest id) has executed every
        // acknowledged transaction.
        let (&highest, &top) = self
            .election
            .iter()
            .max_by_key(|(m, e)| (**e, std::cmp::Reverse(**m)))
            .expect("every member reported");
        let promoted = self.promote_pref.filter(|p| self.config.contains(*p));
        let primary = promoted.unwrap_or(highest);
        // Reorder the configuration so members[0] is the primary.
        self.config.members.retain(|m| *m != primary);
        self.config.members.insert(0, primary);
        if self.mode != Mode::Recovering {
            return; // stopped: a proposal for the next configuration is out
        }
        let behind = self.election[&primary];
        if primary == ctx.slf && behind == top {
            self.lead(ctx, outs);
        } else if highest == ctx.slf && behind < top {
            // The `Promote` target is behind: bring it up before it leads,
            // or acknowledged transactions it never executed would be lost.
            self.send_state(primary, behind, Value::Int(at), outs);
        }
    }

    /// Step 5: the elected primary, holding every acknowledged
    /// transaction, brings the backups up to date.
    fn lead(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        for b in self.config.backups().to_vec() {
            if let Some(&behind) = self.election.get(&b) {
                self.send_state(b, behind, Value::Int(self.elected_at), outs);
            }
        }
        if self.config.backups().is_empty() {
            self.enter_normal_as_primary(ctx);
        }
    }

    /// The post-recovery Normal transition of a (possibly new) primary,
    /// no earlier than its predecessor's lease has run out: while the last
    /// marker that counted here, delivered at `t`, names someone else, the
    /// deposed holder may serve reads until `t + D` at the latest, so this
    /// primary takes no submission before then. The heartbeat tick tries
    /// again.
    fn enter_normal_as_primary(&mut self, ctx: &Ctx) {
        if !self.core.replies_suppressed(ctx.slf, Some(ctx.now)) {
            self.mode = Mode::Normal;
        }
    }

    /// Whether the current configuration's primary is decided: the
    /// deployed one, or one elected in (or, for a member a fetch's answer
    /// placed, before) this replica's stream.
    fn elected(&self) -> bool {
        self.config.seq == 0 || self.elected_at >= 0
    }

    /// Whether this replica is the elected primary, placed in its stream,
    /// and the backups it needs have acknowledged recovery (all of them,
    /// or one with overlapped state transfer): step 7 may resume.
    fn recovered(&self, slf: Loc) -> bool {
        let all = self.config.backups().len();
        let needed = match self.options.overlapped_transfer {
            true => all.min(1),
            false => all,
        };
        let acked = self.recovery_acks.len() >= needed;
        self.elected() && self.is_primary(slf) && !self.core.rejoining() && acked
    }

    /// Catch-up or a snapshot chunk. One stamped with the seq its sender's
    /// election completed at is held until this replica's stream has
    /// delivered that seq: it has then elected the same primary. One
    /// answering this incarnation's fetch first puts the replica where the
    /// answer says ([`PbrReplica::rejoin`]); any other answer is dropped.
    fn on_state(&mut self, ctx: &Ctx, msg: &Msg, outs: &mut Vec<SendInstr>) {
        let (cfg, rest) = msg.body.unpair();
        let (stamp, state) = rest.unpair();
        let elected_at = stamp.as_int();
        if elected_at.is_some_and(|at| !self.core.anchored() || at >= self.core.stream_next()) {
            self.held.push(msg.clone());
        } else if elected_at.is_none() && !self.rejoin(ctx, stamp, outs) {
            // An earlier incarnation's answer, or one the fetch is past.
        } else if cfg.int() != self.config.seq || self.mode != Mode::Recovering {
            // From a configuration this replica has left, or a duplicate.
        } else if *state == Value::Unit {
            // The configuration alone: the primary's answer recovers it.
        } else if msg.header == cached_header!(CATCHUP_HEADER) {
            self.on_catchup(ctx, state, outs);
        } else if self.core.accept_chunk(state).is_some() {
            // The image carries the donor's reply cache, `executed` and —
            // in a sharded group — its 2PC state and emission counters, so
            // this replica resumes exactly where the group is.
            self.finish_recovery(ctx, outs);
        }
    }

    /// Whether `stamp` answers this incarnation's open fetch. The first
    /// answer puts the replica in the donor's configuration, in elected
    /// order (a disk holds the order as adopted, before the election),
    /// anchored where it holds from; a member then recovers from its state.
    fn rejoin(&mut self, ctx: &Ctx, stamp: &Value, outs: &mut Vec<SendInstr>) -> bool {
        let (at, rest) = stamp.unpair();
        let (nonce, config) = rest.unpair();
        let config = ReplicaConfig::from_value(config);
        let (Some(config), true) = (config, self.core.answers(nonce.int(), at.int())) else {
            return false;
        };
        if self.core.anchored() {
            return true; // a later chunk, or the answer to a retry
        }
        if config != self.config {
            self.log_config(config);
        }
        self.elected_at = at.int() - 1;
        let heard = self.config.members.iter().map(|m| (*m, ctx.now));
        self.last_heard.extend(heard);
        let member = self.config.contains(ctx.slf);
        self.mode = if member { Mode::Recovering } else { Mode::Idle };
        if !member {
            self.core.fetched();
        }
        let ready = self.core.anchor(at.int(), ctx.now);
        self.deliver(ctx, ready, outs);
        true
    }

    fn on_catchup(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let (start, txns) = body.unpair();
        // Group-apply the transactions this replica misses under one engine
        // commit (no replies are sent during catch-up, so repeated clients
        // inside the run are fine); a catch-up from beyond it applies none.
        let skip = usize::try_from(self.core.executed() - start.int()).unwrap_or(usize::MAX);
        let missing = txns.elems().iter().skip(skip);
        let batch: Vec<TxnEnvelope> = missing.filter_map(TxnEnvelope::from_value).collect();
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
        if !self.is_primary(ctx.slf) {
            outs.push(self.ack(ctx.slf, self.core.executed()));
        }
        self.finish_recovery(ctx, outs);
    }

    /// Step 6: acknowledge recovery to the primary and resume — or, at a
    /// `Promote` target the highest report's member just brought up, lead.
    fn finish_recovery(&mut self, ctx: &Ctx, outs: &mut Vec<SendInstr>) {
        self.core.fetched();
        if self.is_primary(ctx.slf) {
            return self.lead(ctx, outs);
        }
        let primary = self.config.primary();
        outs.push(self.in_config(primary, RECOVERY_ACK_HEADER, Value::Loc(ctx.slf)));
        self.mode = Mode::Normal;
        self.drain_forwards(ctx, outs);
    }

    /// Answers a configuration-status query with this replica's view of
    /// the chain (used by `ReconfigHandle` to CAS the next command and to
    /// poll convergence).
    fn on_config_query(&mut self, ctx: &Ctx, body: &Value, outs: &mut Vec<SendInstr>) {
        let normal = self.mode == Mode::Normal;
        let report = config_reply_msg(ctx.slf, &self.config, self.core.executed(), normal);
        outs.push(SendInstr::now(body.loc(), report));
    }

    /// Step 7: the primary resumes once the required backups acknowledged.
    fn on_recovery_ack(&mut self, ctx: &Ctx, body: &Value) {
        let (cfg, from) = body.unpair();
        if cfg.int() != self.config.seq || !self.is_primary(ctx.slf) {
            return;
        }
        self.recovery_acks.insert(from.loc());
        self.active_backups.insert(from.loc());
        if self.mode == Mode::Recovering && self.recovered(ctx.slf) {
            self.enter_normal_as_primary(ctx);
        }
    }
}

/// An election report's TOB payload: `<"report", <seq, <member,
/// executed>>>` — `member` adopted configuration `seq` having executed
/// `executed` transactions.
fn report_payload(seq: i64, member: Loc, executed: i64) -> Value {
    let report = Value::pair(Value::Loc(member), Value::Int(executed));
    Value::pair(Value::str("report"), Value::pair(Value::Int(seq), report))
}

/// Decodes [`report_payload`]; `None` for any other payload.
fn parse_report(payload: &Value) -> Option<(i64, Loc, i64)> {
    let (tag, rest) = payload.fst().zip(payload.snd())?;
    let (seq, report) = rest.fst().zip(rest.snd())?;
    let (member, executed) = report.fst().zip(report.snd())?;
    let report = (seq.as_int()?, member.as_loc()?, executed.as_int()?);
    (tag.as_str()? == "report").then_some(report)
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
    /// and open the log — after a reboot, read the disk back under it.
    fn ensure_init(&mut self, ctx: &Ctx, out: &mut Vec<SendInstr>) {
        if self.hb_armed {
            return;
        }
        self.hb_armed = true;
        let recover = |r: &mut PbrReplica, rec| r.recover(ctx.slf, rec, out);
        ReplicaCore::first_step(self, |r| &mut r.core, ctx.now, recover);
        if !self.config.contains(ctx.slf) {
            self.mode = Mode::Idle; // a spare, until a configuration adds us
            return;
        }
        // Startup counts as hearing from everyone (grace period).
        let heard = self.config.members.iter().map(|m| (*m, ctx.now));
        self.last_heard.extend(heard);
        if self.is_primary(ctx.slf) {
            self.active_backups = self.config.backups().iter().copied().collect();
        }
    }
}

impl Process for PbrReplica {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        self.ensure_init(ctx, out);
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
            self.core.sync(self.wal_index, || self.config.to_value());
        } else if h == cached_header!(SYNCED_HEADER) {
            // Like an ack: what it releases was checked entry by entry.
            let config = &self.config;
            self.core
                .on_synced(&msg.body, self.wal_index, || config.to_value(), out);
            return self.release_pending(out);
        } else if h == cached_header!(HB_TIMER_HEADER) {
            self.on_hb_timer(ctx, out);
        } else if h == cached_header!(HEARTBEAT_HEADER) {
            self.on_heartbeat(ctx, &msg.body);
        } else if h == cached_header!(LEASE_TIMER_HEADER) {
            // Only a Normal primary claims; it renews at every tick.
            let primary = self.mode == Mode::Normal && self.is_primary(ctx.slf);
            self.core.on_lease_tick(ctx, primary.then_some(0), out);
        } else if h == cached_header!(CATCHUP_HEADER) || h == cached_header!(SNAPSHOT_HEADER) {
            self.on_state(ctx, msg, out);
        } else if h == cached_header!(RECOVERY_ACK_HEADER) {
            self.on_recovery_ack(ctx, &msg.body);
        } else if h == cached_header!(FETCH_HEADER) {
            self.on_fetch(ctx, msg, out);
        } else if h == cached_header!(FETCH_RETRY_HEADER) {
            self.core.on_fetch_retry(ctx.slf, out);
        } else if h == cached_header!(CONFIG_QUERY_HEADER) {
            self.on_config_query(ctx, &msg.body, out);
        } else if h == cached_header!(STALE_CONFIG_HEADER) {
            self.core.on_stale_config(msg);
        } else if let Some(seq) = parse_subok(msg) {
            let ready = self.core.on_subok(ctx, seq, self.core.executed(), out);
            self.deliver(ctx, ready, out);
        } else if let Some(d) = parse_deliver(msg) {
            let ready = self.core.offer(d);
            self.deliver(ctx, ready, out);
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
        self.promote_pref.hash(&mut h);
        self.core.digest_requests(&mut h);
        (&self.election, &self.recovery_acks).hash(&mut h);
        self.core.twopc_seq().hash(&mut h);
        self.core.digest_lease(&mut h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgs::{config_query_msg, parse_config_reply, submit_msg, REPLY_HEADER};
    use crate::replica_core::LEASE_MARKER_TAG;
    use shadowdb_sqldb::EngineProfile;
    use shadowdb_tob::DELIVER_HEADER;
    use shadowdb_workloads::bank;

    const A: Loc = Loc::new(1);
    const B: Loc = Loc::new(2);
    const TOB: Loc = Loc::new(9);
    const CLIENT: Loc = Loc::new(20);

    /// A lease replica of the deployed configuration `members`.
    fn replica(members: &[Loc], opts: SmrLeaseOptions) -> PbrReplica {
        let db = Database::new(EngineProfile::h2());
        bank::load(&db, 4).expect("bank loads");
        let config = ReplicaConfig::initial(members.to_vec());
        let options = PbrOptions::default();
        PbrReplica::new(db, config, Vec::new(), vec![TOB], options).with_read_leases(opts)
    }

    fn deliver(seq: i64, payload: Value) -> Msg {
        let rest = Value::pair(Value::Loc(TOB), Value::pair(Value::Int(0), payload));
        Msg::new(DELIVER_HEADER, Value::pair(Value::Int(seq), rest))
    }

    fn marker(holder: Loc, sent: VTime) -> Value {
        let stamp = Value::Int(sent.as_micros() as i64);
        Value::pair(
            Value::str(LEASE_MARKER_TAG),
            Value::pair(Value::Loc(holder), stamp),
        )
    }

    /// Whether `r`, stepped as `slf` at `at`, reports itself Normal.
    fn normal(r: &mut PbrReplica, slf: Loc, at: VTime) -> bool {
        let outs = r.step(&Ctx::new(slf, at), &config_query_msg(CLIENT));
        parse_config_reply(&outs[0].msg).expect("a report").normal
    }

    /// Submits a read to `r` as `slf` at `at`: whether the client got an
    /// answer in that step (a fast read; an ordered one waits for acks).
    fn read_answered(r: &mut PbrReplica, slf: Loc, at: VTime, cseq: i64) -> bool {
        let env = TxnEnvelope::new(CLIENT, cseq, TxnRequest::BankRead { account: 0 });
        let outs = r.step(&Ctx::new(slf, at), &submit_msg(&env));
        outs.iter().any(|s| s.msg.header.name() == REPLY_HEADER)
    }

    /// The successor of a holder whose marker counted at `t` takes no
    /// submission before `t + D`, however early its election ends; its
    /// heartbeat tick lets it in at that instant.
    #[test]
    fn a_successor_waits_out_its_predecessors_last_marker() {
        let opts = SmrLeaseOptions::default();
        let t = VTime::from_secs(1);
        let mut b = replica(&[A, B], opts.clone());
        b.step(&Ctx::new(B, t), &deliver(0, marker(A, t)));
        let depose = ConfigCommand::NewConfig { members: vec![B] }.to_payload(0);
        b.step(&Ctx::new(B, t), &deliver(1, depose));
        let elected = t + Duration::from_millis(10);
        b.step(&Ctx::new(B, elected), &deliver(2, report_payload(1, B, 0)));
        assert_eq!(b.config().primary(), B, "elected at once");
        assert!(!normal(&mut b, B, elected));
        let lapse = t + opts.lease_duration;
        let before = t + (opts.lease_duration - Duration::from_micros(1));
        b.step(&Ctx::new(B, before), &PbrReplica::start_msg());
        assert!(!normal(&mut b, B, before), "the old marker is still fresh");
        b.step(&Ctx::new(B, lapse), &PbrReplica::start_msg());
        assert!(
            normal(&mut b, B, lapse),
            "the tick lets it in once it lapsed"
        );
    }

    /// A marker the stream delivers behind the command that deposed its
    /// holder installs nothing: neither after a command that drops the
    /// holder, nor after a `Promote` that keeps it first in the adopted
    /// order until the election picks someone else. The successor then
    /// waits for no one.
    #[test]
    fn a_late_marker_of_a_deposed_holder_installs_nothing() {
        let t = VTime::from_secs(1);
        let dropped = ConfigCommand::NewConfig { members: vec![B] };
        let promoted = ConfigCommand::Promote {
            loc: B,
            members: vec![A, B],
        };
        for (cmd, members) in [(dropped, vec![B]), (promoted, vec![A, B])] {
            let mut b = replica(&[A, B], SmrLeaseOptions::default());
            b.step(&Ctx::new(B, t), &deliver(0, cmd.to_payload(0)));
            b.step(&Ctx::new(B, t), &deliver(1, marker(A, t)));
            for (k, m) in members.iter().enumerate() {
                let report = report_payload(1, *m, 0);
                b.step(&Ctx::new(B, t), &deliver(2 + k as i64, report));
            }
            if members.len() > 1 {
                let ack = Value::pair(Value::Int(1), Value::Loc(A));
                b.step(&Ctx::new(B, t), &Msg::new(RECOVERY_ACK_HEADER, ack));
            }
            assert_eq!(b.config().primary(), B);
            assert!(normal(&mut b, B, t), "{cmd:?}: nothing to wait out");
        }
    }

    /// The holder serves only under its own delivered marker, and only
    /// until `send_ts + D - margin`: markers it keeps sending but never
    /// sees delivered extend nothing.
    #[test]
    fn a_holder_whose_markers_stop_arriving_stops_at_its_last_ones_end() {
        let opts = SmrLeaseOptions {
            lease_margin: Duration::from_millis(100),
            ..SmrLeaseOptions::default()
        };
        let t = VTime::from_secs(1);
        let mut a = replica(&[A, B], opts.clone());
        assert!(!read_answered(&mut a, A, t, 0), "no marker delivered yet");
        a.step(&Ctx::new(A, t), &deliver(0, marker(A, t)));
        assert!(read_answered(&mut a, A, t, 1));
        for s in 2..5 {
            let outs = a.step(
                &Ctx::new(A, VTime::from_secs(s)),
                &Msg::new(LEASE_TIMER_HEADER, Value::Unit),
            );
            assert!(outs.iter().any(|o| o.dest == TOB), "a renewal goes out");
        }
        let window = opts.lease_duration - opts.lease_margin;
        let (end, last) = (t + window, t + (window - Duration::from_micros(1)));
        assert!(read_answered(&mut a, A, last, 2));
        assert!(!read_answered(&mut a, A, end, 3));
    }
}
