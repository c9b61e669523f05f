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
//! A replica rebooted from its disk rejoins the way a joiner does: it
//! subscribes anew and holds its stream until the answer to its fetch —
//! from the settled primary, with the group's configuration in elected
//! order — says where the stream starts. Its disk's configuration only
//! names whom to ask, in turn, one more each heartbeat period.

use crate::msgs::{
    config_reply_msg, parse_fetch, stale_config_msg, ConfigCommand, ReplicaConfig, TxnEnvelope,
    ACK_HEADER, CATCHUP_HEADER, CONFIG_QUERY_HEADER, FETCH_HEADER, FETCH_RETRY_HEADER,
    FORWARD_HEADER, HB_TIMER_HEADER, HEARTBEAT_HEADER, RECOVERY_ACK_HEADER, SNAPSHOT_HEADER,
    STALE_CONFIG_HEADER, SUBMIT_HEADER, SYNCED_HEADER, SYNC_HEADER,
};
use crate::probe::{Event, Probe};
use crate::replica_core::{Executed, ReplicaCore, Seen};
use crate::shard::ShardRole;
use shadowdb_eventml::process::HasherAdapter;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::Database;
use shadowdb_tob::{parse_deliver, parse_subok, Delivery};
use shadowdb_wal::Disk;
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
    /// configuration's election (-1: none has run).
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
        self.core.attach_wal(disk, snapshot_every, 0, 0);
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
        self.reboot = Some(tear);
        self
    }

    /// The recovery a [`PbrReplica::rebooted`] replica runs before
    /// handling its first message.
    fn recover(&mut self, ctx: &Ctx, tear: u64, out: &mut Vec<SendInstr>) {
        let slf = ctx.slf;
        let (disk, rec) = self.core.recover(tear, ctx.now);
        let mut snap_at = 0;
        if let Some((idx, header)) = &rec.snapshot {
            // The durable image's policy header is the replica's position
            // on the config chain.
            if let Some(c) = ReplicaConfig::from_value(header) {
                self.config = c;
            }
            self.core.restart_window(self.core.executed());
            snap_at = *idx;
        }
        for (_, body) in &rec.records {
            self.replay_record(slf, body);
        }
        self.wal_index = rec.high_index().max(0);
        self.core.resume_wal(disk, snap_at, self.wal_index);
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
        let gated = env.read_only && self.pending.values().all(|p| p.env.read_only);
        if let Some(until) = self.lease_until(ctx).filter(|_| gated) {
            if self
                .core
                .serve_lease_read(ctx, &env, self.config.seq, until, outs)
            {
                return;
            }
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
                let hb = Value::pair(Value::Loc(ctx.slf), Value::Int(ts));
                outs.push(self.in_config(*m, HEARTBEAT_HEADER, hb));
            }
        }
        // A configuration broadcast the stream has not delivered: again.
        outs.extend(self.unordered.clone());
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
        let elected = self.config.seq == 0 || self.election.len() >= self.config.members.len();
        let outside = self.mode == Mode::Idle && elected && !self.config.members.is_empty();
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
        self.recovery_acks.clear();
        self.active_backups.clear();
        self.core.abandon_transfer();
        // Grants and echoes are per-configuration: from here on our
        // heartbeats carry the new seq, so the old primary's lease starves.
        self.lease_echo.clear();
        self.primary_ts = VTime::ZERO;
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
        let heard = self.config.members.iter().map(|m| (*m, ctx.now));
        self.last_heard.extend(heard);
        let member = self.config.contains(ctx.slf);
        self.mode = if member { Mode::Recovering } else { Mode::Idle };
        if !member {
            self.core.fetched();
        }
        let ready = self.core.anchor(at.int());
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
        let overlapped = self.options.overlapped_transfer;
        let all = self.config.backups().len();
        let needed = if overlapped { 1 } else { all };
        if self.mode == Mode::Recovering && self.recovery_acks.len() >= needed {
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
    /// and, after a reboot, read the disk back under it.
    fn ensure_init(&mut self, ctx: &Ctx, out: &mut Vec<SendInstr>) {
        if self.hb_armed {
            return;
        }
        self.hb_armed = true;
        if let Some(tear) = self.reboot.take() {
            self.recover(ctx, tear, out);
        }
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
            self.core
                .sync(self.wal_index, || self.config.to_value(), out);
            self.release_pending(out);
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
            let ready = self.core.on_subok(ctx.slf, seq, self.core.executed(), out);
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
    }
}
