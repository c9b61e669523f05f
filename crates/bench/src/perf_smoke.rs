//! Fast non-criterion perf smoke test for the fused GPM hot path, the
//! message plane and the replication planes.
//!
//! A table of gate rows ([`GATES`]), each one number and a direction.
//! `Host` rows time this machine — the fused TwoThird and CLK programs
//! standalone and through the `Runtime` seam, the framed wire codec, TCP
//! loopback echoes, real fsyncs. `Virtual` rows are deterministic
//! virtual-time figures; the four that summarise an ablation's sweep
//! (`tob_pipeline`, `sharded_bank_speedup`, `reconfig_catchup`,
//! `read_leases_speedup`) are **one point of that sweep at smoke size**,
//! computed by the experiment module's own `run`, so a gate cannot drift
//! from the sweep it summarises. The run reports each
//! metric and **fails** (exit 1) if any drifts more than 30 % the wrong
//! way against the baseline recorded in
//! `crates/bench/perf_smoke_baseline.json` (throughput rows gate on a
//! floor, latency and count rows on a ceiling). The whole run takes well
//! under a minute, so CI can afford it on every push — unlike the
//! criterion suite, which needs minutes.
//!
//! Regenerate the baseline (after an intentional perf change, on the
//! reference machine) with:
//!
//! ```text
//! PERF_SMOKE_WRITE_BASELINE=1 cargo run --release -p shadowdb-bench -- perf_smoke
//! ```
//!
//! The allowed regression is deliberately loose (30 %) because absolute
//! msgs/sec depends on the host; the gate exists to catch cliffs (an
//! accidental per-step allocation or a disabled dispatch table is worth
//! 2×, far beyond tolerance), not to police single-digit drift. Set
//! `PERF_SMOKE_FACTOR` to scale the threshold of the `Host` rows for
//! known-slow hosts (e.g. `PERF_SMOKE_FACTOR=0.5` halves the required
//! msgs/sec); `Virtual` rows cannot depend on the host and are never
//! scaled.

use crate::experiments::{
    ablation_reads, ablation_reconfig, ablation_shards, ablation_wal, ablation_window,
};
use crate::measure::answered;
use crate::scenario::{bank_options, TobLoad};
use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{
    clk, Ctx, FnProcess, FrameEncoder, FrameReader, Msg, Process, SendInstr, Value,
};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{Runtime, StorageMode};
use shadowdb_simnet::testing::default_net;
use shadowdb_simnet::{Latency, NetworkConfig, SimBuilder};
use shadowdb_tcpnet::TcpNet;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/perf_smoke_baseline.json");
const TOLERANCE: f64 = 0.70;

/// Calls `step` `warm` times off the clock (faulting in the symbol table
/// and code paths), then `reps` times on it; returns calls per second.
fn rate(warm: usize, reps: usize, mut step: impl FnMut()) -> f64 {
    for _ in 0..warm {
        step();
    }
    let t = Instant::now();
    for _ in 0..reps {
        step();
    }
    reps as f64 / t.elapsed().as_secs_f64()
}

/// msgs/sec of the fused TwoThird program: repeated fresh 8-instance
/// proposal bursts, the `opt_speedup/fused` workload.
fn twothird_fused_msgs_per_sec() -> f64 {
    let config = TwoThirdConfig::new(Loc::first_n(3), vec![Loc::new(100)]).with_auto_adopt();
    let class = TwoThird::new(config).class();
    let template = optimize(&class);
    let msgs: Vec<_> = (0..8).map(|i| propose_msg(i, Value::Int(i))).collect();
    let ctx = Ctx::at(Loc::new(0));
    let mut out: Vec<SendInstr> = Vec::new();
    let bursts = rate(50, 2_000, || {
        let mut p = template.clone();
        for m in &msgs {
            out.clear();
            p.step_into(&ctx, m, &mut out);
        }
    });
    bursts * msgs.len() as f64
}

/// msgs/sec of the fused CLK handler in steady state: one long-lived
/// process, one message repeated.
fn clk_fused_msgs_per_sec() -> f64 {
    let class = clk::handler_class(clk::ring_handle(3));
    let mut p = optimize(&class);
    let m = clk::clk_msg(Value::Int(0), 3);
    let ctx = Ctx::at(Loc::new(0));
    let mut out: Vec<SendInstr> = Vec::new();
    rate(1_000, 200_000, || {
        out.clear();
        p.step_into(&ctx, &m, &mut out);
    })
}

/// msgs/sec of the fused CLK ring hosted in the simulator but assembled
/// and driven purely through `&mut dyn Runtime` — the seam every
/// deployment builder now uses. The trait only mediates *construction*
/// (add_node / send_at / run_for); each delivered message still goes
/// through the fused dispatch table directly, so this rate must stay on
/// the same order as the simulator's native event loop. A cliff here
/// would mean the runtime abstraction grew a per-message virtual hop.
fn clk_runtime_msgs_per_sec() -> f64 {
    const RING: u32 = 3;
    let hop = Duration::from_micros(1); // zero latency would never advance time
    let net = NetworkConfig {
        latency: Latency::Fixed(hop),
        faults: Default::default(),
    };
    let mut sim = SimBuilder::new(7).network(net).build();
    {
        let rt: &mut dyn Runtime = &mut sim;
        let class = clk::handler_class(clk::ring_handle(RING));
        for _ in 0..RING {
            rt.add_node(Box::new(optimize(&class)));
        }
        rt.send_at(VTime::ZERO, Loc::new(0), clk::clk_msg(Value::Int(0), 0));
        // Warm-up: ~20k hops.
        rt.run_for(Duration::from_millis(20));
    }
    let before = sim.stats().delivered;
    let t = Instant::now();
    (&mut sim as &mut dyn Runtime).run_for(Duration::from_millis(300));
    let wall = t.elapsed().as_secs_f64();
    (sim.stats().delivered - before) as f64 / wall
}

/// msgs/sec through the full wire path in-process: encode + frame into
/// the reused per-connection scratch buffer, reassemble, decode. Uses a
/// Fig-8-sized payload (the paper's broadcast experiments use 140-byte
/// messages). Steady state must be allocation-light: the encoder scratch
/// and reader buffer are reused across all iterations, so a cliff here
/// means the codec grew a per-message allocation or copy.
fn codec_roundtrip_msgs_per_sec() -> f64 {
    // Header + int + 128-byte payload ≈ 140 encoded bytes.
    let msg = Msg::new(
        "bcast",
        Value::pair(
            Value::Int(7),
            Value::Bytes(bytes::Bytes::from(vec![0xA5u8; 128])),
        ),
    );
    let mut enc = FrameEncoder::new();
    let mut rdr = FrameReader::new();
    let mut roundtrip = |msg: &Msg| {
        let frame = enc.encode(msg);
        rdr.extend(frame);
        rdr.next_msg().expect("decodes").expect("one whole frame")
    };
    assert_eq!(roundtrip(&msg).header, msg.header);
    rate(1_000, 100_000, || {
        std::hint::black_box(roundtrip(&msg));
    })
}

/// msgs/sec of a driver-injected ping answered over a real loopback TCP
/// socket: each ping goes to the echo's shard as a scheduled action on its
/// command channel and is stepped inline there; each pong is framed,
/// crosses the kernel, and is decoded on the port's side. Requests are
/// pipelined in one burst, so the rate measures the injection path and the
/// transport's sustained throughput together, not a per-message RTT.
fn tcp_echo_msgs_per_sec() -> f64 {
    let mut net = TcpNet::new();
    let echo = net.add_node(Box::new(FnProcess::new(
        (),
        |_s, _c: &Ctx, m: &Msg| match m.body.as_loc() {
            Some(from) => vec![SendInstr::now(from, Msg::new("pong", Value::Unit))],
            None => vec![],
        },
    )));
    let (port, rx) = net.port();
    let ping = || Msg::new("ping", Value::Loc(port));
    let recv = |n: usize| {
        for _ in 0..n {
            rx.recv_timeout(Duration::from_secs(30))
                .expect("echo reply");
        }
    };
    // Warm-up: establish both connections and fault in the code paths.
    for _ in 0..200 {
        net.send(echo, ping());
    }
    recv(200);
    let reps = 5_000usize;
    let t = Instant::now();
    for _ in 0..reps {
        net.send(echo, ping());
    }
    recv(reps);
    let rate = reps as f64 / t.elapsed().as_secs_f64();
    net.shutdown();
    rate
}

/// Sustained echoes/sec of self-driving pinger/echo pairs on the shard
/// event loops: after the initial burst every message is node-to-node
/// socket traffic — no injection path, no port channel in the measured
/// window — with 4 pairs spread across shards and 64 pings in flight per
/// pair, so readiness events drain many frames per `read` and the pongs
/// leave in one `writev`. This is the transport's ceiling the way the
/// tentpole means it; `tcp_echo_msgs_per_sec` above keeps measuring the
/// injection-path figure for continuity.
fn tcp_echo_evloop_msgs_per_sec() -> f64 {
    crate::netload::echo_rate(4, 64, 2_000, 25_000, false)
}

/// The same self-driving echo with each pinger on its echo's machine
/// (`add_node_colocated`, as a broadcast machine's roles are placed): a
/// pair shares a shard thread and every ping and pong is an in-memory
/// hand-off into the peer's inbox, stepped at the top of the next loop
/// turn — no encoder, no socket. A cliff here means colocated traffic fell
/// back onto the wire, or the hand-off grew a per-message cost.
fn tcp_colocated_echo_msgs_per_sec() -> f64 {
    crate::netload::echo_rate(4, 64, 2_000, 25_000, true)
}

/// Virtual-time msgs/sec of the Paxos broadcast service with the slot
/// window open (8 concurrent proposals), at batch size 1 so pipelining —
/// not batching — carries the load: `ablation_window`'s run with 8
/// closed-loop clients all starting at server 0 of a 2 ms-hop network,
/// keeping several slots in flight at once. The leg also asserts the
/// tentpole claim directly: the same workload at window 1 (the old
/// one-proposal-in-flight behavior) must be at least 2× slower. Virtual
/// time makes both numbers deterministic, so the gate tracks protocol
/// changes, not host noise.
fn tob_pipeline_msgs_per_sec() -> f64 {
    let run = |window: usize| -> f64 {
        let load = TobLoad {
            seed: 64,
            net: NetworkConfig {
                latency: Latency::Fixed(Duration::from_millis(2)),
                ..NetworkConfig::lan()
            },
            clients: 8,
            msgs_each: 25,
            client_timeout: Duration::from_secs(5),
            spread: false,
            skip_warmup: false,
        };
        ablation_window::run(load, window, 1).throughput
    };
    let serial = run(1);
    let pipelined = run(8);
    println!("  (tob window 1: {serial:.1}/s, window 8: {pipelined:.1}/s)");
    assert!(
        pipelined >= 2.0 * serial,
        "window 8 must at least double window-1 throughput: {pipelined:.0} vs {serial:.0}"
    );
    pipelined
}

/// Speedup of the plan cache on the traffic it gets: bank transfers with
/// distinct literals — each the two UPDATEs `bank::transfer_in` sends —
/// replayed through `execute` (one parse and plan per statement shape,
/// each execution binding its own literals) versus `execute_uncached`
/// (parse and plan every statement). A cache keyed by exact SQL text
/// misses on every one of these (it read 0.8× here). The ratio is what
/// the gate records — it is host-independent to first order — and the
/// floor of 1.3× is asserted directly.
fn sqldb_cached_update_speedup() -> f64 {
    use shadowdb_sqldb::{Database, EngineProfile};
    use shadowdb_workloads::{bank, TxnRequest};

    const ACCOUNTS: usize = 1_000;
    const STMTS: usize = 20_500;
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, ACCOUNTS).expect("bank loads");
    let mut g = bank::BankGen::new(7, ACCOUNTS);
    let replay: Vec<String> = (0..STMTS / 2)
        .flat_map(|_| match g.next_transfer() {
            TxnRequest::BankTransfer { from, to, amount } => [
                bank::deposit_sql(from, -amount),
                bank::deposit_sql(to, amount),
            ],
            other => unreachable!("BankGen::next_transfer made {other:?}"),
        })
        .collect();
    let mut txn = db.begin().expect("begins");
    let mut next = replay.iter().cycle();
    let uncached = rate(500, 20_000, || {
        let sql = next.next().expect("cycles");
        std::hint::black_box(txn.execute_uncached(sql).expect("updates"));
    });
    let mut next = replay.iter().cycle();
    let cached = rate(500, 20_000, || {
        let sql = next.next().expect("cycles");
        std::hint::black_box(txn.execute(sql).expect("updates"));
    });
    txn.commit().expect("commits");
    let speedup = cached / uncached;
    assert!(
        speedup >= 1.3,
        "plan cache must beat re-parsing distinct-literal transfers by ≥1.3×, got {speedup:.2}×"
    );
    speedup
}

/// Virtual-time aggregate bank throughput of a 4-group sharded
/// deployment over the throughput of the identical workload on a single
/// group — the tentpole claim of the sharding layer, asserted directly:
/// four groups must at least double one group. The workload is
/// `ablation_shards`'s run at 0 % cross-shard: 48 closed-loop clients of
/// single-shard deposits on a LAN-latency network, enough offered load to
/// saturate one primary's virtual CPU; with four groups the same load
/// spreads over four primaries and four broadcast services. Virtual time
/// makes both numbers deterministic, so the gate tracks protocol and
/// routing changes, not host noise.
fn sharded_bank_speedup_4x1() -> f64 {
    let run = |shards: usize| ablation_shards::run(11, shards, 48, 0, 50).0.throughput;
    let one = run(1);
    let four = run(4);
    println!("  (bank 1 shard: {one:.0}/s, 4 shards: {four:.0}/s)");
    assert!(
        four >= 2.0 * one,
        "4 shards must at least double 1-shard bank throughput: {four:.0} vs {one:.0}"
    );
    four / one
}

const ACCOUNTS: usize = 400;

/// The small serving PBR bank group the recovery legs share: two clients
/// × 400 transactions (`BankGen` seeded `gen_seed + client`) over
/// [`ACCOUNTS`] accounts, 400 ms client retransmission, 50 ms heartbeats.
fn small_bank(gen_seed: u64, detect_after: Duration) -> (DeployOptions, PbrOptions) {
    let options = DeployOptions {
        client_timeout: Duration::from_millis(400),
        ..bank_options(ACCOUNTS, 2, 400, gen_seed)
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after,
        ..PbrOptions::default()
    };
    (options, pbr)
}

/// Client-observed failover time on the simulator, in **virtual**
/// milliseconds: a PBR deployment runs a bank workload, the primary is
/// crashed mid-run, and the leg reports the gap between the crash and the
/// first transaction answered after it — detection silence, the
/// reconfiguration broadcast, and the client's retry all included. This
/// is the analogue of the paper's Fig. 10 recovery experiment (≈640 ms
/// from failure to the service processing transactions again).
///
/// Virtual time makes the number deterministic: it does not depend on the
/// host, so the gate on it is about protocol/timer changes (a slower
/// detector, a lost-reconfiguration retry storm), not machine noise.
fn failover_recovery_ms() -> f64 {
    let mut sim = default_net(640);
    let (options, pbr) = small_bank(9, Duration::from_millis(300));
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    // Let the service reach steady state, then kill the primary.
    while answered(&d.stats) < 20 {
        sim.run_for(Duration::from_millis(5));
    }
    let t_crash = sim.now();
    sim.crash_at(t_crash, d.replicas[0]);
    // The outage ends when a transaction *submitted after* the crash is
    // answered — replies already in flight at the crash don't count.
    let first_post_crash_answer = |d: &PbrDeployment| {
        d.stats
            .iter()
            .flat_map(|s| {
                s.lock()
                    .completed
                    .iter()
                    .filter(|(submitted, _, _)| *submitted > t_crash)
                    .map(|(_, answered, _)| *answered)
                    .collect::<Vec<_>>()
            })
            .min()
    };
    let first_after = loop {
        if let Some(t) = first_post_crash_answer(&d) {
            break t;
        }
        sim.run_for(Duration::from_millis(10));
        assert!(
            sim.now() < t_crash + Duration::from_secs(600),
            "failover never completed"
        );
    };
    (first_after.as_micros() - t_crash.as_micros()) as f64 / 1_000.0
}

/// Client-observed time to replace a backup replica under a running bank
/// workload, in **virtual** milliseconds: a fresh replica is added
/// through the reconfiguration handle, streams its snapshot and catch-up
/// overlapped with live traffic, settles as a normal member, and the
/// victim is removed — `ReconfigHandle::replace_replica` measured
/// wall-to-wall while two clients keep committing. This is the analogue
/// of the paper's state-transfer methodology (Sec. IV-B's ~50 KB batches
/// feeding Sec. III-A's overlapped recovery), and the gate catches
/// regressions in the join path: a lost subscription anchor, a snapshot
/// retry storm, or a catch-up that stalls behind live traffic all show
/// up as a longer rejoin.
fn reconfig_catchup_ms() -> f64 {
    let (options, pbr) = small_bank(17, Duration::from_millis(300));
    // Let the service reach steady state (100 answers), then replace a
    // backup mid-load.
    let (ms, during) = ablation_reconfig::replace(641, &options, pbr, false, 100);
    assert!(
        during > 0,
        "clients must keep committing during the replacement (no full-group pause)"
    );
    ms
}

/// Real-fsync WAL throughput with group commit versus a sync per
/// transaction: `ablation_wal`'s commit run, the same 2 000 bank-sized
/// records appended to a file-backed log, once committing every append
/// (the naive durable design) and once committing at 64-record group
/// boundaries (what the replicas do — one fsync per batch of arrivals). The
/// leg reports the grouped rate and asserts the tentpole claim directly:
/// group commit must be at least 5× the per-transaction-fsync rate. The
/// ratio is host-independent to first order — both runs pay the same
/// syscall path seconds apart — so the in-main floor tracks the commit
/// path (an accidental fsync per append, a whole-log rewrite on the hot
/// path), not disk speed.
fn wal_group_commit_txns_per_sec() -> f64 {
    const TXNS: usize = 2_000;
    const GROUP: usize = 64;
    let root = StorageMode::fresh_file_root("perf-wal");
    let mode = StorageMode::File { root: root.clone() };
    let (per_txn, _) = ablation_wal::commit_run(&mode, TXNS, 1);
    let (grouped, _) = ablation_wal::commit_run(&mode, TXNS, GROUP);
    let _ = std::fs::remove_dir_all(&root);
    println!("  (wal fsync-per-txn: {per_txn:.0}/s, group of {GROUP}: {grouped:.0}/s)");
    assert!(
        grouped >= 5.0 * per_txn,
        "group commit must beat per-transaction fsync by ≥5×: {grouped:.0} vs {per_txn:.0} txns/sec"
    );
    grouped
}

/// Virtual-time cost of a restart **from disk**, in milliseconds: a PBR
/// deployment with durability runs a bank workload, the backup is
/// power-cycled mid-run, and the leg measures from the reboot to the
/// completed rejoin — WAL replay plus the network suffix catch-up. The
/// deployment's probe also proves the rejoin went through the catch-up
/// path, never a full state transfer; `main` asserts the durability
/// tentpole's payoff by comparing against `reconfig_catchup_ms`, which
/// replaces a replica *without* a disk and must stream the whole state.
fn restart_from_disk_ms() -> f64 {
    use shadowdb::probe::{check_catchup_only, Event, Probe, TransferKind};

    const SNAPSHOT_EVERY: i64 = 64;
    let mut sim = default_net(642);
    let probe = Probe::default();
    let (mut options, pbr) = small_bank(23, Duration::from_millis(400));
    options.durability = Some(DurabilityOptions {
        snapshot_every: SNAPSHOT_EVERY,
        ..DurabilityOptions::default()
    });
    options.probe = Some(probe.clone());
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    // Let the backup's WAL accumulate real state before the power cycle.
    while answered(&d.stats) < 100 {
        sim.run_for(Duration::from_millis(5));
    }
    let victim = d.replicas[1];
    let crash = sim.now() + Duration::from_millis(5);
    let reboot = crash + Duration::from_millis(40);
    sim.crash_at(crash, victim);
    d.reboot(&mut sim, victim, reboot, 13);
    let caught_up = Event::Transfer {
        to: victim,
        kind: TransferKind::Catchup,
    };
    while !probe.events().contains(&caught_up) {
        sim.run_for(Duration::from_millis(1));
        assert!(
            sim.now() < reboot + Duration::from_secs(60),
            "restart from disk never rejoined"
        );
    }
    check_catchup_only(&probe.events(), victim).expect("restart from disk rejoins by catch-up");
    (sim.now().as_micros() - reboot.as_micros()) as f64 / 1_000.0
}

/// WAL syncs per committed transaction of the shipping durable PBR
/// deployment on tcpnet — real sockets, real files, `sync_all` for real —
/// under 8 closed-loop bank clients. The microbench above shows what
/// group commit is worth; this leg shows that a deployment gets it. A
/// replica that syncs at the end of every appending step scores exactly
/// 2.0 (primary plus backup, per transaction, whatever the load); with the
/// durability point at `sdb/sync`, once per event-loop turn, whatever
/// arrives while a replica sits in `sync_all` shares the next one. It is a
/// count, not a speed, so the in-leg gate (< 1.0) holds on any host whose
/// sync takes long enough for a second request to arrive.
fn deployed_syncs_per_txn() -> f64 {
    const CLIENTS: usize = 8;
    const TXNS_EACH: usize = 400;
    let options = DeployOptions {
        durability: Some(DurabilityOptions::default()),
        ..bank_options(10_000, CLIENTS, TXNS_EACH, 71)
    };
    let mut net = TcpNet::builder().seeded(17).spawn();
    let d = PbrDeployment::build(&mut net, &options, PbrOptions::default());
    let t0 = Instant::now();
    while d.committed() < CLIENTS * TXNS_EACH {
        assert!(
            t0.elapsed() < Duration::from_secs(120),
            "durable deployment stalled at {} transactions",
            d.committed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let syncs: u64 = d.disks.iter().map(|k| k.sync_count()).sum();
    net.shutdown();
    let per_txn = syncs as f64 / (CLIENTS * TXNS_EACH) as f64;
    assert!(
        per_txn < 1.0,
        "group commit must engage in a deployment: {per_txn:.2} WAL syncs per transaction \
         ({syncs} syncs; 2.0 means one per replica per transaction)"
    );
    per_txn
}

/// Virtual-time throughput speedup of the lease read fast path over
/// TOB-ordered execution on SMR at a 95%-read zipfian mix — the lease
/// tentpole's headline figure, gated in-leg at 3×: `ablation_reads`'s SMR
/// run (the sweep covers the full read-fraction grid) with 8 clients × 30
/// transactions, measured over the whole history. Host-independent: both
/// runs are deterministic virtual-time deployments on the same simulated
/// LAN, so the ratio is pure protocol cost — with leases every read the
/// holder answers skips its total-order broadcast entirely.
fn read_leases_speedup_95r() -> f64 {
    let load = ablation_reads::Load {
        clients: 8,
        txns_each: 30,
        skip_warmup: false,
    };
    let throughput = |leases: bool| {
        ablation_reads::run(4_650 + leases as u64, &load, false, 95, leases).throughput
    };
    let ordered = throughput(false);
    let leased = throughput(true);
    let speedup = leased / ordered;
    assert!(
        speedup >= 3.0,
        "lease fast path must be >= 3x over TOB-ordered reads at a 95%-read mix, \
         got {speedup:.2}x ({leased:.0} vs {ordered:.0} txns/sec)"
    );
    speedup
}

use Better::{Higher, Lower};
use Clock::{Host, Virtual};

/// Which clock a gate row reads.
#[derive(Clone, Copy, PartialEq)]
enum Clock {
    /// This machine's: `PERF_SMOKE_FACTOR` scales the row's slack.
    Host,
    /// The simulator's: deterministic, so the factor does not apply.
    Virtual,
}

/// Which direction of drift counts as a regression for a metric.
#[derive(Clone, Copy)]
enum Better {
    /// Throughput: fail when the value drops below `baseline × TOLERANCE`.
    Higher,
    /// Latency or count: fail when the value climbs above
    /// `baseline ÷ TOLERANCE`.
    Lower,
}

/// One gate row: the baseline key, the clock the number reads, which
/// direction is better, and the leg computing it.
type Gate = (&'static str, Clock, Better, fn() -> f64);

/// A row keyed by its leg's name, so a key cannot name the wrong leg.
macro_rules! gate {
    ($clock:ident, $better:ident, $leg:ident) => {
        (stringify!($leg), $clock, $better, $leg)
    };
}

const GATES: &[Gate] = &[
    gate!(Host, Higher, twothird_fused_msgs_per_sec),
    gate!(Host, Higher, clk_fused_msgs_per_sec),
    gate!(Host, Higher, clk_runtime_msgs_per_sec),
    gate!(Host, Higher, codec_roundtrip_msgs_per_sec),
    gate!(Host, Higher, tcp_echo_msgs_per_sec),
    gate!(Host, Higher, tcp_echo_evloop_msgs_per_sec),
    gate!(Host, Higher, tcp_colocated_echo_msgs_per_sec),
    gate!(Virtual, Higher, tob_pipeline_msgs_per_sec),
    gate!(Host, Higher, sqldb_cached_update_speedup),
    gate!(Virtual, Higher, sharded_bank_speedup_4x1),
    gate!(Virtual, Lower, failover_recovery_ms),
    gate!(Virtual, Lower, reconfig_catchup_ms),
    gate!(Host, Higher, wal_group_commit_txns_per_sec),
    gate!(Host, Lower, deployed_syncs_per_txn),
    gate!(Virtual, Lower, restart_from_disk_ms),
    gate!(Virtual, Higher, read_leases_speedup_95r),
];

/// Minimal extraction of `"key": <number>` from the baseline JSON — the
/// file is machine-written with a fixed shape, so no JSON library needed.
fn read_baseline(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\""))?;
    let rest = &json[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Runs every gate row and compares against the baseline: exit code 0 on
/// pass, 1 on a regression, 2 on a usage error.
pub fn run() -> ExitCode {
    let measured: Vec<(&Gate, f64)> = GATES.iter().map(|g| (g, (g.3)())).collect();

    // The event-loop acceptance gate, host-independent to first order:
    // the socket echo path must stay within 4× of the in-process codec
    // roundtrip (the thread-per-link transport sat at ~7×). Both rates
    // were measured seconds apart on this host, so the ratio tracks
    // transport overhead, not machine speed.
    let rate_of = |key: &str| {
        measured
            .iter()
            .find(|(g, _)| g.0 == key)
            .map(|(_, v)| *v)
            .expect("leg present")
    };
    let codec = rate_of("codec_roundtrip_msgs_per_sec");
    let evloop = rate_of("tcp_echo_evloop_msgs_per_sec");
    let ratio = codec / evloop;
    println!("codec/evloop ratio: {ratio:.2}x (gate: <= 4x)");
    let colocated = rate_of("tcp_colocated_echo_msgs_per_sec");
    println!("colocated/evloop echo ratio: {:.2}x", colocated / evloop);
    assert!(
        ratio <= 4.0,
        "event-loop echo must stay within 4x of the codec roundtrip, got {ratio:.2}x \
         ({codec:.0} vs {evloop:.0} msgs/sec)"
    );

    // The durability tentpole's payoff, also host-independent: rejoining
    // from the local WAL + a suffix catch-up must beat replacing a
    // replica from scratch (snapshot stream + catch-up). Both are
    // deterministic virtual-time figures from the same simulator.
    let restart = rate_of("restart_from_disk_ms");
    let reconfig = rate_of("reconfig_catchup_ms");
    println!("restart-from-disk vs fresh-replica transfer: {restart:.1} ms vs {reconfig:.1} ms");
    assert!(
        restart < reconfig,
        "restart from disk must beat a fresh replica's full transfer: \
         {restart:.1} ms vs {reconfig:.1} ms"
    );

    if std::env::var("PERF_SMOKE_WRITE_BASELINE").is_ok() {
        let mut body = String::from("{\n");
        for (i, ((key, ..), v)) in measured.iter().enumerate() {
            let sep = if i + 1 == measured.len() { "" } else { "," };
            body.push_str(&format!("  \"{key}\": {v:.1}{sep}\n"));
        }
        body.push_str("}\n");
        std::fs::write(BASELINE_PATH, body).expect("write baseline");
        println!("baseline written to {BASELINE_PATH}");
        for ((key, ..), v) in &measured {
            println!("  {key}: {v:.1}");
        }
        return ExitCode::SUCCESS;
    }

    let factor: f64 = match std::env::var("PERF_SMOKE_FACTOR") {
        Ok(s) => match s.parse() {
            Ok(f) => f,
            Err(_) => {
                eprintln!("PERF_SMOKE_FACTOR must be a number, got {s:?}");
                return ExitCode::from(2);
            }
        },
        Err(_) => 1.0,
    };
    let json = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("cannot read {BASELINE_PATH}: {e}");
            eprintln!("run with PERF_SMOKE_WRITE_BASELINE=1 to create it");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for ((key, clock, better, _), v) in &measured {
        let base = read_baseline(&json, key).unwrap_or_else(|| panic!("no baseline for {key}"));
        // A slow host (`factor < 1`) lowers floors and raises ceilings —
        // of the rows that read the host's clock.
        let slack = match clock {
            Host => TOLERANCE * factor,
            Virtual => TOLERANCE,
        };
        let (limit, bound, bad) = match better {
            Higher => ("floor", base * slack, *v < base * slack),
            Lower => ("ceiling", base / slack, *v > base / slack),
        };
        let verdict = if bad { "FAIL" } else { "ok" };
        println!("{key}: {v:.1} (baseline {base:.1}, {limit} {bound:.1}) .. {verdict}");
        failed |= bad;
    }
    if failed {
        eprintln!("perf smoke FAILED: >30% drift vs baseline");
        return ExitCode::from(1);
    }
    println!("perf smoke passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_keys_are_exactly_the_gate_rows() {
        let json = std::fs::read_to_string(BASELINE_PATH).expect("baseline readable");
        for (key, ..) in GATES {
            assert!(read_baseline(&json, key).is_some(), "no baseline for {key}");
        }
        let keys = json.matches("\": ").count();
        assert_eq!(keys, GATES.len(), "a baseline key names no gate row");
        let virtual_rows = GATES.iter().filter(|g| g.1 == Virtual).count();
        assert_eq!(virtual_rows, 6);
    }
}
