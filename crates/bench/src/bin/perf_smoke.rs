//! Fast non-criterion perf smoke test for the fused GPM hot path and the
//! message plane.
//!
//! Drives the fused (dispatch-optimized) TwoThird and CLK programs for a
//! fixed number of messages — standalone and through the `Runtime` seam —
//! plus the framed wire codec, a TCP loopback echo, and a deterministic
//! virtual-time PBR failover-recovery measurement;
//! reports each metric, and **fails** (exit 1) if
//! any drifts more than 30 % the wrong way against the baseline recorded
//! in `crates/bench/perf_smoke_baseline.json` (throughput legs gate on a
//! floor, the recovery-latency leg on a ceiling). The whole run takes
//! well under a second, so CI can afford it on every push — unlike the
//! criterion suite, which needs minutes.
//!
//! Regenerate the baseline (after an intentional perf change, on the
//! reference machine) with:
//!
//! ```text
//! PERF_SMOKE_WRITE_BASELINE=1 cargo run --release -p shadowdb-bench --bin perf_smoke
//! ```
//!
//! The allowed regression is deliberately loose (30 %) because absolute
//! msgs/sec depends on the host; the gate exists to catch cliffs (an
//! accidental per-step allocation or a disabled dispatch table is worth
//! 2×, far beyond tolerance), not to police single-digit drift. Set
//! `PERF_SMOKE_FACTOR` to scale the threshold for known-slow hosts
//! (e.g. `PERF_SMOKE_FACTOR=0.5` halves the required msgs/sec).

use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{
    clk, Ctx, FnProcess, FrameEncoder, FrameReader, Msg, Process, SendInstr, Value,
};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::Runtime;
use shadowdb_simnet::{Latency, NetworkConfig, SimBuilder};
use shadowdb_tcpnet::TcpNet;
use std::time::{Duration, Instant};

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/perf_smoke_baseline.json");
const TOLERANCE: f64 = 0.70;

/// msgs/sec of the fused TwoThird program: repeated fresh 8-instance
/// proposal bursts, the `opt_speedup/fused` workload.
fn twothird_fused_rate() -> f64 {
    let config = TwoThirdConfig::new(Loc::first_n(3), vec![Loc::new(100)]).with_auto_adopt();
    let class = TwoThird::new(config).class();
    let template = optimize(&class);
    let msgs: Vec<_> = (0..8).map(|i| propose_msg(i, Value::Int(i))).collect();
    let ctx = Ctx::at(Loc::new(0));
    let mut out: Vec<SendInstr> = Vec::new();
    let reps = 2_000usize;
    // Warm-up: fault in the symbol table and code paths.
    for _ in 0..50 {
        let mut p = template.clone();
        for m in &msgs {
            out.clear();
            p.step_into(&ctx, m, &mut out);
        }
    }
    let t = Instant::now();
    for _ in 0..reps {
        let mut p = template.clone();
        for m in &msgs {
            out.clear();
            p.step_into(&ctx, m, &mut out);
        }
    }
    (reps * msgs.len()) as f64 / t.elapsed().as_secs_f64()
}

/// msgs/sec of the fused CLK handler in steady state: one long-lived
/// process, one message repeated.
fn clk_fused_rate() -> f64 {
    let class = clk::handler_class(clk::ring_handle(3));
    let mut p = optimize(&class);
    let m = clk::clk_msg(Value::Int(0), 3);
    let ctx = Ctx::at(Loc::new(0));
    let mut out: Vec<SendInstr> = Vec::new();
    let steps = 200_000usize;
    for _ in 0..1_000 {
        out.clear();
        p.step_into(&ctx, &m, &mut out);
    }
    let t = Instant::now();
    for _ in 0..steps {
        out.clear();
        p.step_into(&ctx, &m, &mut out);
    }
    steps as f64 / t.elapsed().as_secs_f64()
}

/// msgs/sec of the fused CLK ring hosted in the simulator but assembled
/// and driven purely through `&mut dyn Runtime` — the seam every
/// deployment builder now uses. The trait only mediates *construction*
/// (add_node / send_at / run_for); each delivered message still goes
/// through the fused dispatch table directly, so this rate must stay on
/// the same order as the simulator's native event loop. A cliff here
/// would mean the runtime abstraction grew a per-message virtual hop.
fn clk_runtime_rate() -> f64 {
    const RING: u32 = 3;
    let hop = Duration::from_micros(1); // zero latency would never advance time
    let net = NetworkConfig {
        latency: Latency::Fixed(hop),
        drop_probability: 0.0,
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
fn codec_roundtrip_rate() -> f64 {
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
    let reps = 100_000usize;
    for _ in 0..1_000 {
        let got = roundtrip(&msg);
        assert_eq!(got.header, msg.header);
    }
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(roundtrip(&msg));
    }
    reps as f64 / t.elapsed().as_secs_f64()
}

/// msgs/sec of a ping/pong echo over real loopback TCP sockets: every
/// message is framed, crosses the kernel, and is decoded on the other
/// side. Requests are pipelined in one burst, so the rate measures the
/// transport's sustained throughput (including the injection path through
/// the control thread), not a per-message RTT.
fn tcp_echo_rate() -> f64 {
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
fn tcp_echo_evloop_rate() -> f64 {
    shadowdb_bench::netload::echo_rate(4, 64, 2_000, 25_000)
}

/// Virtual-time msgs/sec of the Paxos broadcast service with the slot
/// window open (8 concurrent proposals), at batch size 1 so pipelining —
/// not batching — carries the load: 8 closed-loop clients on a 2 ms-hop
/// network keep several slots in flight at once. The leg also asserts the
/// tentpole claim directly: the same workload at window 1 (the old
/// one-proposal-in-flight behavior) must be at least 2× slower. Virtual
/// time makes both numbers deterministic, so the gate tracks protocol
/// changes, not host noise.
fn tob_pipeline_msgs_per_sec() -> f64 {
    use shadowdb_tob::client::{ClientStats, TobClient};
    use shadowdb_tob::deploy::{BackendKind, TobDeployment, TobOptions};
    use std::sync::Arc;

    const CLIENTS: u32 = 8;
    const MSGS: u64 = 25;
    let run = |window: usize| -> f64 {
        let net = NetworkConfig {
            latency: Latency::Fixed(Duration::from_millis(2)),
            drop_probability: 0.0,
            faults: Default::default(),
        };
        let mut sim = SimBuilder::new(64).network(net).build();
        let options = TobOptions {
            backend: BackendKind::Paxos,
            max_batch: 1,
            window: Some(window),
            ..TobOptions::default()
        };
        // Clients take locs 0..CLIENTS; the service deploys after them.
        let servers: Vec<Loc> = (0..options.machines)
            .map(|i| Loc::new(CLIENTS + i * 4))
            .collect();
        let mut stats = Vec::new();
        let mut client_locs = Vec::new();
        for _ in 0..CLIENTS {
            let s = Arc::new(parking_lot::Mutex::new(ClientStats::default()));
            let loc = sim.add_node(Box::new(TobClient::new(
                servers.clone(),
                Value::str("payload"),
                MSGS,
                s.clone(),
            )));
            stats.push(s);
            client_locs.push(loc);
        }
        TobDeployment::build(&mut sim, &options, client_locs.clone());
        for c in &client_locs {
            sim.send_at(VTime::ZERO, *c, TobClient::start_msg());
        }
        sim.run_until_quiescent(VTime::from_secs(600));
        let mut done = 0usize;
        let mut last = VTime::ZERO;
        for s in &stats {
            let s = s.lock();
            done += s.completed.len();
            for (_, d) in &s.completed {
                last = last.max(*d);
            }
        }
        assert_eq!(done, (CLIENTS as u64 * MSGS) as usize, "window {window}");
        done as f64 / (last.as_micros() as f64 / 1e6)
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

/// Speedup of the statement/plan cache on a point-update replay: the same
/// UPDATE text re-executed through `execute` (cache hit: no parse, no name
/// resolution, no index selection) versus `execute_uncached` (the
/// pre-cache path). The ratio is what the gate records — it is
/// host-independent to first order — and the tentpole floor of 1.3× is
/// asserted directly.
fn sqldb_cached_update_speedup() -> f64 {
    use shadowdb_sqldb::{Database, EngineProfile};
    use shadowdb_workloads::bank;

    let db = Database::new(EngineProfile::h2());
    bank::load(&db, 1_000).expect("bank loads");
    let sql = "UPDATE accounts SET balance = balance + 1 WHERE id = 500";
    let time_with = |uncached: bool| -> f64 {
        let reps = 20_000usize;
        let mut txn = db.begin().expect("begins");
        for _ in 0..500 {
            txn.execute(sql).expect("warms");
        }
        let t = Instant::now();
        for _ in 0..reps {
            let rs = if uncached {
                txn.execute_uncached(sql)
            } else {
                txn.execute(sql)
            };
            std::hint::black_box(rs.expect("updates"));
        }
        let dt = t.elapsed().as_secs_f64();
        txn.commit().expect("commits");
        dt
    };
    let uncached = time_with(true);
    let cached = time_with(false);
    let speedup = uncached / cached;
    assert!(
        speedup >= 1.3,
        "plan cache must beat re-parsing by ≥1.3×, got {speedup:.2}×"
    );
    speedup
}

/// Virtual-time aggregate bank throughput of a 4-group sharded
/// deployment over the throughput of the identical workload on a single
/// group — the tentpole claim of the sharding layer, asserted directly:
/// four groups must at least double one group. The workload is 48
/// closed-loop clients of single-shard deposits on a LAN-latency
/// network, enough offered load to saturate one primary's virtual CPU;
/// with four groups the same load spreads over four primaries and four
/// broadcast services. Virtual time makes both numbers deterministic, so
/// the gate tracks protocol and routing changes, not host noise.
fn sharded_bank_speedup() -> f64 {
    use shadowdb::deploy::{DeployOptions, ShardedDeployment};
    use shadowdb::pbr::PbrOptions;
    use shadowdb_workloads::{bank, TxnRequest};

    const ROWS: usize = 256;
    const CLIENTS: usize = 48;
    const TXNS: usize = 50;
    let run = |shards: usize| -> f64 {
        let mut sim = SimBuilder::new(11).network(NetworkConfig::lan()).build();
        let options = DeployOptions::sharded(
            shards,
            CLIENTS,
            |client| {
                (0..TXNS)
                    .map(|k| TxnRequest::BankDeposit {
                        account: (shadowdb_bench::mix(k, client) % ROWS) as i64,
                        amount: 1 + (k % 50) as i64,
                    })
                    .collect()
            },
            move |shard, db| bank::load_shard(db, ROWS, shards, shard).expect("loads"),
        );
        let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
        sim.run_until_quiescent(VTime::from_secs(3_600));
        assert_eq!(d.committed(), CLIENTS * TXNS, "{shards} shard(s)");
        let mut all: Vec<(VTime, VTime)> = Vec::new();
        for s in &d.stats {
            let s = s.lock();
            let warm = s.completed.len() / 10;
            all.extend(s.completed.iter().skip(warm).map(|(a, b, _)| (*a, *b)));
        }
        let first = all.iter().map(|(a, _)| *a).min().expect("commits");
        let last = all.iter().map(|(_, b)| *b).max().expect("commits");
        all.len() as f64 / last.saturating_since(first).as_secs_f64().max(1e-9)
    };
    let one = run(1);
    let four = run(4);
    println!("  (bank 1 shard: {one:.0}/s, 4 shards: {four:.0}/s)");
    assert!(
        four >= 2.0 * one,
        "4 shards must at least double 1-shard bank throughput: {four:.0} vs {one:.0}"
    );
    four / one
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
    use shadowdb::deploy::{DeployOptions, PbrDeployment};
    use shadowdb::pbr::PbrOptions;
    use shadowdb_workloads::bank;

    const ACCOUNTS: usize = 400;
    let mut sim = shadowdb_simnet::testing::default_net(640);
    let options = DeployOptions {
        client_timeout: Duration::from_millis(400),
        ..DeployOptions::new(
            2,
            |client| {
                let mut g = bank::BankGen::new(9 + client as u64, ACCOUNTS);
                (0..400).map(|_| g.next_txn()).collect()
            },
            |db| bank::load(db, ACCOUNTS).expect("loads"),
        )
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(300),
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut sim, &options, pbr);
    let committed =
        |d: &PbrDeployment| -> usize { d.stats.iter().map(|s| s.lock().completed.len()).sum() };
    // Let the service reach steady state, then kill the primary.
    while committed(&d) < 20 {
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
    use shadowdb::deploy::{DeployOptions, PbrDeployment};
    use shadowdb::diversity::DiversityPolicy;
    use shadowdb::pbr::PbrOptions;
    use shadowdb_workloads::bank;

    const ACCOUNTS: usize = 400;
    let mut sim = shadowdb_simnet::testing::default_net(641);
    let options = DeployOptions {
        client_timeout: Duration::from_millis(400),
        ..DeployOptions::new(
            2,
            |client| {
                let mut g = bank::BankGen::new(17 + client as u64, ACCOUNTS);
                (0..400).map(|_| g.next_txn()).collect()
            },
            |db| bank::load(db, ACCOUNTS).expect("loads"),
        )
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(300),
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut sim, &options, pbr.clone());
    let mut handle = d.reconfig(&mut sim, pbr, DiversityPolicy::Uniform, |db| {
        bank::load(db, ACCOUNTS).expect("loads")
    });
    let committed =
        |d: &PbrDeployment| -> usize { d.stats.iter().map(|s| s.lock().completed.len()).sum() };
    // Let the service reach steady state, then replace a backup mid-load.
    while committed(&d) < 100 {
        sim.run_for(Duration::from_millis(5));
    }
    let before = committed(&d);
    let t0 = sim.now();
    handle
        .replace_replica(&mut sim, d.replicas[1], Duration::from_secs(60))
        .expect("replacement completes");
    let ms = (sim.now().as_micros() - t0.as_micros()) as f64 / 1_000.0;
    assert!(
        committed(&d) > before,
        "clients must keep committing during the replacement (no full-group pause)"
    );
    ms
}

/// Real-fsync WAL throughput with group commit versus a sync per
/// transaction: the same 2 000 bank-sized records appended to a
/// file-backed log under the OS temp dir, once committing every append
/// (the naive durable design) and once committing at 64-record group
/// boundaries (what the replicas do — one fsync per batch of arrivals). The
/// leg reports the grouped rate and asserts the tentpole claim directly:
/// group commit must be at least 5× the per-transaction-fsync rate. The
/// ratio is host-independent to first order — both runs pay the same
/// syscall path seconds apart — so the in-main floor tracks the commit
/// path (an accidental fsync per append, a whole-log rewrite on the hot
/// path), not disk speed.
fn wal_group_commit_txns_per_sec() -> f64 {
    use shadowdb_runtime::StorageMode;
    use shadowdb_wal::{Disk, Wal};

    const TXNS: usize = 2_000;
    const GROUP: usize = 64;
    let root = StorageMode::fresh_file_root("perf-wal");
    let mode = StorageMode::File { root: root.clone() };
    // A bank transaction's framed apply record is ~100 bytes.
    let body = Value::pair(
        Value::Int(7),
        Value::Bytes(bytes::Bytes::from(vec![0xA5u8; 96])),
    );
    let run = |name: &str, group: usize| -> f64 {
        let mut wal = Wal::open(Disk::open(&mode, name, Duration::ZERO));
        let t = Instant::now();
        for i in 0..TXNS {
            wal.append(i as i64, &body);
            if (i + 1) % group == 0 {
                wal.commit();
            }
        }
        wal.commit();
        TXNS as f64 / t.elapsed().as_secs_f64()
    };
    let per_txn = run("per-txn", 1);
    let grouped = run("grouped", GROUP);
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
/// probe also proves the rejoin went through the catch-up path, never a
/// full state transfer; `main` asserts the durability tentpole's payoff
/// by comparing against `reconfig_catchup_ms`, which replaces a replica
/// *without* a disk and must stream the whole state.
fn restart_from_disk_ms() -> f64 {
    use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment};
    use shadowdb::diversity::DiversityPolicy;
    use shadowdb::msgs::ReplicaConfig;
    use shadowdb::pbr::{PbrOptions, PbrReplica, TransferKind, TransferProbe};
    use shadowdb_runtime::{schedule_node_faults, FaultPlan, LazyRecover, NodeFaultKind};
    use shadowdb_workloads::bank;
    use std::sync::Arc;

    const ACCOUNTS: usize = 400;
    const SNAPSHOT_EVERY: i64 = 64;
    let mut sim = shadowdb_simnet::testing::default_net(642);
    let transfers: TransferProbe = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let options = DeployOptions {
        client_timeout: Duration::from_millis(400),
        durability: Some(DurabilityOptions {
            snapshot_every: SNAPSHOT_EVERY,
            transfer_probe: Some(transfers.clone()),
            ..DurabilityOptions::default()
        }),
        ..DeployOptions::new(
            2,
            |client| {
                let mut g = bank::BankGen::new(23 + client as u64, ACCOUNTS);
                (0..400).map(|_| g.next_txn()).collect()
            },
            |db| bank::load(db, ACCOUNTS).expect("loads"),
        )
    };
    let pbr = PbrOptions {
        heartbeat_every: Duration::from_millis(50),
        detect_after: Duration::from_millis(400),
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut sim, &options, pbr.clone());
    let committed =
        |d: &PbrDeployment| -> usize { d.stats.iter().map(|s| s.lock().completed.len()).sum() };
    // Let the backup's WAL accumulate real state before the power cycle.
    while committed(&d) < 100 {
        sim.run_for(Duration::from_millis(5));
    }
    let victim = d.replicas[1];
    let disk = d.disks[1].clone();
    let crash = sim.now() + Duration::from_millis(5);
    let reboot = crash + Duration::from_millis(40);
    let plan = FaultPlan::new(0)
        .with_crash(crash, victim)
        .with_durable_restart(reboot, victim);
    let recover = {
        let disk = disk.clone();
        let config = ReplicaConfig::initial(d.replicas[..2].to_vec());
        let spares = d.replicas[2..].to_vec();
        let servers = d.tob.servers.clone();
        let pbr = pbr.clone();
        move |loc: Loc, kind: NodeFaultKind| {
            assert_eq!((loc, kind), (victim, NodeFaultKind::RestartDurable));
            let disk = disk.clone();
            let config = config.clone();
            let spares = spares.clone();
            let servers = servers.clone();
            let pbr = pbr.clone();
            Some(Box::new(LazyRecover::new(move || {
                disk.begin_recovery(13);
                let db = DiversityPolicy::Uniform.database(1);
                bank::load(&db, ACCOUNTS).expect("loads");
                Box::new(PbrReplica::recover_from(
                    db,
                    config.clone(),
                    spares.clone(),
                    servers.clone(),
                    pbr.clone(),
                    None,
                    victim,
                    disk.clone(),
                    SNAPSHOT_EVERY,
                ))
            })) as Box<dyn Process>)
        }
    };
    schedule_node_faults(&mut sim, &plan, recover);
    sim.send_at(
        reboot + Duration::from_millis(2),
        victim,
        PbrReplica::start_msg(),
    );
    let rejoined = |t: &TransferProbe| {
        t.lock()
            .iter()
            .any(|(l, k)| (*l, *k) == (victim, TransferKind::Catchup))
    };
    while !rejoined(&transfers) {
        sim.run_for(Duration::from_millis(1));
        assert!(
            sim.now() < reboot + Duration::from_secs(60),
            "restart from disk never rejoined"
        );
    }
    assert!(
        !transfers
            .lock()
            .iter()
            .any(|(l, k)| (*l, *k) == (victim, TransferKind::Snapshot)),
        "restart from disk fell back to a full state transfer"
    );
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
    use shadowdb::deploy::{DeployOptions, DurabilityOptions, PbrDeployment};
    use shadowdb::pbr::PbrOptions;
    use shadowdb_workloads::bank;

    const ACCOUNTS: usize = 10_000;
    const CLIENTS: usize = 8;
    const TXNS_EACH: usize = 400;
    let options = DeployOptions {
        durability: Some(DurabilityOptions::default()),
        ..DeployOptions::new(
            CLIENTS,
            |client| {
                let mut g = bank::BankGen::new(71 + client as u64, ACCOUNTS);
                (0..TXNS_EACH).map(|_| g.next_txn()).collect()
            },
            |db| bank::load(db, ACCOUNTS).expect("loads"),
        )
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

/// Which direction of drift counts as a regression for a metric.
/// Virtual-time throughput speedup of the lease read fast path over
/// TOB-ordered execution on SMR at a 95%-read zipfian mix — the lease
/// tentpole's headline figure, gated in-leg at 3× (`ablation_reads`
/// sweeps the full read-fraction grid). Host-independent: both runs are
/// deterministic virtual-time deployments on the same simulated LAN,
/// so the ratio is pure protocol cost — with leases every read the
/// holder answers skips its total-order broadcast entirely.
fn read_leases_speedup_95r() -> f64 {
    use shadowdb::deploy::{DeployOptions, SmrDeployment};
    use shadowdb::smr::SmrLeaseOptions;
    use shadowdb_workloads::{bank, KvGen, KvOptions};

    const ROWS: usize = 256;
    const CLIENTS: usize = 8;
    const TXNS_EACH: usize = 30;
    let throughput = |leases: bool| -> f64 {
        let mut sim = shadowdb_simnet::testing::default_net(4_650 + leases as u64);
        let mut options = DeployOptions::new(
            CLIENTS,
            |client| {
                let opts = KvOptions {
                    rows: ROWS,
                    read_fraction: 0.95,
                    theta: 0.99,
                };
                KvGen::new(0x5EED + client as u64, opts).script(TXNS_EACH)
            },
            |db| bank::load(db, ROWS).expect("bank loads"),
        );
        if leases {
            options.smr_leases = Some(SmrLeaseOptions::default());
        }
        let d = SmrDeployment::build(&mut sim, &options);
        sim.run_until_quiescent(VTime::from_secs(3_600));
        let mut first = VTime::MAX;
        let mut last = VTime::ZERO;
        let mut n = 0usize;
        for s in &d.stats {
            let s = s.lock();
            assert_eq!(s.completed.len(), TXNS_EACH, "every transaction answers");
            for (a, b, _) in &s.completed {
                first = first.min(*a);
                last = last.max(*b);
                n += 1;
            }
        }
        n as f64 / last.saturating_since(first).as_secs_f64().max(1e-9)
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

#[derive(Clone, Copy)]
enum Gate {
    /// Throughput: fail when the value drops below `baseline × TOLERANCE`
    /// (scaled by `PERF_SMOKE_FACTOR` for slow hosts).
    HigherBetter,
    /// Latency: fail when the value climbs above `baseline ÷ TOLERANCE`.
    /// `PERF_SMOKE_FACTOR < 1` (a slow host) *raises* the ceiling.
    LowerBetter,
}

fn main() {
    let measured = [
        (
            "twothird_fused_msgs_per_sec",
            twothird_fused_rate(),
            Gate::HigherBetter,
        ),
        (
            "clk_fused_msgs_per_sec",
            clk_fused_rate(),
            Gate::HigherBetter,
        ),
        (
            "clk_runtime_msgs_per_sec",
            clk_runtime_rate(),
            Gate::HigherBetter,
        ),
        (
            "codec_roundtrip_msgs_per_sec",
            codec_roundtrip_rate(),
            Gate::HigherBetter,
        ),
        ("tcp_echo_msgs_per_sec", tcp_echo_rate(), Gate::HigherBetter),
        (
            "tcp_echo_evloop_msgs_per_sec",
            tcp_echo_evloop_rate(),
            Gate::HigherBetter,
        ),
        (
            "tob_pipeline_msgs_per_sec",
            tob_pipeline_msgs_per_sec(),
            Gate::HigherBetter,
        ),
        (
            "sqldb_cached_update_speedup",
            sqldb_cached_update_speedup(),
            Gate::HigherBetter,
        ),
        (
            "sharded_bank_speedup_4x1",
            sharded_bank_speedup(),
            Gate::HigherBetter,
        ),
        (
            "failover_recovery_ms",
            failover_recovery_ms(),
            Gate::LowerBetter,
        ),
        (
            "reconfig_catchup_ms",
            reconfig_catchup_ms(),
            Gate::LowerBetter,
        ),
        (
            "wal_group_commit_txns_per_sec",
            wal_group_commit_txns_per_sec(),
            Gate::HigherBetter,
        ),
        (
            "deployed_syncs_per_txn",
            deployed_syncs_per_txn(),
            Gate::LowerBetter,
        ),
        (
            "restart_from_disk_ms",
            restart_from_disk_ms(),
            Gate::LowerBetter,
        ),
        (
            "read_leases_speedup_95r",
            read_leases_speedup_95r(),
            Gate::HigherBetter,
        ),
    ];

    // The event-loop acceptance gate, host-independent to first order:
    // the socket echo path must stay within 4× of the in-process codec
    // roundtrip (the thread-per-link transport sat at ~7×). Both rates
    // were measured seconds apart on this host, so the ratio tracks
    // transport overhead, not machine speed.
    let rate_of = |key: &str| {
        measured
            .iter()
            .find(|(k, ..)| *k == key)
            .map(|(_, v, _)| *v)
            .expect("leg present")
    };
    let codec = rate_of("codec_roundtrip_msgs_per_sec");
    let evloop = rate_of("tcp_echo_evloop_msgs_per_sec");
    let ratio = codec / evloop;
    println!("codec/evloop ratio: {ratio:.2}x (gate: <= 4x)");
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
        for (i, (k, v, _)) in measured.iter().enumerate() {
            let sep = if i + 1 == measured.len() { "" } else { "," };
            body.push_str(&format!("  \"{k}\": {v:.1}{sep}\n"));
        }
        body.push_str("}\n");
        std::fs::write(BASELINE_PATH, body).expect("write baseline");
        println!("baseline written to {BASELINE_PATH}");
        for (k, v, _) in &measured {
            println!("  {k}: {v:.1}");
        }
        return;
    }

    let factor: f64 = match std::env::var("PERF_SMOKE_FACTOR") {
        Ok(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("PERF_SMOKE_FACTOR must be a number, got {s:?}");
            std::process::exit(2);
        }),
        Err(_) => 1.0,
    };
    let json = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        eprintln!("cannot read {BASELINE_PATH}: {e}");
        eprintln!("run with PERF_SMOKE_WRITE_BASELINE=1 to create it");
        std::process::exit(2);
    });
    let mut failed = false;
    for (k, v, gate) in &measured {
        let base = read_baseline(&json, k).unwrap_or_else(|| panic!("no baseline for {k}"));
        let bad = match gate {
            Gate::HigherBetter => {
                let floor = base * TOLERANCE * factor;
                println!(
                    "{k}: {v:.0} (baseline {base:.0}, floor {floor:.0}) .. {}",
                    if *v < floor { "FAIL" } else { "ok" }
                );
                *v < floor
            }
            Gate::LowerBetter => {
                let ceiling = base / (TOLERANCE * factor);
                println!(
                    "{k}: {v:.1} (baseline {base:.1}, ceiling {ceiling:.1}) .. {}",
                    if *v > ceiling { "FAIL" } else { "ok" }
                );
                *v > ceiling
            }
        };
        failed |= bad;
    }
    if failed {
        eprintln!("perf smoke FAILED: >30% drift vs baseline");
        std::process::exit(1);
    }
    println!("perf smoke passed");
}
