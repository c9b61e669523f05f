//! Chaos soaks: the bank workload under seeded nemesis schedules, on the
//! simulator (virtual time) and on tcpnet (real time, real sockets).
//!
//! Every run asserts (in `shadowdb::chaos`) that the system converges
//! after the last fault heals, that the observed history is strictly
//! serializable (which also catches duplicated transaction execution),
//! and that every invariant of `shadowdb::probe` holds over the event log
//! the run's deployment recorded — among them, for PBR, that no two
//! replicas ever executed as primary of the same configuration.
//!
//! The simulator legs sweep every nemesis profile in virtual time; the
//! tcpnet legs run a representative subset in real time with fixed seeds.
//! Set `CHAOS_SEEDS=n` to additionally sweep seeds `0..n` across every
//! profile on the simulator (the opt-in long soak).

use shadowdb::chaos::{
    soak_pbr, soak_power_cycle_reconfig_pbr, soak_reads_pbr, soak_reads_smr, soak_reconfig_pbr,
    soak_reconfig_smr, soak_sharded_pbr, soak_sharded_reconfig_pbr, soak_sharded_reconfig_smr,
    soak_sharded_smr, soak_smr, ChaosOptions, ChaosReport,
};
use shadowdb_runtime::NemesisProfile;
use shadowdb_tcpnet::TcpNet;
use std::time::Duration;

/// Simulator sizing: the nemesis window must overlap the workload, so a
/// 2 s virtual window over a workload long enough to still be running
/// when the first fault lands (simulated round trips are ~1 ms).
fn sim_opts(seed: u64, profile: NemesisProfile) -> ChaosOptions {
    let mut o = ChaosOptions::quick(seed, profile, Duration::from_secs(2));
    o.txns_per_client = 150;
    o.deadline = Duration::from_secs(120);
    o
}

/// Real-runtime sizing: a 3 s nemesis window with a generous convergence
/// deadline (CI machines are noisy) and client timeouts that keep retries
/// cheap but frequent.
fn live_opts(seed: u64, profile: NemesisProfile) -> ChaosOptions {
    let mut o = ChaosOptions::quick(seed, profile, Duration::from_secs(3));
    o.deadline = Duration::from_secs(40);
    o.txns_per_client = 25;
    o
}

#[test]
fn simnet_pbr_survives_every_profile() {
    for (i, profile) in NemesisProfile::ALL.into_iter().enumerate() {
        let mut sim = shadowdb_simnet::testing::default_net(900 + i as u64);
        let report = soak_pbr(&mut sim, &sim_opts(42, profile));
        assert_eq!(report.committed, 300, "{profile:?}");
    }
}

#[test]
fn simnet_smr_survives_every_profile() {
    for (i, profile) in NemesisProfile::ALL.into_iter().enumerate() {
        let mut sim = shadowdb_simnet::testing::default_net(700 + i as u64);
        let report = soak_smr(&mut sim, &sim_opts(43, profile));
        assert_eq!(report.committed, 300, "{profile:?}");
    }
}

/// The fault plane must actually bite: under the lossy-client profile the
/// simulator's counters record both drops and duplicates. PBR on the LAN
/// model finishes before the first lossy burst opens, so this leg runs on
/// a WAN-like latency (2 ms one-way) that stretches the workload across
/// the fault windows.
#[test]
fn simnet_nemesis_actually_injects() {
    use shadowdb_simnet::{Latency, NetworkConfig, SimBuilder};
    let net = NetworkConfig {
        latency: Latency::Jittered {
            base: Duration::from_millis(2),
            jitter: Duration::from_micros(300),
        },
        ..NetworkConfig::lan()
    };
    let mut sim = SimBuilder::new(901).network(net).build();
    let report = soak_pbr(&mut sim, &sim_opts(7, NemesisProfile::LossyClientLinks));
    assert!(
        report.dropped > 0 && report.duplicated > 0,
        "lossy profile should drop and duplicate: {report:?}"
    );
}

/// The primary cut off from everyone mid-run. As in
/// `tcpnet_pbr_crash_soak` the window is compressed so the cut lands
/// inside the run: at 100 ms, seed 21 isolates the primary from 18 ms to
/// 38 ms, and 2 000 loopback transactions take several times that. The
/// cut is shorter than failure detection, so this is the transport's leg
/// — frames parked, links force-closed, reconnect and FIFO flush under
/// load; failover under partition is protocol behaviour, swept on the
/// simulator.
#[test]
fn tcpnet_pbr_partition_soak() {
    let mut net = TcpNet::builder().seeded(21).spawn();
    let mut opts = live_opts(21, NemesisProfile::PartitionVictim);
    opts.duration = Duration::from_millis(100);
    opts.txns_per_client = 1_000;
    let report = soak_pbr(&mut net, &opts);
    assert_eq!(report.committed, 2_000);
    net.shutdown();
}

/// Real-runtime sizing for the lossy-client legs: a 300 ms window opens
/// the first burst by 100 ms for both seeds used below, a third of the
/// way into a 1 000-transaction SMR run, and a short client timeout keeps
/// the closed-loop clients sending through the bursts — at the default
/// 150 ms one dropped frame parks a client past the end of the burst,
/// leaving the drop/duplicate path almost no traffic.
fn tcp_lossy_opts(seed: u64) -> ChaosOptions {
    let mut o = live_opts(seed, NemesisProfile::LossyClientLinks);
    o.duration = Duration::from_millis(300);
    o.client_timeout = Duration::from_millis(30);
    o.txns_per_client = 500;
    o
}

/// The real-deployment counterpart of `simnet_nemesis_actually_injects`:
/// tcpnet's frame-write drop and write-twice paths must actually bite.
fn assert_lossy_bit(report: &ChaosReport) {
    assert_eq!(report.committed, 1_000);
    assert!(
        report.dropped > 0 && report.duplicated > 0,
        "lossy profile should drop and duplicate frames: {report:?}"
    );
}

#[test]
fn tcpnet_smr_lossy_clients_soak() {
    let mut net = TcpNet::builder().seeded(22).spawn();
    assert_lossy_bit(&soak_smr(&mut net, &tcp_lossy_opts(22)));
    net.shutdown();
}

#[test]
fn tcpnet_pbr_crash_soak() {
    // Seed the net so reconnect-backoff jitter after the crash is the
    // same schedule every run.
    let mut net = TcpNet::builder().seeded(23).spawn();
    // Local TCP round trips are sub-millisecond, so the workload would
    // outrun a crash scheduled from a 3 s window; a 20 ms window puts the
    // primary's crash (at 0.15–0.40 × duration, so 3–8 ms after the
    // clients start) inside a 100-transaction run that cannot finish that
    // fast. The detection/retry timeouts keep their CI-friendly floors
    // from `ChaosOptions::quick`.
    let mut opts = live_opts(23, NemesisProfile::CrashVictim);
    opts.duration = Duration::from_millis(20);
    opts.txns_per_client = 100;
    let report = soak_pbr(&mut net, &opts);
    assert_eq!(report.committed, 200);
    assert!(
        report.resends > 0,
        "the crash must have forced retries: {report:?}"
    );
    net.shutdown();
}

#[test]
fn tcpnet_smr_partition_soak() {
    let mut net = TcpNet::builder().seeded(24).spawn();
    let report = soak_smr(&mut net, &live_opts(24, NemesisProfile::PartitionVictim));
    assert_eq!(report.committed, 50);
    net.shutdown();
}

/// Durability soaks: repeated power loss on one replica, rebooting it
/// from its WAL + snapshot. The harness asserts (in `shadowdb::chaos`)
/// that the run converges, the history stays strictly serializable (no
/// acked transaction lost, none executed twice across the replay), and
/// — via the donors' transfer rows in the event log — that every rejoin
/// was served as a suffix catch-up, never a full state transfer.
#[test]
fn simnet_durability_pbr_power_loss() {
    let mut sim = shadowdb_simnet::testing::default_net(1_300);
    let report = soak_pbr(&mut sim, &sim_opts(31, NemesisProfile::PowerLoss));
    assert_eq!(report.committed, 300);
}

#[test]
fn simnet_durability_smr_power_loss() {
    let mut sim = shadowdb_simnet::testing::default_net(1_301);
    let report = soak_smr(&mut sim, &sim_opts(32, NemesisProfile::PowerLoss));
    assert_eq!(report.committed, 300);
}

/// On tcpnet the replicas write through *real files*: every group commit
/// is an actual `write + fsync`, and the reboot re-reads actual bytes.
/// As with the crash soak, the window is compressed so the power cycles
/// land inside a workload that local TCP would otherwise finish first.
#[test]
fn tcpnet_durability_pbr_power_loss() {
    let mut net = TcpNet::builder().seeded(35).spawn();
    let mut opts = live_opts(35, NemesisProfile::PowerLoss);
    opts.duration = Duration::from_millis(300);
    opts.txns_per_client = 100;
    let report = soak_pbr(&mut net, &opts);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

#[test]
fn tcpnet_durability_smr_power_loss() {
    let mut net = TcpNet::builder().seeded(36).spawn();
    let mut opts = live_opts(36, NemesisProfile::PowerLoss);
    opts.duration = Duration::from_millis(300);
    opts.txns_per_client = 100;
    let report = soak_smr(&mut net, &opts);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

/// Power cycles, then a reconfiguration: the durable PBR group's backup
/// loses power and reboots from its disk under the nemesis, and once it
/// has healed the harness promotes that member. The harness asserts (by
/// name: "the rebooted member … was not counted in the next election")
/// that the election after the power cycles counted the rebooted member,
/// which then leads; convergence, the history check and the catch-up-only
/// rejoin hold across both.
#[test]
fn simnet_power_cycle_then_reconfig_pbr() {
    let mut sim = shadowdb_simnet::testing::default_net(1_302);
    let report = soak_power_cycle_reconfig_pbr(&mut sim, &sim_opts(33, NemesisProfile::PowerLoss));
    assert_eq!(report.committed, 300);
}

#[test]
fn tcpnet_power_cycle_then_reconfig_pbr() {
    let mut net = TcpNet::builder().seeded(38).spawn();
    let mut opts = live_opts(38, NemesisProfile::PowerLoss);
    opts.duration = Duration::from_millis(300);
    opts.txns_per_client = 100;
    let report = soak_power_cycle_reconfig_pbr(&mut net, &opts);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

/// Pipelined-window soaks: the same harness with the broadcast window
/// forced open to 8 in-flight slots. SMR routes every transaction through
/// the service, so this is where pipelining must not reorder or duplicate
/// under faults; PBR exercises the window on its reconfiguration path.
#[test]
fn simnet_windowed_smr_soak_three_seeds() {
    for seed in [5, 6, 7] {
        let mut sim = shadowdb_simnet::testing::default_net(1_100 + seed);
        let opts = sim_opts(seed, NemesisProfile::LossyClientLinks).with_window(8);
        let report = soak_smr(&mut sim, &opts);
        assert_eq!(report.committed, 300, "seed {seed}");
    }
}

#[test]
fn simnet_windowed_pbr_soak_three_seeds() {
    for seed in [5, 6, 7] {
        let mut sim = shadowdb_simnet::testing::default_net(1_200 + seed);
        let opts = sim_opts(seed, NemesisProfile::PartitionVictim).with_window(8);
        let report = soak_pbr(&mut sim, &opts);
        assert_eq!(report.committed, 300, "seed {seed}");
    }
}

#[test]
fn tcpnet_windowed_smr_lossy_clients_soak() {
    let mut net = TcpNet::builder().seeded(25).spawn();
    assert_lossy_bit(&soak_smr(&mut net, &tcp_lossy_opts(25).with_window(8)));
    net.shutdown();
}

#[test]
fn tcpnet_windowed_smr_soak() {
    let mut net = TcpNet::builder().seeded(26).spawn();
    let opts = live_opts(26, NemesisProfile::PartitionVictim).with_window(8);
    let report = soak_smr(&mut net, &opts);
    assert_eq!(report.committed, 50);
    net.shutdown();
}

/// Reconfiguration soaks: a replica replaced online while the bank
/// workload runs and the `CrashDuringTransfer` nemesis kills first the
/// joiner mid-stream, then the donor primary during the re-replacement.
/// The harness asserts convergence, strict serializability of the whole
/// history spanning the configuration changes, one primary per
/// configuration sequence (PBR), and that a replacement eventually
/// landed (PBR). The replacement takes about a second of virtual time,
/// so the PBR leg is sized as the sharded ones are — 300 transactions
/// finish before the first configuration command lands — and its log
/// must show a primary of a later configuration.
#[test]
fn simnet_reconfig_pbr_crash_during_transfer() {
    let mut sim = shadowdb_simnet::testing::default_net(1_500);
    let mut opts = sim_opts(46, NemesisProfile::CrashDuringTransfer);
    opts.txns_per_client = 600;
    let report = soak_reconfig_pbr(&mut sim, &opts);
    assert_eq!(report.committed, 1_200);
    assert!(
        report.primaries.iter().any(|(seq, _)| *seq > 0),
        "the workload ended before a configuration change: {report:?}"
    );
}

#[test]
fn simnet_reconfig_smr_crash_during_transfer() {
    let mut sim = shadowdb_simnet::testing::default_net(1_501);
    let report = soak_reconfig_smr(&mut sim, &sim_opts(47, NemesisProfile::CrashDuringTransfer));
    assert_eq!(report.committed, 300);
}

/// The benign-profile reconfig soak: replace under load with no faults
/// at all (`DelaySpikes` only jitters), asserting the no-full-group-pause
/// acceptance claim — every transaction answers while the membership
/// changes underneath.
#[test]
fn simnet_reconfig_pbr_under_delay_spikes() {
    let mut sim = shadowdb_simnet::testing::default_net(1_502);
    let report = soak_reconfig_pbr(&mut sim, &sim_opts(48, NemesisProfile::DelaySpikes));
    assert_eq!(report.committed, 300);
}

#[test]
fn tcpnet_reconfig_pbr_crash_during_transfer() {
    let mut net = TcpNet::builder().seeded(31).spawn();
    // Real TCP round trips are fast, but the replacement (subscribe,
    // snapshot, config commands) is not instant: a 200 ms window keeps
    // both crash windows inside the replacement instead of before it.
    let mut opts = live_opts(31, NemesisProfile::CrashDuringTransfer);
    opts.duration = Duration::from_millis(200);
    opts.txns_per_client = 100;
    let report = soak_reconfig_pbr(&mut net, &opts);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

#[test]
fn tcpnet_reconfig_smr_crash_during_transfer() {
    let mut net = TcpNet::builder().seeded(32).spawn();
    let mut opts = live_opts(32, NemesisProfile::CrashDuringTransfer);
    opts.duration = Duration::from_millis(200);
    opts.txns_per_client = 100;
    let report = soak_reconfig_smr(&mut net, &opts);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

/// Lease-read soaks: a 95%-read YCSB-B mix with the read fast path on,
/// under `StalePrimaryReads` — the lease holder is partitioned from the
/// rest of the core while its client links stay up, so it keeps
/// receiving reads it could answer from stale state. The harness asserts
/// (in `shadowdb::chaos`) convergence, strict serializability of the
/// whole history — which catches any read served after the holder's
/// lease should have expired — and, on the event log, that fast reads
/// were actually served and no two holders' intervals ever overlapped.
/// Simulator sizing for the read soaks. Leases are 4 × heartbeat,
/// renewed every heartbeat, and a lease is live once its holder's first
/// marker has come back through the stream — so the cadence is tight and
/// the workload long enough that most reads land in the leased regime,
/// with the nemesis window compressed to put the partition in the middle
/// of the run rather than after it.
fn sim_read_opts(seed: u64) -> ChaosOptions {
    sim_read_opts_under(seed, NemesisProfile::StalePrimaryReads)
}

fn sim_read_opts_under(seed: u64, profile: NemesisProfile) -> ChaosOptions {
    let mut o = ChaosOptions::quick(seed, profile, Duration::from_millis(200));
    o.heartbeat_every = Duration::from_millis(5);
    o.detect_after = Duration::from_millis(25);
    o.client_timeout = Duration::from_millis(20);
    o.txns_per_client = 600;
    o.deadline = Duration::from_secs(120);
    o
}

#[test]
fn simnet_reads_pbr_stale_primary() {
    let mut sim = shadowdb_simnet::testing::default_net(1_600);
    let report = soak_reads_pbr(&mut sim, &sim_read_opts(51));
    assert_eq!(report.committed, 1_200);
}

/// The PBR read soak with failure detection faster than the lease: 12 ms
/// against a 20 ms lease, so a successor can finish its election while
/// the deposed holder's last marker is still fresh, and only its wait-out
/// of that marker — a fact of the stream order, not of `detect_after` —
/// keeps the two holders apart.
#[test]
fn simnet_reads_pbr_detect_below_lease() {
    let mut sim = shadowdb_simnet::testing::default_net(1_600);
    let mut opts = sim_read_opts(51);
    opts.detect_after = Duration::from_millis(12);
    let report = soak_reads_pbr(&mut sim, &opts);
    assert_eq!(report.committed, 1_200);
}

#[test]
fn simnet_reads_smr_stale_primary() {
    let mut sim = shadowdb_simnet::testing::default_net(1_601);
    let report = soak_reads_smr(&mut sim, &sim_read_opts(52));
    assert_eq!(report.committed, 1_200);
}

/// Durability × leases: the lease deployment is durable as well and the
/// *holder* is what loses power, rebooted by the deployment from its disk
/// with the lease plane attached. Its WAL replays lease markers that
/// carry no receipt time, so the rebooted holder must sit out one lease
/// length before it serves a fast read or acknowledges a write; on top
/// of the read-soak assertions, every rejoin is a delta.
#[test]
fn simnet_reads_smr_power_loss() {
    let mut sim = shadowdb_simnet::testing::default_net(1_602);
    let opts = sim_read_opts_under(53, NemesisProfile::PowerLoss);
    let report = soak_reads_smr(&mut sim, &opts);
    assert_eq!(report.committed, 1_200);
}

/// Real-runtime sizing for the read soaks: a tight heartbeat so leases
/// (4 × heartbeat, renewed every heartbeat) go live within the first few
/// round trips — the workload must overlap the leased regime, not finish
/// before the first marker is delivered — and enough transactions to
/// keep reads flowing while faults land. 100 transactions per client
/// last about as long as the first round on loopback TCP; 1 000 outlast
/// it several times over.
fn live_read_opts(seed: u64) -> ChaosOptions {
    let mut o = live_opts(seed, NemesisProfile::StalePrimaryReads);
    o.heartbeat_every = Duration::from_millis(10);
    o.txns_per_client = 1_000;
    o
}

#[test]
fn tcpnet_reads_pbr_stale_primary_soak() {
    let mut net = TcpNet::builder().seeded(39).spawn();
    let report = soak_reads_pbr(&mut net, &live_read_opts(39));
    assert_eq!(report.committed, 2_000);
    net.shutdown();
}

#[test]
fn tcpnet_reads_smr_stale_primary_soak() {
    let mut net = TcpNet::builder().seeded(40).spawn();
    let report = soak_reads_smr(&mut net, &live_read_opts(40));
    assert_eq!(report.committed, 2_000);
    net.shutdown();
}

/// Cross-shard soaks: two replica groups, one bank, a transfer every
/// third transaction (half of them cross-shard). The nemesis targets the
/// 2PC path directly — crash shard 0's primary mid-protocol, or partition
/// the coordinator group from the participant group — and the harness
/// asserts convergence, strict serializability of the transfer-bearing
/// history, and atomicity of every cross-shard commit on the event log.
#[test]
fn simnet_sharded_pbr_survives_2pc_profiles() {
    for (i, profile) in [
        NemesisProfile::ShardPrimaryCrash,
        NemesisProfile::CoordinatorPartition,
        NemesisProfile::LossyClientLinks,
    ]
    .into_iter()
    .enumerate()
    {
        let mut sim = shadowdb_simnet::testing::default_net(1_300 + i as u64);
        let report = soak_sharded_pbr(&mut sim, &sim_opts(44, profile), 2);
        assert_eq!(report.committed, 300, "{profile:?}");
    }
}

#[test]
fn simnet_sharded_smr_survives_2pc_profiles() {
    for (i, profile) in [
        NemesisProfile::ShardPrimaryCrash,
        NemesisProfile::CoordinatorPartition,
    ]
    .into_iter()
    .enumerate()
    {
        let mut sim = shadowdb_simnet::testing::default_net(1_400 + i as u64);
        let report = soak_sharded_smr(&mut sim, &sim_opts(45, profile), 2);
        assert_eq!(report.committed, 300, "{profile:?}");
    }
}

/// The two groups cut off from each other with cross-shard transfers in
/// flight: at 100 ms, seed 27 partitions them from 23 ms to 40 ms, and
/// 2 000 loopback transactions (one in six cross-shard) take several
/// times that.
#[test]
fn tcpnet_sharded_pbr_coordinator_partition_soak() {
    let mut net = TcpNet::builder().seeded(27).spawn();
    let mut opts = live_opts(27, NemesisProfile::CoordinatorPartition);
    opts.duration = Duration::from_millis(100);
    opts.txns_per_client = 1_000;
    let report = soak_sharded_pbr(&mut net, &opts, 2);
    assert_eq!(report.committed, 2_000);
    net.shutdown();
}

#[test]
fn tcpnet_sharded_smr_shard_crash_soak() {
    let mut net = TcpNet::builder().seeded(28).spawn();
    let mut opts = live_opts(28, NemesisProfile::ShardPrimaryCrash);
    // As in `tcpnet_pbr_crash_soak`: local TCP outruns a seconds-scale
    // window, so shrink it to land the crash inside the run.
    opts.duration = Duration::from_millis(20);
    opts.txns_per_client = 100;
    let report = soak_sharded_smr(&mut net, &opts, 2);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

/// Sharding × durability: two durable replica groups with cross-shard
/// transfers in flight while shard 0's participant replica is
/// power-cycled and rebooted from its disk *with its shard role*. On top
/// of the unsharded power-loss assertions (convergence, strict
/// serializability, suffix-only rejoin), the 2PC steps in the event log
/// must stay atomic across the replayed engine state.
#[test]
fn simnet_sharded_pbr_power_loss() {
    let mut sim = shadowdb_simnet::testing::default_net(1_500);
    let opts = sim_opts(46, NemesisProfile::PowerLoss);
    let report = soak_sharded_pbr(&mut sim, &opts, 2);
    assert_eq!(report.committed, 300);
}

#[test]
fn simnet_sharded_smr_power_loss() {
    let mut sim = shadowdb_simnet::testing::default_net(1_501);
    let opts = sim_opts(47, NemesisProfile::PowerLoss);
    let report = soak_sharded_smr(&mut sim, &opts, 2);
    assert_eq!(report.committed, 300);
}

/// The same composition over real sockets and real files (window
/// compressed as for `tcpnet_durability_pbr_power_loss`).
#[test]
fn tcpnet_sharded_pbr_power_loss() {
    let mut net = TcpNet::builder().seeded(37).spawn();
    let mut opts = live_opts(37, NemesisProfile::PowerLoss);
    opts.duration = Duration::from_millis(300);
    opts.txns_per_client = 100;
    let report = soak_sharded_pbr(&mut net, &opts, 2);
    assert_eq!(report.committed, 200);
    net.shutdown();
}

/// Sharding × reconfiguration: two replica groups with cross-shard
/// transfers in flight while a replica of shard 0 is replaced online —
/// under PBR its *primary*, with the joiner then promoted, so the group
/// that coordinates every 2PC it takes part in ends up led from a location
/// no other shard was deployed with. Shard 1's votes and completion marks
/// must follow shard 0's configuration chain there, as the clients do; on
/// top of the reconfig assertions the 2PC steps must stay atomic. The
/// replacement and the promotion take about a second of virtual time, so
/// the workload is sized to outlast them.
fn sim_sharded_reconfig_opts(seed: u64, profile: NemesisProfile) -> ChaosOptions {
    let mut o = sim_opts(seed, profile);
    o.txns_per_client = 600;
    o
}

/// Whether a replica born mid-run executed client transactions as
/// primary. Locations are allocated in order — two groups of fifteen
/// nodes, two clients — so anything past them is a joiner.
fn a_joiner_led(report: &ChaosReport) -> bool {
    report
        .primaries
        .iter()
        .any(|(_, p)| p.index() >= 2 * 15 + 2)
}

/// `CrashDuringTransfer` kills the first joiner (mid-transfer, or while
/// it leads), then the donor.
#[test]
fn simnet_sharded_reconfig_pbr_crash_during_transfer() {
    let mut sim = shadowdb_simnet::testing::default_net(1_700);
    let opts = sim_sharded_reconfig_opts(61, NemesisProfile::CrashDuringTransfer);
    let report = soak_sharded_reconfig_pbr(&mut sim, &opts, 2);
    assert_eq!(report.committed, 1_200);
}

#[test]
fn simnet_sharded_reconfig_smr_crash_during_transfer() {
    let mut sim = shadowdb_simnet::testing::default_net(1_701);
    let opts = sim_sharded_reconfig_opts(62, NemesisProfile::CrashDuringTransfer);
    let report = soak_sharded_reconfig_smr(&mut sim, &opts, 2);
    assert_eq!(report.committed, 1_200);
}

/// The benign profile is the one where the joiner *keeps* leading: nothing
/// crashes it, so cross-shard commits flow only if shard 1 learns where
/// shard 0's primary went.
#[test]
fn simnet_sharded_reconfig_pbr_under_delay_spikes() {
    let mut sim = shadowdb_simnet::testing::default_net(1_702);
    let opts = sim_sharded_reconfig_opts(63, NemesisProfile::DelaySpikes);
    let report = soak_sharded_reconfig_pbr(&mut sim, &opts, 2);
    assert_eq!(report.committed, 1_200);
    assert!(a_joiner_led(&report), "{report:?}");
}

/// Real-runtime sizing: the window of `tcpnet_reconfig_pbr_crash_during_
/// transfer`, and enough transactions that the joiner is leading shard 0
/// with most of them still to run.
fn live_sharded_reconfig_opts(seed: u64) -> ChaosOptions {
    let mut opts = live_opts(seed, NemesisProfile::CrashDuringTransfer);
    opts.duration = Duration::from_millis(200);
    opts.txns_per_client = 1_000;
    opts
}

#[test]
fn tcpnet_sharded_reconfig_pbr_crash_during_transfer() {
    let mut net = TcpNet::builder().seeded(41).spawn();
    let report = soak_sharded_reconfig_pbr(&mut net, &live_sharded_reconfig_opts(41), 2);
    assert_eq!(report.committed, 2_000);
    net.shutdown();
}

/// Opt-in long soak: `CHAOS_SEEDS=n` sweeps seeds `0..n` across every
/// profile on the simulator — PBR, SMR, and both sharded variants (two
/// groups each) — plus the sharded power-loss, lease and reconfiguration
/// legs. Off (a no-op) by default so the tier-1 suite stays fast.
#[test]
fn long_soak_seed_sweep() {
    let n: u64 = match std::env::var("CHAOS_SEEDS") {
        Ok(v) => v.parse().expect("CHAOS_SEEDS must be an integer"),
        Err(_) => return,
    };
    for seed in 0..n {
        for (i, profile) in NemesisProfile::ALL.into_iter().enumerate() {
            let mut sim = shadowdb_simnet::testing::default_net(seed * 31 + i as u64);
            soak_pbr(&mut sim, &sim_opts(seed, profile));
            let mut sim = shadowdb_simnet::testing::default_net(seed * 37 + i as u64);
            soak_smr(&mut sim, &sim_opts(seed, profile));
            let mut sim = shadowdb_simnet::testing::default_net(seed * 41 + i as u64);
            soak_sharded_pbr(&mut sim, &sim_opts(seed, profile), 2);
            let mut sim = shadowdb_simnet::testing::default_net(seed * 43 + i as u64);
            soak_sharded_smr(&mut sim, &sim_opts(seed, profile), 2);
        }
        // `ALL` sweeps PowerLoss's plain and sharded legs above; its lease
        // and reconfiguration legs run here.
        let opts = sim_opts(seed, NemesisProfile::PowerLoss);
        // Durability × leases: the holder is what loses power.
        let mut sim = shadowdb_simnet::testing::default_net(seed * 59);
        soak_reads_smr(
            &mut sim,
            &sim_read_opts_under(seed, NemesisProfile::PowerLoss),
        );
        // Power cycles, then a reconfiguration that must count the
        // rebooted member.
        let mut sim = shadowdb_simnet::testing::default_net(seed * 71);
        soak_power_cycle_reconfig_pbr(&mut sim, &opts);
        // Sharding × reconfiguration: CrashDuringTransfer needs a harness
        // that replaces a replica, so it too sits outside `ALL`. The PBR
        // leg also runs on real sockets, where the crashes land at
        // different points of the replacement every run.
        let opts = sim_sharded_reconfig_opts(seed, NemesisProfile::CrashDuringTransfer);
        let mut sim = shadowdb_simnet::testing::default_net(seed * 61);
        soak_sharded_reconfig_pbr(&mut sim, &opts, 2);
        let mut sim = shadowdb_simnet::testing::default_net(seed * 67);
        soak_sharded_reconfig_smr(&mut sim, &opts, 2);
        let mut net = TcpNet::builder().seeded(seed).spawn();
        soak_sharded_reconfig_pbr(&mut net, &live_sharded_reconfig_opts(seed), 2);
        net.shutdown();
    }
}
