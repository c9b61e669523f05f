//! The fault-injection plane: one seeded schedule, every substrate.
//!
//! The paper's claim is not that ShadowDB is fast but that it is *correct
//! under failures*: the failure detector suspects silent peers, in-flight
//! transactions abort, and the group reconfigures through total-order
//! broadcast (recovery ≈ 640 ms in Fig. 10). Exercising those paths needs
//! more than crashing whole nodes: links must drop, duplicate, delay, and
//! partition. This module defines the substrate-independent model:
//!
//! * [`LinkFault`] — what a misbehaving link does to each message
//!   (drop probability, duplication probability, added delay, reorder
//!   window).
//! * [`FaultRule`] — a fault applied to a set of links
//!   ([`LinkSel`]) during a time window `[start, end)`; `end` is the heal
//!   time.
//! * [`FaultPlan`] — a timeline of link rules plus node crash/restart
//!   events, with an embedded seed.
//! * [`Nemesis`] — expands `(seed, profile, duration)` into a
//!   [`FaultPlan`] for a concrete topology. The expansion is a pure
//!   function of its inputs, so the *same schedule bytes* replay on
//!   simnet and tcpnet.
//!
//! # Determinism, precisely
//!
//! Two layers, with different guarantees:
//!
//! 1. The **schedule** (which links fail, when, with what severity, which
//!    nodes crash/restart and when) is byte-for-byte identical for a given
//!    `(seed, profile, duration, topology)` on every substrate — it is
//!    computed here, once, by a SplitMix64 stream.
//! 2. **Per-message coin flips** (does *this* frame drop?) are a pure
//!    function of `(plan seed, link, per-link message counter)` — no RNG
//!    state is shared with the substrate. On the simulator, where message
//!    sequences are themselves deterministic, every run is bit-identical.
//!    On real threads the counter a given message draws depends on thread
//!    interleaving, so runs see statistically identical but not identical
//!    loss patterns. See DESIGN.md's fault-plane section for the full
//!    fidelity table.

use shadowdb_loe::{Loc, VTime};
use std::time::Duration;

/// SplitMix64 finalizer: the plan's only source of randomness.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What a faulty link does to each message while a rule is active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Probability a message is silently lost. `1.0` is a partition.
    pub drop_p: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_p: f64,
    /// Fixed delay added to every delivery (a congestion spike).
    pub delay: Duration,
    /// Extra per-message delay drawn uniformly from `[0, reorder_window]`.
    /// A non-zero window suspends the link's FIFO guarantee on substrates
    /// that model one (simnet), letting later sends overtake earlier ones.
    pub reorder_window: Duration,
}

impl LinkFault {
    /// A fault that does nothing (building block for struct update syntax).
    pub const NONE: LinkFault = LinkFault {
        drop_p: 0.0,
        dup_p: 0.0,
        delay: Duration::ZERO,
        reorder_window: Duration::ZERO,
    };

    /// A full cut: every message lost until heal.
    pub fn partition() -> LinkFault {
        LinkFault {
            drop_p: 1.0,
            ..LinkFault::NONE
        }
    }

    /// Loses each message with probability `p`.
    pub fn lossy(p: f64) -> LinkFault {
        LinkFault {
            drop_p: p,
            ..LinkFault::NONE
        }
    }

    /// Delivers each message twice with probability `p`.
    pub fn duplicating(p: f64) -> LinkFault {
        LinkFault {
            dup_p: p,
            ..LinkFault::NONE
        }
    }

    /// Adds `d` to every delivery.
    pub fn delayed(d: Duration) -> LinkFault {
        LinkFault {
            delay: d,
            ..LinkFault::NONE
        }
    }

    /// Jitters each delivery by up to `w`, allowing reordering.
    pub fn reordering(w: Duration) -> LinkFault {
        LinkFault {
            reorder_window: w,
            ..LinkFault::NONE
        }
    }

    /// Whether this fault severs the link outright.
    pub fn is_cut(&self) -> bool {
        self.drop_p >= 1.0
    }
}

/// Which directed links a rule applies to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinkSel {
    /// Exactly `from -> to` (asymmetric; add the mirror rule for a
    /// symmetric fault).
    Pair(Loc, Loc),
    /// Every message sent by this node (asymmetric: it can still hear).
    From(Loc),
    /// Every message sent to this node (asymmetric: it can still talk).
    To(Loc),
    /// Every link touching this node, both directions (symmetric
    /// isolation).
    Isolate(Loc),
    /// Both directions between the two groups.
    Between(Vec<Loc>, Vec<Loc>),
}

impl LinkSel {
    /// Whether the directed link `from -> to` is selected.
    pub fn matches(&self, from: Loc, to: Loc) -> bool {
        match self {
            LinkSel::Pair(f, t) => *f == from && *t == to,
            LinkSel::From(l) => *l == from,
            LinkSel::To(l) => *l == to,
            LinkSel::Isolate(l) => *l == from || *l == to,
            LinkSel::Between(a, b) => {
                (a.contains(&from) && b.contains(&to)) || (b.contains(&from) && a.contains(&to))
            }
        }
    }
}

/// One fault window: `fault` applies to `links` during `[start, end)`;
/// `end` is the heal time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// The links affected.
    pub links: LinkSel,
    /// When the fault begins.
    pub start: VTime,
    /// When the fault heals (exclusive).
    pub end: VTime,
    /// What the affected links do meanwhile.
    pub fault: LinkFault,
}

impl FaultRule {
    /// Whether this rule is in force for `from -> to` at `now`.
    pub fn active(&self, from: Loc, to: Loc, now: VTime) -> bool {
        self.start <= now && now < self.end && self.links.matches(from, to)
    }
}

/// What happens to a node at a scheduled instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// Crash-stop: volatile state lost, deliveries dropped.
    Crash,
    /// Restart from durable storage: volatile state is lost but the
    /// node's disk survives, and the process it comes back as recovers
    /// from its WAL + snapshot. Models power loss / reboot, the one way
    /// back from a crash.
    RestartDurable,
}

/// A scheduled crash or restart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeFault {
    /// When it happens.
    pub at: VTime,
    /// The victim.
    pub loc: Loc,
    /// Crash or restart.
    pub kind: NodeFaultKind,
}

/// The verdict for one message offered to the fault plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkVerdict {
    /// Deliver, possibly late and possibly twice.
    Deliver {
        /// Delay added on top of the substrate's normal link latency.
        extra_delay: Duration,
        /// Deliver a second copy (after an independent extra delay draw).
        duplicate: bool,
    },
    /// Lose the message.
    Drop {
        /// The drop came from a full cut (`drop_p >= 1`): socket
        /// substrates force-close the connection to exercise reconnect.
        severed: bool,
    },
}

impl LinkVerdict {
    /// The no-fault verdict.
    pub const CLEAN: LinkVerdict = LinkVerdict::Deliver {
        extra_delay: Duration::ZERO,
        duplicate: false,
    };
}

/// A complete fault schedule: link-fault windows plus node crash/restart
/// events, with the seed that drives per-message coin flips.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for per-message decisions (independent of the substrate RNG).
    pub seed: u64,
    /// Link-fault windows.
    pub rules: Vec<FaultRule>,
    /// Scheduled crashes and restarts.
    pub node_faults: Vec<NodeFault>,
}

impl FaultPlan {
    /// An empty plan with a seed (add rules with [`FaultPlan::with_rule`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
            node_faults: Vec::new(),
        }
    }

    /// Adds a link-fault window.
    pub fn with_rule(mut self, links: LinkSel, start: VTime, end: VTime, fault: LinkFault) -> Self {
        self.rules.push(FaultRule {
            links,
            start,
            end,
            fault,
        });
        self
    }

    /// Adds a symmetric partition isolating `loc` during `[start, end)`.
    pub fn with_isolation(self, loc: Loc, start: VTime, end: VTime) -> Self {
        self.with_rule(LinkSel::Isolate(loc), start, end, LinkFault::partition())
    }

    /// Adds a node crash at `at`.
    pub fn with_crash(mut self, at: VTime, loc: Loc) -> Self {
        self.node_faults.push(NodeFault {
            at,
            loc,
            kind: NodeFaultKind::Crash,
        });
        self
    }

    /// Adds a reboot-with-disk at `at` (see
    /// [`NodeFaultKind::RestartDurable`]).
    pub fn with_durable_restart(mut self, at: VTime, loc: Loc) -> Self {
        self.node_faults.push(NodeFault {
            at,
            loc,
            kind: NodeFaultKind::RestartDurable,
        });
        self
    }

    /// Rebases the whole schedule `by` later: every fault window and node
    /// event shifts by the same amount. A nemesis expansion is 0-based;
    /// shifting anchors it at the moment the workload actually starts —
    /// which, on a real-time runtime, is well after the clock began
    /// ticking (deployment builds in real time). The relative schedule is
    /// unchanged, so cross-substrate byte-identity is preserved.
    pub fn shifted(mut self, by: Duration) -> FaultPlan {
        for r in &mut self.rules {
            r.start += by;
            r.end += by;
        }
        for f in &mut self.node_faults {
            f.at += by;
        }
        self
    }

    /// Whether any rule touches `from -> to` at `now` (cheap pre-check so
    /// the healthy path skips the coin flips).
    pub fn active(&self, from: Loc, to: Loc, now: VTime) -> bool {
        self.rules.iter().any(|r| r.active(from, to, now))
    }

    /// Whether `from -> to` is fully cut at `now`.
    pub fn cut(&self, from: Loc, to: Loc, now: VTime) -> bool {
        self.rules
            .iter()
            .any(|r| r.active(from, to, now) && r.fault.is_cut())
    }

    /// The instant after which every link fault has healed and every node
    /// event has fired ([`VTime::ZERO`] for an empty plan).
    pub fn quiet_after(&self) -> VTime {
        let rules = self.rules.iter().map(|r| r.end);
        let nodes = self.node_faults.iter().map(|f| f.at);
        rules.chain(nodes).max().unwrap_or(VTime::ZERO)
    }

    /// Decides the fate of the `n`-th message the substrate offered for
    /// the directed link `from -> to` at time `now`.
    ///
    /// Pure: the same `(plan, from, to, now-window, n)` always returns the
    /// same verdict, independent of substrate RNG state or thread timing.
    pub fn decide(&self, from: Loc, to: Loc, now: VTime, n: u64) -> LinkVerdict {
        let mut extra = Duration::ZERO;
        let mut duplicate = false;
        let mut any = false;
        let link = ((from.index() as u64) << 32) | to.index() as u64;
        for (i, r) in self.rules.iter().enumerate() {
            if !r.active(from, to, now) {
                continue;
            }
            any = true;
            let h = mix64(
                self.seed ^ mix64(link ^ ((i as u64) << 56)) ^ mix64(n.wrapping_add(0x51_7c_c1)),
            );
            if r.fault.drop_p > 0.0 && unit(h) < r.fault.drop_p {
                return LinkVerdict::Drop {
                    severed: r.fault.is_cut(),
                };
            }
            if r.fault.dup_p > 0.0 && unit(mix64(h ^ 0xd0_b1e)) < r.fault.dup_p {
                duplicate = true;
            }
            extra += r.fault.delay;
            if !r.fault.reorder_window.is_zero() {
                let frac = unit(mix64(h ^ 0x0e_0e_0e));
                extra += Duration::from_micros(
                    (r.fault.reorder_window.as_micros() as f64 * frac) as u64,
                );
            }
        }
        if any {
            LinkVerdict::Deliver {
                extra_delay: extra,
                duplicate,
            }
        } else {
            LinkVerdict::CLEAN
        }
    }

    /// Whether the `n`-th message's verdict suspends FIFO (a reorder
    /// window is active on the link).
    pub fn reorders(&self, from: Loc, to: Loc, now: VTime) -> bool {
        self.rules
            .iter()
            .any(|r| r.active(from, to, now) && !r.fault.reorder_window.is_zero())
    }

    /// A stable fingerprint of the schedule — equal digests mean equal
    /// schedule bytes, the cross-substrate replay guarantee tests assert.
    pub fn digest(&self) -> u64 {
        let mut h = mix64(self.seed);
        let mut fold = |x: u64| h = mix64(h ^ mix64(x));
        for r in &self.rules {
            match &r.links {
                LinkSel::Pair(f, t) => {
                    fold(1);
                    fold(f.index() as u64);
                    fold(t.index() as u64);
                }
                LinkSel::From(l) => {
                    fold(2);
                    fold(l.index() as u64);
                }
                LinkSel::To(l) => {
                    fold(3);
                    fold(l.index() as u64);
                }
                LinkSel::Isolate(l) => {
                    fold(4);
                    fold(l.index() as u64);
                }
                LinkSel::Between(a, b) => {
                    fold(5);
                    for l in a.iter().chain(b) {
                        fold(l.index() as u64);
                    }
                }
            }
            fold(r.start.as_micros());
            fold(r.end.as_micros());
            fold(r.fault.drop_p.to_bits());
            fold(r.fault.dup_p.to_bits());
            fold(r.fault.delay.as_micros() as u64);
            fold(r.fault.reorder_window.as_micros() as u64);
        }
        for f in &self.node_faults {
            fold(match f.kind {
                NodeFaultKind::Crash => 6,
                // Tag 7 was the amnesiac restart's: a plan keeps its digest.
                NodeFaultKind::RestartDurable => 8,
            });
            fold(f.at.as_micros());
            fold(f.loc.index() as u64);
        }
        h
    }
}

/// The part of a deployment the nemesis needs to aim at.
#[derive(Clone, Debug)]
pub struct FaultTopology {
    /// Client locations: links to/from these tolerate loss, duplication,
    /// and reordering (clients retransmit; replicas deduplicate by cseq).
    pub clients: Vec<Loc>,
    /// Core locations (replicas and broadcast servers): inter-core links
    /// assume reliable FIFO channels, so only partitions-with-heal and
    /// delay spikes apply — matching the paper's "correct processes can
    /// eventually communicate" model, where a cut-off member is *removed*
    /// by reconfiguration rather than silently lossy.
    pub core: Vec<Loc>,
    /// The distinguished victim (the PBR primary, or any replica).
    pub victim: Loc,
    /// Per-shard replica groups of a sharded deployment, in shard order
    /// (group 0 is the 2PC coordinator group for transactions it
    /// participates in). Empty for unsharded deployments; profiles that
    /// target groups fall back to the victim when fewer than two exist.
    pub groups: Vec<Vec<Loc>>,
    /// The replica joining mid-run under online reconfiguration. A `Loc`
    /// here may exceed the deploy-time node count — plans address nodes by
    /// location, not by table index, so rules naming a not-yet-added node
    /// are valid and begin to bite the moment it exists. Profiles that
    /// target the joiner fall back to the victim when unset.
    pub joiner: Option<Loc>,
    /// The replica streaming state to the joiner (the incumbent primary).
    /// Falls back to the victim when unset.
    pub donor: Option<Loc>,
}

impl FaultTopology {
    /// All locations the nemesis may touch.
    pub fn everyone(&self) -> Vec<Loc> {
        self.clients.iter().chain(&self.core).copied().collect()
    }
}

/// Named fault scenarios a [`Nemesis`] can expand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NemesisProfile {
    /// Symmetrically cut the victim off from everyone, then heal; maybe
    /// cut again. The paper's primary-failure scenario, via partition.
    PartitionVictim,
    /// Bursts of loss + duplication + reordering on client↔core links.
    LossyClientLinks,
    /// Congestion windows adding fixed delay to inter-core links.
    DelaySpikes,
    /// Crash the victim once, no restart (the group reconfigures on).
    CrashVictim,
    /// Partition + lossy clients + a delay spike, interleaved. (A
    /// profile's discriminant seeds its schedule: 4 was a removed
    /// profile's, and every later one keeps its plans.)
    Mixed = 5,
    /// Crash the victim — pointed at a shard's primary by sharded
    /// harnesses — in the middle of the run, while cross-shard commits
    /// are in flight. The group must fail over and finish (or abort)
    /// every open 2PC from its replicated log.
    ShardPrimaryCrash,
    /// Partition the coordinator group (shard 0) from a participant
    /// group, then heal: prepared-but-undecided transactions must block,
    /// not diverge, and drain after the heal. Falls back to isolating
    /// the victim when the topology has fewer than two groups.
    CoordinatorPartition,
    /// Repeated power loss on the victim: kill it and reboot it *from
    /// its disk* ([`NodeFaultKind::RestartDurable`]) after a short
    /// outage. Down-times are drawn well below a deployment's failure
    /// detection window, so the group never reconfigures — the victim
    /// must catch up from its own WAL + snapshot plus a short network
    /// suffix, not a full state transfer. The kill lands whenever the
    /// schedule says, including mid-fsync: whatever was appended but not
    /// yet synced becomes a torn tail the recovery scan must survive. In
    /// [`NemesisProfile::ALL`]: a harness that runs it gives the
    /// deployment disks and sends each restart through its reboot.
    PowerLoss,
    /// Lease-read stress: partition the victim — pointed at the current
    /// lease holder (the PBR primary, or the rank-0 SMR claimant) — from
    /// the rest of the *core* while leaving its client links up, then
    /// heal. The deposed holder keeps receiving reads it could answer
    /// from stale state; its lease must self-expire before a successor
    /// starts serving, which the holder-interval probes and the
    /// serializability checker both verify end to end. Deliberately NOT
    /// in [`NemesisProfile::ALL`]: it only pays off against a harness
    /// that enables the read-lease fast path (without leases it is a
    /// weaker [`NemesisProfile::PartitionVictim`]).
    StalePrimaryReads,
    /// Online-reconfiguration stress: crash the *joiner* mid-transfer,
    /// and in a later, separate window crash the *donor* (the incumbent
    /// primary streaming the snapshot). The group must reconfigure past
    /// each loss without losing committed transactions. Deliberately NOT
    /// in [`NemesisProfile::ALL`]: it only makes sense against a harness
    /// that actually drives a reconfiguration (the generic soaks run
    /// static memberships, where killing two replicas of a small group
    /// wedges it by design).
    CrashDuringTransfer,
}

impl NemesisProfile {
    /// Every generic profile, for seed sweeps over static-membership
    /// deployments ([`NemesisProfile::StalePrimaryReads`] and
    /// [`NemesisProfile::CrashDuringTransfer`] are excluded — they require
    /// a lease-reading or reconfiguration-driving harness). A sweep runs
    /// [`NemesisProfile::PowerLoss`] over a durable deployment, rebooting
    /// its victim from its disk.
    pub const ALL: [NemesisProfile; 8] = [
        NemesisProfile::PartitionVictim,
        NemesisProfile::LossyClientLinks,
        NemesisProfile::DelaySpikes,
        NemesisProfile::CrashVictim,
        NemesisProfile::PowerLoss,
        NemesisProfile::Mixed,
        NemesisProfile::ShardPrimaryCrash,
        NemesisProfile::CoordinatorPartition,
    ];
}

/// A tiny deterministic stream over [`mix64`] used only for schedule
/// expansion.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform float in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + unit(self.next()) * (hi - lo)
    }

    /// A fraction of `d` drawn from `[lo, hi)` (as multiples of `d`).
    fn frac_of(&mut self, d: Duration, lo: f64, hi: f64) -> Duration {
        Duration::from_micros((d.as_micros() as f64 * self.range(lo, hi)) as u64)
    }
}

/// Expands `(seed, profile, duration)` into a [`FaultPlan`] — the same
/// triple always yields the same schedule on every substrate.
#[derive(Clone, Copy, Debug)]
pub struct Nemesis {
    /// Schedule seed (also becomes the plan's coin-flip seed).
    pub seed: u64,
    /// The scenario to expand.
    pub profile: NemesisProfile,
    /// Total window faults are drawn from; every fault heals by
    /// `0.85 * duration`, leaving the tail for post-heal convergence.
    pub duration: Duration,
}

impl Nemesis {
    /// Creates a nemesis scheduler.
    pub fn new(seed: u64, profile: NemesisProfile, duration: Duration) -> Nemesis {
        Nemesis {
            seed,
            profile,
            duration,
        }
    }

    /// Expands the schedule against a topology.
    pub fn plan(&self, topo: &FaultTopology) -> FaultPlan {
        let mut s = Stream(mix64(self.seed ^ (self.profile as u64) << 8));
        let d = self.duration;
        let mut plan = FaultPlan::new(mix64(self.seed ^ 0xfa_17));
        let start_of = |s: &mut Stream, d: Duration| VTime::ZERO + s.frac_of(d, 0.10, 0.30);
        match self.profile {
            NemesisProfile::PartitionVictim => {
                let start = start_of(&mut s, d);
                let end = start + s.frac_of(d, 0.20, 0.35);
                plan = plan.with_isolation(topo.victim, start, end);
                if s.next().is_multiple_of(2) {
                    let start2 = VTime::ZERO + s.frac_of(d, 0.55, 0.65);
                    let end2 = start2 + s.frac_of(d, 0.10, 0.18);
                    plan = plan.with_isolation(topo.victim, start2, end2);
                }
            }
            NemesisProfile::LossyClientLinks => {
                let bursts = 2 + s.next() % 3;
                for _ in 0..bursts {
                    let start = VTime::ZERO + s.frac_of(d, 0.05, 0.60);
                    let end = start + s.frac_of(d, 0.08, 0.22);
                    let fault = LinkFault {
                        drop_p: s.range(0.05, 0.30),
                        dup_p: s.range(0.05, 0.30),
                        delay: Duration::ZERO,
                        reorder_window: Duration::from_micros((d.as_micros() as f64 * 0.01) as u64),
                    };
                    plan = plan.with_rule(
                        LinkSel::Between(topo.clients.clone(), topo.core.clone()),
                        start,
                        end,
                        fault,
                    );
                }
            }
            NemesisProfile::DelaySpikes => {
                let spikes = 1 + s.next() % 3;
                for _ in 0..spikes {
                    let start = VTime::ZERO + s.frac_of(d, 0.05, 0.60);
                    let end = start + s.frac_of(d, 0.05, 0.20);
                    let delay = s.frac_of(d, 0.002, 0.02);
                    plan = plan.with_rule(
                        LinkSel::Between(topo.core.clone(), topo.core.clone()),
                        start,
                        end,
                        LinkFault::delayed(delay),
                    );
                }
            }
            NemesisProfile::CrashVictim => {
                plan = plan.with_crash(VTime::ZERO + s.frac_of(d, 0.15, 0.40), topo.victim);
            }
            NemesisProfile::ShardPrimaryCrash => {
                // Later than CrashVictim's window: the workload is in full
                // swing and cross-shard transactions are mid-protocol.
                plan = plan.with_crash(VTime::ZERO + s.frac_of(d, 0.25, 0.50), topo.victim);
            }
            NemesisProfile::CoordinatorPartition => {
                let start = start_of(&mut s, d);
                let end = start + s.frac_of(d, 0.15, 0.30);
                if topo.groups.len() >= 2 {
                    plan = plan.with_rule(
                        LinkSel::Between(topo.groups[0].clone(), topo.groups[1].clone()),
                        start,
                        end,
                        LinkFault::partition(),
                    );
                } else {
                    plan = plan.with_isolation(topo.victim, start, end);
                }
            }
            NemesisProfile::PowerLoss => {
                // Short outages: well under any sane failure-detection
                // window (the chaos harness floors detection at 10% of
                // the run), so membership never changes and the rebooted
                // replica must rejoin the *same* group from its disk.
                let rounds = 2 + s.next() % 2;
                let deadline = VTime::ZERO + d.mul_f64(0.80);
                let mut at = start_of(&mut s, d);
                for _ in 0..rounds {
                    let down = s.frac_of(d, 0.01, 0.04);
                    if at + down > deadline {
                        break;
                    }
                    plan = plan.with_crash(at, topo.victim);
                    plan = plan.with_durable_restart(at + down, topo.victim);
                    at = at + down + s.frac_of(d, 0.08, 0.15);
                }
            }
            NemesisProfile::StalePrimaryReads => {
                // Cut the holder off from every other core node — but not
                // from the clients, whose reads keep arriving at a node
                // whose lease is quietly running out. Heal, then cut once
                // more after the successor has settled in.
                let others: Vec<Loc> = topo
                    .core
                    .iter()
                    .copied()
                    .filter(|l| *l != topo.victim)
                    .collect();
                let start = start_of(&mut s, d);
                let end = start + s.frac_of(d, 0.20, 0.30);
                plan = plan.with_rule(
                    LinkSel::Between(vec![topo.victim], others.clone()),
                    start,
                    end,
                    LinkFault::partition(),
                );
                if s.next().is_multiple_of(2) {
                    let start2 = VTime::ZERO + s.frac_of(d, 0.60, 0.68);
                    let end2 = start2 + s.frac_of(d, 0.08, 0.15);
                    plan = plan.with_rule(
                        LinkSel::Between(vec![topo.victim], others),
                        start2,
                        end2,
                        LinkFault::partition(),
                    );
                }
            }
            NemesisProfile::CrashDuringTransfer => {
                // The reconfig harness starts its replace early (≈0.10 of
                // the window); the snapshot stream is in flight shortly
                // after. Two separate incidents: first the joiner dies
                // mid-stream (the group must abandon it and re-replace),
                // then — once a second transfer is underway — the donor
                // dies (a surviving member must take over and re-stream).
                let joiner = topo.joiner.unwrap_or(topo.victim);
                let donor = topo.donor.unwrap_or(topo.victim);
                plan = plan.with_crash(VTime::ZERO + s.frac_of(d, 0.15, 0.30), joiner);
                plan = plan.with_crash(VTime::ZERO + s.frac_of(d, 0.55, 0.75), donor);
            }
            NemesisProfile::Mixed => {
                let start = start_of(&mut s, d);
                let end = start + s.frac_of(d, 0.15, 0.25);
                plan = plan.with_isolation(topo.victim, start, end);
                let lstart = VTime::ZERO + s.frac_of(d, 0.40, 0.55);
                let lend = lstart + s.frac_of(d, 0.10, 0.20);
                plan = plan.with_rule(
                    LinkSel::Between(topo.clients.clone(), topo.core.clone()),
                    lstart,
                    lend,
                    LinkFault {
                        drop_p: s.range(0.05, 0.20),
                        dup_p: s.range(0.05, 0.20),
                        delay: Duration::ZERO,
                        reorder_window: Duration::from_micros((d.as_micros() as f64 * 0.01) as u64),
                    },
                );
                let dstart = VTime::ZERO + s.frac_of(d, 0.10, 0.50);
                plan = plan.with_rule(
                    LinkSel::Between(topo.core.clone(), topo.core.clone()),
                    dstart,
                    dstart + s.frac_of(d, 0.05, 0.15),
                    LinkFault::delayed(s.frac_of(d, 0.002, 0.01)),
                );
            }
        }
        debug_assert!(plan
            .rules
            .iter()
            .all(|r| r.end <= VTime::ZERO + d.mul_f64(0.86)));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopology {
        FaultTopology {
            clients: vec![Loc::new(0), Loc::new(1)],
            core: vec![Loc::new(2), Loc::new(3), Loc::new(4)],
            victim: Loc::new(2),
            groups: Vec::new(),
            joiner: None,
            donor: None,
        }
    }

    fn sharded_topo() -> FaultTopology {
        FaultTopology {
            clients: vec![Loc::new(8), Loc::new(9)],
            core: (0..8).map(Loc::new).collect(),
            victim: Loc::new(2),
            groups: vec![
                vec![Loc::new(2), Loc::new(3)],
                vec![Loc::new(6), Loc::new(7)],
            ],
            joiner: None,
            donor: None,
        }
    }

    #[test]
    fn same_triple_same_schedule_bytes() {
        for profile in NemesisProfile::ALL {
            let a = Nemesis::new(42, profile, Duration::from_secs(10)).plan(&topo());
            let b = Nemesis::new(42, profile, Duration::from_secs(10)).plan(&topo());
            assert_eq!(a, b);
            assert_eq!(a.digest(), b.digest());
        }
    }

    /// Naming an unsharded deployment's one group changes no plan: only
    /// `CoordinatorPartition` reads `groups`, and it needs two of them.
    #[test]
    fn one_group_plans_as_no_groups() {
        let profiles = NemesisProfile::ALL.into_iter().chain([
            NemesisProfile::StalePrimaryReads,
            NemesisProfile::CrashDuringTransfer,
        ]);
        let one = FaultTopology {
            groups: vec![topo().core],
            ..topo()
        };
        for profile in profiles {
            for seed in 0..16 {
                let nemesis = Nemesis::new(seed, profile, Duration::from_secs(2));
                assert_eq!(nemesis.plan(&topo()), nemesis.plan(&one), "{profile:?}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a =
            Nemesis::new(1, NemesisProfile::PartitionVictim, Duration::from_secs(10)).plan(&topo());
        let b =
            Nemesis::new(2, NemesisProfile::PartitionVictim, Duration::from_secs(10)).plan(&topo());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn partition_cuts_both_directions_then_heals() {
        let plan =
            FaultPlan::new(7).with_isolation(Loc::new(2), VTime::from_secs(1), VTime::from_secs(2));
        let inside = VTime::from_millis(1_500);
        assert!(plan.cut(Loc::new(2), Loc::new(3), inside));
        assert!(plan.cut(Loc::new(3), Loc::new(2), inside));
        assert!(matches!(
            plan.decide(Loc::new(2), Loc::new(3), inside, 0),
            LinkVerdict::Drop { severed: true }
        ));
        // Unrelated link untouched, and the healthy pre-check is cheap.
        assert!(!plan.active(Loc::new(3), Loc::new(4), inside));
        assert_eq!(
            plan.decide(Loc::new(3), Loc::new(4), inside, 0),
            LinkVerdict::CLEAN
        );
        // Healed.
        let after = VTime::from_secs(2);
        assert!(!plan.cut(Loc::new(2), Loc::new(3), after));
        assert_eq!(
            plan.decide(Loc::new(2), Loc::new(3), after, 9),
            LinkVerdict::CLEAN
        );
        assert_eq!(plan.quiet_after(), VTime::from_secs(2));
    }

    #[test]
    fn decide_is_pure_and_counter_sensitive() {
        let plan = FaultPlan::new(3).with_rule(
            LinkSel::Pair(Loc::new(0), Loc::new(1)),
            VTime::ZERO,
            VTime::from_secs(1),
            LinkFault::lossy(0.5),
        );
        let now = VTime::from_millis(10);
        let verdicts: Vec<_> = (0..64)
            .map(|n| plan.decide(Loc::new(0), Loc::new(1), now, n))
            .collect();
        assert_eq!(
            verdicts,
            (0..64)
                .map(|n| plan.decide(Loc::new(0), Loc::new(1), now, n))
                .collect::<Vec<_>>()
        );
        let drops = verdicts
            .iter()
            .filter(|v| matches!(v, LinkVerdict::Drop { .. }))
            .count();
        assert!(drops > 10 && drops < 54, "drops={drops}");
        // A 50% loss rule never reports itself as a severed cut.
        assert!(verdicts
            .iter()
            .all(|v| !matches!(v, LinkVerdict::Drop { severed: true })));
    }

    #[test]
    fn duplication_and_delay_compose() {
        let plan = FaultPlan::new(5)
            .with_rule(
                LinkSel::From(Loc::new(0)),
                VTime::ZERO,
                VTime::from_secs(1),
                LinkFault::duplicating(1.0),
            )
            .with_rule(
                LinkSel::To(Loc::new(1)),
                VTime::ZERO,
                VTime::from_secs(1),
                LinkFault::delayed(Duration::from_millis(2)),
            );
        match plan.decide(Loc::new(0), Loc::new(1), VTime::ZERO, 0) {
            LinkVerdict::Deliver {
                extra_delay,
                duplicate,
            } => {
                assert!(duplicate);
                assert_eq!(extra_delay, Duration::from_millis(2));
            }
            v => panic!("unexpected verdict {v:?}"),
        }
    }

    #[test]
    fn reorder_window_flags_fifo_suspension() {
        let plan = FaultPlan::new(11).with_rule(
            LinkSel::Pair(Loc::new(0), Loc::new(1)),
            VTime::ZERO,
            VTime::from_secs(1),
            LinkFault::reordering(Duration::from_millis(4)),
        );
        assert!(plan.reorders(Loc::new(0), Loc::new(1), VTime::from_millis(5)));
        assert!(!plan.reorders(Loc::new(1), Loc::new(0), VTime::from_millis(5)));
        assert!(!plan.reorders(Loc::new(0), Loc::new(1), VTime::from_secs(1)));
        // Draws land inside the window.
        for n in 0..32 {
            if let LinkVerdict::Deliver { extra_delay, .. } =
                plan.decide(Loc::new(0), Loc::new(1), VTime::ZERO, n)
            {
                assert!(extra_delay <= Duration::from_millis(4));
            }
        }
    }

    #[test]
    fn nemesis_heals_before_the_tail() {
        for profile in NemesisProfile::ALL {
            for seed in 0..20 {
                let d = Duration::from_secs(8);
                let plan = Nemesis::new(seed, profile, d).plan(&topo());
                assert!(
                    plan.quiet_after() <= VTime::ZERO + d.mul_f64(0.86),
                    "{profile:?}/{seed} quiet_after={:?}",
                    plan.quiet_after()
                );
            }
        }
    }

    #[test]
    fn coordinator_partition_cuts_cross_group_links_only() {
        for seed in 0..10 {
            let plan = Nemesis::new(
                seed,
                NemesisProfile::CoordinatorPartition,
                Duration::from_secs(10),
            )
            .plan(&sharded_topo());
            assert_eq!(plan.rules.len(), 1);
            let mid = plan.rules[0].start + (plan.rules[0].end - plan.rules[0].start) / 2;
            // Coordinator group ↔ participant group: cut, both ways.
            assert!(plan.cut(Loc::new(2), Loc::new(6), mid));
            assert!(plan.cut(Loc::new(7), Loc::new(3), mid));
            // Intra-group and client links stay up.
            assert!(!plan.active(Loc::new(2), Loc::new(3), mid));
            assert!(!plan.active(Loc::new(8), Loc::new(2), mid));
            assert!(!plan.active(Loc::new(8), Loc::new(6), mid));
        }
    }

    #[test]
    fn coordinator_partition_falls_back_to_victim_isolation() {
        let plan = Nemesis::new(
            3,
            NemesisProfile::CoordinatorPartition,
            Duration::from_secs(10),
        )
        .plan(&topo());
        assert_eq!(plan.rules.len(), 1);
        let mid = plan.rules[0].start + (plan.rules[0].end - plan.rules[0].start) / 2;
        assert!(plan.cut(Loc::new(2), Loc::new(3), mid));
        assert!(plan.cut(Loc::new(3), Loc::new(2), mid));
    }

    #[test]
    fn shard_primary_crash_fires_mid_run() {
        for seed in 0..10 {
            let d = Duration::from_secs(10);
            let plan =
                Nemesis::new(seed, NemesisProfile::ShardPrimaryCrash, d).plan(&sharded_topo());
            assert_eq!(plan.node_faults.len(), 1);
            let f = plan.node_faults[0];
            assert_eq!(f.loc, Loc::new(2));
            assert_eq!(f.kind, NodeFaultKind::Crash);
            assert!(f.at >= VTime::ZERO + d.mul_f64(0.25));
            assert!(f.at <= VTime::ZERO + d.mul_f64(0.50));
        }
    }

    #[test]
    fn power_loss_reboots_from_disk_with_short_outages() {
        for seed in 0..20 {
            let d = Duration::from_secs(10);
            let plan = Nemesis::new(seed, NemesisProfile::PowerLoss, d).plan(&topo());
            assert!(plan.rules.is_empty());
            assert!(plan.node_faults.len() >= 2, "at least one full round");
            assert!(plan.node_faults.len().is_multiple_of(2));
            for pair in plan.node_faults.chunks(2) {
                let (kill, boot) = (pair[0], pair[1]);
                assert_eq!(kill.kind, NodeFaultKind::Crash);
                assert_eq!(boot.kind, NodeFaultKind::RestartDurable);
                assert_eq!(kill.loc, Loc::new(2));
                assert_eq!(boot.loc, Loc::new(2));
                // Outage stays below the chaos detection floor (10% of d).
                assert!(boot.at - kill.at < d.mul_f64(0.05));
            }
            assert!(plan.quiet_after() <= VTime::ZERO + d.mul_f64(0.85));
        }
    }

    /// Digests are stable: a power-loss and a crash plan keep these.
    #[test]
    fn plans_keep_their_digests() {
        let digest = |profile| {
            let nemesis = Nemesis::new(42, profile, Duration::from_secs(10));
            nemesis.plan(&topo()).digest()
        };
        assert_eq!(digest(NemesisProfile::PowerLoss), 0x89f1_53dd_5029_e41a);
        assert_eq!(digest(NemesisProfile::CrashVictim), 0xc482_68a0_4ab8_f0b6);
    }

    #[test]
    fn crash_during_transfer_hits_joiner_then_donor() {
        let mut t = topo();
        // The joiner does not exist at deploy time: its location is past
        // every deploy-time node. Plans address by location, so the
        // schedule is still expressible and deterministic.
        t.joiner = Some(Loc::new(9));
        t.donor = Some(Loc::new(2));
        for seed in 0..10 {
            let d = Duration::from_secs(10);
            let plan = Nemesis::new(seed, NemesisProfile::CrashDuringTransfer, d).plan(&t);
            assert_eq!(plan.node_faults.len(), 2);
            let (j, dn) = (plan.node_faults[0], plan.node_faults[1]);
            assert_eq!(j.loc, Loc::new(9));
            assert_eq!(dn.loc, Loc::new(2));
            assert!(j.at < dn.at, "joiner dies in the earlier window");
            assert!(dn.at <= VTime::ZERO + d.mul_f64(0.75));
        }
        // Without explicit targets the profile degrades to the victim.
        let fallback = Nemesis::new(
            1,
            NemesisProfile::CrashDuringTransfer,
            Duration::from_secs(10),
        )
        .plan(&topo());
        assert!(fallback.node_faults.iter().all(|f| f.loc == Loc::new(2)));
    }

    #[test]
    fn rules_may_name_locations_beyond_the_deployed_table() {
        // Regression: fault rules survive membership change. A rule naming
        // a location that does not exist yet must be constructible,
        // digestable, and must select the link once the node appears.
        let late = Loc::new(77);
        let plan = FaultPlan::new(13).with_isolation(late, VTime::ZERO, VTime::from_secs(1));
        assert!(plan.cut(late, Loc::new(0), VTime::from_millis(1)));
        assert!(plan.cut(Loc::new(0), late, VTime::from_millis(1)));
        let _ = plan.digest();
    }

    #[test]
    fn lossy_profile_spares_core_links() {
        for seed in 0..10 {
            let plan = Nemesis::new(
                seed,
                NemesisProfile::LossyClientLinks,
                Duration::from_secs(10),
            )
            .plan(&topo());
            for r in &plan.rules {
                // Inter-core links keep their reliable-FIFO assumption.
                assert!(!r.links.matches(Loc::new(2), Loc::new(3)));
                assert!(r.links.matches(Loc::new(0), Loc::new(2)));
                assert!(r.links.matches(Loc::new(2), Loc::new(0)));
            }
        }
    }
}
