//! Network models: latency, loss, and the fault plane.
//!
//! Links are FIFO and (by default) reliable, matching the paper's system
//! model: "The participants communicate over TCP channels, and we assume
//! that correct processes can eventually communicate with one another."
//! Faults — partitions with heal times, lossy windows, duplication, delay
//! spikes, reordering — come from the substrate-independent
//! [`FaultPlan`] (`shadowdb_runtime::fault`), so the same seeded schedule
//! that runs here replays on tcpnet. Protocols that assume
//! reliable channels are only exercised under crash faults and
//! partitions-with-heal.

use rand::rngs::SmallRng;
use rand::Rng;
use shadowdb_loe::{Loc, VTime};
use std::time::Duration;

pub use shadowdb_runtime::fault::{FaultPlan, FaultRule, LinkFault, LinkSel, LinkVerdict};

/// A point-to-point latency model.
#[derive(Clone, Debug)]
pub enum Latency {
    /// Every link takes exactly this long.
    Fixed(Duration),
    /// `base` plus a uniformly random jitter in `[0, jitter]`.
    Jittered {
        /// Minimum one-way latency.
        base: Duration,
        /// Maximum additional random delay.
        jitter: Duration,
    },
}

impl Latency {
    /// Samples the one-way latency for a message on `(from, to)`.
    pub fn sample(&self, _from: Loc, _to: Loc, rng: &mut SmallRng) -> Duration {
        match self {
            Latency::Fixed(d) => *d,
            Latency::Jittered { base, jitter } => {
                if jitter.is_zero() {
                    *base
                } else {
                    *base + Duration::from_micros(rng.gen_range(0..=jitter.as_micros() as u64))
                }
            }
        }
    }
}

/// The complete network configuration of a simulation.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Latency model for messages between distinct nodes. Self-sends are
    /// local (no network) and only incur their explicit delay.
    pub latency: Latency,
    /// Probability that a message between distinct nodes is silently lost,
    /// independent of any fault plan. Keep 0.0 for protocols that assume
    /// TCP.
    pub drop_probability: f64,
    /// The initial fault schedule (partitions, lossy windows, duplication,
    /// delay spikes). Replaceable later via
    /// `Runtime::install_fault_plan`.
    pub faults: FaultPlan,
}

impl NetworkConfig {
    /// A switched-gigabit LAN like the paper's testbed: ~100 µs one-way
    /// latency with 30 µs of jitter, no loss.
    pub fn lan() -> NetworkConfig {
        NetworkConfig {
            latency: Latency::Jittered {
                base: Duration::from_micros(100),
                jitter: Duration::from_micros(30),
            },
            drop_probability: 0.0,
            faults: FaultPlan::default(),
        }
    }

    /// An idealized instant network (for logic-only tests).
    pub fn instant() -> NetworkConfig {
        NetworkConfig {
            latency: Latency::Fixed(Duration::ZERO),
            drop_probability: 0.0,
            faults: FaultPlan::default(),
        }
    }

    /// Adds a bidirectional partition between two nodes during a window
    /// (sugar over two [`FaultRule`]s in the fault plan).
    pub fn partition_pair(mut self, a: Loc, b: Loc, start: VTime, end: VTime) -> NetworkConfig {
        self.faults = self
            .faults
            .with_rule(LinkSel::Pair(a, b), start, end, LinkFault::partition())
            .with_rule(LinkSel::Pair(b, a), start, end, LinkFault::partition());
        self
    }

    /// Whether a message from `from` to `to` is lost to background random
    /// loss (fault-plan drops are decided by the simulation, which owns
    /// the per-link counters).
    pub fn drops(&self, _from: Loc, _to: Loc, rng: &mut SmallRng) -> bool {
        self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability)
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn fixed_latency_is_fixed() {
        let l = Latency::Fixed(Duration::from_micros(50));
        assert_eq!(
            l.sample(Loc::new(0), Loc::new(1), &mut rng()),
            Duration::from_micros(50)
        );
    }

    #[test]
    fn jitter_stays_in_range() {
        let l = Latency::Jittered {
            base: Duration::from_micros(100),
            jitter: Duration::from_micros(30),
        };
        let mut r = rng();
        for _ in 0..100 {
            let d = l.sample(Loc::new(0), Loc::new(1), &mut r);
            assert!(d >= Duration::from_micros(100) && d <= Duration::from_micros(130));
        }
    }

    #[test]
    fn partition_pair_cuts_both_directions_within_window_only() {
        let net = NetworkConfig::instant().partition_pair(
            Loc::new(0),
            Loc::new(1),
            VTime::from_secs(1),
            VTime::from_secs(2),
        );
        let cut = |f: u32, t: u32, now: VTime| net.faults.cut(Loc::new(f), Loc::new(t), now);
        assert!(!cut(0, 1, VTime::from_millis(500)));
        assert!(cut(0, 1, VTime::from_millis(1500)));
        assert!(cut(1, 0, VTime::from_millis(1500)));
        assert!(!cut(0, 1, VTime::from_secs(2)));
        // Unrelated pair unaffected.
        assert!(!cut(0, 2, VTime::from_millis(1500)));
    }

    #[test]
    fn drop_probability_drops_sometimes() {
        let mut net = NetworkConfig::instant();
        net.drop_probability = 0.5;
        let mut r = rng();
        let drops = (0..200)
            .filter(|_| net.drops(Loc::new(0), Loc::new(1), &mut r))
            .count();
        assert!(drops > 50 && drops < 150, "drops={drops}");
    }
}
