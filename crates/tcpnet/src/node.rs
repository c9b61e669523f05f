//! The per-node host state a shard event loop steps in place: the hosted
//! process, its self-send inbox, and how it reaches each destination.
//! Unlike the old thread-per-node runtime there is no node thread —
//! delivering a decoded frame, firing a timer, handing a message to a
//! machine-mate and flushing a link all happen inline on the owning
//! shard's loop.

use crate::link::{OutLink, PENDING_CAP};
use shadowdb_eventml::{FrameEncoder, Msg, Process};
use shadowdb_loe::Loc;
use std::collections::{HashMap, VecDeque};

/// One hosted process and everything that dies with it on crash: volatile
/// state, the self-send inbox, and the paths to its peers with whatever
/// they hold. Pending timers are invalidated through `epoch` — entries
/// armed by a previous incarnation never fire into a restarted process.
pub struct NodeHost {
    /// The host's own location.
    pub slf: Loc,
    /// The host's machine (see `Registry::machine_of`).
    pub machine: u32,
    /// Incarnation number: bumped on every (re)start, checked by timers.
    pub epoch: u64,
    /// The hosted process.
    pub process: Box<dyn Process>,
    /// Zero-delay self-sends and messages from machine-mates, drained by
    /// the shard loop between polls.
    pub inbox: VecDeque<Msg>,
    /// How the host reaches each destination it has sent to.
    pub peers: HashMap<u32, Peer>,
    /// Per-host scratch encoder: steady-state sends allocate nothing.
    pub enc: FrameEncoder,
}

impl NodeHost {
    /// A fresh incarnation of `process` at `slf` on `machine`.
    pub fn new(slf: Loc, machine: u32, epoch: u64, process: Box<dyn Process>) -> NodeHost {
        NodeHost {
            slf,
            machine,
            epoch,
            process,
            inbox: VecDeque::new(),
            peers: HashMap::new(),
            enc: FrameEncoder::new(),
        }
    }

    /// The socket link to `dest`, if the host reaches it over one.
    pub fn link_mut(&mut self, dest: u32) -> Option<&mut OutLink> {
        match self.peers.get_mut(&dest).map(|p| &mut p.path) {
            Some(Path::Link(link)) => Some(link),
            _ => None,
        }
    }
}

/// How a host reaches one destination. The path is settled on the first
/// send and kept for the incarnation, so a pair of locations always takes
/// the same one and stays FIFO.
pub struct Peer {
    /// The `n` fed to `FaultPlan::decide`, making the coin sequence
    /// deterministic per (sender, dest) pair whichever the path.
    pub fault_seq: u64,
    /// Where the pair's messages go.
    pub path: Path,
}

/// The two ways out of a host.
pub enum Path {
    /// Another location of the host's machine: messages go straight into
    /// its inbox. A cut holds them here, in order, until heal.
    Mate(VecDeque<Msg>),
    /// Any other location: a socket link.
    Link(OutLink),
}

impl Peer {
    /// A path to a machine-mate (`mate`) or over a fresh link.
    pub fn new(mate: bool) -> Peer {
        Peer {
            fault_seq: 0,
            path: if mate {
                Path::Mate(VecDeque::new())
            } else {
                Path::Link(OutLink::new())
            },
        }
    }

    /// Whether messages wait here for a flush or a heal.
    pub fn pending(&self) -> bool {
        match &self.path {
            Path::Mate(held) => !held.is_empty(),
            Path::Link(link) => !link.queue.is_empty(),
        }
    }
}

/// Holds `msg` for a cut machine-mate, bounded like a link's pending
/// queue: at [`PENDING_CAP`] the oldest is evicted. Returns whether one
/// was (the caller counts it as dropped).
pub fn hold(held: &mut VecDeque<Msg>, msg: Msg) -> bool {
    let evicted = held.len() >= PENDING_CAP && held.pop_front().is_some();
    held.push_back(msg);
    evicted
}
