//! A deterministic discrete-event simulator for GPM processes.
//!
//! The paper evaluates its protocols on a cluster of quad-core 3.6 GHz Xeons
//! connected by a gigabit switch. This crate is the substitute testbed: a
//! virtual-time world hosting [`shadowdb_eventml::Process`] nodes, with
//!
//! * a network model (per-link latency, FIFO links as over TCP, optional
//!   message loss and partitions),
//! * a CPU model (each message handled at a node occupies that node for a
//!   configurable service time — this is what makes protocols *CPU-bound*
//!   at saturation, the regime the paper reports for the broadcast service),
//! * crash and restart injection, and
//! * optional trace capture as a [`shadowdb_loe::EventOrder`], connecting
//!   executions back to the Logic of Events for property checking.
//!
//! Runs are deterministic given a seed, which is what makes failure
//! scenarios reproducible and model checking (see `shadowdb-mck`) possible.
//!
//! # Example
//!
//! ```
//! use shadowdb_eventml::{Ctx, FnProcess, Msg, SendInstr, Value};
//! use shadowdb_loe::{Loc, VTime};
//! use shadowdb_simnet::{NetworkConfig, SimBuilder};
//!
//! // A node that echoes every "ping" back to its sender.
//! let echo = FnProcess::new((), |_s, _ctx: &Ctx, msg: &Msg| {
//!     match (msg.header.name(), msg.body.as_loc()) {
//!         ("ping", Some(from)) => vec![SendInstr::now(from, Msg::new("pong", Value::Unit))],
//!         _ => vec![],
//!     }
//! });
//! let pongs = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
//! let p2 = pongs.clone();
//! let counter = FnProcess::new((), move |_s, _ctx: &Ctx, msg: &Msg| {
//!     if msg.header.name() == "pong" {
//!         p2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!     }
//!     vec![]
//! });
//!
//! let mut sim = SimBuilder::new(7)
//!     .network(NetworkConfig::lan())
//!     .build();
//! let server = sim.add_node(Box::new(echo));
//! let client = sim.add_node(Box::new(counter));
//! sim.send_at(VTime::ZERO, server, Msg::new("ping", Value::Loc(client)));
//! sim.run_until_quiescent(VTime::from_secs(1));
//! assert_eq!(pongs.load(std::sync::atomic::Ordering::Relaxed), 1);
//! ```

pub mod net;
pub mod sim;
pub mod testing;

pub use net::{Latency, NetworkConfig};
pub use sim::{SimBuilder, SimStats, Simulation};
