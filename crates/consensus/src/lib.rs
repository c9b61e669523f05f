//! Consensus protocols specified in the EventML combinator algebra.
//!
//! The paper's total-order broadcast service is built on two interchangeable
//! consensus modules, both specified in EventML and verified in Nuprl:
//!
//! * [`twothird`] — **TwoThird Consensus**, a leaderless, round-based, fully
//!   symmetric protocol based on the One-Third Rule algorithm of the
//!   Heard-Of model (Charron-Bost & Schiper). Simpler than Paxos; tolerates
//!   `f < n/3` crash failures and arbitrary message loss.
//! * [`synod`] — the **multi-decree Paxos Synod** protocol, structured as in
//!   *Paxos Made Moderately Complex* (replicas, leaders with scout and
//!   commander sub-roles, acceptors); tolerates a minority of crash
//!   failures among acceptors.
//!
//! All protocol state machines are Mealy descriptions
//! ([`shadowdb_eventml::patterns::Mealy`]): each role's transition is
//! written once, over typed state, and every program that runs — the
//! interpreted class, the optimizer's fused program and the compiled native
//! process — is derived from it, so there is no hand-written twin of any
//! protocol to keep in step (the all-forms bisimulation in
//! `tests/three_form_bisim.rs` checks the derivations against each other).
//! Their safety properties are checked exhaustively on small instances by
//! `shadowdb-mck` (see `tests/safety.rs`) — including the *Paxos Made Live*
//! disk-corruption scenario, where an acceptor that forgets its promises
//! breaks agreement.
//!
//! Every protocol here is **multi-instance**: messages carry an instance
//! (slot) number and each process multiplexes per-instance state, which is
//! what lets the broadcast service run one consensus per slot.

pub mod dedup;
pub mod synod;
pub mod twothird;
pub mod vmap;

pub use twothird::{TwoThird, TwoThirdConfig};

/// The decision notification every consensus module sends to its learners:
/// header [`DECIDE_HEADER`], body `<instance, value>`.
pub const DECIDE_HEADER: &str = "cs/decide";

/// Builds a decision notification body.
pub fn decide_body(instance: i64, value: &shadowdb_eventml::Value) -> shadowdb_eventml::Value {
    shadowdb_eventml::Value::pair(shadowdb_eventml::Value::Int(instance), value.clone())
}

/// Parses a decision notification, returning `(instance, value)`.
pub fn parse_decide(msg: &shadowdb_eventml::Msg) -> Option<(i64, shadowdb_eventml::Value)> {
    if msg.header != shadowdb_eventml::cached_header!(DECIDE_HEADER) {
        return None;
    }
    let (inst, value) = msg.body.fst().zip(msg.body.snd())?;
    Some((inst.as_int()?, value.clone()))
}
