//! The total-order broadcast (TOB) service.
//!
//! The paper's central verified artifact: "a total order broadcast service
//! that … guarantees that the participating processes deliver the same
//! messages and in the same order", built modularly on interchangeable
//! consensus modules (TwoThird Consensus or multi-decree Paxos Synod) and
//! implementing **batching** — "multiple messages can be bundled in one
//! Paxos proposal" (Sec. IV-A).
//!
//! * [`service`] — the broadcast-service specification (an EventML Mealy
//!   machine, sized in Table I) run by each TOB server: it deduplicates
//!   client submissions, bundles them into batches, hands batches to its
//!   consensus backend, and delivers decided batches in slot order to all
//!   subscribers.
//! * [`client`] — a closed-loop client process with timeout/resend, used by
//!   the benchmarks and by ShadowDB.
//! * [`deploy`] — helpers that assemble a full deployment (servers plus
//!   consensus roles, co-located per machine as in the paper's testbed)
//!   inside a `shadowdb-simnet` simulation.
//! * [`mode`] — the three execution backends of Fig. 8 (SML-interpreted,
//!   interpreter + optimizer, Lisp-compiled), reproduced as the choice of
//!   program derived from each protocol's one description (interpreted vs
//!   fused vs lowered to a native process over typed state) plus a
//!   calibrated per-message CPU cost.

pub mod client;
pub mod deploy;
pub mod mode;
pub mod service;
pub mod subscriber;

pub use client::{ClientStats, TobClient};
pub use deploy::{TobDeployment, TobOptions};
pub use mode::ExecutionMode;
pub use service::{Backend, TobConfig};
pub use subscriber::InOrderBuffer;

/// Header of a client submission to a TOB server:
/// body `<client, <msgid, payload>>`.
pub const BROADCAST_HEADER: &str = "tob/broadcast";

/// Header of a delivery notification to subscribers:
/// body `<seq, <client, <msgid, payload>>>`.
pub const DELIVER_HEADER: &str = "tob/deliver";

/// Header of a dynamic-subscription request to a TOB server:
/// body `<subscriber>`. The server adds the location to its delivery
/// fan-out and answers with [`SUBOK_HEADER`]. Reconfiguration uses this to
/// wire a joining replica into the broadcast service at runtime — the
/// deploy-time subscriber list stays frozen, dynamic subscribers ride in
/// the server's replicated state.
pub const SUBSCRIBE_HEADER: &str = "tob/sub";

/// Header of an un-subscription request: body `<subscriber>`. Removes a
/// dynamic subscriber (deploy-time subscribers cannot be removed).
pub const UNSUBSCRIBE_HEADER: &str = "tob/unsub";

/// Header of the subscription acknowledgement, sent to the new
/// subscriber: body `<next_seq>` — the global sequence number of the
/// first delivery the subscriber will receive from this server.
pub const SUBOK_HEADER: &str = "tob/subok";

use shadowdb_eventml::{cached_header, Msg, Value};
use shadowdb_loe::Loc;

/// Builds a broadcast submission.
pub fn broadcast_msg(client: Loc, msgid: i64, payload: Value) -> Msg {
    Msg::new(
        cached_header!(BROADCAST_HEADER),
        Value::pair(Value::Loc(client), Value::pair(Value::Int(msgid), payload)),
    )
}

/// Builds a dynamic-subscription request.
pub fn subscribe_msg(subscriber: Loc) -> Msg {
    Msg::new(cached_header!(SUBSCRIBE_HEADER), Value::Loc(subscriber))
}

/// Builds an un-subscription request.
pub fn unsubscribe_msg(subscriber: Loc) -> Msg {
    Msg::new(cached_header!(UNSUBSCRIBE_HEADER), Value::Loc(subscriber))
}

/// Parses a subscription acknowledgement; returns the next delivery seq.
pub fn parse_subok(msg: &Msg) -> Option<i64> {
    if msg.header != cached_header!(SUBOK_HEADER) {
        return None;
    }
    msg.body.as_int()
}

/// A delivery notification, decoded.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Delivery {
    /// Global delivery sequence number (gapless, identical at every
    /// subscriber).
    pub seq: i64,
    /// The client that broadcast the message.
    pub client: Loc,
    /// The client's message id.
    pub msgid: i64,
    /// The payload.
    pub payload: Value,
}

/// Parses a delivery notification.
pub fn parse_deliver(msg: &Msg) -> Option<Delivery> {
    if msg.header != cached_header!(DELIVER_HEADER) {
        return None;
    }
    let (seq, rest) = msg.body.fst().zip(msg.body.snd())?;
    let (client, rest) = rest.fst().zip(rest.snd())?;
    let (msgid, payload) = rest.fst().zip(rest.snd())?;
    Some(Delivery {
        seq: seq.as_int()?,
        client: client.as_loc()?,
        msgid: msgid.as_int()?,
        payload: payload.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_and_deliver_shapes() {
        let m = broadcast_msg(Loc::new(9), 3, Value::str("x"));
        assert_eq!(m.header.name(), BROADCAST_HEADER);
        let d = Msg::new(
            cached_header!(DELIVER_HEADER),
            Value::pair(
                Value::Int(0),
                Value::pair(
                    Value::Loc(Loc::new(9)),
                    Value::pair(Value::Int(3), Value::str("x")),
                ),
            ),
        );
        assert_eq!(
            parse_deliver(&d),
            Some(Delivery {
                seq: 0,
                client: Loc::new(9),
                msgid: 3,
                payload: Value::str("x")
            })
        );
        assert_eq!(parse_deliver(&m), None);
    }
}
