//! The broadcast-service specification.
//!
//! One TOB server runs at each service machine. The server deduplicates
//! client submissions (per-client message ids, the paper's "sequence number
//! of the last transaction submitted by each client"), bundles pending
//! messages into a **batch**, and hands the batch to its consensus backend:
//!
//! * **TwoThird** — the server picks the lowest undecided instance and
//!   proposes there; losing a slot race re-queues the batch;
//! * **Paxos** — the server submits the batch as a command to its
//!   co-located Synod replica, which owns slot assignment and re-proposal.
//!
//! The server keeps up to [`TobConfig::window`] proposals in flight at
//! once (the paper's Paxos decides many slots concurrently, à la *Paxos
//! Made Moderately Complex*): while one batch is waiting on its consensus
//! round, the next batches are already proposed at later slots, so
//! end-to-end throughput is no longer capped at
//! `batch_size / round_latency`. Window 1 reproduces the original
//! stop-and-wait behaviour exactly.
//!
//! Decisions arrive as `cs/decide <slot, batch>` notifications; the server
//! delivers batches in slot order, expanding them into per-message
//! [`DELIVER_HEADER`] notifications with a gapless
//! global sequence number — identical at every subscriber, which is the
//! total-order property checked in `tests/total_order.rs`. Delivered slots
//! are garbage-collected from the decided map; late duplicate decisions
//! for them are dropped by a frontier check.
//!
//! [`DELIVER_HEADER`]: crate::DELIVER_HEADER

use crate::{BROADCAST_HEADER, DELIVER_HEADER, SUBOK_HEADER, SUBSCRIBE_HEADER, UNSUBSCRIBE_HEADER};
use shadowdb_consensus::dedup::SeenIds;
use shadowdb_consensus::{synod, twothird, vmap, DECIDE_HEADER};
use shadowdb_eventml::patterns::{Mealy, MealyState};
use shadowdb_eventml::{cached_header, Header, Msg, SendInstr, Spec, Value};
use shadowdb_loe::Loc;

/// Which consensus module a TOB server submits its batches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Propose through a co-located TwoThird member at this location.
    TwoThird {
        /// The member process that receives `tt/propose`.
        member: Loc,
    },
    /// Submit commands to a co-located Synod replica at this location.
    Paxos {
        /// The replica process that receives `px/request`.
        replica: Loc,
    },
}

/// Configuration of one TOB server.
#[derive(Clone, Debug)]
pub struct TobConfig {
    /// The consensus backend this server proposes through.
    pub backend: Backend,
    /// Every location that receives delivery notifications (database
    /// replicas, measurement clients, …).
    pub subscribers: Vec<Loc>,
    /// Maximum number of messages bundled into one proposal.
    pub max_batch: usize,
    /// Maximum number of proposals concurrently in flight (1 = the
    /// original stop-and-wait pipeline).
    pub window: usize,
}

impl TobConfig {
    /// Creates a configuration with the paper's batching enabled
    /// (`max_batch` = 64) and no pipelining (`window` = 1).
    pub fn new(backend: Backend, subscribers: Vec<Loc>) -> TobConfig {
        TobConfig {
            backend,
            subscribers,
            max_batch: 64,
            window: 1,
        }
    }

    /// Overrides the batch bound (1 disables batching — the ablation case).
    pub fn with_max_batch(mut self, max_batch: usize) -> TobConfig {
        assert!(max_batch >= 1, "a batch holds at least one message");
        self.max_batch = max_batch;
        self
    }

    /// Overrides the pipelining window (1 disables pipelining).
    pub fn with_window(mut self, window: usize) -> TobConfig {
        assert!(window >= 1, "the window holds at least one proposal");
        self.window = window;
        self
    }
}

/// Server state.
#[derive(Clone, Debug)]
pub struct ServerState {
    /// Next slot to deliver.
    deliver_next: i64,
    /// Gapless global delivery sequence number.
    seq: i64,
    /// Monotone batch id (unique per server).
    batch_ctr: i64,
    /// slot -> batch (decided, garbage-collected once delivered).
    decided: Value,
    /// FIFO of pending entries `<client, <msgid, payload>>`.
    pending: Value,
    /// The proposals in flight, oldest first, as `(slot, batch)` pairs.
    /// TwoThird entries carry the slot the server claimed; Paxos entries
    /// carry `None` (the Synod replica owns slot assignment).
    in_flight: Vec<(Option<i64>, Value)>,
    /// client -> enqueue duplicate-detector state (an encoded [`SeenIds`]).
    last_enq: Value,
    /// client -> delivery duplicate-detector state (an encoded [`SeenIds`]).
    last_del: Value,
    /// Dynamic subscribers (joining replicas), added at runtime through
    /// [`SUBSCRIBE_HEADER`]; they receive every delivery alongside the
    /// deploy-time `config.subscribers`.
    subs: Vec<Loc>,
}

impl MealyState for ServerState {
    fn encode(&self) -> Value {
        let in_flight = Value::list(self.in_flight.iter().map(|(slot, batch)| {
            Value::pair(
                match slot {
                    Some(s) => Value::Int(*s),
                    None => Value::Unit,
                },
                batch.clone(),
            )
        }));
        Value::pair(
            Value::pair(Value::Int(self.deliver_next), Value::Int(self.seq)),
            Value::pair(
                Value::pair(Value::Int(self.batch_ctr), self.decided.clone()),
                Value::pair(
                    Value::pair(self.pending.clone(), in_flight),
                    Value::pair(
                        self.last_enq.clone(),
                        Value::pair(
                            self.last_del.clone(),
                            Value::list(self.subs.iter().map(|l| Value::Loc(*l))),
                        ),
                    ),
                ),
            ),
        )
    }

    fn decode(v: &Value) -> ServerState {
        let (a, rest) = v.unpair();
        let (deliver_next, seq) = a.unpair();
        let (b, rest) = rest.unpair();
        let (batch_ctr, decided) = b.unpair();
        let (c, d) = rest.unpair();
        let (pending, in_flight) = c.unpair();
        let (last_enq, rest) = d.unpair();
        let (last_del, subs) = rest.unpair();
        let subs = subs
            .as_list()
            .expect("subscriber list")
            .iter()
            .map(|l| l.loc())
            .collect();
        let in_flight = in_flight
            .as_list()
            .expect("in-flight list")
            .iter()
            .map(|e| {
                let (slot, batch) = e.unpair();
                (slot.as_int(), batch.clone())
            })
            .collect();
        ServerState {
            deliver_next: deliver_next.int(),
            seq: seq.int(),
            batch_ctr: batch_ctr.int(),
            decided: decided.clone(),
            pending: pending.clone(),
            in_flight,
            last_enq: last_enq.clone(),
            last_del: last_del.clone(),
            subs,
        }
    }
}

/// Sliding-window duplicate detection in a `source -> SeenIds` table (the
/// encoded form of [`SeenIds`] per source): records `msgid` and returns
/// true when it is fresh from `source`.
fn note_msgid(table: &mut Value, source: &Value, msgid: i64) -> bool {
    let mut seen = vmap::get(table, source).map_or_else(SeenIds::default, SeenIds::from_value);
    let fresh = seen.note(msgid);
    if fresh {
        *table = vmap::set(table, source.clone(), seen.to_value());
    }
    fresh
}

/// Builds a batch value `<proposer, <batchid, entries>>` — a Synod
/// [`synod::command`], identified by `(proposer, batchid)`.
fn batch_value(proposer: Loc, batchid: i64, entries: &[Value]) -> Value {
    synod::command(proposer, batchid, Value::list(entries.to_vec()))
}

fn batch_entries(batch: &Value) -> &[Value] {
    batch
        .snd()
        .and_then(Value::snd)
        .and_then(Value::as_list)
        .unwrap_or(&[])
}

/// The broadcast-service specification for one server.
pub fn service_spec(config: &TobConfig) -> Spec {
    Spec::new("BroadcastService", service(config).class())
}

/// The broadcast-service state machine for one server.
pub fn service(config: &TobConfig) -> Mealy<ServerState> {
    let config = config.clone();
    let init = ServerState {
        deliver_next: 0,
        seq: 0,
        batch_ctr: 0,
        decided: vmap::empty(),
        pending: Value::list(std::iter::empty()),
        in_flight: Vec::new(),
        last_enq: vmap::empty(),
        last_del: vmap::empty(),
        subs: Vec::new(),
    };
    Mealy::new(
        "tob_transition",
        // Declared weight approximating the transition's AST size (the
        // EventML broadcast service in the paper is 820 nodes).
        700,
        &[
            BROADCAST_HEADER,
            DECIDE_HEADER,
            SUBSCRIBE_HEADER,
            UNSUBSCRIBE_HEADER,
        ],
        init,
        move |slf, header, body, st, outs| transition(&config, slf, header, body, st, outs),
    )
}

fn transition(
    config: &TobConfig,
    slf: Loc,
    header: Header,
    body: &Value,
    st: &mut ServerState,
    outs: &mut Vec<SendInstr>,
) {
    if header == cached_header!(BROADCAST_HEADER) {
        let (client, rest) = body.unpair();
        let (msgid, _payload) = rest.unpair();
        if note_msgid(&mut st.last_enq, client, msgid.int()) {
            let mut pending: Vec<Value> = st.pending.elems().to_vec();
            pending.push(body.clone());
            st.pending = Value::list(pending);
        }
    } else if header == cached_header!(DECIDE_HEADER) {
        let (slot, batch) = body.unpair();
        // Slots below the delivery frontier have been delivered and
        // garbage-collected; a late duplicate decision for one is a
        // no-op.
        if slot.int() >= st.deliver_next && !vmap::contains(&st.decided, slot) {
            st.decided = vmap::set(&st.decided, slot.clone(), batch.clone());
            // Resolve whichever in-flight proposal this decision
            // settles: our batch winning (at any slot) retires its
            // entry; a TwoThird slot race lost to a foreign batch
            // re-queues ours at the head of the pending queue, to be
            // re-proposed at the next free slot.
            if let Some(i) = st.in_flight.iter().position(|(_, b)| b == batch) {
                st.in_flight.remove(i);
            } else if let Some(i) = st
                .in_flight
                .iter()
                .position(|(s, _)| s.is_some() && *s == slot.as_int())
            {
                let (_, our_batch) = st.in_flight.remove(i);
                let mut pending: Vec<Value> = batch_entries(&our_batch).to_vec();
                pending.extend(st.pending.elems().iter().cloned());
                st.pending = Value::list(pending);
            }
            deliver_ready(config, st, outs);
        }
    } else if header == cached_header!(SUBSCRIBE_HEADER) {
        // A joining replica wires itself into this server's delivery
        // fan-out. The acknowledgement carries the seq of the first
        // delivery it will see, so the joiner knows exactly which
        // prefix its snapshot must cover. Idempotent: re-subscribing
        // re-acks with the current frontier.
        let sub = body.loc();
        if !st.subs.contains(&sub) && !config.subscribers.contains(&sub) {
            st.subs.push(sub);
        }
        outs.push(SendInstr::now(
            sub,
            Msg::new(cached_header!(SUBOK_HEADER), Value::Int(st.seq)),
        ));
    } else {
        // UNSUBSCRIBE.
        let sub = body.loc();
        st.subs.retain(|l| *l != sub);
    }
    try_propose(config, slf, st, outs);
}

/// Delivers decided batches in slot order, garbage-collecting each slot
/// as it is delivered (the frontier check in the DECIDE arm keeps late
/// duplicates from resurrecting a collected slot).
fn deliver_ready(config: &TobConfig, st: &mut ServerState, outs: &mut Vec<SendInstr>) {
    let dynamic = st.subs.clone();
    while let Some(batch) = vmap::get(&st.decided, &Value::Int(st.deliver_next)).cloned() {
        for entry in batch_entries(&batch) {
            let (client, rest) = entry.unpair();
            let (msgid, _payload) = rest.unpair();
            if !note_msgid(&mut st.last_del, client, msgid.int()) {
                continue; // duplicate of an already-delivered message
            }
            for sub in config.subscribers.iter().chain(dynamic.iter()) {
                outs.push(SendInstr::now(
                    *sub,
                    Msg::new(
                        cached_header!(DELIVER_HEADER),
                        Value::pair(Value::Int(st.seq), entry.clone()),
                    ),
                ));
            }
            st.seq += 1;
        }
        st.decided = vmap::remove(&st.decided, &Value::Int(st.deliver_next));
        st.deliver_next += 1;
    }
}

/// Proposes pending batches until the pipelining window is full or the
/// pending queue is drained.
fn try_propose(config: &TobConfig, slf: Loc, st: &mut ServerState, outs: &mut Vec<SendInstr>) {
    while st.in_flight.len() < config.window && !st.pending.elems().is_empty() {
        let take = st.pending.elems().len().min(config.max_batch);
        let (batch, rest) = {
            let pending = st.pending.elems();
            let (now, later) = pending.split_at(take);
            (
                batch_value(slf, st.batch_ctr, now),
                Value::list(later.to_vec()),
            )
        };
        st.batch_ctr += 1;
        st.pending = rest;
        match config.backend {
            Backend::TwoThird { member } => {
                // Choose the lowest slot at or after the delivery frontier
                // that is neither decided nor claimed by an earlier
                // in-flight proposal of ours; collisions with other servers
                // are resolved by consensus and re-queuing.
                let mut slot = st.deliver_next;
                while vmap::contains(&st.decided, &Value::Int(slot))
                    || st.in_flight.iter().any(|(s, _)| *s == Some(slot))
                {
                    slot += 1;
                }
                st.in_flight.push((Some(slot), batch.clone()));
                outs.push(SendInstr::now(member, twothird::propose_msg(slot, batch)));
            }
            Backend::Paxos { replica } => {
                st.in_flight.push((None, batch.clone()));
                outs.push(SendInstr::now(replica, synod::request_msg(batch)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{broadcast_msg, parse_deliver};
    use shadowdb_consensus::decide_body;
    use shadowdb_eventml::{Ctx, InterpretedProcess, Process};

    fn server(max_batch: usize) -> (InterpretedProcess, TobConfig) {
        server_windowed(max_batch, 1)
    }

    fn server_windowed(max_batch: usize, window: usize) -> (InterpretedProcess, TobConfig) {
        let config = TobConfig::new(
            Backend::TwoThird {
                member: Loc::new(50),
            },
            vec![Loc::new(60), Loc::new(61)],
        )
        .with_max_batch(max_batch)
        .with_window(window);
        (
            InterpretedProcess::compile(&service(&config).class()),
            config,
        )
    }

    #[test]
    fn broadcast_triggers_batched_proposal() {
        let (mut p, _) = server(64);
        let slf = Loc::new(0);
        let outs = p.step(
            &Ctx::at(slf),
            &broadcast_msg(Loc::new(9), 0, Value::str("a")),
        );
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].dest, Loc::new(50));
        assert_eq!(outs[0].msg.header.name(), twothird::PROPOSE_HEADER);
        // A second broadcast while the first is outstanding: queued, no
        // second proposal.
        let outs = p.step(
            &Ctx::at(slf),
            &broadcast_msg(Loc::new(9), 1, Value::str("b")),
        );
        assert!(outs.is_empty());
    }

    #[test]
    fn decision_delivers_in_order_with_gapless_seq() {
        let (mut p, _) = server(64);
        let slf = Loc::new(0);
        let entry = |c: u32, id: i64| {
            Value::pair(
                Value::Loc(Loc::new(c)),
                Value::pair(Value::Int(id), Value::Unit),
            )
        };
        // Decide slot 1 first: nothing delivered yet.
        let b1 = batch_value(Loc::new(1), 0, &[entry(8, 0)]);
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(1, &b1)),
        );
        assert!(outs.is_empty());
        // Decide slot 0: both batches flush, in slot order, seq 0..=1 at
        // each subscriber.
        let b0 = batch_value(Loc::new(2), 0, &[entry(9, 0)]);
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &b0)),
        );
        let deliveries: Vec<_> = outs
            .iter()
            .filter_map(|o| parse_deliver(&o.msg).map(|d| (o.dest, d)))
            .collect();
        assert_eq!(deliveries.len(), 4); // 2 messages × 2 subscribers
        assert_eq!(deliveries[0].1.client, Loc::new(9));
        assert_eq!(deliveries[0].1.seq, 0);
        assert_eq!(deliveries[2].1.client, Loc::new(8));
        assert_eq!(deliveries[2].1.seq, 1);
    }

    #[test]
    fn duplicate_submission_ignored() {
        let (mut p, _) = server(1);
        let slf = Loc::new(0);
        let m = broadcast_msg(Loc::new(9), 0, Value::str("a"));
        let first = p.step(&Ctx::at(slf), &m);
        assert_eq!(first.len(), 1);
        let again = p.step(&Ctx::at(slf), &m);
        assert!(again.is_empty(), "resend of an enqueued message is a no-op");
    }

    #[test]
    fn reordered_pipelined_submissions_all_enqueued() {
        // A lease-holder replica pipelines forwards through one msgid
        // counter; jittered links can deliver them out of order. Every
        // distinct msgid must still be enqueued exactly once — a plain
        // last-msgid high-water mark would swallow 1 and 2 here.
        let (mut p, _) = server_windowed(1, 8);
        let slf = Loc::new(0);
        let src = Loc::new(9);
        let mut proposals = 0;
        for id in [0i64, 3, 1, 2, 3, 1] {
            let outs = p.step(&Ctx::at(slf), &broadcast_msg(src, id, Value::str("x")));
            proposals += outs.len();
        }
        // Four distinct msgids → four single-entry batches proposed; the
        // two repeats are dropped as duplicates.
        assert_eq!(proposals, 4, "each distinct msgid proposed exactly once");
    }

    #[test]
    fn lost_slot_race_requeues_batch() {
        let (mut p, _) = server(64);
        let slf = Loc::new(0);
        // Our batch goes out for slot 0.
        p.step(
            &Ctx::at(slf),
            &broadcast_msg(Loc::new(9), 0, Value::str("mine")),
        );
        // Slot 0 decides with someone else's batch.
        let other = batch_value(
            Loc::new(1),
            7,
            &[Value::pair(
                Value::Loc(Loc::new(8)),
                Value::pair(Value::Int(0), Value::Unit),
            )],
        );
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &other)),
        );
        // The other batch is delivered AND our batch is re-proposed (slot 1).
        let proposals: Vec<_> = outs
            .iter()
            .filter(|o| o.msg.header == cached_header!(twothird::PROPOSE_HEADER))
            .collect();
        assert_eq!(proposals.len(), 1);
        let (slot, batch) = proposals[0].msg.body.unpair();
        assert_eq!(slot.int(), 1);
        let payloads: Vec<_> = batch_entries(batch).to_vec();
        assert_eq!(payloads.len(), 1);
        assert_eq!(payloads[0].fst().unwrap().loc(), Loc::new(9));
    }

    #[test]
    fn window_keeps_multiple_proposals_in_flight() {
        let (mut p, _) = server_windowed(1, 3);
        let slf = Loc::new(0);
        // Three broadcasts from distinct clients, batch bound 1: each goes
        // out immediately at its own slot.
        let mut slots = Vec::new();
        for c in 0..3u32 {
            let outs = p.step(
                &Ctx::at(slf),
                &broadcast_msg(Loc::new(9 + c), 0, Value::str("m")),
            );
            assert_eq!(outs.len(), 1, "broadcast {c} proposes immediately");
            assert_eq!(outs[0].msg.header.name(), twothird::PROPOSE_HEADER);
            slots.push(outs[0].msg.body.fst().unwrap().int());
        }
        assert_eq!(
            slots,
            vec![0, 1, 2],
            "concurrent proposals claim distinct slots"
        );
        // A fourth broadcast: the window is full, so it queues.
        let outs = p.step(
            &Ctx::at(slf),
            &broadcast_msg(Loc::new(20), 0, Value::str("m")),
        );
        assert!(outs.is_empty(), "window full: no fourth proposal");
        // Deciding slot 0 with our batch frees a window seat: the queued
        // message is proposed at slot 3 (1 and 2 are still claimed).
        let won = batch_value(
            slf,
            0,
            &[Value::pair(
                Value::Loc(Loc::new(9)),
                Value::pair(Value::Int(0), Value::str("m")),
            )],
        );
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &won)),
        );
        let proposals: Vec<_> = outs
            .iter()
            .filter(|o| o.msg.header == cached_header!(twothird::PROPOSE_HEADER))
            .collect();
        assert_eq!(proposals.len(), 1);
        assert_eq!(proposals[0].msg.body.fst().unwrap().int(), 3);
    }

    #[test]
    fn lost_race_under_window_requeues_past_claimed_slots() {
        let (mut p, _) = server_windowed(1, 2);
        let slf = Loc::new(0);
        // Two proposals in flight at slots 0 and 1.
        p.step(
            &Ctx::at(slf),
            &broadcast_msg(Loc::new(9), 0, Value::str("a")),
        );
        p.step(
            &Ctx::at(slf),
            &broadcast_msg(Loc::new(10), 0, Value::str("b")),
        );
        // Slot 0 decides with a foreign batch: our slot-0 batch re-queues
        // and re-proposes at slot 2, skipping slot 1 (still ours).
        let other = batch_value(
            Loc::new(1),
            7,
            &[Value::pair(
                Value::Loc(Loc::new(8)),
                Value::pair(Value::Int(0), Value::Unit),
            )],
        );
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &other)),
        );
        let proposals: Vec<_> = outs
            .iter()
            .filter(|o| o.msg.header == cached_header!(twothird::PROPOSE_HEADER))
            .collect();
        assert_eq!(proposals.len(), 1);
        let (slot, batch) = proposals[0].msg.body.unpair();
        assert_eq!(slot.int(), 2, "re-proposal skips our own claimed slot 1");
        assert_eq!(batch_entries(batch)[0].fst().unwrap().loc(), Loc::new(9));
    }

    #[test]
    fn late_duplicate_decide_for_collected_slot_is_ignored() {
        let (mut p, _) = server(64);
        let slf = Loc::new(0);
        let entry = Value::pair(
            Value::Loc(Loc::new(9)),
            Value::pair(Value::Int(0), Value::Unit),
        );
        let b0 = batch_value(Loc::new(2), 0, std::slice::from_ref(&entry));
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &b0)),
        );
        assert_eq!(outs.len(), 2, "delivered to both subscribers");
        // Slot 0 has been delivered and garbage-collected; a duplicate
        // decision for it — even with a different batch — must not deliver
        // anything or disturb the frontier.
        let forged = batch_value(
            Loc::new(3),
            9,
            &[Value::pair(
                Value::Loc(Loc::new(11)),
                Value::pair(Value::Int(0), Value::Unit),
            )],
        );
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &forged)),
        );
        assert!(outs.is_empty(), "late duplicate decide is a no-op");
        // The frontier advanced: slot 1 delivers next with seq 1.
        let b1 = batch_value(
            Loc::new(2),
            1,
            &[Value::pair(
                Value::Loc(Loc::new(9)),
                Value::pair(Value::Int(1), Value::Unit),
            )],
        );
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(1, &b1)),
        );
        let d = parse_deliver(&outs[0].msg).expect("delivery");
        assert_eq!(d.seq, 1);
    }

    #[test]
    fn dynamic_subscriber_joins_the_fanout_at_the_acked_seq() {
        let (mut p, _) = server(64);
        let slf = Loc::new(0);
        let entry = |c: u32, id: i64| {
            Value::pair(
                Value::Loc(Loc::new(c)),
                Value::pair(Value::Int(id), Value::Unit),
            )
        };
        // Slot 0 delivers before the joiner subscribes: 2 static subscribers.
        let b0 = batch_value(Loc::new(2), 0, &[entry(9, 0)]);
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(0, &b0)),
        );
        assert_eq!(outs.len(), 2);
        // Subscribe loc 70: the ack carries next seq = 1.
        let joiner = Loc::new(70);
        let outs = p.step(&Ctx::at(slf), &crate::subscribe_msg(joiner));
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].dest, joiner);
        assert_eq!(crate::parse_subok(&outs[0].msg), Some(1));
        // Re-subscribing is idempotent: same ack, no duplicate fan-out later.
        let outs = p.step(&Ctx::at(slf), &crate::subscribe_msg(joiner));
        assert_eq!(crate::parse_subok(&outs[0].msg), Some(1));
        // Slot 1 delivers to the 2 static subscribers AND the joiner.
        let b1 = batch_value(Loc::new(2), 1, &[entry(9, 1)]);
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(1, &b1)),
        );
        assert_eq!(outs.len(), 3);
        let to_joiner: Vec<_> = outs.iter().filter(|o| o.dest == joiner).collect();
        assert_eq!(to_joiner.len(), 1);
        assert_eq!(parse_deliver(&to_joiner[0].msg).expect("delivery").seq, 1);
        // Unsubscribe: slot 2 goes to the static subscribers only.
        let outs = p.step(&Ctx::at(slf), &crate::unsubscribe_msg(joiner));
        assert!(outs.is_empty());
        let b2 = batch_value(Loc::new(2), 2, &[entry(9, 2)]);
        let outs = p.step(
            &Ctx::at(slf),
            &Msg::new(cached_header!(DECIDE_HEADER), decide_body(2, &b2)),
        );
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn max_batch_splits_pending() {
        let (mut p, _) = server(2);
        let slf = Loc::new(0);
        for i in 0..5 {
            p.step(&Ctx::at(slf), &broadcast_msg(Loc::new(9), i, Value::Unit));
        }
        // First proposal (1 message went out immediately; the rest queued).
        // Decide it; the next proposal must carry exactly max_batch = 2.
        let st = |p: &mut InterpretedProcess, slot: i64, b: &Value| {
            p.step(
                &Ctx::at(slf),
                &Msg::new(cached_header!(DECIDE_HEADER), decide_body(slot, b)),
            )
        };
        // Reconstruct the outstanding batch: proposer slf, batchid 0, first msg.
        let b0 = batch_value(
            slf,
            0,
            &[Value::pair(
                Value::Loc(Loc::new(9)),
                Value::pair(Value::Int(0), Value::Unit),
            )],
        );
        let outs = st(&mut p, 0, &b0);
        let proposal = outs
            .iter()
            .find(|o| o.msg.header == cached_header!(twothird::PROPOSE_HEADER))
            .expect("next batch proposed");
        let (_, batch) = proposal.msg.body.unpair();
        assert_eq!(batch_entries(batch).len(), 2);
    }
}

#[cfg(test)]
mod size_tests {
    use super::*;

    /// Regression guard for the Table I reproduction: the broadcast
    /// service's specification size stays in the intended neighbourhood of
    /// the paper's 820-node EventML source.
    #[test]
    fn spec_size_reported_for_table1() {
        let spec = service_spec(&TobConfig::new(
            Backend::Paxos {
                replica: Loc::new(1),
            },
            vec![Loc::new(100)],
        ));
        let nodes = spec.ast_nodes();
        assert!((600..900).contains(&nodes), "nodes = {nodes}");
    }
}
