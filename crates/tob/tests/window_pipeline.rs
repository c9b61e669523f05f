//! Property test for the slot-race/re-queue path under window > 1.
//!
//! Two TOB servers run with a pipelining window, proposing batches into an
//! *adversarial* consensus: the test intercepts every `tt/propose`, and a
//! proptest-driven adversary picks — per slot — which proposed batch wins
//! and in which order the decisions reach the servers. Losing proposals
//! are simply dropped (the real member would echo the existing decision,
//! which the adversary already delivered), so the servers' own
//! re-queue/re-propose machinery has to recover every lost batch.
//!
//! Invariants checked over every generated interleaving:
//!
//! * both servers emit *identical* delivery streams (total order);
//! * sequence numbers are gapless from 0;
//! * every submitted message is delivered exactly once — none lost to a
//!   slot race, none duplicated by a re-proposal.

use proptest::prelude::*;
use shadowdb_consensus::{decide_body, twothird, DECIDE_HEADER};
use shadowdb_eventml::{cached_header, Ctx, InterpretedProcess, Msg, Process, Value};
use shadowdb_loe::Loc;
use shadowdb_tob::service::{service, Backend, TobConfig};
use shadowdb_tob::{broadcast_msg, parse_deliver};
use std::collections::BTreeMap;

const SUB_A: Loc = Loc::new(60);
const SUB_B: Loc = Loc::new(61);

struct Harness {
    servers: Vec<InterpretedProcess>,
    server_locs: Vec<Loc>,
    member_locs: Vec<Loc>,
    /// slot -> batches proposed for it (candidates for the adversary).
    proposals: BTreeMap<i64, Vec<Value>>,
    decided: BTreeMap<i64, Value>,
    /// Per server: the `(seq, client, msgid)` stream it sent to [`SUB_A`]
    /// (the [`SUB_B`] copy is asserted identical as it is recorded).
    delivered: Vec<Vec<(i64, Loc, i64)>>,
}

impl Harness {
    fn new(window: usize, max_batch: usize) -> Harness {
        let member_locs = vec![Loc::new(50), Loc::new(51)];
        let servers = member_locs
            .iter()
            .map(|m| {
                let config = TobConfig::new(Backend::TwoThird { member: *m }, vec![SUB_A, SUB_B])
                    .with_max_batch(max_batch)
                    .with_window(window);
                InterpretedProcess::compile(&service(&config).class())
            })
            .collect();
        Harness {
            servers,
            server_locs: vec![Loc::new(0), Loc::new(1)],
            member_locs,
            proposals: BTreeMap::new(),
            decided: BTreeMap::new(),
            delivered: vec![Vec::new(), Vec::new()],
        }
    }

    fn step(&mut self, server: usize, msg: &Msg) {
        let outs = self.servers[server].step(&Ctx::at(self.server_locs[server]), msg);
        for o in outs {
            if o.dest == self.member_locs[server] && o.msg.header.name() == twothird::PROPOSE_HEADER
            {
                let (slot, batch) = o.msg.body.unpair();
                // A proposal for an already-decided slot lost the race
                // before it left the server; the decision it needs has
                // already been delivered.
                if !self.decided.contains_key(&slot.int()) {
                    self.proposals
                        .entry(slot.int())
                        .or_default()
                        .push(batch.clone());
                }
            } else if o.dest == SUB_A || o.dest == SUB_B {
                let d = parse_deliver(&o.msg).expect("subscriber traffic is deliveries");
                if o.dest == SUB_A {
                    self.delivered[server].push((d.seq, d.client, d.msgid));
                }
            }
        }
    }

    /// Slots with at least one live candidate, not yet decided.
    fn contested(&self) -> Vec<i64> {
        self.proposals
            .iter()
            .filter(|(s, c)| !self.decided.contains_key(s) && !c.is_empty())
            .map(|(s, _)| *s)
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn window_pipelining_preserves_total_order(
        window in 1usize..=3,
        max_batch in 1usize..=2,
        n_msgs in 2usize..=6,
        to_server in proptest::collection::vec(any::<bool>(), 6),
        choices in proptest::collection::vec(any::<u32>(), 64),
    ) {
        let mut h = Harness::new(window, max_batch);
        // Each message comes from a distinct closed-loop client (one
        // outstanding message per client, the system's client discipline).
        for (i, &srv) in to_server.iter().enumerate().take(n_msgs) {
            let msg = broadcast_msg(Loc::new(200 + i as u32), 0, Value::Int(i as i64));
            h.step(usize::from(srv), &msg);
        }
        // The adversary decides contested slots in a generated order, with
        // generated winners, until every proposal is settled. Exhausting
        // the choice stream falls back to first-slot/first-candidate,
        // which always terminates: each decision either delivers a batch
        // or forces a re-proposal, and a batch that is the only candidate
        // for its slot must win.
        let mut cursor = 0usize;
        let mut next = || {
            let c = choices.get(cursor).copied().unwrap_or(0);
            cursor += 1;
            c as usize
        };
        let mut rounds = 0;
        loop {
            let contested = h.contested();
            if contested.is_empty() {
                break;
            }
            rounds += 1;
            prop_assert!(rounds < 10_000, "adversary did not terminate");
            let slot = contested[next() % contested.len()];
            let cands = h.proposals.get(&slot).expect("contested").clone();
            let winner = cands[next() % cands.len()].clone();
            h.decided.insert(slot, winner.clone());
            let decide = Msg::new(cached_header!(DECIDE_HEADER), decide_body(slot, &winner));
            let order = if next() % 2 == 0 { [0, 1] } else { [1, 0] };
            for s in order {
                h.step(s, &decide);
            }
        }
        // Total order: both servers delivered identical streams.
        prop_assert_eq!(&h.delivered[0], &h.delivered[1]);
        // Gapless sequence numbers from 0.
        for (i, (seq, _, _)) in h.delivered[0].iter().enumerate() {
            prop_assert_eq!(*seq, i as i64);
        }
        // Exactly-once: every submitted message delivered, none twice.
        let mut seen: Vec<(Loc, i64)> =
            h.delivered[0].iter().map(|(_, c, m)| (*c, *m)).collect();
        seen.sort();
        let mut expect: Vec<(Loc, i64)> =
            (0..n_msgs).map(|i| (Loc::new(200 + i as u32), 0)).collect();
        expect.sort();
        prop_assert_eq!(seen, expect);
    }
}
