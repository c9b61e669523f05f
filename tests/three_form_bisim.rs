//! All-forms trace equivalence for every shipped protocol specification.
//!
//! Each protocol is one `Mealy` description from which four executable
//! forms are derived: the interpreted tree, the fused-linear flat program
//! (no dispatch table), the dispatch-fused program (header-indexed op
//! slices) — the three forms of its class, which round-trip the state
//! through its canonical encoding on every step — and the compiled native
//! process, which keeps the typed state across steps and is what a default
//! deployment runs. This file drives long deterministic pseudo-random
//! message streams — well-formed protocol traffic salted with unrecognized
//! headers — through all four forms of TwoThird, Synod (all three roles),
//! and the TOB broadcast service, and requires identical output bags at
//! every step: the checked refinement link between the specification and
//! the program that runs. It is the cross-crate extension of
//! `shadowdb_eventml::bisim`'s CLK/combinator checks, whose
//! `decoder_that_forgets_a_field_is_caught` is this suite's broken double.
//! (The file and its tests keep the names the tier-1 floor pins; "three
//! forms" are the three execution modes' programs plus the linear ablation.)

use shadowdb_consensus::{synod, twothird, DECIDE_HEADER};
use shadowdb_eventml::bisim::check_all_forms;
use shadowdb_eventml::patterns::{Mealy, MealyState};
use shadowdb_eventml::{cached_header, fingerprint, Ctx, Msg, Process, Value};
use shadowdb_loe::Loc;
use shadowdb_tob::service::{service, Backend};
use shadowdb_tob::{subscribe_msg, unsubscribe_msg, TobConfig, BROADCAST_HEADER};

/// Deterministic xorshift64* stream, identical to the one in
/// `eventml::bisim::tests` — stable across runs so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int(&mut self, n: u64) -> Value {
        Value::Int(self.below(n) as i64)
    }

    fn loc(&mut self, n: u64) -> Loc {
        Loc::new(self.below(n) as u32)
    }
}

fn noise_msg(rng: &mut Rng) -> Msg {
    let headers = ["zz/unknown", "tt/propose-typo", "noise"];
    Msg::new(headers[rng.below(3) as usize], rng.int(5))
}

fn run<S: MealyState>(spec: &Mealy<S>, slf: Loc, label: &str, stream_of: impl Fn(u64) -> Vec<Msg>) {
    let class = spec.class();
    for seed in 1..=6u64 {
        let stream = stream_of(seed);
        check_all_forms(&class, Some(&mut spec.process()), slf, &stream)
            .unwrap_or_else(|d| panic!("{label} seed {seed}: {d}"));
        digests_follow_encodings(spec, slf, &stream, label);
    }
}

/// The model checker prunes on process digests, so over the same stream
/// two states of the compiled form must fingerprint equal exactly when
/// their canonical encodings are equal.
fn digests_follow_encodings<S: MealyState>(spec: &Mealy<S>, slf: Loc, stream: &[Msg], label: &str) {
    let mut p = spec.process();
    let ctx = Ctx::at(slf);
    let mut seen: Vec<(Value, u64)> = vec![(p.state().encode(), fingerprint(&p))];
    for m in stream {
        p.step(&ctx, m);
        seen.push((p.state().encode(), fingerprint(&p)));
    }
    let distinct = seen
        .iter()
        .map(|(_, f)| f)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(
        distinct > 1 && distinct < seen.len(),
        "{label}: the stream must both change the state and leave it alone ({distinct} of {})",
        seen.len()
    );
    for (i, (enc_a, fp_a)) in seen.iter().enumerate() {
        for (enc_b, fp_b) in &seen[..i] {
            assert_eq!(enc_a == enc_b, fp_a == fp_b, "{label}: step {i}");
        }
    }
}

// ---------------------------------------------------------------------------
// TwoThird
// ---------------------------------------------------------------------------

fn twothird_stream(seed: u64, n: usize, members: u64) -> Vec<Msg> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| match rng.below(8) {
            0..=2 => twothird::propose_msg(rng.below(4) as i64, rng.int(3)),
            3..=5 => {
                // vote: <instance, <round, <sender, value>>>
                let body = Value::pair(
                    rng.int(4),
                    Value::pair(
                        Value::Int(1 + rng.below(3) as i64),
                        Value::pair(Value::Loc(rng.loc(members)), rng.int(3)),
                    ),
                );
                Msg::new(cached_header!(twothird::VOTE_HEADER), body)
            }
            6 => Msg::new(
                cached_header!(twothird::INTERNAL_DECIDE_HEADER),
                Value::pair(rng.int(4), rng.int(3)),
            ),
            _ => noise_msg(&mut rng),
        })
        .collect()
}

#[test]
fn twothird_three_forms_agree() {
    let members = 4u64;
    let config = twothird::TwoThirdConfig::new(Loc::first_n(members as u32), vec![Loc::new(50)]);
    let member = twothird::TwoThird::new(config.clone()).member();
    run(&member, Loc::new(1), "twothird", |seed| {
        twothird_stream(seed, 300, members)
    });

    // Auto-adopt mode takes the extra adoption branch on foreign votes.
    let adopt = twothird::TwoThird::new(config.with_auto_adopt()).member();
    run(&adopt, Loc::new(2), "twothird+auto_adopt", |seed| {
        twothird_stream(seed * 31, 300, members)
    });
}

// ---------------------------------------------------------------------------
// Synod (acceptor / leader / replica)
// ---------------------------------------------------------------------------

fn ballot(rng: &mut Rng, leaders: u64) -> Value {
    Value::pair(
        Value::Int(rng.below(3) as i64),
        Value::Loc(Loc::new((3 + rng.below(leaders)) as u32)),
    )
}

/// A well-formed command `<origin, <cid, op>>` out of three origins and
/// ten ids each, so identities repeat — under the same op and, now and
/// then, under another one (an origin that reused an id).
fn command(rng: &mut Rng) -> Value {
    let (origin, cid) = (rng.loc(3), rng.below(10) as i64);
    let op = if rng.below(8) == 0 {
        rng.int(5)
    } else {
        Value::Int(cid)
    };
    synod::command(origin, cid, op)
}

fn synod_stream(seed: u64, n: usize) -> Vec<Msg> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| match rng.below(10) {
            0 => synod::request_msg(command(&mut rng)),
            1 => synod::start_msg(),
            2 => Msg::new(
                cached_header!(synod::PROPOSE_HEADER),
                Value::pair(rng.int(3), command(&mut rng)),
            ),
            3 => Msg::new(
                cached_header!(synod::DECISION_HEADER),
                Value::pair(rng.int(6), command(&mut rng)),
            ),
            4 => {
                // p1a: <leader, ballot>
                let b = ballot(&mut rng, 3);
                Msg::new(
                    cached_header!(synod::P1A_HEADER),
                    Value::pair(Value::Loc(rng.loc(9)), b),
                )
            }
            5 => {
                // p1b: <acceptor, <ballot, accepted-pvalues>>, the pvalues a
                // sorted `slot -> <ballot, command>` list over a few slots
                // so the leader's max-ballot merge is exercised.
                let b = ballot(&mut rng, 3);
                let accepted: Vec<Value> = (0..3)
                    .filter_map(|slot| {
                        let pvalue = Value::pair(ballot(&mut rng, 3), command(&mut rng));
                        (rng.below(3) == 0).then(|| Value::pair(Value::Int(slot), pvalue))
                    })
                    .collect();
                Msg::new(
                    cached_header!(synod::P1B_HEADER),
                    Value::pair(
                        Value::Loc(Loc::new(6 + rng.below(3) as u32)),
                        Value::pair(b, Value::list(accepted)),
                    ),
                )
            }
            6 => {
                // p2a: <leader, <ballot, <slot, command>>>
                let b = ballot(&mut rng, 3);
                Msg::new(
                    cached_header!(synod::P2A_HEADER),
                    Value::pair(
                        Value::Loc(rng.loc(9)),
                        Value::pair(b, Value::pair(rng.int(3), command(&mut rng))),
                    ),
                )
            }
            7 => {
                // p2b: <acceptor, <ballot, slot>>
                let b = ballot(&mut rng, 3);
                Msg::new(
                    cached_header!(synod::P2B_HEADER),
                    Value::pair(
                        Value::Loc(Loc::new(6 + rng.below(3) as u32)),
                        Value::pair(b, rng.int(3)),
                    ),
                )
            }
            8 => Msg::new(cached_header!(synod::RESCOUT_HEADER), Value::Unit),
            _ => noise_msg(&mut rng),
        })
        .collect()
}

/// What `slf` receives in a live deployment: the random streams above
/// rarely get a leader past phase 1 (a ballot must match exactly), so the
/// roles are also driven by the traffic of a real run — two competing
/// leaders, twelve requests over ten commands (each replica the origin of
/// its own, two of them submitted twice), messages delivered in a seeded
/// random order
/// (preemptions, rescouts, adoptions of accepted pvalues, re-proposals
/// after lost slots) — salted with noise. Returns at most 400 messages.
fn live_stream(seed: u64, config: &synod::SynodConfig, slf: Loc) -> Vec<Msg> {
    let mut rng = Rng(seed);
    let mut procs: Vec<(Loc, Box<dyn Process>)> = Vec::new();
    for r in &config.replicas {
        procs.push((*r, Box::new(synod::replica(config).process())));
    }
    for l in &config.leaders {
        procs.push((*l, Box::new(synod::leader(config).process())));
    }
    for a in &config.acceptors {
        procs.push((*a, Box::new(synod::acceptor().process())));
    }
    let mut queue: Vec<(Loc, Msg)> = config.leaders[..2]
        .iter()
        .map(|l| (*l, synod::start_msg()))
        .collect();
    let mut next_cid = vec![0i64; config.replicas.len()];
    let mut requests: Vec<(Loc, Msg)> = Vec::new();
    for i in 0..12 {
        if i >= 10 {
            requests.push(requests[i - 10].clone());
            continue;
        }
        let r = rng.below(config.replicas.len() as u64) as usize;
        let cmd = synod::command(config.replicas[r], next_cid[r], Value::Int(i as i64));
        next_cid[r] += 1;
        requests.push((config.replicas[r], synod::request_msg(cmd)));
    }
    queue.extend(requests);
    let (mut stream, mut decided) = (Vec::new(), false);
    for _ in 0..20_000 {
        if queue.is_empty() {
            break;
        }
        let (dest, msg) = queue.swap_remove(rng.below(queue.len() as u64) as usize);
        decided |= msg.header == cached_header!(DECIDE_HEADER);
        if dest == slf {
            if rng.below(6) == 0 {
                stream.push(noise_msg(&mut rng));
            }
            stream.push(msg.clone());
        }
        if let Some((_, p)) = procs.iter_mut().find(|(l, _)| *l == dest) {
            queue.extend(
                p.step(&Ctx::at(dest), &msg)
                    .into_iter()
                    .map(|o| (o.dest, o.msg)),
            );
        }
    }
    assert!(decided, "seed {seed}: the live run must decide something");
    stream.truncate(400);
    stream
}

#[test]
fn synod_acceptor_three_forms_agree() {
    let config = synod::SynodConfig::compact(3, vec![Loc::new(50)]);
    let slf = Loc::new(6);
    run(&synod::acceptor(), slf, "synod-acceptor", |seed| {
        synod_stream(seed, 250)
    });
    run(&synod::acceptor(), slf, "synod-acceptor/live", |seed| {
        live_stream(seed, &config, slf)
    });
}

#[test]
fn synod_leader_three_forms_agree() {
    let config = synod::SynodConfig::compact(3, vec![Loc::new(50)]);
    let slf = Loc::new(3);
    run(&synod::leader(&config), slf, "synod-leader", |seed| {
        synod_stream(seed * 7, 250)
    });
    run(&synod::leader(&config), slf, "synod-leader/live", |seed| {
        live_stream(seed * 7, &config, slf)
    });
}

#[test]
fn synod_replica_three_forms_agree() {
    let config = synod::SynodConfig::compact(3, vec![Loc::new(50)]);
    let slf = Loc::new(0);
    run(&synod::replica(&config), slf, "synod-replica", |seed| {
        synod_stream(seed * 13, 250)
    });
    run(
        &synod::replica(&config),
        slf,
        "synod-replica/live",
        |seed| live_stream(seed * 13, &config, slf),
    );
}

// ---------------------------------------------------------------------------
// TOB broadcast service
// ---------------------------------------------------------------------------

fn tob_stream(seed: u64, n: usize) -> Vec<Msg> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| match rng.below(8) {
            0..=2 => {
                // broadcast: <client, <msgid, payload>>
                let body = Value::pair(
                    Value::Loc(rng.loc(4)),
                    Value::pair(Value::Int(rng.below(6) as i64), rng.int(100)),
                );
                Msg::new(cached_header!(BROADCAST_HEADER), body)
            }
            3 | 4 => {
                // decide: <slot, batch> where batch = <proposer, <batchid, entries>>
                let entries: Vec<Value> = (0..rng.below(3))
                    .map(|_| {
                        Value::pair(
                            Value::Loc(rng.loc(4)),
                            Value::pair(Value::Int(rng.below(6) as i64), rng.int(100)),
                        )
                    })
                    .collect();
                let batch = Value::pair(
                    Value::Loc(rng.loc(2)),
                    Value::pair(rng.int(4), Value::list(entries)),
                );
                Msg::new(
                    cached_header!(DECIDE_HEADER),
                    Value::pair(rng.int(4), batch),
                )
            }
            // Dynamic subscribers around the deploy-time one (loc 40).
            5 => subscribe_msg(Loc::new(40 + rng.below(3) as u32)),
            6 => unsubscribe_msg(Loc::new(40 + rng.below(3) as u32)),
            _ => noise_msg(&mut rng),
        })
        .collect()
}

#[test]
fn tob_service_three_forms_agree_both_backends() {
    let tt = TobConfig::new(
        Backend::TwoThird {
            member: Loc::new(0),
        },
        vec![Loc::new(40)],
    );
    run(&service(&tt), Loc::new(0), "tob-twothird", |seed| {
        tob_stream(seed, 250)
    });

    let px = TobConfig::new(
        Backend::Paxos {
            replica: Loc::new(1),
        },
        vec![Loc::new(40)],
    );
    run(&service(&px), Loc::new(1), "tob-paxos", |seed| {
        tob_stream(seed * 11, 250)
    });
}
