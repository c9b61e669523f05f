//! Property-based verification of the EventML toolchain.
//!
//! These are the repository's analogues of the paper's machine-checked
//! obligations: for *arbitrary* specifications and message streams,
//! the interpreted program, the optimized program, and the denotational
//! (LoE) semantics must agree.

use proptest::prelude::*;
use shadowdb_eventml::bisim::{check_bisimilar, check_complies_with_loe};
use shadowdb_eventml::codec::{decode_msg, decode_value, encode_msg, encode_value, encoded_len};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{clk, ClassExpr, HandlerFn, InterpretedProcess, Msg, UpdateFn, Value};
use shadowdb_loe::props::{check_clock_condition, check_strictly_increasing, Violation};
use shadowdb_loe::{EventId, EventOrder, Loc};

/// A pool of deterministic leaf functions the generator can pick from.
/// Names identify behaviour, as the optimizer requires.
fn update_fn(idx: usize) -> UpdateFn {
    match idx % 4 {
        0 => UpdateFn::new("u_count", 1, |_l, _v, s| {
            Value::Int(s.as_int().unwrap_or(0) + 1)
        }),
        1 => UpdateFn::new("u_last", 1, |_l, v, _s| v.clone()),
        2 => UpdateFn::new("u_pair", 1, |_l, v, s| Value::pair(s.clone(), v.clone())),
        _ => UpdateFn::new("u_max", 1, |_l, v, s| {
            Value::Int(v.as_int().unwrap_or(0).max(s.as_int().unwrap_or(0)))
        }),
    }
}

fn handler_fn(idx: usize) -> HandlerFn {
    match idx % 4 {
        0 => HandlerFn::new("h_first", 1, |_l, args| vec![args[0].clone()]),
        1 => HandlerFn::new("h_tuple", 1, |_l, args| vec![Value::list(args.to_vec())]),
        2 => HandlerFn::new("h_dup", 1, |_l, args| {
            vec![args[0].clone(), args[0].clone()]
        }),
        _ => HandlerFn::new("h_posint", 1, |_l, args| {
            // A filtering handler: only passes positive integers through.
            args.first()
                .and_then(Value::as_int)
                .filter(|i| *i > 0)
                .map(Value::Int)
                .into_iter()
                .collect()
        }),
    }
}

const HEADERS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Generates an arbitrary class expression of bounded depth.
fn arb_expr(depth: u32) -> BoxedStrategy<ClassExpr> {
    let leaf = prop_oneof![
        (0..HEADERS.len()).prop_map(|i| ClassExpr::base(HEADERS[i])),
        (-3i64..4).prop_map(|i| ClassExpr::Constant(Value::Int(i))),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), 0..4usize, -2i64..3)
                .prop_map(|(e, u, init)| e.state(Value::Int(init), update_fn(u))),
            (proptest::collection::vec(inner.clone(), 1..3), 0..4usize)
                .prop_map(|(args, h)| ClassExpr::compose(handler_fn(h), args)),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(ClassExpr::parallel),
            inner.prop_map(ClassExpr::once),
        ]
    })
    .boxed()
}

fn arb_msgs() -> impl Strategy<Value = Vec<Msg>> {
    proptest::collection::vec(
        ((0..HEADERS.len()), -5i64..6).prop_map(|(h, v)| Msg::new(HEADERS[h], Value::Int(v))),
        1..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Optimized programs are bisimilar to their unoptimized originals
    /// (the paper's Fig. 7 obligation), for arbitrary specs and inputs.
    #[test]
    fn optimizer_preserves_behaviour(expr in arb_expr(4), msgs in arb_msgs()) {
        let mut interp = InterpretedProcess::compile(&expr);
        let mut fused = optimize(&expr);
        prop_assert!(check_bisimilar(&mut interp, &mut fused, Loc::new(0), &msgs).is_ok());
    }

    /// Generated programs comply with the LoE denotational semantics
    /// (the paper's arrow (c) obligation).
    #[test]
    fn gpm_complies_with_loe(expr in arb_expr(3), msgs in arb_msgs()) {
        prop_assert!(check_complies_with_loe(&expr, Loc::new(1), &msgs).is_ok());
    }

    /// Optimization never grows the program, and shrinks it whenever the
    /// spec repeats a subexpression.
    #[test]
    fn optimizer_never_grows_program(expr in arb_expr(4)) {
        let interp = InterpretedProcess::compile(&expr);
        let fused = optimize(&expr);
        prop_assert!(fused.program_nodes() <= interp.program_nodes());
    }

    /// Values survive an encode/decode roundtrip, and `encoded_len` is exact.
    #[test]
    fn codec_roundtrip(v in arb_value()) {
        let mut buf = bytes::BytesMut::new();
        encode_value(&v, &mut buf);
        prop_assert_eq!(buf.len(), encoded_len(&v));
        let mut bytes = buf.freeze();
        prop_assert_eq!(decode_value(&mut bytes).unwrap(), v);
        prop_assert!(bytes.is_empty());
    }

    /// Messages survive an encode/decode roundtrip.
    #[test]
    fn msg_codec_roundtrip(v in arb_value(), h in "[a-z]{1,12}") {
        let m = Msg::new(h.as_str(), v);
        prop_assert_eq!(decode_msg(encode_msg(&m)).unwrap(), m);
    }
}

fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (0u32..100).prop_map(|i| Value::Loc(Loc::new(i))),
        "[ -~]{0,20}".prop_map(|s| Value::str(&s)),
        proptest::collection::vec(any::<u8>(), 0..40)
            .prop_map(|b| Value::Bytes(bytes::Bytes::from(b))),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Value::pair(a, b)),
            proptest::collection::vec(inner, 0..5).prop_map(Value::list),
        ]
    })
    .boxed()
}

/// One step of a CLK schedule: an external input enters the network, or
/// one of the messages in flight is delivered.
#[derive(Clone, Debug)]
enum Step {
    /// A client message `<value, timestamp>` to a location (taken mod n).
    Inject { loc: u32, ts: i64 },
    /// Delivers the in-flight message at this index (taken mod the pool).
    Deliver(usize),
}

/// Runs the shipped CLK program, one process per location of a ring of
/// `n`, through `schedule`, and returns the trace of receive events.
///
/// Every message a process sends must carry, as its timestamp, the clock
/// `clk::clock_class()` denotes at the event that sent it: the program
/// and its LoE reading agree along the whole run.
fn run_clk(n: u32, schedule: &[Step]) -> EventOrder<Msg> {
    use shadowdb_eventml::denote::denote;
    use shadowdb_eventml::{Ctx, Process};
    use shadowdb_loe::VTime;

    let spec = clk::clk_spec(clk::ring_handle(n));
    let clock = clk::clock_class();
    let mut procs: Vec<InterpretedProcess> = (0..n)
        .map(|_| InterpretedProcess::compile_spec(&spec))
        .collect();
    let mut eo: EventOrder<Msg> = EventOrder::new();
    // Messages in flight: (dest, msg, the event that sent it).
    let mut pool: Vec<(Loc, Msg, Option<EventId>)> = Vec::new();
    for step in schedule {
        let (dest, msg, cause) = match *step {
            Step::Inject { loc, ts } => {
                let loc = Loc::new(loc % n);
                pool.push((loc, clk::clk_msg(Value::Int(ts), ts), None));
                continue;
            }
            Step::Deliver(_) if pool.is_empty() => continue,
            Step::Deliver(i) => pool.remove(i % pool.len()),
        };
        let now = VTime::from_micros(eo.len() as u64 + 1);
        let sender = cause.map(|c| eo.event(c).loc());
        let e = eo.record(dest, now, msg.clone(), cause, sender);
        let outs = procs[dest.index() as usize].step(&Ctx::new(dest, now), &msg);
        let lc = denote(&clock, &eo, e).pop().map(|v| v.int());
        for o in outs {
            assert_eq!(
                clk::timestamp_of(&o.msg),
                lc,
                "send at {e} carries its clock"
            );
            pool.push((o.dest, o.msg, Some(e)));
        }
    }
    eo
}

/// Both CLK obligations of the paper — `progress` (`strict_inc`, Sec.
/// II-C2) and Lamport's Clock Condition (Fig. 6) — on `trace`, for
/// `class` read through `eventml::denote`.
fn clk_obligations(
    class: &ClassExpr,
    trace: &EventOrder<Msg>,
) -> (Option<Violation>, Option<Violation>) {
    let observe = |eo: &EventOrder<Msg>, e| -> Vec<i64> {
        shadowdb_eventml::denote::denote(class, eo, e)
            .iter()
            .map(Value::int)
            .collect()
    };
    (
        check_strictly_increasing(trace, observe),
        check_clock_condition(trace, |eo, e| observe(eo, e).pop()),
    )
}

/// A CLK state class over `msg'base` with the given update.
fn clock_double(name: &'static str, update: fn(i64, i64) -> i64) -> ClassExpr {
    let upd = UpdateFn::new(name, 8, move |_slf, input, clock| {
        let ts = input.snd().and_then(Value::as_int).unwrap_or(0);
        Value::Int(update(ts, clock.int()))
    });
    ClassExpr::base(clk::MSG_HEADER).state(Value::Int(0), upd)
}

fn arb_schedule() -> impl Strategy<Value = (u32, Vec<Step>)> {
    // One step in five is an injection.
    let step = (0u32..5, 0u32..8, 0i64..20, 0usize..16).prop_map(|(kind, loc, ts, i)| {
        if kind == 0 {
            Step::Inject { loc, ts }
        } else {
            Step::Deliver(i)
        }
    });
    (
        4u32..7,
        (0u32..8, 0i64..20),
        proptest::collection::vec(step, 10..60),
    )
        .prop_map(|(n, (loc, ts), rest)| {
            let mut schedule = vec![Step::Inject { loc, ts }];
            schedule.extend(rest);
            (n, schedule)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CLK end-to-end: the shipped program, run over a random schedule of
    /// external inputs and delivery orders on four to six locations,
    /// yields clocks — `clk::clock_class()` read through `eventml::denote`
    /// — that strictly increase at every location and satisfy Lamport's
    /// Clock Condition.
    #[test]
    fn clk_satisfies_progress_and_the_clock_condition_on_random_schedules(
        (n, schedule) in arb_schedule()
    ) {
        let trace = run_clk(n, &schedule);
        prop_assert!(!trace.is_empty());
        prop_assert_eq!(clk_obligations(&clk::clock_class(), &trace), (None, None));
    }
}

/// A "clock" that echoes the incoming timestamp can go backwards: a later
/// input with an older timestamp fails progress, while the real clock
/// passes both obligations on the same run.
#[test]
fn echoing_clock_fails_progress() {
    let schedule = [
        Step::Inject { loc: 0, ts: 10 },
        Step::Inject { loc: 0, ts: 0 },
        Step::Deliver(0),
        Step::Deliver(0),
    ];
    let trace = run_clk(4, &schedule);
    let (first, second) = (EventId::new(0), EventId::new(1));
    let echo = clock_double("echo_ts", |ts, _clock| ts);
    assert_eq!(
        clk_obligations(&echo, &trace).0,
        Some(Violation { first, second })
    );
    assert_eq!(clk_obligations(&clk::clock_class(), &trace), (None, None));
}

/// A clock that counts local events and ignores timestamps fails the
/// Clock Condition: loc0 steps twice, its second send reaches loc1 first,
/// and loc1's clock there (1) does not exceed loc0's first (1).
#[test]
fn counting_clock_fails_the_clock_condition() {
    let schedule = [
        Step::Inject { loc: 0, ts: 0 },
        Step::Inject { loc: 0, ts: 0 },
        Step::Deliver(0),
        Step::Deliver(0),
        Step::Deliver(1),
    ];
    let trace = run_clk(4, &schedule);
    let (e0, e1, e2) = (EventId::new(0), EventId::new(1), EventId::new(2));
    assert_eq!(trace.event(e2).cause(), Some(e1));
    let counting = clock_double("count_events", |_ts, clock| clock + 1);
    let (progress, condition) = clk_obligations(&counting, &trace);
    assert_eq!(progress, None, "a counter does increase locally");
    assert_eq!(
        condition,
        Some(Violation {
            first: e0,
            second: e2
        })
    );
    assert_eq!(clk_obligations(&clk::clock_class(), &trace), (None, None));
}
