//! Executable bisimulation and LoE-compliance checks.
//!
//! Two of the paper's proof obligations become runnable checks here:
//!
//! * the optimized program is **bisimilar** to the unoptimized one
//!   (Fig. 7's `∼` relation, proved by `SqequalProcProve2` in Nuprl) —
//!   [`check_bisimilar`];
//! * the generated program **complies with the LoE specification**
//!   (arrow (c) of Fig. 2) — [`check_complies_with_loe`].
//!
//! Both are used by property tests that drive random message streams through
//! every shipped specification.

use crate::ast::ClassExpr;
use crate::compile::InterpretedProcess;
use crate::denote::{denote, trace_at};
use crate::optimize::{optimize, FusedProcess};
use crate::value::{Msg, Value};
use shadowdb_loe::{EventId, Loc};

/// A process whose full output bag is observable, not just its sends.
pub trait Observable {
    /// Evaluates one message and returns the entire output bag.
    fn observe_step(&mut self, slf: Loc, msg: &Msg) -> Vec<Value>;
}

impl Observable for InterpretedProcess {
    fn observe_step(&mut self, slf: Loc, msg: &Msg) -> Vec<Value> {
        self.step_values(slf, msg)
    }
}

impl Observable for FusedProcess {
    fn observe_step(&mut self, slf: Loc, msg: &Msg) -> Vec<Value> {
        self.step_values(slf, msg)
    }
}

/// Where two executions diverged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the input message at which outputs differed.
    pub step: usize,
    /// Output of the first process.
    pub left: Vec<Value>,
    /// Output of the second process.
    pub right: Vec<Value>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "outputs diverge at step {}: {:?} vs {:?}",
            self.step, self.left, self.right
        )
    }
}

/// Runs both processes over the same message stream at location `slf` and
/// reports the first divergence, if any.
pub fn check_bisimilar<A: Observable, B: Observable>(
    a: &mut A,
    b: &mut B,
    slf: Loc,
    msgs: &[Msg],
) -> Result<(), Divergence> {
    for (step, m) in msgs.iter().enumerate() {
        let left = a.observe_step(slf, m);
        let right = b.observe_step(slf, m);
        if left != right {
            return Err(Divergence { step, left, right });
        }
    }
    Ok(())
}

/// Checks that both the interpreted and the optimized compilation of `expr`
/// produce, at every event of the delivery stream `msgs`, exactly the bag of
/// values the denotational (LoE) semantics assigns.
pub fn check_complies_with_loe(expr: &ClassExpr, slf: Loc, msgs: &[Msg]) -> Result<(), Divergence> {
    let eo = trace_at(slf, msgs);
    let mut interp = InterpretedProcess::compile(expr);
    let mut fused = optimize(expr);
    for (step, m) in msgs.iter().enumerate() {
        let spec = denote(expr, &eo, EventId::new(step as u32));
        let run_i = interp.observe_step(slf, m);
        if run_i != spec {
            return Err(Divergence {
                step,
                left: run_i,
                right: spec,
            });
        }
        let run_f = fused.observe_step(slf, m);
        if run_f != spec {
            return Err(Divergence {
                step,
                left: run_f,
                right: spec,
            });
        }
    }
    Ok(())
}

/// Checks that **every program form** of a specification produces identical
/// output bags over the whole message stream: the two forms of `expr` —
/// interpreted (tree walk) and dispatch-fused (header-indexed op slices) —
/// and, when the specification is a [`crate::patterns::Mealy`]
/// description, the `compiled` native process lowered from it.
///
/// This is the executable form of two correctness arguments. The
/// optimizer's: fusion and CSE share subresults, and the dispatch table
/// may only *skip* ops whose recognizers cannot fire on the incoming
/// header, so a dispatch-fused step must equal the interpreted tree. And
/// the lowering's: a process that keeps its typed state across steps must
/// equal the forms that round-trip the state through its canonical
/// encoding.
pub fn check_all_forms(
    expr: &ClassExpr,
    mut compiled: Option<&mut dyn Observable>,
    slf: Loc,
    msgs: &[Msg],
) -> Result<(), Divergence> {
    let mut interp = InterpretedProcess::compile(expr);
    let mut fused = optimize(expr);
    for (step, m) in msgs.iter().enumerate() {
        let base = interp.observe_step(slf, m);
        let others: [Option<&mut dyn Observable>; 2] = [Some(&mut fused), compiled.as_deref_mut()];
        for form in others.into_iter().flatten() {
            let right = form.observe_step(slf, m);
            if base != right {
                return Err(Divergence {
                    step,
                    left: base,
                    right,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{HandlerFn, UpdateFn};
    use crate::clk::{clk_msg, clock_class, handler_class, ring_handle};
    use crate::patterns::{Mealy, MealyState};
    use crate::value::SendInstr;

    /// Deterministic xorshift64* stream — no external RNG dependency, stable
    /// across runs so failures are reproducible.
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
    }

    fn shared_counter_expr() -> ClassExpr {
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        let counter = ClassExpr::base("m").state(Value::Int(0), inc);
        let h = HandlerFn::new("pairup", 1, |_l, args| {
            vec![Value::pair(args[0].clone(), args[1].clone())]
        });
        ClassExpr::compose(h, vec![counter.clone(), counter])
    }

    fn msgs(n: usize) -> Vec<Msg> {
        (0..n)
            .map(|i| Msg::new(if i % 3 == 2 { "x" } else { "m" }, Value::Int(i as i64)))
            .collect()
    }

    #[test]
    fn optimized_bisimilar_to_interpreted() {
        let expr = shared_counter_expr();
        let mut a = InterpretedProcess::compile(&expr);
        let mut b = optimize(&expr);
        check_bisimilar(&mut a, &mut b, Loc::new(0), &msgs(20)).unwrap();
    }

    #[test]
    fn gpm_complies_with_loe() {
        let expr = shared_counter_expr();
        check_complies_with_loe(&expr, Loc::new(1), &msgs(12)).unwrap();
    }

    #[test]
    fn divergence_reported() {
        // Two genuinely different processes diverge at the first recognized
        // event.
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        let dec = UpdateFn::new("dec", 1, |_l, _v, s| Value::Int(s.int() - 1));
        let mut a = InterpretedProcess::compile(&ClassExpr::base("m").state(Value::Int(0), inc));
        let mut b = InterpretedProcess::compile(&ClassExpr::base("m").state(Value::Int(0), dec));
        let err = check_bisimilar(&mut a, &mut b, Loc::new(0), &msgs(3)).unwrap_err();
        assert_eq!(err.step, 0);
        assert_eq!(err.left, vec![Value::Int(1)]);
        assert_eq!(err.right, vec![Value::Int(-1)]);
    }

    /// A CLK-shaped random stream: mostly well-formed `msg` deliveries with
    /// random values/timestamps, salted with unrecognized headers (which the
    /// dispatch table routes through its default slice).
    fn clk_stream(seed: u64, n: usize) -> Vec<Msg> {
        let mut rng = Rng(seed);
        (0..n)
            .map(|_| match rng.below(5) {
                0..=2 => clk_msg(Value::Int(rng.below(100) as i64), rng.below(50) as i64),
                3 => clk_msg(Value::str("s"), -(rng.below(10) as i64)),
                _ => Msg::new("unknown/header", Value::Int(rng.below(9) as i64)),
            })
            .collect()
    }

    #[test]
    fn clk_three_forms_agree_on_random_streams() {
        for seed in 1..=8u64 {
            check_all_forms(
                &handler_class(ring_handle(4)),
                None,
                Loc::new(1),
                &clk_stream(seed, 200),
            )
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            check_all_forms(
                &clock_class(),
                None,
                Loc::new(2),
                &clk_stream(seed * 77, 200),
            )
            .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn shared_counter_three_forms_agree() {
        for seed in [3u64, 99, 1234] {
            let mut rng = Rng(seed);
            let stream: Vec<Msg> = (0..150)
                .map(|_| {
                    let h = if rng.below(3) == 0 { "x" } else { "m" };
                    Msg::new(h, Value::Int(rng.below(64) as i64))
                })
                .collect();
            check_all_forms(&shared_counter_expr(), None, Loc::new(0), &stream)
                .unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn once_three_forms_agree_including_halted_tail() {
        // `Once` emits the inner class's first output then halts; the fused
        // evaluator models this with a flag, the interpreter by rewriting the
        // tree. After the first hit every later step must be empty in every
        // form — the stream keeps delivering long past the halt.
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        let once = ClassExpr::base("m").state(Value::Int(0), inc).once();
        check_all_forms(&once, None, Loc::new(0), &clk_stream(42, 100)).unwrap();

        // Foreign-header prefix: the inner class does not fire, so `Once`
        // must stay armed until the first recognized delivery.
        let mut stream: Vec<Msg> = (0..10).map(|i| Msg::new("noise", Value::Int(i))).collect();
        stream.extend((0..10).map(|i| Msg::new("m", Value::Int(i))));
        let once2 = ClassExpr::base("m").state(Value::Int(0), inc2()).once();
        check_all_forms(&once2, None, Loc::new(3), &stream).unwrap();

        // Once under composition: the composed handler sees the once-side
        // argument only while it is live.
        let h = HandlerFn::new("pairup", 1, |_l, args| {
            vec![Value::pair(args[0].clone(), args[1].clone())]
        });
        let counter = ClassExpr::base("m").state(Value::Int(0), inc2());
        let composed = ClassExpr::compose(h, vec![counter.clone().once(), counter]);
        check_all_forms(&composed, None, Loc::new(0), &clk_stream(7, 120)).unwrap();
    }

    fn inc2() -> UpdateFn {
        UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1))
    }

    #[test]
    fn parallel_three_forms_agree() {
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        let a = ClassExpr::base("a").state(Value::Int(0), inc.clone());
        let b = ClassExpr::base("b").state(Value::Int(100), inc);
        let par = ClassExpr::parallel(vec![a, b.once()]);
        let mut rng = Rng(5);
        let stream: Vec<Msg> = (0..200)
            .map(|_| {
                let h = ["a", "b", "c"][rng.below(3) as usize];
                Msg::new(h, Value::Int(rng.below(10) as i64))
            })
            .collect();
        check_all_forms(&par, None, Loc::new(0), &stream).unwrap();
    }
    /// A running tally whose state is `<count, total>`. With `forgetful`
    /// set, the decoder drops `total` — the kind of codec slip that makes
    /// the compiled form (which never decodes) drift from the interpreted
    /// ones (which decode every step).
    #[derive(Clone)]
    struct Tally<const FORGETFUL: bool> {
        count: i64,
        total: i64,
    }

    impl<const FORGETFUL: bool> MealyState for Tally<FORGETFUL> {
        fn encode(&self) -> Value {
            Value::pair(Value::Int(self.count), Value::Int(self.total))
        }
        fn decode(v: &Value) -> Self {
            let (count, total) = v.unpair();
            Tally {
                count: count.int(),
                total: if FORGETFUL { 0 } else { total.int() },
            }
        }
    }

    fn tally<const FORGETFUL: bool>() -> Mealy<Tally<FORGETFUL>> {
        let init = Tally { count: 0, total: 0 };
        Mealy::new("tally", 6, &["m"], init, |slf, _h, body, st, out| {
            st.count += 1;
            st.total += body.int();
            out.push(SendInstr::now(slf, Msg::new("tally", st.encode())));
        })
    }

    #[test]
    fn compiled_form_agrees_with_the_class_forms() {
        let spec = tally::<false>();
        check_all_forms(
            &spec.class(),
            Some(&mut spec.process()),
            Loc::new(0),
            &msgs(30),
        )
        .unwrap();
    }

    #[test]
    fn decoder_that_forgets_a_field_is_caught() {
        let spec = tally::<true>();
        let err = check_all_forms(
            &spec.class(),
            Some(&mut spec.process()),
            Loc::new(0),
            &msgs(30),
        )
        .unwrap_err();
        // The first delivery to find a non-zero total to lose: `m 0`, `m 1`
        // and the unrecognized `x 2` precede it.
        assert_eq!(err.step, 3);
        assert_ne!(err.left, err.right);
    }
}
