//! Specification patterns: reusable combinator idioms.
//!
//! The paper stresses that LoE "captures some design patterns that
//! distributed system developers often use". The two idioms here cover most
//! protocol specifications in this repository:
//!
//! * [`tagged_union`] — listen to several message kinds at once, tagging
//!   each output with its header (the typical input side of a protocol);
//! * [`Mealy`] — a state machine that also *emits* messages on each
//!   transition, described once and derived two ways.
//!
//! A [`Mealy`] description is the headers the machine listens to, its
//! initial *typed* state, that state's canonical [`Value`] encoding
//! ([`MealyState`]) and **one** transition function over the typed state.
//! [`Mealy::class`] embeds it in the combinator algebra — built from `State`
//! and composition exactly as the paper's `Handler = on_msg o (msg'base,
//! Clock)` builds CLK, keeping `<core-state, pending-outputs>` in the
//! `State` class and releasing the pending outputs through the composed
//! handler — where each step decodes the state, runs the transition and
//! re-encodes it. [`Mealy::process`] lowers the same transition to a native
//! [`Process`] that keeps the typed state across steps: the analogue of the
//! paper's Lisp-compiled backend. The refinement link between the two is
//! checked, not assumed: [`crate::bisim::check_all_forms`] drives both over
//! the same message streams.

use crate::ast::{ClassExpr, HandlerFn, UpdateFn};
use crate::bisim::Observable;
use crate::process::{Ctx, HasherAdapter, Process};
use crate::value::{send_value, Header, Msg, SendInstr, Value};
use shadowdb_loe::Loc;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Builds the parallel composition of base classes for `headers`, each
/// output tagged `<header, body>` so one state machine can dispatch on kind.
pub fn tagged_union(headers: &[&'static str]) -> ClassExpr {
    let args: Vec<ClassExpr> = headers
        .iter()
        .map(|h| {
            let name: &'static str = h;
            // The tag string is built once and shared: per-message cost is
            // a refcount bump, not an allocation.
            let tag_value = Value::str(name);
            let tag = HandlerFn::new(name, 2, move |_slf, args| {
                vec![Value::pair(tag_value.clone(), args[0].clone())]
            });
            ClassExpr::compose(tag, vec![ClassExpr::base(*h)])
        })
        .collect();
    if args.len() == 1 {
        args.into_iter().next().expect("one element")
    } else {
        ClassExpr::parallel(args)
    }
}

/// The typed state of a [`Mealy`] machine and its canonical encoding in the
/// value universe.
///
/// The encoding must be *canonical* — equal states encode to equal values —
/// because state digests (and with them the model checker's deduplication)
/// are taken over it, and `decode(encode(s))` must behave as `s` from then
/// on: the interpreted forms round-trip the state through it on every step.
pub trait MealyState: Clone + Send + 'static {
    /// The canonical encoding of this state.
    fn encode(&self) -> Value;
    /// The state a canonical encoding stands for.
    fn decode(v: &Value) -> Self;
}

/// A machine whose state already lives in the value universe.
impl MealyState for Value {
    fn encode(&self) -> Value {
        self.clone()
    }
    fn decode(v: &Value) -> Value {
        v.clone()
    }
}

/// The transition of a [`Mealy`] machine: `(slf, header, body, state, out)`.
/// It mutates the typed state in place and appends the messages to send.
type Transition<S> = dyn Fn(Loc, Header, &Value, &mut S, &mut Vec<SendInstr>) + Send + Sync;

/// The typed description of a Mealy-style specification (see the module
/// docs): every executable form of the machine is derived from this value.
///
/// # Example
///
/// ```
/// use shadowdb_eventml::patterns::Mealy;
/// use shadowdb_eventml::{Ctx, InterpretedProcess, Msg, Process, SendInstr, Value};
/// use shadowdb_loe::Loc;
///
/// // Echo every "ping" to a fixed peer, counting pings in the state.
/// let echoer = Mealy::new("echoer", 8, &["ping"], Value::Int(0), |_slf, _h, _body, n, out| {
///     *n = Value::Int(n.int() + 1);
///     out.push(SendInstr::now(Loc::new(7), Msg::new("pong", n.clone())));
/// });
/// let ctx = Ctx::at(Loc::new(0));
/// let ping = Msg::new("ping", Value::Unit);
/// let mut interpreted = InterpretedProcess::compile(&echoer.class());
/// let mut compiled = echoer.process();
/// assert_eq!(interpreted.step(&ctx, &ping), compiled.step(&ctx, &ping));
/// assert_eq!(compiled.step(&ctx, &ping)[0].msg.body, Value::Int(2));
/// ```
pub struct Mealy<S> {
    name: &'static str,
    trans_nodes: usize,
    headers: Arc<[Header]>,
    init: S,
    transition: Arc<Transition<S>>,
}

impl<S: MealyState> Mealy<S> {
    /// Describes a machine listening to `headers`, starting in `init`.
    ///
    /// `name` identifies the transition function within a specification and
    /// `trans_nodes` is its declared AST weight (see [`UpdateFn::new`]).
    /// The transition is only ever called with one of `headers`.
    pub fn new(
        name: &'static str,
        trans_nodes: usize,
        headers: &[&'static str],
        init: S,
        transition: impl Fn(Loc, Header, &Value, &mut S, &mut Vec<SendInstr>) + Send + Sync + 'static,
    ) -> Mealy<S> {
        Mealy {
            name,
            trans_nodes,
            headers: headers.iter().map(|h| Header::new(h)).collect(),
            init,
            transition: Arc::new(transition),
        }
    }

    /// The machine as a class expression: a `State` class over the tagged
    /// union of the headers, holding `<encoded state, pending outputs>`,
    /// composed with a handler that releases the pending outputs. Each
    /// transition is decode → transition → encode.
    pub fn class(&self) -> ClassExpr {
        let headers = self.headers.clone();
        let transition = self.transition.clone();
        let update = UpdateFn::new(self.name, self.trans_nodes, move |slf, tagged, state| {
            let (tag, body) = tagged.unpair();
            let tag = tag.as_str().expect("tagged input");
            let header = *headers
                .iter()
                .find(|h| h.name() == tag)
                .expect("tag of a listened header");
            let mut core = S::decode(state.fst().expect("mealy state is <core, outputs>"));
            let mut sends = Vec::new();
            transition(slf, header, body, &mut core, &mut sends);
            let outputs: Value = if sends.is_empty() {
                empty_outputs()
            } else {
                sends.iter().map(send_value).collect()
            };
            Value::pair(core.encode(), outputs)
        });
        let names: Vec<&'static str> = self.headers.iter().map(Header::name).collect();
        let state_class =
            tagged_union(&names).state(Value::pair(self.init.encode(), empty_outputs()), update);
        let emit = HandlerFn::new("emit_pending", 3, |_slf, args| {
            args[0]
                .snd()
                .map(|outs| outs.elems().to_vec())
                .unwrap_or_default()
        });
        ClassExpr::compose(emit, vec![state_class])
    }

    /// The machine lowered to a native process over its typed state.
    pub fn process(&self) -> MealyProcess<S> {
        MealyProcess {
            headers: self.headers.clone(),
            transition: self.transition.clone(),
            state: self.init.clone(),
        }
    }
}

/// The cached empty output list (most transitions emit nothing; returning
/// the shared empty list keeps those steps allocation-free).
fn empty_outputs() -> Value {
    static EMPTY: std::sync::OnceLock<Value> = std::sync::OnceLock::new();
    EMPTY
        .get_or_init(|| Value::list(std::iter::empty()))
        .clone()
}

/// A [`Mealy`] machine running natively: the typed state is kept across
/// steps, dispatch is on the interned header (messages with any other
/// header are ignored, as the class form's recognizers ignore them), and
/// the digest is taken over the state's full canonical encoding.
#[derive(Clone)]
pub struct MealyProcess<S> {
    headers: Arc<[Header]>,
    transition: Arc<Transition<S>>,
    state: S,
}

impl<S> MealyProcess<S> {
    /// Read access to the typed state (for assertions in tests).
    pub fn state(&self) -> &S {
        &self.state
    }
}

impl<S: MealyState> Process for MealyProcess<S> {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        if self.headers.contains(&msg.header) {
            (self.transition)(ctx.slf, msg.header, &msg.body, &mut self.state, out);
        }
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        self.state.encode().hash(&mut HasherAdapter(hasher));
    }
}

impl<S: MealyState> Observable for MealyProcess<S> {
    fn observe_step(&mut self, slf: Loc, msg: &Msg) -> Vec<Value> {
        self.step(&Ctx::at(slf), msg)
            .iter()
            .map(send_value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::InterpretedProcess;

    #[test]
    fn tagged_union_tags_by_header() {
        let expr = tagged_union(&["a", "b"]);
        let mut p = InterpretedProcess::compile(&expr);
        let out = p.step_values(Loc::new(0), &Msg::new("b", Value::Int(5)));
        assert_eq!(out, vec![Value::pair(Value::str("b"), Value::Int(5))]);
        assert!(p
            .step_values(Loc::new(0), &Msg::new("c", Value::Unit))
            .is_empty());
    }

    /// Adds on "add", reports the running total to itself on "query".
    fn adder() -> Mealy<Value> {
        Mealy::new(
            "adder",
            4,
            &["add", "query"],
            Value::Int(0),
            |slf, header, body, total, out| match header.name() {
                "add" => *total = Value::Int(total.int() + body.int()),
                _ => out.push(SendInstr::now(slf, Msg::new("total", total.clone()))),
            },
        )
    }

    #[test]
    fn mealy_threads_state_and_emits_in_every_form() {
        let spec = adder();
        let forms: [Box<dyn Process>; 3] = [
            Box::new(InterpretedProcess::compile(&spec.class())),
            Box::new(crate::optimize::optimize(&spec.class())),
            Box::new(spec.process()),
        ];
        for mut p in forms {
            let ctx = Ctx::at(Loc::new(3));
            assert!(p.step(&ctx, &Msg::new("add", Value::Int(4))).is_empty());
            assert!(p.step(&ctx, &Msg::new("add", Value::Int(6))).is_empty());
            assert!(p.step(&ctx, &Msg::new("noise", Value::Unit)).is_empty());
            let out = p.step(&ctx, &Msg::new("query", Value::Unit));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].msg.body, Value::Int(10));
            assert_eq!(out[0].dest, Loc::new(3));
        }
    }

    #[test]
    fn process_digest_is_the_digest_of_the_encoding() {
        use crate::process::fingerprint;
        let ctx = Ctx::at(Loc::new(0));
        let (mut a, mut b) = (adder().process(), adder().process());
        a.step(&ctx, &Msg::new("add", Value::Int(3)));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        b.step(&ctx, &Msg::new("add", Value::Int(1)));
        b.step(&ctx, &Msg::new("add", Value::Int(2)));
        assert_eq!(a.state(), b.state());
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
