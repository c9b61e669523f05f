//! The program optimizer: fusion, common-subexpression elimination, and
//! header-indexed dispatch.
//!
//! The paper's optimizer "merges nested recursive functions into one and
//! also applies common subexpression elimination", producing code that is
//! faster (by a factor of two or more) and closer to what one would write by
//! hand, and Nuprl proves the optimized program *bisimilar* to the original
//! (Fig. 7).
//!
//! [`optimize`] performs the same transformation and then goes further on
//! the per-message hot path:
//!
//! * **Fusion** — the combinator tree is flattened into a topologically
//!   ordered op list evaluated by a single non-recursive loop.
//! * **CSE** — structurally identical subtrees are assigned a single op
//!   whose outputs — and, crucially, whose *state* — are shared.
//! * **Dead-op elimination** — ops unreachable from `main` after CSE are
//!   dropped and the op list compacted.
//! * **Header-indexed dispatch** — for every header symbol appearing in a
//!   base class, the (topologically ordered) slice of ops that can fire on
//!   it is precomputed; a step walks only that slice. Ops downstream of
//!   constant classes can fire on *any* header and form the default slice
//!   used for unknown headers.
//! * **Allocation-free stepping** — per-op output buffers are owned by the
//!   process and reused across steps; values are pushed in place instead of
//!   building fresh `Vec`s.
//!
//! Dispatch is sound because skipping an op is observably identical to
//! running it whenever it would produce nothing: all per-step buffers start
//! empty, a skipped op's buffer stays empty, and every op (`State`'s update,
//! `Once`'s flag, `Compose`'s handler) only acts when its inputs are
//! non-empty. The bisimulation proof becomes the executable check in
//! [`crate::bisim`], run for every shipped specification across its
//! program forms (interpreted, dispatch-fused and, for a `Mealy`
//! description, compiled).

use crate::ast::{ClassExpr, HandlerFn, Spec, UpdateFn};
use crate::process::{Ctx, HasherAdapter, Process};
use crate::value::{as_send_value, Header, Msg, SendInstr, Value};
use shadowdb_loe::Loc;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Index of an op within a fused program.
type OpId = usize;

#[derive(Clone, Debug)]
enum Op {
    Base(Header),
    Constant(Value),
    State {
        input: OpId,
        slot: usize,
        update: UpdateFn,
    },
    Compose {
        handler: HandlerFn,
        args: Vec<OpId>,
    },
    Parallel(Vec<OpId>),
    Once {
        inner: OpId,
        flag: usize,
    },
}

impl Op {
    fn inputs(&self) -> &[OpId] {
        match self {
            Op::Base(_) | Op::Constant(_) => &[],
            Op::State { input, .. } => std::slice::from_ref(input),
            Op::Compose { args, .. } => args,
            Op::Parallel(args) => args,
            Op::Once { inner, .. } => std::slice::from_ref(inner),
        }
    }
}

/// Which headers can make an op produce output (the dispatch analysis
/// domain).
#[derive(Clone, Debug)]
enum HeaderSet {
    /// Fires on every message (downstream of a constant class).
    All,
    /// Fires only on these header symbols.
    Finite(Vec<u32>),
}

/// Precomputed per-header active-op slices.
#[derive(Debug, Default)]
struct Dispatch {
    /// Symbol index → ops (ascending = topological order) that can fire.
    /// Dense: symbols are small global integers, so a direct-indexed table
    /// beats hashing on the per-message path. `None` marks symbols the
    /// program has no finite entry for (they fall through to `default`).
    by_symbol: Vec<Option<Vec<OpId>>>,
    /// Ops that fire on headers outside `by_symbol` (the `All` ops).
    default: Vec<OpId>,
}

/// The immutable part of a fused program, shared by all its process
/// instances.
#[derive(Debug)]
struct Program {
    ops: Vec<Op>,
    main: OpId,
    init_slots: Vec<Value>,
    n_flags: usize,
    dispatch: Dispatch,
}

impl Program {
    fn active_ops(&self, msg: &Msg) -> &[OpId] {
        match self.dispatch.by_symbol.get(msg.header.symbol().index()) {
            Some(Some(ops)) => ops,
            _ => &self.dispatch.default,
        }
    }
}

struct Builder {
    ops: Vec<Op>,
    init_slots: Vec<Value>,
    n_flags: usize,
    memo: HashMap<String, OpId>,
}

impl Builder {
    fn lower(&mut self, expr: &ClassExpr) -> OpId {
        let key = expr.structural_key();
        if let Some(&id) = self.memo.get(&key) {
            return id; // common subexpression: share op, outputs, and state
        }
        let op = match expr {
            ClassExpr::Base(h) => Op::Base(*h),
            ClassExpr::Constant(v) => Op::Constant(v.clone()),
            ClassExpr::State {
                init,
                update,
                input,
            } => {
                let input = self.lower(input);
                let slot = self.init_slots.len();
                self.init_slots.push(init.clone());
                Op::State {
                    input,
                    slot,
                    update: update.clone(),
                }
            }
            ClassExpr::Compose { handler, args } => {
                let args = args.iter().map(|a| self.lower(a)).collect();
                Op::Compose {
                    handler: handler.clone(),
                    args,
                }
            }
            ClassExpr::Parallel(args) => Op::Parallel(args.iter().map(|a| self.lower(a)).collect()),
            ClassExpr::Once(inner) => {
                let inner = self.lower(inner);
                let flag = self.n_flags;
                self.n_flags += 1;
                Op::Once { inner, flag }
            }
        };
        let id = self.ops.len();
        self.ops.push(op);
        self.memo.insert(key, id);
        id
    }
}

/// Drops ops unreachable from `main` and compacts ids (order-preserving, so
/// topological order survives). Returns the remapped op list, the new
/// `main`, and the slot/flag remappings applied to `init_slots`/`n_flags`.
fn eliminate_dead_ops(
    ops: Vec<Op>,
    main: OpId,
    init_slots: Vec<Value>,
) -> (Vec<Op>, OpId, Vec<Value>, usize) {
    let mut live = vec![false; ops.len()];
    let mut stack = vec![main];
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id], true) {
            continue;
        }
        stack.extend_from_slice(ops[id].inputs());
    }
    if live.iter().all(|&l| l) {
        let n_flags = ops
            .iter()
            .filter(|op| matches!(op, Op::Once { .. }))
            .count();
        return (ops, main, init_slots, n_flags);
    }
    let mut op_map = vec![usize::MAX; ops.len()];
    let mut slot_map: HashMap<usize, usize> = HashMap::new();
    let mut kept: Vec<Op> = Vec::new();
    let mut slots: Vec<Value> = Vec::new();
    let mut n_flags = 0;
    for (id, op) in ops.into_iter().enumerate() {
        if !live[id] {
            continue;
        }
        op_map[id] = kept.len();
        let remapped = match op {
            Op::Base(h) => Op::Base(h),
            Op::Constant(v) => Op::Constant(v),
            Op::State {
                input,
                slot,
                update,
            } => {
                let new_slot = *slot_map.entry(slot).or_insert_with(|| {
                    slots.push(init_slots[slot].clone());
                    slots.len() - 1
                });
                Op::State {
                    input: op_map[input],
                    slot: new_slot,
                    update,
                }
            }
            Op::Compose { handler, args } => Op::Compose {
                handler,
                args: args.into_iter().map(|a| op_map[a]).collect(),
            },
            Op::Parallel(args) => Op::Parallel(args.into_iter().map(|a| op_map[a]).collect()),
            Op::Once { inner, flag: _ } => {
                let flag = n_flags;
                n_flags += 1;
                Op::Once {
                    inner: op_map[inner],
                    flag,
                }
            }
        };
        kept.push(remapped);
    }
    let main = op_map[main];
    (kept, main, slots, n_flags)
}

/// Computes, per op, the set of header symbols on which it can produce
/// output, then inverts that into per-symbol active-op lists.
fn build_dispatch(ops: &[Op]) -> Dispatch {
    let mut sets: Vec<HeaderSet> = Vec::with_capacity(ops.len());
    for op in ops {
        let set = match op {
            Op::Base(h) => HeaderSet::Finite(vec![h.symbol().index() as u32]),
            Op::Constant(_) => HeaderSet::All,
            Op::State { input, .. } => sets[*input].clone(),
            Op::Once { inner, .. } => sets[*inner].clone(),
            Op::Compose { args, .. } => {
                // Fires only when every argument fires: intersection.
                let mut acc: Option<HeaderSet> = None;
                for a in args {
                    acc = Some(match (acc, &sets[*a]) {
                        (None, s) => s.clone(),
                        (Some(HeaderSet::All), s) => s.clone(),
                        (Some(s @ HeaderSet::Finite(_)), HeaderSet::All) => s,
                        (Some(HeaderSet::Finite(xs)), HeaderSet::Finite(ys)) => HeaderSet::Finite(
                            xs.iter().filter(|x| ys.contains(x)).copied().collect(),
                        ),
                    });
                }
                acc.unwrap_or(HeaderSet::Finite(Vec::new()))
            }
            Op::Parallel(args) => {
                // Fires when any argument fires: union.
                let mut acc = HeaderSet::Finite(Vec::new());
                for a in args {
                    acc = match (acc, &sets[*a]) {
                        (_, HeaderSet::All) | (HeaderSet::All, _) => HeaderSet::All,
                        (HeaderSet::Finite(mut xs), HeaderSet::Finite(ys)) => {
                            for y in ys {
                                if !xs.contains(y) {
                                    xs.push(*y);
                                }
                            }
                            HeaderSet::Finite(xs)
                        }
                    };
                }
                acc
            }
        };
        sets.push(set);
    }

    let mut dispatch = Dispatch::default();
    // Known symbols: everything mentioned by some finite set.
    let mut symbols: Vec<u32> = Vec::new();
    for set in &sets {
        if let HeaderSet::Finite(xs) = set {
            for &x in xs {
                if !symbols.contains(&x) {
                    symbols.push(x);
                }
            }
        }
    }
    let table_len = symbols.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
    dispatch.by_symbol = vec![None; table_len];
    for &s in &symbols {
        dispatch.by_symbol[s as usize] = Some(Vec::new());
    }
    for (id, set) in sets.iter().enumerate() {
        match set {
            HeaderSet::All => {
                dispatch.default.push(id);
                for &s in &symbols {
                    dispatch.by_symbol[s as usize]
                        .as_mut()
                        .expect("pre-seeded")
                        .push(id);
                }
            }
            HeaderSet::Finite(xs) => {
                for &x in xs {
                    dispatch.by_symbol[x as usize]
                        .as_mut()
                        .expect("pre-seeded")
                        .push(id);
                }
            }
        }
    }
    // Per-symbol lists were filled in ascending op order by construction
    // (one pass over ops), so they are already topologically sorted.
    dispatch
}

/// A fused, deduplicated process: the output of the optimizer.
///
/// Bisimilar to the [`InterpretedProcess`](crate::InterpretedProcess)
/// compiled from the same expression (checked by [`crate::bisim`]), but
/// evaluated by one flat pass over the ops reachable from the incoming
/// header, with shared subresults and no per-step allocation.
pub struct FusedProcess {
    program: Arc<Program>,
    slots: Vec<Value>,
    flags: Vec<bool>,
    /// Reused per-step output buffers, one per op (fusion's second win:
    /// no per-step allocation of the combinator plumbing).
    scratch: Vec<Vec<Value>>,
    /// Reused cross-product prefix buffer for `Compose` ops.
    cross_buf: Vec<Value>,
}

impl Clone for FusedProcess {
    fn clone(&self) -> FusedProcess {
        FusedProcess {
            program: self.program.clone(),
            slots: self.slots.clone(),
            flags: self.flags.clone(),
            scratch: fresh_scratch(self.program.ops.len()),
            cross_buf: Vec::with_capacity(4),
        }
    }
}

/// Pre-sized per-op output buffers: paying the small allocations at build
/// time keeps even a process's first step allocation-free.
fn fresh_scratch(n: usize) -> Vec<Vec<Value>> {
    (0..n).map(|_| Vec::with_capacity(4)).collect()
}

impl std::fmt::Debug for FusedProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedProcess")
            .field("ops", &self.program.ops.len())
            .field("slots", &self.slots)
            .field("flags", &self.flags)
            .finish()
    }
}

/// Optimizes a class expression into a fused process.
pub fn optimize(expr: &ClassExpr) -> FusedProcess {
    let mut b = Builder {
        ops: Vec::new(),
        init_slots: Vec::new(),
        n_flags: 0,
        memo: HashMap::new(),
    };
    let main = b.lower(expr);
    let (ops, main, init_slots, n_flags) = eliminate_dead_ops(b.ops, main, b.init_slots);
    let dispatch = build_dispatch(&ops);
    let program = Program {
        ops,
        main,
        init_slots,
        n_flags,
        dispatch,
    };
    FusedProcess {
        slots: program.init_slots.clone(),
        flags: vec![false; program.n_flags],
        scratch: fresh_scratch(program.ops.len()),
        cross_buf: Vec::with_capacity(4),
        program: Arc::new(program),
    }
}

/// Optimizes a specification's main class.
pub fn optimize_spec(spec: &Spec) -> FusedProcess {
    optimize(spec.main())
}

impl FusedProcess {
    /// Evaluates one message into the per-op scratch buffers; `main`'s
    /// buffer holds the output bag afterwards.
    fn run(&mut self, slf: Loc, msg: &Msg) {
        // Destructure: `program` (shared, read-only) and the mutable
        // per-process buffers are disjoint fields, so no Arc refcount
        // traffic is needed on the per-message path.
        let FusedProcess {
            program,
            slots,
            flags,
            scratch,
            cross_buf,
        } = self;
        let ops = &program.ops;
        let active = program.active_ops(msg);
        // Clearing every buffer (not just the active ones) is what makes
        // skipping an op sound: a skipped op's output reads as empty.
        // `clear` keeps capacity, so steady-state steps never allocate.
        for o in scratch.iter_mut() {
            o.clear();
        }
        // One pass in topological order; children precede parents by
        // construction, so each op's inputs are ready when it runs. Op `i`
        // only reads outputs of ops `< i`, which `split_at_mut` exposes
        // alongside `i`'s own buffer.
        for &i in active {
            let (before, rest) = scratch.split_at_mut(i);
            let out = &mut rest[0];
            match &ops[i] {
                Op::Base(h) => {
                    if msg.header == *h {
                        out.push(msg.body.clone());
                    }
                }
                Op::Constant(v) => out.push(v.clone()),
                Op::State {
                    input,
                    slot,
                    update,
                } => {
                    let inputs = &before[*input];
                    if !inputs.is_empty() {
                        let st = &mut slots[*slot];
                        for v in inputs {
                            *st = update.apply(slf, v, st);
                        }
                        out.push(st.clone());
                    }
                }
                Op::Compose { handler, args } => {
                    if args.iter().all(|a| !before[*a].is_empty()) {
                        cross_buf.clear();
                        cross(before, args, cross_buf, &mut |combo| {
                            out.extend(handler.apply(slf, combo));
                        });
                    }
                }
                Op::Parallel(args) => {
                    for a in args {
                        out.extend_from_slice(&before[*a]);
                    }
                }
                Op::Once { inner, flag } => {
                    if !flags[*flag] && !before[*inner].is_empty() {
                        flags[*flag] = true;
                        out.push(before[*inner][0].clone());
                    }
                }
            }
        }
    }

    /// Evaluates one message and returns the entire output bag (the
    /// fused analogue of
    /// [`InterpretedProcess::step_values`](crate::InterpretedProcess::step_values)).
    pub fn step_values(&mut self, slf: Loc, msg: &Msg) -> Vec<Value> {
        self.run(slf, msg);
        std::mem::take(&mut self.scratch[self.program.main])
    }

    /// Program size of the fused program (Table I, "opt. GPM prog."
    /// column): each op costs a small flat-dispatch overhead plus its leaf
    /// function's declared size, and state slots cost one node each.
    /// Smaller than the interpreted program whenever the specification
    /// shares subexpressions (CSE) — and always free of the per-node
    /// recursion machinery fusion eliminates.
    pub fn program_nodes(&self) -> usize {
        const OP_OVERHEAD: usize = 3;
        let ops: usize = self
            .program
            .ops
            .iter()
            .map(|op| {
                OP_OVERHEAD
                    + match op {
                        Op::Base(_) | Op::Constant(_) => 1,
                        Op::State { update, .. } => update.nodes(),
                        Op::Compose { handler, .. } => handler.nodes(),
                        Op::Parallel(_) => 1,
                        Op::Once { .. } => 1,
                    }
            })
            .sum();
        ops + self.program.init_slots.len() + self.program.n_flags
    }
}

/// Enumerates the cross product of the argument buffers in lexicographic
/// order, reusing `prefix` as the combination being built.
fn cross(
    outs: &[Vec<Value>],
    args: &[OpId],
    prefix: &mut Vec<Value>,
    emit: &mut impl FnMut(&[Value]),
) {
    if prefix.len() == args.len() {
        emit(prefix);
        return;
    }
    let arg = args[prefix.len()];
    for idx in 0..outs[arg].len() {
        prefix.push(outs[arg][idx].clone());
        cross(outs, args, prefix, emit);
        prefix.pop();
    }
}

impl Process for FusedProcess {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        self.run(ctx.slf, msg);
        for v in &self.scratch[self.program.main] {
            if let Some(instr) = as_send_value(v) {
                out.push(instr);
            }
        }
    }
    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(self.clone())
    }
    fn digest(&self, hasher: &mut dyn Hasher) {
        let mut h = HasherAdapter(hasher);
        self.slots.hash(&mut h);
        self.flags.hash(&mut h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{HandlerFn, UpdateFn};
    use crate::compile::InterpretedProcess;

    fn l(i: u32) -> Loc {
        Loc::new(i)
    }

    fn counter_expr() -> ClassExpr {
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        ClassExpr::base("m").state(Value::Int(0), inc)
    }

    #[test]
    fn fused_matches_interpreted_on_counter() {
        let expr = counter_expr();
        let mut a = InterpretedProcess::compile(&expr);
        let mut b = optimize(&expr);
        for i in 0..5 {
            let m = Msg::new(if i % 2 == 0 { "m" } else { "x" }, Value::Int(i));
            assert_eq!(a.step_values(l(0), &m), b.step_values(l(0), &m));
        }
    }

    #[test]
    fn cse_shares_duplicate_state_machines() {
        // The same counter used twice: unoptimized keeps two copies of the
        // state; optimized keeps one op (and one slot).
        let h = HandlerFn::new("both", 1, |_l, args| {
            vec![Value::pair(args[0].clone(), args[1].clone())]
        });
        let expr = ClassExpr::compose(h, vec![counter_expr(), counter_expr()]);
        let interp = InterpretedProcess::compile(&expr);
        let fused = optimize(&expr);
        // compose(5+1) + 2×(state(5+1) + base(5+1)) = 30
        assert_eq!(interp.program_nodes(), 30);
        // compose(3+1) + state(3+1) + base(3+1) + 1 slot = 13
        assert_eq!(fused.program_nodes(), 13);
        // And behaviour agrees.
        let mut a = interp.clone();
        let mut b = fused.clone();
        for i in 0..4 {
            let m = Msg::new("m", Value::Int(i));
            assert_eq!(a.step_values(l(0), &m), b.step_values(l(0), &m));
        }
    }

    #[test]
    fn once_flag_preserved_across_clone() {
        let expr = ClassExpr::base("m").once();
        let mut p = optimize(&expr);
        p.step_values(l(0), &Msg::new("m", Value::Unit));
        let mut q = p.clone();
        assert!(q.step_values(l(0), &Msg::new("m", Value::Unit)).is_empty());
    }

    #[test]
    fn digest_reflects_slots() {
        let expr = counter_expr();
        let mut p = optimize(&expr);
        let q = optimize(&expr);
        assert_eq!(
            crate::process::fingerprint(&p),
            crate::process::fingerprint(&q)
        );
        p.step_values(l(0), &Msg::new("m", Value::Unit));
        assert_ne!(
            crate::process::fingerprint(&p),
            crate::process::fingerprint(&q)
        );
    }

    #[test]
    fn dispatch_skips_unrelated_ops_but_state_still_advances() {
        // Two counters on different headers; a message for one must not
        // disturb (or even run) the other.
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        let expr = ClassExpr::parallel(vec![
            ClassExpr::base("left").state(Value::Int(0), inc.clone()),
            ClassExpr::base("right").state(Value::Int(100), inc),
        ]);
        let mut p = optimize(&expr);
        assert_eq!(
            p.step_values(l(0), &Msg::new("left", Value::Unit)),
            vec![Value::Int(1)]
        );
        assert_eq!(
            p.step_values(l(0), &Msg::new("right", Value::Unit)),
            vec![Value::Int(101)]
        );
        assert_eq!(
            p.step_values(l(0), &Msg::new("left", Value::Unit)),
            vec![Value::Int(2)]
        );
        assert!(p
            .step_values(l(0), &Msg::new("neither", Value::Unit))
            .is_empty());
    }

    #[test]
    fn constants_fire_on_unknown_headers() {
        // A constant composed with a counter: the constant leg is
        // header-independent (`All`), the counter leg finite. The compose
        // fires exactly on the counter's header.
        let h = HandlerFn::new("pairup", 1, |_l, args| {
            vec![Value::pair(args[0].clone(), args[1].clone())]
        });
        let expr = ClassExpr::compose(
            h,
            vec![ClassExpr::Constant(Value::Int(7)), ClassExpr::base("m")],
        );
        let mut p = optimize(&expr);
        let mut q = InterpretedProcess::compile(&expr);
        for hname in ["m", "other", "m", "stranger"] {
            let m = Msg::new(hname, Value::Int(1));
            assert_eq!(p.step_values(l(0), &m), q.step_values(l(0), &m));
        }
        // A bare constant produces on every header, known or not.
        let mut c = optimize(&ClassExpr::Constant(Value::Int(9)));
        assert_eq!(
            c.step_values(l(0), &Msg::new("anything", Value::Unit)),
            vec![Value::Int(9)]
        );
    }

    #[test]
    fn dead_op_elimination_keeps_live_programs_intact() {
        // Lowering never produces unreachable ops today, so the pass must
        // be the identity on every real program.
        let h = HandlerFn::new("both", 1, |_l, args| {
            vec![Value::pair(args[0].clone(), args[1].clone())]
        });
        let expr = ClassExpr::compose(h, vec![counter_expr(), counter_expr().once()]).once();
        let p = optimize(&expr);
        assert_eq!(p.program.main, p.program.ops.len() - 1);
    }

    #[test]
    fn dead_op_elimination_compacts_unreachable_ops() {
        // Drive the pass directly with a hand-built op list whose op 0 is
        // unreachable from main.
        let inc = UpdateFn::new("inc", 1, |_l, _v, s| Value::Int(s.int() + 1));
        let ops = vec![
            Op::Base(Header::new("dead")),
            Op::Base(Header::new("live")),
            Op::State {
                input: 1,
                slot: 1,
                update: inc,
            },
            Op::Once { inner: 2, flag: 3 },
        ];
        let slots = vec![Value::Int(-1), Value::Int(0)];
        let (kept, main, slots, n_flags) = eliminate_dead_ops(ops, 3, slots);
        assert_eq!(kept.len(), 3);
        assert_eq!(main, 2);
        assert_eq!(slots, vec![Value::Int(0)]);
        assert_eq!(n_flags, 1);
        match &kept[1] {
            Op::State { input, slot, .. } => {
                assert_eq!(*input, 0);
                assert_eq!(*slot, 0);
            }
            other => panic!("expected remapped State, got {other:?}"),
        }
        match &kept[2] {
            Op::Once { inner, flag } => {
                assert_eq!(*inner, 1);
                assert_eq!(*flag, 0);
            }
            other => panic!("expected remapped Once, got {other:?}"),
        }
    }

    #[test]
    fn scratch_buffers_do_not_leak_between_steps() {
        // A header the program knows, then one it does not, then the known
        // one again: stale outputs must never resurface.
        let expr = counter_expr();
        let mut p = optimize(&expr);
        assert_eq!(
            p.step_values(l(0), &Msg::new("m", Value::Unit)),
            vec![Value::Int(1)]
        );
        assert!(p.step_values(l(0), &Msg::new("x", Value::Unit)).is_empty());
        assert_eq!(
            p.step_values(l(0), &Msg::new("m", Value::Unit)),
            vec![Value::Int(2)]
        );
    }
}
