//! The traced run's instrument: a runtime wrapper that times every process
//! step from outside.
//!
//! [`SpanRuntime`] hands the unmodified deployment builders a [`Runtime`]
//! whose `add_node*`/`restart_at` wrap each process in a [`Spanned`]
//! decorator. The decorator times `Process::step_into` and records one
//! [`Span`] per step; nothing inside the program changes. Spans stay in
//! per-node memory (each node is stepped by one shard thread, so the
//! buffers are uncontended) and are collected after the run.

use parking_lot::Mutex;
use shadowdb::msgs::{REPLY_HEADER, SUBMIT_HEADER};
use shadowdb_consensus::DECIDE_HEADER;
use shadowdb_eventml::codec::encoded_len;
use shadowdb_eventml::{cached_header, Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_runtime::{CostModel, FaultPlan, PortRx, Runtime, StorageMode};
use shadowdb_tob::{BROADCAST_HEADER, DELIVER_HEADER};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed `Process::step_into`.
#[derive(Clone, Debug)]
pub struct Span {
    pub loc: u32,
    /// Header of the message that caused the step.
    pub header: &'static str,
    /// Step start, nanoseconds on the runtime clock.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Messages the step emitted toward other locations, and their framed
    /// size on the wire.
    pub frames: u32,
    pub bytes: u32,
    /// `(client, cseq)` when the inbound message names a request.
    pub req: Option<(u32, i64)>,
    /// The step emitted an `sdb/reply`.
    pub replied: bool,
    /// The consensus instance of a `cs/decide` step.
    pub slot: Option<i64>,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Every `FRAME_SAMPLE_STRIDE`-th emitted frame of a node is kept (up to
/// `FRAME_SAMPLE_CAP`) so the codec replay runs over the real frame mix.
const FRAME_SAMPLE_STRIDE: u32 = 32;
const FRAME_SAMPLE_CAP: usize = 2_048;

#[derive(Default)]
struct NodeTrace {
    spans: Vec<Span>,
    frames_seen: u32,
    frame_sample: Vec<Msg>,
}

/// Where all nodes' traces end up; shared between the wrapper and the
/// decorators.
pub struct SpanSink {
    epoch: Instant,
    /// Runtime-clock reading at `epoch`, nanoseconds.
    epoch_ns: u64,
    nodes: Mutex<Vec<Arc<Mutex<NodeTrace>>>>,
}

impl SpanSink {
    fn register(&self) -> Arc<Mutex<NodeTrace>> {
        let t = Arc::new(Mutex::new(NodeTrace::default()));
        self.nodes.lock().push(t.clone());
        t
    }

    /// All recorded spans (start order) and the sampled frames.
    pub fn collect(&self) -> (Vec<Span>, Vec<Msg>) {
        let mut spans = Vec::new();
        let mut frames = Vec::new();
        for n in self.nodes.lock().iter() {
            let mut n = n.lock();
            spans.append(&mut n.spans);
            frames.append(&mut n.frame_sample);
        }
        spans.sort_by_key(|s| s.start_ns);
        (spans, frames)
    }
}

/// Size of `msg` as one tcpnet frame: `[u32 frame len][u32 header len]
/// [header][body]`.
pub fn frame_len(msg: &Msg) -> usize {
    8 + msg.header.name().len() + encoded_len(&msg.body)
}

/// `<client, <cseq, ..>>` — the head of a transaction envelope.
fn envelope_id(v: &Value) -> Option<(u32, i64)> {
    Some((v.fst()?.as_loc()?.index(), v.snd()?.fst()?.as_int()?))
}

/// The `(client, cseq)` a message names, for the four message shapes that
/// carry one: submissions, replies (addressed to the client `slf`),
/// broadcasts and deliveries of a transaction envelope.
fn request_id(slf: Loc, msg: &Msg) -> Option<(u32, i64)> {
    let h = msg.header;
    if h == cached_header!(SUBMIT_HEADER) {
        envelope_id(&msg.body)
    } else if h == cached_header!(REPLY_HEADER) {
        Some((slf.index(), msg.body.snd()?.fst()?.as_int()?))
    } else if h == cached_header!(BROADCAST_HEADER) {
        envelope_id(msg.body.snd()?.snd()?)
    } else if h == cached_header!(DELIVER_HEADER) {
        envelope_id(msg.body.snd()?.snd()?.snd()?)
    } else {
        None
    }
}

/// The decorator: times the wrapped process's steps.
pub struct Spanned {
    inner: Box<dyn Process>,
    sink: Arc<SpanSink>,
    trace: Arc<Mutex<NodeTrace>>,
}

impl Process for Spanned {
    fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
        let first = out.len();
        let t0 = Instant::now();
        self.inner.step_into(ctx, msg, out);
        let dur = t0.elapsed();

        let (mut frames, mut bytes, mut replied) = (0u32, 0u32, false);
        let mut trace = self.trace.lock();
        for o in &out[first..] {
            if o.dest == ctx.slf {
                continue; // timers and self-sends never reach a socket
            }
            frames += 1;
            bytes += frame_len(&o.msg) as u32;
            replied |= o.msg.header == cached_header!(REPLY_HEADER);
            trace.frames_seen += 1;
            if trace.frames_seen.is_multiple_of(FRAME_SAMPLE_STRIDE)
                && trace.frame_sample.len() < FRAME_SAMPLE_CAP
            {
                trace.frame_sample.push(o.msg.clone());
            }
        }
        let slot = (msg.header == cached_header!(DECIDE_HEADER))
            .then(|| msg.body.fst().and_then(Value::as_int))
            .flatten();
        trace.spans.push(Span {
            loc: ctx.slf.index(),
            header: msg.header.name(),
            start_ns: self.sink.epoch_ns
                + t0.saturating_duration_since(self.sink.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            frames,
            bytes,
            req: request_id(ctx.slf, msg),
            replied,
            slot,
        });
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }

    fn take_step_cost(&mut self) -> Duration {
        self.inner.take_step_cost()
    }

    fn clone_box(&self) -> Box<dyn Process> {
        Box::new(Spanned {
            inner: self.inner.clone_box(),
            sink: self.sink.clone(),
            trace: self.trace.clone(),
        })
    }

    fn digest(&self, hasher: &mut dyn Hasher) {
        self.inner.digest(hasher)
    }
}

/// A [`Runtime`] that decorates every hosted process with [`Spanned`] and
/// otherwise delegates to the runtime it wraps.
pub struct SpanRuntime<R: Runtime> {
    pub inner: R,
    sink: Arc<SpanSink>,
}

impl<R: Runtime> SpanRuntime<R> {
    pub fn new(inner: R) -> SpanRuntime<R> {
        let epoch = Instant::now();
        let epoch_ns = inner.now().as_micros() * 1_000;
        SpanRuntime {
            inner,
            sink: Arc::new(SpanSink {
                epoch,
                epoch_ns,
                nodes: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn sink(&self) -> Arc<SpanSink> {
        self.sink.clone()
    }

    fn wrap(&self, process: Box<dyn Process>) -> Box<dyn Process> {
        Box::new(Spanned {
            inner: process,
            sink: self.sink.clone(),
            trace: self.sink.register(),
        })
    }
}

impl<R: Runtime> Runtime for SpanRuntime<R> {
    fn add_node(&mut self, process: Box<dyn Process>) -> Loc {
        let p = self.wrap(process);
        self.inner.add_node(p)
    }

    fn add_node_colocated(&mut self, process: Box<dyn Process>, peer: Loc) -> Loc {
        let p = self.wrap(process);
        self.inner.add_node_colocated(p, peer)
    }

    fn add_node_late(&mut self, process: Box<dyn Process>) -> Loc {
        let p = self.wrap(process);
        self.inner.add_node_late(p)
    }

    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn now(&self) -> VTime {
        self.inner.now()
    }

    fn send_at(&mut self, at: VTime, dest: Loc, msg: Msg) {
        self.inner.send_at(at, dest, msg)
    }

    fn crash_at(&mut self, at: VTime, loc: Loc) {
        self.inner.crash_at(at, loc)
    }

    fn restart_at(&mut self, at: VTime, loc: Loc, process: Box<dyn Process>) {
        let p = self.wrap(process);
        self.inner.restart_at(at, loc, p)
    }

    fn set_cost_model(&mut self, cost: Box<dyn CostModel>) {
        self.inner.set_cost_model(cost)
    }

    fn port(&mut self) -> (Loc, PortRx) {
        self.inner.port()
    }

    fn run_for(&mut self, duration: Duration) {
        self.inner.run_for(duration)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.install_fault_plan(plan)
    }

    fn fault_stats(&self) -> (u64, u64) {
        self.inner.fault_stats()
    }

    fn storage_mode(&self) -> StorageMode {
        self.inner.storage_mode()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// child spans cover. Children may overlap each other and may stick out of
/// the parent; only their union clipped to the parent counts.
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = ps;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(pe);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    pe.saturating_sub(ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb::msgs::{reply_msg, submit_msg, TxnEnvelope};
    use shadowdb_tob::broadcast_msg;
    use shadowdb_workloads::TxnRequest;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 100..200. Children: 110..130, 120..150 (overlap: union
        // 110..150 = 40), 190..260 (clipped to 190..200 = 10), 20..90
        // (outside: 0).
        let mut kids = vec![(190, 260), (120, 150), (20, 90), (110, 130)];
        assert_eq!(self_time((100, 200), &mut kids), 100 - 40 - 10);
        assert_eq!(self_time((100, 200), &mut []), 100);
        // A child covering everything leaves nothing.
        assert_eq!(self_time((100, 200), &mut [(0, 1_000)]), 0);
        // Touching children do not double count.
        assert_eq!(self_time((0, 30), &mut [(0, 10), (10, 20)]), 10);
    }

    #[test]
    fn request_ids_are_read_from_all_four_carriers() {
        let client = Loc::new(3);
        let env = TxnEnvelope::new(client, 17, TxnRequest::BankRead { account: 5 });
        let at = Loc::new(9);
        assert_eq!(request_id(at, &submit_msg(&env)), Some((3, 17)));
        assert_eq!(
            request_id(at, &broadcast_msg(client, 40, env.to_value())),
            Some((3, 17))
        );
        let deliver = Msg::new(
            DELIVER_HEADER,
            Value::pair(
                Value::Int(8),
                Value::pair(
                    Value::Loc(client),
                    Value::pair(Value::Int(40), env.to_value()),
                ),
            ),
        );
        assert_eq!(request_id(at, &deliver), Some((3, 17)));
        assert_eq!(
            request_id(client, &reply_msg(at, 17, true, &[])),
            Some((3, 17))
        );
        // A broadcast whose payload is not an envelope names no request.
        assert_eq!(
            request_id(at, &broadcast_msg(client, 1, Value::str("lease!"))),
            None
        );
        assert_eq!(request_id(at, &Msg::new("px/p2a", Value::Unit)), None);
    }

    /// The decorator forwards the step untouched and records what it saw.
    #[test]
    fn spanned_records_one_span_per_step() {
        struct Echo;
        impl Process for Echo {
            fn step_into(&mut self, ctx: &Ctx, msg: &Msg, out: &mut Vec<SendInstr>) {
                out.push(SendInstr::now(Loc::new(1), msg.clone()));
                out.push(SendInstr::after(
                    Duration::from_secs(1),
                    ctx.slf,
                    Msg::new("timer", Value::Unit),
                ));
            }
            fn clone_box(&self) -> Box<dyn Process> {
                Box::new(Echo)
            }
            fn digest(&self, _h: &mut dyn Hasher) {}
        }
        let sink = Arc::new(SpanSink {
            epoch: Instant::now(),
            epoch_ns: 5_000,
            nodes: Mutex::new(Vec::new()),
        });
        let mut p = Spanned {
            inner: Box::new(Echo),
            trace: sink.register(),
            sink: sink.clone(),
        };
        let env = TxnEnvelope::new(Loc::new(0), 2, TxnRequest::BankRead { account: 1 });
        let msg = submit_msg(&env);
        let mut out = Vec::new();
        p.step_into(&Ctx::at(Loc::new(7)), &msg, &mut out);
        assert_eq!(out.len(), 2, "outputs pass through");
        let (spans, _) = sink.collect();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.loc, s.header, s.frames), (7, SUBMIT_HEADER, 1));
        assert_eq!(s.bytes as usize, frame_len(&msg));
        assert_eq!(s.req, Some((0, 2)));
        assert!(s.start_ns >= 5_000 && !s.replied && s.slot.is_none());
    }
}
