//! The three execution backends of the broadcast service (Fig. 8).
//!
//! The paper runs the same generated Nuprl program three ways: in the SML
//! interpreter ("Interpreted"), in the interpreter after the program
//! optimizer ("Inter.-Opt."), and translated to Lisp and compiled
//! ("Compiled"). Functionally they are identical (bisimulation, Fig. 7);
//! they differ in per-message CPU cost:
//!
//! | backend       | 1-client latency | max throughput |
//! |---------------|------------------|----------------|
//! | Interpreted   | 122 ms           | 27 msg/s       |
//! | Inter.-Opt.   | 69.4 ms          | 65 msg/s       |
//! | Compiled      | 8.8 ms           | 900 msg/s      |
//!
//! This module reproduces the mechanism: the choice of generated program
//! (tree-interpreted vs fused vs lowered to a native process over typed
//! state — all three derived from the one [`Mealy`] description of each
//! protocol) selects *real* code paths, and a calibrated [`CostModel`]
//! charges the per-message CPU time
//! that the simulated 3.6 GHz Xeon would spend. The calibration uses a
//! `base + per_batch_entry` cost: handling a consensus message that carries
//! a k-entry batch costs `base + k·per_entry`, which makes saturation
//! CPU-bound (as measured in the paper) while batching still amortizes the
//! fixed consensus overhead.

use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::patterns::{Mealy, MealyState};
use shadowdb_eventml::{InterpretedProcess, Msg, Process, Value};
use shadowdb_loe::Loc;
use shadowdb_runtime::CostModel;
use std::time::Duration;

/// How the generated broadcast/consensus programs are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// The tree-walking interpreter over the unoptimized program
    /// (the paper's SML interpreter).
    Interpreted,
    /// The interpreter over the optimizer's fused program
    /// (the paper's "Inter.-Opt.").
    InterpretedOpt,
    /// Native compiled execution (the paper's Lisp translation): the
    /// specification's transition lowered to a process over typed state.
    Compiled,
}

impl ExecutionMode {
    /// All three modes, in the order Fig. 8 plots them.
    pub const ALL: [ExecutionMode; 3] = [
        ExecutionMode::Interpreted,
        ExecutionMode::InterpretedOpt,
        ExecutionMode::Compiled,
    ];

    /// Human-readable label matching the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Interpreted => "Interpreted",
            ExecutionMode::InterpretedOpt => "Inter.-Opt.",
            ExecutionMode::Compiled => "Compiled",
        }
    }

    /// Fixed CPU cost of handling one protocol message.
    ///
    /// Calibrated so that a 3-server f=1 Paxos deployment reproduces the
    /// paper's one-client latencies (≈8 handlings on the critical path).
    pub fn cost_base(self) -> Duration {
        match self {
            ExecutionMode::Interpreted => Duration::from_micros(9_900),
            ExecutionMode::InterpretedOpt => Duration::from_micros(5_900),
            ExecutionMode::Compiled => Duration::from_micros(550),
        }
    }

    /// Additional CPU cost per batch entry carried by a message.
    ///
    /// Calibrated so that saturation throughput (bounded by the machine
    /// co-hosting server, replica, leader, and acceptor) lands near the
    /// paper's 27 / 65 / 900 messages per second.
    pub fn cost_per_entry(self) -> Duration {
        match self {
            ExecutionMode::Interpreted => Duration::from_micros(2_000),
            ExecutionMode::InterpretedOpt => Duration::from_micros(600),
            ExecutionMode::Compiled => Duration::from_micros(3),
        }
    }

    /// Builds the program this mode runs for `spec`: the one constructor
    /// behind every process of a deployed service.
    pub fn instantiate<S: MealyState>(self, spec: &Mealy<S>) -> Box<dyn Process> {
        match self {
            ExecutionMode::Interpreted => Box::new(InterpretedProcess::compile(&spec.class())),
            ExecutionMode::InterpretedOpt => Box::new(optimize(&spec.class())),
            ExecutionMode::Compiled => Box::new(spec.process()),
        }
    }
}

/// The number of batch entries a message carries (the first list found in
/// its body, searched through the batch-shaped pair spine).
pub fn entry_count(msg: &Msg) -> usize {
    fn find_list(v: &Value) -> Option<usize> {
        match v {
            Value::List(l) => Some(l.len()),
            Value::Pair(p) => find_list(&p.0).or_else(|| find_list(&p.1)),
            _ => None,
        }
    }
    find_list(&msg.body).unwrap_or(0)
}

/// The cost model for a set of service machines: protocol messages handled
/// at those locations are charged mode-calibrated CPU time; everything else
/// (client-side handling) is free.
#[derive(Clone, Debug)]
pub struct ModeCost {
    mode: ExecutionMode,
    service_locs: Vec<Loc>,
}

impl ModeCost {
    /// Creates the cost model; `service_locs` are all locations hosting
    /// service processes (TOB servers and consensus roles).
    pub fn new(mode: ExecutionMode, service_locs: Vec<Loc>) -> ModeCost {
        ModeCost { mode, service_locs }
    }
}

impl CostModel for ModeCost {
    fn handle_cost(&self, dest: Loc, msg: &Msg) -> Duration {
        if !self.service_locs.contains(&dest) {
            return Duration::ZERO;
        }
        self.mode.cost_base() + self.mode.cost_per_entry() * entry_count(msg) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_costs_are_ordered() {
        assert!(ExecutionMode::Interpreted.cost_base() > ExecutionMode::InterpretedOpt.cost_base());
        assert!(ExecutionMode::InterpretedOpt.cost_base() > ExecutionMode::Compiled.cost_base());
        // The paper's "factor of two or more" optimizer speedup.
        let ratio = ExecutionMode::Interpreted.cost_base().as_micros() as f64
            / ExecutionMode::InterpretedOpt.cost_base().as_micros() as f64;
        assert!(ratio > 1.5, "optimizer speedup ratio = {ratio}");
    }

    #[test]
    fn entry_count_finds_batches() {
        let batch = Value::pair(
            Value::Loc(Loc::new(0)),
            Value::pair(Value::Int(7), Value::list((0..5).map(Value::from))),
        );
        let m = Msg::new("px/request", batch);
        assert_eq!(entry_count(&m), 5);
        assert_eq!(entry_count(&Msg::new("x", Value::Int(1))), 0);
    }

    #[test]
    fn cost_model_charges_service_only() {
        let model = ModeCost::new(ExecutionMode::Compiled, vec![Loc::new(1)]);
        let m = Msg::new("x", Value::Unit);
        assert_eq!(model.handle_cost(Loc::new(0), &m), Duration::ZERO);
        assert_eq!(
            model.handle_cost(Loc::new(1), &m),
            ExecutionMode::Compiled.cost_base()
        );
    }
}
