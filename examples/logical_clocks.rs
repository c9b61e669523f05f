//! The paper's running example: Lamport logical clocks (CLK, Fig. 3),
//! taken through the whole methodology of Fig. 2:
//!
//! 1. the constructive specification (a combinator program);
//! 2. compilation to a runnable GPM program;
//! 3. the program optimizer, with the bisimulation check of Fig. 7;
//! 4. compliance of the runnable program with the LoE semantics;
//! 5. an actual distributed run in the simulator, checked against the
//!    spec's `progress` property (`strict_inc`) and Lamport's Clock
//!    Condition (Fig. 6).
//!
//! Run with: `cargo run --release --example logical_clocks`

use shadowdb_eventml::bisim::{check_bisimilar, check_complies_with_loe};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{clk, InterpretedProcess, Value};
use shadowdb_loe::props::{check_clock_condition, check_strictly_increasing};
use shadowdb_loe::{Loc, VTime};
use shadowdb_simnet::{NetworkConfig, SimBuilder};

fn main() {
    let n = 4u32;
    let spec = clk::clk_spec(clk::ring_handle(n));
    println!("CLK specification: {} AST nodes", spec.ast_nodes());

    // Compile and optimize.
    let interpreted = InterpretedProcess::compile_spec(&spec);
    let fused = optimize(spec.main());
    println!(
        "generated program: {} nodes; optimized: {} nodes",
        interpreted.program_nodes(),
        fused.program_nodes()
    );

    // Fig. 7's obligation: optimized ∼ original, on a message stream.
    let msgs: Vec<_> = (0..20).map(|i| clk::clk_msg(Value::Int(i), i)).collect();
    check_bisimilar(
        &mut interpreted.clone(),
        &mut fused.clone(),
        Loc::new(0),
        &msgs,
    )
    .expect("the optimizer must preserve behaviour");
    println!("bisimulation check (optimized ~ original): ok");

    // Arrow (c) of Fig. 2: the program complies with the LoE semantics.
    check_complies_with_loe(spec.main(), Loc::new(0), &msgs)
        .expect("the program must comply with its logical specification");
    println!("GPM-complies-with-LoE check: ok");

    // A real multi-process run: a ring of 4 processes forwarding a value,
    // with trace capture feeding the Clock Condition checker.
    let mut sim = SimBuilder::new(11)
        .network(NetworkConfig::lan())
        .capture_trace(true)
        .build();
    for _ in 0..n {
        sim.add_node(Box::new(InterpretedProcess::compile_spec(&spec)));
    }
    // Two concurrent tokens entering at different processes.
    sim.send_at(VTime::ZERO, Loc::new(0), clk::clk_msg(Value::str("a"), 0));
    sim.send_at(
        VTime::from_micros(40),
        Loc::new(2),
        clk::clk_msg(Value::str("b"), 0),
    );
    sim.run_until(VTime::from_millis(3)); // a few dozen hops

    let trace = sim.trace().expect("trace capture enabled");
    println!("captured {} events across {} processes", trace.len(), n);

    // Clock values via the denotational (LoE) reading of the Clock class.
    let clock = clk::clock_class();
    let clocks = |eo: &_, e| -> Vec<i64> {
        shadowdb_eventml::denote::denote(&clock, eo, e)
            .iter()
            .map(Value::int)
            .collect()
    };
    let violation = check_strictly_increasing(trace, clocks);
    assert_eq!(violation, None, "CLK's progress property must hold");
    println!("progress (clocks strictly increase at every location): ok on the whole trace");
    let violation = check_clock_condition(trace, |eo, e| clocks(eo, e).pop());
    assert_eq!(violation, None, "Lamport's Clock Condition must hold");
    println!("clock condition (e1 -> e2 ==> LC(e1) < LC(e2)): ok on the whole trace");

    // Show the first few events with their clocks.
    for event in trace.iter().take(8) {
        let lc = clocks(trace, event.id()).pop().unwrap_or(-1);
        println!(
            "  {:>4} at {} t={} LC={}",
            event.id().to_string(),
            event.loc(),
            event.time(),
            lc
        );
    }
}
