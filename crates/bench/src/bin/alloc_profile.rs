//! Allocation profile of the per-message hot paths: counts heap
//! allocations (and bytes) per step for the interpreted, fused and compiled
//! forms of the shipped specifications. A development aid for keeping the
//! fused and compiled paths allocation-light; run with
//! `cargo run --release -p shadowdb-bench --bin alloc_profile`.
//!
//! The one binary beside the experiment runner: it installs a counting
//! `#[global_allocator]`, which is process-wide, so it cannot share a
//! process with experiments whose numbers must not pay for the counters.

use shadowdb_bench::scenario::{form, SynodRounds, TobSteps};
use shadowdb_consensus::twothird::{propose_msg, TwoThird, TwoThirdConfig};
use shadowdb_eventml::optimize::optimize;
use shadowdb_eventml::{clk, Ctx, InterpretedProcess, Process, SendInstr, Value};
use shadowdb_loe::Loc;
use shadowdb_tob::ExecutionMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn measure<F: FnMut()>(label: &str, steps: u64, mut f: F) {
    // Warm once so one-time lazy init (interning, statics) is excluded.
    f();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    let t = std::time::Instant::now();
    f();
    let dt = t.elapsed();
    let da = ALLOCS.load(Ordering::Relaxed) - a0;
    let db = BYTES.load(Ordering::Relaxed) - b0;
    println!(
        "{label:<28} {:>6.1} allocs/step {:>7.1} B/step {:>9.1} ns/step",
        da as f64 / steps as f64,
        db as f64 / steps as f64,
        dt.as_nanos() as f64 / steps as f64,
    );
}

/// The steady-state rows of the two protocols every default deployment
/// runs, in the fused and the compiled form.
fn deployed_protocols() {
    let modes = [ExecutionMode::InterpretedOpt, ExecutionMode::Compiled];
    for mode in modes {
        let mut synod = SynodRounds::warm(mode);
        let mut cmd = 0i64;
        measure(&format!("synod/{}_steady", form(mode)), 16 * 9, || {
            for _ in 0..16 {
                cmd += 1;
                synod.decide(Value::Int(cmd));
            }
        });
    }
    for mode in modes {
        let mut server = TobSteps::new(mode);
        measure(&format!("tob/{}_steady", form(mode)), 2 * 64, || {
            for _ in 0..64 {
                server.submit_and_deliver();
            }
        });
    }
}

fn main() {
    let config = TwoThirdConfig::new(Loc::first_n(3), vec![Loc::new(100)]).with_auto_adopt();
    let member = TwoThird::new(config).member();
    let class = member.class();
    let msgs: Vec<_> = (0..8).map(|i| propose_msg(i, Value::Int(i))).collect();
    let ctx = Ctx::at(Loc::new(0));
    let mut out: Vec<SendInstr> = Vec::with_capacity(16);

    measure("twothird/interpreted", 8, || {
        let mut p = InterpretedProcess::compile(&class);
        for m in &msgs {
            out.clear();
            p.step_into(&ctx, m, &mut out);
        }
    });
    measure("twothird/fused", 8, || {
        let mut p = optimize(&class);
        for m in &msgs {
            out.clear();
            p.step_into(&ctx, m, &mut out);
        }
    });
    // Steady state: the same warm process stepping many fresh instances.
    let mut p = optimize(&class);
    let mut i = 0i64;
    measure("twothird/fused_steady", 64, || {
        for _ in 0..64 {
            out.clear();
            p.step_into(&ctx, &propose_msg(i, Value::Int(i)), &mut out);
            i += 1;
        }
    });

    let mut p = member.process();
    let mut i = 0i64;
    measure("twothird/compiled_steady", 64, || {
        for _ in 0..64 {
            out.clear();
            p.step_into(&ctx, &propose_msg(i, Value::Int(i)), &mut out);
            i += 1;
        }
    });
    deployed_protocols();

    let clk_class = clk::handler_class(clk::ring_handle(3));
    let clk_msg = clk::clk_msg(Value::Int(0), 3);
    measure("clk/interpreted", 1, || {
        let mut p = InterpretedProcess::compile(&clk_class);
        out.clear();
        p.step_into(&ctx, &clk_msg, &mut out);
    });
    measure("clk/fused", 1, || {
        let mut p = optimize(&clk_class);
        out.clear();
        p.step_into(&ctx, &clk_msg, &mut out);
    });
    let mut p = optimize(&clk_class);
    measure("clk/fused_steady", 64, || {
        for _ in 0..64 {
            out.clear();
            p.step_into(&ctx, &clk_msg, &mut out);
        }
    });
    let mut p = InterpretedProcess::compile(&clk_class);
    measure("clk/interp_steady", 64, || {
        for _ in 0..64 {
            out.clear();
            p.step_into(&ctx, &clk_msg, &mut out);
        }
    });

    // Setup (program construction) cost, for context.
    measure("clk/optimize_only", 1, || {
        std::hint::black_box(optimize(&clk_class));
    });
    measure("clk/compile_only", 1, || {
        std::hint::black_box(InterpretedProcess::compile(&clk_class));
    });
}
