//! Shared harness machinery for the experiment binaries.
//!
//! One binary per table/figure of the paper (see `src/bin/`); this library
//! holds what they share: closed-loop sweep drivers, steady-state
//! measurement, the analytic baseline servers of Fig. 9, and plain-text
//! series output.
//!
//! Run `cargo run --release -p shadowdb-bench --bin <name>` with
//! `table1`, `fig8`, `fig9a`, `fig9b`, `fig10a`, `fig10b`, or one of the
//! `ablation_*` binaries. Every binary accepts `--full` to run at the
//! paper's original scale (the default is scaled down ~10× to finish in
//! seconds; shapes are unaffected).

pub mod baselines;
pub mod cost;
pub mod measure;
pub mod netload;
pub mod output;

/// Returns true when `--full` was passed (paper-scale runs).
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Scales a paper-sized count down unless `--full` was passed.
pub fn scaled(paper: usize, divisor: usize) -> usize {
    if full_scale() {
        paper
    } else {
        (paper / divisor).max(1)
    }
}

/// Deterministic account mixer for the sharded bank loads. A *linear*
/// account formula would walk every client through the shards with the
/// same stride, so clients that queue together at one primary move to the
/// next group together — a stable rotating convoy that serializes the
/// groups and hides the parallelism being measured. Hashing `(k, client)`
/// decorrelates the walks.
pub fn mix(k: usize, client: usize) -> usize {
    let mut x = (k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((client as u64) << 32 | 0xDEAD_BEEF);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x as usize
}
