//! The experiment runner: every table, figure and ablation of the
//! evaluation, and the perf gate over them.
//!
//! One binary over one registry ([`experiments::EXPERIMENTS`]):
//!
//! ```text
//! cargo run --release -p shadowdb-bench -- <name>…    # e.g. fig8 table1
//! cargo run --release -p shadowdb-bench -- all
//! cargo run --release -p shadowdb-bench -- list
//! cargo run --release -p shadowdb-bench -- perf_smoke
//! ```
//!
//! `--full` runs at the paper's original scale (the default is scaled
//! down ~10× to finish in seconds; shapes are unaffected). Each
//! experiment is a function in [`experiments`] writing its tables to a
//! `&mut dyn Write`; what they share lives here: the deployments they
//! measure ([`scenario`]), steady-state measurement ([`measure`]), the
//! replica-side cost model and the analytic baseline servers of Fig. 9
//! ([`cost`], [`baselines`]), and plain-text series output ([`output`]).
//! [`perf_smoke`] gates one point of several sweeps against a checked-in
//! baseline. Outputs of the deterministic experiments are checked in
//! under `results/` and diffed by CI.

pub mod baselines;
pub mod cost;
pub mod experiments;
pub mod measure;
pub mod netload;
pub mod output;
pub mod perf_smoke;
pub mod scenario;

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
