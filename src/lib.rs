//! ShadowDB reproduction — the umbrella crate.
//!
//! This crate re-exports the whole stack so examples and downstream users
//! can depend on one name. The layers, bottom to top:
//!
//! * [`loe`] — the Logic of Events: traces, causal order, event-class
//!   semantics;
//! * [`eventml`] — EventML-style combinator specifications, the compiler
//!   to runnable processes, and the verified-equivalence optimizer;
//! * [`simnet`] — the deterministic discrete-event testbed;
//! * [`mck`] — the bounded model checker standing in for Nuprl's safety
//!   proofs;
//! * [`consensus`] — TwoThird Consensus and multi-decree Paxos Synod;
//! * [`tob`] — the total-order broadcast service with batching;
//! * [`sqldb`] — the embedded SQL engine with pluggable personalities;
//! * [`workloads`] — the bank micro-benchmark and TPC-C;
//! * [`shadowdb`] — the replicated database itself (PBR and SMR).
//!
//! Start with `examples/quickstart.rs`.

pub use shadowdb;
pub use shadowdb_consensus as consensus;
pub use shadowdb_eventml as eventml;
pub use shadowdb_loe as loe;
pub use shadowdb_mck as mck;
pub use shadowdb_simnet as simnet;
pub use shadowdb_sqldb as sqldb;
pub use shadowdb_tob as tob;
pub use shadowdb_workloads as workloads;
