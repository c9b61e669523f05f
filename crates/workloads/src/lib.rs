//! Benchmark workloads: the bank micro-benchmark and TPC-C.
//!
//! Sec. IV-B evaluates ShadowDB with two workloads:
//!
//! * a **micro-benchmark** over "a database of bank accounts, each having
//!   an identifier, an owner, and a balance", 50 000 rows of 16 bytes,
//!   where update transactions "deposit money on a randomly selected
//!   account" — [`bank`];
//! * **TPC-C** configured with one warehouse, all five transaction types —
//!   [`tpcc`].
//!
//! Transactions are *stored procedures*: a client submits a
//! [`TxnRequest`] ("submitting a transaction T involves sending T's type
//! and its parameters to a server"), and every replica executes it
//! deterministically against its local database. Requests encode to and
//! from the untyped [`Value`](shadowdb_eventml::Value) universe for
//! transport through the broadcast service.

pub mod bank;
pub mod kv;
pub mod shard;
pub mod tpcc;
pub mod txn;

pub use kv::{KvGen, KvOptions};
pub use shard::{txnid_from_value, txnid_to_value, ShardMap, TwoPcRecord, TxnId};
pub use txn::{apply_group, TxnOutcome, TxnRequest};
