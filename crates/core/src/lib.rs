//! ShadowDB: a replicated database built on a verified broadcast service.
//!
//! The paper's headline artifact (Sec. III): a highly available database
//! obtained by combining unmodified embedded SQL databases (assumed to fail
//! more-or-less independently) with replication protocols whose critical
//! machinery is generated from formally analysable specifications.
//! ShadowDB comes in two configurations, both guaranteeing **strict
//! serializability**:
//!
//! * [`pbr`] — **primary-backup replication**: the normal case is
//!   hand-written and simple (the primary executes a transaction, forwards
//!   it to the backups, and replies once *all* backups acknowledged);
//!   failure handling — the hard part — runs through the verified
//!   total-order broadcast service, which serializes configuration
//!   proposals so that every surviving replica agrees on the sequence of
//!   configurations.
//! * [`smr`] — **state machine replication**: every transaction is
//!   totally ordered by the broadcast service; every replica executes every
//!   transaction; clients take the first answer. A replica crash is
//!   invisible to clients.
//!
//! Both are *ordering policies* over one [`replica_core`]: the database
//! handle, the per-client reply cache, grouped apply, 2PC hosting, the
//! WAL policy and the single state image a replica is rebuilt from.
//!
//! Supporting modules: [`msgs`] (wire messages), [`route`] (how a sender —
//! client or peer replica — reaches a group and follows its
//! configuration), [`client`] (closed-loop clients with resend and
//! duplicate suppression), [`deploy`] (full deployments inside the
//! simulator, with databases co-located with broadcast-service processes
//! as on the paper's testbed), [`diversity`] (each replica can run a
//! different database engine — H2, HSQLDB, Derby — to mask correlated
//! environment failures), and [`probe`] (the one event log a deployment's
//! replicas record into, and the safety checks written over it).

pub mod chaos;
pub mod client;
pub mod deploy;
pub mod diversity;
pub mod msgs;
pub mod pbr;
pub mod probe;
pub mod replica_core;
pub mod route;
pub mod serializability;
pub mod shard;
pub mod smr;

pub use chaos::{
    soak_pbr, soak_sharded_pbr, soak_sharded_smr, soak_smr, ChaosOptions, ChaosReport,
};
pub use client::{DbClient, DbClientStats};
pub use deploy::{PbrDeployment, ShardedDeployment, SmrDeployment};
pub use msgs::ReplicaConfig;
pub use probe::{Event, Probe};
pub use route::{GroupRoute, Routes};
pub use shard::{ShardRole, TwoPcEngine};
