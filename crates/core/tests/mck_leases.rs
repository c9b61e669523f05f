//! Model checking the lease-read fast path's single-holder guarantee.
//!
//! The shipping deployment builders assemble into `shadowdb_mck::
//! WorldBuilder` with microsecond-scale lease timing (the checker's
//! clock advances one microsecond per delivery), read-only submissions
//! are injected at several replicas, and every fast-path read emits an
//! audit record to the deployment's `lease_audit` port — messages rather
//! than the deployment's shared `Probe` log, because the explorer forks
//! world states and a shared log would blend observations across
//! branches. Each path's audits decode to the same `Event::LeaseRead`
//! rows a probe records, and the one `probe::check_lease_intervals_
//! disjoint` judges them. The invariant over every explored interleaving
//! of heartbeats, echoes, markers, and reads: **no two replicas ever
//! serve fast-path reads under overlapping lease intervals** — not merely
//! per configuration; a successor's wait-out must keep even
//! cross-configuration intervals disjoint — and a replica that is not the
//! holder never emits an audit at all.
//!
//! Depth/state bounds make this a bounded smoke proof, not an
//! exhaustive one (heartbeat and renewal timers re-arm forever).

use shadowdb::deploy::{DeployOptions, PbrDeployment, SmrDeployment};
use shadowdb::msgs::{parse_lease_audit, submit_msg, TxnEnvelope};
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_lease_intervals_disjoint, timeline, Event};
use shadowdb::smr::SmrLeaseOptions;
use shadowdb_loe::{Loc, VTime};
use shadowdb_mck::{Options, Outcome, World, WorldBuilder};
use shadowdb_runtime::Runtime;
use shadowdb_tob::deploy::BackendKind;
use shadowdb_workloads::{bank, TxnRequest};
use std::cell::Cell;
use std::time::Duration;

const ACCOUNTS: usize = 4;

fn checker_options(audit_sink: Loc) -> DeployOptions {
    let mut options = DeployOptions::new(
        0, // clients are environment ports, not deployed processes
        |_| Vec::new(),
        |db| bank::load(db, ACCOUNTS).expect("bank loads"),
    );
    options.machines = 2;
    options.backend = BackendKind::TwoThird;
    options.lease_audit = Some(audit_sink);
    options
}

/// The lease reads one explored path announced, as the rows a probe
/// would have recorded.
fn audits(w: &World) -> Vec<Event> {
    let audits = w.observations.iter();
    audits
        .filter_map(|(_, _, m)| parse_lease_audit(m))
        .collect()
}

/// Fails the test with the violating path's message and schedule.
fn assert_no_violation(outcome: &Outcome) {
    if let Some(v) = &outcome.violation {
        panic!("{}\nschedule: {:?}", v.message, v.schedule);
    }
}

/// PBR: reads land on the primary, a backup, and the spare while grant
/// and echo heartbeats interleave every possible way. Only the primary
/// may ever emit an audit, and — within each explored path — all audit
/// intervals from distinct replicas stay disjoint.
#[test]
fn mck_pbr_no_overlapping_lease_reads() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let (audit_sink, _arx) = world.port();
    let pbr = PbrOptions {
        // Microsecond cadence so grants, echoes, and the lease window all
        // fit inside the explored depth.
        heartbeat_every: Duration::from_micros(2),
        read_leases: true,
        lease_duration: Duration::from_micros(200),
        ..PbrOptions::default()
    };
    let d = PbrDeployment::build(&mut world, &checker_options(audit_sink), pbr);

    // Read-only submissions to the primary (may serve fast once echoed)
    // and the backup (must never). The checker abstracts `send_at` times
    // away — both are in flight from the root, so the explorer tries the
    // read before, between, and after every grant/echo delivery.
    for (cseq, &target) in d.replicas.iter().take(2).enumerate() {
        let env = TxnEnvelope::new(client, cseq as i64, TxnRequest::BankRead { account: 0 });
        world.send_at(VTime::from_micros(8), target, submit_msg(&env));
    }

    let primary = d.replicas[0];
    let served = Cell::new(0u64);
    let outcome = world.explore(
        Options {
            // Shallow-and-wide beats deep-and-narrow here: the explorer is
            // a DFS, and timer re-arms give the leftmost spine unbounded
            // fresh states — a deep bound burns the whole state budget
            // inside one timer-storm subtree before the grant → echo →
            // read ordering is ever scheduled. The full chain needs only
            // ~7 deliveries, so a tight depth forces breadth.
            max_depth: 14,
            max_states: 400_000,
            ..Options::default()
        },
        |w| {
            let audits = audits(w);
            let by_primary =
                |e: &&Event| matches!(e, Event::LeaseRead { loc, .. } if *loc == primary);
            if let Some(a) = audits.iter().find(|e| !by_primary(e)) {
                let log = timeline(&audits);
                return Err(format!("non-primary served a fast read: {a:?}\n{log}"));
            }
            served.set(served.get() + audits.len() as u64);
            check_lease_intervals_disjoint(&audits).map_err(|v| v.to_string())
        },
    );
    assert_no_violation(&outcome);
    assert!(
        served.get() > 0,
        "vacuous: no explored interleaving served a fast read"
    );
    eprintln!(
        "PBR leases: explored {} states, {} fast reads observed (truncated: {})",
        outcome.states_visited,
        served.get(),
        outcome.truncated
    );
}

/// SMR: claim markers from rank-staggered replicas race through the
/// broadcast service while reads land on two different replicas. In
/// every interleaving only the replica whose marker the TOB ordered
/// last-and-latest serves, and no two replicas' audit intervals overlap.
#[test]
fn mck_smr_no_overlapping_lease_reads() {
    let mut world = WorldBuilder::new();
    let (client, _rx) = world.port();
    let (audit_sink, _arx) = world.port();
    let mut options = checker_options(audit_sink);
    options.smr_leases = Some(SmrLeaseOptions {
        lease_duration: Duration::from_micros(200),
        renew_every: Duration::from_micros(3),
        ..SmrLeaseOptions::default()
    });
    let d = SmrDeployment::build(&mut world, &options);

    // Direct reads at the rank-0 claimant and one rival; the rival must
    // forward into the broadcast rather than answer locally.
    for (cseq, &target) in d.replicas.iter().take(2).enumerate() {
        let env = TxnEnvelope::new(client, cseq as i64, TxnRequest::BankRead { account: 0 });
        world.send_at(VTime::from_micros(6), target, submit_msg(&env));
    }

    let served = Cell::new(0u64);
    let outcome = world.explore(
        Options {
            // See the PBR test: claim → TOB order → marker delivery →
            // read fits under ten deliveries, and a tight depth bound is
            // what forces the DFS out of timer-renewal spines and into
            // orderings that actually complete the chain.
            max_depth: 10,
            max_states: 600_000,
            ..Options::default()
        },
        |w| {
            let audits = audits(w);
            served.set(served.get() + audits.len() as u64);
            check_lease_intervals_disjoint(&audits).map_err(|v| v.to_string())
        },
    );
    assert_no_violation(&outcome);
    assert!(
        served.get() > 0,
        "vacuous: no explored interleaving served a fast read"
    );
    eprintln!(
        "SMR leases: explored {} states, {} fast reads observed (truncated: {})",
        outcome.states_visited,
        served.get(),
        outcome.truncated
    );
}
