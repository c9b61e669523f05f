//! A replica rebooted from its disk is still heard by the broadcast
//! service, under either ordering policy.
//!
//! The service drops a broadcast whose `(source, msgid)` it has seen, and
//! it knows nothing of incarnations: a replica that reboots and counts its
//! msgids from 0 again repeats ids the service already holds for it. Under
//! PBR the survivor `B` of a two-member group suspects its peer, proposes a
//! new configuration, loses power, reboots from the same disk and, the
//! peer still silent, proposes again. Both proposals go to the real
//! service; the second must be enqueued like the first, or the group
//! stays `Stopped` for good. Under SMR a lease replica with no holder
//! forwards a read into the service, reboots onto a disk that holds no
//! delivery, and forwards another: the second must be enqueued too, or
//! the client waits on a read nobody orders.
//!
//! The replicas are stepped by hand. The service is the `tob::service`
//! Mealy machine over Synod, with a pipelining window of two, so each
//! enqueued broadcast leaves at once as a `px/request`.

use shadowdb::msgs::{submit_msg, ReplicaConfig, TxnEnvelope, HB_TIMER_HEADER};
use shadowdb::pbr::{PbrOptions, PbrReplica};
use shadowdb::smr::{SmrLeaseOptions, SmrReplica};
use shadowdb_consensus::synod;
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_tob::service::{service, Backend};
use shadowdb_tob::{TobConfig, BROADCAST_HEADER};
use shadowdb_wal::Disk;
use shadowdb_workloads::{bank, TxnRequest};
use std::time::Duration;

const B: Loc = Loc::new(1);
const S: Loc = Loc::new(2);
const TOB: Loc = Loc::new(20);
const SYNOD: Loc = Loc::new(21);

/// `B` over `disk`, in configuration `[B, S]` with `B` primary.
fn replica(disk: &Disk) -> PbrReplica {
    let db = Database::new(EngineProfile::h2());
    let config = ReplicaConfig::initial(vec![B, S]);
    PbrReplica::new(db, config, Vec::new(), vec![TOB], PbrOptions::default())
        .with_wal(disk.clone(), 1_000)
}

/// Boots `r` at `at` (its first step), then fires its heartbeat timer once
/// `S` has been silent past detection; returns the broadcast it sends.
fn suspect_and_propose(r: &mut PbrReplica, at: VTime) -> Msg {
    let hb = Msg::new(HB_TIMER_HEADER, Value::Unit);
    r.step(&Ctx::new(B, at), &hb);
    let later = at + PbrOptions::default().detect_after + Duration::from_millis(1);
    let outs = r.step(&Ctx::new(B, later), &hb);
    let proposals: Vec<&SendInstr> = outs
        .iter()
        .filter(|s| s.msg.header.name() == BROADCAST_HEADER)
        .collect();
    assert_eq!(proposals.len(), 1, "{outs:?}");
    assert_eq!(proposals[0].dest, TOB);
    proposals[0].msg.clone()
}

/// The broadcast entries of the batches `outs` proposes to Synod.
fn proposed(outs: &[SendInstr]) -> Vec<Value> {
    outs.iter()
        .filter(|s| s.dest == SYNOD && s.msg.header.name() == synod::REQUEST_HEADER)
        .flat_map(|s| {
            // <proposer, <batchid, entries>>
            let entries = s.msg.body.snd().and_then(Value::snd).expect("a batch");
            entries.elems().to_vec()
        })
        .collect()
}

#[test]
fn a_rebooted_member_s_reconfiguration_proposal_is_enqueued() {
    let config = TobConfig::new(Backend::Paxos { replica: SYNOD }, vec![B]).with_window(2);
    let mut tob = service(&config).process();
    let tob_ctx = Ctx::new(TOB, VTime::ZERO);

    let disk = Disk::in_memory(Duration::ZERO);
    let mut first = replica(&disk);
    let before = suspect_and_propose(&mut first, VTime::from_millis(1));
    assert_eq!(proposed(&tob.step(&tob_ctx, &before)), vec![before.body]);

    // Power loss: the next incarnation reads the same disk.
    drop(first);
    let mut second = replica(&disk).rebooted(7);
    let after = suspect_and_propose(&mut second, VTime::from_secs(5));
    assert_eq!(
        proposed(&tob.step(&tob_ctx, &after)),
        vec![after.body],
        "the rebooted member's proposal was dropped as a duplicate"
    );
}

/// `B` over `disk` as an SMR lease replica, entering the service at `TOB`.
fn smr_replica(disk: &Disk) -> SmrReplica {
    let db = Database::new(EngineProfile::h2());
    bank::load(&db, 4).expect("bank loads");
    SmrReplica::new(db)
        .with_wal(disk.clone(), 1_000)
        .with_read_leases(vec![TOB], 0, SmrLeaseOptions::default())
}

/// Submits a read-only transaction to `r` at `at`; returns the broadcast
/// it forwards, there being no lease holder to serve it.
fn forward_read(r: &mut SmrReplica, cseq: i64, at: VTime) -> Msg {
    let read = TxnEnvelope::new(Loc::new(30), cseq, TxnRequest::BankRead { account: 1 });
    let outs = r.step(&Ctx::new(B, at), &submit_msg(&read));
    let forwards: Vec<&SendInstr> = outs
        .iter()
        .filter(|s| s.msg.header.name() == BROADCAST_HEADER)
        .collect();
    assert_eq!(forwards.len(), 1, "{outs:?}");
    assert_eq!(forwards[0].dest, TOB);
    forwards[0].msg.clone()
}

#[test]
fn a_rebooted_smr_replica_s_forwarded_read_is_enqueued() {
    let config = TobConfig::new(Backend::Paxos { replica: SYNOD }, vec![B]).with_window(2);
    let mut tob = service(&config).process();
    let tob_ctx = Ctx::new(TOB, VTime::ZERO);

    let disk = Disk::in_memory(Duration::ZERO);
    let mut first = smr_replica(&disk);
    let before = forward_read(&mut first, 0, VTime::from_millis(1));
    assert_eq!(proposed(&tob.step(&tob_ctx, &before)), vec![before.body]);

    // Power loss before anything was delivered: the disk holds nothing.
    drop(first);
    let mut second = smr_replica(&disk).rebooted(vec![], 7);
    let after = forward_read(&mut second, 1, VTime::from_secs(5));
    assert_eq!(
        proposed(&tob.step(&tob_ctx, &after)),
        vec![after.body],
        "the rebooted replica's forwarded read was dropped as a duplicate"
    );
}
