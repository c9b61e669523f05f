//! A PBR election agrees on its primary whatever order its messages
//! arrive in.
//!
//! When a configuration is adopted, every member reports `(seq,
//! executed)` to the others, and each picks the same primary from the
//! full set of reports; a backup then waits for the new primary's
//! catch-up. The broadcast delivery of the command, the other members'
//! reports and the primary's catch-up travel on different links, so a
//! backup may see a report before the command that opens its election,
//! or the catch-up before its last report. Either way it must still end
//! up following, and acknowledging, the primary the others elected.
//!
//! One replica is stepped by hand through those orders. The other
//! members' messages are written out as they would send them. The
//! adopted command is a `Promote` of the member listed last, so a
//! replica that skipped its election would follow the one listed first.

use shadowdb::msgs::{
    config_query_msg, parse_config_reply, ConfigCommand, ReplicaConfig, CATCHUP_HEADER,
    ELECT_HEADER, RECOVERY_ACK_HEADER,
};
use shadowdb::pbr::{PbrOptions, PbrReplica};
use shadowdb_eventml::{Ctx, Msg, Process, SendInstr, Value};
use shadowdb_loe::{Loc, VTime};
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_tob::DELIVER_HEADER;

const TOB: Loc = Loc::new(20);
const DRIVER: Loc = Loc::new(30);
const FIRST: Loc = Loc::new(13);
const SECOND: Loc = Loc::new(14);
const PROMOTED: Loc = Loc::new(34);
/// The configuration before the promotion.
const SEQ: i64 = 3;

fn members() -> Vec<Loc> {
    vec![FIRST, SECOND, PROMOTED]
}

/// A member of configuration `SEQ`, in normal operation, nothing executed.
fn replica() -> PbrReplica {
    let config = ReplicaConfig {
        seq: SEQ,
        members: members(),
    };
    let db = Database::new(EngineProfile::h2());
    PbrReplica::new(db, config, Vec::new(), vec![TOB], PbrOptions::default())
}

/// The broadcast service's first delivery: promote `PROMOTED` on top of
/// configuration `SEQ`.
fn promote() -> Msg {
    let cmd = ConfigCommand::promote(&members(), PROMOTED).expect("a member");
    let body = Value::pair(
        Value::Int(0),
        Value::pair(
            Value::Loc(DRIVER),
            Value::pair(Value::Int(0), cmd.to_payload(SEQ)),
        ),
    );
    Msg::new(DELIVER_HEADER, body)
}

/// `from`'s election report for the promoted configuration.
fn report(from: Loc) -> Msg {
    let body = Value::pair(
        Value::Int(SEQ + 1),
        Value::pair(Value::Loc(from), Value::Int(0)),
    );
    Msg::new(ELECT_HEADER, body)
}

/// The new primary's catch-up: nothing is missing.
fn catch_up() -> Msg {
    let body = Value::pair(
        Value::Int(SEQ + 1),
        Value::pair(Value::Int(0), Value::list(Vec::new())),
    );
    Msg::new(CATCHUP_HEADER, body)
}

/// Steps `r` at `slf` through `msgs` in order; returns where each
/// recovery acknowledgment went and the primary `r` then reports.
fn run(slf: Loc, msgs: &[Msg]) -> (Vec<Loc>, Loc) {
    let mut r = replica();
    let mut out: Vec<SendInstr> = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        let ctx = Ctx::new(slf, VTime::from_micros(i as u64));
        r.step_into(&ctx, m, &mut out);
    }
    let acked = out
        .iter()
        .filter(|s| s.msg.header.name() == RECOVERY_ACK_HEADER)
        .map(|s| s.dest)
        .collect();
    let mut answer = Vec::new();
    let ctx = Ctx::new(slf, VTime::from_micros(msgs.len() as u64));
    r.step_into(&ctx, &config_query_msg(DRIVER), &mut answer);
    let config = answer
        .iter()
        .find_map(|s| parse_config_reply(&s.msg))
        .expect("a configuration report")
        .config;
    assert_eq!(config.seq, SEQ + 1, "{config:?}");
    (acked, config.primary())
}

/// Every report in before the command that opens the election: the
/// reports are kept, and the election completes on adoption.
#[test]
fn reports_that_arrive_before_the_configuration_count_in_its_election() {
    for slf in [FIRST, SECOND] {
        let others: Vec<Loc> = members().into_iter().filter(|m| *m != slf).collect();
        let msgs = [report(others[0]), report(others[1]), promote(), catch_up()];
        assert_eq!(
            run(slf, &msgs),
            (vec![PROMOTED], PROMOTED),
            "replica {slf:?}"
        );
    }
}

/// The new primary's catch-up before the last report: the replica holds
/// it, and recovers once the report tells it who the primary is.
#[test]
fn catch_up_before_the_last_report_waits_for_the_election() {
    for slf in [FIRST, SECOND] {
        let other = if slf == FIRST { SECOND } else { FIRST };
        let (acked, _) = run(slf, &[promote(), report(other), catch_up()]);
        assert_eq!(acked, [], "replica {slf:?} recovered without a primary");
        let msgs = [promote(), report(other), catch_up(), report(PROMOTED)];
        assert_eq!(
            run(slf, &msgs),
            (vec![PROMOTED], PROMOTED),
            "replica {slf:?}"
        );
    }
}
