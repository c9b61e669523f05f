//! ShadowDB wire messages and configurations.

use crate::probe::Event;
use shadowdb_eventml::{cached_header, Msg, Value};
use shadowdb_loe::Loc;
use shadowdb_workloads::TxnRequest;

/// Client submission to a replica: body `<client, <cseq, <read_only, txn>>>`.
pub const SUBMIT_HEADER: &str = "sdb/submit";
/// Primary → backup transaction forwarding:
/// body `<config, <index, <client, <cseq, <read_only, txn>>>>>`.
pub const FORWARD_HEADER: &str = "sdb/forward";
/// Backup → primary execution acknowledgment: body `<config, <index, from>>`.
pub const ACK_HEADER: &str = "sdb/ack";
/// Replica → client answer: body `<cseq, <committed, results>>`.
pub const REPLY_HEADER: &str = "sdb/reply";
/// Heartbeat between replicas: body `<config, <from, ts>>` where `ts` is
/// the sender's local clock in microseconds when the sender is the primary
/// (the lease grant timestamp) and, from a backup, the latest primary
/// timestamp the backup has echoed back (0 when none) — see the read-lease
/// protocol in `pbr`.
pub const HEARTBEAT_HEADER: &str = "sdb/hb";
/// A replica's periodic self-check timer: body `<config>`.
pub const HB_TIMER_HEADER: &str = "sdb/hbtimer";
/// Catch-up, the replica core's answer when its window reaches back:
/// body `<start, [items]>`. PBR wraps it `<config, <elected_at, ·>>`,
/// `elected_at` the TOB seq that completed the sender's election (-1:
/// none ran); SMR sends it bare.
pub const CATCHUP_HEADER: &str = "sdb/catchup";
/// A snapshot chunk, the core's answer otherwise, in its transfer format
/// `<chunk_index, <<total_chunks, frontier>, data>>` (the first chunk's
/// `data` carries the image's head beside its rows); wrapped by PBR and
/// bare under SMR, like [`CATCHUP_HEADER`].
pub const SNAPSHOT_HEADER: &str = "sdb/snapshot";
/// Backup → primary recovery acknowledgment: body `<config, from>`.
pub const RECOVERY_ACK_HEADER: &str = "sdb/recack";
/// A replica that is behind asks a donor for state ([`fetch_msg`]): body
/// `<requester, <from, <min, nonce>>>`, `from = -1` an image, answered
/// with a catch-up or snapshot once the donor's stream has reached `min`;
/// `nonce` names the requester's incarnation, and PBR's answer echoes it.
pub const FETCH_HEADER: &str = "sdb/fetch";
/// A replica's retry timer for its open fetch, sent to itself (body
/// unit): each firing asks the next donor.
pub const FETCH_RETRY_HEADER: &str = "sdb/fetchretry";
/// Stale-config NACK to a client: a replica that is not the primary of the
/// current configuration answers a submission with its configuration so
/// the client can chase the change. Body `<from, <cseq, config>>`.
pub const STALE_CONFIG_HEADER: &str = "sdb/stale";
/// Lease-audit record, emitted by a replica each time it serves a
/// fast-path read, when the deployment configured an audit sink: body
/// `<seq, <from, <served_us, until_us>>>`. The model checker points the
/// sink at its observation port and asserts no two replicas ever serve
/// fast-path reads under overlapping lease intervals.
pub const LEASE_AUDIT_HEADER: &str = "sdb/lease";
/// Configuration-status query (reconfiguration drivers poll this):
/// body `<reply_to>`.
pub const CONFIG_QUERY_HEADER: &str = "sdb/confq";
/// Configuration-status report: body `<from, <config, <executed, normal>>>`.
pub const CONFIG_REPLY_HEADER: &str = "sdb/confr";
/// A durable replica's durability point, sent to itself (zero delay, body
/// unit) by a step that left log records unsynced: handling it syncs the
/// log and releases every acknowledgment parked behind it. A runtime that
/// delivers self-sends after the other input it has ready makes one sync
/// cover all of that input's records (group commit).
pub const SYNC_HEADER: &str = "sdb/sync";
/// A durable replica's sync completion, posted by its disk's syncer once
/// the handed-off bytes are durable (real-time runtimes only; a virtual
/// disk syncs inside `sdb/sync`): body `<generation, through>`, the log
/// opening the sync belongs to and the index it makes durable. Handling it
/// is the only place a handed-off sync advances the durability point.
pub const SYNCED_HEADER: &str = "sdb/synced";

/// A replica-group configuration ("Each configuration is identified by a
/// sequence number. The initial configuration has sequence number 0.").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReplicaConfig {
    /// The configuration sequence number.
    pub seq: i64,
    /// Member replicas; the first is the primary under PBR.
    pub members: Vec<Loc>,
}

impl ReplicaConfig {
    /// The initial configuration (sequence number 0).
    pub fn initial(members: Vec<Loc>) -> ReplicaConfig {
        ReplicaConfig { seq: 0, members }
    }

    /// The primary of this configuration.
    pub fn primary(&self) -> Loc {
        self.members[0]
    }

    /// The backups of this configuration.
    pub fn backups(&self) -> &[Loc] {
        &self.members[1..]
    }

    /// Whether `loc` is a member.
    pub fn contains(&self, loc: Loc) -> bool {
        self.members.contains(&loc)
    }

    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        Value::pair(
            Value::Int(self.seq),
            Value::list(self.members.iter().map(|m| Value::Loc(*m))),
        )
    }

    /// Wire decoding.
    pub fn from_value(v: &Value) -> Option<ReplicaConfig> {
        let (seq, members) = v.fst().zip(v.snd())?;
        let members: Option<Vec<Loc>> = members.as_list()?.iter().map(Value::as_loc).collect();
        Some(ReplicaConfig {
            seq: seq.as_int()?,
            members: members?,
        })
    }
}

/// A membership command, ordered through the total-order broadcast like
/// any transaction ("membership change must be an ordered event in the
/// verified protocol, not an out-of-band deploy step"). Every command
/// names the configuration sequence number it extends — the first command
/// delivered for a given `old_seq` wins, later ones for the same `old_seq`
/// are stale and ignored (compare-and-swap on the config chain) — and
/// carries the *explicit successor membership*, so a replica that missed
/// intermediate configurations (a joiner subscribing mid-stream, a removed
/// member tracking the chain) can fast-forward onto `old_seq + 1` without
/// knowing the membership of `old_seq`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigCommand {
    /// Replace the whole membership (the crash-recovery path).
    NewConfig {
        /// The members of the successor configuration.
        members: Vec<Loc>,
    },
    /// Add `loc` to the group; `members` is the successor membership
    /// (the proposer's view of the current members plus `loc`).
    AddReplica {
        /// The joining replica.
        loc: Loc,
        /// Successor membership, including `loc`.
        members: Vec<Loc>,
    },
    /// Remove `loc`; `members` is the successor membership without it.
    RemoveReplica {
        /// The leaving replica.
        loc: Loc,
        /// Successor membership, excluding `loc`.
        members: Vec<Loc>,
    },
    /// Re-run the election with `loc` as its winner. A member that
    /// reported more executed transactions first brings `loc` up to date.
    Promote {
        /// The member to elect.
        loc: Loc,
        /// The (unchanged) membership.
        members: Vec<Loc>,
    },
}

impl ConfigCommand {
    /// An add command on top of `current`; `None` if `loc` already is a
    /// member.
    pub fn add(current: &[Loc], loc: Loc) -> Option<ConfigCommand> {
        if current.contains(&loc) {
            return None;
        }
        let mut members = current.to_vec();
        members.push(loc);
        Some(ConfigCommand::AddReplica { loc, members })
    }

    /// A remove command on top of `current`; `None` if `loc` is not a
    /// member or the group would empty itself.
    pub fn remove(current: &[Loc], loc: Loc) -> Option<ConfigCommand> {
        if !current.contains(&loc) || current.len() == 1 {
            return None;
        }
        let members = current.iter().copied().filter(|m| *m != loc).collect();
        Some(ConfigCommand::RemoveReplica { loc, members })
    }

    /// A promote command on top of `current`; `None` if `loc` is not a
    /// member.
    pub fn promote(current: &[Loc], loc: Loc) -> Option<ConfigCommand> {
        current.contains(&loc).then(|| ConfigCommand::Promote {
            loc,
            members: current.to_vec(),
        })
    }

    /// The successor membership this command installs.
    pub fn members(&self) -> &[Loc] {
        match self {
            ConfigCommand::NewConfig { members }
            | ConfigCommand::AddReplica { members, .. }
            | ConfigCommand::RemoveReplica { members, .. }
            | ConfigCommand::Promote { members, .. } => members,
        }
    }

    /// The member this command elects, if it names one.
    pub fn preferred(&self) -> Option<Loc> {
        match self {
            ConfigCommand::Promote { loc, .. } => Some(*loc),
            _ => None,
        }
    }

    /// Encodes the command as a TOB payload: `<tag, <old_seq, detail>>`.
    pub fn to_payload(&self, old_seq: i64) -> Value {
        let locs = |ms: &[Loc]| Value::list(ms.iter().map(|m| Value::Loc(*m)));
        let (tag, detail) = match self {
            ConfigCommand::NewConfig { members } => ("newconfig", locs(members)),
            ConfigCommand::AddReplica { loc, members } => {
                ("addreplica", Value::pair(Value::Loc(*loc), locs(members)))
            }
            ConfigCommand::RemoveReplica { loc, members } => (
                "removereplica",
                Value::pair(Value::Loc(*loc), locs(members)),
            ),
            ConfigCommand::Promote { loc, members } => {
                ("promote", Value::pair(Value::Loc(*loc), locs(members)))
            }
        };
        Value::pair(Value::str(tag), Value::pair(Value::Int(old_seq), detail))
    }

    /// Decodes a TOB payload; returns `(old_seq, command)`.
    pub fn parse(payload: &Value) -> Option<(i64, ConfigCommand)> {
        let (tag, rest) = payload.fst().zip(payload.snd())?;
        let (old_seq, detail) = rest.fst().zip(rest.snd())?;
        let locs =
            |v: &Value| -> Option<Vec<Loc>> { v.as_list()?.iter().map(Value::as_loc).collect() };
        let loc_members = |detail: &Value| -> Option<(Loc, Vec<Loc>)> {
            let (loc, members) = detail.fst().zip(detail.snd())?;
            Some((loc.as_loc()?, locs(members)?))
        };
        let cmd = match tag.as_str()? {
            "newconfig" => ConfigCommand::NewConfig {
                members: locs(detail)?,
            },
            "addreplica" => {
                let (loc, members) = loc_members(detail)?;
                ConfigCommand::AddReplica { loc, members }
            }
            "removereplica" => {
                let (loc, members) = loc_members(detail)?;
                ConfigCommand::RemoveReplica { loc, members }
            }
            "promote" => {
                let (loc, members) = loc_members(detail)?;
                ConfigCommand::Promote { loc, members }
            }
            _ => return None,
        };
        let cmd = (!cmd.members().is_empty()).then_some(cmd)?;
        Some((old_seq.as_int()?, cmd))
    }
}

/// A transaction tagged with its submitting client and client sequence
/// number (the duplicate-suppression key).
#[derive(Clone, Debug, PartialEq)]
pub struct TxnEnvelope {
    /// Submitting client.
    pub client: Loc,
    /// Client sequence number ("the sequence number of the last transaction
    /// submitted by each client" drives dedup).
    pub cseq: i64,
    /// Client-side classification: the transaction is read-only and may be
    /// served on the lease-protected fast path. Replicas never trust this
    /// blindly — a flagged transaction that turns out to mutate state falls
    /// back to ordered execution.
    pub read_only: bool,
    /// The transaction.
    pub txn: TxnRequest,
}

impl TxnEnvelope {
    /// Builds an envelope, deriving the read-only flag from the request.
    pub fn new(client: Loc, cseq: i64, txn: TxnRequest) -> TxnEnvelope {
        let read_only = txn.is_read_only();
        TxnEnvelope {
            client,
            cseq,
            read_only,
            txn,
        }
    }

    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        Value::pair(
            Value::Loc(self.client),
            Value::pair(
                Value::Int(self.cseq),
                Value::pair(Value::Bool(self.read_only), self.txn.to_value()),
            ),
        )
    }

    /// Wire decoding.
    pub fn from_value(v: &Value) -> Option<TxnEnvelope> {
        let (client, rest) = v.fst().zip(v.snd())?;
        let (cseq, rest) = rest.fst().zip(rest.snd())?;
        let (read_only, txn) = rest.fst().zip(rest.snd())?;
        Some(TxnEnvelope {
            client: client.as_loc()?,
            cseq: cseq.as_int()?,
            read_only: read_only.as_bool()?,
            txn: TxnRequest::from_value(txn)?,
        })
    }
}

/// Builds a client submission message.
pub fn submit_msg(env: &TxnEnvelope) -> Msg {
    Msg::new(cached_header!(SUBMIT_HEADER), env.to_value())
}

/// Builds a reply message; `from` tells the client who answered, so it can
/// redirect future submissions to the current primary.
pub fn reply_msg(
    from: Loc,
    cseq: i64,
    committed: bool,
    results: &[shadowdb_sqldb::SqlValue],
) -> Msg {
    Msg::new(
        cached_header!(REPLY_HEADER),
        Value::pair(
            Value::Loc(from),
            Value::pair(
                Value::Int(cseq),
                Value::pair(
                    Value::Bool(committed),
                    Value::list(results.iter().map(sql_to_value)),
                ),
            ),
        ),
    )
}

/// A parsed reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The replica that answered.
    pub from: Loc,
    /// Client sequence number being answered.
    pub cseq: i64,
    /// Whether the transaction committed.
    pub committed: bool,
    /// Procedure results.
    pub results: Vec<shadowdb_sqldb::SqlValue>,
}

/// Parses a reply message.
pub fn parse_reply(msg: &Msg) -> Option<Reply> {
    if msg.header != cached_header!(REPLY_HEADER) {
        return None;
    }
    let (from, rest) = msg.body.fst().zip(msg.body.snd())?;
    let (cseq, rest) = rest.fst().zip(rest.snd())?;
    let (committed, results) = rest.fst().zip(rest.snd())?;
    let results: Option<Vec<shadowdb_sqldb::SqlValue>> =
        results.as_list()?.iter().map(value_to_sql).collect();
    Some(Reply {
        from: from.as_loc()?,
        cseq: cseq.as_int()?,
        committed: committed.as_bool()?,
        results: results?,
    })
}

/// Builds a stale-config NACK: the answering replica's current
/// configuration, so the client can redirect `cseq` to the real primary.
pub fn stale_config_msg(from: Loc, cseq: i64, config: &ReplicaConfig) -> Msg {
    Msg::new(
        cached_header!(STALE_CONFIG_HEADER),
        Value::pair(
            Value::Loc(from),
            Value::pair(Value::Int(cseq), config.to_value()),
        ),
    )
}

/// A parsed stale-config NACK.
#[derive(Clone, Debug, PartialEq)]
pub struct StaleConfig {
    /// The replica that NACKed.
    pub from: Loc,
    /// The client sequence number being NACKed.
    pub cseq: i64,
    /// The NACKer's current configuration.
    pub config: ReplicaConfig,
}

/// Parses a stale-config NACK.
pub fn parse_stale_config(msg: &Msg) -> Option<StaleConfig> {
    if msg.header != cached_header!(STALE_CONFIG_HEADER) {
        return None;
    }
    let (from, rest) = msg.body.fst().zip(msg.body.snd())?;
    let (cseq, config) = rest.fst().zip(rest.snd())?;
    Some(StaleConfig {
        from: from.as_loc()?,
        cseq: cseq.as_int()?,
        config: ReplicaConfig::from_value(config)?,
    })
}

/// Builds a fetch: `requester`'s incarnation `nonce` asks for the state
/// from `from` on (`-1`: an image), once the donor's stream has reached
/// `min`.
pub fn fetch_msg(requester: Loc, from: i64, min: i64, nonce: i64) -> Msg {
    let range = Value::pair(Value::Int(min), Value::Int(nonce));
    let range = Value::pair(Value::Int(from), range);
    Msg::new(
        cached_header!(FETCH_HEADER),
        Value::pair(Value::Loc(requester), range),
    )
}

/// Decodes a [`fetch_msg`] body into `(requester, from, min, nonce)`.
pub(crate) fn parse_fetch(body: &Value) -> Option<(Loc, i64, i64, i64)> {
    let (requester, range) = body.fst().zip(body.snd())?;
    let (from, range) = range.fst().zip(range.snd())?;
    let (min, nonce) = range.fst().zip(range.snd())?;
    Some((
        requester.as_loc()?,
        from.as_int()?,
        min.as_int()?,
        nonce.as_int()?,
    ))
}

/// Builds a configuration-status query.
pub fn config_query_msg(reply_to: Loc) -> Msg {
    Msg::new(cached_header!(CONFIG_QUERY_HEADER), Value::Loc(reply_to))
}

/// Builds a configuration-status report.
pub fn config_reply_msg(from: Loc, config: &ReplicaConfig, executed: i64, normal: bool) -> Msg {
    Msg::new(
        cached_header!(CONFIG_REPLY_HEADER),
        Value::pair(
            Value::Loc(from),
            Value::pair(
                config.to_value(),
                Value::pair(Value::Int(executed), Value::Bool(normal)),
            ),
        ),
    )
}

/// A parsed configuration-status report.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigReport {
    /// The reporting replica.
    pub from: Loc,
    /// Its current configuration.
    pub config: ReplicaConfig,
    /// Transactions it has executed.
    pub executed: i64,
    /// Whether it is serving in normal mode (an active member).
    pub normal: bool,
}

/// Parses a configuration-status report.
pub fn parse_config_reply(msg: &Msg) -> Option<ConfigReport> {
    if msg.header != cached_header!(CONFIG_REPLY_HEADER) {
        return None;
    }
    let (from, rest) = msg.body.fst().zip(msg.body.snd())?;
    let (config, rest) = rest.fst().zip(rest.snd())?;
    let (executed, normal) = rest.fst().zip(rest.snd())?;
    Some(ConfigReport {
        from: from.as_loc()?,
        config: ReplicaConfig::from_value(config)?,
        executed: executed.as_int()?,
        normal: normal.as_bool()?,
    })
}

/// Builds a lease-audit record: replica `from` served a fast-path read at
/// `served_us` under lease `term` (PBR: its configuration) valid to
/// `until_us`.
pub fn lease_audit_msg(term: i64, from: Loc, served_us: i64, until_us: i64) -> Msg {
    Msg::new(
        cached_header!(LEASE_AUDIT_HEADER),
        Value::pair(
            Value::Int(term),
            Value::pair(
                Value::Loc(from),
                Value::pair(Value::Int(served_us), Value::Int(until_us)),
            ),
        ),
    )
}

/// Parses a lease-audit record into the [`Event::LeaseRead`] row a
/// deployment's probe would have recorded for the same read.
pub fn parse_lease_audit(msg: &Msg) -> Option<Event> {
    if msg.header != cached_header!(LEASE_AUDIT_HEADER) {
        return None;
    }
    let (term, rest) = msg.body.fst().zip(msg.body.snd())?;
    let (loc, rest) = rest.fst().zip(rest.snd())?;
    let (served_us, until_us) = rest.fst().zip(rest.snd())?;
    Some(Event::LeaseRead {
        term: term.as_int()?,
        loc: loc.as_loc()?,
        served_us: served_us.as_int()?,
        until_us: until_us.as_int()?,
    })
}

/// Encodes a SQL value into the transport universe.
pub fn sql_to_value(v: &shadowdb_sqldb::SqlValue) -> Value {
    use shadowdb_sqldb::SqlValue;
    match v {
        SqlValue::Null => Value::Unit,
        SqlValue::Int(i) => Value::Int(*i),
        // Reals travel as their bit pattern to stay exact.
        SqlValue::Real(r) => Value::pair(Value::str("#real"), Value::Int(r.to_bits() as i64)),
        SqlValue::Text(s) => Value::str(s),
    }
}

/// Decodes a SQL value from the transport universe.
pub fn value_to_sql(v: &Value) -> Option<shadowdb_sqldb::SqlValue> {
    use shadowdb_sqldb::SqlValue;
    Some(match v {
        Value::Unit => SqlValue::Null,
        Value::Int(i) => SqlValue::Int(*i),
        Value::Str(s) => SqlValue::Text(s.to_string()),
        Value::Pair(p) if p.0.as_str() == Some("#real") => {
            SqlValue::Real(f64::from_bits(p.1.as_int()? as u64))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowdb_sqldb::SqlValue;

    #[test]
    fn config_roundtrip_and_roles() {
        let c = ReplicaConfig::initial(vec![Loc::new(5), Loc::new(6), Loc::new(7)]);
        assert_eq!(c.primary(), Loc::new(5));
        assert_eq!(c.backups(), &[Loc::new(6), Loc::new(7)]);
        assert!(c.contains(Loc::new(6)));
        assert_eq!(ReplicaConfig::from_value(&c.to_value()), Some(c));
    }

    #[test]
    fn envelope_roundtrip() {
        let env = TxnEnvelope::new(
            Loc::new(1),
            42,
            TxnRequest::BankDeposit {
                account: 7,
                amount: 5,
            },
        );
        assert!(!env.read_only, "a deposit is not a fast-path read");
        assert_eq!(TxnEnvelope::from_value(&env.to_value()), Some(env));
        let read = TxnEnvelope::new(Loc::new(2), 7, TxnRequest::BankRead { account: 3 });
        assert!(read.read_only, "a bank read is classified at the client");
        assert_eq!(TxnEnvelope::from_value(&read.to_value()), Some(read));
    }

    #[test]
    fn config_command_roundtrip_and_application() {
        let members = vec![Loc::new(1), Loc::new(2)];
        for cmd in [
            ConfigCommand::NewConfig {
                members: members.clone(),
            },
            ConfigCommand::add(&members, Loc::new(3)).unwrap(),
            ConfigCommand::remove(&members, Loc::new(2)).unwrap(),
            ConfigCommand::promote(&members, Loc::new(2)).unwrap(),
        ] {
            let payload = cmd.to_payload(7);
            assert_eq!(ConfigCommand::parse(&payload), Some((7, cmd)));
        }
        assert_eq!(
            ConfigCommand::add(&members, Loc::new(3)).unwrap().members(),
            &[Loc::new(1), Loc::new(2), Loc::new(3)]
        );
        assert_eq!(
            ConfigCommand::add(&members, Loc::new(2)),
            None,
            "adding an existing member is a no-op"
        );
        assert_eq!(
            ConfigCommand::remove(&members, Loc::new(1))
                .unwrap()
                .members(),
            &[Loc::new(2)]
        );
        assert_eq!(
            ConfigCommand::remove(&[Loc::new(1)], Loc::new(1)),
            None,
            "a group never empties itself"
        );
        assert_eq!(
            ConfigCommand::promote(&members, Loc::new(9)),
            None,
            "promoting a non-member is a no-op"
        );
        let promote = ConfigCommand::promote(&members, Loc::new(2)).unwrap();
        assert_eq!(promote.preferred(), Some(Loc::new(2)));
        assert_eq!(promote.members(), &members[..]);
        assert_eq!(
            ConfigCommand::parse(&ConfigCommand::NewConfig { members: vec![] }.to_payload(0)),
            None,
            "an empty successor membership never parses"
        );
    }

    #[test]
    fn stale_config_and_status_roundtrip() {
        let config = ReplicaConfig {
            seq: 3,
            members: vec![Loc::new(5), Loc::new(6)],
        };
        let m = stale_config_msg(Loc::new(6), 11, &config);
        assert_eq!(
            parse_stale_config(&m),
            Some(StaleConfig {
                from: Loc::new(6),
                cseq: 11,
                config: config.clone()
            })
        );
        let r = config_reply_msg(Loc::new(5), &config, 42, true);
        assert_eq!(
            parse_config_reply(&r),
            Some(ConfigReport {
                from: Loc::new(5),
                config,
                executed: 42,
                normal: true
            })
        );
    }

    #[test]
    fn reply_roundtrip_including_reals() {
        let results = vec![
            SqlValue::Int(3),
            SqlValue::Real(2.75),
            SqlValue::Null,
            SqlValue::from("x"),
        ];
        let m = reply_msg(Loc::new(4), 9, true, &results);
        assert_eq!(
            parse_reply(&m),
            Some(Reply {
                from: Loc::new(4),
                cseq: 9,
                committed: true,
                results
            })
        );
    }
}
