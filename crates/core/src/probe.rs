//! One observation log for the safety checks.
//!
//! A deployment built with [`crate::deploy::DeployOptions::probe`] hands
//! one cloneable [`Probe`] to every replica it makes — first boot, reboot
//! and join alike — and the recording sites append typed [`Event`]s to it:
//! the PBR policy when it first executes as a configuration's primary, the
//! replica core when it serves a lease read or answers a rejoin, the 2PC
//! engine at each protocol step. The log observes state and is never part
//! of it; with no probe installed each site is one `if let Some(..)`.
//!
//! Each safety invariant is written once, below, over `&[Event]`, and a
//! failed check ends with the log's last [`TAIL`] events. The model
//! checker installs no probe — it forks world states, and a shared log
//! would mix branches — so its lease reads travel as messages, which
//! [`crate::msgs::parse_lease_audit`] decodes to the same rows.

use crate::shard::TwoPcEvent;
use shadowdb_loe::Loc;
use shadowdb_workloads::TxnId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Which transfer path a donor used to bring a rejoining replica up to
/// date. A disk-recovered replica must take the suffix-only `Catchup`
/// path and never need a full `Snapshot` — the point of the WAL is that
/// restart-from-disk misses only a suffix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// The donor sent the missing transactions (under SMR, deliveries)
    /// from its window of recently executed ones.
    Catchup,
    /// The donor streamed a full state snapshot.
    Snapshot,
}

/// One observation (times in microseconds on the recording replica's
/// clock).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// `loc` executed a client transaction as primary of its group's
    /// configuration `seq` (recorded once per replica and configuration).
    Primary { seq: i64, loc: Loc },
    /// `loc` served a read on the lease fast path at `served_us`, under
    /// the lease its marker stamped `term` (µs on the holder's clock)
    /// granted, valid until `until_us`.
    LeaseRead {
        term: i64,
        loc: Loc,
        served_us: i64,
        until_us: i64,
    },
    /// A donor answered `to`'s state-transfer request by `kind`.
    Transfer { to: Loc, kind: TransferKind },
    /// A 2PC protocol step at one replica.
    TwoPc(TwoPcEvent),
}

/// The shared event log; clones append to the same log.
#[derive(Clone, Debug, Default)]
pub struct Probe(Arc<parking_lot::Mutex<Vec<Event>>>);

impl Probe {
    /// Appends `event`.
    pub fn record(&self, event: Event) {
        self.0.lock().push(event);
    }

    /// Everything recorded so far, in recording order.
    pub fn events(&self) -> Vec<Event> {
        self.0.lock().clone()
    }
}

/// How many of the log's last events a failed check shows.
pub const TAIL: usize = 32;

/// A failed check: what broke, then the log's last [`TAIL`] events. Its
/// `Debug` is its text, so `expect` prints the evidence line by line.
pub struct ProbeViolation(String);

impl fmt::Display for ProbeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ProbeViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn violation(events: &[Event], what: String) -> Result<(), ProbeViolation> {
    Err(ProbeViolation(format!("{what}\n{}", timeline(events))))
}

/// The last [`TAIL`] events of `events`, one per line, in recording order
/// and numbered by their position in the log.
pub fn timeline(events: &[Event]) -> String {
    let start = events.len().saturating_sub(TAIL);
    let mut out = format!("last {} of {} events:", events.len() - start, events.len());
    for (i, e) in events.iter().enumerate().skip(start) {
        out.push_str(&format!("\n  #{i} {e:?}"));
    }
    out
}

/// Election safety: no configuration sequence number ever had two
/// distinct replicas executing as its primary. Sequence numbers are
/// group-local, so a sharded deployment names its groups' replicas in
/// `groups` and uniqueness is per `(group, seq)`; a replica in none of
/// them (an unsharded deployment's, or any joiner) counts as one more
/// group.
///
/// # Errors
///
/// The first seq seen with a second primary.
pub fn check_one_primary_per_seq(
    events: &[Event],
    groups: &[Vec<Loc>],
) -> Result<(), ProbeViolation> {
    let group_of = |loc: Loc| groups.iter().position(|g| g.contains(&loc));
    let mut by_seq: HashMap<(Option<usize>, i64), Loc> = HashMap::new();
    for e in events {
        let &Event::Primary { seq, loc } = e else {
            continue;
        };
        match by_seq.insert((group_of(loc), seq), loc) {
            Some(prev) if prev != loc => {
                let what =
                    format!("two primaries in one group's config {seq}: {prev:?} and {loc:?}");
                return violation(events, what);
            }
            _ => {}
        }
    }
    Ok(())
}

/// The single-holder guarantee: no two replicas ever served lease reads
/// under overlapping intervals `[served, until)`. Intervals are compared
/// across *all* terms — a successor must wait out its predecessor's lease,
/// so even cross-configuration overlap is a violation.
///
/// # Errors
///
/// The first overlapping pair.
pub fn check_lease_intervals_disjoint(events: &[Event]) -> Result<(), ProbeViolation> {
    let reads = events.iter().filter_map(|e| match *e {
        Event::LeaseRead {
            loc,
            served_us,
            until_us,
            ..
        } => Some((loc, served_us, until_us)),
        _ => None,
    });
    let reads: Vec<(Loc, i64, i64)> = reads.collect();
    for a in &reads {
        for b in reads.iter().filter(|b| b.0 != a.0) {
            if a.1 < b.2 && b.1 < a.2 {
                let what = format!("two holders served under overlapping leases: {a:?} vs {b:?}");
                return violation(events, what);
            }
        }
    }
    Ok(())
}

/// Catch-up-only rejoin: `rejoined`, rebooted from its disk, was served
/// the suffix it missed at least once and a full state transfer never.
///
/// # Errors
///
/// A missing catch-up or a snapshot transfer to `rejoined`.
pub fn check_catchup_only(events: &[Event], rejoined: Loc) -> Result<(), ProbeViolation> {
    let served = |kind| events.contains(&Event::Transfer { to: rejoined, kind });
    if served(TransferKind::Snapshot) {
        let what = format!("restart-from-disk of {rejoined:?} fell back to a full state transfer");
        return violation(events, what);
    }
    if !served(TransferKind::Catchup) {
        let what = format!("rebooted replica {rejoined:?} never completed a suffix catch-up");
        return violation(events, what);
    }
    Ok(())
}

/// Cross-shard atomicity: all replicas agree on each decision, a committed
/// transaction applied on *every* participant shard, and an aborted one on
/// *none*. Transactions still undecided at the end of the log are skipped
/// (the client never got an answer for them, so nothing was promised).
///
/// # Errors
///
/// The first violation found.
pub fn check_two_pc_atomicity(events: &[Event]) -> Result<(), ProbeViolation> {
    let mut participants: BTreeMap<TxnId, &Vec<usize>> = BTreeMap::new();
    let mut decisions: BTreeMap<TxnId, BTreeSet<bool>> = BTreeMap::new();
    let mut applied: BTreeMap<(TxnId, usize), BTreeSet<bool>> = BTreeMap::new();
    for e in events {
        match e {
            Event::TwoPc(TwoPcEvent::Prepared {
                txnid,
                participants: ps,
                ..
            }) => {
                let prev = *participants.entry(*txnid).or_insert(ps);
                if prev != ps {
                    let what = format!("txn {txnid:?}: participants {prev:?} vs {ps:?}");
                    return violation(events, what);
                }
            }
            Event::TwoPc(TwoPcEvent::Decided { txnid, commit, .. }) => {
                decisions.entry(*txnid).or_default().insert(*commit);
            }
            Event::TwoPc(TwoPcEvent::Applied {
                txnid,
                shard,
                committed,
            }) => {
                let outcomes = applied.entry((*txnid, *shard)).or_default();
                outcomes.insert(*committed);
            }
            _ => {}
        }
    }
    for ((txnid, shard), outcomes) in &applied {
        let aborted = decisions.get(txnid).is_some_and(|ds| ds.contains(&false));
        if outcomes.len() > 1 || (aborted && outcomes.contains(&true)) {
            let what = format!(
                "txn {txnid:?}: shard {shard} applied {outcomes:?}, decisions {:?}",
                decisions.get(txnid)
            );
            return violation(events, what);
        }
    }
    for (txnid, ds) in &decisions {
        if ds.len() > 1 {
            return violation(events, format!("txn {txnid:?}: conflicting decisions"));
        }
        let landed = |p: &&usize| {
            applied
                .get(&(*txnid, **p))
                .is_some_and(|o| o.contains(&true))
        };
        let ps = participants.get(txnid).map_or(&[][..], |ps| &ps[..]);
        if let Some(p) = ps.iter().find(|p| ds.contains(&true) && !landed(p)) {
            let what = format!("txn {txnid:?}: decided commit but shard {p} never applied");
            return violation(events, what);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn primary(seq: i64, loc: u32) -> Event {
        Event::Primary {
            seq,
            loc: Loc::new(loc),
        }
    }

    fn lease_read(loc: u32, served_us: i64, until_us: i64) -> Event {
        Event::LeaseRead {
            term: 1,
            loc: Loc::new(loc),
            served_us,
            until_us,
        }
    }

    fn transfer(to: u32, kind: TransferKind) -> Event {
        Event::Transfer {
            to: Loc::new(to),
            kind,
        }
    }

    #[test]
    fn two_primaries_in_one_groups_seq_are_rejected() {
        let log = [primary(0, 5), primary(1, 5), primary(1, 6)];
        assert!(check_one_primary_per_seq(&log[..2], &[]).is_ok());
        assert!(check_one_primary_per_seq(&log, &[]).is_err());
        let one_group = [vec![Loc::new(5), Loc::new(6)]];
        assert!(check_one_primary_per_seq(&log, &one_group).is_err());
        // Seq 1 of two different groups: each had one primary.
        let two_groups = [vec![Loc::new(5)], vec![Loc::new(6)]];
        assert!(check_one_primary_per_seq(&log, &two_groups).is_ok());
    }

    #[test]
    fn overlapping_leases_of_two_holders_are_rejected() {
        let overlap = [lease_read(1, 0, 100), lease_read(2, 50, 150)];
        assert!(check_lease_intervals_disjoint(&overlap).is_err());
        // The same intervals from one holder are one lease, renewed.
        let renewed = [lease_read(1, 0, 100), lease_read(1, 50, 150)];
        assert!(check_lease_intervals_disjoint(&renewed).is_ok());
        // Back to back is a hand-off, not an overlap.
        let handoff = [lease_read(1, 0, 100), lease_read(2, 100, 150)];
        assert!(check_lease_intervals_disjoint(&handoff).is_ok());
    }

    #[test]
    fn a_snapshot_to_the_rebooted_replica_is_rejected() {
        let victim = 7;
        let caught_up = [
            transfer(3, TransferKind::Snapshot),
            transfer(victim, TransferKind::Catchup),
        ];
        assert!(check_catchup_only(&caught_up, Loc::new(victim)).is_ok());
        let mut snapshot = caught_up.to_vec();
        snapshot.push(transfer(victim, TransferKind::Snapshot));
        assert!(check_catchup_only(&snapshot, Loc::new(victim)).is_err());
        // No rejoin at all is no evidence of a catch-up.
        assert!(check_catchup_only(&caught_up[..1], Loc::new(victim)).is_err());
    }

    #[test]
    fn a_half_committed_transaction_is_rejected() {
        let txnid = (Loc::new(1), 1);
        let two_pc = Event::TwoPc;
        let mut log = vec![
            two_pc(TwoPcEvent::Prepared {
                txnid,
                shard: 0,
                participants: vec![0, 1],
            }),
            two_pc(TwoPcEvent::Decided {
                txnid,
                shard: 0,
                commit: true,
            }),
            two_pc(TwoPcEvent::Applied {
                txnid,
                shard: 0,
                committed: true,
            }),
        ];
        // Undecided transactions are skipped; a decided one must land on
        // every participant.
        assert!(check_two_pc_atomicity(&log[..1]).is_ok());
        assert!(check_two_pc_atomicity(&log).is_err());
        log.push(two_pc(TwoPcEvent::Applied {
            txnid,
            shard: 1,
            committed: true,
        }));
        assert!(check_two_pc_atomicity(&log).is_ok());
        // An abort decided anywhere forbids every applied part.
        log.push(two_pc(TwoPcEvent::Decided {
            txnid,
            shard: 1,
            commit: false,
        }));
        assert!(check_two_pc_atomicity(&log).is_err());
    }

    /// A failed check ends with the log's last [`TAIL`] events, oldest
    /// first, numbered by position.
    #[test]
    fn a_violation_ends_with_the_last_events_in_order() {
        let mut log: Vec<Event> = (0..40).map(|i| primary(i, 5)).collect();
        log.push(primary(39, 6));
        let v = check_one_primary_per_seq(&log, &[])
            .unwrap_err()
            .to_string();
        let lines: Vec<&str> = v.lines().collect();
        assert_eq!(lines[1], "last 32 of 41 events:");
        assert_eq!(lines.len(), 2 + TAIL);
        assert!(
            lines[2].starts_with("  #9 Primary { seq: 9,"),
            "{}",
            lines[2]
        );
        assert!(
            lines[TAIL + 1].starts_with("  #40 Primary { seq: 39,"),
            "{v}"
        );
        assert_eq!(timeline(&log[..2]).lines().count(), 3);
    }
}
