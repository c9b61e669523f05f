//! One route to a replica group.
//!
//! The paper's PBR makes membership replicated state — "configurations
//! carry sequence numbers", and every change runs through the verified
//! TOB — so whoever addresses a group must follow its configuration chain.
//! Two kinds of sender do: a client submitting a transaction, and a replica
//! of another shard sending a 2PC record. Both hold a [`GroupRoute`] per
//! group and use the same three operations: [`GroupRoute::submit`] an
//! envelope, note who answered ([`Routes::note_reply`]), and adopt the
//! configuration a `StaleConfig` NACK reports ([`GroupRoute::adopt`]).
//! A route is *learned* state: it starts as the deploy-time layout and
//! moves with what the group's replicas say about themselves.

use crate::msgs::{submit_msg, StaleConfig, TxnEnvelope};
use shadowdb_eventml::SendInstr;
use shadowdb_loe::Loc;
use shadowdb_tob::broadcast_msg;
use shadowdb_workloads::ShardMap;

/// Who orders a group's transactions, and therefore what a sender
/// addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Primary-backup: submissions go to the replicas themselves. Only the
    /// primary of the current configuration acts; every other settled
    /// replica NACKs with the configuration it knows.
    Pbr,
    /// State-machine replication: submissions are broadcast through the
    /// group's TOB service and every replica answers.
    Smr {
        /// The lease-based read fast path is on: a read-only transaction's
        /// first attempt goes *directly* to the believed lease holder,
        /// skipping the broadcast round. A non-holder forwards it into the
        /// TOB itself, so correctness never depends on the guess.
        read_leases: bool,
    },
}

/// How to get an envelope ordered in one replica group, as far as this
/// sender knows.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroupRoute {
    policy: Policy,
    /// The group's TOB server entry points.
    servers: Vec<Loc>,
    /// Every replica location known: the members of the newest adopted
    /// configuration first (primary leading), previously known locations
    /// kept at the tail so a fan-out can still reach a yet-newer
    /// configuration through any replica that knows it.
    replicas: Vec<Loc>,
    /// The replica believed to be the PBR primary, or the SMR lease holder
    /// (during a lease only the holder answers, so the latest answer's
    /// sender is the best guess). `None`: fall back to `replicas[0]`.
    target: Option<Loc>,
    /// Highest configuration sequence adopted; older reports never roll
    /// the route back.
    config_seq: i64,
}

impl GroupRoute {
    /// The route to a group as deployed: `replicas` lists every replica,
    /// under PBR the initial primary first.
    pub fn new(policy: Policy, servers: Vec<Loc>, replicas: Vec<Loc>) -> GroupRoute {
        assert!(!replicas.is_empty(), "a group has replicas");
        GroupRoute {
            policy,
            servers,
            replicas,
            target: None,
            config_seq: -1,
        }
    }

    /// The group's TOB server entry points.
    pub fn servers(&self) -> &[Loc] {
        &self.servers
    }

    /// Every replica location known, current members first.
    pub fn replicas(&self) -> &[Loc] {
        &self.replicas
    }

    /// Every location a message into the group can be addressed to.
    pub fn locs(&self) -> impl Iterator<Item = Loc> + '_ {
        self.replicas.iter().chain(&self.servers).copied()
    }

    /// Sends `env` into the group. A first attempt (`fan_out` unset) takes
    /// the one-hop path: the believed PBR primary, or — for a read-only
    /// envelope under SMR leases — the believed holder; anything else
    /// under SMR is broadcast. With `fan_out` — a timeout resend, or a
    /// peer's 2PC record, whose sender cannot wait out a wrong guess — the
    /// believed target is forgotten and the envelope goes to every known
    /// PBR replica (only the primary acts) or into the TOB.
    ///
    /// A broadcast leaves as `(slf, msgid)` through server `rotation`
    /// (mod the server count); both are the caller's policy, because the
    /// service deduplicates by them. Returns whether `msgid` was spent.
    pub fn submit(
        &mut self,
        slf: Loc,
        env: &TxnEnvelope,
        fan_out: bool,
        msgid: i64,
        rotation: usize,
        outs: &mut Vec<SendInstr>,
    ) -> bool {
        if fan_out {
            self.target = None;
        }
        let one_hop = match self.policy {
            Policy::Pbr => true,
            Policy::Smr { read_leases } => read_leases && env.read_only && !fan_out,
        };
        if !one_hop {
            let server = self.servers[rotation % self.servers.len()];
            outs.push(SendInstr::now(
                server,
                broadcast_msg(slf, msgid, env.to_value()),
            ));
            return true;
        }
        if fan_out {
            for r in &self.replicas {
                outs.push(SendInstr::now(*r, submit_msg(env)));
            }
        } else {
            let target = self.target.unwrap_or(self.replicas[0]);
            outs.push(SendInstr::now(target, submit_msg(env)));
        }
        false
    }

    /// Adopts the configuration a `StaleConfig` NACK reports, if the NACK
    /// is about this group: the reported members become the head of the
    /// known replicas and the reported primary the target. A report older
    /// than the adopted sequence changes nothing. Returns whether the
    /// route moved — a sender with an envelope outstanding there should
    /// submit it again (replicas deduplicate, so an over-eager
    /// resubmission is a no-op).
    pub fn adopt(&mut self, st: &StaleConfig) -> bool {
        let members = &st.config.members;
        let ours = self.policy == Policy::Pbr
            && (self.replicas.contains(&st.from)
                || members.iter().any(|m| self.replicas.contains(m)));
        let (true, Some(&primary)) = (ours, members.first()) else {
            return false;
        };
        if st.config.seq < self.config_seq {
            return false;
        }
        let newer = st.config.seq > self.config_seq;
        if newer {
            self.replicas.retain(|r| !members.contains(r));
            self.replicas.splice(0..0, members.iter().copied());
            self.config_seq = st.config.seq;
        }
        let retarget = self.target != Some(primary);
        self.target = Some(primary);
        newer || retarget
    }
}

/// A sender's routes to every group of a deployment, indexed by shard. An
/// unsharded deployment is one group.
#[derive(Clone, Debug, Hash)]
pub struct Routes {
    pub(crate) map: ShardMap,
    pub(crate) groups: Vec<GroupRoute>,
}

impl Routes {
    /// Routes to the groups that partition the keyspace by `map`.
    pub fn new(map: ShardMap, groups: Vec<GroupRoute>) -> Routes {
        assert_eq!(map.shards(), groups.len(), "one route per shard");
        Routes { map, groups }
    }

    /// The routes of an unsharded deployment: its one group.
    pub fn single(group: GroupRoute) -> Routes {
        Routes::new(ShardMap::new(1), vec![group])
    }

    /// The per-shard routes.
    pub fn groups(&self) -> &[GroupRoute] {
        &self.groups
    }

    /// Remembers who answered: `from` leads its group, or holds its lease.
    /// With one group every answer is that group's — also a joiner's that
    /// no membership report has named yet.
    pub fn note_reply(&mut self, from: Loc) {
        match self.groups.as_mut_slice() {
            [only] => only.target = Some(from),
            groups => {
                for g in groups.iter_mut().filter(|g| g.replicas.contains(&from)) {
                    g.target = Some(from);
                }
            }
        }
    }

    /// Adopts a `StaleConfig` NACK into the route of the group it names
    /// ([`GroupRoute::adopt`]; groups share no replica, so at most one
    /// does); whether that route moved.
    pub fn adopt(&mut self, st: &StaleConfig) -> bool {
        self.groups.iter_mut().any(|g| g.adopt(st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{DbClient, DbClientStats};
    use crate::msgs::{ReplicaConfig, SUBMIT_HEADER};
    use crate::shard::{ShardRole, TwoPcAction};
    use shadowdb_eventml::{Ctx, Process};
    use shadowdb_loe::VTime;
    use shadowdb_tob::BROADCAST_HEADER;
    use shadowdb_workloads::{TwoPcRecord, TxnRequest};
    use std::sync::Arc;

    fn locs(ids: &[u32]) -> Vec<Loc> {
        ids.iter().map(|i| Loc::new(*i)).collect()
    }

    /// Shard 0 at `[10, 11, 12]` behind servers `[1, 2]`, shard 1 at
    /// `[20, 21, 22]` behind `[3, 4]`.
    fn two_groups(policy: Policy) -> Routes {
        let group = |servers: &[u32], replicas: &[u32]| {
            GroupRoute::new(policy, locs(servers), locs(replicas))
        };
        Routes::new(
            ShardMap::new(2),
            vec![group(&[1, 2], &[10, 11, 12]), group(&[3, 4], &[20, 21, 22])],
        )
    }

    fn nack(from: u32, seq: i64, members: &[u32]) -> StaleConfig {
        StaleConfig {
            from: Loc::new(from),
            cseq: 0,
            config: ReplicaConfig {
                seq,
                members: locs(members),
            },
        }
    }

    fn dests(outs: &[SendInstr], header: &str) -> Vec<Loc> {
        let sent = outs.iter().filter(|o| o.msg.header.name() == header);
        sent.map(|o| o.dest).collect()
    }

    #[test]
    fn an_older_seq_nack_never_rolls_membership_back() {
        let mut routes = two_groups(Policy::Pbr);
        assert!(routes.adopt(&nack(10, 2, &[13, 11])));
        let adopted = routes.groups[0].clone();
        assert_eq!(adopted.replicas, locs(&[13, 11, 10, 12]));
        assert_eq!(adopted.target, Some(Loc::new(13)));
        // A replica the chain left behind still reports configuration 1.
        assert!(!routes.adopt(&nack(12, 1, &[10, 11])));
        assert_eq!(routes.groups[0], adopted, "neither members nor target");
        // The same sequence again, after the election reordered it: the
        // membership stays, the target follows the reported primary.
        assert!(routes.adopt(&nack(13, 2, &[11, 13])));
        assert_eq!(routes.groups[0].replicas, adopted.replicas);
        assert_eq!(routes.groups[0].target, Some(Loc::new(11)));
        assert!(!routes.adopt(&nack(13, 2, &[11, 13])), "nothing moved");
    }

    #[test]
    fn a_nack_from_a_replica_of_another_group_is_ignored() {
        let mut routes = two_groups(Policy::Pbr);
        let before = routes.groups[0].clone();
        assert!(routes.adopt(&nack(21, 4, &[23, 20])));
        assert_eq!(routes.groups[0], before, "shard 0 keeps its route");
        assert_eq!(routes.groups[1].replicas, locs(&[23, 20, 21, 22]));
        // Configuration sequences are per group: shard 1 at 4 does not
        // make shard 0's configuration 1 look old.
        assert!(routes.adopt(&nack(11, 1, &[11, 12])));
        assert_eq!(routes.groups[0].config_seq, 1);
        // Nobody this sender knows: not a report about any of its groups.
        assert!(!routes.adopt(&nack(40, 9, &[40, 41])));
        // SMR membership is the subscriber set; no replica NACKs.
        let mut smr = two_groups(Policy::Smr { read_leases: true });
        assert!(!smr.adopt(&nack(10, 2, &[13, 11])));
    }

    #[test]
    fn a_sharded_smr_single_shard_read_takes_the_fast_path_and_a_prepare_never_does() {
        let txns = vec![
            TxnRequest::BankRead { account: 3 }, // shard 1 only
            TxnRequest::BankTransfer {
                from: 2,
                to: 5,
                amount: 1,
            },
        ];
        let routes = two_groups(Policy::Smr { read_leases: true });
        let mut c = DbClient::new(
            routes,
            txns,
            Arc::<parking_lot::Mutex<DbClientStats>>::default(),
        );
        let slf = Loc::new(0);
        let outs = c.step(&Ctx::new(slf, VTime::ZERO), &DbClient::start_msg());
        assert_eq!(dests(&outs, SUBMIT_HEADER), locs(&[20]), "one hop");
        assert!(dests(&outs, BROADCAST_HEADER).is_empty());
        // The holder answers; the transfer spans both shards, so it leaves
        // as a Prepare through each group's TOB — never to the holder.
        let reply = crate::msgs::reply_msg(Loc::new(21), 0, true, &[]);
        let outs = c.step(&Ctx::new(slf, VTime::from_millis(1)), &reply);
        assert!(dests(&outs, SUBMIT_HEADER).is_empty());
        assert_eq!(dests(&outs, BROADCAST_HEADER), locs(&[1, 3]));
    }

    #[test]
    fn render_after_an_adopted_nack_addresses_the_joiner() {
        let mut role = ShardRole {
            shard: 1,
            routes: two_groups(Policy::Pbr),
        };
        let vote = TwoPcAction::SendRecord {
            to_shard: 0,
            record: TwoPcRecord::Vote {
                txnid: (Loc::new(0), 7),
                shard: 1,
                granted: true,
            },
        };
        let slf = Loc::new(20);
        let mut seqs = vec![0, 0];
        let outs = role.render(slf, std::slice::from_ref(&vote), &mut seqs);
        assert_eq!(dests(&outs, SUBMIT_HEADER), locs(&[10, 11, 12]));
        // Every deploy-time member of shard 0 was since replaced by 33.
        assert!(role.routes.adopt(&nack(10, 3, &[33])));
        let outs = role.render(slf, &[vote], &mut seqs);
        assert_eq!(dests(&outs, SUBMIT_HEADER), locs(&[33, 10, 11, 12]));
        assert_eq!(seqs, vec![2, 0], "one emission counter per record");
    }
}
