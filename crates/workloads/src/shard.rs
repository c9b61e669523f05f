//! Horizontal sharding: the shard map and the 2PC-over-TOB wire records.
//!
//! A [`ShardMap`] partitions the keyspace across N independent replica
//! groups: bank accounts hash by id, TPC-C partitions by warehouse id (the
//! benchmark's natural shard key — remote-warehouse NewOrder and Payment
//! are its built-in cross-shard transactions). Single-shard transactions
//! route straight to their group and keep the fast path untouched;
//! cross-shard transactions decompose into per-shard *parts*
//! ([`ShardMap::part_for`]) committed atomically by a deterministic
//! two-phase commit whose records ([`TwoPcRecord`]) are themselves ordered
//! within each participant group — so coordinator state is replicated and
//! survives any single replica.

use crate::tpcc::TpccTxn;
use crate::txn::TxnRequest;
use shadowdb_eventml::Value;
use shadowdb_loe::Loc;

/// Identity of a cross-shard transaction: the submitting client and its
/// per-client sequence number — the same pair every replica already uses
/// for duplicate suppression.
pub type TxnId = (Loc, i64);

/// The wire encoding of a [`TxnId`]: `<client, cseq>`.
pub fn txnid_to_value(id: &TxnId) -> Value {
    Value::pair(Value::Loc(id.0), Value::Int(id.1))
}

/// Decodes what [`txnid_to_value`] encoded.
pub fn txnid_from_value(v: &Value) -> Option<TxnId> {
    Some((v.fst()?.as_loc()?, v.snd()?.as_int()?))
}

/// A hash partitioning of the database across `shards` replica groups.
///
/// Bank accounts shard by `id mod shards`; TPC-C warehouses by
/// `(w_id - 1) mod shards` (warehouse ids are 1-based). The item catalog
/// is replicated reference data present on every shard, so NewOrder's
/// invalid-item rollback stays deterministic everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` groups (at least one).
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards >= 1, "a deployment needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning a bank account.
    pub fn shard_of_account(&self, account: i64) -> usize {
        account.rem_euclid(self.shards as i64) as usize
    }

    /// The shard owning a TPC-C warehouse (ids are 1-based).
    pub fn shard_of_warehouse(&self, warehouse: i64) -> usize {
        (warehouse - 1).rem_euclid(self.shards as i64) as usize
    }

    /// The sorted, deduplicated set of shards a request touches. The first
    /// entry doubles as the transaction's *coordinator* shard.
    pub fn participants(&self, txn: &TxnRequest) -> Vec<usize> {
        let mut ps = match txn {
            TxnRequest::BankDeposit { account, .. } | TxnRequest::BankRead { account } => {
                vec![self.shard_of_account(*account)]
            }
            TxnRequest::BankTransfer { from, to, .. } => {
                vec![self.shard_of_account(*from), self.shard_of_account(*to)]
            }
            TxnRequest::Tpcc(t) => self.tpcc_participants(t),
            // Raw SQL has no shard key: it pins to shard 0 by convention.
            TxnRequest::Sql(_) => vec![0],
            // 2PC records are routed explicitly, never through this map.
            TxnRequest::TwoPc(_) => vec![],
        };
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    fn tpcc_participants(&self, t: &TpccTxn) -> Vec<usize> {
        match t {
            TpccTxn::NewOrder {
                warehouse, lines, ..
            } => std::iter::once(self.shard_of_warehouse(*warehouse))
                .chain(lines.iter().map(|l| self.shard_of_warehouse(l.supply_w)))
                .collect(),
            TpccTxn::Payment {
                warehouse,
                c_warehouse,
                ..
            } => vec![
                self.shard_of_warehouse(*warehouse),
                self.shard_of_warehouse(*c_warehouse),
            ],
            TpccTxn::OrderStatus { warehouse, .. }
            | TpccTxn::Delivery { warehouse, .. }
            | TpccTxn::StockLevel { warehouse, .. }
            | TpccTxn::RemotePay { warehouse, .. } => vec![self.shard_of_warehouse(*warehouse)],
            TpccTxn::RemoteStock { lines, home } => std::iter::once(self.shard_of_warehouse(*home))
                .chain(lines.iter().map(|l| self.shard_of_warehouse(l.supply_w)))
                .collect(),
        }
    }

    /// True when the request touches exactly one shard.
    pub fn is_single_shard(&self, txn: &TxnRequest) -> bool {
        self.participants(txn).len() == 1
    }

    /// The per-shard *part* of a request: the deterministic slice of its
    /// effects owned by `shard`. `None` when the shard is not a
    /// participant. For a single-shard request at its home shard this is
    /// the request itself; cross-shard requests decompose:
    ///
    /// * a bank transfer splits into a debit at the source shard and a
    ///   credit at the destination shard;
    /// * a remote-warehouse NewOrder keeps order entry (and same-shard
    ///   stock updates) at the home shard and ships the foreign-shard
    ///   stock updates as a [`TpccTxn::RemoteStock`] part;
    /// * a remote-customer Payment keeps warehouse/district/history at the
    ///   home shard and ships the customer update as a
    ///   [`TpccTxn::RemotePay`] part.
    pub fn part_for(&self, txn: &TxnRequest, shard: usize) -> Option<TxnRequest> {
        let ps = self.participants(txn);
        if !ps.contains(&shard) {
            return None;
        }
        if ps.len() == 1 {
            return Some(txn.clone());
        }
        match txn {
            TxnRequest::BankTransfer { from, to, amount } => {
                let (sf, st) = (self.shard_of_account(*from), self.shard_of_account(*to));
                debug_assert_ne!(sf, st, "cross-shard by construction");
                if shard == sf {
                    Some(TxnRequest::BankDeposit {
                        account: *from,
                        amount: -amount,
                    })
                } else {
                    Some(TxnRequest::BankDeposit {
                        account: *to,
                        amount: *amount,
                    })
                }
            }
            TxnRequest::Tpcc(TpccTxn::NewOrder {
                warehouse, lines, ..
            }) => {
                let home = self.shard_of_warehouse(*warehouse);
                if shard == home {
                    // The home part: the full NewOrder. Its stock updates
                    // silently skip warehouses whose rows live elsewhere.
                    Some(txn.clone())
                } else {
                    let mine: Vec<_> = lines
                        .iter()
                        .filter(|l| self.shard_of_warehouse(l.supply_w) == shard)
                        .cloned()
                        .collect();
                    Some(TxnRequest::Tpcc(TpccTxn::RemoteStock {
                        home: *warehouse,
                        lines: mine,
                    }))
                }
            }
            TxnRequest::Tpcc(TpccTxn::Payment {
                district,
                customer,
                c_warehouse,
                amount,
                warehouse,
                ..
            }) => {
                let home = self.shard_of_warehouse(*warehouse);
                if shard == home {
                    Some(txn.clone())
                } else {
                    Some(TxnRequest::Tpcc(TpccTxn::RemotePay {
                        warehouse: *c_warehouse,
                        district: *district,
                        customer: *customer,
                        amount: *amount,
                    }))
                }
            }
            _ => None,
        }
    }
}

/// The four record kinds of deterministic 2PC-over-TOB. Each record is an
/// ordinary [`TxnRequest::TwoPc`] request ordered inside a participant
/// group exactly like a client transaction, so votes and decisions are
/// replicated state: every group member processes the same records at the
/// same log positions, and a failover replays them from the log.
///
/// Liveness is driven entirely by client retransmission of the `Prepare`:
/// every step is idempotent, and a re-delivered `Prepare` re-emits
/// whatever record its group currently owes (vote, decision, done, or the
/// final reply).
#[derive(Clone, Debug, PartialEq)]
pub enum TwoPcRecord {
    /// The client's cross-shard request, fanned out to every participant
    /// group. Carries the full transaction; each participant computes its
    /// own part deterministically via [`ShardMap::part_for`].
    Prepare {
        /// Transaction identity `(client, cseq)`.
        txnid: TxnId,
        /// Participant shards, sorted; the first is the coordinator.
        participants: Vec<usize>,
        /// The full original transaction.
        txn: Box<TxnRequest>,
    },
    /// A participant's vote, ordered in the coordinator's group.
    Vote {
        /// Transaction identity.
        txnid: TxnId,
        /// Voting shard.
        shard: usize,
        /// Whether the part can commit (semantic aborts vote no).
        granted: bool,
    },
    /// The coordinator's decision, ordered in each participant's group.
    Decision {
        /// Transaction identity.
        txnid: TxnId,
        /// Commit (all granted) or abort.
        commit: bool,
    },
    /// A participant's completion acknowledgment, ordered in the
    /// coordinator's group. The coordinator replies to the client only
    /// after every participant is done, so a commit reply implies every
    /// shard applied its part.
    Done {
        /// Transaction identity.
        txnid: TxnId,
        /// Completed shard.
        shard: usize,
    },
}

impl TwoPcRecord {
    /// The transaction this record belongs to.
    pub fn txnid(&self) -> TxnId {
        match self {
            TwoPcRecord::Prepare { txnid, .. }
            | TwoPcRecord::Vote { txnid, .. }
            | TwoPcRecord::Decision { txnid, .. }
            | TwoPcRecord::Done { txnid, .. } => *txnid,
        }
    }

    /// Wire encoding.
    pub fn to_value(&self) -> Value {
        match self {
            TwoPcRecord::Prepare {
                txnid,
                participants,
                txn,
            } => Value::pair(
                Value::str("prep"),
                Value::pair(
                    txnid_to_value(txnid),
                    Value::pair(
                        Value::list(participants.iter().map(|p| Value::Int(*p as i64))),
                        txn.to_value(),
                    ),
                ),
            ),
            TwoPcRecord::Vote {
                txnid,
                shard,
                granted,
            } => Value::pair(
                Value::str("vote"),
                Value::pair(
                    txnid_to_value(txnid),
                    Value::pair(Value::Int(*shard as i64), Value::Int(i64::from(*granted))),
                ),
            ),
            TwoPcRecord::Decision { txnid, commit } => Value::pair(
                Value::str("dec"),
                Value::pair(txnid_to_value(txnid), Value::Int(i64::from(*commit))),
            ),
            TwoPcRecord::Done { txnid, shard } => Value::pair(
                Value::str("done"),
                Value::pair(txnid_to_value(txnid), Value::Int(*shard as i64)),
            ),
        }
    }

    /// Wire decoding.
    pub fn from_value(v: &Value) -> Option<TwoPcRecord> {
        let (tag, body) = v.fst().zip(v.snd())?;
        let txnid = txnid_from_value(body.fst()?)?;
        let rest = body.snd()?;
        match tag.as_str()? {
            "prep" => {
                let participants: Option<Vec<usize>> = rest
                    .fst()?
                    .as_list()?
                    .iter()
                    .map(|p| p.as_int().map(|i| i as usize))
                    .collect();
                Some(TwoPcRecord::Prepare {
                    txnid,
                    participants: participants?,
                    txn: Box::new(TxnRequest::from_value(rest.snd()?)?),
                })
            }
            "vote" => Some(TwoPcRecord::Vote {
                txnid,
                shard: rest.fst()?.as_int()? as usize,
                granted: rest.snd()?.as_int()? != 0,
            }),
            "dec" => Some(TwoPcRecord::Decision {
                txnid,
                commit: rest.as_int()? != 0,
            }),
            "done" => Some(TwoPcRecord::Done {
                txnid,
                shard: rest.as_int()? as usize,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::OrderLine;

    #[test]
    fn account_and_warehouse_mapping() {
        let m = ShardMap::new(4);
        assert_eq!(m.shard_of_account(0), 0);
        assert_eq!(m.shard_of_account(7), 3);
        // Warehouses are 1-based: warehouse 1 lands on shard 0.
        assert_eq!(m.shard_of_warehouse(1), 0);
        assert_eq!(m.shard_of_warehouse(4), 3);
        assert_eq!(m.shard_of_warehouse(5), 0);
    }

    #[test]
    fn single_shard_requests_have_one_participant() {
        let m = ShardMap::new(4);
        for t in [
            TxnRequest::BankDeposit {
                account: 9,
                amount: 5,
            },
            TxnRequest::BankRead { account: 2 },
            TxnRequest::Sql(vec!["SELECT 1 FROM t".into()]),
        ] {
            assert_eq!(m.participants(&t).len(), 1, "{t:?}");
            assert!(m.is_single_shard(&t));
            let home = m.participants(&t)[0];
            assert_eq!(m.part_for(&t, home), Some(t.clone()));
        }
    }

    #[test]
    fn transfer_decomposes_into_debit_and_credit() {
        let m = ShardMap::new(2);
        let t = TxnRequest::BankTransfer {
            from: 2,
            to: 5,
            amount: 30,
        };
        assert_eq!(m.participants(&t), vec![0, 1]);
        assert_eq!(
            m.part_for(&t, 0),
            Some(TxnRequest::BankDeposit {
                account: 2,
                amount: -30
            })
        );
        assert_eq!(
            m.part_for(&t, 1),
            Some(TxnRequest::BankDeposit {
                account: 5,
                amount: 30
            })
        );
        assert_eq!(m.part_for(&t, 2), None);
        // Same-shard transfer stays whole.
        let local = TxnRequest::BankTransfer {
            from: 2,
            to: 4,
            amount: 1,
        };
        assert_eq!(m.participants(&local), vec![0]);
        assert_eq!(m.part_for(&local, 0), Some(local.clone()));
    }

    #[test]
    fn remote_new_order_splits_stock_by_shard() {
        let m = ShardMap::new(2);
        let t = TxnRequest::Tpcc(TpccTxn::NewOrder {
            warehouse: 1,
            district: 1,
            customer: 1,
            lines: vec![
                OrderLine {
                    item: 1,
                    supply_w: 1,
                    qty: 1,
                },
                OrderLine {
                    item: 2,
                    supply_w: 2,
                    qty: 3,
                },
                OrderLine {
                    item: 3,
                    supply_w: 3,
                    qty: 2,
                },
            ],
        });
        assert_eq!(m.participants(&t), vec![0, 1]);
        // Home shard keeps the full order (warehouse 3 shares its shard).
        assert_eq!(m.part_for(&t, 0), Some(t.clone()));
        // The foreign shard gets only warehouse 2's line.
        match m.part_for(&t, 1) {
            Some(TxnRequest::Tpcc(TpccTxn::RemoteStock { home, lines })) => {
                assert_eq!(home, 1);
                assert_eq!(lines.len(), 1);
                assert_eq!(lines[0].supply_w, 2);
            }
            other => panic!("unexpected part: {other:?}"),
        }
    }

    #[test]
    fn remote_payment_splits_customer_update() {
        let m = ShardMap::new(2);
        let t = TxnRequest::Tpcc(TpccTxn::Payment {
            warehouse: 1,
            district: 2,
            customer: 7,
            c_warehouse: 2,
            amount: 12.5,
            history_id: 99,
        });
        assert_eq!(m.participants(&t), vec![0, 1]);
        assert_eq!(m.part_for(&t, 0), Some(t.clone()));
        match m.part_for(&t, 1) {
            Some(TxnRequest::Tpcc(TpccTxn::RemotePay {
                warehouse,
                district,
                customer,
                amount,
            })) => {
                assert_eq!((warehouse, district, customer), (2, 2, 7));
                assert_eq!(amount, 12.5);
            }
            other => panic!("unexpected part: {other:?}"),
        }
    }

    #[test]
    fn records_roundtrip_the_wire() {
        let id: TxnId = (Loc::new(3), 17);
        let records = vec![
            TwoPcRecord::Prepare {
                txnid: id,
                participants: vec![0, 2],
                txn: Box::new(TxnRequest::BankTransfer {
                    from: 1,
                    to: 6,
                    amount: 40,
                }),
            },
            TwoPcRecord::Vote {
                txnid: id,
                shard: 2,
                granted: true,
            },
            TwoPcRecord::Decision {
                txnid: id,
                commit: false,
            },
            TwoPcRecord::Done {
                txnid: id,
                shard: 0,
            },
        ];
        for r in records {
            assert_eq!(TwoPcRecord::from_value(&r.to_value()), Some(r.clone()));
            // And wrapped as a full request.
            let req = TxnRequest::TwoPc(r);
            assert_eq!(TxnRequest::from_value(&req.to_value()), Some(req));
        }
    }
}
