//! Ablation: horizontal sharding — replica groups × clients × cross-shard
//! fraction.
//!
//! Sweeps a bank workload over [`ShardedDeployment`] (PBR groups): each
//! configuration partitions the same keyspace across `shards` independent
//! replica groups and offers a closed-loop load in which `cross_pct`
//! percent of transactions are transfers between accounts on *different*
//! shards (routed through deterministic 2PC-over-TOB) and the rest are
//! single-shard deposits (routed straight to the owning group). Virtual
//! time makes every number deterministic.
//!
//! Emits a human-readable table plus one JSON line per configuration
//! (`{"shards":s,"clients":c,"cross_pct":p,"throughput_per_sec":t,
//! "latency_ms":l,"cross_committed":n}`) for the record in
//! `BENCH_hotpaths.json` (group `sharding`).

use crate::measure::{steady_state, Point};
use crate::{mix, output, scaled};
use shadowdb::deploy::{DeployOptions, ShardedDeployment};
use shadowdb::pbr::PbrOptions;
use shadowdb::probe::{check_two_pc_atomicity, Event, Probe};
use shadowdb::shard::TwoPcEvent;
use shadowdb_loe::VTime;
use shadowdb_simnet::testing::default_net;
use shadowdb_workloads::{bank, TxnRequest};
use std::io::{self, Write};
use std::time::Duration;

const ROWS: usize = 256;

/// The per-client transaction list: `cross_pct`% cross-shard transfers
/// (the destination account lives on the next shard over, so at
/// `shards == 1` the same mix degenerates to single-group transfers and
/// never runs 2PC), the rest single-shard deposits. Transfers are spread
/// evenly through the list (Bresenham-style, so the fraction holds at any
/// `n`), and the whole list is deterministic in `(client, k)` so every
/// shard count sees the *same* offered load.
fn txns(client: usize, n: usize, cross_pct: usize) -> Vec<TxnRequest> {
    (0..n)
        .map(|k| {
            let from = (mix(k, client) % ROWS) as i64;
            if (k + 1) * cross_pct / 100 > k * cross_pct / 100 {
                // `from + 1` is on a different shard whenever `shards > 1`
                // (ROWS is a multiple of every swept shard count).
                TxnRequest::BankTransfer {
                    from,
                    to: (from + 1) % ROWS as i64,
                    amount: 1 + (k % 7) as i64,
                }
            } else {
                TxnRequest::BankDeposit {
                    account: from,
                    amount: 1 + (k % 50) as i64,
                }
            }
        })
        .collect()
}

/// Runs one configuration to quiescence; returns its steady-state point
/// and the cross-shard commits observed. `perf_smoke`'s
/// `sharded_bank_speedup_4x1` leg is this run at 0 % cross-shard.
///
/// LAN latency, unlike the window ablation's 2 ms hops: sharding buys
/// *CPU* parallelism (one primary and one broadcast service per group),
/// so the network must be fast enough for the engine cost model — not the
/// round trip — to be the binding resource. On a WAN every closed-loop
/// client is latency-bound and no shard count can help.
pub fn run(
    seed: u64,
    shards: usize,
    n_clients: usize,
    cross_pct: usize,
    txns_each: usize,
) -> (Point, usize) {
    let mut sim = default_net(seed);
    let probe = Probe::default();
    let mut options = DeployOptions::sharded(
        shards,
        n_clients,
        move |c| txns(c, txns_each, cross_pct),
        move |shard, db| bank::load_shard(db, ROWS, shards, shard).expect("loads"),
    );
    options.client_timeout = Duration::from_secs(60);
    options.probe = Some(probe.clone());
    let d = ShardedDeployment::build_pbr(&mut sim, &options, PbrOptions::default());
    sim.run_until_quiescent(VTime::from_secs(36_000));
    assert_eq!(
        d.committed(),
        n_clients * txns_each,
        "shards {shards} clients {n_clients} cross {cross_pct}%: every txn must commit"
    );
    let events = probe.events();
    check_two_pc_atomicity(&events).expect("cross-shard commits are atomic");
    // Distinct transactions that committed through 2PC (the probe logs
    // one `Decided` per replica per participant shard).
    let cross = events
        .iter()
        .filter_map(|e| match e {
            Event::TwoPc(TwoPcEvent::Decided {
                txnid,
                commit: true,
                ..
            }) => Some(*txnid),
            _ => None,
        })
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    (steady_state(&d.stats, true), cross)
}

/// Runs the shards × clients × cross-fraction sweep.
pub fn report(out: &mut dyn Write) -> io::Result<()> {
    let txns_each = scaled(100, 5);
    output::kv(out, "accounts", ROWS)?;
    output::kv(out, "transactions per client", txns_each)?;
    let mut json = Vec::new();
    for &clients in &[8usize, 32] {
        for &cross in &[0usize, 10, 30] {
            let rows: Vec<(String, String)> = [1usize, 2, 4]
                .iter()
                .map(|&s| {
                    let seed = (s * 1_000 + clients * 10 + cross) as u64;
                    let (p, ncross) = run(seed, s, clients, cross, txns_each);
                    let (tput, lat) = (p.throughput, p.latency_ms);
                    json.push(format!(
                        "{{\"shards\":{s},\"clients\":{clients},\"cross_pct\":{cross},\
                         \"throughput_per_sec\":{tput:.1},\"latency_ms\":{lat:.2},\
                         \"cross_committed\":{ncross}}}"
                    ));
                    (
                        format!("shards {s}"),
                        format!("{tput:>8.1}/s   {lat:>8.2} ms   {ncross:>4} cross"),
                    )
                })
                .collect();
            output::pairs(
                out,
                &format!("{clients} clients, {cross}% cross-shard"),
                "shards",
                "committed/s, latency, 2PC commits",
                &rows,
            )?;
        }
    }
    output::json_lines(out, &json)?;
    output::note(
        out,
        "single-shard transactions scale with the group count: each group\n\
         runs its own broadcast service and primary, so at 0% cross-shard\n\
         four groups carry roughly four single-group loads in parallel.\n\
         cross-shard transfers pay the extra 2PC hops (prepare, votes,\n\
         decision — all through the participants' own TOB services), so\n\
         as the cross fraction grows the speedup flattens: the ablation\n\
         quantifies how far the fraction can rise before coordination\n\
         overhead eats the parallelism.",
    )
}
