//! Layer replay: what one replica step hides, measured by driving the same
//! generated inputs through each layer's public functions on their own.
//!
//! * `eventml::codec` — the frames the traced run sampled, through
//!   `FrameEncoder` and `FrameReader`.
//! * `sqldb` + `workloads` — the first half of every client's script,
//!   interleaved, applied to a standalone loaded `Database` (the
//!   single-node baseline), alternately one by one and in groups of eight
//!   through `apply_group`.
//! * `wal` — `Wal::append` + `commit` on `Disk::open(StorageMode::File)`.
//! * `tcpnet` — a two-node echo of the workload's median frame size
//!   between two shards.

use crate::workload::{load, Spec};
use shadowdb::msgs::TxnEnvelope;
use shadowdb_eventml::codec::{FrameEncoder, FrameReader};
use shadowdb_eventml::{Ctx, FnProcess, Msg, SendInstr, Value};
use shadowdb_loe::Loc;
use shadowdb_runtime::StorageMode;
use shadowdb_sqldb::{Database, EngineProfile};
use shadowdb_tcpnet::TcpNet;
use shadowdb_wal::{Disk, Wal};
use shadowdb_workloads::{apply_group, TxnRequest};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Group size of the grouped-apply replay (the replicas group whatever one
/// step drained; eight is one submission per client).
const GROUP: usize = 8;
/// Records the WAL replay appends and commits one at a time.
const WAL_RECORDS: usize = 1_000;
/// Round trips of the echo.
const ECHO_ROUNDS: i64 = 20_000;

/// Mean microseconds to encode and decode one of `frames`, and their mean
/// framed size in bytes.
pub fn codec_us_per_frame(frames: &[Msg]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let mut enc = FrameEncoder::new();
    let mut reader = FrameReader::new();
    let rounds = (200_000 / frames.len()).max(1);
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for m in frames {
            let wire = enc.encode(black_box(m));
            bytes += wire.len();
            reader.extend(wire);
            let back = reader.next_msg().expect("own frame decodes");
            black_box(back.expect("one whole frame"));
        }
    }
    let n = (rounds * frames.len()) as f64;
    (t0.elapsed().as_secs_f64() * 1e6 / n, bytes as f64 / n)
}

/// The clients' scripts interleaved round-robin: the order a replica
/// would roughly see under a closed loop.
pub fn interleave(scripts: &[Vec<TxnRequest>]) -> Vec<&TxnRequest> {
    interleave_first(scripts, usize::MAX)
}

/// [`interleave`] over the first `per_client` transactions of each script.
fn interleave_first(scripts: &[Vec<TxnRequest>], per_client: usize) -> Vec<&TxnRequest> {
    let longest = scripts
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
        .min(per_client);
    (0..longest)
        .flat_map(|i| scripts.iter().filter_map(move |s| s.get(i)))
        .collect()
}

/// The standalone apply figures.
pub struct ApplyReplay {
    /// Loading the data set into one database.
    pub load_s: f64,
    pub apply_us_per_txn: f64,
    pub apply_grouped_us_per_txn: f64,
    /// Per-transaction apply time of the last fifth over the first fifth.
    pub last_over_first: f64,
}

fn fresh_db(spec: &Spec, seed: u64) -> (Database, f64) {
    let db = Database::new(EngineProfile::h2());
    let t0 = Instant::now();
    load(spec, seed, &db);
    (db, t0.elapsed().as_secs_f64())
}

/// One request the way a lease-holding replica executes it: lock-free
/// when it is a read, ordered otherwise.
fn apply_one(db: &Database, txn: &TxnRequest) {
    if txn.is_read_only() {
        if let Some(out) = txn.apply_read_only(db) {
            black_box(out);
            return;
        }
    }
    black_box(txn.apply(db).expect("standalone apply"));
}

/// Replays the first half of every script: enough growth to show drift,
/// at half the cost (a full TPC-C replay would take as long as the run).
pub fn apply_replay(spec: &Spec, seed: u64, scripts: &[Vec<TxnRequest>]) -> ApplyReplay {
    let half = scripts.iter().map(Vec::len).max().unwrap_or(0).div_ceil(2);
    let order = interleave_first(scripts, half);
    let (db, load_s) = fresh_db(spec, seed);
    // One pass over one database: chunks of `GROUP` alternate between
    // one-by-one and grouped apply, so both figures sample the whole run
    // and see the same growing state.
    let chunks: Vec<&[&TxnRequest]> = order.chunks(GROUP).collect();
    let fifth = (chunks.len() / 5).max(1);
    let (mut solo, mut solo_n) = (Duration::ZERO, 0usize);
    let (mut grouped, mut grouped_n) = (Duration::ZERO, 0usize);
    let (mut first, mut first_n, mut last, mut last_n) =
        (Duration::ZERO, 0usize, Duration::ZERO, 0usize);
    for (i, chunk) in chunks.iter().enumerate() {
        let t0 = Instant::now();
        if i % 2 == 0 {
            for txn in chunk.iter() {
                apply_one(&db, txn);
            }
            let dt = t0.elapsed();
            solo += dt;
            solo_n += chunk.len();
            if i < fifth {
                first += dt;
                first_n += chunk.len();
            } else if i >= chunks.len() - fifth {
                last += dt;
                last_n += chunk.len();
            }
        } else {
            black_box(apply_group(&db, chunk));
            grouped += t0.elapsed();
            grouped_n += chunk.len();
        }
    }
    let per = |d: Duration, n: usize| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    ApplyReplay {
        load_s,
        apply_us_per_txn: per(solo, solo_n),
        apply_grouped_us_per_txn: per(grouped, grouped_n),
        last_over_first: per(last, last_n) / per(first, first_n).max(1e-9),
    }
}

/// Mean microseconds of one `append` + `commit` (one real `sync_all`) and
/// the log bytes per record, on files under `root`.
pub fn wal_replay(root: &Path, scripts: &[Vec<TxnRequest>]) -> (f64, f64) {
    let mode = StorageMode::File {
        root: root.to_path_buf(),
    };
    let disk = Disk::open(&mode, "replay", Duration::ZERO);
    let mut wal = Wal::open(disk.clone());
    let order = interleave(scripts);
    let records: Vec<Value> = order
        .iter()
        .take(WAL_RECORDS)
        .enumerate()
        .map(|(i, txn)| {
            // The record shape replicas log: `<kind 0, envelope>`.
            let env = TxnEnvelope::new(Loc::new(0), i as i64, (*txn).clone());
            Value::pair(Value::Int(0), env.to_value())
        })
        .collect();
    let t0 = Instant::now();
    for (i, body) in records.iter().enumerate() {
        wal.append(i as i64 + 1, body);
        wal.commit();
    }
    let n = records.len().max(1) as f64;
    let us = t0.elapsed().as_secs_f64() * 1e6 / n;
    let bytes = disk.synced_len() as f64 / n;
    disk.wipe();
    (us, bytes)
}

/// One-way microseconds of a `frame_bytes`-sized message between two
/// nodes on different shards of a fresh two-shard net: half the mean round
/// trip of a ping-pong.
pub fn tcpnet_hop_us(frame_bytes: usize, seed: u64) -> f64 {
    let mut net = TcpNet::builder().seeded(seed).shards(2).spawn();
    // Frame = 8 framing + 4 header ("ping") + 5 string prefix + payload.
    let payload = Value::str(&"x".repeat(frame_bytes.saturating_sub(8 + 4 + 5)));
    // Loc 0 (shard 0) bounces off loc 1 (shard 1); the port is loc 2.
    let ponger = Loc::new(1);
    let port_loc = Loc::new(2);
    net.add_node(Box::new(FnProcess::new(
        0i64,
        move |round: &mut i64, _c: &Ctx, _m: &Msg| {
            *round += 1;
            if *round > ECHO_ROUNDS {
                vec![SendInstr::now(port_loc, Msg::new("done", Value::Unit))]
            } else {
                vec![SendInstr::now(ponger, Msg::new("ping", payload.clone()))]
            }
        },
    )));
    net.add_node(Box::new(FnProcess::new(
        (),
        move |_s: &mut (), _c: &Ctx, m: &Msg| vec![SendInstr::now(Loc::new(0), m.clone())],
    )));
    let (port, rx) = TcpNet::port(&mut net);
    assert_eq!(port, port_loc);
    let t0 = Instant::now();
    net.send(Loc::new(0), Msg::new("go", Value::Unit));
    let done = rx.recv_timeout(Duration::from_secs(60));
    let elapsed = t0.elapsed();
    net.shutdown();
    assert!(done.is_ok(), "echo did not finish");
    elapsed.as_secs_f64() * 1e6 / (2.0 * ECHO_ROUNDS as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_is_round_robin_and_keeps_everything() {
        let t = |a| TxnRequest::BankRead { account: a };
        let scripts = vec![vec![t(0), t(1), t(2)], vec![t(10)], vec![t(20), t(21)]];
        let order: Vec<i64> = interleave(&scripts)
            .iter()
            .map(|r| match r {
                TxnRequest::BankRead { account } => *account,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 10, 20, 1, 21, 2]);
    }

    #[test]
    fn codec_replay_reports_the_framed_size() {
        let m = Msg::new("x/y", Value::Int(3));
        let (us, bytes) = codec_us_per_frame(std::slice::from_ref(&m));
        assert!(us > 0.0);
        assert_eq!(bytes as usize, crate::span::frame_len(&m));
        assert_eq!(codec_us_per_frame(&[]), (0.0, 0.0));
    }
}
