//! The layer budget: turns the traced run's spans, the driver's process
//! samples and the layer replay into the per-layer metrics, one crate of
//! the serving path per prefix.

use crate::replay::ApplyReplay;
use crate::run::RunData;
use crate::span::{self_time, Span};
use crate::window::{measured, tput_last_over_first, Answered};
use crate::workload::{Deployed, Spec};
use crate::{hist::Histogram, procfs};
use shadowdb_workloads::TxnRequest;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;

/// Most spans written to the `.spans.jsonl` artifact (the first ones of
/// the window); the budget itself is computed over all of them.
const SPANS_FILE_CAP: usize = 200_000;
/// Requests sampled for `client.wait_frac`.
const WAIT_SAMPLE: usize = 2_000;

/// Which layer a location's steps are charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    Client,
    TobServer,
    SynodReplica,
    SynodLeader,
    SynodAcceptor,
    DbReplica,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Client => "client",
            Role::TobServer => "tob.server",
            Role::SynodReplica => "consensus.replica",
            Role::SynodLeader => "consensus.leader",
            Role::SynodAcceptor => "consensus.acceptor",
            Role::DbReplica => "core.replica",
        }
    }
}

/// Roles from the deployment's own fields: `clients`, `replicas`, and the
/// broadcast service's `service_locs`, which lay each machine out as
/// server, Synod replica, leader, acceptor.
pub fn roles(d: &Deployed) -> HashMap<u32, Role> {
    let mut map = HashMap::new();
    for c in &d.clients {
        map.insert(c.index(), Role::Client);
    }
    for r in &d.replicas {
        map.insert(r.index(), Role::DbReplica);
    }
    let base = d.tob.service_locs.first().map_or(0, |l| l.index());
    for l in &d.tob.service_locs {
        let role = match (l.index() - base) % 4 {
            0 => Role::TobServer,
            1 => Role::SynodReplica,
            2 => Role::SynodLeader,
            _ => Role::SynodAcceptor,
        };
        map.insert(l.index(), role);
    }
    map
}

#[derive(Default, Clone, Copy)]
struct Busy {
    ns: u64,
    steps: u64,
    max_ns: u64,
}

impl Busy {
    fn add(&mut self, s: &Span) {
        self.ns += s.dur_ns;
        self.steps += 1;
        self.max_ns = self.max_ns.max(s.dur_ns);
    }
}

/// Everything the per-layer metrics are derived from.
pub struct BudgetInput<'a> {
    pub spec: &'a Spec,
    pub deployed: &'a Deployed,
    pub data: &'a RunData,
    pub scripts: &'a [Vec<TxnRequest>],
    pub spans: &'a [Span],
    pub apply: &'a ApplyReplay,
    /// Mean encode+decode microseconds per sampled frame.
    pub codec_us_per_frame: f64,
    pub hop_us: f64,
    /// `(append+commit us, log bytes)` per record; zeros without a WAL.
    pub wal: (f64, f64),
    pub gen_s: f64,
    /// `commit_tput` of the untraced run this traced run is compared to.
    pub untraced_tput: f64,
}

/// Latency histograms of the measured transactions: all, reads, updates.
pub fn latency_hists(
    data: &RunData,
    scripts: &[Vec<TxnRequest>],
) -> (Histogram, Histogram, Histogram) {
    let (mut all, mut reads, mut updates) = (Histogram::new(), Histogram::new(), Histogram::new());
    for (c, answers) in data.answered.iter().enumerate() {
        for (i, a) in answers.iter().enumerate() {
            if !data.window.contains(a) {
                continue;
            }
            let us = a.answered - a.submitted;
            all.record(us);
            if scripts[c][i].is_read_only() {
                reads.record(us);
            } else {
                updates.record(us);
            }
        }
    }
    (all, reads, updates)
}

/// Median over a sample of measured requests of the share of the
/// request's latency that no step naming it covers (kernel, queues, and
/// steps such as consensus rounds that carry batches, not request ids).
fn wait_frac(input: &BudgetInput, in_window: &[&Span]) -> f64 {
    let mut ids: Vec<((u32, i64), Answered)> = Vec::new();
    for (c, answers) in input.data.answered.iter().enumerate() {
        let loc = input.deployed.clients[c].index();
        for (i, a) in answers.iter().enumerate() {
            if input.data.window.contains(a) {
                ids.push(((loc, i as i64), *a));
            }
        }
    }
    let stride = (ids.len() / WAIT_SAMPLE).max(1);
    let sample: HashMap<(u32, i64), Answered> = ids.into_iter().step_by(stride).collect();
    let mut children: HashMap<(u32, i64), Vec<(u64, u64)>> = HashMap::new();
    for s in in_window {
        if let Some(id) = s.req.filter(|id| sample.contains_key(id)) {
            children
                .entry(id)
                .or_default()
                .push((s.start_ns, s.end_ns()));
        }
    }
    let mut fracs: Vec<f64> = sample
        .iter()
        .map(|(id, a)| {
            let parent = (a.submitted * 1_000, a.answered * 1_000);
            let kids = children.entry(*id).or_default();
            self_time(parent, kids) as f64 / (parent.1 - parent.0).max(1) as f64
        })
        .collect();
    fracs.sort_by(f64::total_cmp);
    fracs.get(fracs.len() / 2).copied().unwrap_or(0.0)
}

/// The per-layer metrics, in `BENCHMARK.json` order, as `(name, value)`.
pub fn layer_metrics(input: &BudgetInput) -> Vec<(&'static str, f64)> {
    let BudgetInput {
        spec,
        deployed,
        data,
        scripts,
        spans,
        apply,
        ..
    } = *input;
    let w = data.window;
    let m = measured(&data.answered, w);
    let n = m.len().max(1) as f64;
    let roles = roles(deployed);
    let (open_ns, close_ns) = (w.open * 1_000, w.close * 1_000);
    let in_window: Vec<&Span> = spans
        .iter()
        .filter(|s| s.start_ns >= open_ns && s.start_ns <= close_ns)
        .collect();

    // Busy time, steps and longest step per role and per location.
    let mut by_role: HashMap<Role, Busy> = HashMap::new();
    let mut by_replica: HashMap<u32, Busy> = HashMap::new();
    let (mut frames, mut bytes, mut fast_reads, mut deliveries) = (0u64, 0u64, 0u64, 0u64);
    let mut slots: HashSet<i64> = HashSet::new();
    // Consensus busy in the window's first and last fifth of transactions.
    let fifth = m.len() / 5;
    let (t_first, t_last) = if fifth > 0 {
        (
            m[fifth - 1].answered * 1_000,
            m[m.len() - fifth].answered * 1_000,
        )
    } else {
        (close_ns, open_ns)
    };
    let (mut cons_first, mut cons_last) = (0u64, 0u64);
    for s in &in_window {
        let Some(role) = roles.get(&s.loc).copied() else {
            continue;
        };
        by_role.entry(role).or_default().add(s);
        frames += s.frames as u64;
        bytes += s.bytes as u64;
        match role {
            Role::DbReplica => {
                by_replica.entry(s.loc).or_default().add(s);
                if s.replied && s.header == shadowdb::msgs::SUBMIT_HEADER {
                    fast_reads += 1;
                }
                if s.loc == deployed.replicas[0].index()
                    && s.header == shadowdb_tob::DELIVER_HEADER
                    && s.req.is_some()
                {
                    deliveries += 1;
                }
            }
            Role::TobServer => {
                if let (true, Some(slot)) = (s.loc == deployed.tob.servers[0].index(), s.slot) {
                    slots.insert(slot);
                }
            }
            Role::SynodReplica | Role::SynodLeader | Role::SynodAcceptor => {
                if s.start_ns <= t_first {
                    cons_first += s.dur_ns;
                } else if s.start_ns >= t_last {
                    cons_last += s.dur_ns;
                }
            }
            Role::Client => {}
        }
    }
    let busy = |r: Role| by_role.get(&r).copied().unwrap_or_default();
    let us_per_txn = |b: Busy| b.ns as f64 / 1e3 / n;
    let consensus = [Role::SynodReplica, Role::SynodLeader, Role::SynodAcceptor];
    let cons_ns: u64 = consensus.iter().map(|r| busy(*r).ns).sum();
    let cons_steps: u64 = consensus.iter().map(|r| busy(*r).steps).sum();
    let core = busy(Role::DbReplica);
    let replica_max = by_replica.values().map(|b| b.ns).max().unwrap_or(0);

    // Process accounting over the window.
    let window_s = (data.close.at - data.open.at).as_secs_f64().max(1e-9);
    let cpu_us = (data.close.cpu_s - data.open.cpu_s) * 1e6 / n;
    let step_us = us_per_txn(busy(Role::Client))
        + us_per_txn(busy(Role::TobServer))
        + cons_ns as f64 / 1e3 / n
        + us_per_txn(core);
    let syncs = data.window_syncs();

    // What the replicas' steps should cost from the replay figures:
    // every executing replica applies every transaction, every durable
    // one logs it.
    let executors = spec.active_replicas() as f64;
    let wal_us = if spec.wal {
        input.wal.0 * executors
    } else {
        0.0
    };
    let protocol_us = us_per_txn(core) - executors * apply.apply_grouped_us_per_txn - wal_us;

    let (all, reads, updates) = latency_hists(data, scripts);
    let aborted = m.iter().filter(|a| !a.committed).count();
    let script_txns: usize = scripts.iter().map(Vec::len).sum();
    let wall_s = w.len_us() as f64 / 1e6;
    let traced_tput = n / data.quiet_window_s();
    let frames_per_txn = frames as f64 / n;

    vec![
        ("client.busy_us_per_txn", us_per_txn(busy(Role::Client))),
        ("client.commit_tput_wall", n / wall_s),
        ("client.commit_p50_ms", all.quantile(0.5) / 1e3),
        ("client.commit_p99_ms", all.quantile(0.99) / 1e3),
        ("client.commit_p999_ms", all.quantile(0.999) / 1e3),
        ("client.read_p50_ms", reads.quantile(0.5) / 1e3),
        ("client.update_p50_ms", updates.quantile(0.5) / 1e3),
        ("client.resends", data.resends as f64),
        ("client.redirects", data.redirects as f64),
        ("client.tput_last_over_first", tput_last_over_first(&m)),
        ("client.wait_frac", wait_frac(input, &in_window)),
        ("tcpnet.frames_per_txn", frames_per_txn),
        ("tcpnet.bytes_per_txn", bytes as f64 / n),
        ("tcpnet.hop_us", input.hop_us),
        (
            "eventml.codec_us_per_txn",
            frames_per_txn * input.codec_us_per_frame,
        ),
        ("tob.busy_us_per_txn", us_per_txn(busy(Role::TobServer))),
        ("tob.steps_per_txn", busy(Role::TobServer).steps as f64 / n),
        (
            "tob.txns_per_slot",
            deliveries as f64 / slots.len().max(1) as f64,
        ),
        ("consensus.busy_us_per_txn", cons_ns as f64 / 1e3 / n),
        ("consensus.steps_per_txn", cons_steps as f64 / n),
        (
            "consensus.replica_busy_us_per_txn",
            us_per_txn(busy(Role::SynodReplica)),
        ),
        (
            "consensus.leader_busy_us_per_txn",
            us_per_txn(busy(Role::SynodLeader)),
        ),
        (
            "consensus.acceptor_busy_us_per_txn",
            us_per_txn(busy(Role::SynodAcceptor)),
        ),
        (
            "consensus.busy_last_over_first",
            if cons_first > 0 {
                cons_last as f64 / cons_first as f64
            } else {
                0.0
            },
        ),
        ("core.replica_busy_us_per_txn", us_per_txn(core)),
        ("core.replica_steps_per_txn", core.steps as f64 / n),
        (
            "core.primary_busy_share",
            replica_max as f64 / core.ns.max(1) as f64,
        ),
        ("core.replica_step_max_ms", core.max_ns as f64 / 1e6),
        ("core.protocol_us_per_txn", protocol_us),
        ("core.fast_reads_frac", fast_reads as f64 / n),
        (
            "core.replication_overhead_x",
            cpu_us / apply.apply_us_per_txn.max(1e-9),
        ),
        ("sqldb.apply_us_per_txn", apply.apply_us_per_txn),
        (
            "sqldb.apply_grouped_us_per_txn",
            apply.apply_grouped_us_per_txn,
        ),
        ("sqldb.apply_last_over_first", apply.last_over_first),
        ("sqldb.load_s", apply.load_s),
        ("wal.syncs_per_txn", syncs as f64 / n),
        ("wal.append_commit_us_per_txn", input.wal.0),
        ("wal.bytes_per_txn", input.wal.1),
        (
            "workloads.gen_us_per_txn",
            input.gen_s * 1e6 / script_txns.max(1) as f64,
        ),
        ("workloads.aborted_by_design", aborted as f64),
        ("process.cpu_ms_per_txn", cpu_us / 1e3),
        (
            "process.rss_kb_per_txn",
            (data.close.rss_kb as f64 - data.open.rss_kb as f64) / n,
        ),
        (
            "process.shard_busy_max_share",
            procfs::busiest_thread_s(&data.open.threads, &data.close.threads) / window_s,
        ),
        ("process.runtime_us_per_txn", cpu_us - step_us),
        ("process.stolen_frac", data.window_stolen_s() / wall_s),
        (
            "trace.overhead_frac",
            1.0 - traced_tput / input.untraced_tput.max(1e-9),
        ),
        ("trace.spans_per_txn", in_window.len() as f64 / n),
    ]
}

/// Writes the first [`SPANS_FILE_CAP`] spans of the window as JSON lines.
pub fn write_spans(
    path: &Path,
    d: &Deployed,
    data: &RunData,
    spans: &[Span],
) -> std::io::Result<()> {
    let roles = roles(d);
    let (open_ns, close_ns) = (data.window.open * 1_000, data.window.close * 1_000);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans
        .iter()
        .filter(|s| s.start_ns >= open_ns && s.start_ns <= close_ns)
        .take(SPANS_FILE_CAP)
    {
        let role = roles.get(&s.loc).map_or("other", |r| r.name());
        let req = match s.req {
            Some((c, q)) => format!("[{c},{q}]"),
            None => "null".into(),
        };
        writeln!(
            out,
            "{{\"loc\":{},\"role\":\"{}\",\"in\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"frames\":{},\"bytes\":{},\"req\":{}}}",
            s.loc,
            role,
            s.header,
            s.start_ns,
            s.end_ns(),
            s.frames,
            s.bytes,
            req
        )?;
    }
    out.flush()
}
