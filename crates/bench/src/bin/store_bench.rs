//! `store_bench` — the acceptance benchmark for `vpdt-store`.
//!
//! Runs one deterministic multi-relation workload several ways:
//!
//! * **guarded-sessions** — the front door: a resident `StoreServer`, one
//!   concurrent `Session` per client (windowed pipelining), cached `wpc`
//!   guards, N workers, relation-granular optimistic commits. Latencies
//!   come from the server's own metrics registry (`store_tx_total_us` and
//!   the per-stage histograms), measured over the serving window via
//!   `MetricsSnapshot::delta` against a post-warm-up baseline;
//! * **rollback-serial** — the baseline the paper's programme displaces:
//!   one thread, run each transaction, test `α` on the result, roll back
//!   on violation;
//! * **guarded-sessions, persisted** — the session path again, but with
//!   the write-ahead log attached and group commit: workers publish inside
//!   the commit critical section, a shared flusher fsyncs once for every
//!   pending commit and resolves tickets on the covering flush. Reported
//!   with WAL writes per transaction, the batch-size histogram,
//!   fsyncs-per-commit, and ticket latency percentiles. The run is
//!   verified by recovering the directory and checking the recovered
//!   version and state hash against the live server's final report. The
//!   pass retains all segments, so `--persist DIR` keeps artifacts that
//!   support a full from-genesis cold audit (CI's recovery smoke job runs
//!   `vpdtool audit --log DIR` on them); by default a temp directory is
//!   used and removed;
//!
//! It then audits the session history (replaying every commit through the
//! check-and-rollback path) and writes `BENCH_store.json`. Exit code is
//! non-zero if the audit fails, a constraint violation is observed, the
//! run falls short of the acceptance thresholds (≥ 10_000 commits across
//! ≥ 4 workers, faster than the serial baseline), or the persisted run
//! fails to recover to its reported state. The report is rendered with
//! [`vpdt_bench::json`], each key written next to its value. Its `env`
//! section records the machine: `cores` (`available_parallelism`) and the
//! p50/p99 of a 4 KiB append + fsync probe on the WAL directory's file
//! system, so the fsync-bound passes can be read against the disk.
//!
//! With `--scale`, an extra in-memory pass runs over a much larger store
//! (32 relations, universe 96, thousands of resident tuples, one-relation
//! footprints) and the report gains a `scaled` section: commit throughput,
//! the `store_publish_critical_section_us` lock-hold percentiles, and the
//! ratio against the recorded pre-commitment-scheme baseline. Gated on
//! the lock p99 staying bounded — publish work must be proportional to
//! the footprint, not the database — and on the pass's history auditing
//! clean (`scaled.audit_ok`, with the replay's wall time in
//! `scaled.audit_secs`).
//!
//! With `--net`, the session workload runs once more through the
//! `vpdt-net` loopback front door: a resident `NetServer` on a TCP
//! listener, one pipelined `NetClient` per client thread, every
//! submission crossing the wire as a checksummed frame and every
//! outcome returning with the committed version and commitment root.
//! The report gains a `networked` section (commits/s, client-observed
//! latency percentiles, connection/byte counters, and a
//! `connection_scaling` probe: the process thread delta from parking a
//! fleet of idle connections on the running server) and the run is
//! gated on networked throughput holding at least half the in-process
//! session rate on the identical workload.
//!
//! With `--shards N` (N ≥ 2), three more passes measure horizontal
//! scale-out over relation-partitioned `ShardedStore`s: a single-shard
//! baseline and an N-shard run over the identical disjoint-footprint
//! workload (each transaction touches one relation, so every commit takes
//! its shard's ordinary path — `scaling_efficiency` is the throughput
//! ratio between them), then a persisted mixed run where a fraction of
//! transactions span two shards and commit through the inline two-phase
//! coordinator. The report gains a `sharded` section with the scaling
//! ratio, cross-shard 2PC latency percentiles (total, prepare, decide),
//! and the durability verdicts: the shard WALs plus decision log must
//! recover to the reported per-shard versions and root hashes, and a
//! sharded cold audit (per-shard replay + decision-log cross-checks) must
//! pass. The scaling floor is enforced only on hardware that can express
//! it (`cores ≥ shards`, non-smoke) — on fewer cores the ratio is
//! reported, not gated, like the `vs_monolithic` baseline.
//!
//! ```text
//! cargo run --release -p vpdt-bench --bin store_bench
//! cargo run --release -p vpdt-bench --bin store_bench -- --smoke --scale --net
//! cargo run --release -p vpdt-bench --bin store_bench -- --shards 4
//! cargo run --release -p vpdt-bench --bin store_bench -- \
//!     --workers 8 --clients 16 --per-client 2000 --rels 8 --universe 6
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;
use vpdt_bench::json::Json;
use vpdt_bench::obj;
use vpdt_net::{names as net_names, NetClient, NetError, NetOptions, NetServer, WireOutcome};
use vpdt_store::metrics::names;
use vpdt_store::{
    audit, run_serial_rollback, workload, AuditReport, HistorySegment, MetricsSnapshot,
    ServerReport, StoreBuilder, WalOptions,
};
use vpdt_tx::program::Program;

/// In-flight submissions per session: deep enough to keep the workers
/// saturated (and, on small machines, to let client threads submit in long
/// uninterrupted bursts), shallow enough that the latency numbers measure
/// the server, not an unbounded client queue.
const PIPELINE_WINDOW: usize = 128;

/// The `--scale` workload shape: a database big enough that any O(|DB|)
/// work on the commit path dominates — ≥ 32 relations, universe ≥ 64,
/// thousands of resident tuples — while the *footprint* of every
/// transaction stays one relation. Under the per-relation commitment
/// scheme the publish critical section is O(footprint), so throughput
/// holds; under the old monolithic `state_hash` it collapsed (every
/// commit re-encoded and re-hashed the whole database under the write
/// lock).
const SCALED_RELS: usize = 32;
const SCALED_UNIVERSE: u64 = 96;
const SCALED_DENSITY: f64 = 0.85;
const SCALED_CLIENTS: u64 = 8;
const SCALED_PER_CLIENT: usize = 1250;
const SCALED_SMOKE_CLIENTS: u64 = 4;
const SCALED_SMOKE_PER_CLIENT: usize = 150;
/// Acceptance bound on the publish-lock p99 hold time in the scaled
/// workload, µs. Footprint-proportional work at this configuration sits
/// well under it on any plausible machine; the old DB-proportional
/// scheme was an order of magnitude over.
const SCALED_LOCK_P99_BOUND_US: f64 = 250.0;
/// Measured commits/s of this exact scaled configuration under the
/// pre-change monolithic `state_hash` scheme (whole-database encode +
/// hash inside the commit lock), captured on the dev machine in the PR
/// that introduced per-relation commitments. Reported as
/// `baseline_monolithic_commits_per_sec` so the `vs_monolithic` ratio in
/// the report has a concrete referent; machine-dependent, hence reported
/// rather than gated.
const SCALED_BASELINE_MONOLITHIC_TPS: f64 = 2025.0;

/// Acceptance floor for `--net`: loopback networked throughput as a
/// fraction of the in-process session rate on the identical workload.
/// Frame encode/decode, FNV checksums, and the reactor-pool
/// round trip (outbox stamping included) are the budget being gated.
const NET_VS_SESSIONS_FLOOR: f64 = 0.5;

/// Idle-connection fleet size for the `--net` connection-scaling probe.
/// Multiplexed connections ride the fixed reactor pool, so the
/// probe's thread delta should stay O(1) however large this is; the old
/// thread-per-connection design added two threads per socket.
const NET_SCALING_IDLE_CONNS: usize = 128;

/// Acceptance floor for `--shards`: N-shard disjoint-footprint throughput
/// over the single-shard baseline on the identical workload. The ISSUE's
/// scale-out claim is near-linear scaling at 4 shards; 2.5× leaves room
/// for the router and per-shard pools. **Hardware-conditional**: shards
/// can only run concurrently on distinct cores, so the floor is enforced
/// only when `std::thread::available_parallelism() ≥ shards` (and not in
/// smoke runs) — elsewhere the ratio is reported, not gated, the same
/// policy as the machine-dependent `vs_monolithic` baseline.
const SHARD_SCALING_FLOOR: f64 = 2.5;
/// Fraction of the `--shards` mixed workload that spans two shards (and
/// therefore commits through the two-phase coordinator).
const SHARD_CROSS_FRACTION: f64 = 0.05;

struct Config {
    workers: usize,
    clients: u64,
    per_client: usize,
    rels: usize,
    universe: u64,
    seed: u64,
    cache_cap: usize,
    smoke: bool,
    /// Run the additional `--scale` pass: a large-database workload
    /// (`SCALED_RELS` relations, universe `SCALED_UNIVERSE`) proving the
    /// publish critical section is footprint-proportional.
    scale: bool,
    /// Run the additional `--net` pass: the session workload driven
    /// through pipelined `NetClient`s over a loopback `NetServer`.
    net: bool,
    /// Shard count for the `--shards` scale-out passes (0 or 1 = off).
    shards: usize,
    out: String,
    /// Directory for the persisted run's artifacts; kept when given
    /// (anything already there is removed first), temp + removed otherwise.
    persist: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 4,
            clients: 8,
            per_client: 2500,
            rels: 8,
            universe: 6,
            seed: 2024,
            cache_cap: vpdt_store::guard::DEFAULT_CAPACITY,
            smoke: false,
            scale: false,
            net: false,
            shards: 0,
            out: "BENCH_store.json".to_string(),
            persist: None,
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut set: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        let switch = match flag.as_str() {
            "--smoke" => Some(&mut cfg.smoke),
            "--scale" => Some(&mut cfg.scale),
            "--net" => Some(&mut cfg.net),
            _ => None,
        };
        if let Some(switch) = switch {
            *switch = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--threads" | "--workers" => {
                cfg.workers = value.parse().map_err(|_| "bad --workers")?
            }
            "--clients" => cfg.clients = value.parse().map_err(|_| "bad --clients")?,
            "--per-client" => cfg.per_client = value.parse().map_err(|_| "bad --per-client")?,
            "--rels" => cfg.rels = value.parse().map_err(|_| "bad --rels")?,
            "--universe" => cfg.universe = value.parse().map_err(|_| "bad --universe")?,
            "--seed" => cfg.seed = value.parse().map_err(|_| "bad --seed")?,
            "--cache-cap" => cfg.cache_cap = value.parse().map_err(|_| "bad --cache-cap")?,
            "--shards" => cfg.shards = value.parse().map_err(|_| "bad --shards")?,
            "--persist" => cfg.persist = Some(value.clone()),
            "--out" => cfg.out = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
        set.push(match flag.as_str() {
            "--threads" | "--workers" => "workers",
            "--clients" => "clients",
            "--per-client" => "per-client",
            "--out" => "out",
            _ => "",
        });
        i += 2;
    }
    if cfg.smoke {
        // a fast sanity configuration for CI: tiny workload, relaxed
        // acceptance thresholds, separate output file. Applied after the
        // loop so explicit flags win regardless of their position.
        if !set.contains(&"clients") {
            cfg.clients = 4;
        }
        if !set.contains(&"per-client") {
            cfg.per_client = 100;
        }
        if !set.contains(&"workers") {
            cfg.workers = 2;
        }
        if !set.contains(&"out") {
            cfg.out = "BENCH_store_smoke.json".to_string();
        }
    }
    Ok(cfg)
}

fn main() -> std::process::ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("store_bench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    match run(cfg) {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("store_bench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// p50/p95/p99 of a registry histogram from a snapshot, in the
/// histogram's own unit (µs here). Zeros when the histogram is absent or
/// empty (e.g. `publish_to_durable` on an in-memory pass).
/// Audits a served run as a whole, from its genesis state `initial`: the
/// segments its history sink received, then the report's final tail
/// (refused if any is missing).
fn audit_whole(
    alpha: &vpdt_logic::Formula,
    omega: &vpdt_eval::Omega,
    initial: &vpdt_structure::Database,
    report: &ServerReport,
    segments: &[HistorySegment],
    programs: &BTreeMap<u64, Program>,
) -> Result<AuditReport, String> {
    Ok(audit(
        alpha,
        omega,
        initial,
        &report.final_db,
        &report.whole_run(segments)?,
        programs,
        &report.templates,
    ))
}

fn quantiles(snap: &MetricsSnapshot, name: &str) -> (f64, f64, f64) {
    match snap.histogram(name) {
        Some(h) => (
            h.quantile(0.50).unwrap_or(0.0),
            h.quantile(0.95).unwrap_or(0.0),
            h.quantile(0.99).unwrap_or(0.0),
        ),
        None => (0.0, 0.0, 0.0),
    }
}

/// The per-stage latency breakdown of one pass, for the
/// `stage_latencies` section of the bench report.
fn stage_latencies_json(serving: &MetricsSnapshot) -> Json {
    let stages = [
        ("queue_wait_us", names::STAGE_QUEUE_WAIT),
        ("guard_eval_us", names::STAGE_GUARD_EVAL),
        ("publish_us", names::STAGE_PUBLISH),
        ("publish_to_durable_us", names::STAGE_PUBLISH_TO_DURABLE),
        ("total_us", names::TX_TOTAL),
    ];
    let stage = |name| {
        let (p50, p95, p99) = quantiles(serving, name);
        obj! {
            "p50" => Json::fixed(p50, 1),
            "p95" => Json::fixed(p95, 1),
            "p99" => Json::fixed(p99, 1),
        }
    };
    Json::Obj(
        stages
            .map(|(label, name)| (label.to_string(), stage(name)))
            .into(),
    )
}

/// One measured pass of the session front door: a fresh server over
/// `initial`, one session per client, windowed pipelining.
struct SessionsRun {
    report: vpdt_store::ServerReport,
    /// The finished tails of an in-memory pass's history, in order.
    segments: Vec<HistorySegment>,
    programs: BTreeMap<u64, Program>,
    /// Metrics over the serving window only: the final snapshot delta'd
    /// against a post-warm-up baseline, so `prepare` traffic is excluded.
    serving: MetricsSnapshot,
    secs: f64,
    compile_secs: f64,
}

fn run_sessions_once(
    cfg: &Config,
    alpha: &vpdt_logic::Formula,
    omega: &vpdt_eval::Omega,
    initial: &vpdt_structure::Database,
    jobs: &[Program],
    persist: Option<(&std::path::Path, WalOptions)>,
) -> Result<SessionsRun, String> {
    let mut builder = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .workers(cfg.workers)
        .guard_cache_capacity(cfg.cache_cap)
        // Metrics (counters + stage histograms) stay on — the bench reads
        // its latency numbers from them. The per-event trace ring is a
        // diagnostic, not a meter, and its shard locks cost ~4-5%
        // throughput on this workload, so the measured passes run
        // untraced (the default server leaves it on).
        .trace_capacity(0);
    let (sink, segments) = std::sync::mpsc::channel();
    builder = match persist {
        Some((dir, opts)) => builder.persist_with(dir, opts),
        None => builder.history_sink(sink),
    };
    let server = builder
        .build()
        .map_err(|e| format!("server refused to start: {e}"))?;

    // Warm the prepared-statement cache up front so the measured section is
    // the steady state. Only distinct statement *shapes* compile — the
    // whole ground menu collapses to O(shapes) compilations, so this cost
    // is independent of the universe size.
    let compile_start = Instant::now();
    for program in jobs {
        server.prepare(program).map_err(|e| e.to_string())?;
    }
    let compile_secs = compile_start.elapsed().as_secs_f64();
    // Baseline the metrics registry so the reported counters and
    // histograms cover the serving section only — everything on a server
    // is a lifetime total, which would count every warm-up lookup above
    // as execution traffic. The final snapshot is delta'd against this.
    let warm = server.metrics();

    // One session per client, each on its own thread, submissions pipelined
    // through a bounded window. Hot-path discipline: inside the measured
    // loop a client only submits and waits — latency percentiles come from
    // the server's own `store_tx_total_us` histogram, not client clocks.
    // The tx-id → program map the audit needs is reconstructed afterwards
    // from the retained tickets (ids are assigned at submission, in order,
    // per chunk).
    type ClientIds = Vec<(u64, usize)>;
    let client_logs: Mutex<Vec<(usize, ClientIds)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (c, chunk) in jobs.chunks(cfg.per_client.max(1)).enumerate() {
            let session = server.session();
            let client_logs = &client_logs;
            scope.spawn(move || {
                let mut ids = Vec::with_capacity(chunk.len());
                let mut in_flight: VecDeque<vpdt_store::TxTicket> = VecDeque::new();
                for (i, program) in chunk.iter().enumerate() {
                    if in_flight.len() >= PIPELINE_WINDOW {
                        // Block for the oldest, then drain everything that
                        // already resolved — one wakeup amortizes over the
                        // whole resolved prefix instead of costing a
                        // context switch per transaction.
                        let ticket = in_flight.pop_front().expect("window non-empty");
                        ticket.wait();
                        while let Some(front) = in_flight.front() {
                            if front.try_outcome().is_none() {
                                break;
                            }
                            in_flight.pop_front();
                        }
                    }
                    let ticket = session.submit(program.clone());
                    ids.push((ticket.id(), i));
                    in_flight.push_back(ticket);
                }
                for ticket in in_flight {
                    ticket.wait();
                }
                client_logs.lock().expect("client log lock").push((c, ids));
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut programs: BTreeMap<u64, Program> = BTreeMap::new();
    for (c, ids) in client_logs.into_inner().expect("client log lock") {
        let chunk = &jobs[c * cfg.per_client.max(1)..];
        for (tx, i) in ids {
            programs.insert(tx, chunk[i].clone());
        }
    }
    let report = server.shutdown();
    let serving = report.metrics.delta(&warm);
    Ok(SessionsRun {
        report,
        segments: segments.try_iter().collect(),
        programs,
        serving,
        secs,
        compile_secs,
    })
}

/// Bytes the in-memory history recorded per transaction after serving
/// `jobs` from one session on one worker: the finished tails its sink
/// received plus the final tail (the `store_history_bytes` gauge), over
/// the job count. Untimed and deterministic: one worker draining one
/// submitter's FIFO records the same events on every run.
fn history_bytes_per_tx(
    alpha: &vpdt_logic::Formula,
    omega: &vpdt_eval::Omega,
    initial: &vpdt_structure::Database,
    jobs: &[Program],
) -> Result<f64, String> {
    let (sink, segments) = std::sync::mpsc::channel();
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .workers(1)
        .trace_capacity(0)
        .retain_outcomes(false)
        .history_sink(sink)
        .build()
        .map_err(|e| format!("server refused to start: {e}"))?;
    let session = server.session();
    let tickets: Vec<_> = jobs.iter().map(|p| session.submit(p.clone())).collect();
    for ticket in tickets {
        ticket.wait();
    }
    let tail = server.metrics().gauge(names::HISTORY_BYTES) as usize;
    drop(server.shutdown());
    let bytes = tail + segments.try_iter().map(|s| s.bytes()).sum::<usize>();
    Ok(bytes as f64 / jobs.len().max(1) as f64)
}

/// One measured pass of the network front door: the identical session
/// workload, but every submission crosses a loopback TCP connection as
/// a checksummed frame and every outcome returns with the committed
/// version and commitment root. Latency samples are client clocks
/// (submit → outcome), so unlike the in-process pass they include the
/// wire, the codec, and the server's reactor pool with its
/// per-connection outboxes.
struct NetRun {
    report: vpdt_store::ServerReport,
    committed: u64,
    aborted: u64,
    failed: u64,
    secs: f64,
    /// Client-side submit→outcome samples, µs, sorted ascending.
    latencies_us: Vec<u64>,
    /// Idle connections parked for the connection-scaling probe.
    scaling_idle_conns: usize,
    /// Process thread delta while the idle fleet was connected; `None`
    /// where `/proc/self/status` is unavailable (non-Linux).
    scaling_thread_delta: Option<u64>,
}

fn run_networked_once(
    cfg: &Config,
    alpha: &vpdt_logic::Formula,
    omega: &vpdt_eval::Omega,
    initial: &vpdt_structure::Database,
    jobs: &[Program],
) -> Result<NetRun, String> {
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .workers(cfg.workers)
        .guard_cache_capacity(cfg.cache_cap)
        .trace_capacity(0)
        .build()
        .map_err(|e| format!("server refused to start: {e}"))?;
    // Same warm-up discipline as the in-process pass: the measured
    // window starts with every statement shape already compiled.
    for program in jobs {
        server.prepare(program).map_err(|e| e.to_string())?;
    }
    let net = NetServer::bind(server, "127.0.0.1:0", NetOptions::default())
        .map_err(|e| format!("binding loopback listener: {e}"))?;
    let handle = net.handle();
    let addr = handle.addr();
    let serving = std::thread::spawn(move || net.serve());

    type ClientTally = Result<(u64, u64, u64, Vec<u64>), String>;
    let tallies: Mutex<Vec<ClientTally>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for (c, chunk) in jobs.chunks(cfg.per_client.max(1)).enumerate() {
            let tallies = &tallies;
            scope.spawn(move || {
                let outcome = drive_net_client(addr, c, chunk);
                tallies
                    .lock()
                    .expect("net tally lock")
                    .push(outcome.map_err(|e| format!("net client {c}: {e}")));
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();

    // Connection-scaling probe: after the measured window (so the
    // latency samples are untouched), park a fleet of idle connections
    // on the still-running server and read the process thread count
    // before and after. Multiplexed connections ride the fixed
    // reactor pool, so the delta stays O(1) regardless of
    // fleet size.
    let baseline_threads = os_thread_count();
    let mut fleet = Vec::with_capacity(NET_SCALING_IDLE_CONNS);
    for i in 0..NET_SCALING_IDLE_CONNS {
        let client = NetClient::connect(addr, &format!("scaling-idle-{i}"))
            .map_err(|e| format!("scaling probe connection {i}: {e}"))?;
        fleet.push(client);
    }
    let scaling_idle_conns = fleet.len();
    let scaling_thread_delta = match (baseline_threads, os_thread_count()) {
        (Some(before), Some(during)) => Some(during.saturating_sub(before)),
        _ => None,
    };
    for client in fleet {
        client
            .goodbye()
            .map_err(|e| format!("scaling probe goodbye: {e}"))?;
    }

    handle.stop();
    let report = serving.join().map_err(|_| "net server thread panicked")?;

    let (mut committed, mut aborted, mut failed) = (0u64, 0u64, 0u64);
    let mut latencies_us: Vec<u64> = Vec::with_capacity(jobs.len());
    for tally in tallies.into_inner().expect("net tally lock") {
        let (c, a, f, lats) = tally?;
        committed += c;
        aborted += a;
        failed += f;
        latencies_us.extend(lats);
    }
    latencies_us.sort_unstable();
    Ok(NetRun {
        report,
        committed,
        aborted,
        failed,
        secs,
        latencies_us,
        scaling_idle_conns,
        scaling_thread_delta,
    })
}

/// The `Threads:` field of `/proc/self/status` — every OS thread in the
/// process. `None` where procfs is unavailable, in which case the
/// connection-scaling numbers are reported as null.
fn os_thread_count() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// One bench client: a `NetClient` pipelining its chunk through a
/// `PIPELINE_WINDOW`-deep window (mirroring the in-process driver:
/// block for the oldest once the window fills), timing each submission
/// to its outcome and tallying the wire outcomes.
fn drive_net_client(
    addr: std::net::SocketAddr,
    c: usize,
    chunk: &[Program],
) -> Result<(u64, u64, u64, Vec<u64>), NetError> {
    let mut client = NetClient::connect(addr, &format!("store_bench client {c}"))?;
    let (mut committed, mut aborted, mut failed) = (0u64, 0u64, 0u64);
    let mut latencies = Vec::with_capacity(chunk.len());
    let mut starts: VecDeque<Instant> = VecDeque::new();
    for program in chunk {
        if client.inflight() >= PIPELINE_WINDOW {
            let (_, _, outcome) = client.next_outcome()?;
            let started = starts.pop_front().expect("window non-empty");
            latencies.push(started.elapsed().as_micros() as u64);
            tally_wire(&outcome, &mut committed, &mut aborted, &mut failed);
        }
        client.submit(program)?;
        starts.push_back(Instant::now());
    }
    while client.inflight() > 0 {
        let (_, _, outcome) = client.next_outcome()?;
        let started = starts.pop_front().expect("one start per submission");
        latencies.push(started.elapsed().as_micros() as u64);
        tally_wire(&outcome, &mut committed, &mut aborted, &mut failed);
    }
    client.goodbye()?;
    Ok((committed, aborted, failed, latencies))
}

fn tally_wire(outcome: &WireOutcome, committed: &mut u64, aborted: &mut u64, failed: &mut u64) {
    match outcome {
        WireOutcome::Committed { .. } => *committed += 1,
        WireOutcome::GuardAborted { .. } | WireOutcome::RolledBack { .. } => *aborted += 1,
        WireOutcome::Failed { .. } => *failed += 1,
    }
}

/// Quantile of a sorted µs sample, reported in ms. Zero when empty.
fn sample_quantile_ms(sorted_us: &[u64], q: f64) -> f64 {
    match sorted_us.len() {
        0 => 0.0,
        n => sorted_us[((n - 1) as f64 * q).round() as usize] as f64 / 1e3,
    }
}

/// Timed writes behind the fsync figures of the report's `env` section.
const FSYNC_PROBE_SAMPLES: usize = 1000;
/// Bytes per probe write: one WAL-record-sized block.
const FSYNC_PROBE_BYTES: usize = 4096;

/// The machine the run measured on, for the report's `env` section: the
/// core count (`available_parallelism`) and the p50/p99 latency of a
/// 4 KiB append + `sync_data` on the file system of `wal_dir`, written
/// to a scratch file beside it (removed again), so fsync-bound figures
/// can be read against the disk that produced them.
fn probe_env(wal_dir: &std::path::Path) -> Result<Json, String> {
    use std::io::Write;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut path = wal_dir.as_os_str().to_owned();
    path.push(".fsync-probe");
    let path = std::path::PathBuf::from(path);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    let probe_err = |e: std::io::Error| format!("fsync probe at {}: {e}", path.display());
    let mut file = std::fs::File::create(&path).map_err(probe_err)?;
    let block = [0xa5u8; FSYNC_PROBE_BYTES];
    let mut us = Vec::with_capacity(FSYNC_PROBE_SAMPLES);
    for _ in 0..FSYNC_PROBE_SAMPLES {
        let t = Instant::now();
        file.write_all(&block).map_err(probe_err)?;
        file.sync_data().map_err(probe_err)?;
        us.push(t.elapsed().as_micros() as u64);
    }
    drop(file);
    std::fs::remove_file(&path).map_err(probe_err)?;
    us.sort_unstable();
    let (p50, p99) = (
        sample_quantile_ms(&us, 0.50) * 1e3,
        sample_quantile_ms(&us, 0.99) * 1e3,
    );
    println!(
        "env: {cores} cores; {FSYNC_PROBE_BYTES}-byte append + fsync on the WAL's file system \
         p50 {p50:.1}µs p99 {p99:.1}µs ({FSYNC_PROBE_SAMPLES} samples)"
    );
    Ok(obj! {
        "cores" => cores,
        "fsync_probe_bytes" => FSYNC_PROBE_BYTES,
        "fsync_probe_samples" => FSYNC_PROBE_SAMPLES,
        "fsync_p50_us" => Json::fixed(p50, 1),
        "fsync_p99_us" => Json::fixed(p99, 1),
    })
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if xs.is_empty() {
        0.0
    } else {
        xs[xs.len() / 2]
    }
}

/// One measured pass over a relation-partitioned [`vpdt_store::ShardedStore`]:
/// a fresh store over `initial` split into `shards`, the job list driven
/// through the footprint router, one session per `per_client`-sized chunk.
/// Totals fold the per-shard pipelines and the cross-shard coordinator
/// together (each transaction counts exactly once: single-shard commits in
/// their shard's exec report, cross-shard commits in the coordinator's
/// counters).
struct ShardedPass {
    report: vpdt_store::ShardedReport,
    drive: workload::ShardedDrive,
    committed: u64,
    aborted: u64,
    failed: u64,
    secs: f64,
    /// The largest fast guard (formula nodes) among the router's
    /// cross-shard shapes; 0 when no cross-shard shape was compiled.
    cross_guard_max_nodes: usize,
}

fn run_sharded_once(
    cfg: &Config,
    shards: usize,
    alpha: &vpdt_logic::Formula,
    omega: &vpdt_eval::Omega,
    initial: &vpdt_structure::Database,
    jobs: &[Program],
    persist: Option<(&std::path::Path, WalOptions)>,
) -> Result<ShardedPass, String> {
    let mut builder = vpdt_store::ShardedBuilder::new(initial.clone(), alpha.clone(), shards)
        .omega(omega.clone())
        .workers_per_shard(cfg.workers)
        .guard_cache_capacity(cfg.cache_cap);
    if let Some((dir, opts)) = persist {
        builder = builder.persist_with(dir, opts);
    }
    let store = builder
        .build()
        .map_err(|e| format!("sharded store refused to start: {e}"))?;
    // Warm the router and the single-shard guard caches so the measured
    // section is the steady state, as in the session passes.
    for program in jobs {
        store.prepare(program).map_err(|e| e.to_string())?;
    }
    let t0 = Instant::now();
    let drive = workload::serve_sharded_chunked(&store, jobs, cfg.per_client.max(1));
    let secs = t0.elapsed().as_secs_f64();
    let cross_guard_max_nodes = store
        .router_shape_stats()
        .iter()
        .filter_map(|s| s.fast_nodes)
        .max()
        .unwrap_or(0);
    let report = store.shutdown();
    let shards_total = |count: fn(&vpdt_store::ExecReport) -> usize| {
        report.shards.iter().map(|s| count(&s.exec)).sum::<usize>() as u64
    };
    let committed =
        shards_total(|e| e.committed) + report.coordinator.counter(names::CROSS_COMMITTED);
    let aborted = shards_total(|e| e.aborted) + report.coordinator.counter(names::CROSS_ABORTED);
    let failed = shards_total(|e| e.failed) + drive.errors;
    Ok(ShardedPass {
        report,
        drive,
        committed,
        aborted,
        failed,
        secs,
        cross_guard_max_nodes,
    })
}

fn run(cfg: Config) -> Result<bool, String> {
    let alpha = workload::sharded_fd_constraint(cfg.rels);
    let omega = vpdt_eval::Omega::empty();
    let initial = workload::sharded_initial(cfg.seed, cfg.rels, cfg.universe, 0.5);
    let jobs = workload::sharded_jobs(
        cfg.seed,
        cfg.clients,
        cfg.per_client,
        cfg.rels,
        cfg.universe,
    );
    // Throughput on small shared machines is scheduling-noisy, so the
    // in-process session rate is the median over several rounds.
    let rounds = if cfg.smoke { 1 } else { 5 };
    println!(
        "workload: {} transactions over {} relations (universe {}), {} workers, {} sessions, \
         median of {} rounds",
        jobs.len(),
        cfg.rels,
        cfg.universe,
        cfg.workers,
        cfg.clients,
        rounds,
    );

    // --- guarded-sessions ---------------------------------------------------
    let mut session_runs: Vec<SessionsRun> = Vec::new();
    for _ in 0..rounds {
        session_runs.push(run_sessions_once(
            &cfg, &alpha, &omega, &initial, &jobs, None,
        )?);
    }
    let mut session_tpss: Vec<f64> = session_runs
        .iter()
        .map(|r| r.report.exec.committed as f64 / r.secs)
        .collect();
    let sessions_tps = median(&mut session_tpss);

    // The audited artifacts come from the last session round.
    let SessionsRun {
        report,
        segments,
        programs,
        serving,
        secs: sessions_secs,
        compile_secs,
    } = session_runs.pop().expect("at least one round");
    // Cache counters narrowed to the serving window (the report's are
    // server-lifetime totals, warm-up compilations included).
    let guard_hits = serving.counter(names::GUARD_CACHE_HITS);
    let guard_misses = serving.counter(names::GUARD_CACHE_MISSES);
    let compile_secs_per_shape = compile_secs / report.cache.shapes.max(1) as f64;
    // End-to-end latency percentiles from the server's own registry
    // (enqueue → ticket resolution), µs histograms reported in ms.
    let (p50, p95, p99) = {
        let (a, b, c) = quantiles(&serving, names::TX_TOTAL);
        (a / 1e3, b / 1e3, c / 1e3)
    };
    println!(
        "guarded-sessions:   {} committed / {} aborted / {} failed in {:.3}s \
         (median {:.0} commits/s, {} conflicts, cache {}h/{}m, {} shapes compiled \
         in {:.3}s = {:.1}ms/shape, latency p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms)",
        report.exec.committed,
        report.exec.aborted,
        report.exec.failed,
        sessions_secs,
        sessions_tps,
        report.exec.conflicts,
        guard_hits,
        guard_misses,
        report.cache.shapes,
        compile_secs,
        compile_secs_per_shape * 1e3,
        p50,
        p95,
        p99,
    );

    // --- rollback-serial ----------------------------------------------------
    let t2 = Instant::now();
    let (_serial_state, serial) = run_serial_rollback(initial.clone(), &jobs, &alpha, &omega);
    let serial_secs = t2.elapsed().as_secs_f64();
    let serial_tps = serial.committed as f64 / serial_secs;
    println!(
        "rollback-serial:    {} committed / {} aborted in {:.3}s ({:.0} commits/s)",
        serial.committed, serial.aborted, serial_secs, serial_tps,
    );

    // --- history footprint ---------------------------------------------------
    let history_per_tx = history_bytes_per_tx(&alpha, &omega, &initial, &jobs)?;
    println!("history:            {history_per_tx:.1} bytes per transaction (one worker)");

    // --- guarded-sessions, persisted (WAL + group commit) --------------------
    // The pass retains every segment: the kept artifacts are meant for a
    // full from-genesis cold audit, which retention's checkpoint-time gc
    // would (correctly, but unhelpfully here) shorten.
    let persisted_opts = WalOptions {
        retain_segments: true,
        ..WalOptions::default()
    };
    let persist_dir = cfg
        .persist
        .clone()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("vpdt-bench-wal-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&persist_dir);
    let env = probe_env(&persist_dir)?;

    let persisted = run_sessions_once(
        &cfg,
        &alpha,
        &omega,
        &initial,
        &jobs,
        Some((&persist_dir, persisted_opts)),
    )?;
    let persisted_tps = persisted.report.exec.committed as f64 / persisted.secs;
    // The flusher writes each group of staged records before its fsync,
    // so the writes follow the fsyncs (plus the shutdown checkpoint's),
    // not the transactions: neither deterministic nor one per transaction.
    let wal_writes = persisted.report.metrics.counter(names::WAL_WRITES);
    let wal_writes_per_tx = wal_writes as f64 / jobs.len().max(1) as f64;
    // Recover the directory and demand the recovered version, root hash,
    // and full-encoding state hash match what the live server reported —
    // durability verified end-to-end, not assumed.
    let recovered =
        vpdt_store::wal::recover(&persist_dir, &omega, vpdt_store::RecoveryOptions::default())
            .map_err(|e| format!("recovering {}: {e}", persist_dir.display()))?;
    let final_db = &persisted.report.final_db;
    let recovered_ok = recovered.version == persisted.report.final_version
        && recovered.root_hash == vpdt_store::history::root_hash(final_db)
        && recovered.state_hash == vpdt_store::history::state_hash(final_db);
    let persisted_vs_memory = persisted_tps / sessions_tps;
    let flush = persisted
        .report
        .flush
        .clone()
        .ok_or("persisted run reports no flush stats")?;
    let fsyncs_per_commit = flush.fsyncs as f64 / persisted.report.exec.committed.max(1) as f64;
    let (pp50, pp95, pp99) = {
        let (a, b, c) = quantiles(&persisted.serving, names::TX_TOTAL);
        (a / 1e3, b / 1e3, c / 1e3)
    };
    let max_batch_seen = flush.batch_sizes.keys().max().copied().unwrap_or(0);
    println!(
        "guarded-sessions (persisted, group commit): {} committed / {} aborted / {} failed \
         in {:.3}s ({:.0} commits/s, {:.2}x of in-memory, {:.3} WAL writes/tx, {} fsyncs = \
         {:.4}/commit, largest batch {}, latency p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms, \
         recovery {})",
        persisted.report.exec.committed,
        persisted.report.exec.aborted,
        persisted.report.exec.failed,
        persisted.secs,
        persisted_tps,
        persisted_vs_memory,
        wal_writes_per_tx,
        flush.fsyncs,
        fsyncs_per_commit,
        max_batch_seen,
        pp50,
        pp95,
        pp99,
        if recovered_ok { "OK" } else { "MISMATCH" },
    );
    if cfg.persist.is_none() {
        let _ = std::fs::remove_dir_all(&persist_dir);
    } else {
        println!("persisted artifacts kept in {}", persist_dir.display());
    }

    // --- networked workload (--net): the front door over loopback -----------
    // The identical session workload once more, but through `vpdt-net`:
    // every submission framed and checksummed over TCP, every outcome
    // returning with version and commitment root. What it proves: the
    // wire protocol and the reactor pool keep the workers
    // saturated — remote sessions are not a second-class path — and the
    // connection-scaling probe shows idle connections cost pool slots,
    // not threads.
    struct Networked {
        run: NetRun,
        tps: f64,
        vs_sessions: f64,
    }
    let networked: Option<Networked> = if cfg.net {
        let run = run_networked_once(&cfg, &alpha, &omega, &initial, &jobs)?;
        let tps = run.committed as f64 / run.secs;
        let vs_sessions = tps / sessions_tps;
        println!(
            "networked (loopback, {} clients, window {}): {} committed / {} aborted / \
             {} failed in {:.3}s ({:.0} commits/s, {:.2}x of in-process sessions, \
             latency p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms)",
            cfg.clients,
            PIPELINE_WINDOW,
            run.committed,
            run.aborted,
            run.failed,
            run.secs,
            tps,
            vs_sessions,
            sample_quantile_ms(&run.latencies_us, 0.50),
            sample_quantile_ms(&run.latencies_us, 0.95),
            sample_quantile_ms(&run.latencies_us, 0.99),
        );
        match run.scaling_thread_delta {
            Some(delta) => println!(
                "connection scaling: {} idle connections cost {} extra threads \
                 ({:.3} threads/connection)",
                run.scaling_idle_conns,
                delta,
                delta as f64 / run.scaling_idle_conns.max(1) as f64,
            ),
            None => println!(
                "connection scaling: {} idle connections parked (thread count \
                 unavailable on this platform)",
                run.scaling_idle_conns,
            ),
        }
        Some(Networked {
            run,
            tps,
            vs_sessions,
        })
    } else {
        None
    };

    // --- scaled workload (--scale): publish cost at a real database size ----
    // A separate in-memory pass over a much larger store (SCALED_RELS
    // relations, universe SCALED_UNIVERSE, thousands of resident tuples)
    // with single-relation footprints. What it proves: commit throughput
    // and publish-lock hold time depend on the *footprint*, not on |DB|.
    // Audited like the standard pass, off the serving clock: the replay
    // re-checks α on every committed state.
    struct Scaled {
        jobs: usize,
        resident: usize,
        run: SessionsRun,
        tps: f64,
        lock_p50: f64,
        lock_p95: f64,
        lock_p99: f64,
        audit_ok: bool,
        audit_secs: f64,
    }
    let scaled: Option<Scaled> = if cfg.scale {
        let (sc_clients, sc_per_client) = if cfg.smoke {
            (SCALED_SMOKE_CLIENTS, SCALED_SMOKE_PER_CLIENT)
        } else {
            (SCALED_CLIENTS, SCALED_PER_CLIENT)
        };
        // A session pass reads only the pool, cache and chunk settings.
        let sc_cfg = Config {
            workers: cfg.workers,
            cache_cap: cfg.cache_cap,
            clients: sc_clients,
            per_client: sc_per_client,
            ..Config::default()
        };
        let sc_alpha = workload::sharded_fd_constraint(SCALED_RELS);
        let sc_initial =
            workload::sharded_initial(cfg.seed, SCALED_RELS, SCALED_UNIVERSE, SCALED_DENSITY);
        let resident: usize = sc_initial
            .schema()
            .iter()
            .map(|(name, _)| sc_initial.rel(name).len())
            .sum();
        let sc_jobs = workload::scaled_jobs(
            cfg.seed,
            sc_clients,
            sc_per_client,
            SCALED_RELS,
            SCALED_UNIVERSE,
        );
        let run = run_sessions_once(&sc_cfg, &sc_alpha, &omega, &sc_initial, &sc_jobs, None)?;
        let tps = run.report.exec.committed as f64 / run.secs;
        let (lock_p50, lock_p95, lock_p99) = quantiles(&run.serving, names::STAGE_PUBLISH_LOCK);
        let audit_start = Instant::now();
        let sc_verdict = audit_whole(
            &sc_alpha,
            &omega,
            &sc_initial,
            &run.report,
            &run.segments,
            &run.programs,
        )?;
        let audit_secs = audit_start.elapsed().as_secs_f64();
        for problem in sc_verdict.problems.iter().take(5) {
            eprintln!("scaled audit: {problem}");
        }
        println!(
            "scaled ({} rels, universe {}, {} resident tuples): {} committed / {} aborted / \
             {} failed in {:.3}s ({:.0} commits/s, publish-lock p50 {:.1}µs p95 {:.1}µs \
             p99 {:.1}µs); {sc_verdict} ({audit_secs:.3}s)",
            SCALED_RELS,
            SCALED_UNIVERSE,
            resident,
            run.report.exec.committed,
            run.report.exec.aborted,
            run.report.exec.failed,
            run.secs,
            tps,
            lock_p50,
            lock_p95,
            lock_p99,
        );
        Some(Scaled {
            jobs: sc_jobs.len(),
            resident,
            run,
            tps,
            lock_p50,
            lock_p95,
            lock_p99,
            audit_ok: sc_verdict.ok(),
            audit_secs,
        })
    } else {
        None
    };

    // --- sharded workload (--shards): horizontal scale-out ------------------
    // Three passes over relation-partitioned stores. Baseline and disjoint
    // drive the identical single-relation-footprint workload through a
    // 1-shard and an N-shard store — every commit takes its shard's
    // ordinary path, so the throughput ratio is the scale-out factor the
    // partitioning buys. The mixed pass adds SHARD_CROSS_FRACTION
    // two-relation transactions that commit through the inline two-phase
    // coordinator; it runs persisted and is then recovered and
    // cold-audited: the shard WALs plus the decision log must replay to
    // the exact per-shard versions and root hashes the live store
    // reported.
    struct Sharded {
        shards: usize,
        rels: usize,
        jobs: usize,
        baseline: ShardedPass,
        disjoint: ShardedPass,
        mixed: ShardedPass,
        baseline_tps: f64,
        disjoint_tps: f64,
        mixed_tps: f64,
        scaling_efficiency: f64,
        scaling_gated: bool,
        cores: usize,
        recovered_ok: bool,
        audit_ok: bool,
        audit_problems: usize,
    }
    let sharded: Option<Sharded> = if cfg.shards >= 2 {
        let n = cfg.shards;
        // Relations must cover the shards; round up to a multiple so the
        // round-robin striping is even and the cross-mix generator's
        // stride-1 pairs always straddle two shards.
        let sh_rels = cfg.rels.max(n).div_ceil(n) * n;
        let sh_alpha = workload::sharded_fd_constraint(sh_rels);
        let sh_initial = workload::sharded_initial(cfg.seed, sh_rels, cfg.universe, 0.5);
        let sh_jobs =
            workload::scaled_jobs(cfg.seed, cfg.clients, cfg.per_client, sh_rels, cfg.universe);
        // Interleaved rounds, median of paired per-round ratios: adjacent
        // runs see the same machine conditions, so slow drift cancels out
        // of the ratio.
        let sh_rounds = if cfg.smoke { 1 } else { 3 };
        let mut baselines: Vec<ShardedPass> = Vec::new();
        let mut disjoints: Vec<ShardedPass> = Vec::new();
        for _ in 0..sh_rounds {
            baselines.push(run_sharded_once(
                &cfg,
                1,
                &sh_alpha,
                &omega,
                &sh_initial,
                &sh_jobs,
                None,
            )?);
            disjoints.push(run_sharded_once(
                &cfg,
                n,
                &sh_alpha,
                &omega,
                &sh_initial,
                &sh_jobs,
                None,
            )?);
        }
        let mut base_tpss: Vec<f64> = baselines
            .iter()
            .map(|p| p.committed as f64 / p.secs)
            .collect();
        let mut dis_tpss: Vec<f64> = disjoints
            .iter()
            .map(|p| p.committed as f64 / p.secs)
            .collect();
        let mut ratios: Vec<f64> = dis_tpss
            .iter()
            .zip(&base_tpss)
            .map(|(d, b)| d / b)
            .collect();
        let scaling_efficiency = median(&mut ratios);
        let baseline_tps = median(&mut base_tpss);
        let disjoint_tps = median(&mut dis_tpss);
        let baseline = baselines.pop().expect("at least one round");
        let disjoint = disjoints.pop().expect("at least one round");
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        // Shards scale only when they can run on distinct cores, so the
        // floor is enforced only on hardware that can express it;
        // everywhere else the ratio is reported, not gated (the same
        // policy as the machine-dependent vs_monolithic baseline).
        let scaling_gated = !cfg.smoke && n >= 4 && cores >= n;
        println!(
            "sharded ({n} shards, {sh_rels} rels): disjoint {} committed / {} aborted / \
             {} failed in {:.3}s (median {disjoint_tps:.0} commits/s vs 1-shard \
             {baseline_tps:.0}/s = {scaling_efficiency:.2}x, floor {SHARD_SCALING_FLOOR}, {})",
            disjoint.committed,
            disjoint.aborted,
            disjoint.failed,
            disjoint.secs,
            if scaling_gated {
                "gated".to_string()
            } else {
                format!("reported only: {cores} core(s)")
            },
        );

        // Mixed pass: persisted, then recovered and cold-audited.
        let sharded_dir = {
            let mut name = persist_dir.as_os_str().to_owned();
            name.push("-sharded");
            std::path::PathBuf::from(name)
        };
        let _ = std::fs::remove_dir_all(&sharded_dir);
        let sharded_opts = WalOptions {
            retain_segments: true,
            ..WalOptions::default()
        };
        let mix_jobs = workload::cross_mix_jobs(
            cfg.seed,
            cfg.clients,
            cfg.per_client,
            sh_rels,
            cfg.universe,
            SHARD_CROSS_FRACTION,
        );
        let mixed = run_sharded_once(
            &cfg,
            n,
            &sh_alpha,
            &omega,
            &sh_initial,
            &mix_jobs,
            Some((&sharded_dir, sharded_opts.clone())),
        )?;
        let mixed_tps = mixed.committed as f64 / mixed.secs;

        // Recovery: reopen the shard WALs + decision log and demand every
        // shard come back at the exact version and commitment root the
        // live store reported at shutdown.
        let saved: Vec<_> = mixed
            .report
            .shards
            .iter()
            .map(|s| (s.final_version, vpdt_store::history::root_hash(&s.final_db)))
            .collect();
        let recovered_store = vpdt_store::ShardedBuilder::recover(&sharded_dir)
            .omega(omega.clone())
            .workers_per_shard(cfg.workers)
            .guard_cache_capacity(cfg.cache_cap)
            .wal_options(sharded_opts)
            .build()
            .map_err(|e| format!("recovering sharded store {}: {e}", sharded_dir.display()))?;
        let mut sh_recovered_ok = recovered_store.num_shards() == n;
        for (i, (version, root)) in saved.iter().enumerate() {
            if i < recovered_store.num_shards() {
                let snap = recovered_store.shard(i).snapshot();
                sh_recovered_ok &=
                    snap.version == *version && vpdt_store::history::root_hash(&snap.db) == *root;
            }
        }
        recovered_store.shutdown();

        // Cold audit: per-shard replay plus decision-log cross-checks
        // (every Cross event must match its decision branch, every
        // decided branch past the watermark must be applied).
        let audit_report = vpdt_store::cold_audit_sharded(&sharded_dir, &omega)
            .map_err(|e| format!("cold-auditing {}: {e}", sharded_dir.display()))?;
        let sh_audit_ok = audit_report.ok();
        let (cp50, cp95, cp99) = quantiles(&mixed.report.coordinator, names::CROSS_TOTAL);
        println!(
            "sharded cross-mix ({:.0}% cross): {} single / {} cross routed, {} committed / \
             {} aborted / {} failed in {:.3}s ({mixed_tps:.0} commits/s, 2PC total \
             p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms, largest cross guard {} nodes, \
             recovery {}, cold audit {})",
            SHARD_CROSS_FRACTION * 100.0,
            mixed.drive.single,
            mixed.drive.cross,
            mixed.committed,
            mixed.aborted,
            mixed.failed,
            mixed.secs,
            cp50 / 1e3,
            cp95 / 1e3,
            cp99 / 1e3,
            mixed.cross_guard_max_nodes,
            if sh_recovered_ok { "OK" } else { "MISMATCH" },
            if sh_audit_ok { "OK" } else { "PROBLEMS" },
        );
        for problem in audit_report.problems.iter().take(5) {
            eprintln!("sharded cold audit: {problem}");
        }
        if cfg.persist.is_none() {
            let _ = std::fs::remove_dir_all(&sharded_dir);
        } else {
            println!(
                "sharded artifacts kept in {} (shard WALs + decision log)",
                sharded_dir.display()
            );
        }
        Some(Sharded {
            shards: n,
            rels: sh_rels,
            jobs: sh_jobs.len(),
            baseline,
            disjoint,
            mixed,
            baseline_tps,
            disjoint_tps,
            mixed_tps,
            scaling_efficiency,
            scaling_gated,
            cores,
            recovered_ok: sh_recovered_ok,
            audit_ok: sh_audit_ok,
            audit_problems: audit_report.problems.len(),
        })
    } else {
        None
    };

    // --- audit (of the session history) -------------------------------------
    let t3 = Instant::now();
    let verdict = audit_whole(&alpha, &omega, &initial, &report, &segments, &programs)?;
    let audit_secs = t3.elapsed().as_secs_f64();
    println!("{verdict} ({audit_secs:.3}s)");

    // --- verdicts -----------------------------------------------------------
    let violations = verdict
        .problems
        .iter()
        .filter(|p| p.contains("constraint"))
        .count();
    let speedup = sessions_tps / serial_tps;
    let enough_commits = cfg.smoke || report.exec.committed >= 10_000;
    let enough_workers = cfg.smoke || cfg.workers >= 4;
    let beats_baseline = cfg.smoke || sessions_tps > serial_tps;
    // The O(shapes) claim: the cache may never hold more compilations than
    // there are statement shapes (2 per relation for this workload's menu),
    // however large the universe.
    let shape_bound =
        report.cache.shapes <= 2 * cfg.rels && report.cache.entries <= report.cache.shapes;
    // Durability must not drop or corrupt anything (speed is reported, not
    // gated: fsync cost is the disk's, not the code's).
    let persisted_ok = persisted.report.exec.failed == 0 && recovered_ok;
    // The scaled pass gates on the lock-hold bound: publish work must be
    // footprint-proportional, and a bounded p99 at a |DB| two orders of
    // magnitude above the standard workload is the observable form of
    // that claim. Its history must audit clean like the standard pass's.
    // (The vs_monolithic ratio is reported, not gated — it compares
    // against a constant measured on a different machine.)
    let scaled_ok = scaled.as_ref().is_none_or(|s| {
        s.run.report.exec.failed == 0
            && s.run.report.exec.committed > 0
            && s.lock_p99 <= SCALED_LOCK_P99_BOUND_US
            && s.audit_ok
    });
    // The networked pass gates on the throughput ratio (smoke runs are
    // too small to amortize connection setup, so there only failures
    // gate): crossing the loopback front door must not halve the
    // pipeline.
    let networked_ok = networked.as_ref().is_none_or(|n| {
        n.run.failed == 0
            && n.run.committed > 0
            && (cfg.smoke || n.vs_sessions >= NET_VS_SESSIONS_FLOOR)
    });
    // The sharded pass gates unconditionally on correctness (no failures,
    // cross-shard commits actually happened, recovery exact, cold audit
    // clean) and conditionally on the scaling floor — only where the
    // hardware can express shard parallelism at all.
    let sharded_ok = sharded.as_ref().is_none_or(|s| {
        s.baseline.failed == 0
            && s.disjoint.failed == 0
            && s.mixed.failed == 0
            && s.disjoint.committed > 0
            && s.mixed.report.coordinator.counter(names::CROSS_COMMITTED) > 0
            && s.recovered_ok
            && s.audit_ok
            && (!s.scaling_gated || s.scaling_efficiency >= SHARD_SCALING_FLOOR)
    });
    let ok = verdict.ok()
        && report.exec.failed == 0
        && enough_commits
        && enough_workers
        && beats_baseline
        && shape_bound
        && persisted_ok
        && scaled_ok
        && networked_ok
        && sharded_ok;

    // The report: each key next to its value; absent passes render null.
    let secs = |x: f64| Json::fixed(x, 6);
    let tps = |x: f64| Json::fixed(x, 1);
    let ms = |x: f64| Json::fixed(x, 4);
    let us = |x: f64| Json::fixed(x, 1);
    let ratio = |x: f64| Json::fixed(x, 3);
    let scaled_json = scaled.as_ref().map(|s| {
        let exec = &s.run.report.exec;
        obj! {
            "transactions" => s.jobs,
            "relations" => SCALED_RELS,
            "universe" => SCALED_UNIVERSE,
            "resident_tuples" => s.resident,
            "committed" => exec.committed,
            "aborted" => exec.aborted,
            "failed" => exec.failed,
            "conflicts" => exec.conflicts,
            "secs" => secs(s.run.secs),
            "commits_per_sec" => tps(s.tps),
            "baseline_monolithic_commits_per_sec" => tps(SCALED_BASELINE_MONOLITHIC_TPS),
            "vs_monolithic" => Json::fixed(s.tps / SCALED_BASELINE_MONOLITHIC_TPS, 2),
            "publish_lock_p50_us" => us(s.lock_p50),
            "publish_lock_p95_us" => us(s.lock_p95),
            "publish_lock_p99_us" => us(s.lock_p99),
            "publish_lock_p99_bound_us" => us(SCALED_LOCK_P99_BOUND_US),
            "lock_bounded" => s.lock_p99 <= SCALED_LOCK_P99_BOUND_US,
            "audit_ok" => s.audit_ok,
            "audit_secs" => secs(s.audit_secs),
        }
    });

    let networked_json = networked.as_ref().map(|n| {
        let wire = &n.run.report.metrics;
        let lat = &n.run.latencies_us;
        // Threads-per-connection from the idle-fleet probe; null where the
        // platform offers no thread count.
        let idle = n.run.scaling_idle_conns;
        let per_conn = n
            .run
            .scaling_thread_delta
            .map(|delta| Json::fixed(delta as f64 / idle.max(1) as f64, 4));
        obj! {
            "clients" => cfg.clients,
            "pipeline_window" => PIPELINE_WINDOW,
            "committed" => n.run.committed,
            "aborted" => n.run.aborted,
            "failed" => n.run.failed,
            "secs" => secs(n.run.secs),
            "commits_per_sec" => tps(n.tps),
            "vs_sessions" => ratio(n.vs_sessions),
            "vs_sessions_floor" => Json::fixed(NET_VS_SESSIONS_FLOOR, 2),
            "latency_p50_ms" => ms(sample_quantile_ms(lat, 0.50)),
            "latency_p95_ms" => ms(sample_quantile_ms(lat, 0.95)),
            "latency_p99_ms" => ms(sample_quantile_ms(lat, 0.99)),
            "connections" => wire.counter(net_names::NET_CONNECTIONS_TOTAL),
            "bytes_in" => wire.counter(net_names::NET_BYTES_IN_TOTAL),
            "bytes_out" => wire.counter(net_names::NET_BYTES_OUT_TOTAL),
            "frame_errors" => wire.counter(net_names::NET_FRAME_ERRORS_TOTAL),
            "connection_scaling" => obj! {
                "idle_connections" => idle,
                "thread_delta" => n.run.scaling_thread_delta,
                "threads_per_connection" => per_conn,
            },
        }
    });

    let sharded_json = sharded.as_ref().map(|s| {
        let pass = |p: &ShardedPass, rate: f64| {
            obj! {
                "transactions" => p.drive.single + p.drive.cross,
                "single" => p.drive.single,
                "cross" => p.drive.cross,
                "committed" => p.committed,
                "aborted" => p.aborted,
                "failed" => p.failed,
                "secs" => secs(p.secs),
                "commits_per_sec" => tps(rate),
            }
        };
        let coord = &s.mixed.report.coordinator;
        let (cp50, cp95, cp99) = quantiles(coord, names::CROSS_TOTAL);
        let (pp50, pp95, pp99) = quantiles(coord, names::CROSS_STAGE_PREPARE);
        let (dp50, dp95, dp99) = quantiles(coord, names::CROSS_STAGE_DECIDE);
        obj! {
            "shards" => s.shards,
            "relations" => s.rels,
            "transactions" => s.jobs,
            "cores" => s.cores,
            "single_shard_baseline" => pass(&s.baseline, s.baseline_tps),
            "disjoint" => pass(&s.disjoint, s.disjoint_tps),
            "scaling_efficiency" => ratio(s.scaling_efficiency),
            "scaling_floor" => Json::fixed(SHARD_SCALING_FLOOR, 2),
            "scaling_gated" => s.scaling_gated,
            "cross_mix" => obj! {
                "cross_fraction" => ratio(SHARD_CROSS_FRACTION),
                "pass" => pass(&s.mixed, s.mixed_tps),
                "cross_committed" => coord.counter(names::CROSS_COMMITTED),
                "cross_aborted" => coord.counter(names::CROSS_ABORTED),
                "prepare_retries" => coord.counter(names::CROSS_PREPARE_RETRIES),
                "cross_guard_max_nodes" => s.mixed.cross_guard_max_nodes,
                "decision_records" => s.mixed.report.decisions,
                "cross_total_p50_ms" => ms(cp50 / 1e3),
                "cross_total_p95_ms" => ms(cp95 / 1e3),
                "cross_total_p99_ms" => ms(cp99 / 1e3),
                "prepare_p50_us" => us(pp50),
                "prepare_p95_us" => us(pp95),
                "prepare_p99_us" => us(pp99),
                "decide_p50_us" => us(dp50),
                "decide_p95_us" => us(dp95),
                "decide_p99_us" => us(dp99),
            },
            "recovered_ok" => s.recovered_ok,
            "cold_audit_ok" => s.audit_ok,
            "cold_audit_problems" => s.audit_problems,
        }
    });

    let batch_sizes = flush
        .batch_sizes
        .iter()
        .map(|(k, v)| (k.to_string(), Json::from(*v)))
        .collect();
    let json = obj! {
        "env" => env,
        "workload" => obj! {
            "transactions" => jobs.len(),
            "relations" => cfg.rels,
            "universe" => cfg.universe,
            "workers" => cfg.workers,
            "clients" => cfg.clients,
            "seed" => cfg.seed,
            "cache_capacity" => cfg.cache_cap,
            "smoke" => cfg.smoke,
        },
        "guarded_sessions" => obj! {
            "sessions" => cfg.clients,
            "pipeline_window" => PIPELINE_WINDOW,
            "committed" => report.exec.committed,
            "aborted" => report.exec.aborted,
            "failed" => report.exec.failed,
            "conflicts" => report.exec.conflicts,
            "guard_cache_hits" => guard_hits,
            "guard_cache_misses" => guard_misses,
            "statement_shapes" => report.cache.shapes,
            "cache_entries" => report.cache.entries,
            "evictions" => report.cache.evictions,
            "compile_secs" => secs(compile_secs),
            "compile_secs_per_shape" => secs(compile_secs_per_shape),
            "secs" => secs(sessions_secs),
            "commits_per_sec" => tps(sessions_tps),
            "latency_p50_ms" => ms(p50),
            "latency_p95_ms" => ms(p95),
            "latency_p99_ms" => ms(p99),
        },
        "rollback_serial" => obj! {
            "committed" => serial.committed,
            "aborted" => serial.aborted,
            "secs" => secs(serial_secs),
            "commits_per_sec" => tps(serial_tps),
        },
        "persisted" => obj! {
            "committed" => persisted.report.exec.committed,
            "aborted" => persisted.report.exec.aborted,
            "failed" => persisted.report.exec.failed,
            "fsync" => true,
            "secs" => secs(persisted.secs),
            "commits_per_sec" => tps(persisted_tps),
            "vs_memory" => ratio(persisted_vs_memory),
            "wal_writes_per_tx" => Json::fixed(wal_writes_per_tx, 3),
            "wal_writes" => wal_writes,
            "fsyncs" => flush.fsyncs,
            "fsyncs_per_commit" => Json::fixed(fsyncs_per_commit, 6),
            "batch_sizes" => Json::Obj(batch_sizes),
            "latency_p50_ms" => ms(pp50),
            "latency_p95_ms" => ms(pp95),
            "latency_p99_ms" => ms(pp99),
            "recovered_ok" => recovered_ok,
        },
        "networked" => networked_json,
        "scaled" => scaled_json,
        "sharded" => sharded_json,
        "stage_latencies" => obj! {
            "in_memory" => stage_latencies_json(&serving),
            "persisted" => stage_latencies_json(&persisted.serving),
        },
        "speedup" => ratio(speedup),
        "history_bytes_per_tx" => Json::fixed(history_per_tx, 1),
        "constraint_violations" => violations,
        "audit_ok" => verdict.ok(),
        "audit_commits_checked" => verdict.commits_checked,
        "audit_aborts_checked" => verdict.aborts_checked,
        "accepted" => ok,
    }
    .render();
    std::fs::write(&cfg.out, &json).map_err(|e| format!("writing {}: {e}", cfg.out))?;
    println!("speedup (sessions vs serial): {speedup:.2}x -> {}", cfg.out);

    if !enough_commits {
        eprintln!(
            "ACCEPTANCE: need >= 10000 commits, got {}",
            report.exec.committed
        );
    }
    if !beats_baseline {
        eprintln!(
            "ACCEPTANCE: sessions ({sessions_tps:.0}/s) did not beat serial ({serial_tps:.0}/s)"
        );
    }
    if !shape_bound {
        eprintln!(
            "ACCEPTANCE: cache must hold O(statement shapes) entries, got {} entries over {} \
             shapes (menu has {})",
            report.cache.entries,
            report.cache.shapes,
            2 * cfg.rels
        );
    }
    if !persisted_ok {
        eprintln!(
            "ACCEPTANCE: persisted run must recover to its reported state \
             ({} failed, recovery match: {recovered_ok})",
            persisted.report.exec.failed
        );
    }
    if !scaled_ok {
        let s = scaled.as_ref().expect("scaled gate only fails when run");
        eprintln!(
            "ACCEPTANCE: scaled pass must stay footprint-proportional and audit clean \
             ({} failed, {} committed, publish-lock p99 {:.1}µs vs bound {:.1}µs, \
             audit OK: {})",
            s.run.report.exec.failed,
            s.run.report.exec.committed,
            s.lock_p99,
            SCALED_LOCK_P99_BOUND_US,
            s.audit_ok
        );
    }
    if !networked_ok {
        let n = networked
            .as_ref()
            .expect("networked gate only fails when run");
        eprintln!(
            "ACCEPTANCE: networked pass must hold >= {NET_VS_SESSIONS_FLOOR}x of the \
             in-process session rate ({} failed, {} committed, {:.0}/s over the wire \
             vs {:.0}/s in-process = {:.2}x)",
            n.run.failed, n.run.committed, n.tps, sessions_tps, n.vs_sessions
        );
    }
    if !sharded_ok {
        let s = sharded.as_ref().expect("sharded gate only fails when run");
        eprintln!(
            "ACCEPTANCE: sharded pass failed (failures baseline/disjoint/mixed = {}/{}/{}, \
             {} cross commits, scaling {:.2}x vs floor {SHARD_SCALING_FLOOR} \
             (gated: {}), recovery match: {}, cold audit: {} with {} problem(s))",
            s.baseline.failed,
            s.disjoint.failed,
            s.mixed.failed,
            s.mixed.report.coordinator.counter(names::CROSS_COMMITTED),
            s.scaling_efficiency,
            s.scaling_gated,
            s.recovered_ok,
            s.audit_ok,
            s.audit_problems,
        );
    }
    Ok(ok)
}
