//! One workload run: repeated set-up, the measured closed-loop phase,
//! the correctness gates, and — on a traced run — the layer replay.

use crate::drive::{closed_loop, Drive, RoutedSession};
use crate::gen::{Front, Spec, TxGen};
use crate::replay::{layer_replay, AuditLog};
use crate::stats::{median, quantile, ratio};
use crate::sys;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;
use vpdt_eval::{holds, Omega};
use vpdt_logic::Formula;
use vpdt_net::{NetClient, NetOptions, NetServer, ServerHandle};
use vpdt_store::history::{root_hash, state_hash, Event};
use vpdt_store::metrics::names;
use vpdt_store::wal::{self, Record, RecoveryOptions, WalOptions, WalWriter};
use vpdt_store::{
    cold_audit_from, cold_audit_sharded, MetricsSnapshot, ServerReport, ShardedBuilder,
    ShardedStore, StoreBuilder, StoreServer,
};
use vpdt_structure::Database;

/// Equal slices of the measured phase; `cpu_us_per_commit` is the median
/// over them.
const SLICES: usize = 10;

/// A run's command-line settings.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Seeds the initial state and the transaction stream.
    pub seed: u64,
    /// Sets the measured phase's work: it submits
    /// `seconds × Spec::per_second` transactions.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for logs (removed afterwards).
    pub data: PathBuf,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Run {
    /// Transactions submitted in the measured phase.
    pub attempted: u64,
    /// Of those, refused or failed.
    pub failed: u64,
    /// Correctness-gate failures (empty = correct).
    pub problems: Vec<String>,
    /// Metric name → value, end-to-end or per-layer by run kind.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context lines printed before the result.
    pub context: Vec<String>,
}

/// A set-up server, ready for its first measured submit.
enum Live {
    Memory(StoreServer),
    Wire {
        serving: JoinHandle<ServerReport>,
        stop: ServerHandle,
        client: NetClient,
    },
    Sharded(Box<ShardedStore>),
}

struct Setup {
    live: Live,
    /// Registry readings at the end of set-up (one per shard, plus the
    /// coordinator's last on the sharded front).
    before: Vec<MetricsSnapshot>,
    /// Wall seconds the set-up took.
    secs: f64,
    /// Process CPU seconds the set-up took, all threads.
    cpu_s: f64,
    compile_s: f64,
}

/// A durable log, verified and its replay timed.
#[derive(Debug, Default)]
struct Replayed {
    commits: u64,
    recover_cpu_s: f64,
    check_cpu_s: f64,
    log_bytes: u64,
}

impl Replayed {
    /// Recovery plus cold-audit CPU per commit replayed, µs.
    fn cpu_us_per_commit(&self) -> f64 {
        ratio(
            (self.recover_cpu_s + self.check_cpu_s) * 1e6,
            self.commits as f64,
        )
    }
}

/// What tear-down learnt from the servers.
struct Finished {
    /// Serving-window registry deltas (one per shard).
    serving: Vec<MetricsSnapshot>,
    /// Lifetime registries (one per shard, plus the coordinator).
    lifetime: Vec<MetricsSnapshot>,
    /// The coordinator's serving-window delta (sharded front).
    coordinator: Option<MetricsSnapshot>,
    /// Server-side committed count.
    committed: u64,
    durable: Option<Replayed>,
}

/// The persisted fronts keep every log segment, so the genesis replay
/// and the cold audits cover the whole served history.
fn wal_opts() -> WalOptions {
    WalOptions {
        retain_segments: true,
        ..WalOptions::default()
    }
}

fn set_up(spec: Spec, seed: u64, dir: &Path) -> Result<Setup, String> {
    let started = Instant::now();
    let cpu0 = sys::process_cpu_s();
    let initial = spec.initial(seed);
    let alpha = spec.alpha();
    let reps = spec.shape_representatives();
    let e = |e: &dyn std::fmt::Display| format!("{}: set-up failed: {e}", spec.name);
    let (live, before, compile_s) = match spec.front {
        Front::Memory | Front::WireDurable => {
            let mut builder = StoreBuilder::new(initial, alpha)
                .workers(spec.workers)
                .trace_capacity(0)
                .retain_outcomes(false);
            if spec.front == Front::WireDurable {
                builder = builder.persist_with(dir, wal_opts());
            }
            let server = builder.build().map_err(|x| e(&x))?;
            let compiling = Instant::now();
            for p in &reps {
                server.prepare(p).map_err(|x| e(&x))?;
            }
            let compile_s = compiling.elapsed().as_secs_f64();
            let before = vec![server.metrics()];
            let live = if spec.front == Front::Memory {
                Live::Memory(server)
            } else {
                let net = NetServer::bind(server, "127.0.0.1:0", NetOptions::default())
                    .map_err(|x| e(&x))?;
                let stop = net.handle();
                let serving = std::thread::spawn(move || net.serve());
                match NetClient::connect(stop.addr(), "perfbench") {
                    Ok(client) => Live::Wire {
                        serving,
                        stop,
                        client,
                    },
                    Err(x) => {
                        stop.stop();
                        let _ = serving.join();
                        return Err(e(&x));
                    }
                }
            };
            (live, before, compile_s)
        }
        Front::Sharded => {
            let store = ShardedBuilder::new(initial, alpha, spec.shards)
                .workers_per_shard(spec.workers)
                .persist_with(dir, wal_opts())
                .build()
                .map_err(|x| e(&x))?;
            let compiling = Instant::now();
            for p in &reps {
                store.prepare(p).map_err(|x| e(&x))?;
            }
            let compile_s = compiling.elapsed().as_secs_f64();
            let mut before: Vec<_> = (0..store.num_shards())
                .map(|i| store.shard(i).metrics())
                .collect();
            before.push(store.metrics());
            (Live::Sharded(Box::new(store)), before, compile_s)
        }
    };
    Ok(Setup {
        live,
        before,
        secs: started.elapsed().as_secs_f64(),
        cpu_s: sys::process_cpu_s() - cpu0,
        compile_s,
    })
}

/// Stops a discarded set-up's threads.
fn discard(live: Live) {
    match live {
        Live::Memory(server) => drop(server.shutdown()),
        Live::Wire {
            serving,
            stop,
            client,
        } => {
            let _ = client.goodbye();
            stop.stop();
            let _ = serving.join();
        }
        Live::Sharded(store) => drop(store.shutdown()),
    }
}

fn drive(live: &mut Live, gen: &mut TxGen, spec: Spec, total: u64, trace: bool) -> Drive {
    match live {
        Live::Memory(server) => closed_loop(
            &mut server.session(),
            gen,
            spec.window,
            total,
            SLICES,
            trace,
        ),
        Live::Wire { client, .. } => closed_loop(client, gen, spec.window, total, SLICES, trace),
        Live::Sharded(store) => {
            let mut door = RoutedSession {
                store,
                session: store.session(),
            };
            closed_loop(&mut door, gen, spec.window, total, SLICES, trace)
        }
    }
}

/// The root hash the last commit of `events` recorded, if any.
fn last_root(events: &[Event]) -> Option<u64> {
    events.iter().rev().find_map(|e| match e {
        Event::Commit { root_hash, .. } | Event::Cross { root_hash, .. } => Some(*root_hash),
        _ => None,
    })
}

/// Gates one server's final state: `α` holds and the incrementally
/// maintained root equals a from-scratch one.
fn check_final(
    who: &str,
    report: &ServerReport,
    alpha: Option<&Formula>,
    problems: &mut Vec<String>,
) {
    if let Some(alpha) = alpha {
        match holds(&report.final_db, &Omega::empty(), alpha) {
            Ok(true) => {}
            other => problems.push(format!(
                "{who}: α does not hold on the final state: {other:?}"
            )),
        }
    }
    if let Some(recorded) = last_root(&report.events) {
        let fresh = root_hash(&report.final_db);
        if recorded != fresh {
            problems.push(format!(
                "{who}: last commit recorded root {recorded:#x}, final state hashes to {fresh:#x}"
            ));
        }
    }
}

/// Total bytes of write-ahead log segments under `dir`.
fn log_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                log_bytes(&path)
            } else if name.starts_with("wal-") && name.ends_with(".log") {
                entry.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

/// Genesis recovery and cold audit of a single store's log, which must
/// end at `version` with root `root`.
fn verify_log(dir: &Path, version: u64, root: u64, problems: &mut Vec<String>) -> Replayed {
    let omega = Omega::empty();
    let cpu0 = sys::process_cpu_s();
    let recovered = wal::recover(dir, &omega, RecoveryOptions { from_genesis: true });
    let cpu1 = sys::process_cpu_s();
    let Ok(rec) = recovered else {
        problems.push(format!(
            "{}: genesis recovery failed: {:?}",
            dir.display(),
            recovered.err()
        ));
        return Replayed::default();
    };
    if rec.version != version {
        problems.push(format!(
            "{}: recovered version {} != expected {version}",
            dir.display(),
            rec.version
        ));
    }
    if rec.root_hash != root {
        problems.push(format!(
            "{}: recovered root differs from the expected final state's root",
            dir.display()
        ));
    }
    let audit = cold_audit_from(
        &rec.alpha,
        &omega,
        rec.base_version,
        &rec.initial,
        &rec.db,
        &rec.events,
        &rec.templates,
    );
    let cpu2 = sys::process_cpu_s();
    if !audit.ok() {
        problems.push(format!("{}: cold audit failed: {audit}", dir.display()));
    }
    Replayed {
        commits: rec.commits_replayed as u64,
        recover_cpu_s: cpu1 - cpu0,
        check_cpu_s: cpu2 - cpu1,
        log_bytes: log_bytes(dir),
    }
}

/// Writes `log` as a persisted server would — a genesis checkpoint, then
/// every shape and event through the log writer — and verifies it.
fn audit_replay(
    log: &AuditLog,
    alpha: &Formula,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Result<Replayed, String> {
    let (Some(initial), Some(final_db)) = (&log.initial, &log.final_db) else {
        return Err("the layer replay kept no history".into());
    };
    let e = |e: &dyn std::fmt::Display| format!("writing the replay's log: {e}");
    let mut writer = WalWriter::create(dir, wal_opts()).map_err(|x| e(&x))?;
    wal::write_checkpoint(
        dir,
        &wal::Checkpoint {
            offset: 0,
            version: 0,
            next_tx: 0,
            state_hash: state_hash(initial),
            root_hash: root_hash(initial),
            alpha: alpha.clone(),
            schema: initial.schema().clone(),
            db: initial.clone(),
            templates: BTreeMap::new(),
        },
    )
    .map_err(|x| e(&x))?;
    let shapes = log.templates.iter().map(|(id, template)| Record::Shape {
        id: *id,
        template: template.clone(),
    });
    for record in shapes.chain(log.events.iter().cloned().map(Record::Event)) {
        writer.append(&record).map_err(|x| e(&x))?;
    }
    writer.sync().map_err(|x| e(&x))?;
    drop(writer);
    Ok(verify_log(dir, log.version, root_hash(final_db), problems))
}

/// Sharded cold audit, then recovery, checked against the served shards,
/// which committed `commits` transactions.
fn replay_sharded(
    root: &Path,
    reports: &[ServerReport],
    commits: u64,
    problems: &mut Vec<String>,
) -> Replayed {
    let omega = Omega::empty();
    let cpu0 = sys::process_cpu_s();
    match cold_audit_sharded(root, &omega) {
        Ok(audit) if audit.ok() => {}
        Ok(audit) => problems.push(format!("sharded cold audit failed: {:?}", audit.problems)),
        Err(e) => problems.push(format!("sharded cold audit failed: {e}")),
    }
    let cpu1 = sys::process_cpu_s();
    match ShardedBuilder::recover(root).workers_per_shard(1).build() {
        Ok(store) => {
            for (i, report) in reports.iter().enumerate() {
                let snap = store.shard(i).snapshot();
                if snap.version != report.final_version
                    || root_hash(&snap.db) != root_hash(&report.final_db)
                {
                    problems.push(format!("shard {i} recovered a different state"));
                }
            }
            drop(store);
        }
        Err(e) => problems.push(format!("sharded recovery failed: {e}")),
    }
    let cpu2 = sys::process_cpu_s();
    Replayed {
        commits,
        recover_cpu_s: cpu2 - cpu1,
        check_cpu_s: cpu1 - cpu0,
        log_bytes: log_bytes(root),
    }
}

/// The union of the shards' final states over the full schema.
fn union_state(spec: Spec, seed: u64, reports: &[ServerReport]) -> Database {
    let mut db = Database::empty(spec.initial(seed).schema().clone());
    for report in reports {
        for (name, _) in report.final_db.schema().iter() {
            for tuple in report.final_db.rel(name).iter() {
                db.insert(name, tuple.clone());
            }
        }
    }
    db
}

fn finish(
    live: Live,
    before: &[MetricsSnapshot],
    spec: Spec,
    seed: u64,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Finished {
    let alpha = spec.alpha();
    match live {
        Live::Memory(server) => {
            let report = server.shutdown();
            check_final(spec.name, &report, Some(&alpha), problems);
            Finished {
                serving: vec![report.metrics.delta(&before[0])],
                lifetime: vec![report.metrics.clone()],
                coordinator: None,
                committed: report.exec.committed as u64,
                durable: None,
            }
        }
        Live::Wire {
            serving,
            stop,
            client,
        } => {
            if let Err(e) = client.goodbye() {
                problems.push(format!("goodbye failed: {e}"));
            }
            stop.stop();
            let report = serving.join().expect("the serving thread panicked");
            check_final(spec.name, &report, Some(&alpha), problems);
            let durable = verify_log(
                dir,
                report.final_version,
                root_hash(&report.final_db),
                problems,
            );
            Finished {
                serving: vec![report.metrics.delta(&before[0])],
                lifetime: vec![report.metrics.clone()],
                coordinator: None,
                committed: report.exec.committed as u64,
                durable: Some(durable),
            }
        }
        Live::Sharded(store) => {
            let report = store.shutdown();
            for (i, shard) in report.shards.iter().enumerate() {
                check_final(&format!("shard {i}"), shard, None, problems);
            }
            let union = union_state(spec, seed, &report.shards);
            if !matches!(holds(&union, &Omega::empty(), &alpha), Ok(true)) {
                problems.push("α does not hold on the union of the shards' final states".into());
            }
            let coordinator = report
                .coordinator
                .delta(before.last().expect("coordinator"));
            let committed = report
                .shards
                .iter()
                .map(|r| r.exec.committed as u64)
                .sum::<u64>()
                + coordinator.counter(names::CROSS_COMMITTED);
            let durable = replay_sharded(dir, &report.shards, committed, problems);
            let mut lifetime: Vec<_> = report.shards.iter().map(|r| r.metrics.clone()).collect();
            lifetime.push(report.coordinator.clone());
            Finished {
                serving: report
                    .shards
                    .iter()
                    .zip(before)
                    .map(|(r, b)| r.metrics.delta(b))
                    .collect(),
                lifetime,
                committed,
                coordinator: Some(coordinator),
                durable: Some(durable),
            }
        }
    }
}

fn counter(snaps: &[MetricsSnapshot], name: &str) -> f64 {
    snaps.iter().map(|s| s.counter(name) as f64).sum()
}

/// Mean of histogram `name` pooled over `snaps` (0 if never observed).
fn mean(snaps: &[MetricsSnapshot], name: &str) -> f64 {
    let (sum, count) = snaps
        .iter()
        .filter_map(|s| s.histogram(name))
        .fold((0.0, 0.0), |(s, c), h| {
            (s + h.sum as f64, c + h.count as f64)
        });
    ratio(sum, count)
}

/// Runs `spec` once.
pub fn run(spec: Spec, opts: &Opts) -> Result<Run, String> {
    fs::create_dir_all(&opts.data).map_err(|e| format!("creating {:?}: {e}", opts.data))?;
    let mut setup_secs = Vec::new();
    let mut setup_cpu = Vec::new();
    let mut compile_secs = Vec::new();
    // One warm-up set-up, then `spec.setups` measured ones; the last is
    // served.
    let (setup, dir) = {
        let mut made = 0;
        loop {
            let dir = opts.data.join(format!("setup-{made}"));
            let setup = set_up(spec, opts.seed, &dir)?;
            if made > 0 {
                setup_secs.push(setup.secs);
                setup_cpu.push(setup.cpu_s);
                compile_secs.push(setup.compile_s);
            }
            made += 1;
            if made > spec.setups {
                break (setup, dir);
            }
            discard(setup.live);
            let _ = fs::remove_dir_all(&dir);
        }
    };
    let Setup {
        mut live, before, ..
    } = setup;

    let mut gen = TxGen::new(spec, opts.seed);
    let whole = ((opts.seconds * spec.per_second as f64).round() as u64).max(1);
    // A traced run serves half its transactions untraced, then half
    // traced, on the same server: the difference is the tracing overhead.
    let plain = drive(
        &mut live,
        &mut gen,
        spec,
        if opts.trace { whole.div_ceil(2) } else { whole },
        false,
    );
    let traced = opts
        .trace
        .then(|| drive(&mut live, &mut gen, spec, whole / 2, true));
    let peak_rss = sys::peak_rss_mib();

    let mut out = Run::default();
    let phases: Vec<&Drive> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    out.attempted = phases.iter().map(|d| d.attempted).sum();
    out.failed = phases.iter().map(|d| d.failed).sum();
    let client_committed: u64 = phases.iter().map(|d| d.committed).sum();
    let client_aborted: u64 = phases.iter().map(|d| d.aborted).sum();
    let resolved: u64 = phases.iter().map(|d| d.resolved()).sum();
    if resolved != out.attempted {
        out.problems.push(format!(
            "{} of {} submitted transactions never resolved",
            out.attempted - resolved,
            out.attempted
        ));
    }
    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} transactions failed",
            out.failed, out.attempted
        ));
    }

    let fin = finish(live, &before, spec, opts.seed, &dir, &mut out.problems);
    if fin.committed != client_committed {
        out.problems.push(format!(
            "servers counted {} commits, the client saw {client_committed}",
            fin.committed
        ));
    }
    let _ = fs::remove_dir_all(&dir);

    let commits_per_s = ratio(plain.committed as f64, plain.wall.as_secs_f64());
    let mut ack = plain.ack_us.clone();
    let ack_p50 = quantile(&mut ack, 0.50);
    let ack_p90 = quantile(&mut ack, 0.90);
    let setup_wall = median(&mut setup_secs);
    let mut inline: Vec<f64> = phases
        .iter()
        .flat_map(|d| d.inline_ack_us.clone())
        .collect();
    let cross_p50 = median(&mut inline);
    out.context.push(format!(
        "phase: {} attempted back to back in bursts of {}, {} committed, {} aborted in {:.3} s \
         wall ({commits_per_s:.0} commits/s), {:.3} s CPU, {:.3} s stolen; ack p50 {ack_p50:.1} \
         µs, p90 {ack_p90:.1} µs, p99 {:.1} µs over {} samples; {} set-ups after a warm-up, \
         median {setup_wall:.4} s wall",
        plain.attempted,
        spec.window,
        plain.committed,
        plain.aborted,
        plain.wall.as_secs_f64(),
        plain.cpu_s,
        plain.steal_s,
        quantile(&mut ack, 0.99),
        ack.len(),
        setup_secs.len()
    ));
    out.context.push(format!(
        "slices (CPU µs per commit / ack p50 µs / ack p90 µs / steal s): {}",
        plain
            .slices
            .iter()
            .map(|s| {
                let mut ack = s.ack_us.clone();
                format!(
                    "{:.1}/{:.1}/{:.1}/{:.2}",
                    ratio(s.cpu_s * 1e6, s.committed as f64),
                    quantile(&mut ack, 0.5),
                    quantile(&mut ack, 0.9),
                    s.steal_s
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if !inline.is_empty() {
        out.context.push(format!(
            "cross-shard: {} inline 2PC submits, ack p50 {cross_p50:.1} µs",
            inline.len()
        ));
    }
    if let Some(r) = &fin.durable {
        out.context.push(format!(
            "served log: {} commits, recover {:.3} s CPU, check {:.3} s CPU, {:.1} µs CPU per \
             commit",
            r.commits,
            r.recover_cpu_s,
            r.check_cpu_s,
            r.cpu_us_per_commit()
        ));
    }
    let mut sorted_cpu = setup_cpu.clone();
    out.context.push(format!(
        "set-up CPU over {} set-ups: min {:.4} s, median {:.4} s, max {:.4} s",
        sorted_cpu.len(),
        quantile(&mut sorted_cpu, 0.0),
        quantile(&mut sorted_cpu, 0.5),
        quantile(&mut sorted_cpu, 1.0)
    ));
    out.context.push(format!(
        "env: nproc {}, {}, steal {:.3} s over the measured phase",
        sys::nproc(),
        sys::rustc_version(),
        plain.steal_s
    ));
    for (what, path) in [
        ("wal dir", opts.data.as_path()),
        ("repo fs", Path::new(".")),
    ] {
        match sys::fsync_probe_us(path, 20) {
            Ok((p50, p99)) => out.context.push(format!(
                "env: fsync of 4 KiB on the {what} ({}): p50 {p50:.0} µs, p99 {p99:.0} µs",
                sys::fs_type(path)
            )),
            Err(e) => out
                .context
                .push(format!("env: fsync probe on the {what} failed: {e}")),
        }
    }

    let Some(traced) = traced else {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&mut setup_cpu));
        let mut per_slice: Vec<f64> = plain
            .slices
            .iter()
            .map(|s| ratio(s.cpu_s * 1e6, s.committed as f64))
            .collect();
        m.insert("cpu_us_per_commit", median(&mut per_slice));
        m.insert("peak_rss_mib", peak_rss);
        return Ok(out);
    };

    // --- traced run: layer replay and per-layer metrics ----------------
    let replay = layer_replay(spec, opts.seed, out.attempted, spec.audit_commits);
    if replay.failed > 0 {
        out.problems.push(format!(
            "{} replayed transactions failed to prepare, evaluate or run",
            replay.failed
        ));
    }
    let one_ordered_worker = spec.workers == 1 && spec.front != Front::Sharded;
    if one_ordered_worker
        && (replay.committed, replay.aborted) != (client_committed, client_aborted)
    {
        out.problems.push(format!(
            "layer replay drifted from the served run: {}/{} commits/aborts replayed, {}/{} served",
            replay.committed, replay.aborted, client_committed, client_aborted
        ));
    }
    let base_case = {
        let initial = spec.initial(opts.seed);
        let started = Instant::now();
        let ok = holds(&initial, &Omega::empty(), &spec.alpha());
        if !matches!(ok, Ok(true)) {
            out.problems.push("α fails on the initial state".into());
        }
        started.elapsed().as_secs_f64()
    };
    let audit_dir = opts.data.join("audit");
    let audited = audit_replay(
        &replay.audited,
        &spec.alpha(),
        &audit_dir,
        &mut out.problems,
    )?;
    let _ = fs::remove_dir_all(&audit_dir);
    let traced_total = ratio(traced.cpu_s * 1e6, traced.attempted as f64);
    let untraced_total = ratio(plain.cpu_s * 1e6, plain.attempted as f64);
    // The layers the served process ran: the replay times the encoder and
    // the wire codec on every workload, but only a durable front encodes
    // commits and only the wire front runs the codec.
    let served_layers: Vec<&'static str> = replay
        .layers
        .by_name
        .keys()
        .copied()
        .filter(|name| match *name {
            "tx" => false,
            "wal.encode" => spec.front != Front::Memory,
            "net.codec" => spec.front == Front::WireDurable,
            _ => true,
        })
        .collect();
    let layer_sum: f64 = served_layers
        .iter()
        .map(|name| replay.layers.per_tree_us(name))
        .sum();
    let client = traced.spans.as_ref().expect("traced phase records spans");
    let serving = &fin.serving;
    let commits = counter(serving, names::TX_COMMITTED);
    let hits = counter(&fin.lifetime, names::GUARD_CACHE_HITS);
    let misses = counter(&fin.lifetime, names::GUARD_CACHE_MISSES);
    let durable = fin.durable.as_ref();
    let coordinator = fin.coordinator.as_slice();
    let crosses =
        counter(coordinator, names::CROSS_COMMITTED) + counter(coordinator, names::CROSS_ABORTED);
    let net_bytes = counter(serving, vpdt_net::names::NET_BYTES_IN_TOTAL)
        + counter(serving, vpdt_net::names::NET_BYTES_OUT_TOTAL);
    let per_commit = |cpu_s: f64| ratio(cpu_s * 1e6, audited.commits as f64);
    let l = &replay.layers;
    let m = &mut out.metrics;
    m.insert("client.ack_p50_us", ack_p50);
    m.insert("client.ack_p90_us", ack_p90);
    m.insert("setup.wall_s", setup_wall);
    m.insert("guard.prepare_us", l.per_call_us("guard.prepare"));
    m.insert("eval.guard_us", l.per_call_us("eval.guard"));
    m.insert("tx.run_us", l.per_call_us("tx.run"));
    m.insert("snapshot.read_us", l.per_call_us("snapshot.read"));
    m.insert("history.record_us", l.per_tree_us("history.record"));
    m.insert("snapshot.commit_us", l.per_call_us("snapshot.commit"));
    m.insert(
        "snapshot.lock_held_us",
        ratio(
            replay.lock_held.as_secs_f64() * 1e6,
            replay.committed as f64,
        ),
    );
    m.insert(
        "snapshot.conflicts_per_commit",
        ratio(counter(serving, names::TX_CONFLICTS), commits),
    );
    m.insert("exec.queue_wait_us", mean(serving, names::STAGE_QUEUE_WAIT));
    m.insert("session.submit_us", client.per_tree_us("session.submit"));
    m.insert("session.wait_us", client.per_tree_us("session.wait"));
    m.insert("exec.unattributed_us", traced_total - layer_sum);
    m.insert("trace.cpu_us_per_tx", traced_total);
    m.insert("trace.overhead_us_per_tx", traced_total - untraced_total);
    m.insert("guard.hit_ratio", ratio(hits, hits + misses));
    m.insert("core.compile_s", median(&mut compile_secs));
    m.insert("eval.base_case_s", base_case);
    m.insert("wal.encode_us", l.per_call_us("wal.encode"));
    m.insert(
        "wal.fsyncs_per_commit",
        ratio(
            counter(serving, names::WAL_FSYNCS),
            counter(serving, names::WAL_FLUSHED_COMMITS),
        ),
    );
    m.insert(
        "wal.publish_to_durable_us",
        mean(serving, names::STAGE_PUBLISH_TO_DURABLE),
    );
    m.insert(
        "wal.bytes_per_commit",
        durable.map_or(0.0, |r| ratio(r.log_bytes as f64, r.commits as f64)),
    );
    m.insert("net.codec_us", l.per_tree_us("net.codec"));
    m.insert(
        "net.request_us",
        mean(serving, vpdt_net::names::NET_REQUEST_US),
    );
    m.insert("net.bytes_per_tx", ratio(net_bytes, out.attempted as f64));
    m.insert(
        "audit.recover_us_per_commit",
        per_commit(audited.recover_cpu_s),
    );
    m.insert("audit.check_us_per_commit", per_commit(audited.check_cpu_s));
    m.insert(
        "audit.replay_cpu_us_per_commit",
        audited.cpu_us_per_commit(),
    );
    m.insert("shard.cross_ack_p50_us", cross_p50);
    m.insert(
        "shard.cross_guard_prepare_us",
        l.per_call_us("shard.cross_guard_prepare"),
    );
    m.insert(
        "shard.cross_guard_eval_us",
        l.per_call_us("shard.cross_guard_eval"),
    );
    m.insert(
        "shard.cross_prepare_us",
        mean(coordinator, names::CROSS_STAGE_PREPARE),
    );
    m.insert(
        "shard.cross_decide_us",
        mean(coordinator, names::CROSS_STAGE_DECIDE),
    );
    m.insert(
        "shard.prepare_retries_per_cross",
        ratio(counter(coordinator, names::CROSS_PREPARE_RETRIES), crosses),
    );

    out.context.push(format!(
        "layer replay: {} txs ({} commits, {} aborts), {:.1} µs wall per tx; the log of its \
         first {} commits recovered and audited cold in {:.3} s CPU",
        replay.txs,
        replay.committed,
        replay.aborted,
        l.root_per_tree_us(),
        audited.commits,
        audited.recover_cpu_s + audited.check_cpu_s
    ));
    let mut self_times: Vec<String> = served_layers
        .iter()
        .map(|name| format!("{name} {:.2}", l.per_tree_us(name)))
        .collect();
    self_times.push(format!("exec.unattributed {:.2}", traced_total - layer_sum));
    out.context.push(format!(
        "reconcile (µs per tx): {} = {:.2} traced CPU per tx; tracing overhead {:+.2} µs per tx \
         ({untraced_total:.2} untraced)",
        self_times.join(" + "),
        traced_total,
        traced_total - untraced_total
    ));
    let trace_file = opts
        .data
        .with_file_name(format!("trace-{}-seed{}.jsonl", spec.name, opts.seed));
    let mut spans = client.sample_jsonl("client");
    spans.push_str(&l.sample_jsonl("replay"));
    match fs::write(&trace_file, spans) {
        Ok(()) => out
            .context
            .push(format!("spans written to {}", trace_file.display())),
        Err(e) => out.context.push(format!("could not write spans: {e}")),
    }
    Ok(out)
}
