//! `vpdtool` — statically verified transactions from the command line.
//!
//! ```text
//! vpdtool check    --db 'dom:0,1,2;E:0 1,1 2' --formula 'exists x. E(x, x)'
//! vpdtool apply    --db '…' --insert E:1,4 --delete E:0,1
//! vpdtool wpc      --constraint 'forall x y z. E(x,y) & E(x,z) -> y = z' --insert E:1,4
//! vpdtool guard    --db '…' --constraint '…' --insert E:1,4
//! vpdtool preserve --constraint '…' --insert E:1,4 --budget 2000
//! vpdtool store    --workers 4 --clients 8 --txs 200 --rels 4 --universe 6 --seed 42
//! vpdtool store    --persist ./wal            # durable: write-ahead log + checkpoints
//! vpdtool store    --persist ./wal --recover  # resume a persisted store and keep serving
//! vpdtool audit    --log ./wal                # cold audit: recover + replay + verify
//! vpdtool wal gc ./wal                        # delete covered log segments + stale checkpoints
//! vpdtool stats ./wal                         # Prometheus-text metrics from a cold log
//! vpdtool stats --live                        # serve a demo workload, dump live metrics + traces
//! vpdtool serve --addr 127.0.0.1:7712 --persist ./wal   # network front door over a store
//! vpdtool net drive --addr 127.0.0.1:7712     # pipelined remote sessions against a serve
//! vpdtool stats --remote 127.0.0.1:7712       # fetch the metrics exposition over the wire
//! vpdtool net stop 127.0.0.1:7712             # remote shutdown (needs --allow-shutdown)
//! ```
//!
//! Databases use the textual encoding of `Database::encode`
//! (`dom:<ids>;R:<tuples>`); the default schema is the single binary
//! relation `E`, overridable with `--schema 'R:2,S:1'`.

use std::process::ExitCode;
use vpdt::core::prerelations::compile_program;
use vpdt::core::safe::Guarded;
use vpdt::core::verify::{find_preservation_counterexample, PreserveVerdict};
use vpdt::core::wpc::wpc_sentence;
use vpdt::eval::{holds, Omega};
use vpdt::logic::{parse_formula, Schema};
use vpdt::structure::Database;
use vpdt::tx::program::Program;
use vpdt::tx::traits::{Transaction, TxError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vpdtool: {e}");
            eprintln!("run `vpdtool help` for usage");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    db: Option<String>,
    formula: Option<String>,
    constraint: Option<String>,
    schema: Option<String>,
    omega: Option<String>,
    updates: Vec<(bool, String)>, // (is_insert, "R:a,b")
    budget: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        db: None,
        formula: None,
        constraint: None,
        schema: None,
        omega: None,
        updates: Vec::new(),
        budget: 2000,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--db" => o.db = Some(value),
            "--formula" => o.formula = Some(value),
            "--constraint" => o.constraint = Some(value),
            "--schema" => o.schema = Some(value),
            "--omega" => o.omega = Some(value),
            "--insert" => o.updates.push((true, value)),
            "--delete" => o.updates.push((false, value)),
            "--budget" => o.budget = value.parse().map_err(|_| "bad --budget".to_string())?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(o)
}

fn schema_of(o: &Options) -> Result<Schema, String> {
    match &o.schema {
        None => Ok(Schema::graph()),
        Some(s) => {
            let mut rels = Vec::new();
            for part in s.split(',') {
                let (name, arity) = part
                    .split_once(':')
                    .ok_or_else(|| format!("bad schema item {part}"))?;
                let arity: usize = arity.parse().map_err(|_| format!("bad arity in {part}"))?;
                rels.push((name.trim().to_string(), arity));
            }
            Ok(Schema::new(rels))
        }
    }
}

fn omega_of(o: &Options) -> Result<Omega, String> {
    match o.omega.as_deref() {
        None | Some("empty") => Ok(Omega::empty()),
        Some("order") => Ok(Omega::nat_order()),
        Some("arithmetic") => Ok(Omega::arithmetic()),
        Some(other) => Err(format!("unknown omega {other} (empty|order|arithmetic)")),
    }
}

fn database_of(o: &Options, schema: &Schema) -> Result<Database, String> {
    let enc = o.db.as_deref().ok_or("--db is required")?;
    Database::decode(schema.clone(), enc)
}

fn program_of(o: &Options) -> Result<Program, String> {
    if o.updates.is_empty() {
        return Err("at least one --insert/--delete is required".into());
    }
    let mut steps = Vec::new();
    for (is_insert, spec) in &o.updates {
        let (rel, tuple) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad update spec {spec} (want R:a,b)"))?;
        let ids: Result<Vec<u64>, _> = tuple.split(',').map(|x| x.trim().parse::<u64>()).collect();
        let ids = ids.map_err(|_| format!("bad tuple in {spec}"))?;
        steps.push(if *is_insert {
            Program::insert_consts(rel, ids)
        } else {
            Program::delete_consts(rel, ids)
        });
    }
    Ok(Program::seq(steps))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    // `store` and `audit` have their own flag sets; dispatch before the
    // common parser.
    if cmd == "store" {
        return run_store(rest);
    }
    if cmd == "audit" {
        return run_audit(rest);
    }
    if cmd == "wal" {
        return run_wal(rest);
    }
    if cmd == "stats" {
        return run_stats(rest);
    }
    if cmd == "serve" {
        return run_serve(rest);
    }
    if cmd == "net" {
        return run_net(rest);
    }
    let o = parse_options(rest)?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!(
                "vpdtool — statically verified transactions\n\n\
                 commands:\n  \
                 check    --db ENC --formula F [--omega O]      does D ⊨ F hold?\n  \
                 apply    --db ENC --insert R:a,b …             run the updates\n  \
                 wpc      --constraint F --insert R:a,b …       print wpc(T, F)\n  \
                 guard    --db ENC --constraint F --insert …    run `if wpc then T else abort`\n  \
                 preserve --constraint F --insert … [--budget N] bounded Preserve(T, F) check\n  \
                 store    [--workers N] [--clients N] [--txs N] [--rels N] [--universe N] [--seed N]\n           \
                 [--persist DIR] [--recover] [--shards N]\n           \
                 serve a concurrent workload through StoreServer sessions and audit it;\n           \
                 --persist makes it durable (WAL + checkpoints), --recover resumes DIR;\n           \
                 --shards partitions the relations across N shard stores behind a footprint\n           \
                 router (a slice of the workload then commits via cross-shard 2PC)\n  \
                 audit    --log DIR [--omega O]                 cold audit of a persisted store:\n           \
                 recover snapshot + log tail, replay every commit, verify hashes & provenance\n           \
                 (a sharded layout — shard-0/, decisions/ — is detected and cross-checked\n           \
                 against its decision log automatically)\n  \
                 wal gc DIR                                     delete log segments fully covered\n           \
                 by the newest checkpoint, then checkpoint files superseded by it (what a\n           \
                 serving store does at checkpoint time unless WalOptions::retain_segments\n           \
                 opts out)\n  \
                 stats DIR | stats --live [--slow N] | stats --remote ADDR\n           \
                 Prometheus-text metrics exposition: DIR reconstructs counters from a cold\n           \
                 persisted log; --live serves the demo workload through a traced server and\n           \
                 also prints the N slowest transaction timelines (default 5); --remote\n           \
                 fetches the exposition from a running `vpdtool serve` over the wire\n  \
                 serve    --addr HOST:PORT [--persist DIR] [--recover] [--workers N] [--rels N]\n           \
                 [--universe N] [--seed N] [--reactors N] [--allow-shutdown]\n           \
                 resident network front door: accept framed TCP sessions onto a store, each\n           \
                 read and written by one of N reactor threads (default 2), and serve until\n           \
                 killed (or until a client sends Shutdown, with --allow-shutdown)\n  \
                 net drive --addr ADDR [--clients N] [--txs N] [--seed N] [--rels N]\n           \
                 [--universe N] [--window N]\n           \
                 drive pipelined remote sessions against a running serve and report outcomes\n  \
                 net stop ADDR                                  ask a serve to shut down\n           \
                 (requires --allow-shutdown on the server)\n\n\
                 common flags: --schema 'R:2,S:1' (default E:2), --omega empty|order|arithmetic"
            );
            Ok(())
        }
        "check" => {
            let schema = schema_of(&o)?;
            let db = database_of(&o, &schema)?;
            let f = parse_formula(o.formula.as_deref().ok_or("--formula is required")?)
                .map_err(|e| e.to_string())?;
            let omega = omega_of(&o)?;
            let r = holds(&db, &omega, &f).map_err(|e| e.to_string())?;
            println!("{r}");
            Ok(())
        }
        "apply" => {
            let schema = schema_of(&o)?;
            let db = database_of(&o, &schema)?;
            let omega = omega_of(&o)?;
            let pre = compile_program("cli", &program_of(&o)?, &schema, &omega)
                .map_err(|e| e.to_string())?;
            let out = pre.apply(&db).map_err(|e| e.to_string())?;
            println!("{}", out.encode());
            Ok(())
        }
        "wpc" => {
            let schema = schema_of(&o)?;
            let omega = omega_of(&o)?;
            let alpha = parse_formula(o.constraint.as_deref().ok_or("--constraint is required")?)
                .map_err(|e| e.to_string())?;
            let pre = compile_program("cli", &program_of(&o)?, &schema, &omega)
                .map_err(|e| e.to_string())?;
            let w = wpc_sentence(&pre, &alpha).map_err(|e| e.to_string())?;
            println!("{w}");
            eprintln!(
                "# {} AST nodes, quantifier rank {}",
                w.size(),
                w.quantifier_rank()
            );
            Ok(())
        }
        "guard" => {
            let schema = schema_of(&o)?;
            let db = database_of(&o, &schema)?;
            let omega = omega_of(&o)?;
            let alpha = parse_formula(o.constraint.as_deref().ok_or("--constraint is required")?)
                .map_err(|e| e.to_string())?;
            let pre = compile_program("cli", &program_of(&o)?, &schema, &omega)
                .map_err(|e| e.to_string())?;
            let w = wpc_sentence(&pre, &alpha).map_err(|e| e.to_string())?;
            let safe = Guarded::new(pre, w, omega);
            match safe.apply(&db) {
                Ok(out) => {
                    println!("committed: {}", out.encode());
                    Ok(())
                }
                Err(TxError::Aborted(msg)) => {
                    println!("aborted: {msg}");
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            }
        }
        "preserve" => {
            let schema = schema_of(&o)?;
            let omega = omega_of(&o)?;
            let alpha = parse_formula(o.constraint.as_deref().ok_or("--constraint is required")?)
                .map_err(|e| e.to_string())?;
            let pre = compile_program("cli", &program_of(&o)?, &schema, &omega)
                .map_err(|e| e.to_string())?;
            match find_preservation_counterexample(&pre, &alpha, &omega, o.budget)
                .map_err(|e| e.to_string())?
            {
                PreserveVerdict::CounterexampleFound(db) => {
                    println!("NOT preserved; counterexample: {}", db.encode());
                }
                PreserveVerdict::NoCounterexampleWithin { checked } => {
                    println!(
                        "no counterexample among the first {checked} databases \
                         (Preserve is undecidable: this is evidence, not proof — \
                          use `wpc` + guard for a guarantee)"
                    );
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// `vpdtool store`: a self-contained demonstration of the session-oriented
/// guarded store — a resident `StoreServer`, one concurrent session per
/// client, deterministic sharded workload, guard cache, history audit.
/// `--persist DIR` makes the run durable (write-ahead log + checkpoints);
/// `--recover` resumes a previously persisted DIR instead of starting
/// fresh, and the post-run audit then runs *cold*, from the files.
fn run_store(args: &[String]) -> Result<(), String> {
    let mut workers = 4usize;
    let mut clients = 8u64;
    let mut txs = 200usize;
    let mut rels = 4usize;
    let mut universe = 6u64;
    let mut seed = 42u64;
    let mut persist: Option<String> = None;
    let mut recover = false;
    let mut shards = 0usize;
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if flag == "--recover" {
            recover = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            // --threads kept as the historical spelling of --workers
            "--threads" | "--workers" => workers = value.parse().map_err(|_| "bad --workers")?,
            "--clients" => clients = value.parse().map_err(|_| "bad --clients")?,
            "--txs" => txs = value.parse().map_err(|_| "bad --txs")?,
            "--rels" => rels = value.parse().map_err(|_| "bad --rels")?,
            "--universe" => universe = value.parse().map_err(|_| "bad --universe")?,
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--persist" => persist = Some(value.clone()),
            "--shards" => shards = value.parse().map_err(|_| "bad --shards")?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if rels == 0 || universe == 0 {
        return Err("--rels and --universe must be positive".into());
    }
    if recover && persist.is_none() {
        return Err("--recover needs --persist DIR (the directory to resume)".into());
    }
    // A sharded layout is sharded forever: --recover on one re-enters the
    // sharded path whether or not --shards was repeated.
    let recovering_sharded = recover
        && persist
            .as_deref()
            .is_some_and(|d| vpdt::store::is_sharded_layout(std::path::Path::new(d)));
    if shards >= 2 || recovering_sharded {
        return run_store_sharded(
            workers, clients, txs, rels, universe, seed, shards, persist, recover,
        );
    }

    use vpdt::store::{audit, workload, HistorySegment, StoreBuilder};
    let omega = Omega::empty();
    // The fresh in-memory path is the only consumer of α and the genesis
    // state here — a persisted run is audited cold, from its own files.
    // Its history hands each finished tail to `segments`.
    let (sink, segments) = std::sync::mpsc::channel();
    let (server, genesis) = if recover {
        let dir = persist.clone().expect("checked above");
        let server = StoreBuilder::recover(&dir)
            .omega(omega.clone())
            .workers(workers)
            .build()
            .map_err(|e| format!("recovery refused: {e}"))?;
        println!(
            "recovered {dir} at store version {} ({} history events)",
            server.version(),
            server.history_len()
        );
        (server, None)
    } else {
        let alpha = workload::sharded_fd_constraint(rels);
        let initial = workload::sharded_initial(seed, rels, universe, 0.5);
        let builder = StoreBuilder::new(initial.clone(), alpha.clone())
            .omega(omega.clone())
            .workers(workers);
        let builder = match &persist {
            Some(dir) => builder.persist(dir),
            None => builder.history_sink(sink),
        };
        let server = builder
            .build()
            .map_err(|e| format!("server refused to start: {e}"))?;
        (server, Some((alpha, initial)))
    };

    let jobs = workload::sharded_jobs(seed, clients, txs, rels, universe);
    println!(
        "serving {} transactions from {clients} sessions over {rels} relations \
         on {workers} workers{}",
        jobs.len(),
        persist
            .as_deref()
            .map(|d| format!(", write-ahead logged to {d}"))
            .unwrap_or_default()
    );
    let programs = workload::serve_chunked(&server, &jobs, txs);
    let report = server.shutdown();
    println!(
        "committed {} / aborted {} / failed {} at store version {} \
         ({} conflicts retried, guard cache {} hits / {} compiles)",
        report.exec.committed,
        report.exec.aborted,
        report.exec.failed,
        report.final_version,
        report.exec.conflicts,
        report.cache.hits,
        report.cache.misses,
    );
    // A persisted run is audited *cold*, from the files it left behind —
    // that also covers history from before a --recover. In-memory runs
    // audit the live report.
    let verdict = if let Some(dir) = &persist {
        cold_audit_dir(dir, &omega)?
    } else {
        let (alpha, initial) = genesis.expect("fresh unpersisted run");
        // The whole run from genesis: every finished tail, then the last.
        let finished: Vec<HistorySegment> = segments.try_iter().collect();
        let events = report.whole_run(&finished)?;
        println!(
            "history: {} finished tails plus the last, {} events audited from genesis",
            finished.len(),
            events.len()
        );
        audit(
            &alpha,
            &omega,
            &initial,
            &report.final_db,
            &events,
            &programs,
            &report.templates,
        )
    };
    println!("{verdict}");
    if verdict.ok() && report.exec.failed == 0 {
        Ok(())
    } else {
        Err("store run failed verification".into())
    }
}

/// `vpdtool store --shards N`: the horizontal scale-out path. Relations
/// stripe round-robin across N shard stores behind a footprint router;
/// the workload mixes single-relation transactions (each takes its
/// shard's ordinary pipeline) with two-relation ones that commit through
/// the cross-shard two-phase coordinator and its decision log. A
/// persisted run leaves `shard-I/` WALs plus `decisions/`, which the
/// sharded cold audit verifies end to end; `--recover` resumes such a
/// layout (rolling decided-but-unapplied branches forward first).
#[allow(clippy::too_many_arguments)]
fn run_store_sharded(
    workers: usize,
    clients: u64,
    txs: usize,
    rels: usize,
    universe: u64,
    seed: u64,
    shards: usize,
    persist: Option<String>,
    recover: bool,
) -> Result<(), String> {
    use vpdt::store::metrics::names;
    use vpdt::store::{cold_audit_sharded, workload, ShardedBuilder};
    const CROSS_FRACTION: f64 = 0.1;
    let omega = Omega::empty();
    let store = if recover {
        let dir = persist.clone().ok_or("--recover needs --persist DIR")?;
        let store = ShardedBuilder::recover(&dir)
            .omega(omega.clone())
            .workers_per_shard(workers)
            .build()
            .map_err(|e| format!("sharded recovery refused: {e}"))?;
        println!(
            "recovered {dir}: {} shards at versions [{}]",
            store.num_shards(),
            (0..store.num_shards())
                .map(|i| store.shard(i).version().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        store
    } else {
        if rels < shards {
            return Err(format!(
                "--rels {rels} cannot cover --shards {shards}: every shard needs \
                 at least one relation"
            ));
        }
        let alpha = workload::sharded_fd_constraint(rels);
        let initial = workload::sharded_initial(seed, rels, universe, 0.5);
        let mut builder = ShardedBuilder::new(initial, alpha, shards)
            .omega(omega.clone())
            .workers_per_shard(workers);
        if let Some(dir) = &persist {
            builder = builder.persist(dir);
        }
        builder
            .build()
            .map_err(|e| format!("sharded store refused to start: {e}"))?
    };

    let rels = store.schema().iter().count();
    if rels < 2 {
        return Err("a sharded run needs at least two relations".into());
    }
    let jobs = workload::cross_mix_jobs(seed, clients, txs, rels, universe, CROSS_FRACTION);
    println!(
        "serving {} transactions ({:.0}% spanning two shards) from {clients} sessions \
         over {rels} relations on {} shards x {workers} workers{}",
        jobs.len(),
        CROSS_FRACTION * 100.0,
        store.num_shards(),
        persist
            .as_deref()
            .map(|d| format!(", write-ahead logged to {d}"))
            .unwrap_or_default()
    );
    let drive = workload::serve_sharded_chunked(&store, &jobs, txs);
    let report = store.shutdown();
    let committed = report
        .shards
        .iter()
        .map(|s| s.exec.committed)
        .sum::<usize>() as u64
        + report.coordinator.counter(names::CROSS_COMMITTED);
    let aborted = report.shards.iter().map(|s| s.exec.aborted).sum::<usize>() as u64
        + report.coordinator.counter(names::CROSS_ABORTED);
    let failed = report.shards.iter().map(|s| s.exec.failed).sum::<usize>() as u64;
    println!(
        "routed {} single-shard / {} cross-shard ({} errors); committed {committed} / \
         aborted {aborted} / failed {failed}; {} decision ids issued, shard versions [{}]",
        drive.single,
        drive.cross,
        drive.errors,
        report.decisions,
        report
            .shards
            .iter()
            .map(|s| s.final_version.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let audited_ok = if let Some(dir) = &persist {
        let audit = cold_audit_sharded(std::path::Path::new(dir), &omega)
            .map_err(|e| format!("sharded cold audit of {dir} failed to run: {e}"))?;
        println!(
            "sharded cold audit: {} shards, {} decisions, {} cross events, {} problem(s)",
            audit.shards.len(),
            audit.decisions,
            audit.cross_events,
            audit.problems.len()
        );
        for verdict in &audit.shards {
            println!("  {verdict}");
        }
        for problem in &audit.problems {
            println!("  problem: {problem}");
        }
        audit.ok()
    } else {
        println!(
            "in-memory sharded run: full provenance auditing needs --persist DIR \
             (the cold sharded audit cross-checks shard WALs against the decision log)"
        );
        true
    };
    if audited_ok && failed == 0 && drive.errors == 0 {
        Ok(())
    } else {
        Err("sharded store run failed verification".into())
    }
}

/// `vpdtool serve`: the resident network front door. Builds (or
/// recovers) a store exactly like `vpdtool store`, binds the framed TCP
/// protocol in front of it, and serves until the process is killed — or
/// until a client sends `Shutdown`, when `--allow-shutdown` opted in
/// (that's how CI stops it cleanly). On shutdown the store drains and a
/// persisted run leaves artifacts `vpdtool audit` verifies cold.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7712".to_string();
    let mut workers = 4usize;
    let mut rels = 4usize;
    let mut universe = 6u64;
    let mut seed = 42u64;
    let mut persist: Option<String> = None;
    let mut recover = false;
    let mut allow_shutdown = false;
    let mut reactors = 2usize;
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if flag == "--recover" {
            recover = true;
            i += 1;
            continue;
        }
        if flag == "--allow-shutdown" {
            allow_shutdown = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--workers" => workers = value.parse().map_err(|_| "bad --workers")?,
            "--rels" => rels = value.parse().map_err(|_| "bad --rels")?,
            "--universe" => universe = value.parse().map_err(|_| "bad --universe")?,
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--persist" => persist = Some(value.clone()),
            "--reactors" => reactors = value.parse().map_err(|_| "bad --reactors")?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if recover && persist.is_none() {
        return Err("--recover needs --persist DIR (the directory to resume)".into());
    }

    use vpdt::net::{NetOptions, NetServer};
    use vpdt::store::{workload, StoreBuilder};
    let omega = Omega::empty();
    let store = if recover {
        let dir = persist.clone().expect("checked above");
        let server = StoreBuilder::recover(&dir)
            .omega(omega.clone())
            .workers(workers)
            .build()
            .map_err(|e| format!("recovery refused: {e}"))?;
        println!(
            "recovered {dir} at store version {} ({} history events)",
            server.version(),
            server.history_len()
        );
        server
    } else {
        let alpha = workload::sharded_fd_constraint(rels);
        let initial = workload::sharded_initial(seed, rels, universe, 0.5);
        let mut builder = StoreBuilder::new(initial, alpha)
            .omega(omega.clone())
            .workers(workers);
        if let Some(dir) = &persist {
            builder = builder.persist(dir);
        }
        builder
            .build()
            .map_err(|e| format!("server refused to start: {e}"))?
    };

    let net = NetServer::bind(
        store,
        &addr,
        NetOptions {
            allow_remote_shutdown: allow_shutdown,
            reactor_threads: reactors,
            ..NetOptions::default()
        },
    )
    .map_err(|e| format!("bind {addr} failed: {e}"))?;
    println!(
        "serving on {} ({} workers, {} reactors, {} relations over universe {}{}{})",
        net.local_addr(),
        workers,
        reactors.max(1),
        rels,
        universe,
        persist
            .as_deref()
            .map(|d| format!(", write-ahead logged to {d}"))
            .unwrap_or_default(),
        if allow_shutdown {
            ", remote shutdown allowed"
        } else {
            ""
        }
    );
    let report = net.serve();
    println!(
        "front door closed: committed {} / aborted {} / failed {} at store version {} \
         ({} connections served, {} frame errors)",
        report.exec.committed,
        report.exec.aborted,
        report.exec.failed,
        report.final_version,
        report
            .metrics
            .counter(vpdt::net::names::NET_CONNECTIONS_TOTAL),
        report
            .metrics
            .counter(vpdt::net::names::NET_FRAME_ERRORS_TOTAL),
    );
    if report.exec.failed > 0 {
        return Err("transactions failed while serving".into());
    }
    Ok(())
}

/// `vpdtool net`: client-side verbs against a running `vpdtool serve`.
fn run_net(args: &[String]) -> Result<(), String> {
    let (sub, rest) = args
        .split_first()
        .ok_or("net needs a subcommand (drive|stop)")?;
    match sub.as_str() {
        "drive" => run_net_drive(rest),
        "stop" => {
            let [addr] = rest else {
                return Err("net stop takes exactly one argument: the server address".into());
            };
            let client = vpdt::net::NetClient::connect(addr.as_str(), "vpdtool-stop")
                .map_err(|e| format!("connect {addr} failed: {e}"))?;
            client
                .shutdown_server()
                .map_err(|e| format!("shutdown refused: {e}"))?;
            println!("server at {addr} acknowledged shutdown");
            Ok(())
        }
        other => Err(format!("unknown net subcommand {other} (drive|stop)")),
    }
}

/// `vpdtool net drive`: N pipelined remote sessions submitting the same
/// deterministic sharded workload `vpdtool store` serves in-process —
/// the round-trip half of the loopback smoke test.
fn run_net_drive(args: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut clients = 4u64;
    let mut txs = 50usize;
    let mut rels = 4usize;
    let mut universe = 6u64;
    let mut seed = 42u64;
    let mut window = 32usize;
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => addr = Some(value.clone()),
            "--clients" => clients = value.parse().map_err(|_| "bad --clients")?,
            "--txs" => txs = value.parse().map_err(|_| "bad --txs")?,
            "--rels" => rels = value.parse().map_err(|_| "bad --rels")?,
            "--universe" => universe = value.parse().map_err(|_| "bad --universe")?,
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--window" => window = value.parse().map_err(|_| "bad --window")?,
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    let addr = addr.ok_or("--addr HOST:PORT is required")?;
    let window = window.max(1);

    use vpdt::net::{NetClient, WireOutcome};
    use vpdt::store::workload;
    let jobs = workload::sharded_jobs(seed, clients, txs, rels, universe);
    let chunks: Vec<_> = jobs.chunks(txs.max(1)).collect();
    let mut committed = 0usize;
    let mut aborted = 0usize;
    let mut last_root: Option<u64> = None;
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(c, chunk)| {
                let addr = addr.clone();
                scope.spawn(
                    move || -> Result<(usize, usize, u64, Option<u64>), String> {
                        let mut client = NetClient::connect(addr.as_str(), &format!("drive-{c}"))
                            .map_err(|e| format!("connect failed: {e}"))?;
                        let (mut committed, mut aborted) = (0usize, 0usize);
                        let mut top_version = 0u64;
                        let mut top_root: Option<u64> = None;
                        let mut tally = |outcome: WireOutcome| match outcome {
                            WireOutcome::Committed { version, root_hash } => {
                                committed += 1;
                                if version > top_version {
                                    top_version = version;
                                    top_root = root_hash;
                                }
                            }
                            WireOutcome::GuardAborted { .. } | WireOutcome::RolledBack { .. } => {
                                aborted += 1;
                            }
                            WireOutcome::Failed { code, detail } => {
                                eprintln!("drive-{c}: transaction failed [{code}] {detail}");
                            }
                        };
                        for program in *chunk {
                            if client.inflight() >= window {
                                let (_req, _tx, outcome) =
                                    client.next_outcome().map_err(|e| e.to_string())?;
                                tally(outcome);
                            }
                            client.submit(program).map_err(|e| e.to_string())?;
                        }
                        client
                            .sync(|_req, _tx, outcome| tally(outcome))
                            .map_err(|e| e.to_string())?;
                        client.goodbye().map_err(|e| e.to_string())?;
                        Ok((committed, aborted, top_version, top_root))
                    },
                )
            })
            .collect();
        let mut top_version = 0u64;
        for h in handles {
            let (c, a, v, r) = h.join().expect("drive thread")?;
            committed += c;
            aborted += a;
            if v > top_version {
                top_version = v;
                last_root = r;
            }
        }
        Ok(())
    })?;
    // An absent root is typed on the wire (protocol v2): the commit's
    // history segment was retired before write-back. Surface it as such
    // rather than printing a fake zero commitment.
    let root_text = match last_root {
        Some(root) => format!("{root:#018x}"),
        None => "retired before write-back".to_string(),
    };
    println!(
        "drove {} transactions over {} sessions: committed {committed} / aborted {aborted} \
         (latest commitment root {root_text})",
        jobs.len(),
        chunks.len(),
    );
    if committed == 0 {
        return Err("no transaction committed".into());
    }
    Ok(())
}

/// Cold-audits a persisted directory in one pass — every surviving commit
/// replayed once, from the genesis state when the whole log survives,
/// from the floor checkpoint when segment retention has deleted a covered
/// prefix.
fn cold_audit_dir(dir: &str, omega: &Omega) -> Result<vpdt::store::AuditReport, String> {
    let (recovered, verdict) = vpdt::store::cold_audit_dir(dir, omega)
        .map_err(|e| format!("recovery of {dir} failed: {e}"))?;
    println!(
        "cold log {dir}: replayed to version {} (root hash {:#018x}), {} events{}{}",
        recovered.version,
        recovered.root_hash,
        recovered.events.len(),
        if recovered.base_version > 0 {
            format!(
                " (history before version {} retired by segment retention)",
                recovered.base_version
            )
        } else {
            String::new()
        },
        if recovered.torn_bytes > 0 {
            format!(", {} torn tail bytes discarded", recovered.torn_bytes)
        } else {
            String::new()
        }
    );
    Ok(verdict)
}

/// `vpdtool wal gc DIR`: the standalone retention pass — delete every log
/// segment whose records are entirely covered by the newest checkpoint.
/// The same pass a serving store runs at checkpoint time unless
/// `WalOptions::retain_segments` opts out; this command serves logs whose
/// writers retained everything (or that were written before retention
/// existed).
fn run_wal(args: &[String]) -> Result<(), String> {
    use vpdt::store::wal;
    let (sub, rest) = args.split_first().ok_or("wal needs a subcommand (gc)")?;
    if sub != "gc" {
        return Err(format!("unknown wal subcommand {sub} (expected gc)"));
    }
    let [dir] = rest else {
        return Err("wal gc takes exactly one argument: the log directory".into());
    };
    let cks = wal::list_checkpoints(dir).map_err(|e| e.to_string())?;
    let Some((covered, _)) = cks.last() else {
        return Err(format!(
            "{dir} holds no checkpoint; nothing is provably covered"
        ));
    };
    let deleted = wal::gc_segments(dir, *covered).map_err(|e| e.to_string())?;
    for path in &deleted {
        println!("deleted {}", path.display());
    }
    // With covered segments gone, checkpoint files older than recovery's
    // floor are dead weight too.
    let stale = wal::gc_checkpoints(dir).map_err(|e| e.to_string())?;
    for path in &stale {
        println!("deleted {}", path.display());
    }
    println!(
        "{}: {} segment(s) and {} checkpoint file(s) deleted (covered through offset {covered})",
        dir,
        deleted.len(),
        stale.len()
    );
    // The directory must still recover afterwards — cheap insurance that
    // the pass never deletes a segment recovery still needs.
    wal::scan_log(dir).map_err(|e| format!("post-gc scan failed: {e}"))?;
    Ok(())
}

/// `vpdtool stats`: the metrics exposition surface.
///
/// * `stats DIR` — **cold**: recover the persisted log and reconstruct
///   the counters the artifacts can honestly support (commits, version,
///   shapes, checkpoint files). Aborts, retries, and stage timings are
///   not persisted, so they are absent rather than zero; no transaction
///   traces exist cold.
/// * `stats --live [--slow N]` — serve the same deterministic demo
///   workload as `vpdtool store` through a traced in-memory server, then
///   dump its full metrics snapshot plus the N slowest complete
///   transaction timelines.
///
/// Output is Prometheus text exposition (deterministic ordering), so it
/// can be diffed, scraped, or grepped in CI.
fn run_stats(args: &[String]) -> Result<(), String> {
    let mut dir: Option<String> = None;
    let mut live = false;
    let mut remote: Option<String> = None;
    let mut slow = 5usize;
    let mut omega_name: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if flag == "--live" {
            live = true;
            i += 1;
            continue;
        }
        if !flag.starts_with("--") {
            dir = Some(flag.clone());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--slow" => slow = value.parse().map_err(|_| "bad --slow")?,
            "--omega" => omega_name = Some(value.clone()),
            "--remote" => remote = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if let Some(addr) = remote {
        // Remote exposition: one Stats round trip against a running
        // `vpdtool serve`; the server renders its own snapshot.
        let mut client = vpdt::net::NetClient::connect(addr.as_str(), "vpdtool-stats")
            .map_err(|e| format!("connect {addr} failed: {e}"))?;
        let text = client
            .stats()
            .map_err(|e| format!("stats request failed: {e}"))?;
        print!("{text}");
        client.goodbye().map_err(|e| e.to_string())?;
        return Ok(());
    }
    let omega = match omega_name.as_deref() {
        None | Some("empty") => Omega::empty(),
        Some("order") => Omega::nat_order(),
        Some("arithmetic") => Omega::arithmetic(),
        Some(other) => return Err(format!("unknown omega {other} (empty|order|arithmetic)")),
    };
    match (live, dir) {
        (true, _) => run_stats_live(slow),
        (false, Some(dir)) => run_stats_cold(&dir, &omega),
        (false, None) => Err("stats needs a log directory or --live".into()),
    }
}

/// Cold half of [`run_stats`]: counters reconstructed from a recovered
/// persisted directory, rendered as Prometheus text.
fn run_stats_cold(dir: &str, omega: &Omega) -> Result<(), String> {
    use vpdt::store::metrics::names;
    use vpdt::store::wal::{self, RecoveryOptions};
    use vpdt::store::MetricsRegistry;
    let recovered = wal::recover(dir, omega, RecoveryOptions::default())
        .map_err(|e| format!("recovery of {dir} failed: {e}"))?;
    let checkpoints = wal::list_checkpoints(dir).map_err(|e| e.to_string())?;
    let registry = MetricsRegistry::new();
    // Every committed transaction bumped the version by one, so the
    // recovered version *is* the lifetime commit count.
    registry.counter(names::TX_COMMITTED).add(recovered.version);
    registry
        .counter(names::CHECKPOINTS)
        .add(checkpoints.len() as u64);
    registry.gauge(names::VERSION).set(recovered.version);
    registry
        .gauge(names::GUARD_CACHE_SHAPES)
        .set(recovered.templates.len() as u64);
    print!("{}", registry.snapshot().render_prometheus());
    eprintln!(
        "# cold exposition: reconstructed from {dir} ({} commits replayed over the latest \
         checkpoint). Aborts, retries, stage timings, and traces are not persisted — attach \
         to a live server (`StoreServer::metrics`) for those.",
        recovered.commits_replayed
    );
    Ok(())
}

/// Live half of [`run_stats`]: run the deterministic demo workload on a
/// traced in-memory server and dump everything the registry collected.
fn run_stats_live(slow: usize) -> Result<(), String> {
    use vpdt::store::{workload, StoreBuilder};
    let (workers, clients, txs, rels, universe, seed) =
        (4usize, 8u64, 200usize, 4usize, 6u64, 42u64);
    let alpha = workload::sharded_fd_constraint(rels);
    let initial = workload::sharded_initial(seed, rels, universe, 0.5);
    let server = StoreBuilder::new(initial, alpha)
        .omega(Omega::empty())
        .workers(workers)
        .build()
        .map_err(|e| format!("server refused to start: {e}"))?;
    let jobs = workload::sharded_jobs(seed, clients, txs, rels, universe);
    workload::serve_chunked(&server, &jobs, txs);
    let report = server.shutdown();
    print!("{}", report.metrics.render_prometheus());
    if slow > 0 {
        println!();
        println!(
            "# {} slowest traced transactions (of {} requested):",
            report.slowest.len().min(slow),
            slow
        );
        for timeline in report.slowest.iter().take(slow) {
            print!("{}", timeline.render());
        }
    }
    Ok(())
}

/// `vpdtool audit --log DIR`: the cold audit as a standalone command —
/// everything is reconstructed from the persisted artifacts (constraint,
/// schema, initial state, shape templates), every commit is replayed
/// through check-and-rollback, and hashes plus provenance are verified.
/// Ω interpretations are code, not data, so `--omega` selects the same one
/// the original server ran with (default: empty).
fn run_audit(args: &[String]) -> Result<(), String> {
    let mut log: Option<String> = None;
    let mut omega_name: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--log" => log = Some(value.clone()),
            "--omega" => omega_name = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    let dir = log.ok_or("--log DIR is required")?;
    let omega = match omega_name.as_deref() {
        None | Some("empty") => Omega::empty(),
        Some("order") => Omega::nat_order(),
        Some("arithmetic") => Omega::arithmetic(),
        Some(other) => return Err(format!("unknown omega {other} (empty|order|arithmetic)")),
    };
    // A sharded layout (shard-0/, decisions/) audits every shard's log
    // plus the coordinator's decision log; a plain layout audits as one
    // store.
    if vpdt::store::is_sharded_layout(std::path::Path::new(&dir)) {
        let audit = vpdt::store::cold_audit_sharded(std::path::Path::new(&dir), &omega)
            .map_err(|e| format!("sharded cold audit of {dir} failed to run: {e}"))?;
        println!(
            "sharded layout {dir}: {} shards, {} decisions, {} cross events, {} problem(s)",
            audit.shards.len(),
            audit.decisions,
            audit.cross_events,
            audit.problems.len()
        );
        for verdict in &audit.shards {
            println!("  {verdict}");
        }
        for problem in &audit.problems {
            println!("  problem: {problem}");
        }
        return if audit.ok() {
            Ok(())
        } else {
            Err("sharded cold audit failed".into())
        };
    }
    let verdict = cold_audit_dir(&dir, &omega)?;
    println!("{verdict}");
    if verdict.ok() {
        Ok(())
    } else {
        Err("cold audit failed".into())
    }
}
