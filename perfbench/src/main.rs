//! `perfbench` — the guarded store's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process per workload run: repeated set-up, a closed-loop measured
//! phase driven through the public front doors by one load thread, then
//! correctness gates. `--seconds` fixes the work: the phase submits that
//! many seconds' worth of the workload's transactions, back to back.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` serves half the
//! transactions untraced and half with client spans, replays the stream
//! layer by layer, audits a prefix of the replay's log cold, and prints
//! the per-layer metrics. The last
//! line of standard output is one JSON object; the exit code is non-zero
//! when any correctness gate fails. See `perfbench/NOTES.md`.

mod drive;
mod gen;
mod replay;
mod span;
mod stats;
mod sys;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Lower is better for all of them.
/// Only metrics that hypervisor steal does not move are here; wall-clock
/// latencies and throughput are printed for context (see NOTES.md).
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("cpu_us_per_commit", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics in the traced run's result — each measured on every
/// workload: name, unit, whether higher is better, and the metric and
/// workload it should move (empty: a wall-clock reading printed for
/// context, which hypervisor steal moves as much as code).
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, bool, &str, &str); 29] = [
    ("client.ack_p50_us", "us", false, "", "all"),
    ("client.ack_p90_us", "us", false, "", "all"),
    ("setup.wall_s", "s", false, "", "all"),
    ("guard.prepare_us", "us", false, "cpu_us_per_commit", "hot_mem"),
    ("eval.guard_us", "us", false, "cpu_us_per_commit", "wide_mem"),
    ("tx.run_us", "us", false, "cpu_us_per_commit", "wide_mem"),
    ("snapshot.read_us", "us", false, "cpu_us_per_commit", "hot_mem"),
    ("history.record_us", "us", false, "cpu_us_per_commit", "hot_mem"),
    ("snapshot.commit_us", "us", false, "client.ack_p50_us", "hot_mem, wide_mem"),
    ("snapshot.lock_held_us", "us", false, "client.ack_p50_us", "hot_mem, wide_mem"),
    ("snapshot.conflicts_per_commit", "count", false, "cpu_us_per_commit", "wide_mem"),
    ("exec.queue_wait_us", "us", false, "client.ack_p50_us", "hot_mem"),
    ("session.submit_us", "us", false, "client.ack_p50_us", "hot_mem"),
    ("session.wait_us", "us", false, "client.ack_p50_us", "hot_mem"),
    ("exec.unattributed_us", "us", false, "cpu_us_per_commit", "hot_mem"),
    ("trace.cpu_us_per_tx", "us", false, "cpu_us_per_commit", "all"),
    ("trace.overhead_us_per_tx", "us", false, "cpu_us_per_commit", "all"),
    ("guard.hit_ratio", "ratio", true, "setup_s", "wide_mem, cross_shard"),
    ("core.compile_s", "s", false, "setup_s", "wide_mem, cross_shard"),
    ("eval.base_case_s", "s", false, "setup_s", "wide_mem"),
    ("wal.encode_us", "us", false, "cpu_us_per_commit", "wire_durable"),
    ("wal.fsyncs_per_commit", "count", false, "client.ack_p50_us", "wire_durable"),
    ("wal.bytes_per_commit", "bytes", false, "client.ack_p50_us", "wire_durable"),
    ("net.codec_us", "us", false, "cpu_us_per_commit", "wire_durable"),
    ("net.bytes_per_tx", "bytes", false, "client.ack_p50_us", "wire_durable"),
    ("shard.prepare_retries_per_cross", "count", false, "shard.cross_ack_p50_us", "cross_shard"),
    ("audit.recover_us_per_commit", "us", false, "audit.replay_cpu_us_per_commit", "all"),
    ("audit.check_us_per_commit", "us", false, "audit.replay_cpu_us_per_commit", "all"),
    ("audit.replay_cpu_us_per_commit", "us", false, "the cost of cold verification", "all"),
];

/// Timings of layers only some workloads exercise: printed by name in the
/// traced run (name, unit, the metric it should move, the workloads that
/// exercise it) but kept out of the result, where an unexercised layer
/// would read 0 on every run.
#[rustfmt::skip]
const WORKLOAD_SPECIFIC: [(&str, &str, &str, &str); 7] = [
    ("wal.publish_to_durable_us", "us", "client.ack_p50_us", "wire_durable, cross_shard"),
    ("net.request_us", "us", "client.ack_p50_us", "wire_durable"),
    ("shard.cross_ack_p50_us", "us", "cpu_us_per_commit", "cross_shard"),
    ("shard.cross_guard_prepare_us", "us", "shard.cross_ack_p50_us", "cross_shard"),
    ("shard.cross_guard_eval_us", "us", "shard.cross_ack_p50_us", "cross_shard"),
    ("shard.cross_prepare_us", "us", "shard.cross_ack_p50_us", "cross_shard"),
    ("shard.cross_decide_us", "us", "shard.cross_ack_p50_us", "cross_shard"),
];

struct Args {
    workload: gen::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = gen::WORKLOADS.iter().map(|s| s.name).collect();
                workload = Some(gen::spec(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME [--seed N] [--seconds S] \
                 [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let data =
        PathBuf::from(".perfbench").join(format!("{}-{}", args.workload.name, std::process::id()));
    let opts = workloads::Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data: data.clone(),
    };
    let result = workloads::run(args.workload, &opts);
    let _ = std::fs::remove_dir_all(&data);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    for line in &run.context {
        println!("{line}");
    }
    let mut metrics = String::new();
    if args.trace {
        for (name, unit, higher, moves, on) in PER_LAYER {
            let value = run.metrics.get(name).copied().unwrap_or(0.0);
            let better = if higher { "higher" } else { "lower" };
            if moves.is_empty() {
                println!("{name} = {value:.4} {unit} ({better} is better; wall-clock context)");
            } else {
                println!(
                    "{name} = {value:.4} {unit} ({better} is better; should move {moves} on {on})"
                );
            }
            push_metric(&mut metrics, name, value, unit);
        }
        for (name, unit, moves, on) in WORKLOAD_SPECIFIC {
            let value = run.metrics.get(name).copied().unwrap_or(0.0);
            println!(
                "{name} = {value:.4} {unit} (lower is better; should move {moves} on {on}; \
                 printed only)"
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = run.metrics[name];
            println!("{name} = {value:.4} {unit}");
            push_metric(&mut metrics, name, value, unit);
        }
    }
    for problem in &run.problems {
        println!("CORRECTNESS: {problem}");
    }
    let correct = run.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.attempted, run.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn push_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}
