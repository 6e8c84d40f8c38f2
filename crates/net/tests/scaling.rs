//! Connection-scaling tests for the multiplexed front door: thread
//! cost must be O(pool), not O(connections); responses must be FIFO
//! per connection for *every* request kind; idle connections dying
//! mid-serve must never cost an acknowledged commit; a peer that stops
//! reading must stall no other connection; and an idle server must
//! sleep, not sweep.
//!
//! The thread-count and wake-up assertions read `/proc/self`, so this
//! suite is Linux-only; the tests serialize on a process-local gate
//! because a concurrent test's server pool would pollute the count.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vpdt_net::{
    names, FramePoll, FrameReader, NetClient, NetOptions, NetServer, Request, Response,
    WireOutcome, PROTOCOL_VERSION,
};
use vpdt_store::{workload, StoreBuilder, WalOptions};
use vpdt_tx::program::Program;

const RELS: usize = 3;
const UNIVERSE: u64 = 4;

/// Thread-count measurements are process-wide: run these tests one at
/// a time.
static GATE: Mutex<()> = Mutex::new(());

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-scaling-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    persist: Option<&std::path::Path>,
    opts: NetOptions,
) -> (
    vpdt_net::ServerHandle,
    std::thread::JoinHandle<vpdt_store::ServerReport>,
) {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(11, RELS, UNIVERSE, 0.5);
    let mut builder = StoreBuilder::new(initial, alpha).workers(2);
    if let Some(dir) = persist {
        builder = builder.persist_with(
            dir,
            WalOptions {
                fsync_commits: false,
                ..WalOptions::default()
            },
        );
    }
    let store = builder.build().expect("server starts");
    let net = NetServer::bind(store, "127.0.0.1:0", opts).expect("binds loopback");
    let handle = net.handle();
    let thread = std::thread::spawn(move || net.serve());
    (handle, thread)
}

fn programs(seed: u64, n: usize) -> Vec<Program> {
    workload::sharded_jobs(seed, 1, n, RELS, UNIVERSE)
}

/// The `Threads:` field of `/proc/self/status` — every OS thread in
/// this process, the in-process server's pools included.
fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads field")
}

/// 128 idle connections plus 8 active pipelined clients must not grow
/// the process thread count: connections are multiplexed over the
/// fixed reactor pool, not given threads of their own.
#[test]
fn idle_connections_cost_no_threads() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, thread) = spawn_server(None, NetOptions::default());
    let addr = handle.addr();

    // Baseline after the server (accept loop + pools + store workers)
    // is fully up: one welcome round trip proves the pools are serving.
    let mut probe = NetClient::connect(addr, "probe").expect("connects");
    let baseline = thread_count();

    let mut idle = Vec::new();
    for i in 0..128 {
        idle.push(NetClient::connect(addr, &format!("idle-{i}")).expect("idle connects"));
    }
    let mut active: Vec<NetClient> = (0..8)
        .map(|i| NetClient::connect(addr, &format!("active-{i}")).expect("active connects"))
        .collect();
    // Pipeline a window on every active client before draining any —
    // 8 clients × 12 in-flight transactions at peak. Submits are queued
    // until the client waits, so flush each window onto the wire.
    for (i, client) in active.iter_mut().enumerate() {
        for p in programs(20 + i as u64, 12) {
            client.submit(&p).expect("pipelined submit");
        }
        client.flush().expect("window sent");
    }
    let during = thread_count();
    assert!(
        during.saturating_sub(baseline) <= 4,
        "136 connections must ride the fixed pools: \
         baseline {baseline} threads, with connections {during}"
    );

    let mut committed = 0usize;
    for client in active.iter_mut() {
        client
            .sync(|_req, _tx, outcome| {
                if outcome.is_committed() {
                    committed += 1;
                }
            })
            .expect("active barrier");
    }
    assert!(committed > 0, "active clients commit while idles sit");

    // The pool gauges are live on the remote exposition.
    let stats = probe.stats().expect("remote stats");
    for name in [
        names::NET_REACTOR_THREADS,
        names::NET_OUTBOX_PENDING,
        names::NET_CONNECTIONS,
    ] {
        assert!(stats.contains(name), "exposition carries {name}");
    }

    for client in active {
        client.goodbye().expect("orderly close");
    }
    for client in idle {
        client.goodbye().expect("orderly close");
    }
    probe.goodbye().expect("orderly close");
    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(report.metrics.gauge(names::NET_CONNECTIONS), 0);
    assert_eq!(report.metrics.gauge(names::NET_OUTBOX_PENDING), 0);
    assert_eq!(report.metrics.counter(names::NET_CONNECTIONS_TOTAL), 137);
}

/// Raw-frame helper: writes one request.
fn send_request(stream: &mut TcpStream, req: &Request) {
    let mut payload = Vec::new();
    req.encode(&mut payload);
    vpdt_net::frame::write_frame(stream, &payload).expect("request frame");
}

/// Responses must come back in request order for *every* request kind:
/// a `Stats` or `Wait` pipelined between submits lands exactly at its
/// slot, never before an earlier submit's outcome. (The stock client
/// forbids interleaving, so this drives raw frames.)
#[test]
fn interleaved_kinds_answer_in_request_order() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, thread) = spawn_server(None, NetOptions::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut reader = FrameReader::new();

    send_request(
        &mut stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            client: "interleave".into(),
        },
    );
    // One pipelined burst, no reads in between: the server alone
    // enforces the ordering.
    let batch = programs(31, 3);
    send_request(
        &mut stream,
        &Request::Submit {
            request_id: 101,
            program: batch[0].clone(),
        },
    );
    send_request(&mut stream, &Request::Stats);
    send_request(
        &mut stream,
        &Request::Submit {
            request_id: 102,
            program: batch[1].clone(),
        },
    );
    send_request(&mut stream, &Request::Wait);
    send_request(
        &mut stream,
        &Request::Submit {
            request_id: 103,
            program: batch[2].clone(),
        },
    );
    send_request(&mut stream, &Request::Goodbye);
    stream.flush().expect("burst flushed");

    let mut kinds = Vec::new();
    let mut submit_ids = Vec::new();
    loop {
        match reader.poll(&mut stream).expect("response stream") {
            FramePoll::Frame(p) => {
                let resp = Response::decode(&p).expect("response decodes");
                kinds.push(match &resp {
                    Response::Welcome { .. } => "welcome",
                    Response::Outcome { request_id, .. } => {
                        submit_ids.push(*request_id);
                        "outcome"
                    }
                    Response::Synced { .. } => "synced",
                    Response::StatsText { text } => {
                        assert!(text.contains(names::NET_CONNECTIONS));
                        "stats"
                    }
                    Response::CheckpointDone { .. } => "checkpoint",
                    Response::Bye => "bye",
                    Response::Error { .. } => "error",
                });
            }
            FramePoll::Eof => break,
            FramePoll::Pending => {}
        }
    }
    assert_eq!(
        kinds,
        vec!["welcome", "outcome", "stats", "outcome", "synced", "outcome", "bye"],
        "every response lands at its request's slot"
    );
    assert_eq!(submit_ids, vec![101, 102, 103]);

    handle.stop();
    thread.join().expect("serve thread");
}

/// Idle connections killed mid-serve (sockets dropped, no goodbye) are
/// invisible to durability: every (version, root) pair acknowledged to
/// a surviving client is present after cold recovery.
#[test]
fn killing_idle_connections_loses_no_acked_commit() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("idle-kill");
    let (handle, thread) = spawn_server(Some(&dir), NetOptions::default());
    let addr = handle.addr();

    let mut idle = Vec::new();
    for i in 0..64 {
        idle.push(NetClient::connect(addr, &format!("doomed-idle-{i}")).expect("connects"));
    }

    let mut survivor = NetClient::connect(addr, "survivor").expect("connects");
    let mut acknowledged = Vec::new();
    let mut tally = |outcome: WireOutcome| {
        if let WireOutcome::Committed { version, root_hash } = outcome {
            let root = root_hash.expect("live server still holds the commitment");
            acknowledged.push((version, root));
        }
    };
    let batch = programs(43, 40);
    for (i, p) in batch.iter().enumerate() {
        survivor.submit(p).expect("pipelined submit");
        if i == batch.len() / 2 {
            // Mid-pipeline: the whole idle fleet dies at once, without
            // goodbyes — as a mass client crash would.
            idle.clear();
        }
        if survivor.inflight() >= 16 {
            let (_req, _tx, outcome) = survivor.next_outcome().expect("acked outcome");
            tally(outcome);
        }
    }
    survivor
        .sync(|_req, _tx, outcome| tally(outcome))
        .expect("barrier");
    survivor.goodbye().expect("orderly close");
    assert!(!acknowledged.is_empty(), "the survivor saw commits");

    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(report.metrics.gauge(names::NET_CONNECTIONS), 0);

    let recovered = StoreBuilder::recover(&dir).build().expect("recovers");
    for (version, root) in &acknowledged {
        assert_eq!(
            recovered.commit_root(*version),
            Some(*root),
            "acked commit at version {version} must survive recovery"
        );
    }
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two peers pipeline a Hello and 20,000 `Stats` each and never read a
/// response, so their sockets fill and their responses wait. Only their
/// own connections may wait: a third client connects and commits within
/// seconds, not after the write timeout.
#[test]
fn a_peer_that_stops_reading_stalls_no_other_connection() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, thread) = spawn_server(None, NetOptions::default());
    let mut requests = vec![Request::Hello {
        version: PROTOCOL_VERSION,
        client: "never-reads".into(),
    }];
    requests.extend(std::iter::repeat_n(Request::Stats, 20_000));
    let mut stalled = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        // Bounded, so a server that stops reading fails the test below
        // instead of hanging it here.
        stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .expect("write timeout");
        for req in &requests {
            send_request(&mut stream, req);
        }
        stalled.push(stream);
    }
    std::thread::sleep(Duration::from_secs(3));

    let started = Instant::now();
    let mut bystander = NetClient::connect(handle.addr(), "bystander").expect("connects");
    bystander
        .submit_sync(&programs(53, 1)[0])
        .expect("round trip");
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "a connect and one commit took {took:?} beside two peers that stopped reading"
    );

    bystander.goodbye().expect("orderly close");
    drop(stalled);
    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(report.metrics.gauge(names::NET_CONNECTIONS), 0);
    assert_eq!(report.metrics.gauge(names::NET_OUTBOX_PENDING), 0);
}

/// Voluntary context switches of this process's front-door threads
/// (named `vpdt-net-*`), and how many such threads there are.
fn net_thread_switches() -> (u64, usize) {
    let (mut switches, mut threads) = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let Ok(status) = std::fs::read_to_string(task.expect("task entry").path().join("status"))
        else {
            continue; // the thread exited meanwhile
        };
        let field = |name: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .map(str::trim)
        };
        if field("Name:").is_some_and(|n| n.starts_with("vpdt-net-")) {
            threads += 1;
            switches += field("voluntary_ctxt_switches:")
                .and_then(|v| v.parse::<u64>().ok())
                .expect("voluntary_ctxt_switches field");
        }
    }
    (switches, threads)
}

/// With one connection open and no traffic, the accept loop and the
/// reactors block in `poll` until there is work: over half a second
/// they wake (nearly) never, where a sweeping front door wakes
/// hundreds of times.
#[test]
fn an_idle_server_sleeps() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(11, RELS, UNIVERSE, 0.5);
    let store = StoreBuilder::new(initial, alpha)
        .workers(2)
        .build()
        .expect("server starts");
    let net = NetServer::bind(store, "127.0.0.1:0", NetOptions::default()).expect("binds");
    let handle = net.handle();
    // The accept loop runs on the thread that calls `serve`: name it
    // like the reactors, so the count covers it too.
    let thread = std::thread::Builder::new()
        .name("vpdt-net-serve".into())
        .spawn(move || net.serve())
        .expect("serve thread");

    let mut client = NetClient::connect(handle.addr(), "idle").expect("connects");
    client.submit_sync(&programs(61, 1)[0]).expect("round trip");
    std::thread::sleep(Duration::from_millis(100));
    let (before, threads) = net_thread_switches();
    std::thread::sleep(Duration::from_millis(500));
    let (after, _) = net_thread_switches();
    assert!(
        after - before <= 5,
        "an idle front door woke {} times in 500 ms",
        after - before
    );
    assert_eq!(
        threads,
        1 + NetOptions::default().reactor_threads,
        "the accept thread and every reactor carry a vpdt-net- name"
    );

    client.goodbye().expect("orderly close");
    handle.stop();
    thread.join().expect("serve thread");
}
