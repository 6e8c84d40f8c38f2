//! Loopback integration tests: real TCP connections against a resident
//! [`NetServer`], covering the happy path, the pipelined window mode,
//! and — in the WAL crash-harness style — every way a hostile or dying
//! peer can damage a frame, asserting typed errors, clean per-connection
//! teardown, and an unpoisoned server that keeps serving other clients.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use vpdt_net::{
    names, FramePoll, FrameReader, NetClient, NetOptions, NetServer, Request, Response,
    WireOutcome, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use vpdt_store::{workload, StoreBuilder};
use vpdt_tx::program::Program;

const RELS: usize = 3;
const UNIVERSE: u64 = 4;

fn tmp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vpdt-net-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An in-memory store behind a loopback front door, plus its handle and
/// serving thread.
fn spawn_server(
    persist: Option<&std::path::Path>,
    allow_remote_shutdown: bool,
) -> (
    vpdt_net::ServerHandle,
    std::thread::JoinHandle<vpdt_store::ServerReport>,
) {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(11, RELS, UNIVERSE, 0.5);
    let mut builder = StoreBuilder::new(initial, alpha).workers(2);
    if let Some(dir) = persist {
        builder = builder.persist(dir);
    }
    let store = builder.build().expect("server starts");
    let net = NetServer::bind(
        store,
        "127.0.0.1:0",
        NetOptions {
            allow_remote_shutdown,
            ..NetOptions::default()
        },
    )
    .expect("binds loopback");
    let handle = net.handle();
    let thread = std::thread::spawn(move || net.serve());
    (handle, thread)
}

/// A deterministic mixed workload (inserts and deletes under the FD
/// constraint — some commit, some guard-abort).
fn programs(seed: u64, n: usize) -> Vec<Program> {
    workload::sharded_jobs(seed, 1, n, RELS, UNIVERSE)
}

/// A reactor queues every submission for the store's workers, even on
/// an in-memory store where a session's `submit` could run it in place:
/// one slow transaction would stall every connection the reactor serves.
#[test]
fn reactors_never_execute_transactions() {
    let (handle, thread) = spawn_server(None, false);
    let mut client = NetClient::connect(handle.addr(), "queued").expect("connects");
    for p in programs(9, 20) {
        client.submit_sync(&p).expect("round trip");
    }
    client.goodbye().expect("orderly close");
    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(report.metrics.counter("store_tx_submitted_total"), 20);
    assert_eq!(report.metrics.counter("store_tx_inline_total"), 0);
}

#[test]
fn sync_round_trips_carry_version_and_root_hash() {
    let (handle, thread) = spawn_server(None, false);
    let mut client = NetClient::connect(handle.addr(), "sync-test").expect("connects");
    let mut last_version = 0;
    let mut commits = 0;
    for p in programs(5, 40) {
        match client.submit_sync(&p).expect("round trip") {
            WireOutcome::Committed { version, root_hash } => {
                assert!(version > last_version, "versions are monotone");
                let root = root_hash.expect("live server still holds the commitment");
                assert_ne!(root, 0, "commit carries its state commitment");
                last_version = version;
                commits += 1;
            }
            WireOutcome::GuardAborted { .. } | WireOutcome::RolledBack { .. } => {}
            WireOutcome::Failed { code, detail } => panic!("unexpected failure [{code}] {detail}"),
        }
    }
    assert!(commits > 0, "workload commits at least once");

    let stats = client.stats().expect("remote stats");
    assert!(
        stats.contains(names::NET_CONNECTIONS),
        "remote exposition includes front-door metrics"
    );
    assert!(stats.contains("store_tx_committed_total"));

    client.goodbye().expect("orderly close");
    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(report.exec.committed, commits);
    assert_eq!(report.metrics.gauge(names::NET_CONNECTIONS), 0);
    assert_eq!(report.metrics.counter(names::NET_CONNECTIONS_TOTAL), 1);
    assert!(report.metrics.counter(names::NET_BYTES_IN_TOTAL) > 0);
    assert!(report.metrics.counter(names::NET_BYTES_OUT_TOTAL) > 0);
    assert_eq!(report.metrics.counter(names::NET_FRAME_ERRORS_TOTAL), 0);
}

#[test]
fn pipelined_window_preserves_submission_order() {
    let (handle, thread) = spawn_server(None, false);
    let mut client = NetClient::connect(handle.addr(), "pipeline-test").expect("connects");
    let batch = programs(7, 64);
    const WINDOW: usize = 16;
    let mut expected_next = Vec::new();
    let mut seen = Vec::new();
    for p in &batch {
        if client.inflight() >= WINDOW {
            let (request_id, _tx, _outcome) = client.next_outcome().expect("windowed outcome");
            seen.push(request_id);
        }
        expected_next.push(client.submit(p).expect("pipelined submit"));
    }
    let synced_at = client
        .sync(|request_id, _tx, _outcome| seen.push(request_id))
        .expect("barrier");
    assert!(synced_at > 0);
    assert_eq!(seen, expected_next, "outcomes arrive in submission order");
    assert_eq!(client.inflight(), 0);
    client.goodbye().expect("orderly close");
    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(
        report
            .metrics
            .counter(&format!("{}{{kind=\"submit\"}}", names::NET_REQUESTS_TOTAL)),
        batch.len() as u64
    );
}

/// Drives one raw (client-side) exchange: optional good hello, then the
/// damaged bytes, then reads whatever typed error the server answers.
/// Returns the codes of every `Error` response received before the
/// server closed the connection.
fn raw_exchange(addr: std::net::SocketAddr, hello_first: bool, damage: &[u8]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut reader = FrameReader::new();
    if hello_first {
        let mut payload = Vec::new();
        Request::Hello {
            version: PROTOCOL_VERSION,
            client: "raw".into(),
        }
        .encode(&mut payload);
        vpdt_net::frame::write_frame(&mut stream, &payload).expect("hello frame");
        match reader.poll(&mut stream).expect("welcome") {
            FramePoll::Frame(p) => {
                assert!(matches!(
                    Response::decode(&p).expect("welcome decodes"),
                    Response::Welcome { .. }
                ));
            }
            other => panic!("expected Welcome, got {other:?}"),
        }
    }
    stream.write_all(damage).expect("writes damage");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut codes = Vec::new();
    loop {
        match reader.poll(&mut stream) {
            Ok(FramePoll::Frame(p)) => {
                if let Ok(Response::Error { code, .. }) = Response::decode(&p) {
                    codes.push(code);
                }
            }
            Ok(FramePoll::Eof) | Err(_) => break,
            Ok(FramePoll::Pending) => {}
        }
    }
    codes
}

/// Frames `payload` by hand so the checksum/length can be damaged.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    vpdt_net::frame::write_frame(&mut out, payload).expect("vec write");
    out
}

#[test]
fn damaged_frames_get_typed_errors_and_never_poison_the_server() {
    let (handle, thread) = spawn_server(None, false);
    let addr = handle.addr();

    let mut submit_payload = Vec::new();
    Request::Submit {
        request_id: 1,
        program: programs(3, 1).remove(0),
    }
    .encode(&mut submit_payload);
    let good = framed(&submit_payload);

    // Version mismatch in the hello.
    let mut bad_hello = Vec::new();
    Request::Hello {
        version: PROTOCOL_VERSION + 9,
        client: "from the future".into(),
    }
    .encode(&mut bad_hello);
    assert_eq!(
        raw_exchange(addr, false, &framed(&bad_hello)),
        vec!["version_mismatch"]
    );

    // Anything but hello first.
    assert_eq!(raw_exchange(addr, false, &good), vec!["protocol"]);

    // Checksum damage: flip a payload byte after the handshake.
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    assert_eq!(raw_exchange(addr, true, &corrupt), vec!["corrupt"]);

    // Oversized length prefix, rejected from the header alone.
    let mut oversized = ((MAX_FRAME_LEN + 1).to_le_bytes()).to_vec();
    oversized.extend_from_slice(&[0u8; 8]);
    assert_eq!(raw_exchange(addr, true, &oversized), vec!["oversized"]);

    // Truncation at every boundary of a valid frame: the peer dies
    // mid-frame. (The server may or may not get its error frame out
    // before noticing the close; what matters is the typed teardown,
    // checked via the frame-error counter below, and that cuts never
    // produce an outcome.)
    for cut in [1, 4, 11, good.len() / 2, good.len() - 1] {
        let codes = raw_exchange(addr, true, &good[..cut]);
        assert!(
            codes.is_empty() || codes == vec!["truncated"],
            "cut at {cut}: got {codes:?}"
        );
    }

    // Undecodable payload (unknown request tag).
    assert_eq!(raw_exchange(addr, true, &framed(&[250])), vec!["codec"]);

    // The server took all of that without flinching: a well-behaved
    // client connects and commits.
    let mut client = NetClient::connect(addr, "survivor").expect("connects after abuse");
    let mut committed = false;
    for p in programs(9, 10) {
        if client.submit_sync(&p).expect("round trip").is_committed() {
            committed = true;
        }
    }
    assert!(committed, "server still commits after hostile clients");
    client.goodbye().expect("orderly close");

    handle.stop();
    let report = thread.join().expect("serve thread");
    assert!(
        report.metrics.counter(names::NET_FRAME_ERRORS_TOTAL) >= 7,
        "each damaged exchange bumped the frame-error counter"
    );
    assert_eq!(
        report.metrics.gauge(names::NET_CONNECTIONS),
        0,
        "every connection tore down cleanly"
    );
}

#[test]
fn remote_shutdown_is_forbidden_unless_opted_in() {
    let (handle, thread) = spawn_server(None, false);
    let client = NetClient::connect(handle.addr(), "no-auth").expect("connects");
    match client.shutdown_server() {
        Err(vpdt_net::NetError::Remote { code, .. }) => assert_eq!(code, "forbidden"),
        other => panic!("expected forbidden, got {other:?}"),
    }
    handle.stop();
    thread.join().expect("serve thread");
}

#[test]
fn killed_mid_pipeline_no_acknowledged_commit_is_lost() {
    let dir = tmp_dir("killed-client");
    let (handle, thread) = spawn_server(Some(&dir), false);

    // A client pipelines a window of submissions, collects outcomes for
    // the first half, then dies without goodbye — the socket just drops,
    // as a killed process would.
    let mut client = NetClient::connect(handle.addr(), "doomed").expect("connects");
    let batch = programs(13, 30);
    for p in &batch {
        client.submit(p).expect("pipelined submit");
    }
    let mut acknowledged = Vec::new();
    for _ in 0..15 {
        let (_req, _tx, outcome) = client.next_outcome().expect("acked outcome");
        if let WireOutcome::Committed { version, root_hash } = outcome {
            let root = root_hash.expect("live server still holds the commitment");
            acknowledged.push((version, root));
        }
    }
    drop(client); // no goodbye: mid-pipeline death

    // The server keeps serving: another client still commits.
    let mut other = NetClient::connect(handle.addr(), "bystander").expect("connects");
    for p in programs(17, 10) {
        other.submit_sync(&p).expect("round trip");
    }
    other.goodbye().expect("orderly close");

    handle.stop();
    let report = thread.join().expect("serve thread");
    assert!(
        !acknowledged.is_empty(),
        "the doomed client saw acknowledged commits"
    );

    // Cold recovery: every commit the dead client was acked — version
    // *and* root hash — survives in the recovered store's history.
    let recovered = StoreBuilder::recover(&dir).build().expect("recovers");
    for (version, root_hash) in &acknowledged {
        assert_eq!(
            recovered.commit_root(*version),
            Some(*root_hash),
            "acked commit at version {version} must survive recovery"
        );
    }
    assert_eq!(
        recovered.version(),
        report.final_version,
        "recovery replays every durable commit"
    );
    recovered.shutdown();
}

/// Frames `requests` back to back — a burst the client writes with one
/// `write_all`.
fn burst(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut payload = Vec::new();
    for req in requests {
        payload.clear();
        req.encode(&mut payload);
        vpdt_net::frame::frame_into(&mut out, &payload);
    }
    out
}

/// Reads responses until the server closes the connection.
fn read_to_eof(stream: &mut TcpStream) -> Vec<Response> {
    let mut reader = FrameReader::new();
    let mut responses = Vec::new();
    loop {
        match reader.poll(stream).expect("response stream") {
            FramePoll::Frame(p) => responses.push(Response::decode(&p).expect("decodes")),
            FramePoll::Eof => return responses,
            FramePoll::Pending => {}
        }
    }
}

fn submits(ids: std::ops::Range<u64>, batch: &[Program]) -> Vec<Request> {
    ids.zip(batch)
        .map(|(request_id, program)| Request::Submit {
            request_id,
            program: program.clone(),
        })
        .collect()
}

/// The reactor frames a whole ready prefix into one socket write, but a
/// barrier still answers in its FIFO slot and is evaluated only after
/// every earlier response went out: each `Synced.version` covers every
/// commit acknowledged before it, and each `Stats` counts them.
#[test]
fn pipelined_barriers_keep_fifo_order_and_cover_earlier_commits() {
    let (handle, thread) = spawn_server(None, false);
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let batch = programs(29, 18);
    let mut requests = vec![Request::Hello {
        version: PROTOCOL_VERSION,
        client: "barriers".into(),
    }];
    requests.extend(submits(1..7, &batch[0..6]));
    requests.push(Request::Stats);
    requests.extend(submits(7..13, &batch[6..12]));
    requests.push(Request::Wait);
    requests.extend(submits(13..19, &batch[12..18]));
    requests.push(Request::Wait);
    requests.push(Request::Stats);
    requests.push(Request::Goodbye);
    stream.write_all(&burst(&requests)).expect("one burst");

    let mut kinds = String::new();
    let mut ids = Vec::new();
    let (mut commits, mut newest) = (0u64, 0u64);
    let mut barriers = 0;
    for resp in read_to_eof(&mut stream) {
        match resp {
            Response::Welcome { .. } => kinds.push('W'),
            Response::Outcome {
                request_id,
                outcome,
                ..
            } => {
                kinds.push('o');
                ids.push(request_id);
                if let WireOutcome::Committed { version, .. } = outcome {
                    commits += 1;
                    newest = newest.max(version);
                }
            }
            Response::Synced { version } => {
                kinds.push('S');
                barriers += 1;
                assert!(
                    version >= newest,
                    "Synced at {version} precedes acknowledged commit {newest}"
                );
            }
            Response::StatsText { text } => {
                kinds.push('T');
                barriers += 1;
                let counted: u64 = text
                    .lines()
                    .find_map(|l| l.strip_prefix("store_tx_committed_total "))
                    .expect("exposition counts commits")
                    .parse()
                    .expect("a count");
                assert!(
                    counted >= commits,
                    "Stats counted {counted} commits after {commits} were acknowledged"
                );
            }
            Response::Bye => kinds.push('B'),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(kinds, "WooooooTooooooSooooooSTB");
    assert_eq!(ids, (1..19).collect::<Vec<u64>>());
    assert_eq!(barriers, 4);
    assert!(commits > 0, "the window commits");
    handle.stop();
    thread.join().expect("serve thread");
}

/// A client that writes a 32-request burst in a single write (the way
/// `NetClient` now sends a pipelined window) gets 32 outcomes, in
/// request order.
#[test]
fn single_write_burst_of_32_submits_gets_32_ordered_outcomes() {
    let dir = tmp_dir("burst");
    let (handle, thread) = spawn_server(Some(&dir), false);
    let mut stream = TcpStream::connect(handle.addr()).expect("connects");
    let mut requests = vec![Request::Hello {
        version: PROTOCOL_VERSION,
        client: "burst".into(),
    }];
    requests.extend(submits(1..33, &programs(31, 32)));
    requests.push(Request::Goodbye);
    stream.write_all(&burst(&requests)).expect("one burst");

    let responses = read_to_eof(&mut stream);
    assert_eq!(responses.len(), 34, "welcome, 32 outcomes, bye");
    assert!(matches!(responses[0], Response::Welcome { .. }));
    assert!(matches!(responses[33], Response::Bye));
    let ids: Vec<u64> = responses[1..33]
        .iter()
        .map(|r| match r {
            Response::Outcome { request_id, .. } => *request_id,
            other => panic!("expected an outcome, got {other:?}"),
        })
        .collect();
    assert_eq!(ids, (1..33).collect::<Vec<u64>>());
    handle.stop();
    let report = thread.join().expect("serve thread");
    assert_eq!(report.exec.committed + report.exec.aborted, 32);
    let _ = std::fs::remove_dir_all(&dir);
}
