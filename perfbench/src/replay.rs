//! The layer replay: the served transaction stream pushed, one
//! transaction at a time on one thread, through the public functions the
//! store's worker calls per transaction, in the worker's order —
//! `get_or_compile` → `snapshot` → `holds` → `run` → `encode_event` →
//! `try_commit_timed`, with the history records between them — each call
//! inside its own span under the transaction's root span. Every
//! transaction also makes the wire codec's round trip (`net.codec`), so
//! every workload reports what the encoder and codec cost on its own
//! transactions; the reconciliation counts those spans only where the
//! served front uses them.
//!
//! With one worker the served run executes the same stream in the same
//! order, so the replay must reproduce its commit and abort counts
//! exactly; a mismatch means the replay drifted from the worker's path.

use crate::gen::{Spec, TxGen};
use crate::span::{LayerTotals, Recorder};
use std::collections::BTreeMap;
use std::time::Duration;
use vpdt_eval::{holds, Omega};
use vpdt_net::frame::write_frame;
use vpdt_net::{FrameReader, Request, Response, WireOutcome};
use vpdt_store::history::Event;
use vpdt_store::wal::encode_event;
use vpdt_store::{AbortReason, CommitOutcome, CommitRequest, GuardCache, VersionedStore};
use vpdt_structure::Database;
use vpdt_tx::program::Program;
use vpdt_tx::template::Template;
use vpdt_tx::traits::normalize_domain;

/// What the replay did and where its time went.
#[derive(Debug, Default)]
pub struct Replay {
    /// Transactions replayed.
    pub txs: u64,
    /// Commits.
    pub committed: u64,
    /// Guard aborts.
    pub aborted: u64,
    /// Preparation, evaluation, or run errors.
    pub failed: u64,
    /// Span self times, per layer.
    pub layers: LayerTotals,
    /// Total time the store's write lock was held by the commits.
    pub lock_held: Duration,
    /// The history up to the replay's `audit_commits`-th commit.
    pub audited: AuditLog,
}

/// A prefix of the replay's history, with what a cold audit needs.
#[derive(Debug, Default)]
pub struct AuditLog {
    /// The state before the first transaction.
    pub initial: Option<Database>,
    /// The state after the last one.
    pub final_db: Option<Database>,
    /// The store version after the last one.
    pub version: u64,
    /// Every event the prefix recorded.
    pub events: Vec<Event>,
    /// Every statement shape, by id.
    pub templates: BTreeMap<u64, Template>,
}

/// Replays the first `count` transactions of `spec`'s stream under
/// `seed` from the seeded initial state, keeping the history up to the
/// `audit_commits`-th commit.
pub fn layer_replay(spec: Spec, seed: u64, count: u64, audit_commits: u64) -> Replay {
    let omega = Omega::empty();
    let initial = spec.initial(seed);
    let store = VersionedStore::new(initial.clone());
    let cache = GuardCache::new(store.schema().clone(), spec.alpha(), omega.clone());
    for program in spec.shape_representatives() {
        cache
            .get_or_compile(&program)
            .expect("workload shapes compile");
    }
    let history = store.history();
    let mut gen = TxGen::new(spec, seed);
    let mut rec = Recorder::new();
    let mut out = Replay {
        layers: LayerTotals::with_sample(1_000),
        ..Replay::default()
    };
    let prefix = || {
        let snap = store.snapshot();
        AuditLog {
            initial: Some(initial.clone()),
            final_db: Some((*snap.db).clone()),
            version: snap.version,
            events: history.events(),
            templates: BTreeMap::new(),
        }
    };
    let mut audited = None;
    for tx in 0..count {
        if audited.is_none() && out.committed == audit_commits {
            audited = Some(prefix());
        }
        let program = gen.next_program();
        let cross = program.touched_relations().len() > 1;
        rec.begin("tx");
        let program = rec.child("net.codec", || request_roundtrip(tx, &program));
        let prepare = if cross {
            "shard.cross_guard_prepare"
        } else {
            "guard.prepare"
        };
        let Ok(prepared) = rec.child(prepare, || cache.get_or_compile(&program)) else {
            out.failed += 1;
            rec.end();
            continue;
        };
        let snap = rec.child("snapshot.read", || store.snapshot());
        rec.child("history.record", || {
            history.record(Event::Begin {
                tx,
                session: 1,
                version: snap.version,
                shape: prepared.shape.id,
                bindings: prepared.bindings.clone(),
            })
        });
        let eval = if cross {
            "shard.cross_guard_eval"
        } else {
            "eval.guard"
        };
        let Ok(pass) = rec.child(eval, || holds(&snap.db, &omega, &prepared.guard)) else {
            out.failed += 1;
            rec.end();
            continue;
        };
        rec.child("history.record", || {
            history.record(Event::GuardEval {
                tx,
                version: snap.version,
                pass,
            })
        });
        let wire = if !pass {
            rec.child("history.record", || {
                let reason = AbortReason::GuardFailed {
                    version: snap.version,
                    shape: prepared.shape.id,
                };
                history.record(Event::Abort {
                    tx,
                    version: snap.version,
                    reason: reason.to_string(),
                })
            });
            out.aborted += 1;
            WireOutcome::GuardAborted {
                version: snap.version,
                shape: prepared.shape.id,
            }
        } else {
            let run = rec.child("tx.run", || {
                program.run(&snap.db, &omega).map(normalize_domain)
            });
            let Ok(new_db) = run else {
                out.failed += 1;
                rec.end();
                continue;
            };
            rec.child("wal.encode", || {
                encode_event(&Event::Commit {
                    tx,
                    based_on: snap.version,
                    version: 0,
                    writes: prepared.writes().iter().cloned().collect(),
                    shape: prepared.shape.id,
                    bindings: prepared.bindings.clone(),
                    root_hash: 0,
                })
            });
            let req = CommitRequest {
                tx,
                based_on: snap.version,
                reads: prepared.reads().clone(),
                writes: prepared.writes().clone(),
                shape: prepared.shape.id,
                bindings: prepared.bindings.clone(),
                new_db,
                encoded: None,
            };
            let (outcome, held) = rec.child("snapshot.commit", || store.try_commit_timed(req));
            out.lock_held += held;
            let CommitOutcome::Committed { version, .. } = outcome else {
                unreachable!("a single-threaded replay never conflicts");
            };
            out.committed += 1;
            WireOutcome::Committed {
                version,
                root_hash: history.commit_root(version),
            }
        };
        rec.child("net.codec", || response_roundtrip(tx, wire));
        out.txs += 1;
        out.layers.add(rec.end());
    }
    out.audited = audited.unwrap_or_else(prefix);
    out.audited.templates = cache.templates();
    out
}

/// A submit request through the client's encoder, the frame layer and
/// the server's decoder, as `NetClient::submit` and the reactor do it.
fn request_roundtrip(request_id: u64, program: &Program) -> Program {
    let mut payload = Vec::new();
    Request::Submit {
        request_id,
        program: program.clone(),
    }
    .encode(&mut payload);
    match Request::decode(&frame_roundtrip(&payload)) {
        Ok(Request::Submit { program, .. }) => program,
        other => panic!("submit request did not round-trip: {other:?}"),
    }
}

/// An outcome response through the server's encoder, the frame layer
/// and the client's decoder.
fn response_roundtrip(request_id: u64, outcome: WireOutcome) {
    let mut payload = Vec::new();
    Response::Outcome {
        request_id,
        tx: request_id,
        outcome,
    }
    .encode(&mut payload);
    Response::decode(&frame_roundtrip(&payload)).expect("outcome response round-trips");
}

fn frame_roundtrip(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).expect("writing to a Vec cannot fail");
    FrameReader::new()
        .next_frame(&mut wire.as_slice())
        .expect("a framed payload reads back")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_store::{StoreBuilder, TxOutcome};

    /// One worker executes the stream in submission order, so the replay
    /// must land on exactly the served run's commit/abort split.
    #[test]
    fn replay_reproduces_a_one_worker_served_run() {
        let spec = crate::gen::spec("hot_mem").expect("hot_mem exists");
        let (seed, n) = (11, 3_000u64);
        let server = StoreBuilder::new(spec.initial(seed), spec.alpha())
            .workers(1)
            .trace_capacity(0)
            .build()
            .expect("initial state satisfies α");
        let session = server.session();
        let mut gen = TxGen::new(spec, seed);
        let tickets: Vec<_> = (0..n).map(|_| session.submit(gen.next_program())).collect();
        let (mut committed, mut aborted) = (0, 0);
        for ticket in tickets {
            match ticket.wait() {
                TxOutcome::Committed { .. } => committed += 1,
                TxOutcome::Aborted { .. } => aborted += 1,
                TxOutcome::Failed { error } => panic!("served transaction failed: {error}"),
            }
        }
        server.shutdown();
        assert!(committed > 0 && aborted > 0);
        let replay = layer_replay(spec, seed, n, 100);
        assert_eq!(
            (replay.committed, replay.aborted, replay.failed),
            (committed, aborted, 0)
        );
        assert_eq!(replay.layers.trees, n);
        assert!(replay.layers.per_call_us("wal.encode") > 0.0);
        assert!(replay.layers.per_call_us("net.codec") > 0.0);
        let commits = replay
            .audited
            .events
            .iter()
            .filter(|e| matches!(e, Event::Commit { .. }))
            .count();
        assert_eq!((commits, replay.audited.version), (100, 100));
        assert!(!replay.audited.templates.is_empty());
    }
}
