//! Property-based tests for the store's audit and durable log: every
//! history the server produces through sessions verifies; every
//! reordered-commit mutation of a history with observably distinct commits
//! is rejected; write-ahead-log records and database/checkpoint encodings
//! round-trip byte-for-byte; and recovering from `checkpoint + tail` is
//! state-hash-equal to replaying the full log from genesis.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vpdt::eval::Omega;
use vpdt::logic::Elem;
use vpdt::store::wal::{self, RecoveryOptions};
use vpdt::store::{audit, workload, Event, StoreBuilder, WalOptions};
use vpdt::structure::Database;
use vpdt::tx::program::Program;

const RELS: usize = 3;
const UNIVERSE: u64 = 3;

struct Run {
    report: vpdt::store::ServerReport,
    programs: BTreeMap<u64, Program>,
    initial: vpdt::structure::Database,
    alpha: vpdt::logic::Formula,
}

/// Serves the seeded workload through a resident server: one concurrent
/// session per client, submissions pipelined (all tickets first, then all
/// waits) so the worker pool really interleaves.
fn run(seed: u64, clients: u64, per_client: usize, workers: usize) -> Run {
    let alpha = workload::sharded_fd_constraint(RELS);
    let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.5);
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .workers(workers)
        .build()
        .expect("consistent initial state");
    let jobs = workload::sharded_jobs(seed, clients, per_client, RELS, UNIVERSE);
    let programs = workload::serve_chunked(&server, &jobs, per_client);
    let report = server.shutdown();
    Run {
        report,
        programs,
        initial,
        alpha,
    }
}

/// From-first-principles recompute of the commitment root: re-derives
/// every per-relation content hash by walking the tuples, and the domain
/// excess by re-walking every tuple's elements — deliberately independent
/// of the incremental caches `Relation` maintains, so cache drift (a
/// missed XOR on some mutation or merge path) cannot cancel out of the
/// comparison.
fn root_from_scratch(db: &Database) -> u64 {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut h = OFFSET;
    fnv(&mut h, b"vpdt-root-v2");
    let mut active = std::collections::BTreeSet::new();
    for (name, arity) in db.schema().iter() {
        let rel = db.rel(name);
        fnv(&mut h, name.as_bytes());
        fnv(&mut h, &[0u8]);
        fnv(&mut h, &(arity as u64).to_le_bytes());
        fnv(&mut h, &(rel.len() as u64).to_le_bytes());
        let mut content = 0u64;
        for tuple in rel.iter() {
            let mut th = OFFSET;
            for e in tuple {
                fnv(&mut th, &e.0.to_le_bytes());
            }
            content ^= th;
            active.extend(tuple.iter().copied());
        }
        fnv(&mut h, &content.to_le_bytes());
    }
    let excess: Vec<Elem> = db
        .domain()
        .iter()
        .filter(|e| !active.contains(e))
        .copied()
        .collect();
    fnv(&mut h, &(excess.len() as u64).to_le_bytes());
    for e in excess {
        fnv(&mut h, &e.0.to_le_bytes());
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incrementally maintained commitment root — per-relation XOR
    /// content caches carried through inserts, removes, and the commit
    /// path's pointer-swap merges — always equals a from-scratch recompute
    /// over the final state, whatever concurrent commit/merge interleaving
    /// the run produced; and it is exactly what the last commit recorded.
    #[test]
    fn incremental_root_matches_from_scratch_recompute(seed in 0u64..10_000, clients in 1u64..4,
                                                       per_client in 1usize..12,
                                                       workers in 1usize..5) {
        let r = run(seed, clients, per_client, workers);
        let incremental = vpdt::store::history::root_hash(&r.report.final_db);
        prop_assert_eq!(incremental, root_from_scratch(&r.report.final_db), "seed {}", seed);
        let last_recorded = r.report.events.iter().rev().find_map(|e| match e {
            Event::Commit { root_hash, .. } => Some(*root_hash),
            _ => None,
        });
        if let Some(h) = last_recorded {
            prop_assert_eq!(h, incremental, "seed {}", seed);
        }
    }

    /// Whatever the seed, session count and parallelism, the audit accepts
    /// the history the server actually produced.
    #[test]
    fn audit_accepts_every_server_history(seed in 0u64..10_000, clients in 1u64..4,
                                          per_client in 1usize..12, workers in 1usize..5) {
        let r = run(seed, clients, per_client, workers);
        let report = audit(
            &r.alpha,
            &Omega::empty(),
            &r.initial,
            &r.report.final_db,
            &r.report.events,
            &r.programs,
            &r.report.templates,
        );
        prop_assert!(report.ok(), "seed {}: {}", seed, report);
    }

    /// Erasing the tail of the history from its last state-changing commit
    /// onward is always detected: the replayed final state provably
    /// differs from the store's. (Reordered-commit and forged-hash
    /// mutations are exercised deterministically in
    /// `tests/store_concurrency.rs`; an arbitrary swap of commuting no-op
    /// commits can be a valid serialization of the same history, which the
    /// audit rightly accepts.)
    #[test]
    fn audit_rejects_truncated_histories(seed in 0u64..10_000) {
        let r = run(seed, 3, 10, 4);
        let mut events = r.report.events.clone();
        let initial_hash = vpdt::store::history::root_hash(&r.initial);
        // index of the last commit whose post-state differs from its
        // predecessor's — commits after it (if any) are all no-ops, so
        // cutting here guarantees the replayed final state is wrong
        let mut prev = initial_hash;
        let mut cut = None;
        for (i, e) in events.iter().enumerate() {
            if let Event::Commit { root_hash, .. } = e {
                if *root_hash != prev {
                    cut = Some(i);
                }
                prev = *root_hash;
            }
        }
        let Some(cut) = cut else {
            return Ok(()); // degenerate: no commit ever changed the state
        };
        events.truncate(cut);
        let report = audit(
            &r.alpha,
            &Omega::empty(),
            &r.initial,
            &r.report.final_db,
            &events,
            &r.programs,
            &r.report.templates,
        );
        prop_assert!(!report.ok(), "seed {}: truncated history verified", seed);
    }
}

/// A deterministic splitmix stream for derived values inside strategies.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bindings_from(seed: u64) -> Vec<Elem> {
    (0..seed % 5).map(|i| Elem(mix(seed, i))).collect()
}

/// Arbitrary history events, including boundary values and hostile strings
/// (separators, newlines, non-ASCII) — the codec must be total.
fn arb_event() -> BoxedStrategy<Event> {
    const REASONS: [&str; 4] = [
        "guard failed at version 3",
        "semi;colons,commas and\nnewlines",
        "ünïcode → ∀x.¬φ",
        "",
    ];
    const RELS: [&str; 3] = ["R0", "weird;rel", "E"];
    prop_oneof![
        (0u64..1000, 0u64..9, 0u64..64, 0u64..8, 0u64..u64::MAX).prop_map(
            |(tx, session, version, shape, b)| Event::Begin {
                tx,
                session,
                version,
                shape,
                bindings: bindings_from(b),
            }
        ),
        (0u64..1000, 0u64..64, 0u64..2).prop_map(|(tx, version, p)| Event::GuardEval {
            tx,
            version,
            pass: p == 1,
        }),
        (0u64..1000, 0u64..64, 0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(tx, version, b, h)| {
            Event::Commit {
                tx,
                based_on: version,
                version: version + 1,
                writes: (0..b % 4)
                    .map(|i| RELS[(i % 3) as usize].to_string())
                    .collect(),
                shape: b % 7,
                bindings: bindings_from(h),
                root_hash: h,
            }
        }),
        (0u64..1000, 0u64..64, 0u64..4).prop_map(|(tx, version, r)| Event::Abort {
            tx,
            version,
            reason: REASONS[r as usize].to_string(),
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WAL event payloads round-trip byte-for-byte: decode inverts encode,
    /// and re-encoding reproduces the exact bytes (what record checksums
    /// and the truncation harness rely on).
    #[test]
    fn wal_events_roundtrip_byte_for_byte(e in arb_event()) {
        let bytes = wal::encode_event(&e);
        let back = wal::decode_event(&bytes).expect("decodes");
        prop_assert_eq!(&back, &e);
        prop_assert_eq!(wal::encode_event(&back), bytes);
        // every strict prefix is a typed error, never a panic or a bogus value
        for cut in 0..bytes.len() {
            prop_assert!(wal::decode_event(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
        }
    }

    /// The stable database encoding (what checkpoints store and state
    /// hashes cover) round-trips through decode, byte-for-byte.
    #[test]
    fn database_encoding_roundtrips(seed in 0u64..10_000, rels in 1usize..4, universe in 1u64..6) {
        let mut db = workload::sharded_initial(seed, rels, universe, 0.6);
        // isolated domain elements exercise the dom segment
        db.add_domain_elem(Elem(universe + seed % 3));
        let enc = db.encode();
        let back = Database::decode(db.schema().clone(), &enc).expect("decodes");
        prop_assert_eq!(&back, &db);
        prop_assert_eq!(back.encode(), enc);
    }

    /// Statement templates round-trip through the program codec — the
    /// checkpoint/shape-record path that lets a cold audit rebuild every
    /// submitted program from `(shape, bindings)` provenance.
    #[test]
    fn templates_roundtrip_through_the_codec(seed in 0u64..10_000) {
        for job in workload::sharded_jobs(seed, 1, 8, RELS, UNIVERSE) {
            let (template, bindings) =
                vpdt::tx::template::canonicalize(&job).expect("canonicalizes");
            let bytes = vpdt::tx::codec::program_to_bytes(template.shape());
            let shape = vpdt::tx::codec::decode_program_exact(&bytes).expect("decodes");
            let back = vpdt::tx::template::Template::from_shape(shape).expect("rebuilds");
            prop_assert_eq!(&back, &template);
            // canonicalize α-renames binders, so the instantiation is the
            // *canonical spelling* of the program, not its original one;
            // the roundtrip invariant is the re-canonicalization fixpoint
            let ground = back.instantiate(&bindings).expect("instantiates");
            let (t2, b2) = vpdt::tx::template::canonicalize(&ground).expect("re-canonicalizes");
            prop_assert_eq!(&t2, &template);
            prop_assert_eq!(b2, bindings);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `recover(checkpoint + tail)` is state-hash-equal to replaying the
    /// full log from genesis, wherever the checkpoint lands in the run.
    #[test]
    fn checkpoint_recovery_equals_genesis_replay(seed in 0u64..10_000, split in 1usize..20,
                                                 per_client in 2usize..12) {
        let dir = std::env::temp_dir().join(format!(
            "vpdt-prop-ckpt-{}-{seed}-{split}-{per_client}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let alpha = workload::sharded_fd_constraint(RELS);
        let initial = workload::sharded_initial(seed, RELS, UNIVERSE, 0.5);
        let server = StoreBuilder::new(initial, alpha)
            .workers(2)
            .persist_with(
                &dir,
                WalOptions {
                    segment_bytes: 2048,
                    // the genesis-replay comparison needs the full log: a
                    // mid-run checkpoint must not garbage-collect it
                    retain_segments: true,
                },
            )
            .build()
            .expect("persisted server starts");
        let jobs = workload::sharded_jobs(seed, 2, per_client, RELS, UNIVERSE);
        let cut = split.min(jobs.len().saturating_sub(1)).max(1);
        let (first, second) = jobs.split_at(cut);
        workload::serve_chunked(&server, first, per_client);
        server.checkpoint().expect("mid-run checkpoint");
        workload::serve_chunked(&server, second, per_client);
        drop(server); // no clean shutdown: the tail after the checkpoint replays

        let from_ckpt = wal::recover(&dir, &Omega::empty(), RecoveryOptions::default())
            .expect("recovers from checkpoint");
        let from_genesis =
            wal::recover(&dir, &Omega::empty(), RecoveryOptions { from_genesis: true })
                .expect("recovers from genesis");
        prop_assert_eq!(from_ckpt.version, from_genesis.version);
        prop_assert_eq!(from_ckpt.state_hash, from_genesis.state_hash);
        prop_assert_eq!(&from_ckpt.db, &from_genesis.db);
        prop_assert!(from_ckpt.commits_replayed <= from_genesis.commits_replayed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
