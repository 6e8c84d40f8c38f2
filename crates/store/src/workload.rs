//! Deterministic store workloads: sharded schemas, per-relation functional
//! dependencies, and prepared-statement job mixes.
//!
//! Everything is a pure function of caller-provided seeds — there is no
//! ambient randomness anywhere in the store, so every benchmark run and
//! every audited history is reproducible bit-for-bit.

use crate::server::StoreServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;
use vpdt_logic::{parse_formula, Formula, Schema};
use vpdt_structure::Database;
use vpdt_tx::program::Program;

/// An independent seed for one client, derived from a base seed (splitmix
/// of the pair, so clients never share streams).
pub fn client_seed(base: u64, client: u64) -> u64 {
    let mut z = base ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A schema of `k` binary relations `R0..R{k-1}` — the sharded analogue of
/// the paper's graph schema.
pub fn sharded_schema(k: usize) -> Schema {
    assert!(k > 0, "need at least one relation");
    Schema::new((0..k).map(|i| (format!("R{i}"), 2)))
}

/// The conjunction of per-relation functional dependencies
/// `∀x∀y∀z. Rᵢ(x,y) ∧ Rᵢ(x,z) → y = z` — one domain-independent conjunct
/// per relation, so guards for single-relation transactions reduce to one
/// conjunct and disjoint transactions validate independently.
pub fn sharded_fd_constraint(k: usize) -> Formula {
    let conjuncts: Vec<Formula> = (0..k)
        .map(|i| {
            parse_formula(&format!("forall x y z. R{i}(x, y) & R{i}(x, z) -> y = z"))
                .expect("constant formula parses")
        })
        .collect();
    Formula::and(conjuncts)
}

/// The menu of prepared statements for one configuration: inserts and
/// deletes of every tuple over `0..universe`, per relation. Real clients
/// reuse statements, which is what makes a guard cache earn its keep.
pub fn statement_menu(rels: usize, universe: u64) -> Vec<Program> {
    let mut menu = Vec::new();
    for r in 0..rels {
        let rel = format!("R{r}");
        for a in 0..universe {
            for b in 0..universe {
                menu.push(Program::insert_consts(rel.clone(), [a, b]));
                menu.push(Program::delete_consts(rel.clone(), [a, b]));
            }
        }
    }
    menu
}

/// A deterministic batch: `clients × per_client` programs, each client
/// drawing from the statement menu with its own derived seed.
pub fn sharded_jobs(
    base_seed: u64,
    clients: u64,
    per_client: usize,
    rels: usize,
    universe: u64,
) -> Vec<Program> {
    let menu = statement_menu(rels, universe);
    let mut jobs = Vec::with_capacity(clients as usize * per_client);
    for client in 0..clients {
        let mut rng = StdRng::seed_from_u64(client_seed(base_seed, client));
        for _ in 0..per_client {
            jobs.push(menu[rng.gen_range(0..menu.len())].clone());
        }
    }
    jobs
}

/// A deterministic batch for **large** configurations: `clients ×
/// per_client` programs sampled directly (relation, pair, insert-or-delete)
/// from each client's derived stream, without materializing the
/// `2 · rels · universe²` statement menu [`sharded_jobs`] picks from. The
/// distribution is the same uniform one; only the generation cost changes
/// — O(jobs) instead of O(rels · universe²) — which is what makes
/// `--scale` bench configurations (universe ≥ 64, ≥ 32 relations)
/// practical to set up.
pub fn scaled_jobs(
    base_seed: u64,
    clients: u64,
    per_client: usize,
    rels: usize,
    universe: u64,
) -> Vec<Program> {
    let mut jobs = Vec::with_capacity(clients as usize * per_client);
    for client in 0..clients {
        let mut rng = StdRng::seed_from_u64(client_seed(base_seed, client));
        for _ in 0..per_client {
            let rel = format!("R{}", rng.gen_range(0..rels));
            let a = rng.gen_range(0..universe);
            let b = rng.gen_range(0..universe);
            let program = if rng.gen_bool(0.5) {
                Program::insert_consts(rel, [a, b])
            } else {
                Program::delete_consts(rel, [a, b])
            };
            jobs.push(program);
        }
    }
    jobs
}

/// The canonical way to drive a program list through a running server: one
/// session per `per_client`-sized chunk, each submitting from its own
/// thread (pipelined — every ticket first, then every wait, so the worker
/// pool really interleaves sessions). Returns the tx-id → program map a
/// later [`audit`](crate::audit::audit) needs; per-transaction outcomes
/// are in the eventual
/// [`ServerReport`](crate::ServerReport) (and each ticket, which this
/// helper drains). Benches wanting latency numbers or custom windowing
/// drive sessions by hand instead.
pub fn serve_chunked(
    server: &StoreServer,
    jobs: &[Program],
    per_client: usize,
) -> BTreeMap<u64, Program> {
    let programs = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for chunk in jobs.chunks(per_client.max(1)) {
            let session = server.session();
            let programs = &programs;
            scope.spawn(move || {
                let tickets: Vec<_> = chunk
                    .iter()
                    .map(|program| session.submit(program.clone()))
                    .collect();
                {
                    let mut map = programs.lock().expect("programs lock poisoned");
                    for (ticket, program) in tickets.iter().zip(chunk) {
                        map.insert(ticket.id(), program.clone());
                    }
                }
                for ticket in &tickets {
                    ticket.wait();
                }
            });
        }
    });
    programs.into_inner().expect("programs lock poisoned")
}

/// A deterministic batch with a controlled **cross-shard fraction**: like
/// [`scaled_jobs`], each client samples single-relation inserts/deletes
/// from its own stream, but with probability `cross_fraction` it emits a
/// two-relation sequence over two *distinct* relations instead. Under
/// round-robin striping, two distinct relations land on distinct shards
/// whenever `rels` is a multiple of the shard count and the pair differs
/// mod shards — the generator picks the second relation at a stride of 1,
/// so with ≥ 2 shards every pair really is cross-shard.
pub fn cross_mix_jobs(
    base_seed: u64,
    clients: u64,
    per_client: usize,
    rels: usize,
    universe: u64,
    cross_fraction: f64,
) -> Vec<Program> {
    assert!(rels >= 2, "a cross mix needs at least two relations");
    let mut jobs = Vec::with_capacity(clients as usize * per_client);
    for client in 0..clients {
        let mut rng = StdRng::seed_from_u64(client_seed(base_seed, client));
        for _ in 0..per_client {
            let r = rng.gen_range(0..rels);
            let a = rng.gen_range(0..universe);
            let b = rng.gen_range(0..universe);
            let program = if rng.gen_bool(cross_fraction) {
                let r2 = (r + 1) % rels;
                let c = rng.gen_range(0..universe);
                let d = rng.gen_range(0..universe);
                let first = if rng.gen_bool(0.5) {
                    Program::insert_consts(format!("R{r}"), [a, b])
                } else {
                    Program::delete_consts(format!("R{r}"), [a, b])
                };
                let second = if rng.gen_bool(0.5) {
                    Program::insert_consts(format!("R{r2}"), [c, d])
                } else {
                    Program::delete_consts(format!("R{r2}"), [c, d])
                };
                Program::seq([first, second])
            } else if rng.gen_bool(0.5) {
                Program::insert_consts(format!("R{r}"), [a, b])
            } else {
                Program::delete_consts(format!("R{r}"), [a, b])
            };
            jobs.push(program);
        }
    }
    jobs
}

/// How a [`serve_sharded_chunked`] run split between the two paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardedDrive {
    /// Programs routed to a single shard's ordinary pipeline.
    pub single: u64,
    /// Programs that took the cross-shard two-phase-commit path.
    pub cross: u64,
    /// Submissions refused by the router or coordinator with an error.
    pub errors: u64,
}

/// The sharded analogue of [`serve_chunked`]: drives a program list through
/// the router, one session per `per_client`-sized chunk on its own thread,
/// pipelining single-shard tickets (submit everything, then wait) while
/// cross-shard jobs resolve inline. Outcome totals land in the per-shard
/// [`ServerReport`](crate::ServerReport)s and the coordinator's metrics;
/// this returns just the routing split.
pub fn serve_sharded_chunked(
    store: &crate::ShardedStore,
    jobs: &[Program],
    per_client: usize,
) -> ShardedDrive {
    use crate::Routed;
    let totals = Mutex::new(ShardedDrive::default());
    std::thread::scope(|scope| {
        for chunk in jobs.chunks(per_client.max(1)) {
            let session = store.session();
            let totals = &totals;
            scope.spawn(move || {
                let mut local = ShardedDrive::default();
                let mut tickets = Vec::new();
                for program in chunk {
                    match store.submit(session, program.clone()) {
                        Ok(Routed::Single { ticket, .. }) => {
                            local.single += 1;
                            tickets.push(ticket);
                        }
                        Ok(Routed::Cross(_)) => local.cross += 1,
                        Err(_) => local.errors += 1,
                    }
                }
                for ticket in &tickets {
                    ticket.wait();
                }
                let mut t = totals.lock().expect("totals lock poisoned");
                t.single += local.single;
                t.cross += local.cross;
                t.errors += local.errors;
            });
        }
    });
    totals.into_inner().expect("totals lock poisoned")
}

/// A consistent initial state for the sharded schema: each relation gets a
/// deterministic partial function on `0..universe` (so the per-relation fd
/// holds by construction).
pub fn sharded_initial(seed: u64, rels: usize, universe: u64, p: f64) -> Database {
    let schema = sharded_schema(rels);
    let mut db = Database::empty(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    for r in 0..rels {
        let rel = format!("R{r}");
        for a in 0..universe {
            if rng.gen_bool(p) {
                let b = rng.gen_range(0..universe);
                db.insert(&rel, vec![vpdt_logic::Elem(a), vpdt_logic::Elem(b)]);
            }
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_eval::holds_pure;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(client_seed(1, 2), client_seed(1, 2));
        assert_ne!(client_seed(1, 2), client_seed(1, 3));
        assert_ne!(client_seed(1, 2), client_seed(2, 2));
    }

    #[test]
    fn jobs_are_reproducible() {
        let a = sharded_jobs(42, 3, 5, 4, 3);
        let b = sharded_jobs(42, 3, 5, 4, 3);
        assert_eq!(a.len(), 15);
        assert_eq!(a, b);
        let c = sharded_jobs(43, 3, 5, 4, 3);
        assert!(a.iter().zip(&c).any(|(x, y)| x != y));
    }

    #[test]
    fn initial_states_satisfy_the_constraint() {
        let alpha = sharded_fd_constraint(4);
        for seed in 0..5 {
            let db = sharded_initial(seed, 4, 6, 0.6);
            assert!(holds_pure(&db, &alpha).expect("evaluates"), "seed {seed}");
        }
    }

    #[test]
    fn cross_mix_is_reproducible_with_the_requested_fraction() {
        let a = cross_mix_jobs(7, 4, 50, 4, 8, 0.25);
        let b = cross_mix_jobs(7, 4, 50, 4, 8, 0.25);
        assert_eq!(a.len(), 200);
        assert_eq!(a, b);
        let crosses = a
            .iter()
            .filter(|p| p.touched_relations().len() == 2)
            .count();
        assert!(
            (20..=80).contains(&crosses),
            "~25% of 200 jobs should span two relations, got {crosses}"
        );
        let none = cross_mix_jobs(7, 4, 50, 4, 8, 0.0);
        assert!(none.iter().all(|p| p.touched_relations().len() == 1));
    }

    #[test]
    fn constraint_splits_into_per_relation_conjuncts() {
        let alpha = sharded_fd_constraint(3);
        let parts = alpha.conjuncts();
        assert_eq!(parts.len(), 3);
        for p in parts {
            assert_eq!(p.relations_used().len(), 1);
            assert!(vpdt_logic::domain::is_domain_independent(p));
        }
    }
}
