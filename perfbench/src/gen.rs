//! The four workloads' shapes and their seeded transaction streams.
//!
//! Every workload shares one statement mix: uniform single-relation
//! inserts and deletes of a pair over `0..universe`, under the
//! per-relation functional dependency `α`. An insert aborts when its key
//! already maps elsewhere, so a third or more of the stream guard-aborts and
//! the evaluate-without-publish path runs beside the publish path. The
//! cross-shard workload makes every 20th transaction a "move" (delete a
//! pair from `R_r`, insert it into `R_{r+1}`), whose two relations always
//! sit on different shards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpdt_logic::Formula;
use vpdt_store::workload::{client_seed, sharded_fd_constraint, sharded_initial};
use vpdt_structure::Database;
use vpdt_tx::program::Program;

/// Which public front door the load thread drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// In-process `Session`s on an in-memory `StoreServer`.
    Memory,
    /// One `NetClient` connection to a loopback `NetServer` over a
    /// persisted `StoreServer` (group commit, all segments retained).
    WireDurable,
    /// `ShardedStore::submit` on a persisted two-shard store.
    Sharded,
}

/// One workload's fixed configuration.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The name the command line selects it by.
    pub name: &'static str,
    /// Relations `R0..`.
    pub rels: usize,
    /// Elements per column.
    pub universe: u64,
    /// Share of keys per relation mapped in the initial state.
    pub density: f64,
    /// Every `move_every`-th transaction is a cross-shard move (0: none).
    /// A fixed stride, not a coin flip, keeps the cross-shard share — which
    /// dominates this workload's cost — identical across seeds.
    pub move_every: u64,
    /// Worker threads (per shard on the sharded front).
    pub workers: usize,
    /// Transactions per burst: the client submits this many, then waits
    /// for every one of their replies.
    pub window: usize,
    /// Transactions a run submits per second of `--seconds`, back to back,
    /// so every run does the same work. The in-memory fronts get about
    /// what they serve per second on the reference VM; the durable ones
    /// get less, because the correctness gates replay their whole log
    /// cold at about a millisecond of CPU per commit.
    pub per_second: u64,
    /// Set-ups measured per run, after one discarded warm-up; `setup_s`
    /// is their median.
    pub setups: usize,
    /// Commits of the layer replay the traced run writes to a log and
    /// audits cold (`audit.*`): the cold check of each commit is costly.
    pub audit_commits: u64,
    /// Which front door drives it.
    pub front: Front,
    /// Shards (sharded front only).
    pub shards: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hot_mem",
        rels: 8,
        universe: 6,
        density: 0.6,
        move_every: 0,
        workers: 1,
        window: 64,
        per_second: 40_000,
        setups: 31,
        audit_commits: 1_000,
        front: Front::Memory,
        shards: 1,
    },
    Spec {
        name: "wide_mem",
        rels: 32,
        universe: 80,
        density: 0.85,
        move_every: 0,
        workers: 2,
        window: 64,
        per_second: 16_000,
        setups: 3,
        audit_commits: 1,
        front: Front::Memory,
        shards: 1,
    },
    Spec {
        name: "wire_durable",
        rels: 8,
        universe: 6,
        density: 0.6,
        move_every: 0,
        workers: 1,
        window: 32,
        per_second: 3_000,
        setups: 31,
        audit_commits: 1_000,
        front: Front::WireDurable,
        shards: 1,
    },
    Spec {
        name: "cross_shard",
        rels: 8,
        universe: 6,
        density: 0.6,
        move_every: 20,
        workers: 1,
        window: 20,
        per_second: 500,
        setups: 2,
        audit_commits: 500,
        front: Front::Sharded,
        shards: 2,
    },
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The constraint: one functional dependency per relation.
    pub fn alpha(&self) -> Formula {
        sharded_fd_constraint(self.rels)
    }

    /// The seeded initial state (satisfies `α` by construction).
    pub fn initial(&self, seed: u64) -> Database {
        sharded_initial(client_seed(seed, 0), self.rels, self.universe, self.density)
    }

    /// One program of every statement shape the stream can produce — what
    /// set-up compiles before the first measured submit.
    pub fn shape_representatives(&self) -> Vec<Program> {
        let mut reps = Vec::new();
        for r in 0..self.rels {
            reps.push(Program::insert_consts(format!("R{r}"), [0, 0]));
            reps.push(Program::delete_consts(format!("R{r}"), [0, 0]));
        }
        if self.move_every > 0 {
            reps.extend(
                (0..self.rels)
                    .filter(|r| r % 2 == 0)
                    .map(|r| mv(r, self.rels, 0, 0)),
            );
        }
        reps
    }
}

/// Moves `(a, b)` from `R_r` to `R_{r+1}`.
fn mv(r: usize, rels: usize, a: u64, b: u64) -> Program {
    Program::seq([
        Program::delete_consts(format!("R{r}"), [a, b]),
        Program::insert_consts(format!("R{}", (r + 1) % rels), [a, b]),
    ])
}

/// A workload's transaction stream: a pure function of the seed.
pub struct TxGen {
    rng: StdRng,
    spec: Spec,
    drawn: u64,
}

impl TxGen {
    /// The stream for `spec` under `seed`.
    pub fn new(spec: Spec, seed: u64) -> Self {
        TxGen {
            rng: StdRng::seed_from_u64(client_seed(seed, 1)),
            spec,
            drawn: 0,
        }
    }

    /// The next transaction.
    pub fn next_program(&mut self) -> Program {
        let r = self.rng.gen_range(0..self.spec.rels);
        let a = self.rng.gen_range(0..self.spec.universe);
        let b = self.rng.gen_range(0..self.spec.universe);
        self.drawn += 1;
        if self.spec.move_every > 0 && self.drawn.is_multiple_of(self.spec.move_every) {
            // Moves start on even relations only: half the cross shapes,
            // half the cross-shard compile time in set-up.
            return mv(r & !1, self.spec.rels, a, b);
        }
        if self.rng.gen_bool(0.5) {
            Program::insert_consts(format!("R{r}"), [a, b])
        } else {
            Program::delete_consts(format!("R{r}"), [a, b])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vpdt_eval::holds_pure;
    use vpdt_tx::template::canonicalize;

    fn stream(spec: Spec, seed: u64, n: usize) -> Vec<Program> {
        let mut gen = TxGen::new(spec, seed);
        (0..n).map(|_| gen.next_program()).collect()
    }

    #[test]
    fn streams_and_states_are_deterministic_per_seed() {
        for spec in WORKLOADS {
            assert_eq!(stream(spec, 7, 300), stream(spec, 7, 300), "{}", spec.name);
            assert_ne!(stream(spec, 7, 300), stream(spec, 8, 300), "{}", spec.name);
            assert_eq!(spec.initial(7), spec.initial(7), "{}", spec.name);
            assert_ne!(spec.initial(7), spec.initial(8), "{}", spec.name);
        }
    }

    #[test]
    fn initial_states_satisfy_alpha() {
        for spec in WORKLOADS.iter().filter(|s| s.universe < 20) {
            for seed in 0..4 {
                assert!(holds_pure(&spec.initial(seed), &spec.alpha()).unwrap());
            }
        }
    }

    /// Every generated shape is one set-up compiles, and no workload
    /// comes near the guard cache's 512-shape budget.
    #[test]
    fn streams_stay_within_the_warmed_shapes() {
        for spec in WORKLOADS {
            let key = |p: &Program| canonicalize(p).expect("canonicalizes").0.key();
            let warmed: BTreeSet<String> = spec.shape_representatives().iter().map(key).collect();
            let seen: BTreeSet<String> = stream(spec, 3, 5_000).iter().map(key).collect();
            assert!(seen.is_subset(&warmed), "{}", spec.name);
            assert!(warmed.len() <= 64, "{}", spec.name);
            let moves = stream(spec, 3, 5_000)
                .iter()
                .filter(|p| p.touched_relations().len() == 2)
                .count() as u64;
            assert_eq!(moves, 5_000_u64.checked_div(spec.move_every).unwrap_or(0));
        }
    }
}
