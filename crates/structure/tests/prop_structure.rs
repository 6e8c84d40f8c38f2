//! Property-based tests for databases, canonical forms and enumeration.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use vpdt_logic::Elem;
use vpdt_structure::iso::{graph_code, graphs_isomorphic};
use vpdt_structure::{families, Database, Graph, Schema};

fn random_db(seed: u64, n: usize) -> Database {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    families::random_graph(n, 0.4, &mut rng)
}

/// The explicit model of a database over `R/2, S/1`: tuple sets and the
/// domain as a plain set, with removal leaving the domain alone and
/// normalization cutting it to the elements some tuple holds.
#[derive(Default)]
struct Model {
    rels: [BTreeSet<Vec<Elem>>; 2],
    domain: BTreeSet<Elem>,
}

impl Model {
    const NAMES: [&'static str; 2] = ["R", "S"];

    fn active(&self) -> BTreeSet<Elem> {
        self.rels.iter().flatten().flatten().copied().collect()
    }

    /// The same state built outright, with an explicit domain.
    fn database(&self) -> Database {
        let mut db = Database::empty(Schema::new([("R", 2), ("S", 1)]));
        for (name, tuples) in Self::NAMES.iter().zip(&self.rels) {
            for t in tuples {
                db.insert(name, t.clone());
            }
        }
        for e in &self.domain {
            db.add_domain_elem(*e);
        }
        db
    }

    /// Checks every domain read against the model. The reads that must
    /// not materialize a deferred domain (`domain_contains`,
    /// `domain_excess`) go to `db` itself; `domain()` and `==` go to a
    /// clone, so the next step still sees `db` as it was.
    fn agrees(&self, db: &Database) -> Result<(), String> {
        for e in (0..9).map(Elem) {
            if db.domain_contains(&e) != self.domain.contains(&e) {
                return Err(format!("domain_contains({e}) on {db:?}"));
            }
        }
        let excess: BTreeSet<Elem> = self.domain.difference(&self.active()).copied().collect();
        if db.domain_excess() != excess {
            return Err(format!(
                "domain_excess {:?} != {excess:?}",
                db.domain_excess()
            ));
        }
        let probe = db.clone();
        if probe.domain() != &self.domain {
            return Err(format!("domain {:?} != {:?}", probe.domain(), self.domain));
        }
        let explicit = self.database();
        if probe != explicit || explicit != probe {
            return Err(format!("{probe:?} != {explicit:?}"));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lazy domain equals the explicit model: random sequences of inserts,
    /// removals (mostly of present tuples), normalizations, clones,
    /// materializing reads and added isolated elements leave `domain()`,
    /// `domain_contains`, `domain_excess` and `==` agreeing with a model
    /// that holds the domain as a plain set, after every step.
    #[test]
    fn lazy_domain_equals_the_explicit_model(seed in 0u64..1_000_000_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut db = Database::empty(Schema::new([("R", 2), ("S", 1)]));
        let mut model = Model::default();
        if rng.gen_bool(0.5) {
            db.shrink_domain_to_active();
        }
        for step in 0..40 {
            let r = rng.gen_range(0..2usize);
            let name = Model::NAMES[r];
            let drawn: Vec<Elem> = (0..2 - r).map(|_| Elem(rng.gen_range(0u64..8))).collect();
            match rng.gen_range(0..10) {
                0..=3 => {
                    let t = drawn;
                    model.domain.extend(t.iter().copied());
                    let new = model.rels[r].insert(t.clone());
                    prop_assert_eq!(db.insert(name, t), new);
                }
                4..=5 => {
                    let t = match model.rels[r].iter().next() {
                        Some(t) if rng.gen_bool(0.75) => t.clone(),
                        _ => drawn,
                    };
                    let present = model.rels[r].remove(&t);
                    prop_assert_eq!(db.remove(name, &t), present);
                }
                6 => {
                    db.shrink_domain_to_active();
                    model.domain = model.active();
                }
                7 => db = db.clone(),
                8 => {
                    let _ = db.domain();
                }
                _ => {
                    let e = Elem(rng.gen_range(0u64..9));
                    prop_assert_eq!(db.add_domain_elem(e), model.domain.insert(e));
                }
            }
            if let Err(e) = model.agrees(&db) {
                panic!("step {step} of seed {seed}: {e}");
            }
        }
    }

    /// Canonical codes are invariant under relabeling of the universe.
    #[test]
    fn canonical_code_is_permutation_invariant(seed in 0u64..10_000, n in 0usize..6,
                                               mult in 1u64..5, off in 0u64..50) {
        let db = random_db(seed, n);
        let permuted = db.permuted(&|e| Elem(e.0 * (mult * 2 + 1) + off));
        prop_assert_eq!(graph_code(&db), graph_code(&permuted));
        prop_assert!(graphs_isomorphic(&db, &permuted));
    }

    /// Isomorphism implies equal invariants.
    #[test]
    fn isomorphic_graphs_share_invariants(s1 in 0u64..5_000, s2 in 0u64..5_000, n in 0usize..5) {
        let a = random_db(s1, n);
        let b = random_db(s2, n);
        if graphs_isomorphic(&a, &b) {
            prop_assert_eq!(a.domain_size(), b.domain_size());
            prop_assert_eq!(a.rel("E").len(), b.rel("E").len());
            prop_assert_eq!(
                Graph::of_edges(&a).degree_count(),
                Graph::of_edges(&b).degree_count()
            );
        }
    }

    /// encode/decode round-trips arbitrary databases.
    #[test]
    fn encode_decode_roundtrip(seed in 0u64..10_000, n in 0usize..7) {
        let db = random_db(seed, n);
        let back = Database::decode(Schema::graph(), &db.encode()).expect("decodes");
        prop_assert_eq!(db, back);
    }

    /// tc is idempotent and monotone; dtc is a superset of E and subset of tc.
    #[test]
    fn closure_laws(seed in 0u64..10_000, n in 1usize..6) {
        let db = random_db(seed, n);
        let g = Graph::of_edges(&db);
        let tc = g.transitive_closure();
        let dtc = g.deterministic_transitive_closure();
        // E ⊆ dtc ⊆ tc
        for (a, b) in db.edges() {
            prop_assert!(dtc.contains(&(a, b)));
            prop_assert!(tc.contains(&(a, b)));
        }
        for p in &dtc {
            prop_assert!(tc.contains(p), "dtc ⊄ tc at {:?}", p);
        }
        // tc is transitively closed
        for &(a, b) in &tc {
            for &(c, d) in &tc {
                if b == c {
                    prop_assert!(tc.contains(&(a, d)));
                }
            }
        }
    }

    /// Same generation is reflexive on the domain and symmetric.
    #[test]
    fn same_generation_laws(seed in 0u64..10_000, n in 1usize..6) {
        let db = random_db(seed, n);
        let g = Graph::of_edges(&db);
        let sg = g.same_generation();
        for &x in g.nodes() {
            prop_assert!(sg.contains(&(x, x)));
        }
        for &(a, b) in &sg {
            prop_assert!(sg.contains(&(b, a)), "sg not symmetric at ({a},{b})");
        }
    }

    /// The C&C decomposition and ψ-style degree conditions agree with
    /// explicit reconstruction: chain length + cycle lengths = node count.
    #[test]
    fn cc_decomposition_partitions_nodes(chain_len in 1usize..6, c1 in 2usize..5, c2 in 2usize..5) {
        let db = families::cc_graph(chain_len, &[c1, c2]);
        let dec = Graph::of_edges(&db).cc_decompose().expect("is C&C");
        let total = dec.chain.len() + dec.cycles.iter().map(Vec::len).sum::<usize>();
        prop_assert_eq!(total, db.domain_size());
    }
}
