//! Property-based tests of the production evaluator against the
//! reference evaluator it replaced:
//!
//! * on well-formed input, `fo::eval` (range-restricted quantifiers) and
//!   `fo::reference::eval` (whole-domain quantifiers) return the same
//!   `Ok` verdict — on random sentences, on the constraint shapes the
//!   store checks (functional dependencies, inclusions, insert residues)
//!   with constants in and out of the domain, on formulas with free
//!   variables bound outside the active domain, and on shadowing,
//!   repeated variables and Ω terms inside atoms;
//! * ill-formed input — an unbound free variable, an unknown relation, an
//!   arity mismatch — is an `Err` from the production evaluator on empty
//!   and non-empty databases alike.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use vpdt::core::workload::random_sentence;
use vpdt::eval::fo::{self, reference};
use vpdt::eval::{Env, Omega};
use vpdt::logic::{parse_formula, Elem, Formula, Schema, Var};
use vpdt::structure::{families, Database};

/// A random graph on `0..n` (isolated nodes stay in the domain), with one
/// more isolated element beyond it when `extra`.
fn graph(seed: u64, n: usize, extra: bool) -> Database {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut db = families::random_graph(n, 0.35, &mut rng);
    if extra {
        db.add_domain_elem(Elem(n as u64 + 2));
    }
    db
}

/// A sparse state over two binary relations with values `0..4`,
/// sometimes with an isolated element beyond the active domain.
fn two_relation_state(seed: u64) -> Database {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfd);
    let mut db = Database::empty(Schema::new([("R0", 2), ("R1", 2)]));
    for rel in ["R0", "R1"] {
        for _ in 0..rng.gen_range(0..6) {
            db.insert(
                rel,
                vec![Elem(rng.gen_range(0..4)), Elem(rng.gen_range(0..4))],
            );
        }
    }
    if rng.gen_bool(0.3) {
        db.add_domain_elem(Elem(rng.gen_range(4..7)));
    }
    db
}

/// The same state with its domain narrowed to the deferred active-domain
/// view, so equality candidates probe the relations instead of a set.
fn deferred(db: &Database) -> Database {
    let mut out = db.clone();
    out.shrink_domain_to_active();
    out
}

fn parse(s: &str) -> Formula {
    parse_formula(s).unwrap_or_else(|e| panic!("{s} parses: {e:?}"))
}

/// The verdicts of both evaluators under the same bindings; well-formed
/// input must evaluate.
fn both(db: &Database, omega: &Omega, f: &Formula, env: &Env) -> (bool, bool) {
    let new = fo::eval(db, omega, f, &mut env.clone());
    let old = reference::eval(db, omega, f, &mut env.clone());
    (
        new.unwrap_or_else(|e| panic!("{f} on {db:?}: {e}")),
        old.unwrap_or_else(|e| panic!("reference, {f} on {db:?}: {e}")),
    )
}

/// The store's constraint shapes over `R0`/`R1`, with constants `c`, `d`
/// that may lie outside the domain.
fn shapes(c: u64, d: u64) -> Vec<Formula> {
    [
        // functional dependency and its insert residue
        "forall x y z. R0(x, y) & R0(x, z) -> y = z".to_string(),
        format!("forall z. R0({c}, z) | z = {d} -> {d} = z"),
        format!("forall z. R0({c}, z) -> z = {d}"),
        // inclusions, one through an inner existential
        "forall x y. R0(x, y) -> R1(x, y)".to_string(),
        "forall x y. R0(x, y) -> exists z. R1(y, z)".to_string(),
        format!("forall y. R0({c}, y) -> R1(y, {d})"),
        // exclusion and a deletion-style residue
        "forall x y. R0(x, y) -> !R1(x, y)".to_string(),
        format!("forall x. (R1(x, {c}) & x != {d}) -> exists y. R0(x, y)"),
        // equality generators, in and out of the domain
        format!("exists x. x = {c} & !R0(x, x)"),
        format!("forall x. x = {c} -> R0(x, {d})"),
        format!("exists x. {d} = x | R1(x, {c})"),
        format!("!(forall x. !(x = {c}))"),
    ]
    .iter()
    .map(|s| parse(s))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random pure-FO sentences over random graphs whose domains include
    /// isolated elements, on the explicit and the deferred domain.
    #[test]
    fn random_sentences_agree(fseed in 0u64..100_000, gseed in 0u64..100_000,
                              n in 0usize..6, extra in 0u8..2) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(fseed ^ 0x51f1);
        let f = random_sentence(&mut rng, 5);
        let db = graph(gseed, n, extra == 1);
        let omega = Omega::empty();
        for db in [&db, &deferred(&db)] {
            let (new, old) = both(db, &omega, &f, &Env::new());
            prop_assert_eq!(new, old, "{} on {:?}", f, db);
        }
    }

    /// The FD, inclusion and residue shapes, with constants in and out of
    /// the domain.
    #[test]
    fn constraint_shapes_agree(sseed in 0u64..100_000, c in 0u64..7, d in 0u64..7) {
        let db = two_relation_state(sseed);
        let omega = Omega::empty();
        for f in shapes(c, d) {
            for db in [&db, &deferred(&db)] {
                let (new, old) = both(db, &omega, &f, &Env::new());
                prop_assert_eq!(new, old, "{} on {:?}", f, db);
            }
        }
    }

    /// Formulas with free variables, prerelation style: the bindings range
    /// over the domain and beyond it.
    #[test]
    fn free_variables_outside_the_domain_agree(sseed in 0u64..100_000,
                                               a in 0u64..9, b in 0u64..9) {
        let db = two_relation_state(sseed);
        let omega = Omega::empty();
        let env = Env::of([(Var::new("x"), Elem(a)), (Var::new("y"), Elem(b))]);
        for s in [
            "!(exists z. z = x)",
            "R0(x, y) | (x = 3 & exists z. R1(z, y))",
            "exists z. R0(x, z) & R1(z, y)",
            "forall z. R0(z, x) -> z = y",
            "exists z. z = x & R1(z, z)",
            "forall z. R1(y, z) | z = x -> x = z",
        ] {
            let f = parse(s);
            for db in [&db, &deferred(&db)] {
                let (new, old) = both(db, &omega, &f, &env);
                prop_assert_eq!(new, old, "{} with x={}, y={} on {:?}", f, a, b, db);
            }
        }
    }

    /// Shadowing binders, repeated variables and Ω function terms inside
    /// atoms.
    #[test]
    fn shadowing_repeats_and_omega_terms_agree(gseed in 0u64..100_000, n in 0usize..6,
                                               extra in 0u8..2) {
        let db = graph(gseed, n, extra == 1);
        let omega = Omega::arithmetic();
        for s in [
            "exists x. exists x. E(x, x)",
            "exists x. E(x, 1) & exists x. E(x, x)",
            "forall x. exists x. E(x, 0)",
            "forall x. E(x, x) -> forall x. !E(x, x)",
            "exists x. forall y. E(x, y) -> exists x. E(y, x)",
            "exists x. (exists x. E(x, 0)) & x = 2",
            "forall x. (exists x. E(x, x)) -> E(x, 1)",
            "exists x. E(x, x)",
            "forall x y. E(x, y) & E(y, x) -> x = y",
            "exists x. E(x, succ(x))",
            "forall x. E(succ(x), x) -> E(x, x)",
            "exists x. E(plus(x, 1), x) | x = succ(2)",
            "forall x. @even(x) -> exists y. E(x, y)",
            "exists x. !(x = 1) & x = x",
        ] {
            let f = parse(s);
            for db in [&db, &deferred(&db)] {
                let (new, old) = both(db, &omega, &f, &Env::new());
                prop_assert_eq!(new, old, "{} on {:?}", f, db);
            }
        }
    }

    /// Ill-formed input fails on every database, including the empty one
    /// where no quantifier loop ever reaches the offending atom.
    #[test]
    fn ill_formed_input_is_an_error_everywhere(gseed in 0u64..100_000, n in 0usize..5) {
        let omega = Omega::empty();
        for db in [graph(gseed, n, false), Database::graph([]), Database::empty(Schema::graph())] {
            for s in [
                "E(x, y)",
                "exists y. E(y, y) & y = x",
                "forall x. false -> E(x, z)",
                "exists x. Q(x)",
                "forall x. E(x, x) -> Q(x, x)",
                "exists x. E(x)",
                "true | E(0, 1, 2)",
            ] {
                let f = parse(s);
                prop_assert!(fo::eval(&db, &omega, &f, &mut Env::new()).is_err(),
                    "{} evaluated on {:?}", f, db);
            }
        }
    }
}
