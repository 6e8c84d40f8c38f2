//! Property tests for update programs: a `DeleteWhere` that seeks the key
//! prefix its condition pins deletes exactly what a test of the condition
//! at every tuple deletes, and fails exactly when that test fails.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use vpdt_eval::{holds, Omega};
use vpdt_logic::subst::substitute_many;
use vpdt_logic::{Elem, Formula, Schema, Term, Var};
use vpdt_structure::Database;
use vpdt_tx::program::Program;
use vpdt_tx::TxError;

fn schema() -> Schema {
    Schema::new([("R", 3), ("S", 1)])
}

fn d(i: usize) -> Term {
    Term::Var(Var::new(format!("d{i}")))
}

fn vars() -> Vec<Var> {
    (0..3).map(|i| Var::new(format!("d{i}"))).collect()
}

/// One conjunct. Constants range past the generated domain (0..5) so pins
/// can miss it; `nope` and `Q` are unknown to Ω and to the schema.
fn atom(rng: &mut StdRng) -> Formula {
    let i = rng.gen_range(0..3);
    let j = rng.gen_range(0..3);
    let c = rng.gen_range(0u64..7);
    match rng.gen_range(0..13) {
        0..=1 => Formula::eq(d(i), Term::cst(c)),
        2..=3 => Formula::eq(Term::cst(c), d(i)),
        4 => Formula::neq(d(i), Term::cst(c)),
        5 => Formula::eq(d(i), Term::app("succ", [Term::cst(c)])),
        6 => Formula::eq(d(i), Term::app("nope", [Term::cst(c)])),
        7 => Formula::pred("even", [d(i)]),
        8 => Formula::rel("S", [d(i)]),
        9 => Formula::eq(d(i), d(j)),
        10 => Formula::exists(
            "z",
            Formula::and([
                Formula::rel("R", [d(i), Term::var("z"), Term::cst(c)]),
                Formula::rel("S", [Term::var("z")]),
            ]),
        ),
        11 => Formula::rel("Q", [d(i)]),
        _ => Formula::rel("S", [d(i), d(j)]),
    }
}

/// A conjunction of up to four atoms.
fn conjunction(rng: &mut StdRng) -> Formula {
    let n = rng.gen_range(0..5);
    Formula::and((0..n).map(|_| atom(rng)).collect::<Vec<_>>())
}

/// A conjunction, a disjunction of two conjunctions, or a lone atom.
fn condition(rng: &mut StdRng) -> Formula {
    match rng.gen_range(0..6) {
        0..=3 => conjunction(rng),
        4 => Formula::or([conjunction(rng), conjunction(rng)]),
        _ => atom(rng),
    }
}

/// A state over `R/3` and `S/1` with elements 0..5, in one of three domain
/// representations: explicit (with an isolated element), deferred, or
/// deferred and already materialized.
fn state(rng: &mut StdRng) -> Database {
    let mut db = Database::empty(schema());
    for _ in 0..rng.gen_range(0..24) {
        let t = (0..3).map(|_| Elem(rng.gen_range(0u64..5))).collect();
        db.insert("R", t);
    }
    for _ in 0..rng.gen_range(0..4) {
        db.insert("S", vec![Elem(rng.gen_range(0u64..5))]);
    }
    match rng.gen_range(0..3) {
        0 => {
            db.add_domain_elem(Elem(9));
        }
        1 => db.shrink_domain_to_active(),
        _ => {
            db.shrink_domain_to_active();
            let _ = db.domain();
        }
    }
    db
}

/// Runs the program and the reference and requires the same outcome:
/// the same state (relations and domain) or the same error.
fn assert_seek_equals_scan(db: &Database, cond: Formula) {
    let omega = Omega::arithmetic();
    let vars = vars();
    let want = reference(db, &omega, &vars, &cond);
    let p = Program::DeleteWhere {
        rel: "R".into(),
        vars: vars.clone(),
        cond: cond.clone(),
    };
    let got = p.run(db, &omega);
    if let (Ok(g), Ok(w)) = (&got, &want) {
        assert_eq!(g.domain_excess(), w.domain_excess(), "{cond}");
    }
    assert_eq!(got, want, "{cond} on {db:?}");
}

/// The specification: substitute each tuple of `R` into the condition,
/// decide the closed sentence with `holds`, stop at the first error.
fn reference(
    db: &Database,
    omega: &Omega,
    vars: &[Var],
    cond: &Formula,
) -> Result<Database, TxError> {
    let mut out = db.clone();
    for t in db.rel("R").iter() {
        let ground: BTreeMap<Var, Term> = vars
            .iter()
            .cloned()
            .zip(t.iter().map(|e| Term::Const(*e)))
            .collect();
        if holds(db, omega, &substitute_many(cond, &ground))? {
            out.remove("R", t);
        }
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Seek equals scan on every condition shape: leading, non-leading
    /// and no pins, `App` terms, constants outside the domain,
    /// contradictory pins, disjunctions and ill-formed atoms.
    #[test]
    fn delete_where_seek_equals_scan(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = state(&mut rng);
        let cond = condition(&mut rng);
        assert_seek_equals_scan(&db, cond);
    }

    /// The same with hand-placed pins on the leading columns, to constants
    /// in and out of the domain, conjoined with a generated condition
    /// placed before or after them.
    #[test]
    fn pinned_keys_seek_equals_scan(seed in 0u64..1_000_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = state(&mut rng);
        let pins: Vec<Formula> = (0..rng.gen_range(0..4))
            .map(|i| Formula::eq(d(i), Term::cst(rng.gen_range(0u64..6))))
            .collect();
        let rest = condition(&mut rng);
        let cond = if rng.gen_bool(0.5) {
            Formula::and(pins.into_iter().chain([rest]))
        } else {
            Formula::and(std::iter::once(rest).chain(pins))
        };
        assert_seek_equals_scan(&db, cond);
    }
}
