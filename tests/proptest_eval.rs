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
//!   and non-empty databases alike;
//! * a compiled [`Plan`] run with bindings gives the reference's verdict
//!   on the formula with the bindings substituted — on random formulas
//!   with placeholders of both sorts, repeated, and constants outside the
//!   domain — and one plan reused across states and bindings agrees with
//!   a fresh compile each time; a plan run on a database over another
//!   schema is an `Err`.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use vpdt::core::workload::random_sentence;
use vpdt::eval::fo::{self, reference, Plan};
use vpdt::eval::{Env, Omega};
use vpdt::logic::subst::instantiate_params;
use vpdt::logic::{parse_formula, Elem, Formula, NumTerm, Schema, Term, Var};
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

/// How many placeholders the random formulas draw from: `?0`..`?2`, so
/// most formulas repeat one.
const PARAMS: usize = 3;

/// A first-sort term over the variables in scope, constants in and out of
/// `two_relation_state`'s domain, and placeholders.
fn random_term(rng: &mut impl Rng, scope: &[Var]) -> Term {
    match rng.gen_range(0..5) {
        0 | 1 if !scope.is_empty() => Term::Var(scope[rng.gen_range(0..scope.len())].clone()),
        0..=2 => Term::param(rng.gen_range(0..PARAMS)),
        _ => Term::cst(rng.gen_range(0u64..8)),
    }
}

/// A numeric term: `1`, `max`, a literal or a numeric placeholder `?i#`.
fn random_num(rng: &mut impl Rng) -> NumTerm {
    match rng.gen_range(0..4) {
        0 => NumTerm::One,
        1 => NumTerm::Max,
        2 => NumTerm::Lit(rng.gen_range(0..6)),
        _ => NumTerm::Param(rng.gen_range(0..PARAMS)),
    }
}

/// A random formula over `R0`/`R1` whose variables are bound by its own
/// quantifiers or listed in `scope`. Binders reuse three names, so inner
/// quantifiers often shadow outer ones.
fn random_formula(rng: &mut impl Rng, depth: usize, scope: &mut Vec<Var>) -> Formula {
    if depth == 0 || rng.gen_bool(0.2) {
        return match rng.gen_range(0..8) {
            0..=3 => Formula::rel(
                if rng.gen_bool(0.5) { "R0" } else { "R1" },
                [random_term(rng, scope), random_term(rng, scope)],
            ),
            4 | 5 => Formula::eq(random_term(rng, scope), random_term(rng, scope)),
            6 => Formula::NumLe(random_num(rng), random_num(rng)),
            _ => {
                if rng.gen_bool(0.5) {
                    Formula::True
                } else {
                    Formula::False
                }
            }
        };
    }
    let sub = |rng: &mut _, scope: &mut Vec<Var>| random_formula(rng, depth - 1, scope);
    match rng.gen_range(0..9) {
        0 => Formula::not(sub(rng, scope)),
        1 => Formula::and([sub(rng, scope), sub(rng, scope)]),
        2 => Formula::or([sub(rng, scope), sub(rng, scope)]),
        3 => Formula::implies(sub(rng, scope), sub(rng, scope)),
        4 => Formula::iff(sub(rng, scope), sub(rng, scope)),
        k => {
            let v = Var::new(["x", "y", "z"][rng.gen_range(0..3)]);
            scope.push(v.clone());
            let body = sub(rng, scope);
            scope.pop();
            match k {
                5 | 6 => Formula::exists(v, body),
                7 => Formula::forall(v, body),
                _ => Formula::CountGe(random_num(rng), v, Box::new(body)),
            }
        }
    }
}

/// `PARAMS` bindings, in and out of `two_relation_state`'s domain.
fn random_bindings(rng: &mut impl Rng) -> Vec<Elem> {
    (0..PARAMS).map(|_| Elem(rng.gen_range(0..8))).collect()
}

/// The reference's verdict on `f` with `bindings` substituted.
fn reference_verdict(db: &Database, f: &Formula, bindings: &[Elem], env: &Env) -> bool {
    let ground = instantiate_params(f, bindings);
    reference::eval(db, &Omega::empty(), &ground, &mut env.clone())
        .unwrap_or_else(|e| panic!("reference, {ground} on {db:?}: {e}"))
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

    /// A plan run with bindings decides like the reference on the
    /// substituted formula, with and without free variables.
    #[test]
    fn plans_with_bindings_agree_with_the_substituted_formula(fseed in 0u64..100_000,
                                                              sseed in 0u64..100_000,
                                                              a in 0u64..9) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(fseed ^ 0x91a7);
        let db = two_relation_state(sseed);
        let omega = Omega::empty();
        let bindings = random_bindings(&mut rng);
        let sentence = random_formula(&mut rng, 4, &mut Vec::new());
        let plan = Plan::compile(db.schema(), &sentence, &[]).expect("well-formed");
        let open = random_formula(&mut rng, 4, &mut vec![Var::new("w")]);
        let open_plan = Plan::compile(db.schema(), &open, &[Var::new("w")]).expect("well-formed");
        let env = Env::of([(Var::new("w"), Elem(a))]);
        for db in [&db, &deferred(&db)] {
            let got = plan.eval(db, &omega, &bindings).expect("evaluates");
            let want = reference_verdict(db, &sentence, &bindings, &Env::new());
            prop_assert_eq!(got, want, "{} with {:?} on {:?}", sentence, bindings, db);
            let got = open_plan.eval_at(db, &omega, &bindings, &[Elem(a)]).expect("evaluates");
            let want = reference_verdict(db, &open, &bindings, &env);
            prop_assert_eq!(got, want, "{} with {:?}, w={} on {:?}", open, bindings, a, db);
        }
    }

    /// One plan, compiled once, run across many states and bindings,
    /// decides like a fresh compile of the formula on each state — over
    /// an equal schema that is not the same handle — and like the
    /// instantiated formula through `holds`.
    #[test]
    fn a_reused_plan_agrees_with_a_fresh_compile(fseed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(fseed ^ 0x3c5d);
        let f = random_formula(&mut rng, 4, &mut Vec::new());
        let plan = Plan::compile(&Schema::new([("R0", 2), ("R1", 2)]), &f, &[])
            .expect("well-formed");
        let omega = Omega::empty();
        for _ in 0..8 {
            let db = two_relation_state(rng.gen_range(0..100_000));
            let bindings = random_bindings(&mut rng);
            let reused = plan.eval(&db, &omega, &bindings).expect("evaluates");
            let fresh = Plan::compile(db.schema(), &f, &[])
                .and_then(|p| p.eval(&db, &omega, &bindings))
                .expect("evaluates");
            prop_assert_eq!(reused, fresh, "{} with {:?} on {:?}", f, bindings, db);
            let ground = fo::holds(&db, &omega, &instantiate_params(&f, &bindings))
                .expect("evaluates");
            prop_assert_eq!(reused, ground, "{} with {:?} on {:?}", f, bindings, db);
        }
    }

    /// A plan run on a database over another schema — other names, other
    /// arities, another order — is an error, never a verdict.
    #[test]
    fn a_schema_mismatch_is_an_error(fseed in 0u64..100_000, gseed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(fseed ^ 0x77);
        let f = random_formula(&mut rng, 3, &mut Vec::new());
        let db = two_relation_state(gseed);
        let plan = Plan::compile(db.schema(), &f, &[]).expect("well-formed");
        let omega = Omega::empty();
        let bindings = random_bindings(&mut rng);
        for schema in [
            Schema::graph(),
            Schema::new([("R1", 2), ("R0", 2)]),
            Schema::new([("R0", 2), ("R1", 3)]),
            Schema::new([("R0", 2), ("R1", 2), ("R2", 2)]),
        ] {
            let other = Database::empty(schema);
            prop_assert!(plan.eval(&other, &omega, &bindings).is_err(),
                "{} ran on {:?}", f, other);
        }
        prop_assert!(plan.eval(&db, &omega, &bindings).is_ok());
    }
}
