//! Property-based tests of the paper's central equivalences, end to end:
//!
//! * **Theorem 8 / Proposition 3**: for every compiled update program `T`
//!   and sentence γ, `D ⊨ WPC[γ] ⟺ T(D) ⊨ γ`;
//! * compilation preserves semantics: the prerelation description and the
//!   operational program semantics produce identical databases;
//! * symbolic composition = sequential application;
//! * `Guarded(T, wpc(T,α))` and `RuntimeChecked(T, α)` accept exactly the
//!   same states and produce identical results;
//! * Δ composition across a `Seq` of tuple updates: on every `α`-state the
//!   compiled fast guard of a multi-statement program decides like
//!   `T(D) ⊨ α`, for the template and the ground compilation alike, and
//!   the exact wpc (`exact_wpc`) does so on every state.

use proptest::prelude::*;
use rand::SeedableRng;
use vpdt::core::prerelations::compile_program;
use vpdt::core::safe::{compile_guard, compile_guard_template, exact_wpc, Guarded, RuntimeChecked};
use vpdt::core::workload::{random_batch, random_sentence};
use vpdt::core::wpc::{compose, wpc_sentence};
use vpdt::eval::{holds, Omega};
use vpdt::logic::subst::instantiate_params;
use vpdt::logic::{parse_formula, Elem, Formula, Schema};
use vpdt::structure::{families, Database};
use vpdt::tx::program::{Program, ProgramTransaction};
use vpdt::tx::traits::{Transaction, TxError};

fn program(seed: u64, len: usize) -> Program {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    random_batch(&mut rng, 4, len)
}

fn graph(seed: u64, n: usize) -> Database {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    families::random_graph(n, 0.4, &mut rng)
}

fn sentence(seed: u64, depth: usize) -> Formula {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x51f1);
    random_sentence(&mut rng, depth)
}

/// Three binary relations under a functional dependency each, plus the
/// cross-relation exclusion `R0 ∩ R1 = ∅`.
fn fd_schema_and_alpha() -> (Schema, Formula) {
    let schema = Schema::new([("R0", 2), ("R1", 2), ("R2", 2)]);
    let alpha = parse_formula(
        "(forall x y z. R0(x, y) & R0(x, z) -> y = z) \
         & (forall x y z. R1(x, y) & R1(x, z) -> y = z) \
         & (forall x y z. R2(x, y) & R2(x, z) -> y = z) \
         & (forall x y. R0(x, y) -> !R1(x, y))",
    )
    .expect("parses");
    (schema, alpha)
}

/// A ground program of `steps` tuple inserts and deletes over the three
/// relations, with constants drawn from `0..6` — wider than the states'
/// `0..4`, so some bindings fall outside the active domain.
fn update_steps(seed: u64, steps: usize) -> Program {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e9);
    Program::seq((0..steps).map(|_| {
        let rel = format!("R{}", rng.gen_range(0..3));
        let tuple = [rng.gen_range(0..6u64), rng.gen_range(0..6u64)];
        if rng.gen_bool(0.5) {
            Program::insert_consts(rel, tuple)
        } else {
            Program::delete_consts(rel, tuple)
        }
    }))
}

/// A ground program of one tuple insert or delete per relation
/// `R0..R{rels-1}`, in a random order, with constants drawn from `0..6`.
fn one_step_per_relation(seed: u64, rels: usize) -> Program {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x4e1);
    let mut order: Vec<usize> = (0..rels).collect();
    for i in (1..rels).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    Program::seq(order.into_iter().map(|r| {
        let tuple = [rng.gen_range(0..6u64), rng.gen_range(0..6u64)];
        if rng.gen_bool(0.5) {
            Program::insert_consts(format!("R{r}"), tuple)
        } else {
            Program::delete_consts(format!("R{r}"), tuple)
        }
    }))
}

/// A sparse random state over the schema's relations and values `0..4`,
/// sometimes with an isolated domain element beyond the active domain.
fn fd_state(seed: u64, schema: &Schema) -> Database {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfd);
    let mut db = Database::empty(schema.clone());
    for (rel, _) in schema.iter() {
        for _ in 0..rng.gen_range(0..4) {
            db.insert(
                rel,
                vec![Elem(rng.gen_range(0..4)), Elem(rng.gen_range(0..4))],
            );
        }
    }
    if rng.gen_bool(0.3) {
        db.add_domain_elem(Elem(rng.gen_range(4..8)));
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compilation to prerelations is semantics-preserving.
    #[test]
    fn compile_preserves_semantics(pseed in 0u64..3000, gseed in 0u64..3000,
                                   len in 1usize..4, n in 0usize..5) {
        let schema = Schema::graph();
        let omega = Omega::empty();
        let p = program(pseed, len);
        let pre = compile_program("w", &p, &schema, &omega).expect("compiles");
        let direct = ProgramTransaction::new("w", p, omega.clone());
        let db = graph(gseed, n);
        prop_assert_eq!(
            pre.apply(&db).expect("prerelation applies"),
            direct.apply(&db).expect("program applies")
        );
    }

    /// The fundamental theorem: D ⊨ WPC[γ] ⟺ T(D) ⊨ γ.
    #[test]
    fn wpc_is_weakest_precondition(pseed in 0u64..3000, fseed in 0u64..3000,
                                   gseed in 0u64..3000, n in 0usize..5) {
        let schema = Schema::graph();
        let omega = Omega::empty();
        let p = program(pseed, 2);
        let pre = compile_program("w", &p, &schema, &omega).expect("compiles");
        let gamma = sentence(fseed, 3);
        let w = wpc_sentence(&pre, &gamma).expect("translates");
        let db = graph(gseed, n);
        let lhs = holds(&db, &omega, &w).expect("wpc evaluates");
        let rhs = holds(&pre.apply(&db).expect("applies"), &omega, &gamma)
            .expect("gamma evaluates");
        prop_assert_eq!(lhs, rhs, "γ = {} on {:?}", gamma, db);
    }

    /// compose(T1, T2) behaves as T2 ∘ T1.
    #[test]
    fn composition_is_sequential_application(s1 in 0u64..3000, s2 in 0u64..3000,
                                             gseed in 0u64..3000, n in 0usize..5) {
        let schema = Schema::graph();
        let omega = Omega::empty();
        let first = compile_program("a", &program(s1, 1), &schema, &omega).expect("compiles");
        let second = compile_program("b", &program(s2, 1), &schema, &omega).expect("compiles");
        let composed = compose(&first, &second).expect("composes");
        let db = graph(gseed, n);
        let sequential = second
            .apply(&first.apply(&db).expect("first applies"))
            .expect("second applies");
        prop_assert_eq!(composed.apply(&db).expect("composed applies"), sequential);
    }

    /// Static guarding and dynamic checking accept the same states and
    /// agree on results — the introduction's `if wpc then T else abort`
    /// equivalence.
    #[test]
    fn guarded_equals_runtime_checked(pseed in 0u64..3000, fseed in 0u64..3000,
                                      gseed in 0u64..3000, n in 0usize..5) {
        let schema = Schema::graph();
        let omega = Omega::empty();
        let pre = compile_program("w", &program(pseed, 2), &schema, &omega).expect("compiles");
        let alpha = sentence(fseed, 3);
        let w = wpc_sentence(&pre, &alpha).expect("translates");
        let guarded = Guarded::new(pre.clone(), w, omega.clone());
        let checked = RuntimeChecked::new(pre, alpha, omega.clone());
        let db = graph(gseed, n);
        match (guarded.apply(&db), checked.apply(&db)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(TxError::Aborted(_)), Err(TxError::Aborted(_))) => {}
            other => prop_assert!(false, "strategies diverged: {:?}", other),
        }
    }

}

proptest! {
    // Each case builds the template's exact wpc as the oracle; that costs
    // about a second unoptimized for a two-step program over this schema,
    // and a third step multiplies it by ~40, so the programs stay at two
    // steps — one before and one after the step each conjunct's residue
    // comes from.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Residue composition across a `Seq`: for random two-step update
    /// programs, the template's instantiated fast guard agrees with the
    /// ground fast guard and with `T(D) ⊨ α` on every `α`-state, and the
    /// template's exact wpc, instantiated, and the ground program's are
    /// exact on every state.
    #[test]
    fn seq_fast_guard_decides_like_the_post_state(pseed in 0u64..5000, dseed in 0u64..5000) {
        let (schema, alpha) = fd_schema_and_alpha();
        let omega = Omega::empty();
        let ground = update_steps(pseed, 2);
        let (template, bindings) =
            vpdt::tx::template::canonicalize(&ground).expect("canonicalizes");
        let shape = compile_guard_template("tpl", &template, &alpha, &schema, &omega)
            .expect("template compiles");
        let direct = compile_guard("gnd", &ground, &alpha, &schema, &omega).expect("compiles");
        let fast = shape.instantiate_fast(&bindings);
        let wpc = instantiate_params(
            &exact_wpc(template.shape(), &alpha, &schema, &omega).expect("translates"),
            &bindings,
        );
        let ground_wpc = exact_wpc(&ground, &alpha, &schema, &omega).expect("translates");
        for i in 0..16 {
            let db = fd_state(dseed.wrapping_mul(16).wrapping_add(i), &schema);
            let post = ground.run(&db, &omega).expect("program runs");
            let expect = holds(&post, &omega, &alpha).expect("alpha evaluates");
            prop_assert_eq!(holds(&db, &omega, &wpc).expect("wpc evaluates"), expect,
                "wpc of {:?} on {:?}", ground, db);
            prop_assert_eq!(holds(&db, &omega, &ground_wpc).expect("wpc evaluates"), expect,
                "ground wpc of {:?} on {:?}", ground, db);
            if !holds(&db, &omega, &alpha).expect("alpha evaluates") {
                continue;
            }
            prop_assert_eq!(holds(&db, &omega, &fast).expect("fast evaluates"), expect,
                "template fast guard {} of {:?} on {:?}", fast, ground, db);
            prop_assert_eq!(holds(&db, &omega, &direct.fast).expect("fast evaluates"), expect,
                "ground fast guard {} of {:?} on {:?}", direct.fast, ground, db);
        }
    }
}

/// A functional dependency on each of `R0..R{rels-1}`.
fn fd_only_schema_and_alpha(rels: usize) -> (Schema, Formula) {
    let schema = Schema::new((0..rels).map(|i| (format!("R{i}"), 2)));
    let alpha = Formula::and((0..rels).map(|i| {
        parse_formula(&format!("forall x y z. R{i}(x, y) & R{i}(x, z) -> y = z")).expect("parses")
    }));
    (schema, alpha)
}

proptest! {
    // No wpc is built here: every conjunct is written by exactly one step,
    // so each gets that step's Δ and compilation is residue-only. A wpc
    // oracle for four steps would be out of reach (see above); the
    // post-state is the oracle instead.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Four-step programs writing four different relations: the template's
    /// instantiated fast guard and the ground fast guard both decide
    /// `T(D) ⊨ α` on every `α`-state.
    #[test]
    fn four_step_fast_guard_decides_like_the_post_state(pseed in 0u64..5000,
                                                        dseed in 0u64..5000) {
        let (schema, alpha) = fd_only_schema_and_alpha(4);
        let omega = Omega::empty();
        let ground = one_step_per_relation(pseed, 4);
        let (template, bindings) =
            vpdt::tx::template::canonicalize(&ground).expect("canonicalizes");
        let shape = compile_guard_template("tpl", &template, &alpha, &schema, &omega)
            .expect("template compiles");
        let direct = compile_guard("gnd", &ground, &alpha, &schema, &omega).expect("compiles");
        let fast = shape.instantiate_fast(&bindings);
        for i in 0..16 {
            let db = fd_state(dseed.wrapping_mul(16).wrapping_add(i), &schema);
            if !holds(&db, &omega, &alpha).expect("alpha evaluates") {
                continue;
            }
            let post = ground.run(&db, &omega).expect("program runs");
            let expect = holds(&post, &omega, &alpha).expect("alpha evaluates");
            prop_assert_eq!(holds(&db, &omega, &fast).expect("fast evaluates"), expect,
                "template fast guard {} of {:?} on {:?}", fast, ground, db);
            prop_assert_eq!(holds(&db, &omega, &direct.fast).expect("fast evaluates"), expect,
                "ground fast guard {} of {:?} on {:?}", direct.fast, ground, db);
        }
    }
}
