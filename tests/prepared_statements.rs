//! Prepared statements end to end: template compilation is equivalent to
//! ground compilation (property-tested over random programs and databases),
//! the shape-keyed cache evicts and recompiles correctly under a tight LRU
//! bound, and audits verify histories whose shapes were evicted — and
//! reject histories with forged statement provenance.

use proptest::prelude::*;
use std::collections::BTreeMap;
use vpdt::core::safe::{compile_guard, exact_wpc};
use vpdt::eval::{holds, Omega};
use vpdt::logic::formula::NumTerm;
use vpdt::logic::subst::instantiate_params;
use vpdt::logic::{Elem, Formula, Schema, Term, Var};
use vpdt::store::{audit, workload, Event, GuardCache, StoreBuilder, TxOutcome};
use vpdt::structure::Database;
use vpdt::tx::program::{Program, ProgramTransaction};
use vpdt::tx::template::{canonicalize, fingerprint};
use vpdt::tx::traits::Transaction;

fn schema2() -> Schema {
    Schema::new([("E", 2), ("F", 2)])
}

fn fd2() -> Formula {
    vpdt::logic::parse_formula(
        "(forall x y z. E(x, y) & E(x, z) -> y = z) \
         & (forall x y z. F(x, y) & F(x, z) -> y = z)",
    )
    .expect("parses")
}

fn step(kind: u64, a: u64, b: u64) -> Program {
    let rel = if kind & 1 == 0 { "E" } else { "F" };
    if kind & 2 == 0 {
        Program::insert_consts(rel, [a, b])
    } else {
        Program::delete_consts(rel, [a, b])
    }
}

/// A random single-step or two-step ground program over {E, F}.
fn arb_program() -> impl Strategy<Value = Program> {
    let single = (0u64..4, 0u64..5, 0u64..5).prop_map(|(k, a, b)| step(k, a, b));
    let double = (0u64..4, 0u64..4, 0u64..5, 0u64..5, 0u64..5)
        .prop_map(|(k1, k2, a, b, c)| Program::seq([step(k1, a, b), step(k2, b, c)]));
    prop_oneof![3 => single, 1 => double]
}

/// A random database over {E, F} (not necessarily consistent with the fd),
/// expanded deterministically from a seed (the vendored proptest stand-in
/// has no collection strategies).
fn arb_db() -> impl Strategy<Value = Database> {
    (0u64..1_000_000, 0usize..8).prop_map(|(seed, n)| {
        let mut db = Database::empty(schema2());
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z
        };
        for _ in 0..n {
            let rel = if next() & 1 == 0 { "E" } else { "F" };
            let (a, b) = (next() % 5, next() % 5);
            db.insert(rel, vec![Elem(a), Elem(b)]);
        }
        db
    })
}

proptest! {
    // Each case compiles two guards (ground + template); two-step programs
    // compose prerelations symbolically, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: for a random ground program, compiling its
    /// canonicalized template and substituting the bindings decides exactly
    /// like compiling the ground program directly — and both agree with the
    /// semantic ground truth `T(D) ⊨ α` on consistent states (the fast
    /// guard's contract) and everywhere for the full wpc.
    #[test]
    fn template_guard_equals_ground_guard(program in arb_program(), db1 in arb_db(), db2 in arb_db()) {
        let dbs = [db1, db2];
        let schema = schema2();
        let alpha = fd2();
        let omega = Omega::empty();
        let ground = compile_guard("gnd", &program, &alpha, &schema, &omega).expect("compiles");
        let (template, bindings) = canonicalize(&program).expect("canonicalizes");
        let shape = vpdt::core::safe::compile_guard_template("tpl", &template, &alpha, &schema, &omega)
            .expect("template compiles");
        let fast = shape.instantiate_fast(&bindings);
        let wpc = instantiate_params(
            &exact_wpc(template.shape(), &alpha, &schema, &omega).expect("translates"),
            &bindings,
        );
        let ground_wpc = exact_wpc(&program, &alpha, &schema, &omega).expect("translates");
        for db in &dbs {
            // full wpc: exact on every state
            let by_template = holds(db, &omega, &wpc).expect("evaluates");
            let by_ground = holds(db, &omega, &ground_wpc).expect("evaluates");
            let out = ProgramTransaction::new("t", program.clone(), omega.clone())
                .apply(db)
                .expect("applies");
            let truth = holds(&out, &omega, &alpha).expect("evaluates");
            prop_assert_eq!(by_template, by_ground, "wpc diverges on {:?}", db);
            prop_assert_eq!(by_template, truth, "wpc is not exact on {:?}", db);
            // fast guard: equivalent on states satisfying the invariant
            if holds(db, &omega, &alpha).expect("evaluates") {
                let fast_template = holds(db, &omega, &fast).expect("evaluates");
                let fast_ground = holds(db, &omega, &ground.fast).expect("evaluates");
                prop_assert_eq!(fast_template, fast_ground, "fast guards diverge on {:?}", db);
                prop_assert_eq!(fast_template, truth, "accept/abort decision wrong on {:?}", db);
            }
        }
    }
}

/// Builds a random program over {E, F} from three independent inputs: the
/// `structure` seed picks statements, connectives and relations; the
/// `consts` seed picks every element constant and numeric literal (from a
/// small range, so constants repeat); `names` spells the three variables.
/// Nesting stays one level deep (an `If` or `Seq` of single statements):
/// deeper conditionals take the guard compiler seconds.
/// Programs equal in `structure` are one shape; equal in `structure` and
/// `names`, they differ only in constants. With `poison = Some(k)`, the
/// `k`-th constant becomes a placeholder instead.
struct ProgramGen {
    structure: u64,
    consts: u64,
    names: [&'static str; 3],
    poison: Option<usize>,
    drawn: usize,
}

fn xorshift(z: &mut u64) -> u64 {
    *z ^= *z << 13;
    *z ^= *z >> 7;
    *z ^= *z << 17;
    *z
}

impl ProgramGen {
    fn new(structure: u64, consts: u64, names: [&'static str; 3], poison: Option<usize>) -> Self {
        ProgramGen {
            structure: structure.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            consts: consts.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1,
            names,
            poison,
            drawn: 0,
        }
    }

    fn pick(&mut self, n: u64) -> u64 {
        xorshift(&mut self.structure) % n
    }

    /// Whether the next constant is the poisoned one (and counts it).
    fn poisoned(&mut self) -> bool {
        self.drawn += 1;
        self.poison == Some(self.drawn - 1)
    }

    fn elem(&mut self) -> Term {
        let value = xorshift(&mut self.consts) % 3;
        if self.poisoned() {
            Term::param(0)
        } else {
            Term::cst(value)
        }
    }

    fn lit(&mut self) -> NumTerm {
        let value = 1 + xorshift(&mut self.consts) % 3;
        if self.poisoned() {
            NumTerm::Param(0)
        } else {
            NumTerm::Lit(value)
        }
    }

    fn rel(&mut self) -> &'static str {
        ["E", "F"][self.pick(2) as usize]
    }

    fn var(&self, i: usize) -> Term {
        Term::var(self.names[i])
    }

    /// A condition over the two statement variables.
    fn condition(&mut self) -> Formula {
        let (x, y) = (self.var(0), self.var(1));
        match self.pick(3) {
            0 => Formula::and([Formula::eq(x, self.elem()), Formula::eq(y, self.elem())]),
            1 => {
                let rel = self.rel();
                let z = self.names[2];
                Formula::and([
                    Formula::eq(y, self.elem()),
                    Formula::exists(
                        z,
                        Formula::and([
                            Formula::rel(rel, [x, Term::var(z)]),
                            Formula::neq(Term::var(z), self.elem()),
                        ]),
                    ),
                ])
            }
            _ => {
                let rel = self.rel();
                Formula::and([
                    Formula::NumLe(self.lit(), NumTerm::Max),
                    Formula::rel(rel, [x.clone(), y]),
                    Formula::eq(x, self.elem()),
                ])
            }
        }
    }

    /// A sentence for an `If`: a counting or an existential test.
    fn sentence(&mut self) -> Formula {
        let rel = self.rel();
        let z = self.names[2];
        if self.pick(2) == 0 {
            let bound = self.lit();
            Formula::count_ge(bound, z, Formula::rel(rel, [Term::var(z), self.elem()]))
        } else {
            Formula::exists(z, Formula::rel(rel, [self.elem(), Term::var(z)]))
        }
    }

    fn program(&mut self, depth: u32) -> Program {
        match self.pick(if depth == 0 { 2 } else { 4 }) {
            0 => {
                let rel = self.rel();
                Program::Insert {
                    rel: rel.into(),
                    tuple: vec![self.elem(), self.elem()],
                }
            }
            1 => {
                let rel = self.rel();
                Program::DeleteWhere {
                    rel: rel.into(),
                    vars: vec![Var::new(self.names[0]), Var::new(self.names[1])],
                    cond: self.condition(),
                }
            }
            2 => Program::seq([self.program(depth - 1), self.program(depth - 1)]),
            _ => Program::If {
                cond: self.sentence(),
                then_p: Box::new(self.program(depth - 1)),
                else_p: Box::new(self.program(depth - 1)),
            },
        }
    }
}

/// A cache whose constraint constrains only `G`, which the random
/// programs never touch: every guard compiles to `true` at once, so the
/// property below exercises the lookup, not the guard compiler (which
/// the property above covers).
fn lookup_cache() -> GuardCache {
    GuardCache::new(
        Schema::new([("E", 2), ("F", 2), ("G", 2)]),
        vpdt::logic::parse_formula("forall x y z. G(x, y) & G(x, z) -> y = z").expect("parses"),
        Omega::empty(),
    )
}

fn random_program(
    structure: u64,
    consts: u64,
    names: [&'static str; 3],
    poison: Option<usize>,
) -> Program {
    ProgramGen::new(structure, consts, names, poison).program(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache's fast lookup agrees with `canonicalize` over random
    /// programs with `If`, `Seq`, counting literals, repeated constants and
    /// alpha-variant spellings: the same bindings, the shape id the
    /// registry holds for the canonical template, one compilation per
    /// shape however it is spelled, and placeholders still refused.
    #[test]
    fn fast_lookup_agrees_with_canonicalize(structure in 0u64..1_000_000, c1 in 0u64..1_000_000, c2 in 0u64..1_000_000) {
        let cache = lookup_cache();
        let spelled = random_program(structure, c1, ["x", "y", "z"], None);
        let programs = [
            spelled.clone(),
            // the same spelling with other constants: a hit on its entry
            random_program(structure, c2, ["x", "y", "z"], None),
            // an alpha-variant: its own entry, the same compilation
            random_program(structure, c2, ["p", "q", "r"], None),
            // the first program again
            spelled,
        ];
        let mut ids = Vec::new();
        for program in &programs {
            let (template, bindings) = canonicalize(program).expect("canonicalizes");
            let (_, fast) = fingerprint(program).expect("a ground program fingerprints");
            prop_assert_eq!(&fast, &bindings, "fingerprint bindings of {:?}", program);
            // Some shapes have no guard (a counting condition before a
            // later step); that is decided by the shape, for every spelling.
            let Ok(prepared) = cache.get_or_compile(program) else {
                ids.push(None);
                continue;
            };
            prop_assert_eq!(&prepared.bindings, &bindings);
            prop_assert_eq!(&cache.templates()[&prepared.shape.id], &template);
            prop_assert_eq!(&prepared.shape.template, &template);
            ids.push(Some(prepared.shape.id));
        }
        prop_assert!(ids.iter().all(|&id| id == ids[0]), "one shape: {:?}", ids);
        let stats = cache.per_shape_stats();
        if ids[0].is_some() {
            prop_assert_eq!(stats.len(), 1);
            prop_assert_eq!(stats[0].compiles, 1, "alpha-variants share one compilation");
            prop_assert_eq!(cache.stats(), (3, 1));
        } else {
            prop_assert_eq!(stats.len(), 0, "a shape that does not compile is not registered");
        }

        let constants = canonicalize(&programs[0]).expect("canonicalizes").1.len();
        if constants > 0 {
            let poisoned = random_program(structure, c1, ["x", "y", "z"], Some(c2 as usize % constants));
            prop_assert!(fingerprint(&poisoned).is_none());
            prop_assert!(cache.get_or_compile(&poisoned).is_err(), "placeholder accepted in {:?}", poisoned);
        }
    }
}

/// Fill the cache past its LRU bound through a served run: evicted shapes
/// recompile, and the audit still verifies the history even though most
/// compilations are long gone — shape *identities* are never evicted.
#[test]
fn eviction_recompiles_and_audit_survives() {
    const RELS: usize = 4;
    const UNIVERSE: u64 = 4;
    let alpha = workload::sharded_fd_constraint(RELS);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(3, RELS, UNIVERSE, 0.5);
    // the menu has 2 shapes per relation = 8 shapes; cap the cache at 3
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .guard_cache_capacity(3)
        .workers(4)
        .build()
        .expect("initial state satisfies the constraint");
    let jobs = workload::sharded_jobs(3, 4, 60, RELS, UNIVERSE);
    let programs = workload::serve_chunked(&server, &jobs, 60);
    let report = server.shutdown();
    assert_eq!(report.exec.failed, 0, "{:?}", report.exec);
    assert!(report.exec.committed > 0);

    let stats = report.cache;
    assert_eq!(stats.shapes, 2 * RELS, "every menu shape was seen");
    assert!(stats.entries <= 3, "LRU bound holds: {stats:?}");
    assert!(stats.evictions > 0, "the bound forced evictions: {stats:?}");
    assert!(
        stats.misses > stats.shapes as u64,
        "evicted shapes recompiled: {stats:?}"
    );

    // identities survive eviction: the audit resolves every shape
    assert_eq!(report.templates.len(), 2 * RELS);
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &report.events,
        &programs,
        &report.templates,
    );
    assert!(verdict.ok(), "{verdict}");
    assert_eq!(verdict.commits_checked, report.exec.committed);
}

/// Forged statement provenance is rejected: a commit whose recorded
/// bindings do not instantiate to the submitted program, or whose shape id
/// is unknown, draws a concrete complaint.
#[test]
fn audit_rejects_forged_provenance() {
    let alpha = workload::sharded_fd_constraint(2);
    let omega = Omega::empty();
    let initial = workload::sharded_initial(5, 2, 4, 0.4);
    let server = StoreBuilder::new(initial.clone(), alpha.clone())
        .omega(omega.clone())
        .workers(1)
        .build()
        .expect("initial state satisfies the constraint");
    let session = server.session();
    let mut programs = BTreeMap::new();
    for program in [
        Program::insert_consts("R0", [3, 3]),
        Program::insert_consts("R1", [2, 0]),
    ] {
        let ticket = session.submit(program.clone());
        ticket.wait();
        programs.insert(ticket.id(), program);
    }
    let report = server.shutdown();
    assert!(report.exec.committed > 0, "{:?}", report.exec);

    // forge the bindings of the first commit
    let mut events = report.events.clone();
    let pos = events
        .iter()
        .position(|e| matches!(e, Event::Commit { .. }))
        .expect("has a commit");
    if let Event::Commit { bindings, .. } = &mut events[pos] {
        bindings[0] = Elem(bindings[0].0 + 1);
    }
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(!verdict.ok(), "forged bindings must not verify");
    assert!(
        verdict
            .problems
            .iter()
            .any(|p| p.contains("instantiates to") || p.contains("bindings")),
        "the complaint names the provenance: {verdict}"
    );

    // forged provenance on a *Begin* event is caught too (this covers
    // transactions that abort and therefore never reach a commit check)
    let mut events = report.events.clone();
    let begin_pos = events
        .iter()
        .position(|e| matches!(e, Event::Begin { .. }))
        .expect("has a begin");
    if let Event::Begin { bindings, .. } = &mut events[begin_pos] {
        bindings[0] = Elem(bindings[0].0 + 1);
    }
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(!verdict.ok(), "forged begin provenance must not verify");

    // an unknown shape id is caught too
    let mut events = report.events.clone();
    if let Event::Commit { shape, .. } = &mut events[pos] {
        *shape = 999;
    }
    let verdict = audit(
        &alpha,
        &omega,
        &initial,
        &report.final_db,
        &events,
        &programs,
        &report.templates,
    );
    assert!(!verdict.ok(), "unknown shapes must not verify");
    assert!(verdict
        .problems
        .iter()
        .any(|p| p.contains("unknown statement shape")));
}

/// Relation-sharded storage under a served commit: committing a
/// transaction that writes only R0 leaves the new version's R1 the *same
/// `Arc`* as the previous version's — copy-on-write cloning and the commit
/// path never copy an untouched relation's tuples. (The stale-but-disjoint
/// merge path asserts the same pointer sharing in `snapshot.rs`'s unit
/// tests.)
#[test]
fn disjoint_merges_swap_pointers_under_the_executor() {
    let alpha = workload::sharded_fd_constraint(2);
    let mut initial = Database::empty(workload::sharded_schema(2));
    initial.insert("R0", vec![Elem(0), Elem(1)]);
    initial.insert("R1", vec![Elem(2), Elem(3)]);
    let server = StoreBuilder::new(initial, alpha)
        .workers(1)
        .build()
        .expect("initial state satisfies the constraint");
    let before = server.snapshot();
    let outcome = server
        .session()
        .submit_sync(Program::insert_consts("R0", [4, 0]));
    assert_eq!(outcome, TxOutcome::Committed { version: 1 });
    let after = server.snapshot();
    // R1 was not written: the new version's R1 is the old version's R1
    assert!(after.db.shares_rel(&before.db, "R1"));
    assert!(!after.db.shares_rel(&before.db, "R0"));
}
