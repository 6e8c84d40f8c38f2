//! Safe transactions: the integrity-maintenance transforms of Section 1.
//!
//! Given a transaction `T` and a constraint `α`, the paper's programme
//! replaces `T` by
//!
//! ```text
//! if wpc(T, α) then T else abort
//! ```
//!
//! which *preserves `α` by construction* and never needs a rollback
//! ([`Guarded`]). The baseline it displaces is deferred checking: run `T`,
//! test `α` on the result, and roll the transaction back on violation
//! ([`RuntimeChecked`]). Both are [`Transaction`]s that accept exactly the
//! same inputs and produce identical outputs — a fact the tests exploit as
//! an end-to-end check of the wpc algorithms — but their *costs* differ,
//! which is what the `guard_vs_rollback` bench measures.

use crate::prerelations::{compile_program, CompileError};
use crate::simplify::{deletion_preserves, delta_for_insert_terms};
use crate::wpc::{check_translatable, wpc_sentence, WpcError};
use std::collections::BTreeSet;
use vpdt_eval::{holds, Omega};
use vpdt_logic::domain::{is_domain_independent, is_domain_independent_parametric};
use vpdt_logic::subst::instantiate_params;
use vpdt_logic::{Elem, Formula, Schema, Term};
use vpdt_structure::Database;
use vpdt_tx::program::Program;
use vpdt_tx::template::Template;
use vpdt_tx::traits::{Transaction, TxError};

/// `if pre then T else abort` — the statically verified transaction.
#[derive(Clone, Debug)]
pub struct Guarded<T> {
    inner: T,
    precondition: Formula,
    omega: Omega,
}

impl<T: Transaction> Guarded<T> {
    /// Wraps `inner` behind a precondition (typically `wpc(inner, α)`).
    pub fn new(inner: T, precondition: Formula, omega: Omega) -> Self {
        assert!(
            precondition.is_sentence(),
            "a precondition must be a sentence"
        );
        Guarded {
            inner,
            precondition,
            omega,
        }
    }

    /// The guard sentence.
    pub fn precondition(&self) -> &Formula {
        &self.precondition
    }
}

impl<T: Transaction> Transaction for Guarded<T> {
    fn name(&self) -> String {
        format!("guarded({})", self.inner.name())
    }

    fn apply(&self, db: &Database) -> Result<Database, TxError> {
        if holds(db, &self.omega, &self.precondition)? {
            self.inner.apply(db)
        } else {
            Err(TxError::Aborted(format!(
                "precondition of {} failed",
                self.inner.name()
            )))
        }
    }
}

/// Run `T`, verify `α` on the result, roll back on violation — the
/// deferred-checking baseline (with its "potentially expensive roll-back").
#[derive(Clone, Debug)]
pub struct RuntimeChecked<T> {
    inner: T,
    constraint: Formula,
    omega: Omega,
}

impl<T: Transaction> RuntimeChecked<T> {
    /// Wraps `inner` with a post-hoc constraint check.
    pub fn new(inner: T, constraint: Formula, omega: Omega) -> Self {
        assert!(constraint.is_sentence(), "a constraint must be a sentence");
        RuntimeChecked {
            inner,
            constraint,
            omega,
        }
    }

    /// The constraint sentence.
    pub fn constraint(&self) -> &Formula {
        &self.constraint
    }
}

impl<T: Transaction> Transaction for RuntimeChecked<T> {
    fn name(&self) -> String {
        format!("runtime-checked({})", self.inner.name())
    }

    fn apply(&self, db: &Database) -> Result<Database, TxError> {
        // The snapshot is the rollback cost the wpc approach avoids: a
        // deferred checker must be able to restore the pre-state.
        let snapshot = db.clone();
        let out = self.inner.apply(db)?;
        if holds(&out, &self.omega, &self.constraint)? {
            Ok(out)
        } else {
            drop(snapshot); // rollback: discard the new state
            Err(TxError::Aborted(format!(
                "constraint violated after {}; rolled back",
                self.inner.name()
            )))
        }
    }
}

/// Errors from [`compile_guard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardError {
    /// The program does not compile to a prerelation description.
    Compile(CompileError),
    /// The wpc translation failed (counting constructs, unknown relation).
    Wpc(WpcError),
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::Compile(e) => write!(f, "{e}"),
            GuardError::Wpc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GuardError {}

impl From<CompileError> for GuardError {
    fn from(e: CompileError) -> Self {
        GuardError::Compile(e)
    }
}

impl From<WpcError> for GuardError {
    fn from(e: WpcError) -> Self {
        GuardError::Wpc(e)
    }
}

/// A transaction compiled once into what a server needs to run it
/// statically guarded: the guard it evaluates per transaction and the
/// read/write relation footprints used for conflict detection.
///
/// Produced by [`compile_guard`]; consumed by `vpdt-store`'s guard cache.
/// The exact `wpc(T, α)` of Theorem 8 is [`exact_wpc`].
#[derive(Clone, Debug)]
pub struct GuardCompilation {
    /// The guard: per conjunct of `α` the transaction can disturb, the Δ
    /// of Section 6 where one is derivable (Nicolas-style insertion
    /// residues, anti-monotone deletions, composed across a `Seq` of tuple
    /// updates — a cross-shard move keeps a single insert's guard size),
    /// that conjunct's `wpc` otherwise. Equivalent to [`exact_wpc`] on
    /// states satisfying `α` (see [`compile_guard`]).
    pub fast: Formula,
    /// Relations whose old contents the guard or the program consult.
    pub reads: BTreeSet<String>,
    /// Relations the program may modify.
    pub writes: BTreeSet<String>,
    /// Whether guard and conditions are domain-independent, so evaluating
    /// them against a snapshot that differs only in *other* relations (and
    /// hence in isolated domain elements) is exact. For a template
    /// compilation the analysis runs parametrically
    /// ([`is_domain_independent_parametric`]), so the verdict covers every
    /// instantiation of the placeholders.
    pub domain_independent: bool,
}

impl GuardCompilation {
    /// Instantiates the guard ([`fast`](Self::fast)) with a prepared
    /// statement's bindings — the per-transaction step of a template
    /// compilation. One structural walk; no recompilation.
    pub fn instantiate_fast(&self, bindings: &[Elem]) -> Formula {
        instantiate_params(&self.fast, bindings)
    }
}

/// Compiles `program` once into a [`GuardCompilation`] for the constraint
/// `α` — the static-verification analogue of preparing a statement.
///
/// The invariant-aware simplification of Section 6 (after Nicolas and
/// Qian), per conjunct `αᵢ` of `α`: an untouched domain-independent
/// conjunct gets no guard (see `preserved_untouched`), one a Δ covers gets
/// the Δ (see `fast_guard_for` for the three gates), and only the rest get
/// `wpc(T, αᵢ)`, compiling `T`'s prerelation once, on first use. Hence if
/// `D ⊨ α` then `D ⊨ fast ⟺ T(D) ⊨ α`. Refuses exactly what [`exact_wpc`]
/// refuses, with the same error, whether or not a Δ covers the conjunct.
pub fn compile_guard(
    label: impl Into<String>,
    program: &Program,
    alpha: &Formula,
    schema: &Schema,
    omega: &Omega,
) -> Result<GuardCompilation, GuardError> {
    assert!(alpha.is_sentence(), "a constraint must be a sentence");
    let label = label.into();
    let compile = || compile_program(label.as_str(), program, schema, omega);
    let steps = as_update_steps(program);
    // No Δ applies to a program that does not flatten into steps. A flat
    // one is compiled only for a conjunct without a Δ; until then, refuse
    // what compiling it would: a relation outside the schema, and a delete
    // condition the translation rejects where a `Seq` composes the steps.
    let mut pre = match &steps {
        None => Some(compile()?),
        Some(steps) => {
            let composed = matches!(program, Program::Seq(_));
            for step in steps {
                if !schema.contains(step.rel()) {
                    let e = CompileError(format!("unknown relation {}", step.rel()));
                    return Err(e.into());
                }
                if let (true, UpdateStep::Delete { cond, .. }) = (composed, step) {
                    check_translatable(schema, cond).map_err(|e| CompileError(e.to_string()))?;
                }
            }
            None
        }
    };

    let writes = program.touched_relations();
    let mut fast_parts = Vec::new();
    let mut reads: BTreeSet<String> = program.read_relations();
    let mut all_conjuncts_independent = true;
    for conjunct in alpha.conjuncts() {
        let independent = is_domain_independent(conjunct);
        all_conjuncts_independent &= independent;
        if preserved_untouched(conjunct, independent, &writes) {
            continue;
        }
        check_translatable(schema, conjunct)?;
        let delta = fast_guard_for(conjunct, steps.as_deref(), independent);
        let guard = match (delta, &mut pre) {
            (Some(delta), _) => delta,
            (None, Some(pre)) => wpc_sentence(pre, conjunct)?,
            (None, slot) => wpc_sentence(slot.insert(compile()?), conjunct)?,
        };
        fast_parts.push(guard);
        // The conjunct's own relations — not its wpc's, which mentions
        // every relation through Γ-relativization but by exactness only
        // depends on the conjunct's relations in the transaction's output.
        reads.extend(conjunct.relations_used());
    }
    let fast = Formula::and(fast_parts);
    reads.extend(writes.iter().cloned());

    // On `α`-states the guard decides `T(D) ⊨ αᵢ` for each kept conjunct,
    // so on snapshots agreeing on `reads` its verdict agrees exactly when
    // every αᵢ is domain-independent and the program never consults the
    // domain. Hence the check runs on α's conjuncts, never on a wpc. Program
    // conditions may contain prepared-statement placeholders (α never
    // does), so their analysis runs parametrically: a `true` verdict covers
    // every binding of the template.
    let domain_independent = all_conjuncts_independent
        && !program.enumerates_domain()
        && program
            .condition_formulas()
            .iter()
            .all(|c| is_domain_independent_parametric(c));

    Ok(GuardCompilation {
        fast,
        reads,
        writes,
        domain_independent,
    })
}

/// `wpc(T, α)` of Theorem 8 — `D ⊨ wpc ⟺ T(D) ⊨ α` on every `D` — as the
/// conjunction of the per-conjunct translations, where an untouched
/// domain-independent conjunct is its own (see `preserved_untouched`). The
/// oracle [`compile_guard`]'s guard is tested against; no server runs it.
pub fn exact_wpc(
    program: &Program,
    alpha: &Formula,
    schema: &Schema,
    omega: &Omega,
) -> Result<Formula, GuardError> {
    assert!(alpha.is_sentence(), "a constraint must be a sentence");
    let pre = compile_program("wpc", program, schema, omega)?;
    let writes = program.touched_relations();
    let parts = alpha.conjuncts().into_iter().map(|conjunct| {
        if preserved_untouched(conjunct, is_domain_independent(conjunct), &writes) {
            Ok(conjunct.clone())
        } else {
            wpc_sentence(&pre, conjunct)
        }
    });
    Ok(Formula::and(parts.collect::<Result<Vec<_>, _>>()?))
}

/// Whether `wpc(T, αᵢ) ≡ αᵢ` on every state because `T` writes none of the
/// conjunct's relations and, the conjunct being domain-independent, its
/// incidental domain changes cannot flip it. Skipping the `WPC[γ]` pass
/// there matters: its output grows steeply with the program's steps.
fn preserved_untouched(conjunct: &Formula, independent: bool, writes: &BTreeSet<String>) -> bool {
    independent && conjunct.relations_used().is_disjoint(writes)
}

/// Compiles a statement *template* once for all its instantiations: each
/// disturbed conjunct's Δ (or, where none applies, the prerelations and its
/// wpc) is derived over the shape's placeholder terms, and a concrete
/// transaction's guard is obtained by
/// [`GuardCompilation::instantiate_fast`] — a substitution whose cost is the
/// size of the (small) guard, independent of the domain.
///
/// **Why the one compilation covers every binding.** The pipeline treats
/// placeholders as opaque ground terms end to end: prerelation construction
/// and the `WPC[γ]` substitution never inspect a ground term's identity, the
/// structural simplifier folds `?i = ?i` to true (same binding index, always
/// equal) but never equates or distinguishes *different* placeholders, the
/// Δ derivation refuses when a unification decision would depend on the
/// binding ([`delta_for_insert_terms`]), and the domain-independence check
/// runs parametrically. So for every binding `b`:
/// `instantiate(compile(shape), b) ≡ compile(instantiate(shape, b))` — the
/// two sides may differ syntactically (ground compilation folds constant
/// equalities the template must keep symbolic) but decide identically on
/// every database, which is what the prepared-statement property tests
/// check end to end.
pub fn compile_guard_template(
    label: impl Into<String>,
    template: &Template,
    alpha: &Formula,
    schema: &Schema,
    omega: &Omega,
) -> Result<GuardCompilation, GuardError> {
    compile_guard(label, template.shape(), alpha, schema, omega)
}

/// One tuple-level step of a straight-line update program, for which the
/// Δ machinery of [`crate::simplify`] applies directly.
enum UpdateStep<'a> {
    /// An insert of constants and/or placeholders (the two symbolic ground
    /// forms [`delta_for_insert_terms`] can unify statically).
    Insert { rel: &'a str, tuple: &'a [Term] },
    /// A conditional delete (pure shrinkage of `rel`).
    Delete { rel: &'a str, cond: &'a Formula },
}

impl UpdateStep<'_> {
    fn rel(&self) -> &str {
        match self {
            UpdateStep::Insert { rel, .. } | UpdateStep::Delete { rel, .. } => rel,
        }
    }
}

/// Flattens `program` (through nested `Seq`s) into its update steps, in
/// execution order; `None` when any part of it is not an insert of
/// constants/placeholders or a conditional delete.
fn as_update_steps(program: &Program) -> Option<Vec<UpdateStep<'_>>> {
    fn collect<'a>(p: &'a Program, out: &mut Vec<UpdateStep<'a>>) -> Option<()> {
        match p {
            Program::Insert { rel, tuple }
                if tuple
                    .iter()
                    .all(|t| matches!(t, Term::Const(_)) || t.as_param().is_some()) =>
            {
                out.push(UpdateStep::Insert { rel, tuple })
            }
            Program::DeleteWhere { rel, cond, .. } => out.push(UpdateStep::Delete { rel, cond }),
            Program::Seq(ps) => {
                for p in ps {
                    collect(p, out)?;
                }
            }
            _ => return None,
        }
        Some(())
    }
    let mut steps = Vec::new();
    collect(program, &mut steps)?;
    Some(steps)
}

/// The Section 6 Δ for one disturbed conjunct `c`, when the program is a
/// sequence of tuple-level updates of which exactly one can disturb `c`;
/// `None` when only the conjunct's wpc will do. A Δ satisfies
/// `α → (Δ ↔ wpc(T, c))`.
///
/// Residue composition (after Qian): the Δ of step `k` stands in for the
/// whole program's wpc conjunct when
///
/// 1. `c` is domain-independent,
/// 2. step `k` is the only step that writes a relation of `rel(c)`, and
/// 3. for an insert, its residue mentions only relations of `rel(c)` (a
///    delete's residue is `true` when [`deletion_preserves`] holds).
///
/// Soundness, for a state `D ⊨ α` with intermediate states
/// `D = D₀, D₁, …, Dₙ = T(D)`: steps before `k` leave `rel(c)` as it is in
/// `D`, so `D_{k-1}` agrees with `D` on `rel(c)` and, `c` being
/// domain-independent, `D_{k-1} ⊨ c`. Steps after `k` do not touch
/// `rel(c)` either, so `T(D) ⊨ c ⟺ D_k ⊨ c ⟺ D_{k-1} ⊨ Δ`. Finally `D`
/// and `D_{k-1}` agree on every relation Δ mentions (gate 3), and two
/// `c`-states that agree there but differ in their domain give the same Δ
/// verdict: each verdict equals `c` after the same insert, and `c` is
/// domain-independent. Hence `D ⊨ Δ ⟺ T(D) ⊨ c`. Note that Δ itself need
/// not be *syntactically* domain-independent (the functional-dependency
/// residue `∀z (R(?0,z) ∨ z=?1 → ?1=z)` is not), so the gate is on `c`.
///
/// The domain-independence gate matters even for one step: the residue
/// argument accounts for the inserted/deleted *tuples*, not for the domain
/// growth/shrinkage that comes with them, so for a domain-dependent
/// conjunct (e.g. `∀x. F(x, x)`, broken by any insert that enlarges the
/// domain) only the exact wpc is sound. A conjunct written by two or more
/// steps (delete-then-reinsert, or a cross-relation conjunct spanning both
/// halves of a move) keeps its wpc too.
fn fast_guard_for(
    conjunct: &Formula,
    steps: Option<&[UpdateStep<'_>]>,
    domain_independent: bool,
) -> Option<Formula> {
    if !domain_independent {
        return None;
    }
    let rels = conjunct.relations_used();
    let mut writers = steps?.iter().filter(|step| rels.contains(step.rel()));
    let (Some(step), None) = (writers.next(), writers.next()) else {
        return None;
    };
    match step {
        UpdateStep::Insert { rel, tuple } => delta_for_insert_terms(conjunct, rel, tuple)
            .ok()
            .filter(|delta| delta.relations_used().is_subset(&rels)),
        UpdateStep::Delete { rel, .. } => {
            deletion_preserves(conjunct, rel).then_some(Formula::True)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prerelations::{compile_program, Prerelation};
    use crate::wpc::wpc_sentence;
    use vpdt_logic::parse_formula;
    use vpdt_structure::families;
    use vpdt_tx::program::Program;

    /// Constraint: no loops. Transaction: insert (3,3) — always violates —
    /// or insert (3,4) — violates only if already violated, i.e. never on
    /// consistent states.
    #[test]
    fn guarded_and_runtime_checked_agree() {
        let alpha = parse_formula("forall x y. E(x, y) -> x != y").expect("parses");
        let schema = vpdt_logic::Schema::graph();
        let omega = Omega::empty();
        for (tuple, expect_ok_on_consistent) in [([3u64, 3], false), ([3, 4], true)] {
            let p = Program::insert_consts("E", tuple);
            let pre = compile_program("ins", &p, &schema, &omega).expect("compiles");
            let w = wpc_sentence(&pre, &alpha).expect("translates");
            let guarded = Guarded::new(pre.clone(), w, omega.clone());
            let checked = RuntimeChecked::new(pre.clone(), alpha.clone(), omega.clone());
            for db in [
                families::chain(3),
                families::complete_loopless(3),
                vpdt_structure::Database::graph([]),
            ] {
                let a = guarded.apply(&db);
                let b = checked.apply(&db);
                match (&a, &b) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y),
                    (Err(TxError::Aborted(_)), Err(TxError::Aborted(_))) => {}
                    other => panic!("outcomes diverge on {db:?}: {other:?}"),
                }
                assert_eq!(a.is_ok(), expect_ok_on_consistent, "on {db:?}");
            }
        }
    }

    /// The guarded transaction preserves the constraint by construction.
    #[test]
    fn guarded_preserves_constraint() {
        let alpha = parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z").expect("parses");
        let schema = vpdt_logic::Schema::graph();
        let omega = Omega::empty();
        let p = Program::insert_consts("E", [0, 5]);
        let pre = compile_program("ins", &p, &schema, &omega).expect("compiles");
        let w = wpc_sentence(&pre, &alpha).expect("translates");
        let guarded = Guarded::new(pre, w, omega.clone());
        for db in [
            families::chain(4), // satisfies the FD; insert breaks it at 0
            vpdt_structure::Database::graph([(9, 8)]), // insert keeps it
        ] {
            assert!(vpdt_eval::holds(&db, &omega, &alpha).expect("evaluates"));
            if let Ok(out) = guarded.apply(&db) {
                assert!(
                    vpdt_eval::holds(&out, &omega, &alpha).expect("evaluates"),
                    "guarded output violates the constraint on {db:?}"
                );
            }
        }
    }

    #[test]
    fn abort_reports_the_inner_name() {
        let alpha = Formula::False;
        let id =
            crate::prerelations::Prerelation::identity(vpdt_logic::Schema::graph(), Omega::empty());
        let guarded = Guarded::new(id, alpha, Omega::empty());
        match guarded.apply(&families::chain(2)) {
            Err(TxError::Aborted(msg)) => assert!(msg.contains("identity")),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    /// The guard drops exactly the conjuncts over relations the
    /// transaction does not write, and agrees with the exact wpc on
    /// consistent states.
    #[test]
    fn guard_prunes_untouched_conjuncts() {
        let schema = vpdt_logic::Schema::new([("E", 2), ("F", 2)]);
        let omega = Omega::empty();
        // fd on E ∧ fd on F; the transaction writes only E
        let alpha = parse_formula(
            "(forall x y z. E(x, y) & E(x, z) -> y = z) \
             & (forall x y z. F(x, y) & F(x, z) -> y = z)",
        )
        .expect("parses");
        let g = compile_guard(
            "ins",
            &Program::insert_consts("E", [0, 3]),
            &alpha,
            &schema,
            &omega,
        )
        .expect("compiles");
        assert!(g.domain_independent);
        // the F conjunct was pruned
        assert_eq!(g.fast.relations_used(), BTreeSet::from(["E".to_string()]));
        assert_eq!(g.writes.iter().collect::<Vec<_>>(), [&"E".to_string()]);
        assert!(g.reads.contains("E") && !g.reads.contains("F"));
        let wpc = exact_wpc(
            &Program::insert_consts("E", [0, 3]),
            &alpha,
            &schema,
            &omega,
        )
        .expect("translates");

        // on consistent states the guard decides exactly like wpc
        for edges in [vec![], vec![(0, 1)], vec![(9, 8), (0, 3)]] {
            let mut db = Database::empty(schema.clone());
            for (a, b) in edges {
                db.insert("E", vec![vpdt_logic::Elem(a), vpdt_logic::Elem(b)]);
            }
            db.insert("F", vec![vpdt_logic::Elem(4), vpdt_logic::Elem(5)]);
            assert!(
                holds(&db, &omega, &alpha).expect("evaluates"),
                "state consistent"
            );
            assert_eq!(
                holds(&db, &omega, &g.fast).expect("evaluates"),
                holds(&db, &omega, &wpc).expect("evaluates"),
                "on {db:?}"
            );
        }
    }

    /// A constraint whose conjunct is not domain-independent is never
    /// pruned, even when its relations are untouched.
    #[test]
    fn non_domain_independent_conjuncts_are_kept() {
        let schema = vpdt_logic::Schema::new([("E", 2), ("F", 2)]);
        let alpha = parse_formula(
            "(forall x y z. E(x, y) & E(x, z) -> y = z) & (forall x. exists y. F(x, y))",
        )
        .expect("parses");
        let g = compile_guard(
            "ins",
            &Program::insert_consts("E", [0, 3]),
            &alpha,
            &schema,
            &Omega::empty(),
        )
        .expect("compiles");
        assert!(g.fast.relations_used().contains("F"));
        assert!(g.reads.contains("F"));
        assert!(!g.domain_independent);
    }

    /// The fast guard (Δ where derivable) decides exactly like the exact
    /// wpc on consistent states, and is no larger.
    #[test]
    fn fast_guard_agrees_and_is_small() {
        let schema = vpdt_logic::Schema::new([("E", 2), ("F", 2)]);
        let omega = Omega::empty();
        let alpha = parse_formula(
            "(forall x y z. E(x, y) & E(x, z) -> y = z) \
             & (forall x y z. F(x, y) & F(x, z) -> y = z)",
        )
        .expect("parses");
        for program in [
            Program::insert_consts("E", [0, 3]),
            Program::insert_consts("E", [2, 2]),
            Program::delete_consts("E", [0, 1]),
        ] {
            let g = compile_guard("u", &program, &alpha, &schema, &omega).expect("compiles");
            let wpc = exact_wpc(&program, &alpha, &schema, &omega).expect("translates");
            assert!(
                g.fast.size() <= wpc.size(),
                "fast ({}) should not exceed wpc ({}) for {program:?}",
                g.fast.size(),
                wpc.size()
            );
            for edges in [
                vec![],
                vec![(0u64, 1u64)],
                vec![(0, 3), (4, 4)],
                vec![(2, 9)],
            ] {
                let mut db = Database::empty(schema.clone());
                for (a, b) in edges {
                    db.insert("E", vec![vpdt_logic::Elem(a), vpdt_logic::Elem(b)]);
                }
                db.insert("F", vec![vpdt_logic::Elem(1), vpdt_logic::Elem(5)]);
                if !holds(&db, &omega, &alpha).expect("evaluates") {
                    continue;
                }
                let by_fast = holds(&db, &omega, &g.fast).expect("evaluates");
                let by_wpc = holds(&db, &omega, &wpc).expect("evaluates");
                assert_eq!(by_fast, by_wpc, "{program:?} on {db:?}");
            }
        }
    }

    /// The Δ shortcut must not fire for domain-dependent conjuncts: an
    /// E-insert enlarges the domain and can thereby break `∀x. F(x, x)`
    /// even though it never writes F, and can break `∀x. E(x, x)` without
    /// any unifiable occurrence. Both need the exact wpc.
    #[test]
    fn fast_guard_keeps_wpc_for_domain_dependent_conjuncts() {
        let omega = Omega::empty();
        // cross-relation: state {F(0,0)} satisfies α; inserting E(5,6)
        // adds 5 and 6 to the domain, so ∀x. F(x,x) must now fail
        let schema = vpdt_logic::Schema::new([("E", 2), ("F", 2)]);
        let alpha =
            parse_formula("(forall x y z. E(x, y) & E(x, z) -> y = z) & (forall x. F(x, x))")
                .expect("parses");
        let insert = Program::insert_consts("E", [5, 6]);
        let g = compile_guard("ins", &insert, &alpha, &schema, &omega).expect("compiles");
        assert!(!g.domain_independent);
        let wpc = exact_wpc(&insert, &alpha, &schema, &omega).expect("translates");
        let mut db = Database::empty(schema);
        db.insert("F", vec![vpdt_logic::Elem(0), vpdt_logic::Elem(0)]);
        assert!(holds(&db, &omega, &alpha).expect("evaluates"));
        assert_eq!(
            holds(&db, &omega, &g.fast).expect("evaluates"),
            holds(&db, &omega, &wpc).expect("evaluates"),
            "fast guard must agree with wpc"
        );
        assert!(!holds(&db, &omega, &g.fast).expect("evaluates"));

        // same-relation: ∀x. E(x,x) on the empty database; inserting
        // E(5,6) violates it at 5 and 6 with no unifiable occurrence
        let schema = vpdt_logic::Schema::graph();
        let alpha = parse_formula("forall x. E(x, x)").expect("parses");
        let g = compile_guard(
            "ins",
            &Program::insert_consts("E", [5, 6]),
            &alpha,
            &schema,
            &omega,
        )
        .expect("compiles");
        let empty = Database::graph([]);
        assert!(holds(&empty, &omega, &alpha).expect("evaluates"));
        assert!(!holds(&empty, &omega, &g.fast).expect("evaluates"));
    }

    /// Compile-once-per-shape: the template compilation, instantiated with
    /// a binding, decides exactly like compiling the ground program — for
    /// the fast guard and the exact wpc alike — and preserves the
    /// footprints and the domain-independence verdict.
    #[test]
    fn template_compilation_agrees_with_ground_compilation() {
        let schema = vpdt_logic::Schema::new([("E", 2), ("F", 2)]);
        let omega = Omega::empty();
        let alpha = parse_formula(
            "(forall x y z. E(x, y) & E(x, z) -> y = z) \
             & (forall x y z. F(x, y) & F(x, z) -> y = z)",
        )
        .expect("parses");
        for ground in [
            Program::insert_consts("E", [0, 3]),
            Program::insert_consts("E", [2, 2]),
            Program::delete_consts("F", [1, 4]),
        ] {
            let (template, bindings) =
                vpdt_tx::template::canonicalize(&ground).expect("canonicalizes");
            let shape = compile_guard_template("tpl", &template, &alpha, &schema, &omega)
                .expect("template compiles");
            let direct = compile_guard("gnd", &ground, &alpha, &schema, &omega).expect("compiles");
            let shape_wpc =
                exact_wpc(template.shape(), &alpha, &schema, &omega).expect("translates");
            let direct_wpc = exact_wpc(&ground, &alpha, &schema, &omega).expect("translates");
            assert_eq!(shape.reads, direct.reads, "{ground:?}");
            assert_eq!(shape.writes, direct.writes, "{ground:?}");
            assert_eq!(
                shape.domain_independent, direct.domain_independent,
                "{ground:?}"
            );
            for edges in [
                vec![],
                vec![(0u64, 1u64)],
                vec![(0, 3), (4, 4)],
                vec![(2, 9)],
            ] {
                let mut db = Database::empty(schema.clone());
                for (a, b) in edges {
                    db.insert("E", vec![Elem(a), Elem(b)]);
                }
                db.insert("F", vec![Elem(1), Elem(4)]);
                for (inst, ground_guard) in [
                    (shape.instantiate_fast(&bindings), &direct.fast),
                    (instantiate_params(&shape_wpc, &bindings), &direct_wpc),
                ] {
                    assert_eq!(
                        holds(&db, &omega, &inst).expect("evaluates"),
                        holds(&db, &omega, ground_guard).expect("evaluates"),
                        "{ground:?} on {db:?}\n  instantiated: {inst}\n  ground: {ground_guard}"
                    );
                }
            }
        }
    }

    /// `α` = one functional dependency per relation `R0..R{k-1}` — the
    /// partitionable constraint the sharded store serves.
    fn fd_constraint(k: usize) -> (vpdt_logic::Schema, Formula) {
        let schema = vpdt_logic::Schema::new((0..k).map(|i| (format!("R{i}"), 2)));
        let alpha = Formula::and((0..k).map(|i| {
            parse_formula(&format!("forall x y z. R{i}(x, y) & R{i}(x, z) -> y = z"))
                .expect("parses")
        }));
        (schema, alpha)
    }

    /// The template of `program`, compiled.
    fn compile_shape(program: &Program, alpha: &Formula, schema: &Schema) -> GuardCompilation {
        let (template, _) = vpdt_tx::template::canonicalize(program).expect("canonicalizes");
        compile_guard_template("tpl", &template, alpha, schema, &Omega::empty()).expect("compiles")
    }

    /// The exact wpc of `program`'s template.
    fn shape_wpc(program: &Program, alpha: &Formula, schema: &Schema) -> Formula {
        let (template, _) = vpdt_tx::template::canonicalize(program).expect("canonicalizes");
        exact_wpc(template.shape(), alpha, schema, &Omega::empty()).expect("translates")
    }

    /// A cross-shard move — delete from `R0`, insert the same tuple into
    /// `R1` — composes the per-step Δs: the `R0` conjunct gets the
    /// delete's `true`, the `R1` conjunct the insert's residue, so the
    /// whole fast guard is within a few nodes of a single insert's
    /// (instead of the Γ-relativized wpc conjunct, over a hundred thousand
    /// nodes under this schema).
    #[test]
    fn seq_move_fast_guard_is_single_insert_sized() {
        let (schema, alpha) = fd_constraint(8);
        let single = compile_shape(&Program::insert_consts("R1", [3, 4]), &alpha, &schema);
        let program = Program::seq([
            Program::delete_consts("R0", [3, 4]),
            Program::insert_consts("R1", [3, 4]),
        ]);
        let mv = compile_shape(&program, &alpha, &schema);
        assert!(
            mv.fast.size() <= single.fast.size() + 4,
            "move fast guard has {} nodes, single insert {}",
            mv.fast.size(),
            single.fast.size()
        );
        assert!(mv.fast.size() * 100 < shape_wpc(&program, &alpha, &schema).size());
        assert_eq!(mv.fast.relations_used(), BTreeSet::from(["R1".to_string()]));
    }

    /// Composition keeps the exact wpc conjunct when more than one step
    /// writes the conjunct's relations, or when the conjunct is
    /// domain-dependent.
    #[test]
    fn seq_composition_keeps_wpc_when_a_gate_fails() {
        let schema = vpdt_logic::Schema::new([("R0", 2), ("R1", 2)]);
        let mv = Program::seq([
            Program::delete_consts("R0", [3, 4]),
            Program::insert_consts("R1", [3, 4]),
        ]);
        for (alpha, program) in [
            // delete then re-insert into the same relation: two writers
            (
                "forall x y z. R0(x, y) & R0(x, z) -> y = z",
                Program::seq([
                    Program::delete_consts("R0", [3, 4]),
                    Program::insert_consts("R0", [3, 5]),
                ]),
            ),
            // a cross-relation conjunct written by both halves of a move
            ("forall x y. R0(x, y) -> R1(x, y)", mv.clone()),
            // domain-dependent: the insert grows the domain
            ("forall x. R1(x, x)", mv.clone()),
        ] {
            let alpha = parse_formula(alpha).expect("parses");
            let (template, _) = vpdt_tx::template::canonicalize(&program).expect("canonicalizes");
            let g = compile_guard_template("tpl", &template, &alpha, &schema, &Omega::empty())
                .expect("compiles");
            let pre = compile_program("tpl", template.shape(), &schema, &Omega::empty())
                .expect("compiles");
            let w = wpc_sentence(&pre, &alpha).expect("translates");
            assert_eq!(g.fast, w, "{alpha} under {program:?}");
        }
    }

    /// An eight-step `Seq`, one tuple update per FD relation, compiles
    /// without a wpc: its guard is the per-step Δs conjoined, and decides
    /// like the post-state on consistent states.
    #[test]
    fn eight_step_seq_guard_is_the_per_step_deltas() {
        let (schema, alpha) = fd_constraint(8);
        let omega = Omega::empty();
        let steps: Vec<Program> = (0..8u64)
            .map(|i| {
                let rel = format!("R{i}");
                if i % 3 == 1 {
                    Program::delete_consts(rel, [i % 4, 2])
                } else {
                    Program::insert_consts(rel, [i % 4, i % 3])
                }
            })
            .collect();
        let per_step = Formula::and(
            steps
                .iter()
                .map(|step| compile_shape(step, &alpha, &schema).fast),
        );
        let ground = Program::seq(steps);
        let (template, bindings) = vpdt_tx::template::canonicalize(&ground).expect("canonicalizes");
        let g =
            compile_guard_template("tpl", &template, &alpha, &schema, &omega).expect("compiles");
        assert!(
            g.fast.size() <= per_step.size(),
            "eight-step guard has {} nodes, the per-step Δs {}",
            g.fast.size(),
            per_step.size()
        );
        let guard = g.instantiate_fast(&bindings);
        for seed in 0..16u64 {
            let mut db = Database::empty(schema.clone());
            for i in 0..8u64 {
                // a function R_i: x ↦ x + i + seed, over x < seed % 4
                for x in 0..seed % 4 {
                    db.insert(&format!("R{i}"), vec![Elem(x), Elem(x + i + seed)]);
                }
            }
            assert!(holds(&db, &omega, &alpha).expect("evaluates"));
            let post = ground.run(&db, &omega).expect("runs");
            assert_eq!(
                holds(&db, &omega, &guard).expect("evaluates"),
                holds(&post, &omega, &alpha).expect("evaluates"),
                "on {db:?}"
            );
        }
    }

    /// Residue-first compilation refuses exactly what the full translation
    /// refuses, with the same error, whether or not a Δ would cover the
    /// offending conjunct.
    #[test]
    fn compile_guard_refuses_what_exact_wpc_refuses() {
        let schema = vpdt_logic::Schema::new([("E", 2), ("F", 2)]);
        let omega = Omega::empty();
        let fd = parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z").expect("parses");
        let with = |extra: &str| Formula::and([fd.clone(), parse_formula(extra).expect("parses")]);
        let x = vpdt_logic::Var::new("x");
        let counting = Formula::and([
            fd.clone(),
            Formula::CountGe(
                vpdt_logic::NumTerm::Lit(2),
                x.clone(),
                Box::new(Formula::rel("E", [Term::Var(x.clone()), Term::Var(x)])),
            ),
        ]);
        let counting_delete = Program::DeleteWhere {
            rel: "F".into(),
            vars: vec![vpdt_logic::Var::new("x"), vpdt_logic::Var::new("y")],
            cond: counting.conjuncts()[1].clone(),
        };
        let insert = Program::insert_consts("E", [0, 3]);
        let cases = [
            // a step on a relation outside the schema, alone and composed
            (Program::insert_consts("Z", [1, 2]), fd.clone(), "compile"),
            (
                Program::seq([
                    Program::delete_consts("E", [0, 1]),
                    Program::insert_consts("Z", [1, 2]),
                ]),
                fd.clone(),
                "compile",
            ),
            // a disturbed conjunct over a relation outside the schema
            (
                insert.clone(),
                with("forall x y. G(x, y) -> E(x, y)"),
                "wpc",
            ),
            // ... which an untouched one is not
            (insert.clone(), with("forall x y. G(x, y) -> x = y"), "ok"),
            // a counting conjunct the insert disturbs
            (insert.clone(), counting.clone(), "wpc"),
            // a counting delete condition: composed in a Seq it is refused,
            // alone it is never translated
            (
                Program::seq([counting_delete.clone(), insert.clone()]),
                fd.clone(),
                "compile",
            ),
            (counting_delete, fd.clone(), "ok"),
        ];
        for (program, alpha, expect) in cases {
            let got = compile_guard("g", &program, &alpha, &schema, &omega).map(|g| g.fast);
            let exact = exact_wpc(&program, &alpha, &schema, &omega);
            match (&got, expect) {
                (Err(GuardError::Compile(_)), "compile") | (Err(GuardError::Wpc(_)), "wpc") => {
                    assert_eq!(got.clone().err(), exact.err(), "{program:?} under {alpha}")
                }
                (Ok(_), "ok") => assert!(exact.is_ok(), "{program:?} under {alpha}"),
                _ => panic!("{program:?} under {alpha}: expected {expect}, got {got:?}"),
            }
        }
    }

    #[test]
    fn guard_compilations_cross_threads() {
        fn assert_bounds<T: Send + Sync + Clone + 'static>() {}
        assert_bounds::<GuardCompilation>();
        assert_bounds::<Guarded<Prerelation>>();
        assert_bounds::<RuntimeChecked<Prerelation>>();
    }
}
