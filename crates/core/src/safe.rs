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

use crate::prerelations::{compile_program, CompileError, Prerelation};
use crate::simplify::{deletion_preserves, delta_for_insert_terms};
use crate::wpc::{wpc_sentence, WpcError};
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

/// A transaction compiled once into everything a server needs to run it
/// statically guarded: the prerelation description, the full `wpc(T, α)`
/// sentence, the invariant-reduced guard of Section 6, and the read/write
/// relation footprints used for conflict detection.
///
/// Produced by [`compile_guard`]; consumed by `vpdt-store`'s guard cache.
#[derive(Clone, Debug)]
pub struct GuardCompilation {
    /// The prerelation description of the transaction.
    pub pre: Prerelation,
    /// The full weakest precondition `wpc(T, α)` (Theorem 8): exact on
    /// every state.
    pub wpc: Formula,
    /// The invariant-reduced guard: the conjunction of `wpc(T, αᵢ)` over
    /// exactly those conjuncts `αᵢ` of `α` the transaction can disturb.
    /// Sound only on states already satisfying `α` (see [`compile_guard`]).
    pub reduced: Formula,
    /// The cheapest guard — per kept conjunct, the Δ of Section 6 where
    /// one is derivable (Nicolas-style insertion residues, anti-monotone
    /// deletions), the `wpc` conjunct otherwise. Δs compose across a
    /// `Seq` of tuple-level updates: a domain-independent conjunct written
    /// by exactly one step gets that step's Δ, so a multi-statement
    /// transaction such as a cross-shard move keeps a guard the size of a
    /// single insert's (see `fast_guard_for` for the rule and its three
    /// gates). Equivalent to [`reduced`](Self::reduced) (and hence to
    /// [`wpc`](Self::wpc)) on states satisfying `α`; this is what a server
    /// should evaluate per transaction.
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
    /// Instantiates the cheapest guard ([`fast`](Self::fast)) with a
    /// prepared statement's bindings — the per-transaction step of a
    /// template compilation. One structural walk; no recompilation.
    pub fn instantiate_fast(&self, bindings: &[Elem]) -> Formula {
        instantiate_params(&self.fast, bindings)
    }

    /// Instantiates the full wpc sentence with bindings (audits and tests).
    pub fn instantiate_wpc(&self, bindings: &[Elem]) -> Formula {
        instantiate_params(&self.wpc, bindings)
    }

    /// Instantiates the invariant-reduced guard with bindings.
    pub fn instantiate_reduced(&self, bindings: &[Elem]) -> Formula {
        instantiate_params(&self.reduced, bindings)
    }
}

/// Compiles `program` once into a [`GuardCompilation`] for the constraint
/// `α` — the static-verification analogue of preparing a statement.
///
/// The reduced guard implements the invariant-aware simplification of
/// Section 6 (after Nicolas and Qian): on a state already satisfying `α`,
/// a conjunct `αᵢ` whose relations the transaction does not write — and
/// which is domain-independent, so the transaction's incidental domain
/// changes cannot flip it — is preserved automatically, and its `wpc`
/// conjunct can be dropped from the guard. Conjuncts that fail either test
/// are kept. Consequently:
///
/// * `D ⊨ wpc  ⟺  T(D) ⊨ α` (exact, any `D`), and
/// * if `D ⊨ α` then `D ⊨ reduced ⟺ T(D) ⊨ α`.
///
/// The fast guard replaces a kept conjunct's wpc by a Δ when the program
/// flattens into inserts of constants/placeholders and conditional deletes
/// and (1) the conjunct is domain-independent, (2) exactly one step writes
/// one of its relations, and (3) that step's residue reads only the
/// conjunct's relations (an insert's Nicolas residue; `true` for a delete
/// the conjunct is anti-monotone in). It shares the reduced guard's
/// contract: if `D ⊨ α` then `D ⊨ fast ⟺ T(D) ⊨ α`.
pub fn compile_guard(
    label: impl Into<String>,
    program: &Program,
    alpha: &Formula,
    schema: &Schema,
    omega: &Omega,
) -> Result<GuardCompilation, GuardError> {
    assert!(alpha.is_sentence(), "a constraint must be a sentence");
    let pre = compile_program(label, program, schema, omega)?;

    let writes = program.touched_relations();
    let steps = as_update_steps(program);
    let mut full = Vec::new();
    let mut kept = Vec::new();
    let mut fast_parts = Vec::new();
    let mut reads: BTreeSet<String> = program.read_relations();
    let mut all_conjuncts_independent = true;
    for conjunct in alpha.conjuncts() {
        let independent = is_domain_independent(conjunct);
        all_conjuncts_independent &= independent;
        if independent && conjunct.relations_used().is_disjoint(&writes) {
            // Untouched and domain-independent: `T(D)` agrees with `D` on
            // the conjunct's relations, and the conjunct's truth ignores
            // the ambient domain, so `wpc(T, αᵢ) ≡ αᵢ` on *every* state —
            // the conjunct itself is the exact translation. Skipping the
            // `WPC[γ]` pass here is load-bearing: for multi-statement
            // programs its output grows steeply, and a wide constraint
            // would pay that cost once per conjunct it cannot even
            // disturb.
            full.push(conjunct.clone());
            continue;
        }
        let w = wpc_sentence(&pre, conjunct)?;
        fast_parts.push(fast_guard_for(conjunct, &w, steps.as_deref(), independent));
        kept.push(w.clone());
        // The conjunct's own relations — not its wpc's. The wpc
        // mentions every relation through Γ-relativization of its
        // quantifiers, but by exactness its verdict only depends on
        // the conjunct's relations in the transaction's output.
        reads.extend(conjunct.relations_used());
        full.push(w);
    }
    // wpc distributes over conjunction (both sides say "α's conjuncts all
    // hold in T(D)"), so the exact full guard is the conjunction of the
    // per-conjunct translations.
    let wpc = Formula::and(full);
    let reduced = Formula::and(kept);
    let fast = Formula::and(fast_parts);
    reads.extend(writes.iter().cloned());

    // The guard `wpc(T, αᵢ)` is *exact* — `D ⊨ wpc(T, αᵢ) ⟺ T(D) ⊨ αᵢ` —
    // so evaluating it against a snapshot that agrees on `reads` is decided
    // by `αᵢ` on the transaction's output, which agrees across such
    // snapshots exactly when every αᵢ is domain-independent and the
    // program itself never consults the domain. The check therefore runs on
    // the constraint's conjuncts, never on the (Γ-relativized) wpc output.
    // Program conditions may contain prepared-statement placeholders (the
    // constraint α never does), so their analysis runs parametrically: a
    // `true` verdict covers every binding of the template.
    let domain_independent = all_conjuncts_independent
        && !program.enumerates_domain()
        && program
            .condition_formulas()
            .iter()
            .all(|c| is_domain_independent_parametric(c));

    Ok(GuardCompilation {
        pre,
        wpc,
        reduced,
        fast,
        reads,
        writes,
        domain_independent,
    })
}

/// Compiles a statement *template* once for all its instantiations: the
/// prerelations, the wpc, the reduced guard, and the Δ are derived over the
/// shape's placeholder terms, and a concrete transaction's guard is obtained
/// by [`GuardCompilation::instantiate_fast`] — a substitution whose cost is
/// the size of the (small) guard, independent of the domain.
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
    Delete { rel: &'a str },
}

impl UpdateStep<'_> {
    fn rel(&self) -> &str {
        match self {
            UpdateStep::Insert { rel, .. } | UpdateStep::Delete { rel } => rel,
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
            Program::DeleteWhere { rel, .. } => out.push(UpdateStep::Delete { rel }),
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

/// The cheapest sound guard for one kept conjunct `c`: a Section 6 Δ when
/// the program is a sequence of tuple-level updates of which exactly one
/// can disturb `c`, the conjunct's wpc otherwise. Both options satisfy
/// `α → (guard ↔ wpc(T, c))`.
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
    wpc: &Formula,
    steps: Option<&[UpdateStep<'_>]>,
    domain_independent: bool,
) -> Formula {
    if !domain_independent {
        return wpc.clone();
    }
    let rels = conjunct.relations_used();
    let mut writers = steps
        .into_iter()
        .flatten()
        .filter(|step| rels.contains(step.rel()));
    let (Some(step), None) = (writers.next(), writers.next()) else {
        return wpc.clone();
    };
    match step {
        UpdateStep::Insert { rel, tuple } => match delta_for_insert_terms(conjunct, rel, tuple) {
            Ok(delta) if delta.relations_used().is_subset(&rels) => delta,
            _ => wpc.clone(),
        },
        UpdateStep::Delete { rel } => {
            if deletion_preserves(conjunct, rel) {
                Formula::True
            } else {
                wpc.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prerelations::compile_program;
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

    /// The reduced guard drops exactly the conjuncts over relations the
    /// transaction does not write, and agrees with the full wpc on
    /// consistent states.
    #[test]
    fn reduced_guard_prunes_untouched_conjuncts() {
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
        // the F conjunct was pruned: the reduced guard is strictly smaller
        assert!(g.reduced.size() < g.wpc.size());
        assert_eq!(g.writes.iter().collect::<Vec<_>>(), [&"E".to_string()]);
        assert!(g.reads.contains("E") && !g.reads.contains("F"));

        // on consistent states the reduced guard decides exactly like wpc
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
                holds(&db, &omega, &g.reduced).expect("evaluates"),
                holds(&db, &omega, &g.wpc).expect("evaluates"),
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
        assert!(g.reduced.relations_used().contains("F"));
        assert!(g.reads.contains("F"));
        assert!(!g.domain_independent);
    }

    /// The fast guard (Δ where derivable) decides exactly like the reduced
    /// and full wpc guards on consistent states, and is far smaller.
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
            assert!(
                g.fast.size() <= g.reduced.size(),
                "fast ({}) should not exceed reduced ({}) for {program:?}",
                g.fast.size(),
                g.reduced.size()
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
                let by_reduced = holds(&db, &omega, &g.reduced).expect("evaluates");
                let by_wpc = holds(&db, &omega, &g.wpc).expect("evaluates");
                assert_eq!(by_fast, by_reduced, "{program:?} on {db:?}");
                assert_eq!(by_reduced, by_wpc, "{program:?} on {db:?}");
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
        let g = compile_guard(
            "ins",
            &Program::insert_consts("E", [5, 6]),
            &alpha,
            &schema,
            &omega,
        )
        .expect("compiles");
        assert!(!g.domain_independent);
        let mut db = Database::empty(schema);
        db.insert("F", vec![vpdt_logic::Elem(0), vpdt_logic::Elem(0)]);
        assert!(holds(&db, &omega, &alpha).expect("evaluates"));
        assert_eq!(
            holds(&db, &omega, &g.fast).expect("evaluates"),
            holds(&db, &omega, &g.wpc).expect("evaluates"),
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
    /// a binding, decides exactly like compiling the ground program — on
    /// fast, reduced, and full-wpc guards alike — and preserves the
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
                    (shape.instantiate_reduced(&bindings), &direct.reduced),
                    (shape.instantiate_wpc(&bindings), &direct.wpc),
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
        let mv = compile_shape(
            &Program::seq([
                Program::delete_consts("R0", [3, 4]),
                Program::insert_consts("R1", [3, 4]),
            ]),
            &alpha,
            &schema,
        );
        assert!(
            mv.fast.size() <= single.fast.size() + 4,
            "move fast guard has {} nodes, single insert {}",
            mv.fast.size(),
            single.fast.size()
        );
        assert!(mv.fast.size() * 100 < mv.reduced.size());
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

    #[test]
    fn guard_compilations_cross_threads() {
        fn assert_bounds<T: Send + Sync + Clone + 'static>() {}
        assert_bounds::<GuardCompilation>();
        assert_bounds::<Guarded<Prerelation>>();
        assert_bounds::<RuntimeChecked<Prerelation>>();
    }
}
