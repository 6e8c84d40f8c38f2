//! The `WPC[γ]` substitution algorithm of Theorem 8.
//!
//! Given a transaction `T` described by a prerelation `(Γ, {pre_R})` over
//! `FOc(Ω)`, and **any** sentence `γ` of `FOc(Ω′)` for **any** extension
//! `Ω′ ⊇ Ω`, the algorithm produces a sentence `WPC[γ]` with
//!
//! ```text
//! D ⊨ WPC[γ]    ⟺    T(D) ⊨ γ        for every database D,
//! ```
//!
//! which is the robust-verifiability direction of Theorem 8 (and, with
//! `γ` over the unextended signature, the `PR(L) ⊆ WPC(L)` inclusion of
//! Section 2).
//!
//! The translation is compositional:
//!
//! * `R(t̄)` ↦ `⋀ᵢ t_i ∈ Γ(D)  ∧  pre_R(t̄)` — membership in the new
//!   relation is membership in the candidate space plus the prerelation
//!   condition;
//! * `t₁ = t₂` and Ω′-atoms are untouched (their interpretation does not
//!   depend on the database — this is what makes the algorithm oblivious
//!   to extensions of Ω);
//! * `∃x. φ` ↦ `⋁_{τ∈Γ} ∃z̄ ( newadom(τ(z̄)) ∧ WPC[φ][x := τ(z̄)] )` —
//!   quantification over the *new* active domain is re-expressed as
//!   quantification over the old domain through the Γ-terms, filtered by
//!   the formula `newadom(t)` asserting that `t` occurs in some tuple of
//!   some new relation.
//!
//! Counting quantifiers are rejected: Γ-terms may alias (different `z̄`
//! can denote the same element), so counting does not relativize — and
//! indeed Theorem 3 shows counting-logic weakest preconditions cannot
//! exist in general.

use crate::prerelations::Prerelation;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use vpdt_logic::subst::{fresh_var, substitute_many};
use vpdt_logic::{Formula, Schema, Term, Var};
use vpdt_tx::traits::Transaction;

/// Errors from the WPC translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WpcError {
    /// The sentence uses counting constructs (`FOcount`), which the
    /// algorithm does not — and by Theorem 3 cannot, in general — support.
    CountingUnsupported,
    /// The sentence mentions a relation outside the transaction's schema.
    UnknownRelation(String),
}

impl fmt::Display for WpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WpcError::CountingUnsupported => {
                write!(f, "counting quantifiers have no prerelation-based wpc")
            }
            WpcError::UnknownRelation(r) => write!(f, "relation {r} not in schema"),
        }
    }
}

impl std::error::Error for WpcError {}

/// Computes `wpc(T, γ)` for a sentence `γ`: `D ⊨ wpc(T,γ) ⟺ T(D) ⊨ γ`.
pub fn wpc_sentence(pre: &Prerelation, gamma: &Formula) -> Result<Formula, WpcError> {
    assert!(gamma.is_sentence(), "wpc_sentence expects a closed formula");
    wpc_formula(pre, gamma)
}

/// The open-formula translation: free variables denote fixed elements of
/// `U` and satisfy `D ⊨ WPC[γ](v̄) ⟺ T(D) ⊨ γ(v̄)` for all values `v̄`.
/// (Used by sentence translation, symbolic composition, and Proposition 4.)
///
/// The raw translation is passed through the sound structural simplifier —
/// constant-equality folding alone collapses most of the Γ fan-out that
/// ground terms introduce.
pub fn wpc_formula(pre: &Prerelation, gamma: &Formula) -> Result<Formula, WpcError> {
    check_translatable(pre.schema(), gamma)?;
    let ctx = Ctx::new(pre, gamma);
    Ok(vpdt_logic::simplify::normalize(&ctx.translate(gamma)))
}

/// What the translation refuses, without translating: the first counting
/// construct or atom of a relation outside `schema`, in preorder — the
/// error `wpc_formula` gives under a prerelation over `schema`.
pub(crate) fn check_translatable(schema: &Schema, gamma: &Formula) -> Result<(), WpcError> {
    let mut first = Ok(());
    gamma.visit(&mut |f| match f {
        _ if first.is_err() => {}
        Formula::Rel(name, _) if !schema.contains(name) => {
            first = Err(WpcError::UnknownRelation(name.clone()))
        }
        Formula::CountGe(..)
        | Formula::NumExists(..)
        | Formula::NumForall(..)
        | Formula::NumLe(..)
        | Formula::NumEq(..)
        | Formula::Bit(..) => first = Err(WpcError::CountingUnsupported),
        _ => {}
    });
    first
}

/// Builds `t ∈ Γ(D)`: `⋁_{τ∈Γ} ∃z̄. t = τ(z̄)` with `z̄` ranging over the
/// old domain.
pub fn gamma_membership(pre: &Prerelation, t: &Term, avoid: &BTreeSet<Var>) -> Formula {
    let mut avoid = avoid.clone();
    avoid.extend(t.vars());
    let mut cases = Vec::new();
    for tau in pre.gamma() {
        let (tau2, zs) = freshen_term(tau, &mut avoid);
        cases.push(Formula::exists_many(zs, Formula::eq(t.clone(), tau2)));
    }
    Formula::or(cases)
}

struct Ctx<'a> {
    pre: &'a Prerelation,
    /// Variables that must not be captured by generated quantifiers.
    avoid: BTreeSet<Var>,
    /// Whether quantifiers must be relativized to the *new* active domain
    /// through `newadom`. A domain-independent `γ` doesn't need it: the
    /// Γ-term image of the old domain is a superset of the new active
    /// domain (the candidate-space property of prerelations), and a
    /// domain-independent sentence evaluates identically over any
    /// superset — so the `newadom` filter, whose size is a disjunction
    /// over *every* relation and position of the schema per quantifier,
    /// can be dropped wholesale. This is the difference between guard
    /// compilation scaling with the transaction and scaling with the
    /// schema.
    relativize: bool,
}

impl<'a> Ctx<'a> {
    fn new(pre: &'a Prerelation, gamma: &Formula) -> Self {
        let mut avoid = gamma.all_vars();
        for (_, p) in pre.pres() {
            avoid.extend(p.formula.all_vars());
            avoid.extend(p.vars.iter().cloned());
        }
        for t in pre.gamma() {
            avoid.extend(t.vars());
        }
        let relativize = !vpdt_logic::domain::is_domain_independent(gamma);
        Ctx {
            pre,
            avoid,
            relativize,
        }
    }

    /// The translation of a formula [`check_translatable`] accepted.
    fn translate(&self, f: &Formula) -> Formula {
        match f {
            Formula::True | Formula::False | Formula::Eq(..) | Formula::Pred(..) => f.clone(),
            Formula::Rel(name, args) => self.translate_atom(name, args),
            Formula::Not(g) => Formula::not(self.translate(g)),
            Formula::And(gs) => Formula::And(gs.iter().map(|g| self.translate(g)).collect()),
            Formula::Or(gs) => Formula::Or(gs.iter().map(|g| self.translate(g)).collect()),
            Formula::Implies(a, b) => Formula::implies(self.translate(a), self.translate(b)),
            Formula::Iff(a, b) => Formula::iff(self.translate(a), self.translate(b)),
            Formula::Exists(v, g) => self.translate_quantifier(v, g, true),
            Formula::Forall(v, g) => self.translate_quantifier(v, g, false),
            Formula::CountGe(..)
            | Formula::NumExists(..)
            | Formula::NumForall(..)
            | Formula::NumLe(..)
            | Formula::NumEq(..)
            | Formula::Bit(..) => unreachable!("check_translatable rejects counting"),
        }
    }

    /// `R(t̄) ↦ ⋀ᵢ t_i ∈ Γ(D) ∧ pre_R(t̄)`.
    fn translate_atom(&self, name: &str, args: &[Term]) -> Formula {
        let p = self.pre.pre(name);
        let mut parts: Vec<Formula> = args
            .iter()
            .map(|t| gamma_membership(self.pre, t, &self.avoid))
            .collect();
        let map: BTreeMap<Var, Term> = p.vars.iter().cloned().zip(args.iter().cloned()).collect();
        parts.push(substitute_many(&p.formula, &map));
        Formula::and(parts)
    }

    /// `∃x.φ ↦ ⋁_τ ∃z̄ (newadom(τ(z̄)) ∧ W[φ][x:=τ(z̄)])` and the `∀` dual
    /// `⋀_τ ∀z̄ (newadom(τ(z̄)) → W[φ][x:=τ(z̄)])`.
    fn translate_quantifier(&self, v: &Var, body: &Formula, existential: bool) -> Formula {
        // simplify bottom-up so intermediate formulas stay small
        let w_body = vpdt_logic::simplify::normalize(&self.translate(body));
        let mut avoid = self.avoid.clone();
        avoid.extend(w_body.all_vars());
        let mut cases = Vec::new();
        for tau in self.pre.gamma() {
            let (tau2, zs) = freshen_term(tau, &mut avoid);
            let mut map = BTreeMap::new();
            map.insert(v.clone(), tau2.clone());
            let instantiated = substitute_many(&w_body, &map);
            let case = if !self.relativize {
                // Domain-independent γ: quantify over the Γ-term image of
                // the old domain directly (a superset of the new active
                // domain) — see `Ctx::relativize`.
                if existential {
                    Formula::exists_many(zs, instantiated)
                } else {
                    Formula::forall_many(zs, instantiated)
                }
            } else {
                let membership = vpdt_logic::simplify::normalize(&self.new_adom(&tau2, &avoid));
                if existential {
                    Formula::exists_many(zs, Formula::and([membership, instantiated]))
                } else {
                    Formula::forall_many(zs, Formula::implies(membership, instantiated))
                }
            };
            cases.push(case);
        }
        if existential {
            Formula::or(cases)
        } else {
            Formula::and(cases)
        }
    }

    /// `newadom(t)`: `t` occurs in some tuple of some new relation —
    /// `⋁_{R,i} ⊔Γ u₁ … ⊔Γ u_{n−1}. pre_R(u₁,…,t at i,…,u_{n−1})`,
    /// where `⊔Γ u. ψ` abbreviates `⋁_τ ∃z̄. ψ[u := τ(z̄)]` (the other
    /// components also range over the candidate space Γ(D)).
    fn new_adom(&self, t: &Term, avoid: &BTreeSet<Var>) -> Formula {
        let mut cases = Vec::new();
        for (_rel, p) in self.pre.pres() {
            let arity = p.vars.len();
            for i in 0..arity {
                let mut avoid = avoid.clone();
                avoid.extend(t.vars());
                // instantiate position i with t, others with fresh u-vars
                let mut args: Vec<Term> = Vec::with_capacity(arity);
                let mut others: Vec<Var> = Vec::new();
                for j in 0..arity {
                    if j == i {
                        args.push(t.clone());
                    } else {
                        let u = fresh_var(&Var::new(format!("u{j}")), &avoid);
                        avoid.insert(u.clone());
                        others.push(u.clone());
                        args.push(Term::Var(u));
                    }
                }
                let map: BTreeMap<Var, Term> =
                    p.vars.iter().cloned().zip(args.iter().cloned()).collect();
                let mut body = substitute_many(&p.formula, &map);
                // each other component must come from Γ(D)
                for u in others.into_iter().rev() {
                    body = self.gamma_quantify(&u, body, &avoid);
                }
                cases.push(body);
            }
        }
        Formula::or(cases)
    }

    /// `⊔Γ u. ψ  =  ⋁_τ ∃z̄. ψ[u := τ(z̄)]`.
    fn gamma_quantify(&self, u: &Var, body: Formula, avoid: &BTreeSet<Var>) -> Formula {
        let mut avoid = avoid.clone();
        avoid.extend(body.all_vars());
        let mut cases = Vec::new();
        for tau in self.pre.gamma() {
            let (tau2, zs) = freshen_term(tau, &mut avoid);
            let mut map = BTreeMap::new();
            map.insert(u.clone(), tau2);
            cases.push(Formula::exists_many(zs, substitute_many(&body, &map)));
        }
        Formula::or(cases)
    }
}

/// Renames a Γ-term's variables to fresh ones; returns the renamed term and
/// the fresh variables (in first-occurrence order), extending `avoid`.
fn freshen_term(tau: &Term, avoid: &mut BTreeSet<Var>) -> (Term, Vec<Var>) {
    let vars = tau.vars();
    let mut zs = Vec::with_capacity(vars.len());
    let mut map: BTreeMap<Var, Term> = BTreeMap::new();
    for v in vars {
        let z = fresh_var(&Var::new("z0"), avoid);
        avoid.insert(z.clone());
        map.insert(v, Term::Var(z.clone()));
        zs.push(z);
    }
    let renamed = tau.substitute(&|v| map.get(v).cloned());
    (renamed, zs)
}

/// Symbolic composition: a prerelation description of `second ∘ first`
/// (apply `first`, then `second`).
///
/// `Γ` composes by substituting `first`'s terms into `second`'s; each
/// `pre^{second}_R` is conjoined with its Γ₂-membership conditions (so the
/// composed formula is exact, not just sound) and then pulled back through
/// `first` with [`wpc_formula`].
pub fn compose(first: &Prerelation, second: &Prerelation) -> Result<Prerelation, WpcError> {
    assert_eq!(
        first.schema(),
        second.schema(),
        "composition needs a common schema"
    );
    let mut out =
        crate::prerelations::Prerelation::identity(first.schema().clone(), first.omega().clone())
            .with_label(format!("{};{}", first.name(), second.name()));

    // Composed Γ: substitute first's terms (with disjoint fresh variables)
    // into each variable of second's terms, in all combinations.
    let mut composed_gamma: Vec<Term> = Vec::new();
    for tau2 in second.gamma() {
        let vars = tau2.vars();
        if vars.is_empty() {
            composed_gamma.push(tau2.clone());
            continue;
        }
        // all assignments of first-terms to tau2's variables
        let choices = first.gamma();
        let mut assignments: Vec<BTreeMap<Var, Term>> = vec![BTreeMap::new()];
        for v in &vars {
            let mut next = Vec::with_capacity(assignments.len() * choices.len());
            for a in &assignments {
                for tau1 in choices {
                    let mut avoid: BTreeSet<Var> = a.values().flat_map(|t| t.vars()).collect();
                    avoid.extend(vars.iter().cloned());
                    let (tau1f, _) = freshen_term(tau1, &mut avoid);
                    let mut a2 = a.clone();
                    a2.insert(v.clone(), tau1f);
                    next.push(a2);
                }
            }
            assignments = next;
        }
        for a in assignments {
            composed_gamma.push(tau2.substitute(&|v| a.get(v).cloned()));
        }
    }
    for t in composed_gamma {
        out = out.with_gamma_term(t);
    }

    // Composed prerelation formulas.
    for (rel, _arity) in first.schema().iter() {
        let p2 = second.pre(rel);
        let avoid: BTreeSet<Var> = p2.vars.iter().cloned().collect();
        let exact = Formula::and(
            std::iter::once(p2.formula.clone()).chain(
                p2.vars
                    .iter()
                    .map(|v| gamma_membership(second, &Term::Var(v.clone()), &avoid)),
            ),
        );
        let pulled = wpc_formula(first, &exact)?;
        out = out.with_pre(rel, p2.vars.clone(), pulled);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prerelations::compile_program;
    use vpdt_eval::{holds, Omega};
    use vpdt_logic::{library, parse_formula, Schema};
    use vpdt_structure::{families, Database};
    use vpdt_tx::program::Program;
    use vpdt_tx::traits::Transaction;

    /// The fundamental property: D ⊨ wpc(T,γ) ⟺ T(D) ⊨ γ.
    fn check_wpc(pre: &Prerelation, gamma: &Formula, dbs: &[Database]) {
        let w = wpc_sentence(pre, gamma).expect("translates");
        assert!(w.is_sentence(), "wpc must be closed: {w}");
        for db in dbs {
            let lhs = holds(db, pre.omega(), &w).expect("wpc evaluates");
            let out = pre.apply(db).expect("applies");
            let rhs = holds(&out, pre.omega(), gamma).expect("gamma evaluates");
            assert_eq!(
                lhs,
                rhs,
                "wpc mismatch for {} on {db:?}\n  gamma: {gamma}\n  wpc:   {w}",
                pre.name()
            );
        }
    }

    fn graphs() -> Vec<Database> {
        vec![
            Database::graph([]),
            families::chain(1),
            families::chain(3),
            families::cycle(3),
            families::cc_graph(2, &[3]),
            Database::graph([(0, 0)]),
            Database::graph([(0, 1), (0, 2), (2, 2)]),
        ]
    }

    #[test]
    fn identity_wpc_is_equivalent_to_gamma() {
        let id = Prerelation::identity(Schema::graph(), Omega::empty());
        for gamma in [
            library::psi_cc(),
            library::total_relation(),
            parse_formula("exists x. E(x, x)").expect("parses"),
            parse_formula("forall x. exists y. E(x, y) | E(y, x)").expect("parses"),
        ] {
            check_wpc(&id, &gamma, &graphs());
        }
    }

    #[test]
    fn insert_wpc() {
        let p = Program::insert_consts("E", [7, 8]);
        let pre = compile_program("ins", &p, &Schema::graph(), &Omega::empty()).expect("compiles");
        for gamma in [
            parse_formula("exists x. E(x, x)").expect("parses"),
            parse_formula("forall x y. E(x, y) -> x != y").expect("parses"),
            parse_formula("E(7, 8)").expect("parses"),
            parse_formula("exists x. E(7, x)").expect("parses"),
            library::at_least_nodes(3),
        ] {
            check_wpc(&pre, &gamma, &graphs());
        }
    }

    #[test]
    fn delete_wpc() {
        let p = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: parse_formula("x = y").expect("parses"),
        };
        let pre =
            compile_program("del-loops", &p, &Schema::graph(), &Omega::empty()).expect("compiles");
        for gamma in [
            parse_formula("exists x. E(x, x)").expect("parses"),
            library::psi_cc(),
            parse_formula("forall x. exists y. E(x, y)").expect("parses"),
        ] {
            check_wpc(&pre, &gamma, &graphs());
        }
    }

    #[test]
    fn wpc_constants_outside_gamma_are_false_atoms() {
        // After deleting everything, E(1,2) can never hold; wpc must be
        // unsatisfiable on every database.
        let p = Program::Assign {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            body: Formula::False,
        };
        let pre = compile_program("wipe", &p, &Schema::graph(), &Omega::empty()).expect("compiles");
        let gamma = parse_formula("E(1, 2)").expect("parses");
        check_wpc(&pre, &gamma, &graphs());
        let w = wpc_sentence(&pre, &gamma).expect("translates");
        for db in graphs() {
            assert!(!holds(&db, pre.omega(), &w).expect("evaluates"));
        }
    }

    #[test]
    fn robustness_same_wpc_works_under_extended_omega() {
        // T is compiled over the EMPTY Omega; gamma speaks FOc(Ω′) with
        // Ω′ = arithmetic. The same translation remains a weakest
        // precondition — Theorem 8's robustness.
        let p = Program::insert_consts("E", [4, 5]);
        let pre = compile_program("ins", &p, &Schema::graph(), &Omega::empty()).expect("compiles");
        let gamma = parse_formula("forall x y. E(x, y) -> @lt(x, y)").expect("parses");
        let w = wpc_sentence(&pre, &gamma).expect("translates");
        let ext = Omega::arithmetic();
        for db in graphs() {
            let lhs = holds(&db, &ext, &w).expect("wpc evaluates");
            let out = pre.apply(&db).expect("applies");
            let rhs = holds(&out, &ext, &gamma).expect("gamma evaluates");
            assert_eq!(lhs, rhs, "robust wpc mismatch on {db:?}");
        }
    }

    #[test]
    fn composition_agrees_with_sequential_application() {
        let schema = Schema::graph();
        let omega = Omega::empty();
        let first = compile_program(
            "ins56",
            &Program::insert_consts("E", [5, 6]),
            &schema,
            &omega,
        )
        .expect("compiles");
        let second = compile_program(
            "del-loops",
            &Program::DeleteWhere {
                rel: "E".into(),
                vars: vec![Var::new("x"), Var::new("y")],
                cond: parse_formula("x = y").expect("parses"),
            },
            &schema,
            &omega,
        )
        .expect("compiles");
        let composed = compose(&first, &second).expect("composes");
        for db in graphs() {
            let sequential = second
                .apply(&first.apply(&db).expect("first"))
                .expect("second");
            let at_once = composed.apply(&db).expect("composed");
            assert_eq!(sequential, at_once, "on {db:?}");
        }
    }

    #[test]
    fn counting_is_rejected() {
        let id = Prerelation::identity(Schema::graph(), Omega::empty());
        let gamma = vpdt_eval::counting::even_domain();
        assert_eq!(
            wpc_sentence(&id, &gamma).unwrap_err(),
            WpcError::CountingUnsupported
        );
    }

    #[test]
    fn unknown_relation_is_rejected() {
        let id = Prerelation::identity(Schema::graph(), Omega::empty());
        let gamma = parse_formula("exists x. R(x)").expect("parses");
        assert!(matches!(
            wpc_sentence(&id, &gamma),
            Err(WpcError::UnknownRelation(_))
        ));
    }
}
