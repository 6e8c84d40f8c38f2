//! Statement templates: prepared statements for update programs.
//!
//! A ground program like `insert E(3, 4)` differs from `insert E(5, 1)`
//! only in its constants; everything the guard compiler produces for one —
//! the Section-6 Δ, or the prerelations and `wpc` translation where no Δ
//! applies — has the same *shape* for the other. [`canonicalize`] makes
//! that sharing explicit: it lifts every constant occurring in a program to
//! a placeholder term ([`Term::param`]) in first-occurrence order, yielding
//! a constant-free [`Template`] plus the binding vector of lifted values.
//! [`Template::instantiate`] inverts the lifting up to the canonical
//! variable renaming `canonicalize` also performs:
//!
//! ```text
//! canonicalize(p) = (t, b)   ⟹   canonicalize(t.instantiate(&b)) = (t, b)
//! ```
//!
//! with `t.instantiate(&b)` α-equivalent to `p` (same semantics, canonical
//! variable spelling).
//!
//! Two ground programs canonicalize to the same template exactly when they
//! differ only in constants — element constants in terms *or* numeric
//! literals in condition formulas — or in variable names, so a guard cache
//! keyed by templates holds one entry per statement *shape* — O(1) in the
//! size of the universe — instead of one entry per ground program.
//!
//! Placeholders are ground terms (nullary applications of the reserved
//! symbol `?i`), so a template's shape is itself a well-formed [`Program`]
//! and flows through the whole compilation pipeline unchanged; only
//! *evaluation* of an un-instantiated placeholder is an error, which is
//! exactly the failure mode a forgotten binding should have.

use crate::program::Program;
use crate::traits::TxError;
use std::fmt;
use vpdt_logic::formula::NumTerm;
use vpdt_logic::subst::map_terms_full;
use vpdt_logic::{Elem, Formula, Term, Var};

/// A canonicalized statement shape: a program whose constants have been
/// lifted to placeholders `?0, ?1, …` in first-occurrence order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    shape: Program,
    params: usize,
}

impl Template {
    /// The constant-free program shape (placeholders in constant positions).
    pub fn shape(&self) -> &Program {
        &self.shape
    }

    /// Number of placeholders (= length of a valid binding vector).
    pub fn params(&self) -> usize {
        self.params
    }

    /// A stable cache key for the shape. Two ground programs share a key
    /// exactly when they canonicalize to the same template.
    pub fn key(&self) -> String {
        format!("{:?}", self.shape)
    }

    /// Rebuilds a template from a decoded shape program — the durable-log
    /// path, where shapes come back from disk rather than from
    /// [`canonicalize`]. The shape must carry exactly the placeholders
    /// `?0..?{n-1}` for some `n` (contiguous from zero), the invariant
    /// `canonicalize` guarantees; anything else is rejected so a tampered
    /// log cannot smuggle in a template whose instantiation would silently
    /// skip bindings.
    pub fn from_shape(shape: Program) -> Result<Template, TxError> {
        let mut params = std::collections::BTreeSet::new();
        for cond in shape.condition_formulas() {
            params.extend(vpdt_logic::subst::formula_params(cond));
        }
        collect_insert_params(&shape, &mut params);
        let n = params.len();
        if params.iter().next_back().is_some_and(|&max| max + 1 != n) {
            return Err(TxError::Eval(format!(
                "template shape has non-contiguous placeholders {params:?}"
            )));
        }
        Ok(Template { shape, params: n })
    }

    /// Substitutes `bindings[i]` for every placeholder `?i`, recovering a
    /// ground program. The inverse of [`canonicalize`] on its own output.
    pub fn instantiate(&self, bindings: &[Elem]) -> Result<Program, TxError> {
        if bindings.len() != self.params {
            return Err(TxError::Eval(format!(
                "template with {} placeholders instantiated with {} bindings",
                self.params,
                bindings.len()
            )));
        }
        Ok(map_program_terms(
            &self.shape,
            &mut |t| vpdt_logic::subst::instantiate_params_term(t, bindings),
            &mut |nt| vpdt_logic::subst::instantiate_num_param(nt, bindings),
        ))
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template[{} params] {:?}", self.params, self.shape)
    }
}

/// Splits a ground program into `(shape, bindings)`: every constant —
/// in insert tuples, inside Ω-applications, and in condition formulas —
/// is replaced by the next placeholder and its value recorded. Constants
/// are lifted *positionally* (two occurrences of the same value get two
/// placeholders), which maximizes shape sharing: `insert E(3,3)` and
/// `insert E(3,4)` are the same prepared statement with different bindings.
///
/// Numeric literals in condition formulas (counting bounds, `NumLe`/`NumEq`/
/// `Bit` operands) are value-normalized the same way, into the *same*
/// binding vector — so guards differing only in a threshold (`∃≥2` vs
/// `∃≥9`) share one compiled shape. The structural constants `1#` and
/// `max#` are part of the logic's syntax, not values, and stay in place.
///
/// Variable *names* are normalized away too: statement binders are renamed
/// positionally to `v0, v1, …` and quantified variables in condition
/// formulas to `b0, b1, …` by nesting depth, so α-equivalent programs —
/// `delete E where (x,y): x = 3` and `delete E where (a,b): a = 7` — share
/// one shape instead of splitting the cache per spelling. Renaming is
/// skipped (never unsound, just less sharing) in the degenerate cases
/// where it could capture: a canonical name already free in the condition,
/// or duplicate binder names.
///
/// Because of the renaming, the roundtrip lands on the *canonical
/// spelling* of the input, not its original one:
///
/// ```text
/// canonicalize(p) = (t, b)   ⟹   canonicalize(t.instantiate(&b)) = (t, b)
/// ```
///
/// with `t.instantiate(&b)` α-equivalent (hence semantically identical) to
/// `p`. Checks that tie a recorded `(shape, bindings)` back to a submitted
/// program must therefore compare canonical forms, not instantiations.
///
/// A program that already contains placeholder terms is **rejected**: the
/// lifted indices would collide with the pre-existing `?i`, breaking the
/// roundtrip invariant (the guard would verify a different program than
/// the one executed). Placeholders belong to templates, not to submitted
/// programs.
pub fn canonicalize(p: &Program) -> Result<(Template, Vec<Elem>), TxError> {
    if program_has_params(p) {
        return Err(TxError::Eval(
            "cannot canonicalize a program that already contains placeholder terms".to_string(),
        ));
    }
    let renamed = alpha_normalize(p);
    // Both sorts share one index space, so the two rewriters push into the
    // same vector; the RefCell lets the closures alias it.
    let bindings = std::cell::RefCell::new(Vec::new());
    let shape = map_program_terms(
        &renamed,
        &mut |t| lift_term(t, &mut bindings.borrow_mut()),
        &mut |nt| lift_num_term(nt, &mut bindings.borrow_mut()),
    );
    let bindings = bindings.into_inner();
    Ok((
        Template {
            shape,
            params: bindings.len(),
        },
        bindings,
    ))
}

/// The fast half of a cache lookup: a structural hash of `p` that ignores
/// its constants, plus the constants themselves — in the order
/// [`canonicalize`] lifts them — walked by reference with no intermediate
/// program.
///
/// Element constants ([`Term::Const`]) and numeric literals
/// ([`NumTerm::Lit`]) are left out of the hash and collected as the
/// bindings; everything else — statement kinds, relation, function and
/// predicate names, connectives, and variable names as spelled — is
/// hashed. Two programs that differ only in constants therefore hash
/// alike, and [`same_shape`] confirms it. They also canonicalize to one
/// template, because `canonicalize` never branches on a constant's value:
/// for such a pair `canonicalize(p).1` equals the bindings returned here.
/// Alpha-variants hash apart; a cache keyed by this hash holds one entry
/// per spelling, which [`canonicalize`] on the miss path ties to one shape.
///
/// Returns `None` when `p` contains a placeholder: such programs must reach
/// `canonicalize`, which refuses them.
pub fn fingerprint(p: &Program) -> Option<(u64, Vec<Elem>)> {
    let mut walk = ShapeWalk {
        hash: ShapeHasher::default(),
        bindings: Vec::new(),
    };
    walk.program(p)?;
    Some((walk.hash.0, walk.bindings))
}

/// Whether `a` and `b` have the same shape: structurally equal, with any
/// two element constants (and any two numeric literals) treated as equal.
/// Variable names must match as spelled — this is the check that makes a
/// [`fingerprint`] collision cost a cache miss, never a wrong shape.
pub fn same_shape(a: &Program, b: &Program) -> bool {
    use Program as P;
    match (a, b) {
        (P::Skip, P::Skip) => true,
        (P::Insert { rel, tuple }, P::Insert { rel: r, tuple: t }) => {
            rel == r && same_terms(tuple, t)
        }
        (
            P::DeleteWhere { rel, vars, cond },
            P::DeleteWhere {
                rel: r,
                vars: v,
                cond: c,
            },
        )
        | (
            P::InsertWhere { rel, vars, cond },
            P::InsertWhere {
                rel: r,
                vars: v,
                cond: c,
            },
        )
        | (
            P::Assign {
                rel,
                vars,
                body: cond,
            },
            P::Assign {
                rel: r,
                vars: v,
                body: c,
            },
        ) => rel == r && vars == v && same_formula(cond, c),
        (P::Seq(ps), P::Seq(qs)) => {
            ps.len() == qs.len() && ps.iter().zip(qs).all(|(p, q)| same_shape(p, q))
        }
        (
            P::If {
                cond,
                then_p,
                else_p,
            },
            P::If {
                cond: c,
                then_p: t,
                else_p: e,
            },
        ) => same_formula(cond, c) && same_shape(then_p, t) && same_shape(else_p, e),
        _ => false,
    }
}

fn same_terms(a: &[Term], b: &[Term]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(s, t)| same_term(s, t))
}

fn same_term(a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Const(_), Term::Const(_)) => true,
        (Term::Var(x), Term::Var(y)) => x == y,
        (Term::App(f, xs), Term::App(g, ys)) => f == g && same_terms(xs, ys),
        _ => false,
    }
}

fn same_num(a: &NumTerm, b: &NumTerm) -> bool {
    matches!((a, b), (NumTerm::Lit(_), NumTerm::Lit(_))) || a == b
}

fn same_formula(a: &Formula, b: &Formula) -> bool {
    use Formula as F;
    match (a, b) {
        (F::True, F::True) | (F::False, F::False) => true,
        (F::Rel(r, ts), F::Rel(s, us)) => r == s && same_terms(ts, us),
        (F::Pred(p, ts), F::Pred(q, us)) => p == q && same_terms(ts, us),
        (F::Eq(a1, a2), F::Eq(b1, b2)) => same_term(a1, b1) && same_term(a2, b2),
        (F::Not(g), F::Not(h)) => same_formula(g, h),
        (F::And(gs), F::And(hs)) | (F::Or(gs), F::Or(hs)) => {
            gs.len() == hs.len() && gs.iter().zip(hs).all(|(g, h)| same_formula(g, h))
        }
        (F::Implies(a1, a2), F::Implies(b1, b2)) | (F::Iff(a1, a2), F::Iff(b1, b2)) => {
            same_formula(a1, b1) && same_formula(a2, b2)
        }
        (F::Exists(v, g), F::Exists(w, h))
        | (F::Forall(v, g), F::Forall(w, h))
        | (F::NumExists(v, g), F::NumExists(w, h))
        | (F::NumForall(v, g), F::NumForall(w, h)) => v == w && same_formula(g, h),
        (F::CountGe(i, v, g), F::CountGe(j, w, h)) => {
            same_num(i, j) && v == w && same_formula(g, h)
        }
        (F::NumLe(a1, a2), F::NumLe(b1, b2))
        | (F::NumEq(a1, a2), F::NumEq(b1, b2))
        | (F::Bit(a1, a2), F::Bit(b1, b2)) => same_num(a1, b1) && same_num(a2, b2),
        _ => false,
    }
}

/// A small Fx-style hasher for [`fingerprint`], written here so the hash
/// needs no dependency: one rotate, xor and multiply per word.
#[derive(Default)]
struct ShapeHasher(u64);

impl ShapeHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }
}

/// The state of one [`fingerprint`] walk. It visits term positions in the
/// order [`map_program_terms`] and `map_terms_full` rewrite them, so the
/// bindings come out in `canonicalize`'s lifting order. Each node hashes a
/// distinct tag first, so differently nested programs hash apart.
struct ShapeWalk {
    hash: ShapeHasher,
    bindings: Vec<Elem>,
}

impl ShapeWalk {
    fn program(&mut self, p: &Program) -> Option<()> {
        match p {
            Program::Skip => self.hash.word(0),
            Program::Insert { rel, tuple } => {
                self.hash.word(1);
                self.hash.str(rel);
                self.terms(tuple)?;
            }
            Program::DeleteWhere { rel, vars, cond } => self.statement(2, rel, vars, cond)?,
            Program::InsertWhere { rel, vars, cond } => self.statement(3, rel, vars, cond)?,
            Program::Assign { rel, vars, body } => self.statement(4, rel, vars, body)?,
            Program::Seq(ps) => {
                self.hash.word(5);
                self.hash.word(ps.len() as u64);
                for q in ps {
                    self.program(q)?;
                }
            }
            Program::If {
                cond,
                then_p,
                else_p,
            } => {
                self.hash.word(6);
                self.formula(cond)?;
                self.program(then_p)?;
                self.program(else_p)?;
            }
        }
        Some(())
    }

    fn statement(&mut self, tag: u64, rel: &str, vars: &[Var], cond: &Formula) -> Option<()> {
        self.hash.word(tag);
        self.hash.str(rel);
        self.hash.word(vars.len() as u64);
        for v in vars {
            self.hash.str(v.name());
        }
        self.formula(cond)
    }

    fn terms(&mut self, ts: &[Term]) -> Option<()> {
        self.hash.word(ts.len() as u64);
        ts.iter().try_for_each(|t| self.term(t))
    }

    fn term(&mut self, t: &Term) -> Option<()> {
        match t {
            Term::Var(v) => {
                self.hash.word(10);
                self.hash.str(v.name());
            }
            Term::Const(e) => {
                self.hash.word(11);
                self.bindings.push(*e);
            }
            Term::App(f, args) => {
                if t.as_param().is_some() {
                    return None;
                }
                self.hash.word(12);
                self.hash.str(f.name());
                self.terms(args)?;
            }
        }
        Some(())
    }

    fn num(&mut self, t: &NumTerm) -> Option<()> {
        match t {
            NumTerm::Var(v) => {
                self.hash.word(20);
                self.hash.str(v.name());
            }
            NumTerm::One => self.hash.word(21),
            NumTerm::Max => self.hash.word(22),
            NumTerm::Lit(n) => {
                self.hash.word(23);
                self.bindings.push(Elem(*n));
            }
            NumTerm::Param(_) => return None,
        }
        Some(())
    }

    fn formula(&mut self, f: &Formula) -> Option<()> {
        match f {
            Formula::True => self.hash.word(30),
            Formula::False => self.hash.word(31),
            Formula::Rel(name, ts) => {
                self.hash.word(32);
                self.hash.str(name);
                self.terms(ts)?;
            }
            Formula::Pred(p, ts) => {
                self.hash.word(33);
                self.hash.str(p.name());
                self.terms(ts)?;
            }
            Formula::Eq(a, b) => {
                self.hash.word(34);
                self.term(a)?;
                self.term(b)?;
            }
            Formula::Not(g) => {
                self.hash.word(35);
                self.formula(g)?;
            }
            Formula::And(gs) => self.junction(36, gs)?,
            Formula::Or(gs) => self.junction(37, gs)?,
            Formula::Implies(a, b) => self.pair(38, a, b)?,
            Formula::Iff(a, b) => self.pair(39, a, b)?,
            Formula::Exists(v, g) => self.binder(40, v, g)?,
            Formula::Forall(v, g) => self.binder(41, v, g)?,
            Formula::NumExists(v, g) => self.binder(42, v, g)?,
            Formula::NumForall(v, g) => self.binder(43, v, g)?,
            Formula::CountGe(i, v, g) => {
                // `map_terms_full` rewrites the bound before the body.
                self.hash.word(44);
                self.num(i)?;
                self.binder(44, v, g)?;
            }
            Formula::NumLe(a, b) => self.nums(45, a, b)?,
            Formula::NumEq(a, b) => self.nums(46, a, b)?,
            Formula::Bit(a, b) => self.nums(47, a, b)?,
        }
        Some(())
    }

    fn junction(&mut self, tag: u64, gs: &[Formula]) -> Option<()> {
        self.hash.word(tag);
        self.hash.word(gs.len() as u64);
        gs.iter().try_for_each(|g| self.formula(g))
    }

    fn pair(&mut self, tag: u64, a: &Formula, b: &Formula) -> Option<()> {
        self.hash.word(tag);
        self.formula(a)?;
        self.formula(b)
    }

    fn binder(&mut self, tag: u64, v: &Var, g: &Formula) -> Option<()> {
        self.hash.word(tag);
        self.hash.str(v.name());
        self.formula(g)
    }

    fn nums(&mut self, tag: u64, a: &NumTerm, b: &NumTerm) -> Option<()> {
        self.hash.word(tag);
        self.num(a)?;
        self.num(b)
    }
}

/// Canonically renames the program's variables: statement binders become
/// `v0, v1, …` positionally, quantified variables in every condition
/// formula become `b0, b1, …` by nesting depth (via
/// [`normalize_bound_vars`]). Statement renaming is simultaneous and
/// capture-checked; when a canonical name is already free in the condition
/// (and is not one of the binders being renamed) or the binder list has
/// duplicates, the statement keeps its original names — correctness never
/// depends on the rename, only cache sharing does.
fn alpha_normalize(p: &Program) -> Program {
    use vpdt_logic::simplify::normalize_bound_vars;
    match p {
        Program::Skip => Program::Skip,
        Program::Insert { rel, tuple } => Program::Insert {
            rel: rel.clone(),
            tuple: tuple.clone(),
        },
        Program::DeleteWhere { rel, vars, cond } => {
            let (vars, cond) = rename_statement_vars(vars, cond);
            Program::DeleteWhere {
                rel: rel.clone(),
                vars,
                cond: normalize_bound_vars(&cond),
            }
        }
        Program::InsertWhere { rel, vars, cond } => {
            let (vars, cond) = rename_statement_vars(vars, cond);
            Program::InsertWhere {
                rel: rel.clone(),
                vars,
                cond: normalize_bound_vars(&cond),
            }
        }
        Program::Assign { rel, vars, body } => {
            let (vars, body) = rename_statement_vars(vars, body);
            Program::Assign {
                rel: rel.clone(),
                vars,
                body: normalize_bound_vars(&body),
            }
        }
        Program::Seq(ps) => Program::Seq(ps.iter().map(alpha_normalize).collect()),
        Program::If {
            cond,
            then_p,
            else_p,
        } => Program::If {
            cond: normalize_bound_vars(cond),
            then_p: Box::new(alpha_normalize(then_p)),
            else_p: Box::new(alpha_normalize(else_p)),
        },
    }
}

/// Simultaneously renames `vars` to `v0..v{n-1}` in `cond`. Bails out
/// (returning the originals) when the rename could capture or conflate:
/// duplicate binders, or a canonical name free in `cond` that is not
/// itself one of the binders.
fn rename_statement_vars(vars: &[Var], cond: &Formula) -> (Vec<Var>, Formula) {
    let targets: Vec<Var> = (0..vars.len()).map(|i| Var::new(format!("v{i}"))).collect();
    if targets == vars {
        return (vars.to_vec(), cond.clone());
    }
    let distinct: std::collections::BTreeSet<&Var> = vars.iter().collect();
    if distinct.len() != vars.len() {
        return (vars.to_vec(), cond.clone());
    }
    let free = cond.free_vars();
    if targets
        .iter()
        .any(|t| free.contains(t) && !distinct.contains(t))
    {
        return (vars.to_vec(), cond.clone());
    }
    let map: std::collections::BTreeMap<Var, Term> = vars
        .iter()
        .cloned()
        .zip(targets.iter().cloned().map(Term::Var))
        .collect();
    (targets, vpdt_logic::subst::substitute_many(cond, &map))
}

/// Whether any placeholder term occurs in the program (insert tuples or
/// condition formulas).
fn program_has_params(p: &Program) -> bool {
    fn formula_has_params(f: &Formula) -> bool {
        !vpdt_logic::subst::formula_params(f).is_empty()
    }
    match p {
        Program::Skip => false,
        Program::Insert { tuple, .. } => tuple.iter().any(Term::has_params),
        Program::DeleteWhere { cond, .. } | Program::InsertWhere { cond, .. } => {
            formula_has_params(cond)
        }
        Program::Assign { body, .. } => formula_has_params(body),
        Program::Seq(ps) => ps.iter().any(program_has_params),
        Program::If {
            cond,
            then_p,
            else_p,
        } => formula_has_params(cond) || program_has_params(then_p) || program_has_params(else_p),
    }
}

/// Collects the placeholder indices occurring in `Insert` tuples (the one
/// term position [`Program::condition_formulas`] does not cover).
fn collect_insert_params(p: &Program, out: &mut std::collections::BTreeSet<usize>) {
    fn term_params(t: &Term, out: &mut std::collections::BTreeSet<usize>) {
        if let Some(i) = t.as_param() {
            out.insert(i);
        } else if let Term::App(_, args) = t {
            for a in args {
                term_params(a, out);
            }
        }
    }
    match p {
        Program::Insert { tuple, .. } => {
            for t in tuple {
                term_params(t, out);
            }
        }
        Program::Seq(ps) => {
            for q in ps {
                collect_insert_params(q, out);
            }
        }
        Program::If { then_p, else_p, .. } => {
            collect_insert_params(then_p, out);
            collect_insert_params(else_p, out);
        }
        _ => {}
    }
}

fn lift_term(t: &Term, bindings: &mut Vec<Elem>) -> Term {
    match t {
        Term::Var(_) => t.clone(),
        Term::Const(e) => {
            bindings.push(*e);
            Term::param(bindings.len() - 1)
        }
        Term::App(f, args) => Term::App(
            f.clone(),
            args.iter().map(|a| lift_term(a, bindings)).collect(),
        ),
    }
}

fn lift_num_term(t: &NumTerm, bindings: &mut Vec<Elem>) -> NumTerm {
    match t {
        NumTerm::Lit(n) => {
            bindings.push(Elem(*n));
            NumTerm::Param(bindings.len() - 1)
        }
        // `1#` and `max#` are syntax, not values — lifting them would make
        // shapes depend on the universe size; variables stay bound.
        NumTerm::Var(_) | NumTerm::One | NumTerm::Max | NumTerm::Param(_) => t.clone(),
    }
}

/// Rewrites every term position of a program — insert tuples and all
/// condition formulas, numeric-term positions included — with the two
/// rewriters.
fn map_program_terms(
    p: &Program,
    rewrite: &mut dyn FnMut(&Term) -> Term,
    rewrite_num: &mut dyn FnMut(&NumTerm) -> NumTerm,
) -> Program {
    match p {
        Program::Skip => Program::Skip,
        Program::Insert { rel, tuple } => Program::Insert {
            rel: rel.clone(),
            tuple: tuple.iter().map(rewrite).collect(),
        },
        Program::DeleteWhere { rel, vars, cond } => Program::DeleteWhere {
            rel: rel.clone(),
            vars: vars.clone(),
            cond: map_terms_full(cond, rewrite, rewrite_num),
        },
        Program::InsertWhere { rel, vars, cond } => Program::InsertWhere {
            rel: rel.clone(),
            vars: vars.clone(),
            cond: map_terms_full(cond, rewrite, rewrite_num),
        },
        Program::Assign { rel, vars, body } => Program::Assign {
            rel: rel.clone(),
            vars: vars.clone(),
            body: map_terms_full(body, rewrite, rewrite_num),
        },
        Program::Seq(ps) => Program::Seq(
            ps.iter()
                .map(|q| map_program_terms(q, rewrite, rewrite_num))
                .collect(),
        ),
        Program::If {
            cond,
            then_p,
            else_p,
        } => Program::If {
            cond: map_terms_full(cond, rewrite, rewrite_num),
            then_p: Box::new(map_program_terms(then_p, rewrite, rewrite_num)),
            else_p: Box::new(map_program_terms(else_p, rewrite, rewrite_num)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_logic::{parse_formula, Var};

    fn roundtrips(p: &Program) {
        let (t, b) = canonicalize(p).expect("canonicalizes");
        // The roundtrip lands on the canonical spelling of `p`:
        // re-canonicalizing the instantiation is a fixpoint.
        let ground = t.instantiate(&b).expect("instantiates");
        let (t2, b2) = canonicalize(&ground).expect("re-canonicalizes");
        assert_eq!(t2, t, "{p:?}");
        assert_eq!(b2, b, "{p:?}");
    }

    #[test]
    fn canonicalize_roundtrips() {
        for p in [
            Program::Skip,
            Program::insert_consts("E", [3, 4]),
            Program::insert_consts("E", [3, 3]),
            Program::delete_consts("E", [0, 7]),
            Program::Insert {
                rel: "E".into(),
                tuple: vec![Term::cst(1u64), Term::app("succ", [Term::cst(1u64)])],
            },
            Program::seq([
                Program::insert_consts("E", [1, 2]),
                Program::If {
                    cond: parse_formula("exists x. E(x, 5)").expect("parses"),
                    then_p: Box::new(Program::delete_consts("E", [5, 5])),
                    else_p: Box::new(Program::Skip),
                },
            ]),
            Program::Assign {
                rel: "E".into(),
                vars: vec![Var::new("x"), Var::new("y")],
                body: parse_formula("x != 9 & E(x, y)").expect("parses"),
            },
        ] {
            roundtrips(&p);
        }
    }

    #[test]
    fn shapes_collapse_over_constants() {
        let (a, ba) = canonicalize(&Program::insert_consts("E", [3, 4])).expect("canonicalizes");
        let (b, bb) = canonicalize(&Program::insert_consts("E", [5, 1])).expect("canonicalizes");
        let (c, bc) = canonicalize(&Program::insert_consts("E", [3, 3])).expect("canonicalizes");
        assert_eq!(a, b);
        assert_eq!(a, c, "repeated constants do not change the shape");
        assert_eq!(a.key(), b.key());
        assert_eq!(ba, vec![Elem(3), Elem(4)]);
        assert_eq!(bb, vec![Elem(5), Elem(1)]);
        assert_eq!(bc, vec![Elem(3), Elem(3)]);
        // different statement kinds stay distinct
        let (d, _) = canonicalize(&Program::delete_consts("E", [3, 4])).expect("canonicalizes");
        assert_ne!(a.key(), d.key());
        // ...and so do different relations
        let (e, _) = canonicalize(&Program::insert_consts("F", [3, 4])).expect("canonicalizes");
        assert_ne!(a.key(), e.key());
    }

    #[test]
    fn shape_is_constant_free() {
        let (t, b) = canonicalize(&Program::seq([
            Program::insert_consts("E", [1, 2]),
            Program::delete_consts("E", [3, 4]),
        ]))
        .expect("canonicalizes");
        assert_eq!(t.params(), 4);
        assert_eq!(b.len(), 4);
        for cond in t.shape().condition_formulas() {
            assert!(cond.constants_used().is_empty(), "constant left in {cond}");
        }
    }

    #[test]
    fn programs_with_placeholders_are_rejected() {
        // a placeholder smuggled into a "ground" program would collide
        // with the lifted indices and break the roundtrip invariant
        let p = Program::Insert {
            rel: "E".into(),
            tuple: vec![Term::param(0), Term::cst(5u64)],
        };
        assert!(matches!(canonicalize(&p), Err(TxError::Eval(_))));
        // ...also when nested in an Ω-application or a condition formula
        let nested = Program::Insert {
            rel: "E".into(),
            tuple: vec![Term::cst(1u64), Term::app("succ", [Term::param(0)])],
        };
        assert!(canonicalize(&nested).is_err());
        let cond = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: Formula::eq(Term::var("x"), Term::param(2)),
        };
        assert!(canonicalize(&cond).is_err());
        // ...and numeric placeholders in condition formulas
        let num = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: Formula::NumLe(NumTerm::Param(0), NumTerm::Max),
        };
        assert!(canonicalize(&num).is_err());
    }

    /// Numeric literals in condition formulas are value-normalized into the
    /// same binding vector as element constants, in one occurrence order —
    /// so guards differing only in a counting threshold share a shape.
    #[test]
    fn numeric_literals_lift_into_the_shared_binding_vector() {
        let guarded = |n: u64, e: u64| Program::If {
            cond: Formula::count_ge(
                NumTerm::Lit(n),
                "x",
                Formula::rel("E", [Term::var("x"), Term::cst(e)]),
            ),
            then_p: Box::new(Program::insert_consts("E", [7, 8])),
            else_p: Box::new(Program::Skip),
        };
        roundtrips(&guarded(2, 4));
        let (a, ba) = canonicalize(&guarded(2, 4)).expect("canonicalizes");
        let (b, bb) = canonicalize(&guarded(9, 5)).expect("canonicalizes");
        assert_eq!(a, b, "thresholds no longer split shapes");
        assert_eq!(ba, vec![Elem(2), Elem(4), Elem(7), Elem(8)]);
        assert_eq!(bb, vec![Elem(9), Elem(5), Elem(7), Elem(8)]);
        // the shape carries a numeric placeholder where the threshold was
        match a.shape() {
            Program::If { cond, .. } => match cond {
                Formula::CountGe(i, _, _) => assert_eq!(i, &NumTerm::Param(0)),
                other => panic!("expected CountGe, got {other}"),
            },
            other => panic!("expected If, got {other:?}"),
        }
        // `1#` and `max#` are structural and stay in place; repeated numeric
        // literals lift positionally, like repeated element constants
        let structural = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: Formula::and([
                Formula::NumLe(NumTerm::One, NumTerm::Max),
                Formula::NumEq(NumTerm::Lit(3), NumTerm::Lit(3)),
            ]),
        };
        roundtrips(&structural);
        let (t, bs) = canonicalize(&structural).expect("canonicalizes");
        assert_eq!(bs, vec![Elem(3), Elem(3)]);
        // the durable-log path accepts numeric placeholders too
        let rebuilt = Template::from_shape(t.shape().clone()).expect("rebuilds");
        assert_eq!(rebuilt, t);
        // the instantiation is the canonical (α-renamed) spelling
        assert_eq!(
            canonicalize(&rebuilt.instantiate(&bs).expect("instantiates")).expect("canonicalizes"),
            (t, bs)
        );
    }

    /// α-equivalent programs — differing only in how their binders are
    /// spelled — canonicalize to one shape, for statement binders and for
    /// quantified condition variables alike. This is what keeps a guard
    /// cache from splitting per client naming convention.
    #[test]
    fn alpha_equivalent_programs_share_a_shape() {
        // statement binders: delete E where (x,y): x = 3  vs  (a,b): a = 7
        let delete = |u: &str, v: &str, k: u64| Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new(u), Var::new(v)],
            cond: Formula::eq(Term::var(u), Term::cst(k)),
        };
        roundtrips(&delete("x", "y", 3));
        let (a, ba) = canonicalize(&delete("x", "y", 3)).expect("canonicalizes");
        let (b, bb) = canonicalize(&delete("a", "b", 7)).expect("canonicalizes");
        assert_eq!(a, b, "binder spelling no longer splits shapes");
        assert_eq!(ba, vec![Elem(3)]);
        assert_eq!(bb, vec![Elem(7)]);
        // quantified condition variables: If (exists x. E(x,5)) vs (exists q. E(q,9))
        let guarded = |name: &str, k: u64| Program::If {
            cond: Formula::exists(name, Formula::rel("E", [Term::var(name), Term::cst(k)])),
            then_p: Box::new(Program::insert_consts("E", [1, 2])),
            else_p: Box::new(Program::Skip),
        };
        roundtrips(&guarded("x", 5));
        let (c, _) = canonicalize(&guarded("x", 5)).expect("canonicalizes");
        let (d, _) = canonicalize(&guarded("q", 9)).expect("canonicalizes");
        assert_eq!(c, d, "quantifier spelling no longer splits shapes");
        // ...and the two renamings compose in one statement
        let both = |u: &str, w: &str| Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new(u), Var::new("y2")],
            cond: Formula::exists(w, Formula::rel("E", [Term::var(u), Term::var(w)])),
        };
        roundtrips(&both("x", "z"));
        let (e, _) = canonicalize(&both("x", "z")).expect("canonicalizes");
        let (f, _) = canonicalize(&both("p", "q")).expect("canonicalizes");
        assert_eq!(e, f);
    }

    /// The capture bail-outs: renaming is skipped (not botched) when a
    /// canonical name is already taken or binders repeat.
    #[test]
    fn alpha_renaming_bails_out_rather_than_capture() {
        // `v1` is free in the condition but is NOT one of the binders:
        // renaming y→v1 would conflate it with the free v1.
        let clash = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: Formula::rel("E", [Term::var("x"), Term::var("v1")]),
        };
        let (t, _) = canonicalize(&clash).expect("canonicalizes");
        match t.shape() {
            Program::DeleteWhere { vars, .. } => {
                assert_eq!(vars, &[Var::new("x"), Var::new("y")], "rename skipped");
            }
            other => panic!("expected DeleteWhere, got {other:?}"),
        }
        roundtrips(&clash);
        // duplicate binders: positional renaming would decouple the two
        // occurrences, so the spelling stays.
        let dup = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("x")],
            cond: Formula::eq(Term::var("x"), Term::cst(3u64)),
        };
        let (t, _) = canonicalize(&dup).expect("canonicalizes");
        match t.shape() {
            Program::DeleteWhere { vars, .. } => {
                assert_eq!(vars, &[Var::new("x"), Var::new("x")], "rename skipped");
            }
            other => panic!("expected DeleteWhere, got {other:?}"),
        }
        roundtrips(&dup);
    }

    /// `from_shape` (the durable-log path) accepts exactly the shapes
    /// `canonicalize` produces and rejects gappy placeholder sets.
    #[test]
    fn from_shape_reconstructs_templates() {
        for p in [
            Program::insert_consts("E", [3, 4]),
            Program::delete_consts("E", [0, 7]),
            Program::seq([
                Program::insert_consts("E", [1, 2]),
                Program::delete_consts("F", [3, 4]),
            ]),
        ] {
            let (t, b) = canonicalize(&p).expect("canonicalizes");
            let rebuilt = Template::from_shape(t.shape().clone()).expect("rebuilds");
            assert_eq!(rebuilt, t);
            // instantiation is the canonical spelling of `p`
            assert_eq!(
                canonicalize(&rebuilt.instantiate(&b).expect("instantiates"))
                    .expect("canonicalizes"),
                (t, b)
            );
        }
        // ?1 without ?0: instantiation would silently skip a binding
        let gappy = Program::Insert {
            rel: "E".into(),
            tuple: vec![Term::param(1), Term::param(1)],
        };
        assert!(matches!(Template::from_shape(gappy), Err(TxError::Eval(_))));
    }

    #[test]
    fn binding_arity_is_checked() {
        let (t, _) = canonicalize(&Program::insert_consts("E", [1, 2])).expect("canonicalizes");
        assert!(matches!(t.instantiate(&[Elem(1)]), Err(TxError::Eval(_))));
        assert!(matches!(
            t.instantiate(&[Elem(1), Elem(2), Elem(3)]),
            Err(TxError::Eval(_))
        ));
    }

    #[test]
    fn shape_footprints_match_ground_footprints() {
        let p = Program::seq([
            Program::insert_consts("E", [1, 2]),
            Program::delete_consts("F", [3, 4]),
        ]);
        let (t, _) = canonicalize(&p).expect("canonicalizes");
        assert_eq!(t.shape().touched_relations(), p.touched_relations());
        assert_eq!(t.shape().read_relations(), p.read_relations());
        assert_eq!(t.shape().enumerates_domain(), p.enumerates_domain());
    }

    /// The borrow-only walk collects exactly `canonicalize`'s bindings,
    /// in its lifting order, and hashes programs that differ only in
    /// constants alike.
    #[test]
    fn fingerprint_agrees_with_canonicalize() {
        let guarded = |n: u64, e: u64, name: &str| Program::If {
            cond: Formula::count_ge(
                NumTerm::Lit(n),
                name,
                Formula::rel("E", [Term::var(name), Term::cst(e)]),
            ),
            then_p: Box::new(Program::delete_consts("E", [e, e])),
            else_p: Box::new(Program::Insert {
                rel: "E".into(),
                tuple: vec![Term::cst(1u64), Term::app("succ", [Term::cst(e)])],
            }),
        };
        let programs = [
            Program::Skip,
            Program::insert_consts("E", [3, 3]),
            Program::delete_consts("E", [0, 7]),
            Program::seq([
                Program::insert_consts("E", [1, 2]),
                Program::delete_consts("F", [3, 4]),
            ]),
            guarded(2, 4, "x"),
            Program::DeleteWhere {
                rel: "E".into(),
                vars: vec![Var::new("x"), Var::new("y")],
                cond: Formula::and([
                    Formula::NumLe(NumTerm::One, NumTerm::Max),
                    Formula::NumEq(NumTerm::Lit(3), NumTerm::Lit(3)),
                    Formula::eq(Term::var("y"), Term::cst(8u64)),
                ]),
            },
        ];
        for p in &programs {
            let (_, bindings) = canonicalize(p).expect("canonicalizes");
            let (_, fast) = fingerprint(p).expect("ground");
            assert_eq!(fast, bindings, "{p:?}");
            assert!(same_shape(p, p));
        }
        let (a, _) = fingerprint(&guarded(2, 4, "x")).expect("ground");
        let (b, bb) = fingerprint(&guarded(9, 5, "x")).expect("ground");
        assert_eq!(a, b, "constants do not enter the hash");
        assert_eq!(
            bb,
            vec![Elem(9), Elem(5), Elem(5), Elem(5), Elem(1), Elem(5)]
        );
        assert!(same_shape(&guarded(2, 4, "x"), &guarded(9, 5, "x")));
        // an alpha-variant is another spelling: it hashes apart
        let (c, _) = fingerprint(&guarded(2, 4, "q")).expect("ground");
        assert_ne!(a, c);
        assert!(!same_shape(&guarded(2, 4, "x"), &guarded(2, 4, "q")));
    }

    /// `same_shape` tells statement kinds, relations, connectives and
    /// constant-versus-variable positions apart.
    #[test]
    fn same_shape_distinguishes_structure() {
        let shapes = [
            Program::insert_consts("E", [3, 4]),
            Program::insert_consts("F", [3, 4]),
            Program::delete_consts("E", [3, 4]),
            Program::Insert {
                rel: "E".into(),
                tuple: vec![Term::cst(3u64), Term::app("succ", [Term::cst(4u64)])],
            },
            Program::seq([Program::insert_consts("E", [3, 4])]),
            Program::seq([Program::insert_consts("E", [3, 4]), Program::Skip]),
            Program::DeleteWhere {
                rel: "E".into(),
                vars: vec![Var::new("d0"), Var::new("d1")],
                cond: Formula::eq(Term::var("d0"), Term::var("d1")),
            },
            Program::DeleteWhere {
                rel: "E".into(),
                vars: vec![Var::new("d0"), Var::new("d1")],
                cond: Formula::eq(Term::var("d0"), Term::cst(1u64)),
            },
        ];
        for (i, p) in shapes.iter().enumerate() {
            for (j, q) in shapes.iter().enumerate() {
                assert_eq!(same_shape(p, q), i == j, "{p:?} vs {q:?}");
                let (hp, _) = fingerprint(p).expect("ground");
                let (hq, _) = fingerprint(q).expect("ground");
                assert_eq!(hp == hq, i == j, "{p:?} vs {q:?}");
            }
        }
    }

    /// Programs with placeholders do not fingerprint: they must reach
    /// `canonicalize`, which refuses them.
    #[test]
    fn placeholders_do_not_fingerprint() {
        let nested = Program::Insert {
            rel: "E".into(),
            tuple: vec![Term::cst(1u64), Term::app("succ", [Term::param(0)])],
        };
        assert!(fingerprint(&nested).is_none());
        let num = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: Formula::NumLe(NumTerm::Param(0), NumTerm::Max),
        };
        assert!(fingerprint(&num).is_none());
    }

    #[test]
    fn templates_cross_threads() {
        fn assert_bounds<T: Send + Sync + Clone + 'static>() {}
        assert_bounds::<Template>();
    }
}
