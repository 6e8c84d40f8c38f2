//! The core evaluator: `D ⊨ α` for FO / FOc / FOc(Ω) / FOcount.
//!
//! First-sort quantifiers range over the database's explicit finite domain.
//! Free variables may be bound (via [`Env`]) to arbitrary elements of `U` —
//! this is exactly what prerelations need: the tuple variables of
//! `pre_R(d₁..d_n)` range over the term extension `Γ(D)` while the
//! quantifiers inside the formula still range over `dom(D)`.
//!
//! The numeric sort of `FOcount` is `{1..n}` where `n = |dom(D)|`
//! (Section 2), with constants `1` and `max`, the order, and `bit(i,j)`.
//!
//! # Range-restricted quantifiers
//!
//! `∃v. φ` only needs the elements where `φ` can be **true**, and `∀v. φ`
//! only those where it can be **false**: every other element leaves the
//! verdict alone. Before looping, each quantifier asks its matrix for a
//! superset of those *candidates*, read off `φ`'s own atoms, and loops
//! over them instead of the domain when it gets one. "pos" below means
//! the subformula must hold, "neg" that it must fail; a term is
//! *evaluable* when it mentions neither `v` nor a variable quantified
//! between `v` and the term (those are *wildcards*):
//!
//! * `R(t̄)` in pos, with `v` among the arguments: the value at `v`'s
//!   position over the tuples of `R` that match every evaluable argument
//!   (a leading run of them is a [`Relation::prefix_range`] seek, the rest
//!   a filter); a repeated `v` must match at every position it occupies;
//! * `v = t` / `t = v` in pos, `t` evaluable: `{⟦t⟧}` when it is in the
//!   domain ([`Database::domain_contains`]), else `{}`;
//! * `∧` in pos and `∨` in neg: the first conjunct / disjunct that gives
//!   candidates; `∨` in pos and `∧` in neg: the union, only when every
//!   part gives candidates;
//! * `¬` flips polarity; `a → b` in neg uses `a` in pos or else `b` in
//!   neg; `true` in neg and `false` in pos give `{}`;
//! * `∃w` in pos and `∀w` in neg are looked through with `w` a wildcard,
//!   unless `w` is `v` itself (the inner binder shadows `v`);
//! * anything else — `↔`, `→` in pos, Ω predicates, counting and numeric
//!   quantifiers, the other polarity of an atom — gives none, and the
//!   quantifier loops over the domain as the reference does.
//!
//! For the FD `∀x y z (R(x,y) ∧ R(x,z) → y = z)` this ranges `x` over
//! `R`'s first column and `y`, `z` over the tuples with that first column:
//! an index join over `R` instead of |dom|³ lookups.
//!
//! **Why this is exact.** Each rule yields a superset of the elements at
//! which its subformula takes the wanted value, whatever the wildcards
//! are bound to, so an element outside the candidates makes `φ` false
//! (under `∃`) or true (under `∀`) and cannot change the verdict. Every
//! candidate is in the domain: tuple elements always are, and equality
//! candidates are membership-checked. The verdict therefore equals the
//! whole-domain loop's on every database and binding — no
//! domain-independence precondition, no second code path to select.
//! The analysis is one walk over the quantifier's matrix; a term it cannot
//! evaluate sends the quantifier back to the domain loop.
//!
//! # Errors
//!
//! [`holds`] and [`eval`] check once, before evaluating, that every
//! relation is in the schema at its arity and every free variable is
//! bound, so ill-formed input is an [`EvalError`] on every database, not
//! only where a loop happens to reach the bad atom. Ω symbols are checked
//! lazily, when evaluation applies them.
//!
//! The whole-domain evaluator is kept unchanged in
//! [`reference`](mod@reference), as the oracle the tests compare these
//! verdicts with.
//!
//! [`Relation::prefix_range`]: vpdt_structure::Relation::prefix_range

pub mod reference;

use std::fmt;
use vpdt_logic::{Elem, Formula, NumTerm, Term, Var};
use vpdt_structure::Database;

use crate::omega::Omega;

/// Evaluation errors: unknown symbols, arity mismatches, unbound variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError(pub String);

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// A variable assignment: bindings for first-sort and numeric variables.
///
/// Implemented as stacks so that quantifier evaluation is push/pop.
#[derive(Clone, Debug, Default)]
pub struct Env {
    elems: Vec<(Var, Elem)>,
    nums: Vec<(Var, u64)>,
}

impl Env {
    /// The empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// An assignment binding the given first-sort variables.
    pub fn of(bindings: impl IntoIterator<Item = (Var, Elem)>) -> Self {
        Env {
            elems: bindings.into_iter().collect(),
            nums: Vec::new(),
        }
    }

    /// Binds a first-sort variable (shadows earlier bindings).
    pub fn push_elem(&mut self, v: Var, e: Elem) {
        self.elems.push((v, e));
    }

    /// Removes the most recent first-sort binding.
    pub fn pop_elem(&mut self) {
        self.elems.pop();
    }

    /// Looks up a first-sort variable (most recent binding wins).
    pub fn elem(&self, v: &Var) -> Option<Elem> {
        self.elems
            .iter()
            .rev()
            .find(|(w, _)| w == v)
            .map(|(_, e)| *e)
    }

    fn push_num(&mut self, v: Var, n: u64) {
        self.nums.push((v, n));
    }

    fn pop_num(&mut self) {
        self.nums.pop();
    }

    fn num(&self, v: &Var) -> Option<u64> {
        self.nums
            .iter()
            .rev()
            .find(|(w, _)| w == v)
            .map(|(_, n)| *n)
    }
}

/// Evaluates a sentence: `D ⊨ α` with Ω-symbols interpreted by `omega`.
pub fn holds(db: &Database, omega: &Omega, sentence: &Formula) -> Result<bool, EvalError> {
    let mut env = Env::new();
    eval(db, omega, sentence, &mut env)
}

/// Evaluates a sentence with the empty Ω (FO / FOc / FOcount).
pub fn holds_pure(db: &Database, sentence: &Formula) -> Result<bool, EvalError> {
    holds(db, &Omega::empty(), sentence)
}

/// Evaluates a formula under an assignment of its free variables.
///
/// Fails, whatever the database, when a relation is missing from the
/// schema or used at the wrong arity, or a free variable is unbound in
/// `env` (see the module docs).
pub fn eval(db: &Database, omega: &Omega, f: &Formula, env: &mut Env) -> Result<bool, EvalError> {
    check(db, f, env, &mut Vec::new(), &mut Vec::new())?;
    eval_checked(db, omega, f, env)
}

/// A condition over the free variables `vars`, evaluated at many tuples —
/// [`eval`] per tuple without repeating its work per tuple.
///
/// The well-formedness walk depends on the schema and on *which*
/// variables are bound, never on their values, so it runs once, at the
/// first tuple: a condition never tested never errs, as with [`eval`].
/// One [`Env`] is reused throughout.
pub struct TupleCondition<'a> {
    db: &'a Database,
    omega: &'a Omega,
    cond: &'a Formula,
    vars: &'a [Var],
    env: Option<Env>,
}

impl<'a> TupleCondition<'a> {
    /// `cond`, with free variables `vars`, over `db`.
    pub fn new(db: &'a Database, omega: &'a Omega, cond: &'a Formula, vars: &'a [Var]) -> Self {
        TupleCondition {
            db,
            omega,
            cond,
            vars,
            env: None,
        }
    }

    /// Whether the condition holds with `vars` bound, position by
    /// position, to `tuple`.
    pub fn holds_at(&mut self, tuple: &[Elem]) -> Result<bool, EvalError> {
        let env = match &mut self.env {
            Some(env) => {
                // drop whatever a failed evaluation left pushed
                env.elems.truncate(self.vars.len());
                for (slot, e) in env.elems.iter_mut().zip(tuple) {
                    slot.1 = *e;
                }
                env
            }
            None => {
                let env = Env::of(self.vars.iter().cloned().zip(tuple.iter().copied()));
                check(self.db, self.cond, &env, &mut Vec::new(), &mut Vec::new())?;
                self.env.insert(env)
            }
        };
        eval_checked(self.db, self.omega, self.cond, env)
    }
}

/// The well-formedness walk behind [`eval`]: `elems` and `nums` are the
/// variables bound by quantifiers enclosing the current subformula.
fn check<'f>(
    db: &Database,
    f: &'f Formula,
    env: &Env,
    elems: &mut Vec<&'f Var>,
    nums: &mut Vec<&'f Var>,
) -> Result<(), EvalError> {
    match f {
        Formula::True | Formula::False => Ok(()),
        Formula::Rel(name, ts) => {
            let arity = db
                .schema()
                .arity_of(name)
                .ok_or_else(|| EvalError(format!("relation {name} not in schema")))?;
            if arity != ts.len() {
                return Err(EvalError(format!(
                    "relation {name} has arity {arity}, atom has {} arguments",
                    ts.len()
                )));
            }
            ts.iter().try_for_each(|t| check_term(t, env, elems))
        }
        Formula::Eq(a, b) => check_term(a, env, elems).and_then(|()| check_term(b, env, elems)),
        Formula::Pred(_, ts) => ts.iter().try_for_each(|t| check_term(t, env, elems)),
        Formula::Not(g) => check(db, g, env, elems, nums),
        Formula::And(gs) | Formula::Or(gs) => {
            gs.iter().try_for_each(|g| check(db, g, env, elems, nums))
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            check(db, a, env, elems, nums)?;
            check(db, b, env, elems, nums)
        }
        Formula::Exists(v, g) | Formula::Forall(v, g) | Formula::CountGe(_, v, g) => {
            if let Formula::CountGe(i, _, _) = f {
                check_numterm(i, env, nums)?;
            }
            elems.push(v);
            let r = check(db, g, env, elems, nums);
            elems.pop();
            r
        }
        Formula::NumExists(v, g) | Formula::NumForall(v, g) => {
            nums.push(v);
            let r = check(db, g, env, elems, nums);
            nums.pop();
            r
        }
        Formula::NumLe(a, b) | Formula::NumEq(a, b) | Formula::Bit(a, b) => {
            check_numterm(a, env, nums)?;
            check_numterm(b, env, nums)
        }
    }
}

/// The variables of `t` are bound, by an enclosing quantifier (`elems`)
/// or by `env`.
fn check_term(t: &Term, env: &Env, elems: &[&Var]) -> Result<(), EvalError> {
    match t {
        Term::Var(v) if !elems.contains(&v) && env.elem(v).is_none() => {
            Err(EvalError(format!("unbound variable {v}")))
        }
        Term::App(_, args) => args.iter().try_for_each(|a| check_term(a, env, elems)),
        _ => Ok(()),
    }
}

/// The numeric variable of `t`, if any, is bound, by an enclosing numeric
/// quantifier (`nums`) or by `env`.
fn check_numterm(t: &NumTerm, env: &Env, nums: &[&Var]) -> Result<(), EvalError> {
    match t {
        NumTerm::Var(v) if !nums.contains(&v) && env.num(v).is_none() => {
            Err(EvalError(format!("unbound numeric variable {v}")))
        }
        _ => Ok(()),
    }
}

/// [`eval`] on a formula [`check`] accepted under `env`'s bindings.
fn eval_checked(
    db: &Database,
    omega: &Omega,
    f: &Formula,
    env: &mut Env,
) -> Result<bool, EvalError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Rel(name, ts) => {
            let mut tuple = Vec::with_capacity(ts.len());
            for t in ts {
                tuple.push(eval_term(omega, t, env)?);
            }
            Ok(db.contains(name, &tuple))
        }
        Formula::Eq(a, b) => Ok(eval_term(omega, a, env)? == eval_term(omega, b, env)?),
        Formula::Pred(p, ts) => {
            let mut args = Vec::with_capacity(ts.len());
            for t in ts {
                args.push(eval_term(omega, t, env)?);
            }
            omega.eval_pred(p.name(), &args).map_err(EvalError)
        }
        Formula::Not(g) => Ok(!eval_checked(db, omega, g, env)?),
        Formula::And(gs) => {
            for g in gs {
                if !eval_checked(db, omega, g, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval_checked(db, omega, g, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => {
            Ok(!eval_checked(db, omega, a, env)? || eval_checked(db, omega, b, env)?)
        }
        Formula::Iff(a, b) => {
            Ok(eval_checked(db, omega, a, env)? == eval_checked(db, omega, b, env)?)
        }
        Formula::Exists(v, g) => quantify(db, omega, v, g, env, true),
        Formula::Forall(v, g) => quantify(db, omega, v, g, env, false),
        Formula::CountGe(i, v, g) => {
            let bound = eval_numterm(db, i, env)?;
            if bound == 0 {
                return Ok(true);
            }
            let mut count: u64 = 0;
            for &e in db.domain() {
                env.push_elem(v.clone(), e);
                let r = eval_checked(db, omega, g, env)?;
                env.pop_elem();
                if r {
                    count += 1;
                    if count >= bound {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
        Formula::NumExists(v, g) => {
            let n = db.domain_size() as u64;
            for k in 1..=n {
                env.push_num(v.clone(), k);
                let r = eval_checked(db, omega, g, env)?;
                env.pop_num();
                if r {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::NumForall(v, g) => {
            let n = db.domain_size() as u64;
            for k in 1..=n {
                env.push_num(v.clone(), k);
                let r = eval_checked(db, omega, g, env)?;
                env.pop_num();
                if !r {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::NumLe(a, b) => Ok(eval_numterm(db, a, env)? <= eval_numterm(db, b, env)?),
        Formula::NumEq(a, b) => Ok(eval_numterm(db, a, env)? == eval_numterm(db, b, env)?),
        Formula::Bit(a, b) => {
            let i = eval_numterm(db, a, env)?;
            let j = eval_numterm(db, b, env)?;
            // bit positions are 1-indexed from the least significant bit
            Ok((1..=64).contains(&j) && (i >> (j - 1)) & 1 == 1)
        }
    }
}

/// `∃v. g` (`exists`) or `∀v. g`: the first element at which `g` takes the
/// decisive value (`true` for `∃`, `false` for `∀`) settles the verdict, so
/// only the candidates for that value are visited when the matrix names
/// them, and the whole domain otherwise.
fn quantify(
    db: &Database,
    omega: &Omega,
    v: &Var,
    g: &Formula,
    env: &mut Env,
    exists: bool,
) -> Result<bool, EvalError> {
    let candidates = Candidates {
        db,
        omega,
        env,
        wild: vec![v],
    }
    .of(g, exists);
    let decided = |env: &mut Env, e: Elem| -> Result<bool, EvalError> {
        env.push_elem(v.clone(), e);
        let r = eval_checked(db, omega, g, env)?;
        env.pop_elem();
        Ok(r == exists)
    };
    match candidates {
        Ok(Some(mut elems)) => {
            elems.sort_unstable();
            elems.dedup();
            for e in elems {
                if decided(env, e)? {
                    return Ok(exists);
                }
            }
        }
        _ => {
            for &e in db.domain() {
                if decided(env, e)? {
                    return Ok(exists);
                }
            }
        }
    }
    Ok(!exists)
}

/// The candidate analysis of one quantifier (rules in the module docs).
/// `wild[0]` is the quantified variable; the rest are the variables
/// quantified between it and the subformula being analysed.
struct Candidates<'a> {
    db: &'a Database,
    omega: &'a Omega,
    env: &'a Env,
    wild: Vec<&'a Var>,
}

impl<'a> Candidates<'a> {
    /// A superset (possibly with repeats) of the domain elements at which
    /// `f` can evaluate to `want` with `wild[0]` bound to them, or `None`
    /// when the rules give none. `Err` means a term could not be
    /// evaluated: the caller falls back to the domain loop.
    fn of(&mut self, f: &'a Formula, want: bool) -> Result<Option<Vec<Elem>>, EvalError> {
        match (f, want) {
            (Formula::True, false) | (Formula::False, true) => Ok(Some(Vec::new())),
            (Formula::Rel(name, ts), true) => self.atom(name, ts),
            (Formula::Eq(a, b), true) => {
                let t = match (a, b) {
                    (Term::Var(w), t) | (t, Term::Var(w)) if w == self.wild[0] => t,
                    _ => return Ok(None),
                };
                if !self.evaluable(t) {
                    return Ok(None);
                }
                let e = eval_term(self.omega, t, self.env)?;
                Ok(Some(if self.db.domain_contains(&e) {
                    vec![e]
                } else {
                    Vec::new()
                }))
            }
            (Formula::Not(g), _) => self.of(g, !want),
            (Formula::And(gs), true) | (Formula::Or(gs), false) => {
                for g in gs {
                    if let Some(c) = self.of(g, want)? {
                        return Ok(Some(c));
                    }
                }
                Ok(None)
            }
            (Formula::Or(gs), true) | (Formula::And(gs), false) => {
                let mut union = Vec::new();
                for g in gs {
                    match self.of(g, want)? {
                        Some(c) => union.extend(c),
                        None => return Ok(None),
                    }
                }
                Ok(Some(union))
            }
            (Formula::Implies(a, b), false) => match self.of(a, true)? {
                Some(c) => Ok(Some(c)),
                None => self.of(b, false),
            },
            (Formula::Exists(w, g), true) | (Formula::Forall(w, g), false) if w != self.wild[0] => {
                self.wild.push(w);
                let r = self.of(g, want);
                self.wild.pop();
                r
            }
            _ => Ok(None),
        }
    }

    /// `R(t̄)` in pos: the values at the quantified variable's positions
    /// over the tuples of `R` matching every evaluable argument.
    fn atom(&self, name: &str, ts: &[Term]) -> Result<Option<Vec<Elem>>, EvalError> {
        let v = self.wild[0];
        let is_v = |t: &Term| matches!(t, Term::Var(w) if w == v);
        let Some(at) = ts.iter().position(is_v) else {
            return Ok(None);
        };
        let mut pattern = Vec::with_capacity(ts.len());
        for t in ts {
            pattern.push(if self.evaluable(t) {
                Some(eval_term(self.omega, t, self.env)?)
            } else {
                None
            });
        }
        let prefix: Vec<Elem> = pattern.iter().map_while(|p| *p).collect();
        let out = self
            .db
            .rel(name)
            .prefix_range(&prefix)
            .filter(|tuple| {
                ts.iter()
                    .zip(&pattern)
                    .zip(tuple.iter())
                    .all(|((t, p), e)| match p {
                        Some(bound) => bound == e,
                        None => !is_v(t) || *e == tuple[at],
                    })
            })
            .map(|tuple| tuple[at])
            .collect();
        Ok(Some(out))
    }

    /// Whether `t` mentions no wildcard, so [`eval_term`] can evaluate it
    /// under the current bindings.
    fn evaluable(&self, t: &Term) -> bool {
        match t {
            Term::Var(w) => !self.wild.contains(&w),
            Term::Const(_) => true,
            Term::App(_, args) => args.iter().all(|a| self.evaluable(a)),
        }
    }
}

/// Evaluates a first-sort term.
pub fn eval_term(omega: &Omega, t: &Term, env: &Env) -> Result<Elem, EvalError> {
    match t {
        Term::Var(v) => env
            .elem(v)
            .ok_or_else(|| EvalError(format!("unbound variable {v}"))),
        Term::Const(c) => Ok(*c),
        Term::App(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_term(omega, a, env)?);
            }
            omega.eval_func(f.name(), &vals).map_err(EvalError)
        }
    }
}

fn eval_numterm(db: &Database, t: &NumTerm, env: &Env) -> Result<u64, EvalError> {
    match t {
        NumTerm::Var(v) => env
            .num(v)
            .ok_or_else(|| EvalError(format!("unbound numeric variable {v}"))),
        NumTerm::One => Ok(1),
        NumTerm::Max => Ok(db.domain_size() as u64),
        NumTerm::Lit(n) => Ok(*n),
        NumTerm::Param(i) => Err(EvalError(format!(
            "un-instantiated numeric placeholder ?{i}#"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_logic::library;
    use vpdt_logic::parse_formula;
    use vpdt_structure::families;

    fn check(db: &Database, s: &str) -> bool {
        holds_pure(db, &parse_formula(s).expect("parses")).expect("evaluates")
    }

    #[test]
    fn atoms_and_quantifiers_on_a_chain() {
        let db = families::chain(3); // 0→1→2
        assert!(check(&db, "E(0, 1)"));
        assert!(!check(&db, "E(1, 0)"));
        assert!(check(&db, "exists x. E(0, x)"));
        assert!(check(&db, "exists x y. E(x, y) & E(y, 2)"));
        assert!(!check(&db, "forall x. exists y. E(x, y)")); // 2 is terminal
        assert!(check(&db, "forall x y z. E(x, y) & E(x, z) -> y = z"));
    }

    #[test]
    fn quantifiers_range_over_explicit_domain() {
        // isolated node 9 is in the domain, so exists picks it up
        let db = Database::graph_with_domain([9], [(0, 1)]);
        assert!(check(&db, "exists x. x = 9"));
        assert!(!check(&db, "exists x. x = 12"));
        // empty database: forall is vacuously true, exists false
        let empty = Database::graph([]);
        assert!(check(&empty, "forall x. false"));
        assert!(!check(&empty, "exists x. true"));
    }

    #[test]
    fn psi_cc_recognizes_cc_graphs() {
        let yes = [
            families::chain(2),
            families::chain(5),
            families::cc_graph(3, &[4]),
            families::cc_graph(2, &[3, 5]),
        ];
        for db in &yes {
            assert!(
                holds_pure(db, &library::psi_cc()).expect("evaluates"),
                "psi_cc should hold on {db:?}"
            );
        }
        let no = [
            families::cycle(4),                // no chain
            families::two_cycles(3, 3),        // no chain
            families::gnm(2, 2),               // branching
            Database::graph([(0, 1), (5, 6)]), // two chains
            families::complete_loopless(3),
        ];
        for db in &no {
            assert!(
                !holds_pure(db, &library::psi_cc()).expect("evaluates"),
                "psi_cc should fail on {db:?}"
            );
        }
    }

    #[test]
    fn p_s_measures_chain_length() {
        // chain of 4 with a 3-cycle attached
        let db = families::cc_graph(4, &[3]);
        for s in 0..=4 {
            assert!(
                holds_pure(&db, &library::chain_at_least(s)).expect("evaluates"),
                "p_{s}"
            );
        }
        assert!(!holds_pure(&db, &library::chain_at_least(5)).expect("evaluates"));
        assert!(holds_pure(&db, &library::chain_exactly(4)).expect("evaluates"));
        assert!(!holds_pure(&db, &library::chain_exactly(3)).expect("evaluates"));
    }

    #[test]
    fn mu_s_counts_nodes() {
        let db = families::empty_graph(3);
        assert!(holds_pure(&db, &library::at_least_nodes(3)).expect("evaluates"));
        assert!(!holds_pure(&db, &library::at_least_nodes(4)).expect("evaluates"));
        assert!(holds_pure(&db, &library::exactly_nodes(3)).expect("evaluates"));
    }

    #[test]
    fn isolated_points_in_diagonal_graphs() {
        let db = families::diagonal([1, 2, 3]);
        assert!(holds_pure(&db, &library::exactly_isolated(3)).expect("evaluates"));
        assert!(!holds_pure(&db, &library::exactly_isolated(2)).expect("evaluates"));
        // in a chain, nothing is isolated (no loops)
        let c = families::chain(3);
        assert!(holds_pure(&c, &library::exactly_isolated(0)).expect("evaluates"));
    }

    #[test]
    fn alpha0_on_gnm_and_friends() {
        let a0 = library::alpha0_gnm_with_cycles();
        assert!(holds_pure(&families::gnm(3, 4), &a0).expect("evaluates"));
        let with_cycle = families::union(&families::gnm(2, 2), &families::cycle_from(50, 4));
        assert!(holds_pure(&with_cycle, &a0).expect("evaluates"));
        assert!(!holds_pure(&families::chain(4), &a0).expect("evaluates"));
        assert!(!holds_pure(&families::cycle(4), &a0).expect("evaluates"));
    }

    #[test]
    fn omega_predicates_and_functions() {
        let db = families::chain(3);
        let omega = Omega::arithmetic();
        let f = parse_formula("forall x y. E(x, y) -> @lt(x, y)").expect("parses");
        assert!(holds(&db, &omega, &f).expect("evaluates"));
        let g = parse_formula("exists x. E(x, succ(x))").expect("parses");
        assert!(holds(&db, &omega, &g).expect("evaluates"));
        // unknown symbol errors out
        let bad = parse_formula("@nope(0)").expect("parses");
        assert!(holds(&db, &omega, &bad).is_err());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let db = families::chain(2);
        let f = parse_formula("E(x, y)").expect("parses");
        assert!(holds_pure(&db, &f).is_err());
        let mut env = Env::of([(Var::new("x"), Elem(0)), (Var::new("y"), Elem(1))]);
        assert_eq!(eval(&db, &Omega::empty(), &f, &mut env), Ok(true));
    }

    /// The candidates a quantifier's matrix names, sorted and deduped.
    fn candidates_of(db: &Database, s: &str, env: &Env) -> Option<Vec<Elem>> {
        let f = parse_formula(s).expect("parses");
        let (v, g, exists) = match &f {
            Formula::Exists(v, g) => (v, g, true),
            Formula::Forall(v, g) => (v, g, false),
            _ => panic!("{s} is not quantified"),
        };
        let omega = Omega::empty();
        let mut c = Candidates {
            db,
            omega: &omega,
            env,
            wild: vec![v],
        }
        .of(g, exists)
        .expect("terms evaluate")?;
        c.sort_unstable();
        c.dedup();
        Some(c)
    }

    fn elems(xs: &[u64]) -> Option<Vec<Elem>> {
        Some(xs.iter().copied().map(Elem).collect())
    }

    #[test]
    fn candidates_come_from_the_guarding_atoms() {
        // 0→1, 0→2, 3→3, and isolated 9
        let db = Database::graph_with_domain([9], [(0, 1), (0, 2), (3, 3)]);
        let none = Env::new();
        // the FD: x over the first column, through the inner ∀y ∀z
        let fd = "forall x y z. E(x, y) & E(x, z) -> y = z";
        assert_eq!(candidates_of(&db, fd, &none), elems(&[0, 3]));
        // y, z over the tuples with the bound first column
        let x0 = Env::of([(Var::new("x"), Elem(0))]);
        assert_eq!(
            candidates_of(&db, "forall y z. E(x, y) & E(x, z) -> y = z", &x0),
            elems(&[1, 2])
        );
        // the insert residue: the key's column, plus the constant when in
        // the domain
        let residue = |d: u64| format!("forall z. E(0, z) | z = {d} -> {d} = z");
        assert_eq!(candidates_of(&db, &residue(9), &none), elems(&[1, 2, 9]));
        assert_eq!(candidates_of(&db, &residue(7), &none), elems(&[1, 2]));
        // a repeated variable must match at both positions
        assert_eq!(candidates_of(&db, "exists x. E(x, x)", &none), elems(&[3]));
        // `true` never fails, `false` never holds
        assert_eq!(candidates_of(&db, "forall x. true", &none), elems(&[]));
        assert_eq!(candidates_of(&db, "exists x. false", &none), elems(&[]));
        // an inner binder of the same name shadows: nothing to read off
        assert_eq!(
            candidates_of(&db, "exists x. exists x. E(x, x)", &none),
            None
        );
        // the wrong polarity of an atom gives no candidates
        assert_eq!(candidates_of(&db, "forall x. E(x, x)", &none), None);
        assert_eq!(candidates_of(&db, "exists x. !E(x, 0)", &none), None);
        // a union needs every part
        assert_eq!(
            candidates_of(&db, "exists x. E(x, 1) | E(1, x)", &none),
            elems(&[0])
        );
        assert_eq!(
            candidates_of(&db, "exists x. E(x, 1) | x != 2", &none),
            None
        );
    }

    #[test]
    fn ill_formed_input_fails_before_any_loop() {
        let omega = Omega::empty();
        for db in [Database::graph([]), families::chain(3)] {
            for s in ["exists x. Q(x)", "forall x. E(x)", "exists y. E(y, x)"] {
                let f = parse_formula(s).expect("parses");
                assert!(holds(&db, &omega, &f).is_err(), "{s} on {db:?}");
            }
        }
        // the reference only fails where a loop reaches the atom
        let f = parse_formula("exists x. Q(x)").expect("parses");
        assert_eq!(reference::holds_pure(&Database::graph([]), &f), Ok(false));
    }

    #[test]
    fn free_variables_may_lie_outside_the_domain() {
        // pre-relation style: the free variable denotes a new element
        let db = families::chain(2);
        let f = parse_formula("!(exists y. y = x)").expect("parses");
        let mut env = Env::of([(Var::new("x"), Elem(77))]);
        assert_eq!(eval(&db, &Omega::empty(), &f, &mut env), Ok(true));
    }
}

#[cfg(test)]
mod distance_semantics_tests {
    use super::*;
    use vpdt_logic::library;
    use vpdt_structure::{families, Graph};

    /// The FO distance formulas agree with BFS distances on assorted graphs.
    #[test]
    fn distance_formula_matches_bfs() {
        for db in [
            families::chain(5),
            families::cycle(6),
            families::gnm(2, 3),
            families::two_cycles(3, 3),
        ] {
            let g = Graph::of_edges(&db);
            for (ai, &a) in g.nodes().iter().enumerate() {
                let dist = g.undirected_distances(ai);
                for (bi, &b) in g.nodes().iter().enumerate() {
                    for k in 0..4usize {
                        let f = library::distance_at_most("x", "y", k);
                        let mut env = Env::of([(Var::new("x"), a), (Var::new("y"), b)]);
                        let by_formula =
                            eval(&db, &Omega::empty(), &f, &mut env).expect("evaluates");
                        let by_bfs = dist.get(&bi).is_some_and(|&d| d <= k);
                        assert_eq!(by_formula, by_bfs, "d({a},{b}) ≤ {k} on {db:?}");
                    }
                }
            }
        }
    }
}
