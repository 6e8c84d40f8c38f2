//! The reference evaluator: the direct recursive reading of `D ⊨ α`, kept
//! as the oracle the production evaluator ([`super::eval`]) is tested
//! against.
//!
//! Every first-sort quantifier walks the whole domain and every error is
//! found lazily, when evaluation reaches it. That makes this module slow —
//! an FD conjunct `∀x y z (R(x,y) ∧ R(x,z) → y = z)` costs |dom|³ atom
//! lookups — and obviously right: it is the semantics of Section 2
//! written out, with no analysis to trust. Nothing in the store, the
//! compiler or the transaction languages calls it; the property test
//! `tests/proptest_eval.rs` and the unit tests of [`super`] compare the
//! production verdicts with its verdicts.

use vpdt_logic::{Elem, Formula, NumTerm, Term};
use vpdt_structure::Database;

use super::{Env, EvalError};
use crate::omega::Omega;

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
pub fn eval(db: &Database, omega: &Omega, f: &Formula, env: &mut Env) -> Result<bool, EvalError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
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
        Formula::Not(g) => Ok(!eval(db, omega, g, env)?),
        Formula::And(gs) => {
            for g in gs {
                if !eval(db, omega, g, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval(db, omega, g, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Implies(a, b) => Ok(!eval(db, omega, a, env)? || eval(db, omega, b, env)?),
        Formula::Iff(a, b) => Ok(eval(db, omega, a, env)? == eval(db, omega, b, env)?),
        Formula::Exists(v, g) => {
            for e in db.domain().iter().copied().collect::<Vec<_>>() {
                env.push_elem(v.clone(), e);
                let r = eval(db, omega, g, env)?;
                env.pop_elem();
                if r {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Forall(v, g) => {
            for e in db.domain().iter().copied().collect::<Vec<_>>() {
                env.push_elem(v.clone(), e);
                let r = eval(db, omega, g, env)?;
                env.pop_elem();
                if !r {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::CountGe(i, v, g) => {
            let bound = eval_numterm(db, i, env)?;
            if bound == 0 {
                return Ok(true);
            }
            let mut count: u64 = 0;
            for e in db.domain().iter().copied().collect::<Vec<_>>() {
                env.push_elem(v.clone(), e);
                let r = eval(db, omega, g, env)?;
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
                let r = eval(db, omega, g, env)?;
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
                let r = eval(db, omega, g, env)?;
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
