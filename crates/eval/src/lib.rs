//! # vpdt-eval
//!
//! Model checking — the validity relation `D ⊨ α` of Section 2 — for every
//! specification language in the paper:
//!
//! * FO / FOc / FOc(Ω) with first-sort quantifiers ranging over the
//!   database's (finite, explicit) domain;
//! * `FOcount`, the two-sorted counting logic, whose numeric sort is
//!   `{1..n}` for `n` the domain size, with `1`, `max`, `≤` and `bit`;
//! * monadic Σ¹₁, by exhaustive search over interpretations of the unary
//!   set variables (exponential, with an explicit budget).
//!
//! First-sort quantifiers are *range-restricted* ([`fo`]): before looping,
//! `∃v. φ` asks `φ`'s own atoms for the elements where `φ` can be true
//! (`∀v. φ`: where it can be false) — the matching column of a guarding
//! relation atom, the value of an equation `v = t` — and visits only
//! those, falling back to the whole domain when the matrix names none.
//! Elements outside that superset cannot change the verdict and every
//! candidate is a domain element, so verdicts are exactly the
//! whole-domain reading's on every database, with no domain-independence
//! precondition; a functional dependency `∀x y z (R(x,y) ∧ R(x,z) → y = z)`
//! becomes an index join over `R` instead of |dom|³ lookups. The
//! whole-domain evaluator itself is kept, unchanged, as
//! [`fo::reference`]: the oracle the property tests compare against, with
//! no production caller.
//!
//! Interpretations of Ω-symbols ("a recursive collection of recursive
//! functions and predicates over U") are Rust closures registered in
//! [`Omega`]; [`Omega::nat_order`] provides the order of type ω used in
//! Theorem 3's `FOc(Ω ∪ {≺})` argument.

pub mod counting;
pub mod fo;
pub mod mso;
pub mod omega;

pub use fo::{eval, eval_term, holds, holds_pure, Env, EvalError};
pub use omega::Omega;
