//! # vpdt-tx
//!
//! Transaction languages (Section 2: "a transaction language consists of a
//! recursive syntax and a total recursive semantics mapping database
//! encodings to database encodings or `error`").
//!
//! * [`traits::Transaction`] — the common interface: a total map from
//!   databases to databases (or an error/abort);
//! * [`algebra`] — relational algebra (select–project–join plus set
//!   operations), its evaluator, the RA→FO compiler, and the transactions
//!   `T₁` (diagonal) and `T₂` (complete loopless graph) from the
//!   undecidability proof of Proposition 1;
//! * [`program`] — first-order update programs in the style of Qian \[32\]:
//!   inserts, conditional deletes/inserts, parallel assignment, sequencing
//!   and conditionals. These compile to prerelations in `vpdt-core`;
//! * [`template`] — prepared statements: [`template::canonicalize`] splits a
//!   ground program into a constant-free [`template::Template`] shape plus a
//!   binding vector, so guard compilation can be shared across all programs
//!   of the same shape (one cache entry per statement, not per tuple);
//! * [`datalog`] — a stratified Datalog¬ engine (naive and semi-naive) and
//!   Datalog-defined transactions; `tc`, `dtc` and same-generation are
//!   provided as programs (Theorem B's recursion constructs);
//! * [`while_lang`] — while-programs over relation variables with RA
//!   assignments (the "simple while loop language" the paper contrasts
//!   with in Section 2);
//! * [`recursive`] — native implementations of `tc`, `dtc`, `sg` as
//!   transactions, cross-checked against the Datalog and while versions.
//!
//! **Domain convention.** Following the paper (where `dom(D)` is the active
//! domain), every transaction normalizes its output so the domain equals
//! the active domain of the result relations.

pub mod algebra;
pub mod codec;
pub mod datalog;
pub mod program;
pub mod recursive;
pub mod template;
pub mod traits;
pub mod while_lang;

pub use traits::{Transaction, TxError};
