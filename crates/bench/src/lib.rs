//! # vpdt-bench
//!
//! The experiment suite regenerating every construction of the paper's
//! "evaluation" (its theorems, separations and blow-ups — see
//! EXPERIMENTS.md for the per-experiment paper-vs-measured record), plus
//! the small JSON writer `store_bench` renders its report with.
//!
//! Run everything with `cargo run --release -p vpdt-bench --bin
//! experiments -- all`, or a single experiment with e.g. `… -- e8`.

pub mod experiments;
pub mod json;
pub mod table;
