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
//! # Compile once, evaluate many
//!
//! Evaluation is split in two. [`Plan::compile`] does, once per formula
//! and schema, everything that does not depend on a database or on the
//! values bound:
//!
//! * the well-formedness check (see *Errors*);
//! * every relation name resolved to its schema position;
//! * every variable resolved to a slot: the free variables first, then one
//!   slot per quantifier nesting depth, so an inner binder of the same
//!   name shadows by taking a deeper slot;
//! * every placeholder `?i` and `?i#` resolved to position `i` of the
//!   binding vector the plan is run with;
//! * each quantifier's *candidate source* (next section).
//!
//! [`Plan::eval`] then walks the compiled tree with the values in slots of
//! reused, per-thread scratch space. A run resolves no name, clones no
//! variable and, once its scratch has grown to the plan's needs, allocates
//! nothing. What stays dynamic is what only a run can know: term values,
//! the database's contents and domain, and Ω symbols, which are still
//! looked up (and so checked) only when evaluation applies them.
//!
//! [`holds`], [`eval`] and [`TupleCondition`] are this compile + run. A
//! statement shape compiles its guard's plan once and runs it with each
//! transaction's bindings: the same verdict as substituting the bindings
//! into the guard and evaluating that, without building the substituted
//! formula.
//!
//! # Range-restricted quantifiers
//!
//! `∃v. φ` only needs the elements where `φ` can be **true**, and `∀v. φ`
//! only those where it can be **false**: every other element leaves the
//! verdict alone. Each quantifier reads off `φ`'s own atoms a superset of
//! those *candidates* and loops over them instead of the domain when it
//! gets one. "pos" below means the subformula must hold, "neg" that it must
//! fail; a term is *evaluable* when it mentions neither `v` nor a variable
//! quantified between `v` and the term (those are *wildcards*):
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
//! **Why the rules are fixed at compile time.** Whether a rule applies
//! depends only on the formula: its connectives, the polarity, which
//! binder a variable refers to, and hence which terms are evaluable. None
//! of that changes with the database or the bindings, so the compiler
//! picks each quantifier's source once — which conjunct, which atom
//! positions form the seek prefix, which are filters — and a run only
//! evaluates the source's terms and reads the relation. A term that fails
//! to evaluate (an unknown Ω symbol, an unbound placeholder) is the one
//! dynamic outcome: the run falls back to the domain loop, as before.
//!
//! **Why this is exact.** Each rule yields a superset of the elements at
//! which its subformula takes the wanted value, whatever the wildcards
//! are bound to, so an element outside the candidates makes `φ` false
//! (under `∃`) or true (under `∀`) and cannot change the verdict. Every
//! candidate is in the domain: tuple elements always are, and equality
//! candidates are membership-checked. Candidates are visited in ascending
//! order, as the domain is. The verdict therefore equals the whole-domain
//! loop's on every database and binding — no domain-independence
//! precondition, no second code path to select.
//!
//! # Errors
//!
//! Compilation checks that every relation is in the schema at its arity
//! and every free variable is bound, so ill-formed input is an
//! [`EvalError`] on every database, not only where a loop happens to reach
//! the bad atom. Ω symbols are checked lazily, when evaluation applies
//! them, and so is a placeholder with no binding. A plan run on a database
//! over another schema is an error, never a verdict.
//!
//! The whole-domain evaluator is kept unchanged in
//! [`reference`](mod@reference), as the oracle the tests compare these
//! verdicts with.
//!
//! [`Relation::prefix_range`]: vpdt_structure::Relation::prefix_range

pub mod reference;

use std::cell::RefCell;
use std::fmt;
use vpdt_logic::{Elem, Formula, FuncSym, NumTerm, PredSym, Schema, Term, Var};
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
    with_scratch(|s| once(db, omega, sentence, &[], &[], s))
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
    let vars: Vec<Var> = env.elems.iter().map(|(v, _)| v.clone()).collect();
    let values: Vec<Elem> = env.elems.iter().map(|(_, e)| *e).collect();
    with_scratch(|s| once(db, omega, f, &vars, &values, s))
}

/// Compiles `f` into the scratch space's spare code buffers, runs it, and
/// keeps the buffers for the next one-off evaluation on this thread.
fn once(
    db: &Database,
    omega: &Omega,
    f: &Formula,
    vars: &[Var],
    values: &[Elem],
    s: &mut Scratch,
) -> Result<bool, EvalError> {
    let Scratch { space, spare } = s;
    let layout = compile(db.schema(), f, vars, spare)?;
    run(spare, layout, db, omega, &[], values, space)
}

/// A condition over the free variables `vars`, evaluated at many tuples —
/// [`eval`] per tuple without repeating its work per tuple.
///
/// The condition is compiled once, at the first tuple (so a condition
/// never tested never errs, as with [`eval`]), and every tuple runs the
/// one plan in the thread's scratch space, which goes back to the thread
/// when the condition is dropped: a condition allocates nothing per tuple.
pub struct TupleCondition<'a> {
    db: &'a Database,
    omega: &'a Omega,
    cond: &'a Formula,
    vars: &'a [Var],
    /// The thread's scratch space, held from the compilation on; the
    /// condition's code is compiled into its spare buffers.
    scratch: Option<Box<Scratch>>,
    layout: Option<Layout>,
}

impl<'a> TupleCondition<'a> {
    /// `cond`, with free variables `vars`, over `db`.
    pub fn new(db: &'a Database, omega: &'a Omega, cond: &'a Formula, vars: &'a [Var]) -> Self {
        TupleCondition {
            db,
            omega,
            cond,
            vars,
            scratch: None,
            layout: None,
        }
    }

    /// Whether the condition holds with `vars` bound, position by
    /// position, to `tuple`.
    pub fn holds_at(&mut self, tuple: &[Elem]) -> Result<bool, EvalError> {
        self.check_at(tuple)?;
        let (Some(layout), Some(s)) = (self.layout, self.scratch.as_mut()) else {
            unreachable!("compiled by check_at");
        };
        let values = tuple.get(..layout.free).ok_or_else(|| {
            EvalError(format!(
                "{} values bound to a condition over {} variables",
                tuple.len(),
                layout.free
            ))
        })?;
        run(
            &s.spare,
            layout,
            self.db,
            self.omega,
            &[],
            values,
            &mut s.space,
        )
    }

    /// Compiles the condition, at the first call, over as many of `vars`
    /// as `tuple` binds, without evaluating. Compilation never depends on
    /// the values, so a caller that evaluates only some of a relation's
    /// tuples can still fail exactly when testing every tuple would: check
    /// at any one tuple first.
    pub fn check_at(&mut self, tuple: &[Elem]) -> Result<(), EvalError> {
        if self.layout.is_none() {
            let s = self.scratch.get_or_insert_with(take_scratch);
            let bound = &self.vars[..self.vars.len().min(tuple.len())];
            self.layout = Some(compile(self.db.schema(), self.cond, bound, &mut s.spare)?);
        }
        Ok(())
    }
}

impl Drop for TupleCondition<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            put_scratch(s);
        }
    }
}

/// A formula compiled against a schema (see the module docs): evaluated
/// by [`Plan::eval`] against any database over that schema, with the
/// values of its placeholders given per run.
#[derive(Clone, Debug)]
pub struct Plan {
    schema: Schema,
    code: Code,
    layout: Layout,
}

/// Where a compiled formula starts and how much slot space it needs.
#[derive(Clone, Copy, Debug)]
struct Layout {
    root: u32,
    /// Number of free variables: slots `0..free`.
    free: usize,
    /// First-sort slots: the free variables, then one per nesting depth.
    slots: usize,
    /// Numeric slots: one per numeric nesting depth.
    nums: usize,
}

/// A compiled formula, flat: nodes, terms and candidate sources refer to
/// each other by index, so compiling into buffers that already have the
/// room allocates nothing.
#[derive(Clone, Debug, Default)]
struct Code {
    nodes: Vec<Node>,
    terms: Vec<Slotted>,
    sources: Vec<Source>,
    args: Vec<Arg>,
    /// Child lists: of `∧`/`∨` nodes, and of source unions.
    kids: Vec<u32>,
}

/// A run of `len` entries of one of [`Code`]'s lists, from `start`.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A compiled subformula; `u32`s are node indices unless named otherwise.
#[derive(Clone, Debug)]
enum Node {
    True,
    False,
    /// `R(t̄)`: `R`'s schema position, its argument terms.
    Rel(u32, Span),
    /// Two term indices.
    Eq(u32, u32),
    Pred(PredSym, Span),
    Not(u32),
    /// Children in `kids`.
    And(Span),
    Or(Span),
    Implies(u32, u32),
    Iff(u32, u32),
    /// `∃`/`∀` over the domain, binding `slot`; `source` indexes
    /// `sources`, or is [`NO_SOURCE`].
    Quant {
        exists: bool,
        slot: u32,
        source: u32,
        body: u32,
    },
    CountGe {
        bound: NumSlotted,
        slot: u32,
        body: u32,
    },
    /// A numeric `∃`/`∀` over `1..=|dom|`, binding numeric `slot`.
    NumQuant {
        exists: bool,
        slot: u32,
        body: u32,
    },
    NumLe(NumSlotted, NumSlotted),
    NumEq(NumSlotted, NumSlotted),
    Bit(NumSlotted, NumSlotted),
}

/// A quantifier whose matrix names no candidates.
const NO_SOURCE: u32 = u32::MAX;

/// A compiled first-sort term.
#[derive(Clone, Debug)]
enum Slotted {
    Slot(u32),
    Const(Elem),
    /// The placeholder `?i`; the symbol is what a run applies when the
    /// bindings have no position `i`, as an un-substituted `?i` would be.
    Param(usize, FuncSym),
    /// Arguments in `terms`.
    App(FuncSym, Span),
}

/// A compiled numeric term.
#[derive(Clone, Debug)]
enum NumSlotted {
    Slot(u32),
    One,
    Max,
    Lit(u64),
    Param(usize),
}

/// Where a quantifier's candidates come from (rules in the module docs).
#[derive(Clone, Debug)]
enum Source {
    /// `true` in neg, `false` in pos: none.
    Empty,
    /// `R(t̄)` in pos: the value at position `at` over the tuples of
    /// relation `rel` that match the pattern `args` (in [`Code::args`]),
    /// whose first `prefix` positions are all [`Arg::Bound`] and form the
    /// seek key.
    Atom {
        rel: u32,
        args: Span,
        at: u32,
        prefix: u32,
    },
    /// `v = t` in pos (a term index): `⟦t⟧` when it is in the domain.
    Eq(u32),
    /// Every part's candidates (source indices in `kids`).
    Union(Span),
}

/// One argument of a [`Source::Atom`] pattern.
#[derive(Clone, Copy, Debug)]
enum Arg {
    /// An evaluable term (its index): the tuple must hold its value.
    Bound(u32),
    /// The quantified variable: the tuple must repeat the value at `at`.
    Quantified,
    /// A term with a wildcard: anything matches.
    Wild,
}

impl Code {
    fn clear(&mut self) {
        self.nodes.clear();
        self.terms.clear();
        self.sources.clear();
        self.args.clear();
        self.kids.clear();
    }

    /// Whether term `t` reads only slots bound outside the quantifier
    /// binding `slot` (deeper slots are its wildcards).
    fn evaluable(&self, t: u32, slot: u32) -> bool {
        match &self.terms[t as usize] {
            Slotted::Slot(s) => *s < slot,
            Slotted::Const(_) | Slotted::Param(..) => true,
            Slotted::App(_, args) => args.range().all(|a| self.evaluable(a as u32, slot)),
        }
    }
}

/// The next index of a list, as the `u32` the code stores.
fn next(len: usize) -> u32 {
    u32::try_from(len).expect("a formula of fewer than 2³² parts")
}

impl Plan {
    /// Compiles `f` against `schema`, with `free_vars` bound, in order, to
    /// the values a run supplies ([`Plan::eval_at`]); a name bound twice
    /// takes its last position. Fails when a relation is missing from the
    /// schema or used at the wrong arity, or a variable is bound neither by
    /// a quantifier nor in `free_vars` — on every database.
    pub fn compile(schema: &Schema, f: &Formula, free_vars: &[Var]) -> Result<Plan, EvalError> {
        let mut code = Code::default();
        let layout = compile(schema, f, free_vars, &mut code)?;
        Ok(Plan {
            schema: schema.clone(),
            code,
            layout,
        })
    }

    /// The schema the plan was compiled against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// `D ⊨ f` with each placeholder `?i` (and `?i#`) read as
    /// `bindings[i]`: the verdict, and the error, of evaluating `f` with
    /// the bindings substituted. For a plan with no free variables.
    pub fn eval(&self, db: &Database, omega: &Omega, bindings: &[Elem]) -> Result<bool, EvalError> {
        self.eval_at(db, omega, bindings, &[])
    }

    /// [`eval`](Self::eval) with the free variables bound, in compile
    /// order, to `free`.
    pub fn eval_at(
        &self,
        db: &Database,
        omega: &Omega,
        bindings: &[Elem],
        free: &[Elem],
    ) -> Result<bool, EvalError> {
        with_scratch(|s| self.run(db, omega, bindings, free, &mut s.space))
    }

    fn run(
        &self,
        db: &Database,
        omega: &Omega,
        bindings: &[Elem],
        free: &[Elem],
        s: &mut Space,
    ) -> Result<bool, EvalError> {
        if db.schema() != &self.schema {
            return Err(EvalError(format!(
                "plan compiled for {:?} run on a database over {:?}",
                self.schema,
                db.schema()
            )));
        }
        run(&self.code, self.layout, db, omega, bindings, free, s)
    }
}

/// Compiles `f` against `schema` into `code` (cleared first), with
/// `free_vars` bound, in order, to the values a run supplies.
fn compile(
    schema: &Schema,
    f: &Formula,
    free_vars: &[Var],
    code: &mut Code,
) -> Result<Layout, EvalError> {
    code.clear();
    let mut c = Compiler {
        schema,
        free: free_vars,
        elems: Vec::new(),
        nums: Vec::new(),
        slots: free_vars.len(),
        num_slots: 0,
        code,
    };
    let root = c.node(f)?;
    Ok(Layout {
        root,
        free: free_vars.len(),
        slots: c.slots,
        nums: c.num_slots,
    })
}

/// Runs code compiled against `db`'s schema, with `bindings` for its
/// placeholders and `free` for its free variables.
fn run(
    code: &Code,
    layout: Layout,
    db: &Database,
    omega: &Omega,
    bindings: &[Elem],
    free: &[Elem],
    s: &mut Space,
) -> Result<bool, EvalError> {
    if free.len() != layout.free {
        return Err(EvalError(format!(
            "{} values bound to a plan over {} free variables",
            free.len(),
            layout.free
        )));
    }
    s.slots.clear();
    s.slots.extend_from_slice(free);
    s.slots.resize(layout.slots, Elem(0));
    s.nums.clear();
    s.nums.resize(layout.nums, 0);
    s.stack.clear();
    s.cands.clear();
    Run {
        db,
        omega,
        bindings,
        code,
    }
    .node(layout.root, s)
}

/// The compile-time scope (the binders enclosing the current subformula)
/// and the code compiled so far.
struct Compiler<'f, 'c> {
    schema: &'f Schema,
    free: &'f [Var],
    /// Enclosing first-sort binders; the one at depth `d` has slot
    /// `free.len() + d`.
    elems: Vec<&'f Var>,
    /// Enclosing numeric binders; the one at depth `d` has numeric slot `d`.
    nums: Vec<&'f Var>,
    slots: usize,
    num_slots: usize,
    code: &'c mut Code,
}

impl<'f> Compiler<'f, '_> {
    /// Compiles `f`, checking it in the order its parts are written, and
    /// returns its node's index.
    fn node(&mut self, f: &'f Formula) -> Result<u32, EvalError> {
        let node = match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Rel(name, ts) => {
                let rel = self
                    .schema
                    .index_of(name)
                    .ok_or_else(|| EvalError(format!("relation {name} not in schema")))?;
                let arity = self.schema.rels()[rel].arity;
                if arity != ts.len() {
                    return Err(EvalError(format!(
                        "relation {name} has arity {arity}, atom has {} arguments",
                        ts.len()
                    )));
                }
                Node::Rel(next(rel), self.terms(ts)?)
            }
            Formula::Eq(a, b) => Node::Eq(self.term(a)?, self.term(b)?),
            Formula::Pred(p, ts) => Node::Pred(p.clone(), self.terms(ts)?),
            Formula::Not(g) => Node::Not(self.node(g)?),
            Formula::And(gs) => Node::And(self.nodes(gs)?),
            Formula::Or(gs) => Node::Or(self.nodes(gs)?),
            Formula::Implies(a, b) => Node::Implies(self.node(a)?, self.node(b)?),
            Formula::Iff(a, b) => Node::Iff(self.node(a)?, self.node(b)?),
            Formula::Exists(v, g) | Formula::Forall(v, g) => {
                let exists = matches!(f, Formula::Exists(..));
                let (slot, body) = self.bound(v, g)?;
                let source = self.source(g, body, exists, v, slot).unwrap_or(NO_SOURCE);
                Node::Quant {
                    exists,
                    slot,
                    source,
                    body,
                }
            }
            Formula::CountGe(i, v, g) => {
                let bound = self.num_term(i)?;
                let (slot, body) = self.bound(v, g)?;
                Node::CountGe { bound, slot, body }
            }
            Formula::NumExists(v, g) | Formula::NumForall(v, g) => {
                let slot = self.nums.len();
                self.num_slots = self.num_slots.max(slot + 1);
                self.nums.push(v);
                let body = self.node(g);
                self.nums.pop();
                Node::NumQuant {
                    exists: matches!(f, Formula::NumExists(..)),
                    slot: next(slot),
                    body: body?,
                }
            }
            Formula::NumLe(a, b) => Node::NumLe(self.num_term(a)?, self.num_term(b)?),
            Formula::NumEq(a, b) => Node::NumEq(self.num_term(a)?, self.num_term(b)?),
            Formula::Bit(a, b) => Node::Bit(self.num_term(a)?, self.num_term(b)?),
        };
        self.code.nodes.push(node);
        Ok(next(self.code.nodes.len() - 1))
    }

    /// Compiles `gs` into a child list.
    fn nodes(&mut self, gs: &'f [Formula]) -> Result<Span, EvalError> {
        let start = self.code.kids.len();
        self.code.kids.resize(start + gs.len(), 0);
        for (i, g) in gs.iter().enumerate() {
            self.code.kids[start + i] = self.node(g)?;
        }
        Ok(Span {
            start: next(start),
            len: next(gs.len()),
        })
    }

    /// `g` compiled under a first-sort binder of `v`, and `v`'s slot.
    fn bound(&mut self, v: &'f Var, g: &'f Formula) -> Result<(u32, u32), EvalError> {
        let slot = self.free.len() + self.elems.len();
        self.slots = self.slots.max(slot + 1);
        self.elems.push(v);
        let body = self.node(g);
        self.elems.pop();
        Ok((next(slot), body?))
    }

    /// Compiles `ts` into consecutive terms.
    fn terms(&mut self, ts: &[Term]) -> Result<Span, EvalError> {
        let start = self.code.terms.len();
        self.code.terms.resize(start + ts.len(), Slotted::Slot(0));
        for (i, t) in ts.iter().enumerate() {
            self.code.terms[start + i] = self.slotted(t)?;
        }
        Ok(Span {
            start: next(start),
            len: next(ts.len()),
        })
    }

    /// Compiles `t` and returns its term's index.
    fn term(&mut self, t: &Term) -> Result<u32, EvalError> {
        let t = self.slotted(t)?;
        self.code.terms.push(t);
        Ok(next(self.code.terms.len() - 1))
    }

    fn slotted(&mut self, t: &Term) -> Result<Slotted, EvalError> {
        Ok(match t {
            Term::Var(v) => Slotted::Slot(next(match self.elems.iter().rposition(|w| *w == v) {
                Some(depth) => self.free.len() + depth,
                None => self
                    .free
                    .iter()
                    .rposition(|w| w == v)
                    .ok_or_else(|| EvalError(format!("unbound variable {v}")))?,
            })),
            Term::Const(c) => Slotted::Const(*c),
            Term::App(f, args) => match t.as_param() {
                Some(i) => Slotted::Param(i, f.clone()),
                None => Slotted::App(f.clone(), self.terms(args)?),
            },
        })
    }

    fn num_term(&self, t: &NumTerm) -> Result<NumSlotted, EvalError> {
        Ok(match t {
            NumTerm::Var(v) => NumSlotted::Slot(next(
                self.nums
                    .iter()
                    .rposition(|w| *w == v)
                    .ok_or_else(|| EvalError(format!("unbound numeric variable {v}")))?,
            )),
            NumTerm::One => NumSlotted::One,
            NumTerm::Max => NumSlotted::Max,
            NumTerm::Lit(n) => NumSlotted::Lit(*n),
            NumTerm::Param(i) => NumSlotted::Param(*i),
        })
    }

    /// The candidate source of a quantifier binding `v` at `slot`, read off
    /// its matrix `f` (compiled as node `n`) when `f` must take the value
    /// `want` (rules in the module docs): the source's index, or `None`
    /// when the rules give none — which leaves nothing behind.
    fn source(&mut self, f: &Formula, n: u32, want: bool, v: &Var, slot: u32) -> Option<u32> {
        let mark = (
            self.code.sources.len(),
            self.code.args.len(),
            self.code.kids.len(),
        );
        let found = self.source_of(f, n, want, v, slot);
        if found.is_none() {
            self.code.sources.truncate(mark.0);
            self.code.args.truncate(mark.1);
            self.code.kids.truncate(mark.2);
        }
        found
    }

    fn source_of(&mut self, f: &Formula, n: u32, want: bool, v: &Var, slot: u32) -> Option<u32> {
        let is_v =
            |code: &Code, t: u32| matches!(code.terms[t as usize], Slotted::Slot(s) if s == slot);
        let source = match (f, self.code.nodes[n as usize].clone(), want) {
            (Formula::True, _, false) | (Formula::False, _, true) => Source::Empty,
            (Formula::Rel(..), Node::Rel(rel, ts), true) => {
                let at = ts.range().position(|t| is_v(self.code, next(t)))?;
                let start = self.code.args.len();
                for t in ts.range().map(next) {
                    let arg = if self.code.evaluable(t, slot) {
                        Arg::Bound(t)
                    } else if is_v(self.code, t) {
                        Arg::Quantified
                    } else {
                        Arg::Wild
                    };
                    self.code.args.push(arg);
                }
                let prefix = self.code.args[start..]
                    .iter()
                    .take_while(|a| matches!(a, Arg::Bound(_)))
                    .count();
                Source::Atom {
                    rel,
                    args: Span {
                        start: next(start),
                        len: ts.len,
                    },
                    at: next(at),
                    prefix: next(prefix),
                }
            }
            (Formula::Eq(..), Node::Eq(a, b), true) => {
                let t = match (a, b) {
                    (w, t) | (t, w) if is_v(self.code, w) => t,
                    _ => return None,
                };
                if !self.code.evaluable(t, slot) {
                    return None;
                }
                Source::Eq(t)
            }
            (Formula::Not(g), Node::Not(k), _) => return self.source(g, k, !want, v, slot),
            (Formula::And(gs), Node::And(ks), true) | (Formula::Or(gs), Node::Or(ks), false) => {
                return gs.iter().zip(ks.range()).find_map(|(g, k)| {
                    let k = self.code.kids[k];
                    self.source(g, k, want, v, slot)
                });
            }
            (Formula::Or(gs), Node::Or(ks), true) | (Formula::And(gs), Node::And(ks), false) => {
                let start = self.code.kids.len();
                self.code.kids.resize(start + gs.len(), 0);
                for (i, (g, k)) in gs.iter().zip(ks.range()).enumerate() {
                    let k = self.code.kids[k];
                    self.code.kids[start + i] = self.source(g, k, want, v, slot)?;
                }
                Source::Union(Span {
                    start: next(start),
                    len: next(gs.len()),
                })
            }
            (Formula::Implies(a, b), Node::Implies(ka, kb), false) => {
                return self
                    .source(a, ka, true, v, slot)
                    .or_else(|| self.source(b, kb, false, v, slot));
            }
            (Formula::Exists(w, g), Node::Quant { body, .. }, true)
            | (Formula::Forall(w, g), Node::Quant { body, .. }, false)
                if w != v =>
            {
                return self.source(g, body, want, v, slot);
            }
            _ => return None,
        };
        self.code.sources.push(source);
        Some(next(self.code.sources.len() - 1))
    }
}

/// Reused run-time space: the slots, a stack for term arguments and
/// candidate patterns, and the candidates of the enclosing quantifiers
/// (each quantifier's above its parent's).
#[derive(Default)]
struct Space {
    slots: Vec<Elem>,
    nums: Vec<u64>,
    stack: Vec<Elem>,
    cands: Vec<Elem>,
}

/// A thread's reusable evaluation state: run-time space, and spare code
/// buffers for one-off compilations ([`holds`], [`eval`],
/// [`TupleCondition`]).
#[derive(Default)]
struct Scratch {
    space: Space,
    spare: Code,
}

thread_local! {
    /// The thread's scratch, kept from one evaluation to the next (boxed,
    /// so that lending it to a [`TupleCondition`] moves a pointer).
    static SCRATCH: RefCell<Option<Box<Scratch>>> = const { RefCell::new(None) };
}

/// Takes the thread's scratch (a fresh one when it is out — lent to a
/// [`TupleCondition`], or in use by an evaluation an Ω function started).
fn take_scratch() -> Box<Scratch> {
    SCRATCH
        .try_with(|c| c.try_borrow_mut().ok().and_then(|mut s| s.take()))
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Gives the thread its scratch back.
fn put_scratch(s: Box<Scratch>) {
    let _ = SCRATCH.try_with(|c| {
        if let Ok(mut slot) = c.try_borrow_mut() {
            *slot = Some(s);
        }
    });
}

/// Runs `f` on the thread's scratch, in place (on a fresh one when it is
/// in use).
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut f = Some(f);
    let done = SCRATCH.try_with(|c| {
        let mut slot = c.try_borrow_mut().ok()?;
        let s = slot.get_or_insert_with(Box::default);
        Some((f.take().expect("called once"))(s))
    });
    match done {
        Ok(Some(out)) => out,
        _ => (f.take().expect("not called"))(&mut Scratch::default()),
    }
}

/// One run of a plan.
struct Run<'a> {
    db: &'a Database,
    omega: &'a Omega,
    bindings: &'a [Elem],
    code: &'a Code,
}

impl Run<'_> {
    fn node(&self, n: u32, s: &mut Space) -> Result<bool, EvalError> {
        match &self.code.nodes[n as usize] {
            Node::True => Ok(true),
            Node::False => Ok(false),
            Node::Rel(rel, ts) => {
                let base = self.push_terms(*ts, s)?;
                let hit = self.db.rel_at(*rel as usize).contains(&s.stack[base..]);
                s.stack.truncate(base);
                Ok(hit)
            }
            Node::Eq(a, b) => Ok(self.term(*a, s)? == self.term(*b, s)?),
            Node::Pred(p, ts) => {
                let base = self.push_terms(*ts, s)?;
                let r = self.omega.eval_pred(p.name(), &s.stack[base..]);
                s.stack.truncate(base);
                r.map_err(EvalError)
            }
            Node::Not(g) => Ok(!self.node(*g, s)?),
            Node::And(gs) => {
                for k in gs.range() {
                    if !self.node(self.code.kids[k], s)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Node::Or(gs) => {
                for k in gs.range() {
                    if self.node(self.code.kids[k], s)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Node::Implies(a, b) => Ok(!self.node(*a, s)? || self.node(*b, s)?),
            Node::Iff(a, b) => Ok(self.node(*a, s)? == self.node(*b, s)?),
            &Node::Quant {
                exists,
                slot,
                source,
                body,
            } => self.quantify(exists, slot as usize, source, body, s),
            Node::CountGe { bound, slot, body } => {
                let bound = self.num(bound, s)?;
                if bound == 0 {
                    return Ok(true);
                }
                let mut count: u64 = 0;
                for &e in self.db.domain() {
                    s.slots[*slot as usize] = e;
                    if self.node(*body, s)? {
                        count += 1;
                        if count >= bound {
                            return Ok(true);
                        }
                    }
                }
                Ok(false)
            }
            &Node::NumQuant { exists, slot, body } => {
                for k in 1..=self.db.domain_size() as u64 {
                    s.nums[slot as usize] = k;
                    if self.node(body, s)? == exists {
                        return Ok(exists);
                    }
                }
                Ok(!exists)
            }
            Node::NumLe(a, b) => Ok(self.num(a, s)? <= self.num(b, s)?),
            Node::NumEq(a, b) => Ok(self.num(a, s)? == self.num(b, s)?),
            Node::Bit(a, b) => {
                let i = self.num(a, s)?;
                let j = self.num(b, s)?;
                // bit positions are 1-indexed from the least significant bit
                Ok((1..=64).contains(&j) && (i >> (j - 1)) & 1 == 1)
            }
        }
    }

    /// `∃`/`∀` over `slot`: the first element at which `body` takes the
    /// decisive value (`true` for `∃`, `false` for `∀`) settles the
    /// verdict, so only the source's candidates are visited when it has
    /// some, and the whole domain otherwise.
    fn quantify(
        &self,
        exists: bool,
        slot: usize,
        source: u32,
        body: u32,
        s: &mut Space,
    ) -> Result<bool, EvalError> {
        if source != NO_SOURCE {
            let (start, base) = (s.cands.len(), s.stack.len());
            if self.candidates(source, s).is_ok() {
                s.cands[start..].sort_unstable();
                let mut end = start;
                for i in start..s.cands.len() {
                    if end == start || s.cands[i] != s.cands[end - 1] {
                        s.cands[end] = s.cands[i];
                        end += 1;
                    }
                }
                s.cands.truncate(end);
                for i in start..end {
                    s.slots[slot] = s.cands[i];
                    if self.node(body, s)? == exists {
                        s.cands.truncate(start);
                        return Ok(exists);
                    }
                }
                s.cands.truncate(start);
                return Ok(!exists);
            }
            // a term the source needs failed to evaluate: loop the domain
            s.cands.truncate(start);
            s.stack.truncate(base);
        }
        for &e in self.db.domain() {
            s.slots[slot] = e;
            if self.node(body, s)? == exists {
                return Ok(exists);
            }
        }
        Ok(!exists)
    }

    /// Appends source `i`'s candidates (possibly with repeats) to
    /// `s.cands`.
    fn candidates(&self, i: u32, s: &mut Space) -> Result<(), EvalError> {
        match self.code.sources[i as usize] {
            Source::Empty => {}
            Source::Atom {
                rel,
                args,
                at,
                prefix,
            } => {
                let args = &self.code.args[args.range()];
                let (at, prefix) = (at as usize, prefix as usize);
                let base = s.stack.len();
                for a in args {
                    let e = match *a {
                        Arg::Bound(t) => self.term(t, s)?,
                        Arg::Quantified | Arg::Wild => Elem(0),
                    };
                    s.stack.push(e);
                }
                let pattern = &s.stack[base..];
                for tuple in self
                    .db
                    .rel_at(rel as usize)
                    .prefix_range(&pattern[..prefix])
                {
                    let v = tuple[at];
                    let fits = (prefix..args.len()).all(|i| match args[i] {
                        Arg::Bound(_) => tuple[i] == pattern[i],
                        Arg::Quantified => tuple[i] == v,
                        Arg::Wild => true,
                    });
                    if fits {
                        s.cands.push(v);
                    }
                }
                s.stack.truncate(base);
            }
            Source::Eq(t) => {
                let e = self.term(t, s)?;
                if self.db.domain_contains(&e) {
                    s.cands.push(e);
                }
            }
            Source::Union(parts) => {
                for k in parts.range() {
                    self.candidates(self.code.kids[k], s)?;
                }
            }
        }
        Ok(())
    }

    /// Pushes the values of the terms `ts` onto the stack and returns
    /// where they start.
    fn push_terms(&self, ts: Span, s: &mut Space) -> Result<usize, EvalError> {
        let base = s.stack.len();
        for t in ts.range() {
            let e = self.term(next(t), s)?;
            s.stack.push(e);
        }
        Ok(base)
    }

    fn term(&self, t: u32, s: &mut Space) -> Result<Elem, EvalError> {
        match &self.code.terms[t as usize] {
            Slotted::Slot(i) => Ok(s.slots[*i as usize]),
            Slotted::Const(c) => Ok(*c),
            Slotted::Param(i, sym) => match self.bindings.get(*i) {
                Some(e) => Ok(*e),
                None => self.omega.eval_func(sym.name(), &[]).map_err(EvalError),
            },
            Slotted::App(f, args) => {
                let base = self.push_terms(*args, s)?;
                let r = self.omega.eval_func(f.name(), &s.stack[base..]);
                s.stack.truncate(base);
                r.map_err(EvalError)
            }
        }
    }

    fn num(&self, t: &NumSlotted, s: &Space) -> Result<u64, EvalError> {
        match t {
            NumSlotted::Slot(i) => Ok(s.nums[*i as usize]),
            NumSlotted::One => Ok(1),
            NumSlotted::Max => Ok(self.db.domain_size() as u64),
            NumSlotted::Lit(n) => Ok(*n),
            NumSlotted::Param(i) => self
                .bindings
                .get(*i)
                .map(|e| e.0)
                .ok_or_else(|| EvalError(format!("un-instantiated numeric placeholder ?{i}#"))),
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

    /// The candidates the source of a quantified formula's outer
    /// quantifier names, sorted and deduped, with `env`'s variables free.
    fn candidates_of(db: &Database, s: &str, env: &Env) -> Option<Vec<Elem>> {
        let f = parse_formula(s).expect("parses");
        let vars: Vec<Var> = env.elems.iter().map(|(v, _)| v.clone()).collect();
        let plan = Plan::compile(db.schema(), &f, &vars).expect("compiles");
        let Node::Quant { source, .. } = plan.code.nodes[plan.layout.root as usize] else {
            panic!("{s} is not quantified");
        };
        if source == NO_SOURCE {
            return None;
        }
        let omega = Omega::empty();
        let mut scratch = Space::default();
        scratch.slots = env.elems.iter().map(|(_, e)| *e).collect();
        let run = Run {
            db,
            omega: &omega,
            bindings: &[],
            code: &plan.code,
        };
        run.candidates(source, &mut scratch)
            .expect("terms evaluate");
        let mut c = scratch.cands;
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
