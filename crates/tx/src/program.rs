//! First-order update programs — the transaction language of Qian \[32\]
//! as used by the paper (insertions, deletions, assignments, sequencing,
//! conditionals), with direct operational semantics.
//!
//! Every program here admits prerelations over FOc(Ω) (Proposition 3);
//! the compiler lives in `vpdt-core::prerelations`, and the equivalence of
//! the two semantics is property-tested there.

use crate::traits::{normalize_domain, Transaction, TxError};
use vpdt_eval::fo::TupleCondition;
use vpdt_eval::{eval_term, holds, Env, Omega};
use vpdt_logic::{Elem, Formula, Term, Var};
use vpdt_structure::Database;

/// An update program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Program {
    /// Does nothing.
    Skip,
    /// Inserts the tuple of ground terms into a relation.
    Insert {
        /// Target relation.
        rel: String,
        /// Ground terms (constants or Ω-applications over constants).
        tuple: Vec<Term>,
    },
    /// Deletes every tuple `x̄` of `rel` with `D ⊨ cond(x̄)`.
    ///
    /// [`Program::run`] seeks the tuples a condition can hold at: the
    /// leading columns that top-level conjuncts `dᵢ = c` (either way round,
    /// `c` a constant) pin form a key prefix, and only the tuples extending
    /// it are tested. Deleting one constant tuple is therefore a seek, not
    /// a scan of the relation.
    DeleteWhere {
        /// Target relation.
        rel: String,
        /// The tuple variables, one per column.
        vars: Vec<Var>,
        /// Deletion condition; free variables ⊆ `vars`.
        cond: Formula,
    },
    /// Inserts every tuple `x̄ ∈ dom(D)^n` with `D ⊨ cond(x̄)` into `rel`.
    InsertWhere {
        /// Target relation.
        rel: String,
        /// The tuple variables, one per column.
        vars: Vec<Var>,
        /// Insertion condition; free variables ⊆ `vars`.
        cond: Formula,
    },
    /// Replaces `rel` wholesale: `rel := {x̄ ∈ dom(D)^n | D ⊨ body(x̄)}`.
    Assign {
        /// Target relation.
        rel: String,
        /// The tuple variables, one per column.
        vars: Vec<Var>,
        /// Membership condition over the *old* state.
        body: Formula,
    },
    /// Runs the sub-programs in order (each sees its predecessor's output).
    Seq(Vec<Program>),
    /// Conditional on a sentence over the current state.
    If {
        /// The guard sentence.
        cond: Formula,
        /// Taken when the guard holds.
        then_p: Box<Program>,
        /// Taken otherwise.
        else_p: Box<Program>,
    },
}

impl Program {
    /// Sequencing helper.
    pub fn seq(ps: impl IntoIterator<Item = Program>) -> Self {
        Program::Seq(ps.into_iter().collect())
    }

    /// Insertion of a constant tuple.
    pub fn insert_consts(rel: impl Into<String>, tuple: impl IntoIterator<Item = u64>) -> Self {
        Program::Insert {
            rel: rel.into(),
            tuple: tuple.into_iter().map(Term::cst).collect(),
        }
    }

    /// Deletion of one constant tuple.
    pub fn delete_consts(rel: impl Into<String>, tuple: impl IntoIterator<Item = u64>) -> Self {
        let tuple: Vec<u64> = tuple.into_iter().collect();
        let vars: Vec<Var> = (0..tuple.len())
            .map(|i| Var::new(format!("d{i}")))
            .collect();
        let cond = Formula::and(
            vars.iter()
                .zip(tuple.iter())
                .map(|(v, c)| Formula::eq(Term::Var(v.clone()), Term::cst(*c))),
        );
        Program::DeleteWhere {
            rel: rel.into(),
            vars,
            cond,
        }
    }

    /// Applies the program to a database state (domain evolves with inserts
    /// but is *not* normalized — [`Transaction::apply`] on
    /// [`ProgramTransaction`] does the final normalization).
    ///
    /// A [`DeleteWhere`](Program::DeleteWhere) seeks the key prefix its
    /// condition pins to constants on leading columns, visits only the
    /// tuples extending it, and tests the whole condition on each of them,
    /// so the result — errors included — is the one a test of every tuple
    /// would give. An empty prefix is the whole relation: one loop, not a
    /// seek path and a scan path.
    pub fn run(&self, db: &Database, omega: &Omega) -> Result<Database, TxError> {
        match self {
            Program::Skip => Ok(db.clone()),
            Program::Insert { rel, tuple } => {
                let env = Env::new();
                let mut vals = Vec::with_capacity(tuple.len());
                for t in tuple {
                    if !t.is_ground() {
                        return Err(TxError::Eval(format!(
                            "insert tuple must be ground, found {t}"
                        )));
                    }
                    vals.push(eval_term(omega, t, &env)?);
                }
                let mut out = db.clone();
                out.insert(rel, vals);
                Ok(out)
            }
            Program::DeleteWhere { rel, vars, cond } => {
                check_cond(vars, cond)?;
                let mut out = db.clone();
                let tuples = db.rel(rel);
                let prefix = pinned_prefix(vars, cond, tuples.arity());
                let mut cond = TupleCondition::new(db, omega, cond, vars);
                // Testing every tuple fails at the first one when the
                // condition is ill-formed; the seek may visit no tuple, so
                // the well-formedness walk runs at the first one anyway.
                if let Some(first) = tuples.iter().next() {
                    cond.check_at(first)?;
                }
                for t in tuples.prefix_range(&prefix) {
                    if cond.holds_at(t)? {
                        out.remove(rel, t);
                    }
                }
                Ok(out)
            }
            Program::InsertWhere { rel, vars, cond } => {
                check_cond(vars, cond)?;
                let mut out = db.clone();
                let mut cond = TupleCondition::new(db, omega, cond, vars);
                for t in all_tuples(db, vars.len()) {
                    if cond.holds_at(&t)? {
                        out.insert(rel, t);
                    }
                }
                Ok(out)
            }
            Program::Assign { rel, vars, body } => {
                check_cond(vars, body)?;
                let mut out = db.clone();
                let old: Vec<Vec<vpdt_logic::Elem>> = db.rel(rel).iter().cloned().collect();
                for t in old {
                    out.remove(rel, &t);
                }
                let mut body = TupleCondition::new(db, omega, body, vars);
                for t in all_tuples(db, vars.len()) {
                    if body.holds_at(&t)? {
                        out.insert(rel, t);
                    }
                }
                Ok(out)
            }
            Program::Seq(ps) => {
                let mut cur = db.clone();
                for p in ps {
                    cur = p.run(&cur, omega)?;
                }
                Ok(cur)
            }
            Program::If {
                cond,
                then_p,
                else_p,
            } => {
                if !cond.is_sentence() {
                    return Err(TxError::Eval("if-guard must be a sentence".to_string()));
                }
                if holds(db, omega, cond)? {
                    then_p.run(db, omega)
                } else {
                    else_p.run(db, omega)
                }
            }
        }
    }

    /// All relations this program may modify.
    pub fn touched_relations(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_touched(&mut out);
        out
    }

    fn collect_touched(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Program::Skip => {}
            Program::Insert { rel, .. }
            | Program::DeleteWhere { rel, .. }
            | Program::InsertWhere { rel, .. }
            | Program::Assign { rel, .. } => {
                out.insert(rel.clone());
            }
            Program::Seq(ps) => {
                for p in ps {
                    p.collect_touched(out);
                }
            }
            Program::If { then_p, else_p, .. } => {
                then_p.collect_touched(out);
                else_p.collect_touched(out);
            }
        }
    }

    /// All relations whose *old* contents the program's semantics consults:
    /// relations mentioned by conditions, plus the target relations of
    /// updates that rewrite existing tuples. A sound superset — `Seq` is
    /// approximated by the union over its steps.
    pub fn read_relations(&self) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut std::collections::BTreeSet<String>) {
        match self {
            Program::Skip | Program::Insert { .. } => {}
            Program::DeleteWhere { rel, cond, .. } | Program::InsertWhere { rel, cond, .. } => {
                out.insert(rel.clone());
                out.extend(cond.relations_used());
            }
            Program::Assign { body, .. } => {
                out.extend(body.relations_used());
            }
            Program::Seq(ps) => {
                for p in ps {
                    p.collect_reads(out);
                }
            }
            Program::If {
                cond,
                then_p,
                else_p,
            } => {
                out.extend(cond.relations_used());
                then_p.collect_reads(out);
                else_p.collect_reads(out);
            }
        }
    }

    /// Every condition formula the program evaluates, in syntactic order
    /// (deletion/insertion conditions, assignment bodies, `if` guards).
    pub fn condition_formulas(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        self.collect_conditions(&mut out);
        out
    }

    fn collect_conditions<'a>(&'a self, out: &mut Vec<&'a Formula>) {
        match self {
            Program::Skip | Program::Insert { .. } => {}
            Program::DeleteWhere { cond, .. } | Program::InsertWhere { cond, .. } => {
                out.push(cond);
            }
            Program::Assign { body, .. } => out.push(body),
            Program::Seq(ps) => {
                for p in ps {
                    p.collect_conditions(out);
                }
            }
            Program::If {
                cond,
                then_p,
                else_p,
            } => {
                out.push(cond);
                then_p.collect_conditions(out);
                else_p.collect_conditions(out);
            }
        }
    }

    /// Whether some step enumerates candidate tuples over the whole domain
    /// (`InsertWhere` and `Assign` range over `dom(D)^n`, so their output
    /// depends on the domain, not only on relation contents).
    pub fn enumerates_domain(&self) -> bool {
        match self {
            Program::Skip | Program::Insert { .. } | Program::DeleteWhere { .. } => false,
            Program::InsertWhere { .. } | Program::Assign { .. } => true,
            Program::Seq(ps) => ps.iter().any(Program::enumerates_domain),
            Program::If { then_p, else_p, .. } => {
                then_p.enumerates_domain() || else_p.enumerates_domain()
            }
        }
    }
}

fn check_cond(vars: &[Var], cond: &Formula) -> Result<(), TxError> {
    for fv in cond.free_vars() {
        if !vars.contains(&fv) {
            return Err(TxError::Eval(format!(
                "condition has stray free variable {fv}"
            )));
        }
    }
    Ok(())
}

/// The key prefix a deletion condition pins: `c₀ … c_{k-1}` when, for each
/// leading column `i < k`, a top-level conjunct of `cond` is `dᵢ = cᵢ` or
/// `cᵢ = dᵢ` with `dᵢ` the column's variable and `cᵢ` a constant. Every
/// tuple off the prefix falsifies one of those conjuncts, so `cond` is
/// false there.
///
/// Only conjuncts before the first one that mentions an Ω symbol or a
/// counting construct count: evaluation runs the conjuncts in order, and
/// such a conjunct may fail (an unknown Ω symbol, an un-instantiated
/// placeholder) where the earlier ones hold, so a tuple off the prefix
/// must reach no such conjunct before a false pin. The conjuncts the rule
/// does read (first-order with constants) cannot fail once the
/// well-formedness walk has passed. A column whose variable repeats later
/// in `vars` is bound to the later column, so it ends the prefix; so do
/// `App` terms and pins on a non-leading column. An empty prefix is the
/// whole relation.
fn pinned_prefix(vars: &[Var], cond: &Formula, arity: usize) -> Vec<Elem> {
    let conjuncts = match cond {
        Formula::And(gs) => gs.as_slice(),
        other => std::slice::from_ref(other),
    };
    let safe = conjuncts
        .iter()
        .position(|g| !g.is_fo_c())
        .unwrap_or(conjuncts.len());
    let pin = |v: &Var| {
        conjuncts[..safe].iter().find_map(|g| match g {
            Formula::Eq(Term::Var(w), Term::Const(c))
            | Formula::Eq(Term::Const(c), Term::Var(w))
                if w == v =>
            {
                Some(*c)
            }
            _ => None,
        })
    };
    let mut prefix = Vec::new();
    for (i, v) in vars.iter().enumerate().take(arity) {
        if vars[i + 1..].contains(v) {
            break;
        }
        match pin(v) {
            Some(c) => prefix.push(c),
            None => break,
        }
    }
    prefix
}

fn all_tuples(db: &Database, arity: usize) -> Vec<Vec<vpdt_logic::Elem>> {
    let dom: Vec<vpdt_logic::Elem> = db.domain().iter().copied().collect();
    let mut out = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(out.len() * dom.len());
        for t in &out {
            for e in &dom {
                let mut t2 = t.clone();
                t2.push(*e);
                next.push(t2);
            }
        }
        out = next;
    }
    out
}

/// A [`Transaction`] wrapper around a program and an Ω interpretation.
#[derive(Clone, Debug)]
pub struct ProgramTransaction {
    label: String,
    program: Program,
    omega: Omega,
}

impl ProgramTransaction {
    /// Wraps a program with an interpretation of its Ω symbols.
    pub fn new(label: impl Into<String>, program: Program, omega: Omega) -> Self {
        ProgramTransaction {
            label: label.into(),
            program,
            omega,
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The Ω interpretation.
    pub fn omega(&self) -> &Omega {
        &self.omega
    }
}

impl Transaction for ProgramTransaction {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn apply(&self, db: &Database) -> Result<Database, TxError> {
        Ok(normalize_domain(self.program.run(db, &self.omega)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_logic::parse_formula;
    use vpdt_structure::families;

    fn pt(p: Program) -> ProgramTransaction {
        ProgramTransaction::new("test", p, Omega::empty())
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let db = families::chain(3);
        let ins = pt(Program::insert_consts("E", [7, 8]));
        let out = ins.apply(&db).expect("applies");
        assert!(out.contains("E", &[vpdt_logic::Elem(7), vpdt_logic::Elem(8)]));
        let del = pt(Program::delete_consts("E", [7, 8]));
        let back = del.apply(&out).expect("applies");
        assert_eq!(back, db);
    }

    #[test]
    fn delete_where_condition() {
        // delete loops
        let mut db = families::chain(3);
        db.insert("E", vec![vpdt_logic::Elem(1), vpdt_logic::Elem(1)]);
        let p = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: parse_formula("x = y").expect("parses"),
        };
        let out = pt(p).apply(&db).expect("applies");
        assert_eq!(out, families::chain(3));
    }

    /// A condition is checked at its first tuple: an ill-formed one errs
    /// as soon as there is a tuple to test it on, and never on an empty
    /// relation (or, for the domain loops, an empty domain).
    #[test]
    fn ill_formed_conditions_err_only_when_tested() {
        let vars = vec![Var::new("x"), Var::new("y")];
        for cond in ["Q(x, y)", "E(x)", "exists z. E(x, z) & F(z)"] {
            let cond = parse_formula(cond).expect("parses");
            for p in [
                Program::DeleteWhere {
                    rel: "E".into(),
                    vars: vars.clone(),
                    cond: cond.clone(),
                },
                Program::InsertWhere {
                    rel: "E".into(),
                    vars: vars.clone(),
                    cond: cond.clone(),
                },
                Program::Assign {
                    rel: "E".into(),
                    vars: vars.clone(),
                    body: cond.clone(),
                },
            ] {
                assert!(pt(p.clone()).apply(&Database::graph([])).is_ok(), "{p:?}");
                assert!(
                    matches!(
                        pt(p.clone()).apply(&families::chain(3)),
                        Err(TxError::Eval(_))
                    ),
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn insert_where_adds_reverse_edges() {
        let db = families::chain(3);
        let p = Program::InsertWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: parse_formula("E(y, x)").expect("parses"),
        };
        let out = pt(p).apply(&db).expect("applies");
        assert_eq!(out.rel("E").len(), 4);
        assert!(out.contains("E", &[vpdt_logic::Elem(1), vpdt_logic::Elem(0)]));
    }

    #[test]
    fn assign_replaces_wholesale() {
        let db = families::chain(4);
        // E := complete loopless graph (T2 in program form)
        let p = Program::Assign {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            body: parse_formula("x != y").expect("parses"),
        };
        let out = pt(p).apply(&db).expect("applies");
        assert_eq!(out, families::complete_loopless(4));
    }

    #[test]
    fn sequence_threads_state() {
        let db = Database::graph([(0, 1)]);
        let p = Program::seq([
            Program::insert_consts("E", [1, 2]),
            // now delete the original edge; the insert must survive
            Program::delete_consts("E", [0, 1]),
        ]);
        let out = pt(p).apply(&db).expect("applies");
        assert_eq!(
            out.edges(),
            vec![(vpdt_logic::Elem(1), vpdt_logic::Elem(2))]
        );
    }

    #[test]
    fn conditional_branches() {
        let guard = parse_formula("exists x. E(x, x)").expect("parses");
        let p = Program::If {
            cond: guard,
            then_p: Box::new(Program::delete_consts("E", [0, 0])),
            else_p: Box::new(Program::insert_consts("E", [0, 0])),
        };
        let with_loop = Database::graph([(0, 0), (0, 1)]);
        let removed = pt(p.clone()).apply(&with_loop).expect("applies");
        assert!(!removed.contains("E", &[vpdt_logic::Elem(0), vpdt_logic::Elem(0)]));
        let without = Database::graph([(0, 1)]);
        let added = pt(p).apply(&without).expect("applies");
        assert!(added.contains("E", &[vpdt_logic::Elem(0), vpdt_logic::Elem(0)]));
    }

    /// The seek prefix reads leading-column pins from top-level conjuncts
    /// in either orientation, and ends at the first unpinned column, an
    /// `App` term, a repeated variable, or a conjunct mentioning Ω.
    #[test]
    fn pinned_prefix_reads_leading_constant_pins() {
        let xyz = [Var::new("x"), Var::new("y"), Var::new("z")];
        let prefix = |vars: &[Var], cond: &str| -> Vec<u64> {
            let cond = parse_formula(cond).expect("parses");
            pinned_prefix(vars, &cond, 3).iter().map(|e| e.0).collect()
        };
        for (cond, want) in [
            ("x = 1 & 2 = y & z = 3", vec![1, 2, 3]),
            ("y = 2 & E(x, y) & x = 1", vec![1, 2]),
            ("x = 1", vec![1]),
            ("x = 1 & z = 3", vec![1]),
            ("x = 1 & x = 2", vec![1]),
            ("y = 2 & z = 3", vec![]),
            ("x = 1 | y = 2", vec![]),
            ("x = y & y = 2", vec![]),
            ("x = succ(1) & y = 2", vec![]),
            ("x = 1 & y = succ(1)", vec![1]),
            ("x = 1 & succ(z) = z & y = 2", vec![1]),
            ("x = 1 & @lt(x, y) & y = 2", vec![1]),
            ("true", vec![]),
        ] {
            assert_eq!(prefix(&xyz, cond), want, "{cond}");
        }
        // a variable bound twice takes its later column's value
        let xyx = [Var::new("x"), Var::new("y"), Var::new("x")];
        assert_eq!(prefix(&xyx, "x = 1 & y = 2"), Vec::<u64>::new());
        // never longer than the relation's arity
        let cond = parse_formula("x = 1 & y = 2 & z = 3").expect("parses");
        assert_eq!(pinned_prefix(&xyz, &cond, 2).len(), 2);
    }

    #[test]
    fn footprints_cover_reads_and_writes() {
        let p = Program::seq([
            Program::insert_consts("E", [1, 2]),
            Program::If {
                cond: parse_formula("exists x. A(x)").expect("parses"),
                then_p: Box::new(Program::DeleteWhere {
                    rel: "E".into(),
                    vars: vec![Var::new("x"), Var::new("y")],
                    cond: parse_formula("B(x)").expect("parses"),
                }),
                else_p: Box::new(Program::Skip),
            },
        ]);
        let writes: Vec<_> = p.touched_relations().into_iter().collect();
        assert_eq!(writes, ["E"]);
        let reads: Vec<_> = p.read_relations().into_iter().collect();
        assert_eq!(reads, ["A", "B", "E"]);
        assert_eq!(p.condition_formulas().len(), 2);
        assert!(!p.enumerates_domain());
        assert!(Program::Assign {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            body: Formula::True,
        }
        .enumerates_domain());
    }

    /// Programs and compiled transactions cross worker threads in
    /// `vpdt-store`; these bounds are load-bearing, not incidental.
    #[test]
    fn programs_are_send_sync_clone() {
        fn assert_bounds<T: Send + Sync + Clone + 'static>() {}
        assert_bounds::<Program>();
        assert_bounds::<ProgramTransaction>();
    }

    #[test]
    fn stray_free_variables_rejected() {
        let p = Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![Var::new("x"), Var::new("y")],
            cond: parse_formula("E(x, z)").expect("parses"),
        };
        assert!(matches!(
            pt(p).apply(&families::chain(2)),
            Err(TxError::Eval(_))
        ));
    }

    #[test]
    fn omega_functions_in_inserts() {
        let p = Program::Insert {
            rel: "E".into(),
            tuple: vec![Term::cst(1u64), Term::app("succ", [Term::cst(1u64)])],
        };
        let tx = ProgramTransaction::new("succ-insert", p, Omega::arithmetic());
        let out = tx.apply(&Database::graph([])).expect("applies");
        assert!(out.contains("E", &[vpdt_logic::Elem(1), vpdt_logic::Elem(2)]));
    }

    #[test]
    fn touched_relations_collected() {
        let p = Program::seq([
            Program::insert_consts("E", [0, 1]),
            Program::If {
                cond: Formula::True,
                then_p: Box::new(Program::Skip),
                else_p: Box::new(Program::delete_consts("E", [0, 1])),
            },
        ]);
        assert_eq!(
            p.touched_relations().into_iter().collect::<Vec<_>>(),
            vec!["E".to_string()]
        );
    }
}
