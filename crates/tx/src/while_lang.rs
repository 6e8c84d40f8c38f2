//! While-programs over relation variables.
//!
//! Section 2 contrasts weakest preconditions for databases with those "for
//! a simple while loop language" in general program verification [6, 9];
//! and Theorem B applies to *any* transaction language expressing
//! transitive closure — in particular to this one, the classical
//! `while`-language of Abiteboul–Vianu (\[1\], "while queries"): relation
//! variables, RA assignments, and a loop that runs until the state stops
//! changing.

use crate::algebra::RaExpr;
use crate::traits::{normalize_domain, Transaction, TxError};
use vpdt_logic::Schema;
use vpdt_structure::Database;

/// A statement of the while-language.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `X := e` — assign an RA expression (over base relations and relation
    /// variables) to a relation variable.
    Assign(String, RaExpr),
    /// Run the body until the whole state (all relation variables) is
    /// unchanged by an iteration.
    WhileChange(Vec<Stmt>),
}

/// A while-program: relation variables with arities, a body, and an output
/// mapping from variables to base relations.
#[derive(Clone, Debug)]
pub struct WhileProgram {
    label: String,
    vars: Vec<(String, usize)>,
    body: Vec<Stmt>,
    outputs: Vec<(String, String)>, // (variable, target base relation)
    max_iterations: usize,
}

impl WhileProgram {
    /// Builds a program. `max_iterations` bounds every loop (while-programs
    /// need not terminate; the bound turns divergence into
    /// [`TxError::ResourceLimit`]).
    pub fn new(
        label: impl Into<String>,
        vars: impl IntoIterator<Item = (impl Into<String>, usize)>,
        body: Vec<Stmt>,
        outputs: impl IntoIterator<Item = (impl Into<String>, impl Into<String>)>,
        max_iterations: usize,
    ) -> Self {
        WhileProgram {
            label: label.into(),
            vars: vars.into_iter().map(|(n, a)| (n.into(), a)).collect(),
            body,
            outputs: outputs
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
            max_iterations,
        }
    }

    fn extended_schema(&self, base: &Schema) -> Schema {
        base.extended(self.vars.iter().map(|(n, a)| (n.clone(), *a)))
    }

    fn run_body(&self, stmts: &[Stmt], state: &mut Database) -> Result<(), TxError> {
        for s in stmts {
            match s {
                Stmt::Assign(var, expr) => {
                    let tuples = expr.eval(state)?;
                    let old: Vec<Vec<vpdt_logic::Elem>> = state.rel(var).iter().cloned().collect();
                    for t in old {
                        state.remove(var, &t);
                    }
                    for t in tuples {
                        state.insert(var, t);
                    }
                }
                Stmt::WhileChange(body) => {
                    let mut iterations = 0;
                    loop {
                        let before = state.clone();
                        self.run_body(body, state)?;
                        if *state == before {
                            break;
                        }
                        iterations += 1;
                        if iterations > self.max_iterations {
                            return Err(TxError::ResourceLimit(format!(
                                "while loop exceeded {} iterations",
                                self.max_iterations
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Transaction for WhileProgram {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn apply(&self, db: &Database) -> Result<Database, TxError> {
        let mut state = db.with_schema(self.extended_schema(db.schema()));
        self.run_body(&self.body, &mut state)?;
        let mut out = db.clone();
        for (var, target) in &self.outputs {
            let old: Vec<Vec<vpdt_logic::Elem>> = out.rel(target).iter().cloned().collect();
            for t in old {
                out.remove(target, &t);
            }
            for t in state.rel(var).iter() {
                out.insert(target, t.clone());
            }
        }
        Ok(normalize_domain(out))
    }
}

/// Transitive closure as a while-program:
///
/// ```text
/// T := E;
/// while change { T := T ∪ π₀,₃(σ₁=₂(T × E)) }
/// output E := T
/// ```
pub fn tc_while() -> WhileProgram {
    use crate::algebra::SelPred;
    let step = RaExpr::rel("T").union(
        RaExpr::rel("T")
            .product(RaExpr::rel("E"))
            .select(SelPred::EqCols(1, 2))
            .project([0, 3]),
    );
    WhileProgram::new(
        "tc-while",
        [("T", 2usize)],
        vec![
            Stmt::Assign("T".into(), RaExpr::rel("E")),
            Stmt::WhileChange(vec![Stmt::Assign("T".into(), step)]),
        ],
        [("T", "E")],
        10_000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_structure::{families, Graph};

    #[test]
    fn tc_while_matches_graph_tc() {
        for db in [families::chain(5), families::cycle(4), families::gnm(2, 3)] {
            let out = tc_while().apply(&db).expect("applies");
            let expect: std::collections::BTreeSet<_> = Graph::of_edges(&db)
                .transitive_closure()
                .into_iter()
                .collect();
            let got: std::collections::BTreeSet<_> = out.edges().into_iter().collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn divergence_is_bounded() {
        // a loop that flips E between two values never stabilizes
        use crate::algebra::SelPred;
        let flip = RaExpr::rel("T")
            .diff(RaExpr::rel("T").select(SelPred::EqCols(0, 0)))
            .union(RaExpr::rel("E").diff(RaExpr::rel("T")));
        let p = WhileProgram::new(
            "flip",
            [("T", 2usize)],
            vec![Stmt::WhileChange(vec![Stmt::Assign("T".into(), flip)])],
            [("T", "E")],
            10,
        );
        let r = p.apply(&families::chain(3));
        assert!(matches!(r, Err(TxError::ResourceLimit(_))));
    }

    #[test]
    fn straight_line_assignment() {
        let p = WhileProgram::new(
            "reverse",
            [("T", 2usize)],
            vec![Stmt::Assign("T".into(), RaExpr::rel("E").project([1, 0]))],
            [("T", "E")],
            10,
        );
        let out = p.apply(&families::chain(3)).expect("applies");
        assert!(out.contains("E", &[vpdt_logic::Elem(1), vpdt_logic::Elem(0)]));
        assert_eq!(out.rel("E").len(), 2);
    }
}
