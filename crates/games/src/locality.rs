//! Degree counts and the bounded-degree property (Corollary 2).
//!
//! For a graph `G`, its *degree count* `dc(G)` is the number of different
//! in- and out-degrees of nodes of `G` (after Libkin–Wong \[27\]). Every
//! first-order query `q` has the *bounded degree property*: `dc(q(G))` is
//! bounded by a constant depending only on `q` and the maximal degree of
//! `G`. Corollary 2 shows `WPC(FO)` admits **no** characterization in these
//! terms: it contains queries violating any bound `f` (the Theorem 7
//! transaction computes `tc` on chains, whose images have unbounded `dc`)
//! and excludes queries obeying the strictest bound (the connectivity
//! test-and-rewrite query has `dc ≤ 1` outputs yet no FO precondition).

use vpdt_structure::{Database, Graph};

/// The degree count `dc(G)`: number of distinct values among all in- and
/// out-degrees.
pub fn degree_count(db: &Database) -> usize {
    Graph::of_edges(db).degree_count()
}

/// The maximal in- or out-degree of the graph (0 for the empty graph).
pub fn max_degree(db: &Database) -> usize {
    let g = Graph::of_edges(db);
    (0..g.len())
        .map(|i| g.out_degree(i).max(g.in_degree(i)))
        .max()
        .unwrap_or(0)
}

/// The query from Corollary 2's proof that lies in `Q_{λx.1} − WPC(FO)`:
/// the diagonal if the input is weakly connected, the complete loopless
/// graph otherwise. Its outputs always have `dc ≤ 2`, but a weakest
/// FO precondition for it would define connectivity.
pub fn connectivity_test_query(db: &Database) -> Database {
    let g = Graph::of_edges(db);
    let nodes: Vec<u64> = db.domain().iter().map(|e| e.0).collect();
    if g.is_weakly_connected() {
        vpdt_structure::families::diagonal(nodes)
    } else {
        let mut out = Database::graph([]);
        for &i in &nodes {
            out.add_domain_elem(vpdt_logic::Elem(i));
            for &j in &nodes {
                if i != j {
                    out.insert("E", vec![vpdt_logic::Elem(i), vpdt_logic::Elem(j)]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_structure::families;

    #[test]
    fn dc_of_standard_families() {
        assert_eq!(degree_count(&families::chain(10)), 2); // degrees {0,1}
        assert_eq!(degree_count(&families::cycle(7)), 1); // all degree 1
        assert_eq!(degree_count(&families::linear_order(5)), 5); // 0..4
        assert_eq!(degree_count(&families::empty_graph(3)), 1); // all 0
    }

    #[test]
    fn dc_of_tc_on_chains_grows_without_bound() {
        // the heart of Theorem 7's PR(FO) refutation: a first-order query
        // cannot compute tc on chains because dc(tc(chain_n)) = n while
        // dc(chain_n) = 2.
        for n in [3usize, 5, 8] {
            let chain = families::chain(n);
            let tc = Graph::of_edges(&chain).transitive_closure();
            let img = vpdt_structure::graph::graph_from_pairs(chain.domain().iter().copied(), tc);
            assert_eq!(degree_count(&chain), 2);
            assert_eq!(degree_count(&img), n);
        }
    }

    #[test]
    fn connectivity_query_has_tiny_dc_outputs() {
        for db in [
            families::chain(6),
            families::two_cycles(3, 4),
            families::gnm(2, 3),
        ] {
            let out = connectivity_test_query(&db);
            assert!(degree_count(&out) <= 2, "dc = {}", degree_count(&out));
        }
    }

    #[test]
    fn max_degree_examples() {
        assert_eq!(max_degree(&families::gnm(3, 3)), 2);
        assert_eq!(max_degree(&families::complete_loopless(4)), 3);
        assert_eq!(max_degree(&families::empty_graph(2)), 0);
    }
}
