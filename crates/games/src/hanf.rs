//! Hanf locality: r-neighborhoods, r-type censuses, `≃_{d,m}`.
//!
//! Definitions follow Section 3 of the paper: the *r-neighborhood* `N_r(a)`
//! is the induced substructure on the nodes reachable from `a` by unoriented
//! paths of length ≤ r; the *r-type* of `a` is the isomorphism type of
//! `N_r(a)` with `a` distinguished. Two (colored) graphs are
//! `G₁ ≃_{d,m} G₂` if for every d-type either both have the same number
//! `< m` of realizers or both have at least `m` (the notation before
//! Claim 1 of Theorem 3).
//!
//! Fagin–Stockmeyer–Vardi give the transfer used twice in the paper:
//! structures with the same number of r-neighborhoods of every r-type for
//! `r = 3^k` cannot be distinguished at quantifier rank `k`
//! ([`fsv_radius`]); Nurmonen's analogue extends this to FO+counting
//! (Theorem 3, "by the result of \[30\]").

use std::collections::BTreeMap;
use vpdt_structure::iso::{CanonCode, ColoredDigraph};
use vpdt_structure::{Database, Graph};

/// The canonical code of the r-type of `center` (node index in `g`): the
/// induced subgraph on `N_r(center)` with the center color-marked. Node
/// colors, if given, are preserved (center marking composes with them).
pub fn r_type(g: &Graph, colors: Option<&[u64]>, center: usize, r: usize) -> CanonCode {
    let ball = g.ball(center, r);
    let pos: BTreeMap<usize, usize> = ball.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut edges = Vec::new();
    for &a in &ball {
        for &b in g.out_neighbors(a) {
            if let Some(&bj) = pos.get(&b) {
                edges.push((pos[&a], bj));
            }
        }
    }
    let mut cd = ColoredDigraph::new(ball.len(), edges);
    for (&orig, &local) in &pos {
        let base = colors.map_or(0, |c| c[orig]);
        // 2*base encodes the color; +1 marks the distinguished center.
        cd.set_color(local, 2 * base + u64::from(orig == center));
    }
    cd.canonical_code()
}

/// The census of r-types: how many nodes realize each type.
pub fn r_type_census(db: &Database, r: usize) -> BTreeMap<CanonCode, usize> {
    r_type_census_colored(db, None, r)
}

/// The census of r-types of a colored graph. `colors`, when given, assigns
/// a color to each node in the order of [`Graph::nodes`].
pub fn r_type_census_colored(
    db: &Database,
    colors: Option<&[u64]>,
    r: usize,
) -> BTreeMap<CanonCode, usize> {
    let g = Graph::of_edges(db);
    if let Some(c) = colors {
        assert_eq!(c.len(), g.len(), "one color per node");
    }
    let mut census = BTreeMap::new();
    for i in 0..g.len() {
        *census.entry(r_type(&g, colors, i, r)).or_insert(0) += 1;
    }
    census
}

/// Full-census r-equivalence: both graphs realize every r-type the same
/// number of times (the "r-equivalent" of Claim 3 in Theorem 2 and of
/// Nurmonen's counting transfer).
pub fn census_equivalent(a: &Database, b: &Database, r: usize) -> bool {
    r_type_census(a, r) == r_type_census(b, r)
}

/// Threshold Hanf equivalence `≃_{d,m}` on colored graphs: for every
/// d-type, both graphs have the same number `< m` of realizers, or both
/// have ≥ m.
pub fn hanf_equivalent(
    a: &Database,
    colors_a: Option<&[u64]>,
    b: &Database,
    colors_b: Option<&[u64]>,
    d: usize,
    m: usize,
) -> bool {
    let ca = r_type_census_colored(a, colors_a, d);
    let cb = r_type_census_colored(b, colors_b, d);
    let empty = 0usize;
    for key in ca.keys().chain(cb.keys()) {
        let na = *ca.get(key).unwrap_or(&empty);
        let nb = *cb.get(key).unwrap_or(&empty);
        if na != nb && (na < m || nb < m) {
            return false;
        }
    }
    true
}

/// The FSV radius: census equivalence at `r = 3^k` implies `≡_k`
/// (Theorem 4.3 of Fagin–Stockmeyer–Vardi as invoked by the paper).
pub fn fsv_radius(k: usize) -> usize {
    3usize.pow(k as u32)
}

/// Sufficient condition for `A ≡_k B` via Hanf/FSV: equal r-type census at
/// radius `3^k`. (Sufficient, not necessary.)
pub fn census_implies_rank_equivalence(a: &Database, b: &Database, k: usize) -> bool {
    census_equivalent(a, b, fsv_radius(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ef;
    use vpdt_structure::families;

    #[test]
    fn chain_interior_nodes_share_types() {
        // in a long chain at r=1 there are 3 types: root, endpoint, interior
        let census = r_type_census(&families::chain(10), 1);
        assert_eq!(census.len(), 3);
        let counts: Vec<usize> = census.values().copied().collect();
        assert!(counts.contains(&8)); // 8 interior nodes
    }

    #[test]
    fn gnn_vs_gnm_census_matches_paper_claim() {
        // Claim 3 of Theorem 2: for every r and n > 2r+1, G_{n,n} and
        // G_{n−1,n+1} have the same number of neighborhoods of each r-type.
        for r in 1..=3usize {
            let n = 2 * r + 2; // the smallest n allowed by the claim
            assert!(
                census_equivalent(&families::gnm(n, n), &families::gnm(n - 1, n + 1), r),
                "census differs at r={r}, n={n}"
            );
        }
    }

    #[test]
    fn gnn_vs_gnm_census_differs_when_n_small() {
        // For n ≤ 2r+1 the branches are short enough for the root or leaf
        // types to differ.
        let r = 2;
        let n = 3; // < 2r+2
        assert!(!census_equivalent(
            &families::gnm(n, n),
            &families::gnm(n - 1, n + 1),
            r
        ));
    }

    #[test]
    fn hanf_transfer_grounds_ef_equivalence() {
        // census-equivalence at radius 3^k indeed yields ≡_k on an example
        // pair (validated against the exact EF engine).
        let k = 1usize;
        let n = 2 * fsv_radius(k) + 2;
        let a = families::gnm(n, n);
        let b = families::gnm(n - 1, n + 1);
        assert!(census_implies_rank_equivalence(&a, &b, k));
        assert!(ef::duplicator_wins(&a, &b, k), "FSV transfer violated");
    }

    #[test]
    fn cycles_vs_two_cycles_have_equal_census() {
        // C_{2n} and C_n ⊎ C_n: all nodes look alike locally — equal census
        // at any radius (the FSV example the paper cites for monadic Σ¹₁).
        for r in 1..=4usize {
            assert!(census_equivalent(
                &families::cycle(24),
                &families::two_cycles(12, 12),
                r
            ));
        }
        // …until the radius lets a ball wrap around the smaller cycles:
        assert!(!census_equivalent(
            &families::cycle(12),
            &families::two_cycles(6, 6),
            3
        ));
    }

    #[test]
    fn threshold_equivalence() {
        // chains 10 vs 14: same types; interior counts 8 vs 12, both ≥ m=5
        assert!(hanf_equivalent(
            &families::chain(10),
            None,
            &families::chain(14),
            None,
            1,
            5
        ));
        // with m = 10 the interior counts 8 vs 12 disagree below threshold
        assert!(!hanf_equivalent(
            &families::chain(10),
            None,
            &families::chain(14),
            None,
            1,
            10
        ));
    }

    #[test]
    fn colors_split_types() {
        let db = families::chain(6);
        let n = db.domain_size();
        let uniform = vec![0u64; n];
        let mut split = vec![0u64; n];
        split[3] = 1;
        let cu = r_type_census_colored(&db, Some(&uniform), 1);
        let cs = r_type_census_colored(&db, Some(&split), 1);
        assert!(cs.len() > cu.len());
    }
}
