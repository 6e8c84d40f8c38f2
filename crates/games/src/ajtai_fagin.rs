//! The (c,k) Ajtai–Fagin game for monadic Σ¹₁, specialized to the class
//! `G = {G_{n,n}}` versus `Tree − G` — the heart of Theorem 3's proof that
//! no same-generation query is verifiable over monadic Σ¹₁.
//!
//! The game (after \[16\], as quoted in the paper):
//!
//! 1. the duplicator selects `G ∈ G`;
//! 2. the spoiler colors the nodes of `G` with `c` colors;
//! 3. the duplicator selects `G′ ∈ Tree − G` and colors it;
//! 4. they play `k` rounds of the EF game on the colored graphs.
//!
//! [`duplicator_round`] implements the paper's winning strategy verbatim:
//! pick `n` large, partition the internal nodes of one branch by the
//! isomorphism type of their colored d-neighborhoods, apply **Lemma 4** to
//! find two same-type nodes `a, b` whose intermediate types are plentiful,
//! and *collapse* the segment `(a, b]` to produce `G′ = G_{n−j,n}`. The
//! construction guarantees `G₁ ≃_{d,m} G₂`, which by Claim 1
//! (Fagin–Stockmeyer–Vardi for bounded-degree trees) wins the k-round EF
//! game. Both facts are machine-checked here: the Hanf check always, the EF
//! game on demand for small parameters.

use crate::hanf::{hanf_equivalent, r_type};
use crate::lemma4::{find_witness, paper_bound};
use rand::Rng;
use std::collections::BTreeMap;
use vpdt_logic::Elem;
use vpdt_structure::iso::CanonCode;
use vpdt_structure::{families, Database, Graph};

/// Parameters of the duplicator strategy: number of colors `c` and the
/// Hanf parameters `(d, m)` supplied by Claim 1 for the target rank `k`.
#[derive(Clone, Copy, Debug)]
pub struct AfParams {
    /// Number of colors available to the spoiler.
    pub c: usize,
    /// Neighborhood radius from Claim 1.
    pub d: usize,
    /// Multiplicity threshold from Claim 1.
    pub m: usize,
}

impl AfParams {
    /// The `l` of the proof: an upper bound on the number of isomorphism
    /// types of colored d-neighborhoods of internal chain nodes — one per
    /// coloring of a (2d+1)-node path, i.e. `c^(2d+1)`.
    pub fn type_bound(&self) -> u64 {
        (self.c as u64).pow(2 * self.d as u32 + 1)
    }

    /// The `n` the paper's strategy uses: `N[m, l] + 2(d+1) + 1` with the
    /// explicit Lemma 4 bound. Usually astronomically safe; see
    /// [`duplicator_round`]'s `n_override` for small demonstrations.
    pub fn safe_n(&self) -> u64 {
        paper_bound(self.m as u64, self.type_bound()) + 2 * (self.d as u64 + 1) + 1
    }
}

/// The transcript of one round of the game played with the paper's
/// duplicator strategy.
#[derive(Clone, Debug)]
pub struct AfTranscript {
    /// Branch length of the duplicator's `G_{n,n}`.
    pub n: usize,
    /// Step-1 graph `G₁ = G_{n,n}`.
    pub g1: Database,
    /// Spoiler's coloring of `G₁` (indexed in sorted-domain order).
    pub colors1: Vec<u64>,
    /// Step-3 graph `G₂ = G_{n−j,n}` (collapsed), in `Tree − G`.
    pub g2: Database,
    /// Duplicator's inherited coloring of `G₂`.
    pub colors2: Vec<u64>,
    /// The collapsed same-type nodes `(a, b)` found via Lemma 4.
    pub collapsed: (Elem, Elem),
    /// Whether `G₁ ≃_{d,m} G₂` was verified (the strategy's guarantee).
    pub hanf_ok: bool,
}

/// Errors from the duplicator strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AfError {
    /// The coloring used more than `c` colors.
    TooManyColors,
    /// No Lemma 4 witness at this `n` (only possible when `n` is below the
    /// safe bound).
    NoWitness,
}

/// Plays steps 1–3 of the game with the paper's duplicator strategy against
/// the given spoiler coloring. `n_override` replaces the (astronomical)
/// safe bound for small demonstrations; correctness is then re-checked via
/// the Hanf test rather than assumed.
pub fn duplicator_round(
    params: AfParams,
    n_override: Option<usize>,
    spoiler: &dyn Fn(&Database) -> Vec<u64>,
) -> Result<AfTranscript, AfError> {
    let n = n_override
        .unwrap_or_else(|| usize::try_from(params.safe_n()).expect("safe n fits in usize"));
    let d = params.d;
    let m = params.m;
    assert!(n > 2 * (d + 1), "n too small for internal nodes to exist");

    // Step 1–2: G₁ = G_{n,n}, spoiler colors it.
    let g1 = families::gnm(n, n);
    let colors1 = spoiler(&g1);
    let view = Graph::of_edges(&g1);
    assert_eq!(colors1.len(), view.len(), "coloring must cover every node");
    if colors1.iter().any(|&c| c >= params.c as u64) {
        return Err(AfError::TooManyColors);
    }

    // Internal nodes of the first branch: ids d+1 ..= n−d−1 (distance ≥ d+1
    // from root and leaf), in branch order. (Node ids in `gnm`: root 0,
    // first branch 1..=n, second branch n+1..=n+m.)
    let internal: Vec<u64> = (d as u64 + 1..=(n - d - 1) as u64).collect();
    if internal.is_empty() {
        return Err(AfError::NoWitness);
    }

    // Partition internal nodes by the isomorphism type of their colored
    // d-neighborhoods.
    let mut class_ids: BTreeMap<CanonCode, usize> = BTreeMap::new();
    let classes: Vec<usize> = internal
        .iter()
        .map(|&id| {
            let idx = view.index_of(Elem(id)).expect("internal node exists");
            let code = r_type(&view, Some(&colors1), idx, d);
            let next = class_ids.len();
            *class_ids.entry(code).or_insert(next)
        })
        .collect();

    // Lemma 4: find a, b in the same class with plentiful types in between.
    let w = find_witness(&classes, m).ok_or(AfError::NoWitness)?;
    let a = internal[w.i1];
    let b = internal[w.i2];

    // Step 3: collapse b to a — remove nodes a+1..=b, reconnect a → b+1.
    // The result is G_{n−j, n} with j = b−a ≥ 1, a tree not in G.
    let mut g2 = Database::graph([]);
    let removed = |x: u64| x > a && x <= b;
    for node in g1.domain() {
        if !removed(node.0) {
            g2.add_domain_elem(*node);
        }
    }
    for (x, y) in g1.edges() {
        if removed(x.0) || removed(y.0) {
            continue;
        }
        g2.insert("E", vec![x, y]);
    }
    g2.insert("E", vec![Elem(a), Elem(b + 1)]);

    // Inherited coloring, in g2's sorted-domain order.
    let g1_nodes: Vec<Elem> = g1.domain().iter().copied().collect();
    let color_of: BTreeMap<Elem, u64> = g1_nodes
        .iter()
        .zip(colors1.iter())
        .map(|(e, c)| (*e, *c))
        .collect();
    let colors2: Vec<u64> = g2.domain().iter().map(|e| color_of[e]).collect();

    let hanf_ok = hanf_equivalent(&g1, Some(&colors1), &g2, Some(&colors2), d, m);
    Ok(AfTranscript {
        n,
        g1,
        colors1,
        g2,
        colors2,
        collapsed: (Elem(a), Elem(b)),
        hanf_ok,
    })
}

/// Like [`duplicator_round`], but grows `n` (doubling from `start_n`, up to
/// `max_n`) until the Lemma 4 witness exists — the executable version of
/// the proof's "the duplicator selects `G_{n,n}` where `n > N + 2(d+1)`"
/// without paying the full explicit bound.
pub fn duplicator_round_growing(
    params: AfParams,
    start_n: usize,
    max_n: usize,
    spoiler: &dyn Fn(&Database) -> Vec<u64>,
) -> Result<AfTranscript, AfError> {
    let mut n = start_n;
    loop {
        match duplicator_round(params, Some(n), spoiler) {
            Err(AfError::NoWitness) if n < max_n => n = (n * 2).min(max_n),
            other => return other,
        }
    }
}

/// Encodes a colored graph as a database over `{E/2, C0/1, …, C(c−1)/1}`
/// so the step-4 EF game can be played by [`crate::ef`].
pub fn colored_database(db: &Database, colors: &[u64], c: usize) -> Database {
    let schema = db
        .schema()
        .extended((0..c).map(|i| (format!("C{i}"), 1usize)));
    let mut out = db.with_schema(schema);
    for (e, col) in db.domain().iter().zip(colors.iter()) {
        out.insert(&format!("C{col}"), vec![*e]);
    }
    out
}

/// A spoiler that colors nodes uniformly at random.
pub fn random_spoiler(c: usize, seed: u64) -> impl Fn(&Database) -> Vec<u64> {
    move |db: &Database| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..db.domain_size())
            .map(|_| rng.gen_range(0..c as u64))
            .collect()
    }
}

/// A spoiler that colors node `i` (in sorted order) with `i mod c` — the
/// "striped" coloring that maximizes local type diversity along a chain.
pub fn striped_spoiler(c: usize) -> impl Fn(&Database) -> Vec<u64> {
    move |db: &Database| (0..db.domain_size()).map(|i| (i % c) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ef;

    #[test]
    fn type_and_n_bounds() {
        let p = AfParams { c: 2, d: 1, m: 2 };
        assert_eq!(p.type_bound(), 8);
        assert!(p.safe_n() > 8);
    }

    #[test]
    fn strategy_beats_striped_spoiler() {
        let params = AfParams { c: 2, d: 1, m: 2 };
        let t = duplicator_round(params, Some(40), &striped_spoiler(2))
            .expect("strategy succeeds at n=40");
        assert!(t.hanf_ok, "G1 and G2 must be (d,m)-Hanf equivalent");
        // G2 is a tree but not a G_{n,n}
        let g2 = Graph::of_edges(&t.g2);
        assert!(g2.is_tree());
        assert_eq!(
            t.g2.domain_size(),
            t.g1.domain_size() - (t.collapsed.1 .0 - t.collapsed.0 .0) as usize
        );
    }

    #[test]
    fn strategy_beats_random_spoilers() {
        let params = AfParams { c: 3, d: 1, m: 2 };
        for seed in 0..5u64 {
            let t = duplicator_round_growing(params, 60, 4000, &random_spoiler(3, seed))
                .expect("strategy succeeds for n large enough");
            assert!(t.hanf_ok, "seed {seed}");
        }
    }

    #[test]
    fn collapsed_graph_wins_small_ef_game() {
        // With tiny parameters the full step-4 game is checkable: the
        // duplicator wins 1 round on the colored structures.
        let params = AfParams { c: 2, d: 1, m: 2 };
        let t = duplicator_round(params, Some(24), &striped_spoiler(2)).expect("strategy succeeds");
        assert!(t.hanf_ok);
        let a = colored_database(&t.g1, &t.colors1, 2);
        let b = colored_database(&t.g2, &t.colors2, 2);
        assert!(
            ef::duplicator_wins(&a, &b, 1),
            "1-round EF on colored graphs"
        );
    }

    #[test]
    fn too_small_n_fails_gracefully() {
        let params = AfParams { c: 2, d: 1, m: 5 };
        // with only a few internal nodes there is no Lemma 4 witness
        let r = duplicator_round(params, Some(9), &striped_spoiler(2));
        assert_eq!(r.unwrap_err(), AfError::NoWitness);
    }

    #[test]
    fn color_budget_is_enforced() {
        let params = AfParams { c: 2, d: 1, m: 2 };
        let r = duplicator_round(params, Some(24), &striped_spoiler(5));
        assert_eq!(r.unwrap_err(), AfError::TooManyColors);
    }
}
