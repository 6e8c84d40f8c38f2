//! Databases: finite interpretations of a relational schema.
//!
//! Relations are stored behind individual [`Arc`]s: ordinary mutation is
//! copy-on-write (`Arc::make_mut`), while a versioned store merging two
//! states with disjoint write footprints can swap whole relations by
//! pointer ([`Database::rel_handle`] / [`Database::set_rel_handle`])
//! instead of rebuilding the database tuple-by-tuple. Each relation also
//! maintains its active domain incrementally (an occurrence-counted element
//! map), and the database-level domain can defer to those caches: a
//! normalized database ([`Database::shrink_domain_to_active`]) carries the
//! *promise* that its domain is the active domain, materializing the flat
//! set only on first read — so re-normalizing after a merge (or after any
//! transaction) is O(1), and the O(distinct elements) set construction is
//! paid at most once per state, by its first reader.
//!
//! Removal keeps that promise lazy too. Removing a tuple never shrinks the
//! domain, so the elements of a removed tuple must stay in it even when no
//! tuple holds them any more; a deferred domain records them in a small
//! *pinned* set (domain = active domain ∪ pinned) instead of materializing
//! the flat set. A one-tuple delete therefore costs O(tuple), not
//! O(distinct elements), and the normalization after it drops the pins in
//! O(1). Cloning a database copies one `Vec` of relation handles: the
//! [`Schema`] is a shared handle and an unread domain holds no set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};
use vpdt_logic::{Elem, Schema};

/// A finite relation: a set of tuples of fixed arity over `U`.
///
/// `adom` caches the active domain as occurrence counts and `content`
/// caches a commutative content hash; both are derived data (pure
/// functions of `tuples`), so the derived `Eq`/`Ord` over all fields
/// remain consistent with tuple-set identity.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Vec<Elem>>,
    adom: BTreeMap<Elem, u32>,
    /// XOR of every tuple's [`tuple_hash`] — maintained incrementally
    /// (O(tuple) per mutation, XOR being its own inverse), so a state
    /// commitment over the relation never rescans the tuple set.
    content: u64,
}

/// FNV-1a over the tuple's elements in 8-byte little-endian encoding —
/// the per-tuple unit of [`Relation::content_hash`].
fn tuple_hash(tuple: &[Elem]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in tuple {
        for b in e.0.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            tuples: BTreeSet::new(),
            adom: BTreeMap::new(),
            content: 0,
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple. Returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on an arity mismatch (a programming error).
    pub fn insert(&mut self, tuple: Vec<Elem>) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if self.tuples.contains(&tuple) {
            return false;
        }
        for e in &tuple {
            *self.adom.entry(*e).or_insert(0) += 1;
        }
        self.content ^= tuple_hash(&tuple);
        self.tuples.insert(tuple)
    }

    /// Removes a tuple. Returns `true` if it was present.
    pub fn remove(&mut self, tuple: &[Elem]) -> bool {
        let removed = self.tuples.remove(tuple);
        if removed {
            for e in tuple {
                match self.adom.get_mut(e) {
                    Some(n) if *n > 1 => *n -= 1,
                    Some(_) => {
                        self.adom.remove(e);
                    }
                    None => unreachable!("adom undercount for {e}"),
                }
            }
            self.content ^= tuple_hash(tuple);
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Elem]) -> bool {
        self.tuples.contains(tuple)
    }

    /// Iterates over tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Elem>> {
        self.tuples.iter()
    }

    /// The tuples whose leading positions equal `prefix`, in sorted order:
    /// a `BTreeSet` range seeked directly to `prefix` (slices order
    /// lexicographically, so every extension of `prefix` sits in one
    /// contiguous run starting there), with no allocation. Cost is
    /// O(log |R| + matches). An empty prefix yields every tuple. Callers
    /// whose fixed positions are not a leading prefix range over the
    /// leading part they do fix and filter the rest.
    pub fn prefix_range<'a>(&'a self, prefix: &'a [Elem]) -> impl Iterator<Item = &'a Vec<Elem>> {
        self.tuples
            .range::<[Elem], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |t| t.starts_with(prefix))
    }

    /// All elements appearing in some tuple. Served from the incremental
    /// cache: O(distinct elements), not O(tuples).
    pub fn active_domain(&self) -> BTreeSet<Elem> {
        self.adom.keys().copied().collect()
    }

    /// The relation's content commitment: the XOR of the FNV-1a hash of
    /// every tuple (elements in 8-byte little-endian). A pure,
    /// order-independent function of the tuple set, maintained
    /// incrementally by [`insert`](Relation::insert) and
    /// [`remove`](Relation::remove) — reading it is O(1) however many
    /// tuples are resident, which is what lets a versioned store commit a
    /// state commitment over only the relations a transaction touched.
    pub fn content_hash(&self) -> u64 {
        self.content
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, e) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{e}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

/// A database over a schema: a finite domain `⊆ U` plus an interpretation of
/// every relation symbol as a finite relation over that domain.
///
/// ```
/// use vpdt_structure::{Database, Elem};
/// let mut db = Database::graph([(0, 1), (1, 2)]);
/// assert_eq!(db.domain_size(), 3);
/// db.insert("E", vec![Elem(2), Elem(0)]);
/// assert!(db.contains("E", &[Elem(2), Elem(0)]));
/// ```
///
/// The domain is always a superset of the active domain (the set of elements
/// occurring in tuples); inserting a tuple automatically extends the domain.
/// First-sort quantifiers of the specification languages range over the
/// domain (see `vpdt-eval`).
///
/// Internally the domain has two representations. `Explicit` stores the set
/// outright (needed when the domain strictly exceeds the active domain, e.g.
/// isolated graph nodes added by hand). `Active` records only *"the domain
/// is the active domain, plus the elements removals pinned"* and
/// materializes the flat set lazily, on first read, from the relations'
/// incrementally-maintained caches — so
/// [`Database::shrink_domain_to_active`] (and hence every transaction's
/// output normalization and every disjoint commit merge in the versioned
/// store) is O(1) instead of O(distinct elements). States that are never
/// read as a whole — intermediate program steps, overwritten versions —
/// never pay for the set at all.
#[derive(Clone)]
pub struct Database {
    schema: Schema,
    domain: DomainRepr,
    rels: Vec<Arc<Relation>>,
}

/// How the domain is held: an explicit set, or the deferred promise that it
/// equals the union of the relations' active domains and `pinned`.
#[derive(Clone, Debug)]
enum DomainRepr {
    Explicit(BTreeSet<Elem>),
    /// `domain = active domain ∪ pinned` over the current relations.
    /// `cell` caches the materialized set once some reader asks for it;
    /// from then on the cached set is the domain and `pinned` is no longer
    /// extended. `pinned` holds the elements of tuples removed while the
    /// set was unmaterialized (empty after every normalization).
    Active {
        cell: OnceLock<BTreeSet<Elem>>,
        pinned: BTreeSet<Elem>,
    },
}

/// Equality compares the *contents*: schema, relations, and the (possibly
/// lazily materialized) domain. Two databases whose domains are held in
/// different representations but denote the same set are equal.
impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rels == other.rels && self.domain() == other.domain()
    }
}

impl Eq for Database {}

impl Database {
    /// An empty database (empty domain, all relations empty).
    pub fn empty(schema: Schema) -> Self {
        let rels = schema
            .rels()
            .iter()
            .map(|r| Arc::new(Relation::empty(r.arity)))
            .collect();
        Database {
            schema,
            domain: DomainRepr::Explicit(BTreeSet::new()),
            rels,
        }
    }

    /// A graph (schema `{E/2}`) with the given edges; the domain is the set
    /// of endpoints.
    pub fn graph(edges: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut db = Database::empty(Schema::graph());
        for (a, b) in edges {
            db.insert("E", vec![Elem(a), Elem(b)]);
        }
        db
    }

    /// A graph with an explicit node set (which may include isolated nodes).
    pub fn graph_with_domain(
        nodes: impl IntoIterator<Item = u64>,
        edges: impl IntoIterator<Item = (u64, u64)>,
    ) -> Self {
        let mut db = Database::graph(edges);
        for n in nodes {
            db.add_domain_elem(Elem(n));
        }
        db
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The finite domain. For a database whose domain is the active domain
    /// (the normalized output of every transaction), the flat set is
    /// materialized on first read and cached; until then the state carries
    /// no domain set at all.
    pub fn domain(&self) -> &BTreeSet<Elem> {
        match &self.domain {
            DomainRepr::Explicit(set) => set,
            DomainRepr::Active { cell, pinned } => cell.get_or_init(|| {
                let mut set = self.active_domain();
                set.extend(pinned);
                set
            }),
        }
    }

    /// Whether `e` is in the domain, without materializing a deferred
    /// active-domain view: an explicit or already materialized set answers
    /// directly, and an unread view probes its pinned elements and then
    /// each relation's incremental active-domain cache — O(relations × log
    /// distinct elements) instead of the O(distinct elements) set
    /// construction [`domain`](Database::domain) would pay on a fresh
    /// state. The evaluator's equality candidates (`∃x. x = c`) rely on it.
    pub fn domain_contains(&self, e: &Elem) -> bool {
        match &self.domain {
            DomainRepr::Explicit(set) => set.contains(e),
            DomainRepr::Active { cell, pinned } => match cell.get() {
                Some(set) => set.contains(e),
                None => pinned.contains(e) || self.in_active_domain(e),
            },
        }
    }

    /// Whether `e` occurs in some tuple: a probe of each relation's
    /// active-domain cache.
    fn in_active_domain(&self, e: &Elem) -> bool {
        self.rels.iter().any(|r| r.adom.contains_key(e))
    }

    /// The domain as an explicit, mutable set — materializing it first if it
    /// is currently the deferred active-domain view.
    fn domain_mut(&mut self) -> &mut BTreeSet<Elem> {
        if let DomainRepr::Active { .. } = &self.domain {
            self.domain = DomainRepr::Explicit(self.domain().clone());
        }
        match &mut self.domain {
            DomainRepr::Explicit(set) => set,
            DomainRepr::Active { .. } => unreachable!("just materialized"),
        }
    }

    /// Number of domain elements.
    pub fn domain_size(&self) -> usize {
        self.domain().len()
    }

    /// The active domain: elements occurring in at least one tuple. Served
    /// from the relations' incremental caches — O(relations × distinct
    /// elements), independent of the tuple count.
    pub fn active_domain(&self) -> BTreeSet<Elem> {
        let mut out = BTreeSet::new();
        for r in &self.rels {
            out.extend(r.active_domain());
        }
        out
    }

    /// Adds an element to the domain (it may remain isolated).
    pub fn add_domain_elem(&mut self, e: Elem) -> bool {
        self.domain_mut().insert(e)
    }

    /// The domain elements occurring in **no** tuple — what the domain
    /// holds beyond the active domain (isolated nodes, elements pinned by
    /// a removal). On a deferred domain whose flat set is not materialized
    /// this is the pinned elements no tuple holds any more, answered
    /// without materializing anything: O(pinned × relations), and O(1)
    /// for a freshly normalized database
    /// ([`shrink_domain_to_active`](Database::shrink_domain_to_active)),
    /// which pins nothing — the versioned store's commit path relies on
    /// that, since every transaction output is normalized.
    pub fn domain_excess(&self) -> BTreeSet<Elem> {
        let set = match &self.domain {
            DomainRepr::Active { cell, pinned } => match cell.get() {
                None => {
                    return pinned
                        .iter()
                        .filter(|e| !self.in_active_domain(e))
                        .copied()
                        .collect()
                }
                Some(set) => set,
            },
            DomainRepr::Explicit(set) => set,
        };
        let active = self.active_domain();
        set.difference(&active).copied().collect()
    }

    /// Restricts the domain to the active domain, dropping isolated
    /// elements and whatever removals pinned. O(1) apart from dropping the
    /// old set: the flat set is not rebuilt here — the domain merely
    /// switches to the deferred active-domain view with nothing pinned, and
    /// materializes from the relations' cached domains only if someone
    /// reads it.
    pub fn shrink_domain_to_active(&mut self) {
        self.domain = DomainRepr::Active {
            cell: OnceLock::new(),
            pinned: BTreeSet::new(),
        };
    }

    /// The relation interpreting `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the schema.
    pub fn rel(&self, name: &str) -> &Relation {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        &self.rels[i]
    }

    /// Inserts a tuple into `name`, extending the domain with its elements.
    ///
    /// O(tuple) on either domain representation: inserting keeps
    /// "domain = active domain" true, so a deferred view stays deferred
    /// (its cached set, if some reader already materialized it, is
    /// extended in place) instead of being pinned to an explicit set.
    ///
    /// # Panics
    /// Panics if `name` is not in the schema or on arity mismatch.
    pub fn insert(&mut self, name: &str, tuple: Vec<Elem>) -> bool {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        let cached = match &mut self.domain {
            DomainRepr::Explicit(set) => Some(set),
            DomainRepr::Active { cell, .. } => cell.get_mut(),
        };
        if let Some(set) = cached {
            set.extend(tuple.iter().copied());
        }
        Arc::make_mut(&mut self.rels[i]).insert(tuple)
    }

    /// Removes a tuple from `name` (the domain is left unchanged).
    ///
    /// O(tuple) on either domain representation, and an absent tuple does
    /// not unshare the relation. Removal must leave the domain as it was,
    /// but a deferred active-domain view read *after* the removal would
    /// miss the removed elements, so a view whose flat set is not yet
    /// materialized pins them lazily (the domain becomes active domain ∪
    /// pinned) instead of materializing the whole set. A materialized set
    /// already holds them, and an explicit one is left alone.
    ///
    /// # Panics
    /// Panics if `name` is not in the schema.
    pub fn remove(&mut self, name: &str, tuple: &[Elem]) -> bool {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        if !self.rels[i].contains(tuple) {
            return false;
        }
        if let DomainRepr::Active { cell, pinned } = &mut self.domain {
            if cell.get().is_none() {
                pinned.extend(tuple.iter().copied());
            }
        }
        Arc::make_mut(&mut self.rels[i]).remove(tuple)
    }

    /// The relation at position `i` of the schema ([`Schema::index_of`]):
    /// what a formula compiled against the schema reads, with no name
    /// lookup.
    ///
    /// # Panics
    /// Panics if `i` is not a position of the schema.
    pub fn rel_at(&self, i: usize) -> &Relation {
        &self.rels[i]
    }

    /// The relations in schema declaration order, positionally aligned with
    /// [`schema().rels()`](Schema::rels): a walk over every relation that
    /// needs no name lookup.
    pub fn relations(&self) -> impl ExactSizeIterator<Item = &Relation> {
        self.rels.iter().map(|r| &**r)
    }

    /// The shared handle of one relation (cheap: clones an `Arc`). Together
    /// with [`Database::set_rel_handle`] this is the pointer-swap merge
    /// path of the versioned store: a commit whose write footprint is
    /// disjoint from the in-flight state takes unwritten relations from the
    /// current version by handle instead of re-inserting their tuples.
    ///
    /// # Panics
    /// Panics if `name` is not in the schema.
    pub fn rel_handle(&self, name: &str) -> Arc<Relation> {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        Arc::clone(&self.rels[i])
    }

    /// Replaces one relation by a shared handle (O(1), no tuple copies).
    /// The domain is *not* adjusted here — callers compose swaps and then
    /// call [`Database::shrink_domain_to_active`] once (which is itself
    /// O(1): the merged domain is derived lazily from the swapped-in
    /// relations' cached active domains). Note that if the domain is
    /// already the deferred active-domain view and has not been read yet,
    /// a read between swaps observes the current relations.
    ///
    /// # Panics
    /// Panics if `name` is not in the schema or the arity mismatches.
    pub fn set_rel_handle(&mut self, name: &str, rel: Arc<Relation>) {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        assert_eq!(
            rel.arity(),
            self.rels[i].arity(),
            "arity mismatch swapping {name}"
        );
        self.rels[i] = rel;
    }

    /// Whether two databases share the same relation object for `name`
    /// (pointer equality — for tests asserting the swap really is a swap).
    pub fn shares_rel(&self, other: &Database, name: &str) -> bool {
        let i = self
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        let j = other
            .schema
            .index_of(name)
            .unwrap_or_else(|| panic!("relation {name} not in schema"));
        Arc::ptr_eq(&self.rels[i], &other.rels[j])
    }

    /// Whether `tuple ∈ name`.
    pub fn contains(&self, name: &str, tuple: &[Elem]) -> bool {
        self.rel(name).contains(tuple)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.iter().map(|r| r.len()).sum()
    }

    /// Edges of the binary relation `E` as pairs (convenience for graphs).
    ///
    /// # Panics
    /// Panics if `E` is absent or not binary.
    pub fn edges(&self) -> Vec<(Elem, Elem)> {
        let r = self.rel("E");
        assert_eq!(r.arity(), 2, "E must be binary");
        r.iter().map(|t| (t[0], t[1])).collect()
    }

    /// Applies a permutation of `U` to the whole database (domain and all
    /// tuples). Used to test *genericity* — invariance under permutations of
    /// the universe (Section 4).
    pub fn permuted(&self, pi: &dyn Fn(Elem) -> Elem) -> Database {
        let mut out = Database::empty(self.schema.clone());
        for e in self.domain() {
            out.add_domain_elem(pi(*e));
        }
        for (rel, store) in self.schema.rels().iter().zip(&self.rels) {
            for t in store.iter() {
                out.insert(&rel.name, t.iter().map(|e| pi(*e)).collect());
            }
        }
        out
    }

    /// A database with the same relations interpreted over an extended
    /// schema (extra relations start empty). Used to evaluate monadic Σ¹₁
    /// matrices and Datalog programs.
    pub fn with_schema(&self, schema: Schema) -> Database {
        let mut out = Database::empty(schema);
        for (rel, store) in self.schema.rels().iter().zip(&self.rels) {
            assert_eq!(
                out.schema.arity_of(&rel.name),
                Some(rel.arity),
                "extended schema must preserve {}",
                rel.name
            );
            for t in store.iter() {
                out.insert(&rel.name, t.clone());
            }
        }
        // inserting extended the domain, but the source's was already complete
        out.domain = DomainRepr::Explicit(self.domain().clone());
        out
    }

    /// A stable, human-readable encoding of the database. Transaction
    /// languages in the paper are formalized as recursive functions on such
    /// encodings (Section 2); [`Database::decode`] inverts it.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        self.encode_to(&mut s)
            .expect("writing to a String cannot fail");
        s
    }

    /// Streams the [`encode`](Database::encode) bytes into any
    /// [`fmt::Write`] sink without building intermediate strings — a
    /// hasher can consume the whole encoding allocation-free.
    pub fn encode_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("dom:")?;
        for (i, e) in self.domain().iter().enumerate() {
            if i > 0 {
                out.write_char(',')?;
            }
            write!(out, "{}", e.0)?;
        }
        for (rel, store) in self.schema.rels().iter().zip(&self.rels) {
            write!(out, ";{}:", rel.name)?;
            for (i, t) in store.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                for (j, e) in t.iter().enumerate() {
                    if j > 0 {
                        out.write_char(' ')?;
                    }
                    write!(out, "{}", e.0)?;
                }
            }
        }
        Ok(())
    }

    /// Parses the encoding produced by [`Database::encode`] against a schema.
    pub fn decode(schema: Schema, s: &str) -> Result<Database, String> {
        let mut db = Database::empty(schema);
        for (i, part) in s.split(';').enumerate() {
            let (name, body) = part
                .split_once(':')
                .ok_or_else(|| format!("missing `:` in segment {i}"))?;
            if i == 0 {
                if name != "dom" {
                    return Err("first segment must be dom".into());
                }
                for e in body.split(',').filter(|x| !x.is_empty()) {
                    let v: u64 = e.parse().map_err(|_| format!("bad element {e}"))?;
                    db.add_domain_elem(Elem(v));
                }
            } else {
                for t in body.split(',').filter(|x| !x.is_empty()) {
                    let tuple: Result<Vec<Elem>, String> = t
                        .split_whitespace()
                        .map(|e| {
                            e.parse::<u64>()
                                .map(Elem)
                                .map_err(|_| format!("bad element {e}"))
                        })
                        .collect();
                    db.insert(name, tuple?);
                }
            }
        }
        Ok(db)
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Database(dom={:?}", self.domain())?;
        for (rel, store) in self.schema.rels().iter().zip(&self.rels) {
            write!(f, ", {}={:?}", rel.name, store)?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_extends_domain() {
        let mut db = Database::empty(Schema::graph());
        db.insert("E", vec![Elem(1), Elem(2)]);
        assert_eq!(db.domain().len(), 2);
        assert!(db.contains("E", &[Elem(1), Elem(2)]));
        assert!(!db.contains("E", &[Elem(2), Elem(1)]));
    }

    #[test]
    fn domain_can_exceed_active_domain() {
        let db = Database::graph_with_domain([1, 2, 3], [(1, 2)]);
        assert_eq!(db.domain_size(), 3);
        assert_eq!(db.active_domain().len(), 2);
    }

    #[test]
    fn permutation_preserves_structure() {
        let db = Database::graph([(1, 2), (2, 3)]);
        let swapped = db.permuted(&|e| match e.0 {
            1 => Elem(10),
            2 => Elem(20),
            3 => Elem(30),
            other => Elem(other),
        });
        assert!(swapped.contains("E", &[Elem(10), Elem(20)]));
        assert!(swapped.contains("E", &[Elem(20), Elem(30)]));
        assert_eq!(swapped.total_tuples(), 2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let db = Database::graph_with_domain([5], [(1, 2), (2, 2)]);
        let s = db.encode();
        let back = Database::decode(Schema::graph(), &s).expect("decodes");
        assert_eq!(db, back);
    }

    #[test]
    fn with_schema_keeps_relations_and_domain() {
        let db = Database::graph_with_domain([9], [(1, 2)]);
        let ext = db.with_schema(Schema::graph().extended([("A", 1)]));
        assert!(ext.contains("E", &[Elem(1), Elem(2)]));
        assert!(ext.rel("A").is_empty());
        assert_eq!(ext.domain(), db.domain());
    }

    #[test]
    fn relation_arity_enforced() {
        let mut r = Relation::empty(2);
        assert!(r.insert(vec![Elem(1), Elem(2)]));
        assert!(!r.insert(vec![Elem(1), Elem(2)]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut r = Relation::empty(2);
        r.insert(vec![Elem(1)]);
    }

    /// The incremental active-domain cache stays exact across inserts,
    /// duplicate inserts, and removals (including repeated elements).
    #[test]
    fn active_domain_cache_is_exact() {
        let mut r = Relation::empty(2);
        let recompute = |r: &Relation| -> BTreeSet<Elem> { r.iter().flatten().copied().collect() };
        r.insert(vec![Elem(1), Elem(1)]);
        r.insert(vec![Elem(1), Elem(2)]);
        r.insert(vec![Elem(1), Elem(2)]); // duplicate: no double count
        assert_eq!(r.active_domain(), recompute(&r));
        r.remove(&[Elem(1), Elem(2)]);
        assert_eq!(r.active_domain(), recompute(&r));
        assert_eq!(r.active_domain(), BTreeSet::from([Elem(1)]));
        r.remove(&[Elem(1), Elem(1)]);
        assert!(r.active_domain().is_empty());
        // removing an absent tuple is a no-op on the cache
        r.insert(vec![Elem(3), Elem(4)]);
        r.remove(&[Elem(4), Elem(3)]);
        assert_eq!(r.active_domain(), BTreeSet::from([Elem(3), Elem(4)]));
    }

    /// The incremental content hash is a pure function of the tuple set:
    /// insertion order and intervening removals never matter, so equal
    /// relations hash equal (and derived `Eq` over the cached field stays
    /// consistent).
    #[test]
    fn content_hash_is_order_independent_and_exact() {
        let mut a = Relation::empty(2);
        a.insert(vec![Elem(1), Elem(2)]);
        a.insert(vec![Elem(3), Elem(4)]);
        let mut b = Relation::empty(2);
        b.insert(vec![Elem(3), Elem(4)]);
        b.insert(vec![Elem(5), Elem(6)]);
        b.remove(&[Elem(5), Elem(6)]);
        b.insert(vec![Elem(1), Elem(2)]);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a, b);
        // duplicate insert / absent removal leave the hash alone
        let h = a.content_hash();
        a.insert(vec![Elem(1), Elem(2)]);
        a.remove(&[Elem(9), Elem(9)]);
        assert_eq!(a.content_hash(), h);
        // element order within a tuple matters; emptying returns to 0
        let mut c = Relation::empty(2);
        c.insert(vec![Elem(2), Elem(1)]);
        assert_ne!(c.content_hash(), {
            let mut d = Relation::empty(2);
            d.insert(vec![Elem(1), Elem(2)]);
            d.content_hash()
        });
        a.remove(&[Elem(1), Elem(2)]);
        a.remove(&[Elem(3), Elem(4)]);
        assert_eq!(a.content_hash(), 0);
    }

    /// `domain_excess` names exactly the isolated elements, answers O(1)
    /// for a freshly normalized (unmaterialized) database, and reflects
    /// the pinned domain after removals.
    #[test]
    fn domain_excess_tracks_isolated_elements() {
        let mut db = Database::graph_with_domain([9], [(1, 2)]);
        assert_eq!(db.domain_excess(), BTreeSet::from([Elem(9)]));
        db.shrink_domain_to_active();
        assert!(db.domain_excess().is_empty()); // unmaterialized view
        let _ = db.domain(); // materialize the flat set
        assert!(db.domain_excess().is_empty());
        let mut d = Database::graph([(1, 2)]);
        d.remove("E", &[Elem(1), Elem(2)]);
        assert_eq!(d.domain_excess(), BTreeSet::from([Elem(1), Elem(2)]));
    }

    /// `shrink_domain_to_active` defers the flat set: the domain read back
    /// equals the recomputed active domain, stays correct across clones and
    /// handle swaps, and removal pins the pre-removal domain (removal never
    /// shrinks the domain).
    #[test]
    fn lazy_domain_view_is_transparent() {
        let mut db = Database::graph_with_domain([9], [(1, 2), (2, 3)]);
        assert_eq!(db.domain_size(), 4);
        db.shrink_domain_to_active();
        assert_eq!(db.domain(), &BTreeSet::from([Elem(1), Elem(2), Elem(3)]));
        // equality across representations
        let explicit = Database::graph_with_domain([1, 2, 3], [(1, 2), (2, 3)]);
        assert_eq!(db, explicit);
        // a clone of an unmaterialized view materializes independently
        let mut fresh = Database::graph([(1, 2), (2, 3)]);
        fresh.shrink_domain_to_active();
        let cloned = fresh.clone();
        assert_eq!(cloned.domain(), fresh.domain());
        // removal does not shrink the domain, even from the deferred view
        let mut d = Database::graph([(1, 2)]);
        d.shrink_domain_to_active();
        d.remove("E", &[Elem(1), Elem(2)]);
        assert_eq!(d.domain(), &BTreeSet::from([Elem(1), Elem(2)]));
        // ...and a subsequent shrink drops the now-isolated elements
        d.shrink_domain_to_active();
        assert!(d.domain().is_empty());
        // inserting through the deferred view extends correctly
        let mut i = Database::graph([(0, 1)]);
        i.shrink_domain_to_active();
        i.insert("E", vec![Elem(5), Elem(6)]);
        assert_eq!(
            i.domain(),
            &BTreeSet::from([Elem(0), Elem(1), Elem(5), Elem(6)])
        );
        // ...including into an already materialized cached set
        i.insert("E", vec![Elem(7), Elem(0)]);
        assert!(i.domain_excess().is_empty());
        assert_eq!(i.domain(), &i.active_domain());
        // insert, remove, shrink on a view no reader has materialized: the
        // insert keeps the view deferred, the removal pins the inserted
        // elements without materializing the view, and the shrink drops
        // what became isolated
        let mut v = Database::graph([(0, 1)]);
        v.shrink_domain_to_active();
        v.insert("E", vec![Elem(2), Elem(3)]);
        assert!(matches!(&v.domain, DomainRepr::Active { cell, .. } if cell.get().is_none()));
        assert!(v.domain_excess().is_empty());
        assert!(v.domain_contains(&Elem(3)) && !v.domain_contains(&Elem(4)));
        v.remove("E", &[Elem(2), Elem(3)]);
        assert!(
            matches!(&v.domain, DomainRepr::Active { cell, pinned } if cell.get().is_none() && pinned.len() == 2)
        );
        assert_eq!(v.domain_excess(), BTreeSet::from([Elem(2), Elem(3)]));
        assert!(v.domain_contains(&Elem(3)));
        v.shrink_domain_to_active();
        assert!(!v.domain_contains(&Elem(3)));
        assert_eq!(v.domain(), &BTreeSet::from([Elem(0), Elem(1)]));
    }

    /// `domain_contains` agrees with `domain().contains` on every
    /// representation, and answers a deferred view without materializing
    /// it.
    #[test]
    fn domain_contains_matches_the_domain() {
        let explicit = Database::graph_with_domain([9], [(1, 2)]);
        let mut deferred = Database::graph([(1, 2), (2, 3)]);
        deferred.shrink_domain_to_active();
        let materialized = deferred.clone();
        for e in (0..12).map(Elem) {
            assert_eq!(explicit.domain_contains(&e), explicit.domain().contains(&e));
            let probed = deferred.domain_contains(&e);
            assert!(
                matches!(&deferred.domain, DomainRepr::Active { cell, .. } if cell.get().is_none())
            );
            assert_eq!(probed, materialized.domain().contains(&e));
            assert_eq!(probed, materialized.domain_contains(&e));
        }
    }

    /// `prefix_range` yields exactly the tuples extending the prefix, for
    /// empty, partial and full prefixes, and nothing for an absent key.
    #[test]
    fn prefix_range_is_a_filtered_scan() {
        let mut r = Relation::empty(3);
        for t in [[1, 1, 1], [1, 2, 0], [1, 2, 5], [2, 0, 0], [0, 9, 9]] {
            r.insert(t.iter().copied().map(Elem).collect());
        }
        for prefix in [
            vec![],
            vec![1],
            vec![1, 2],
            vec![1, 2, 5],
            vec![3],
            vec![0, 8],
        ] {
            let prefix: Vec<Elem> = prefix.into_iter().map(Elem).collect();
            let ranged: Vec<_> = r.prefix_range(&prefix).collect();
            let scanned: Vec<_> = r.iter().filter(|t| t.starts_with(&prefix)).collect();
            assert_eq!(ranged, scanned, "prefix {prefix:?}");
        }
    }

    /// Relation handles swap by pointer, and copy-on-write keeps sharing
    /// observable but never lets mutation leak across databases.
    #[test]
    fn rel_handles_swap_by_pointer() {
        let a = Database::graph([(0, 1), (1, 2)]);
        let mut b = Database::graph([(7, 8)]);
        assert!(!a.shares_rel(&b, "E"));
        b.set_rel_handle("E", a.rel_handle("E"));
        assert!(a.shares_rel(&b, "E"));
        assert!(b.contains("E", &[Elem(0), Elem(1)]));
        b.shrink_domain_to_active();
        assert_eq!(b.domain(), a.domain());
        // mutating b unshares (copy-on-write); a is untouched
        b.insert("E", vec![Elem(9), Elem(9)]);
        assert!(!a.shares_rel(&b, "E"));
        assert!(!a.contains("E", &[Elem(9), Elem(9)]));
    }
}
