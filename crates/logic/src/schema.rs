//! Relational schemas.
//!
//! A relational schema `SC = (R₁, …, R_k)` is a non-empty set of relation
//! symbols with positive finite arities (Section 2 of the paper). Most of the
//! paper works over the schema of a single binary predicate `E` — graphs —
//! available as [`Schema::graph`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A relation symbol: a name together with its arity.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelSym {
    /// The relation's name.
    pub name: String,
    /// The relation's arity (number of columns), `> 0`.
    pub arity: usize,
}

impl fmt::Debug for RelSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// A relational schema: an ordered list of relation symbols with unique names.
///
/// Cloning shares one symbol table: the names and the name index sit
/// behind a single [`Arc`], so a clone (every `Database` clone makes one)
/// is a reference-count bump, not a copy of every name. Building a schema
/// ([`Schema::extended`]) copies the table only when it is shared.
#[derive(Clone)]
pub struct Schema(Arc<Symbols>);

/// The symbol table a [`Schema`] shares: the relations in declaration
/// order, and each name's position among them.
#[derive(Clone)]
struct Symbols {
    rels: Vec<RelSym>,
    index: BTreeMap<String, usize>,
}

/// Equal schemas list the same symbols in the same order (the index is
/// derived from the list); two handles on one table are equal without
/// comparing it.
impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.rels == other.0.rels
    }
}

impl Eq for Schema {}

impl Schema {
    /// Builds a schema from `(name, arity)` pairs.
    ///
    /// # Panics
    /// Panics if a name repeats or an arity is zero — both are schema bugs,
    /// not runtime conditions.
    pub fn new<N: Into<String>>(rels: impl IntoIterator<Item = (N, usize)>) -> Self {
        let mut out = Schema::empty();
        for (name, arity) in rels {
            out.push(name.into(), arity);
        }
        out
    }

    /// The schema of finite graphs: a single binary predicate `E`.
    pub fn graph() -> Self {
        Schema::new([("E", 2)])
    }

    fn empty() -> Self {
        Schema(Arc::new(Symbols {
            rels: Vec::new(),
            index: BTreeMap::new(),
        }))
    }

    fn push(&mut self, name: String, arity: usize) {
        assert!(arity > 0, "relation {name} must have positive arity");
        assert!(
            !self.contains(&name),
            "duplicate relation name {name} in schema"
        );
        let table = Arc::make_mut(&mut self.0);
        table.index.insert(name.clone(), table.rels.len());
        table.rels.push(RelSym { name, arity });
    }

    /// The relation symbols, in declaration order.
    pub fn rels(&self) -> &[RelSym] {
        &self.0.rels
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.0.rels.len()
    }

    /// Whether the schema has no relations (degenerate; [`Schema::new`] with
    /// an empty iterator produces it, useful only in tests).
    pub fn is_empty(&self) -> bool {
        self.0.rels.is_empty()
    }

    /// Index of the relation with the given name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.0.index.get(name).copied()
    }

    /// Arity of the relation with the given name, if present.
    pub fn arity_of(&self, name: &str) -> Option<usize> {
        self.index_of(name).map(|i| self.0.rels[i].arity)
    }

    /// Whether the schema contains a relation with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.0.index.contains_key(name)
    }

    /// A new schema extending this one with additional relations.
    ///
    /// Used to adjoin the unary set symbols `A₁..A_k` of a monadic Σ¹₁
    /// sentence, or auxiliary IDB predicates of a Datalog program.
    pub fn extended<N: Into<String>>(&self, more: impl IntoIterator<Item = (N, usize)>) -> Self {
        let mut out = self.clone();
        for (name, arity) in more {
            out.push(name.into(), arity);
        }
        out
    }

    /// Iterates over `(name, arity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, usize)> {
        self.0.rels.iter().map(|r| (r.name.as_str(), r.arity))
    }

    /// A stable textual encoding, `R:2,S:1` in declaration order — the same
    /// concrete syntax `vpdtool --schema` accepts, and what the store's
    /// durable checkpoints record so a cold recovery can rebuild the schema
    /// without any out-of-band knowledge. [`Schema::decode`] inverts it.
    pub fn encode(&self) -> String {
        self.0
            .rels
            .iter()
            .map(|r| format!("{}:{}", r.name, r.arity))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parses the encoding produced by [`Schema::encode`]. Errors (rather
    /// than panicking like [`Schema::new`]) on malformed items, duplicate
    /// names, or zero arities — decode input is data, not source code.
    pub fn decode(s: &str) -> Result<Schema, String> {
        let mut out = Schema::empty();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (name, arity) = part
                .split_once(':')
                .ok_or_else(|| format!("bad schema item {part} (want name:arity)"))?;
            let arity: usize = arity
                .trim()
                .parse()
                .map_err(|_| format!("bad arity in {part}"))?;
            let name = name.trim();
            if arity == 0 {
                return Err(format!("relation {name} must have positive arity"));
            }
            if out.contains(name) {
                return Err(format!("duplicate relation name {name}"));
            }
            out.push(name.to_string(), arity);
        }
        Ok(out)
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema{:?}", self.0.rels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_schema_has_single_binary_e() {
        let s = Schema::graph();
        assert_eq!(s.len(), 1);
        assert_eq!(s.arity_of("E"), Some(2));
        assert_eq!(s.index_of("E"), Some(0));
        assert!(s.contains("E"));
        assert!(!s.contains("R"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        for s in [
            Schema::graph(),
            Schema::new([("R0", 2), ("R1", 2), ("S", 1), ("T", 3)]),
            Schema::new(Vec::<(String, usize)>::new()),
        ] {
            let enc = s.encode();
            let back = Schema::decode(&enc).expect("decodes");
            assert_eq!(back, s, "roundtrip of {enc:?}");
            assert_eq!(back.encode(), enc, "byte-stable");
        }
        assert!(Schema::decode("R").is_err(), "missing arity");
        assert!(Schema::decode("R:0").is_err(), "zero arity");
        assert!(Schema::decode("R:2,R:2").is_err(), "duplicate name");
        assert!(Schema::decode("R:x").is_err(), "non-numeric arity");
    }

    #[test]
    fn extension_preserves_original_order() {
        let s = Schema::graph().extended([("A", 1), ("B", 1)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("E"), Some(0));
        assert_eq!(s.index_of("A"), Some(1));
        assert_eq!(s.arity_of("B"), Some(1));
    }

    /// A clone is a second handle on the same table; extending a shared
    /// schema copies the table and leaves the original as it was.
    #[test]
    fn clones_share_one_table() {
        let s = Schema::new([("R", 2), ("S", 1)]);
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.0, &c.0));
        assert_eq!(s, c);
        let e = c.extended([("T", 3)]);
        assert!(!Arc::ptr_eq(&s.0, &e.0));
        assert_eq!((s.len(), e.len()), (2, 3));
        assert_eq!(s.index_of("T"), None);
        assert_ne!(s, e);
        // equality compares contents across distinct tables
        assert_eq!(s, Schema::new([("R", 2), ("S", 1)]));
        assert_ne!(s, Schema::new([("S", 1), ("R", 2)]));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let _ = Schema::new([("R", 1), ("R", 2)]);
    }

    #[test]
    #[should_panic(expected = "positive arity")]
    fn zero_arity_rejected() {
        let _ = Schema::new([("R", 0)]);
    }
}
