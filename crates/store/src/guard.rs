//! The shape-keyed guard cache: compile once per *statement shape*,
//! evaluate everywhere.
//!
//! Guard compilation — a Δ per conjunct, with prerelations and `wpc` only
//! as the fallback — is work worth sharing. Keyed by ground
//! program, a binary-insert workload would compile O(universe²) entries
//! sharing a handful of shapes, so this cache compiles per canonicalized
//! [`Template`] (placeholder terms flow through the whole pipeline, see
//! `vpdt_core::safe::compile_guard_template`). Each compiled shape also
//! compiles its guard into an evaluation [`Plan`] once, and a transaction
//! runs that plan against its own bindings ([`BoundTx::guard_holds`]):
//! nothing is substituted, no name is looked up and, on the Δ residues,
//! nothing is allocated per transaction.
//! Compilation cost is O(statement shapes) — independent of the domain —
//! and entries are bounded by an LRU budget with per-shape hit/compile
//! statistics.
//!
//! A lookup does not canonicalize. Live entries are keyed by the ground
//! program's [`fingerprint`] — a structural hash that skips constants,
//! computed in one borrow-only walk that also collects the bindings — and
//! each holds the first program seen with that fingerprint. A hit is that
//! walk, one probe and one [`same_shape`] check against the entry's
//! program, so a hash collision costs a miss, never a wrong shape. Only a
//! miss runs [`canonicalize`]: the canonical key resolves the shape id in
//! the registry, and a live compilation of the same template is reused, so
//! alpha-variant spellings of one statement get one entry each but share
//! one shape id and one compilation.
//!
//! The evaluated guard is the compilation's *fast* guard: per conjunct
//! of `α` the shape can disturb, the Section 6 residue Δ where one is
//! derivable — including for multi-statement shapes, whose per-step Δs
//! compose when exactly one step writes the conjunct's relations — and,
//! only where none is, the exact wpc conjunct. Its size bounds what a
//! transaction's evaluation walks, so each shape's
//! [`ShapeStat::fast_nodes`] is reported.
//!
//! Two lookups serve two kinds of caller. [`GuardCache::bind`] is the
//! worker's: the shape and the bindings, nothing else. A caller that wants
//! the guard as a formula — a layer-by-layer replay, a bench, a test —
//! calls [`GuardCache::get_or_compile`], which is that lookup plus
//! [`GuardCompilation::instantiate_fast`]: the ground guard it returns has
//! the verdict the plan gives with the same bindings.
//!
//! Shape *identities* (ids and templates) are never evicted: they are what
//! the history log records and the audit replays, so an audit must be able
//! to resolve shapes whose compilations have long been evicted.

use crate::metrics::names;
use crate::StoreError;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, Weak};
use vpdt_core::safe::{compile_guard_template, GuardCompilation};
use vpdt_eval::fo::Plan;
use vpdt_eval::{EvalError, Omega};
use vpdt_logic::{Elem, Formula, Schema};
use vpdt_obs::{Counter, MetricsRegistry};
use vpdt_structure::Database;
use vpdt_tx::program::Program;
use vpdt_tx::template::{canonicalize, fingerprint, same_shape, Template};

/// Default LRU budget: comfortably above any realistic statement menu, low
/// enough that a pathological shape flood (e.g. one-off `InsertWhere`
/// conditions) cannot grow the *compiled* footprint without bound. The
/// shape registry (ids + templates, needed for audit provenance) is
/// append-only and grows with the number of distinct shapes ever seen —
/// small per entry, but a deployment fearing unbounded distinct shapes
/// should bound what it submits, not the cache.
pub const DEFAULT_CAPACITY: usize = 512;

/// One compiled statement shape, shared by every transaction that
/// instantiates it.
#[derive(Clone, Debug)]
pub struct PreparedShape {
    /// Stable shape id (assigned at first successful compile, survives
    /// eviction) — what history events record.
    pub id: u64,
    /// The canonicalized statement template.
    pub template: Template,
    /// The guard compilation over the shape's placeholder terms.
    pub compiled: GuardCompilation,
    /// The footprint validated at commit: the compilation's reads, widened
    /// to the whole schema when the guard could not be shown exact under
    /// disjoint interleaving (see `GuardCompilation::domain_independent`).
    pub reads: BTreeSet<String>,
    /// The fast guard compiled against the cache's schema, or the error
    /// compiling it raised — which every evaluation then reports, as
    /// evaluating the instantiated guard would.
    plan: Result<Plan, EvalError>,
    /// This shape's hit counter, shared with the registry so cache hits
    /// bump it through the entry they already hold — no registry lock on
    /// the hot path — and the count survives eviction.
    hits: Arc<AtomicU64>,
}

impl PreparedShape {
    /// Whether the shape's fast guard holds on `db` with its placeholders
    /// bound to `bindings`: its compiled plan, run with no substitution.
    /// `db` must be over the cache's schema; any other is an error.
    pub fn guard_holds(
        &self,
        db: &Database,
        omega: &Omega,
        bindings: &[Elem],
    ) -> Result<bool, EvalError> {
        match &self.plan {
            Ok(plan) => plan.eval(db, omega, bindings),
            Err(e) => Err(e.clone()),
        }
    }
}

/// A transaction matched to its statement shape: the shared compiled shape
/// plus this transaction's bindings — what the worker evaluates. The
/// executor applies the ground program it already holds (direct
/// operational semantics), so a cache hit allocates nothing beyond the
/// bindings.
#[derive(Clone, Debug)]
pub struct BoundTx {
    /// The compiled shape (shared across threads and transactions).
    pub shape: Arc<PreparedShape>,
    /// The constants this transaction binds the shape's placeholders to.
    pub bindings: Vec<Elem>,
    /// Whether the shape came from the cache (`true`) or was compiled for
    /// this lookup (`false`) — recorded in the transaction's trace.
    pub cache_hit: bool,
}

impl BoundTx {
    /// Whether the cheapest sound guard holds on `db` for this
    /// transaction's bindings (see [`PreparedShape::guard_holds`]).
    pub fn guard_holds(&self, db: &Database, omega: &Omega) -> Result<bool, EvalError> {
        self.shape.guard_holds(db, omega, &self.bindings)
    }

    /// Relations the commit validation must cover.
    pub fn reads(&self) -> &BTreeSet<String> {
        &self.shape.reads
    }

    /// Relations the program may modify.
    pub fn writes(&self) -> &BTreeSet<String> {
        &self.shape.compiled.writes
    }

    /// The lookup with its guard instantiated as a ground formula.
    pub fn instantiate(self) -> PreparedTx {
        let guard = self.shape.compiled.instantiate_fast(&self.bindings);
        PreparedTx {
            shape: self.shape,
            bindings: self.bindings,
            guard,
            cache_hit: self.cache_hit,
        }
    }
}

/// A [`BoundTx`] plus its ground guard, for callers that want the guard
/// as a formula: a layer-by-layer replay, a bench, a test. The worker does
/// not build one; it runs the shape's plan ([`BoundTx::guard_holds`]).
#[derive(Clone, Debug)]
pub struct PreparedTx {
    /// The compiled shape (shared across threads and transactions).
    pub shape: Arc<PreparedShape>,
    /// The constants this transaction binds the shape's placeholders to.
    pub bindings: Vec<Elem>,
    /// The cheapest sound guard, instantiated with
    /// [`bindings`](Self::bindings): the formula whose verdict the shape's
    /// plan gives with the same bindings.
    pub guard: Formula,
    /// Whether the shape came from the cache (`true`) or was compiled for
    /// this preparation (`false`).
    pub cache_hit: bool,
}

impl PreparedTx {
    /// Relations the commit validation must cover.
    pub fn reads(&self) -> &BTreeSet<String> {
        &self.shape.reads
    }

    /// Relations the program may modify.
    pub fn writes(&self) -> &BTreeSet<String> {
        &self.shape.compiled.writes
    }
}

/// Aggregate cache counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served by a live entry.
    pub hits: u64,
    /// Lookups that had to compile (first sight or post-eviction).
    pub misses: u64,
    /// Entries removed by the LRU bound.
    pub evictions: u64,
    /// Live entries, one per spelling of a shape (≤ capacity).
    pub entries: usize,
    /// Distinct statement shapes ever seen (never shrinks).
    pub shapes: usize,
}

/// Per-shape counters (survive eviction).
#[derive(Clone, Debug)]
pub struct ShapeStat {
    /// The shape id.
    pub id: u64,
    /// The shape's canonical key (`Template::key`, the registry's key).
    pub key: String,
    /// Lookups of this shape served from cache.
    pub hits: u64,
    /// Times this shape was compiled (> 1 means it was evicted and came
    /// back, or raced on first sight).
    pub compiles: u64,
    /// Size ([`Formula::size`]) of the shape's fast guard — what each
    /// transaction's evaluation walks; `None` until the shape is
    /// compiled (a recovered registry seeds identities only). A
    /// deterministic proxy for per-transaction guard cost.
    pub fast_nodes: Option<usize>,
}

/// The permanent shape registry: ids, templates and per-shape statistics.
/// Append-only — eviction removes compilations, never identities.
#[derive(Default)]
struct Registry {
    by_key: HashMap<String, u64>,
    shapes: Vec<Known>,
}

/// One registered shape.
struct Known {
    template: Template,
    /// Shared with every [`PreparedShape`] of this id, so hits are counted
    /// without taking the registry lock.
    hits: Arc<AtomicU64>,
    compiles: AtomicU64,
    /// Fast-guard size; 0 until first compiled.
    fast_nodes: AtomicUsize,
    /// The compilation while any cache entry (or prepared transaction)
    /// still holds it: how a new spelling of a live shape finds it without
    /// compiling again.
    live: Weak<PreparedShape>,
}

impl Known {
    fn new(template: Template) -> Self {
        Known {
            template,
            hits: Arc::new(AtomicU64::new(0)),
            compiles: AtomicU64::new(0),
            fast_nodes: AtomicUsize::new(0),
            live: Weak::new(),
        }
    }
}

/// One live entry: a ground program as first seen, and its compiled shape.
/// Programs that differ from `program` only in constants hit it.
struct Entry {
    program: Program,
    shape: Arc<PreparedShape>,
    last_used: AtomicU64,
}

/// A thread-safe, LRU-bounded cache of compiled statement shapes for one
/// store configuration (schema, constraint `α`, Ω interpretation).
pub struct GuardCache {
    schema: Schema,
    alpha: Formula,
    omega: Omega,
    capacity: usize,
    /// Live entries bucketed by [`fingerprint`]; one per spelling of a
    /// shape. A bucket holds more than one entry only on a hash collision
    /// (the fingerprint is unkeyed, so a client can craft one; a lookup
    /// then pays one [`same_shape`] check per entry in the bucket, at most
    /// `capacity`).
    map: RwLock<HashMap<u64, Vec<Entry>>>,
    registry: RwLock<Registry>,
    tick: AtomicU64,
    // Aggregate counters live on a MetricsRegistry (the server's, via
    // `with_metrics`, or a private one) so there is exactly one stats
    // type; `stats()`/`cache_stats()` are thin views over them.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl GuardCache {
    /// An empty cache with the [default capacity](DEFAULT_CAPACITY).
    pub fn new(schema: Schema, alpha: Formula, omega: Omega) -> Self {
        Self::with_capacity(schema, alpha, omega, DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` live entries (≥ 1),
    /// counting on a private metrics registry.
    pub fn with_capacity(schema: Schema, alpha: Formula, omega: Omega, capacity: usize) -> Self {
        Self::with_metrics(schema, alpha, omega, capacity, &MetricsRegistry::new())
    }

    /// An empty cache whose hit/miss/eviction counters live on `metrics`
    /// (the server wires its own registry here, so `vpdtool stats` and
    /// [`CacheStats`] read the same cells).
    pub fn with_metrics(
        schema: Schema,
        alpha: Formula,
        omega: Omega,
        capacity: usize,
        metrics: &MetricsRegistry,
    ) -> Self {
        assert!(alpha.is_sentence(), "a constraint must be a sentence");
        GuardCache {
            schema,
            alpha,
            omega,
            capacity: capacity.max(1),
            map: RwLock::new(HashMap::new()),
            registry: RwLock::new(Registry::default()),
            tick: AtomicU64::new(0),
            hits: metrics.counter(names::GUARD_CACHE_HITS),
            misses: metrics.counter(names::GUARD_CACHE_MISSES),
            evictions: metrics.counter(names::GUARD_CACHE_EVICTIONS),
        }
    }

    /// The constraint `α` all guards protect.
    pub fn alpha(&self) -> &Formula {
        &self.alpha
    }

    /// The Ω interpretation guards are evaluated under.
    pub fn omega(&self) -> &Omega {
        &self.omega
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The LRU budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` so far — lifetime totals (see
    /// [`cache_stats`](Self::cache_stats)).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Aggregate counters plus current sizes. The counters are **lifetime
    /// totals** for this cache (never reset); callers measuring a window
    /// snapshot twice and subtract (or use `MetricsSnapshot::delta` when
    /// the cache counts on a server registry).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self
                .map
                .read()
                .expect("guard cache poisoned")
                .values()
                .map(Vec::len)
                .sum(),
            shapes: self
                .registry
                .read()
                .expect("shape registry poisoned")
                .shapes
                .len(),
        }
    }

    /// Per-shape hit/compile counters, ordered by shape id.
    pub fn per_shape_stats(&self) -> Vec<ShapeStat> {
        let reg = self.registry.read().expect("shape registry poisoned");
        (0u64..)
            .zip(&reg.shapes)
            .map(|(id, known)| ShapeStat {
                id,
                key: known.template.key(),
                hits: known.hits.load(Ordering::Relaxed),
                compiles: known.compiles.load(Ordering::Relaxed),
                fast_nodes: Some(known.fast_nodes.load(Ordering::Relaxed)).filter(|&n| n > 0),
            })
            .collect()
    }

    /// Every statement shape ever seen, by id — what an audit needs to
    /// resolve the `(shape, bindings)` provenance recorded in history
    /// events, including shapes whose compilations were evicted.
    pub fn templates(&self) -> BTreeMap<u64, Template> {
        let reg = self.registry.read().expect("shape registry poisoned");
        (0u64..)
            .zip(&reg.shapes)
            .map(|(id, known)| (id, known.template.clone()))
            .collect()
    }

    /// Seeds the shape registry with recovered identities, in id order —
    /// the durable-recovery path. Ids must be contiguous from the current
    /// registry size (recovered registries always are: the cache assigned
    /// them sequentially), so every shape recorded in the old log keeps its
    /// id in the resumed server and history provenance stays resolvable
    /// across restarts. Compilations are *not* rebuilt here; each shape
    /// recompiles lazily on first use.
    ///
    /// # Panics
    /// Panics on non-contiguous ids — recovery validates the id space
    /// before calling this.
    pub(crate) fn seed_registry(&self, templates: &BTreeMap<u64, Template>) {
        let mut reg = self.registry.write().expect("shape registry poisoned");
        for (id, template) in templates {
            assert_eq!(
                *id as usize,
                reg.shapes.len(),
                "recovered shape ids must be contiguous"
            );
            reg.by_key.insert(template.key(), *id);
            reg.shapes.push(Known::new(template.clone()));
        }
    }

    /// Matches `program` to its statement shape, finding or compiling it,
    /// and collects the program's constants as the bindings: the worker's
    /// lookup. Concurrent first sights may compile redundantly; the cache
    /// keeps one winner.
    ///
    /// A hit costs one borrow-only walk of the program ([`fingerprint`]:
    /// a structural hash plus the bindings), one hash-table probe and one
    /// [`same_shape`] comparison against the entry's program — independent
    /// of the domain and of the universe — and allocates only the bindings.
    /// Only a miss [`canonicalize`]s: it resolves the template to its shape
    /// id, reuses a live compilation of the same template (an alpha-variant
    /// spelling), or compiles one, and then remembers the program under its
    /// fingerprint.
    pub fn bind(&self, program: &Program) -> Result<BoundTx, StoreError> {
        let print = match fingerprint(program) {
            Some((print, bindings)) => match self.lookup(print, program) {
                Some(shape) => {
                    return Ok(BoundTx {
                        shape,
                        bindings,
                        cache_hit: true,
                    })
                }
                None => Some(print),
            },
            // A program with placeholders: `canonicalize` refuses it.
            None => None,
        };
        let (template, bindings) = canonicalize(program)?;
        let key = template.key();
        let (shape, cache_hit) = match self.live(&key) {
            Some(shape) => (shape, true),
            None => (self.compile_shape(&key, template)?, false),
        };
        if let Some(print) = print {
            self.remember(print, program, &shape);
        }
        Ok(BoundTx {
            shape,
            bindings,
            cache_hit,
        })
    }

    /// [`bind`](Self::bind) plus the guard instantiated with the program's
    /// constants, for callers that want the ground guard as a formula.
    pub fn get_or_compile(&self, program: &Program) -> Result<PreparedTx, StoreError> {
        self.bind(program).map(BoundTx::instantiate)
    }

    /// The hit path: the entry under `print` whose program has the same
    /// shape as `program`.
    fn lookup(&self, print: u64, program: &Program) -> Option<Arc<PreparedShape>> {
        let map = self.map.read().expect("guard cache poisoned");
        let entry = map
            .get(&print)?
            .iter()
            .find(|e| same_shape(&e.program, program))?;
        entry.last_used.store(
            self.tick.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(self.hit(&entry.shape))
    }

    fn hit(&self, shape: &Arc<PreparedShape>) -> Arc<PreparedShape> {
        self.hits.inc();
        // Per-shape hit counter is shared into the shape, so no registry
        // lock is needed on the hot path.
        shape.hits.fetch_add(1, Ordering::Relaxed);
        Arc::clone(shape)
    }

    /// A live compilation of the template keyed `key`, if some entry (or
    /// prepared transaction) still holds one.
    fn live(&self, key: &str) -> Option<Arc<PreparedShape>> {
        let reg = self.registry.read().expect("shape registry poisoned");
        let id = *reg.by_key.get(key)?;
        let shape = reg.shapes[id as usize].live.upgrade()?;
        Some(self.hit(&shape))
    }

    fn compile_shape(
        &self,
        key: &str,
        template: Template,
    ) -> Result<Arc<PreparedShape>, StoreError> {
        self.misses.inc();

        // Compile first: a shape whose compilation fails is never
        // registered, so the registry only ever holds usable statements.
        let compiled =
            compile_guard_template("store", &template, &self.alpha, &self.schema, &self.omega)?;
        let reads = if compiled.domain_independent {
            compiled.reads.clone()
        } else {
            // Exactness under disjoint interleaving is not established:
            // validate against everything, i.e. serialize.
            self.schema
                .iter()
                .map(|(name, _)| name.to_string())
                .collect()
        };
        let plan = Plan::compile(&self.schema, &compiled.fast, &[]);

        let mut reg = self.registry.write().expect("shape registry poisoned");
        let id = match reg.by_key.get(key) {
            Some(&id) => id,
            None => {
                let id = reg.shapes.len() as u64;
                reg.by_key.insert(key.to_string(), id);
                reg.shapes.push(Known::new(template.clone()));
                id
            }
        };
        let known = &mut reg.shapes[id as usize];
        known.compiles.fetch_add(1, Ordering::Relaxed);
        known
            .fast_nodes
            .store(compiled.fast.size(), Ordering::Relaxed);
        if let Some(winner) = known.live.upgrade() {
            // A concurrent first sight compiled it too; keep theirs.
            return Ok(winner);
        }
        let shape = Arc::new(PreparedShape {
            id,
            template,
            compiled,
            reads,
            plan,
            hits: Arc::clone(&known.hits),
        });
        known.live = Arc::downgrade(&shape);
        Ok(shape)
    }

    /// Enters `program` under `print`, unless a concurrent first sight
    /// already did, and evicts the least recently used entry if that puts
    /// the cache over capacity.
    fn remember(&self, print: u64, program: &Program, shape: &Arc<PreparedShape>) {
        let mut map = self.map.write().expect("guard cache poisoned");
        let bucket = map.entry(print).or_default();
        if bucket.iter().any(|e| same_shape(&e.program, program)) {
            return;
        }
        bucket.push(Entry {
            program: program.clone(),
            shape: Arc::clone(shape),
            last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed) + 1),
        });
        if map.values().map(Vec::len).sum::<usize>() > self.capacity {
            let (oldest, at) = map
                .iter()
                .flat_map(|(&print, bucket)| (0..).zip(bucket).map(move |(at, e)| (print, at, e)))
                .min_by_key(|(_, _, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(print, at, _)| (print, at))
                .expect("a cache over capacity is non-empty");
            let bucket = map.get_mut(&oldest).expect("just seen");
            bucket.swap_remove(at);
            if bucket.is_empty() {
                map.remove(&oldest);
            }
            self.evictions.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdt_logic::parse_formula;

    fn cache() -> GuardCache {
        GuardCache::new(
            Schema::graph(),
            parse_formula("forall x y z. E(x, y) & E(x, z) -> y = z").expect("parses"),
            Omega::empty(),
        )
    }

    #[test]
    fn second_lookup_hits() {
        let c = cache();
        let p = Program::insert_consts("E", [1, 4]);
        let a = c.get_or_compile(&p).expect("compiles");
        let b = c.get_or_compile(&p).expect("compiles");
        assert!(Arc::ptr_eq(&a.shape, &b.shape));
        assert_eq!(a.guard, b.guard);
        assert_eq!(c.stats(), (1, 1));
    }

    /// The collapse the refactor buys: programs differing only in constants
    /// share one compiled shape — the second lookup is a hit, not a compile.
    #[test]
    fn distinct_constants_share_a_shape() {
        let c = cache();
        let a = c
            .get_or_compile(&Program::insert_consts("E", [1, 4]))
            .expect("compiles");
        let b = c
            .get_or_compile(&Program::insert_consts("E", [2, 9]))
            .expect("compiles");
        assert!(Arc::ptr_eq(&a.shape, &b.shape));
        assert_eq!(a.bindings, vec![Elem(1), Elem(4)]);
        assert_eq!(b.bindings, vec![Elem(2), Elem(9)]);
        assert_ne!(a.guard, b.guard, "guards are instantiated per binding");
        assert_eq!(c.stats(), (1, 1));
        assert_eq!(c.cache_stats().shapes, 1);
        // a different statement kind is a different shape
        c.get_or_compile(&Program::delete_consts("E", [1, 4]))
            .expect("compiles");
        assert_eq!(c.cache_stats().shapes, 2);
    }

    #[test]
    fn eviction_recompiles_and_is_counted() {
        let c = GuardCache::with_capacity(
            Schema::new([("E", 2), ("F", 2)]),
            parse_formula(
                "(forall x y z. E(x, y) & E(x, z) -> y = z) \
                 & (forall x y z. F(x, y) & F(x, z) -> y = z)",
            )
            .expect("parses"),
            Omega::empty(),
            2,
        );
        // three shapes through a 2-entry cache, round-robin: every lookup
        // evicts the next victim, so the third pass recompiles everything
        let menu = [
            Program::insert_consts("E", [0, 1]),
            Program::delete_consts("E", [0, 1]),
            Program::insert_consts("F", [0, 1]),
        ];
        for p in menu.iter().cycle().take(9) {
            c.get_or_compile(p).expect("compiles");
        }
        let stats = c.cache_stats();
        assert_eq!(stats.shapes, 3, "three shapes registered");
        assert!(stats.entries <= 2, "LRU bound holds");
        assert!(stats.evictions > 0, "evictions are counted");
        assert!(
            stats.misses > 3,
            "evicted shapes recompile: {stats:?} should show more misses than shapes"
        );
        let per_shape = c.per_shape_stats();
        assert_eq!(per_shape.len(), 3);
        assert!(
            per_shape
                .iter()
                .all(|s| s.fast_nodes.is_some_and(|n| n > 0)),
            "every compiled shape reports its fast-guard size: {per_shape:?}"
        );
        assert!(
            per_shape.iter().any(|s| s.compiles > 1),
            "some shape was compiled more than once: {per_shape:?}"
        );
        // identities survive eviction: every shape is still resolvable
        assert_eq!(c.templates().len(), 3);
    }

    /// Spellings that differ only in variable names get one entry each but
    /// one shape id and one compilation: the miss path finds the live
    /// compilation through the canonical key.
    #[test]
    fn alpha_variants_share_one_compilation() {
        let c = cache();
        let spelled = |u: &str, w: &str, a: u64, b: u64| Program::DeleteWhere {
            rel: "E".into(),
            vars: vec![vpdt_logic::Var::new(u), vpdt_logic::Var::new(w)],
            cond: Formula::and([
                Formula::eq(vpdt_logic::Term::var(u), vpdt_logic::Term::cst(a)),
                Formula::eq(vpdt_logic::Term::var(w), vpdt_logic::Term::cst(b)),
            ]),
        };
        let a = c
            .get_or_compile(&spelled("d0", "d1", 1, 4))
            .expect("compiles");
        let b = c
            .get_or_compile(&spelled("v0", "v1", 2, 5))
            .expect("compiles");
        let again = c
            .get_or_compile(&spelled("v0", "v1", 3, 3))
            .expect("compiles");
        assert!(Arc::ptr_eq(&a.shape, &b.shape));
        assert!(Arc::ptr_eq(&a.shape, &again.shape));
        assert_eq!(b.bindings, vec![Elem(2), Elem(5)]);
        assert!(!a.cache_hit && b.cache_hit && again.cache_hit);
        let stats = c.cache_stats();
        assert_eq!((stats.entries, stats.shapes), (2, 1));
        assert_eq!(c.per_shape_stats()[0].compiles, 1);
        assert_eq!(c.stats(), (2, 1));
    }

    /// An entry whose program has another shape, found under a program's
    /// fingerprint (a hash collision), is passed over: the program gets an
    /// entry of its own in the same bucket, and the right shape.
    #[test]
    fn a_fingerprint_collision_is_a_miss_not_a_wrong_shape() {
        let c = cache();
        let insert = Program::insert_consts("E", [1, 4]);
        let delete = Program::delete_consts("E", [1, 4]);
        let inserted = c.get_or_compile(&insert).expect("compiles");
        let (print, _) = fingerprint(&delete).expect("ground");
        c.remember(print, &insert, &inserted.shape);
        for k in 0..3 {
            let got = c
                .get_or_compile(&Program::delete_consts("E", [k, 4]))
                .expect("compiles");
            assert!(!Arc::ptr_eq(&got.shape, &inserted.shape));
            assert_eq!(got.shape.template, canonicalize(&delete).expect("ground").0);
            assert_eq!(got.bindings, vec![Elem(k), Elem(4)]);
        }
        assert_eq!(c.per_shape_stats()[1].compiles, 1);
        assert_eq!(c.cache_stats().entries, 3);
    }

    /// A client cannot smuggle placeholder terms into a submitted program:
    /// the guard would otherwise verify a different instantiation than the
    /// program the executor runs.
    #[test]
    fn programs_with_placeholders_are_refused() {
        let c = cache();
        let p = Program::Insert {
            rel: "E".into(),
            tuple: vec![vpdt_logic::Term::param(0), vpdt_logic::Term::cst(4u64)],
        };
        assert!(matches!(c.get_or_compile(&p), Err(StoreError::Tx(_))));
    }

    #[test]
    fn prepared_transactions_cross_threads() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<PreparedTx>();
        assert_bounds::<BoundTx>();
        assert_bounds::<PreparedShape>();
        assert_bounds::<GuardCache>();
    }
}
