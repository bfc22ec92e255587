//! Positive n-types (Definition 3) and the equivalence `≡ₙ`
//! (Definition 4), computed exactly.
//!
//! ## The algorithm
//!
//! `ptpₙ(C, e, Θ)` is the set of conjunctive queries `Ψ(x̄, y)` with
//! `|x̄| < n` (so at most `n` variables in total) true at `e`. Deciding
//! `ptpₙ(C,d,Θ) ⊆ ptpₙ(C',e,Θ)` by enumerating queries is hopeless, but
//! two classical reductions make it exact and tractable:
//!
//! 1. **Canonical queries suffice.** If `Ψ` is true at `d` via an
//!    assignment σ, the *canonical query* of the image of σ — the full
//!    induced substructure on `σ(vars)` with each non-constant element a
//!    distinct variable and constants kept as constants — implies `Ψ` and
//!    is still true at `d` with at most as many variables. So inclusion
//!    over all queries equals inclusion over canonical queries.
//! 2. **Connected canonical queries suffice.** Truth of a disconnected
//!    query factors into its variable-connected components (constants pin
//!    their position and therefore do *not* connect components); every
//!    component not containing `y` is true or false independently of
//!    `d`/`e`. So only components containing `y` matter.
//!
//! Hence `ptpₙ(C,d) ⊆ ptpₙ(C',e)` iff for every variable-connected set
//! `S ∋ d` of at most `n` non-constant elements of `C`, the canonical
//! query of `S` (with all incident atoms, including those reaching
//! constants) maps homomorphically into `C'` sending `d ↦ e` and fixing
//! constants. On the bounded-degree forests the paper's skeletons are
//! (Lemma 3 (iv)), the number of such sets is small.
//!
//! Remark 1's constants behaviour falls out automatically: a named
//! constant appears in its own canonical queries as a constant, so it is
//! `≡ₙ`-equivalent only to itself.
//!
//! A third reduction makes the partition cheap:
//!
//! 3. **Equal signatures imply `≡ₙ`.** Write a canonical query with
//!    subset position `i` as variable `xᵢ` (the root is `x₀`), constants
//!    kept, atoms sorted, and call the set of `e`'s connected canonical
//!    queries its *signature*. If `d` and `e` have the same signature,
//!    every canonical query `Ψ` of `d` is a canonical query of `e`, so
//!    the identity on `e`'s subset maps `Ψ` into the structure with
//!    `x₀ ↦ e`: `Ψ` holds at `e`. By reductions 1 and 2 that is
//!    `ptpₙ(d) ⊆ ptpₙ(e)`, and the converse holds the same way.
//!
//! [`TypeAnalyzer`] interns every canonical query it builds as a `u32`
//! id and a signature as a sorted id set, lazily, in one table shared by
//! [`TypeAnalyzer::partition`], [`TypeAnalyzer::equivalent`] and
//! [`TypeAnalyzer::ptp_included_in`]. The partition joins an element to
//! the class of any element with its signature without a homomorphism
//! search; only elements whose signature is new fall back to the
//! pairwise check, which reads the cached queries and tests each query
//! at a given element at most once.

use bddfc_core::fxhash::{FxHashMap, FxHashSet};
use bddfc_core::obs::{Event, EventSink, SpanTimer, NULL};
use bddfc_core::{hom, Atom, Binding, ConstId, Instance, PredId, Term, VarId, Vocabulary};
use std::cell::RefCell;
use std::rc::Rc;

/// Precomputed machinery for positive-type queries over one structure.
pub struct TypeAnalyzer<'a> {
    inst: &'a Instance,
    /// Maximum number of variables in a type query (the `n` of `ptpₙ`).
    n: usize,
    /// Elements that are named constants (fixed by every homomorphism).
    constants: FxHashSet<ConstId>,
    /// Variable-connectivity adjacency between non-constant elements.
    adj: FxHashMap<ConstId, Vec<ConstId>>,
    /// One scratch variable per canonical-query position.
    vars: Vec<VarId>,
    /// Interned canonical queries and signatures, filled on first use.
    table: RefCell<QueryTable>,
}

/// The canonical-query table behind reduction 3.
#[derive(Default)]
struct QueryTable {
    /// Encoded query → id. An encoding is the sorted atoms, each written
    /// as its predicate followed by its arguments: variable `xᵢ` as
    /// `u32::MAX − i`, a constant as its id.
    ids: FxHashMap<Box<[u32]>, u32>,
    /// The queries, by id.
    queries: Vec<Query>,
    /// Signature (sorted query ids) → signature id, and back.
    sig_ids: FxHashMap<Rc<[u32]>, u32>,
    sigs: Vec<Rc<[u32]>>,
    /// Element → signature id.
    sig_of: FxHashMap<ConstId, u32>,
    /// `(query, element)` → does the query hold at the element of the
    /// analysed structure (with `x₀` at the element)?
    holds: FxHashMap<(u32, ConstId), bool>,
    /// Reused encoder buffers: atom words, `(start, len)` of each atom in
    /// `words`, the sorted key, and a signature under construction.
    words: Vec<u32>,
    spans: Vec<(usize, usize)>,
    key: Vec<u32>,
    sig: Vec<u32>,
}

/// One interned canonical query.
struct Query {
    /// The atoms; variable `xᵢ` is the analyzer's `vars[i]`.
    atoms: Vec<Atom>,
    /// Size of the subset it was built from: `x₀…x_{vars−1}`. The
    /// enumeration visits every prefix of a subset before the subset,
    /// so a query is first built from its smallest such subset.
    vars: usize,
}

impl<'a> TypeAnalyzer<'a> {
    /// Builds an analyzer for `ptpₙ` queries over `inst`. The vocabulary
    /// identifies which elements are named constants.
    pub fn new(inst: &'a Instance, voc: &mut Vocabulary, n: usize) -> Self {
        let constants: FxHashSet<ConstId> =
            inst.domain().filter(|&c| !voc.is_null(c)).collect();
        let mut adj: FxHashMap<ConstId, Vec<ConstId>> = FxHashMap::default();
        for fact in inst.facts() {
            for (i, &a) in fact.args.iter().enumerate() {
                if constants.contains(&a) {
                    continue;
                }
                for &b in fact.args.iter().skip(i + 1) {
                    if b != a && !constants.contains(&b) {
                        adj.entry(a).or_default().push(b);
                        adj.entry(b).or_default().push(a);
                    }
                }
            }
        }
        for v in adj.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        let vars = (0..n).map(|i| voc.fresh_var(&format!("tp{i}"))).collect();
        TypeAnalyzer { inst, n, constants, adj, vars, table: RefCell::default() }
    }

    /// The `n` of this analyzer.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Is the element a named constant?
    pub fn is_constant(&self, c: ConstId) -> bool {
        self.constants.contains(&c)
    }

    fn neighbours(&self, c: ConstId) -> &[ConstId] {
        self.adj.get(&c).map_or(&[], |v| v.as_slice())
    }

    /// Enumerates every variable-connected subset of non-constant elements
    /// containing `root`, of size ≤ `n`, invoking `visit` once per subset.
    ///
    /// Uses the standard connected-subgraph enumeration: grow the subset
    /// from the root, only ever extending with neighbours, and forbid
    /// re-adding elements skipped earlier to avoid duplicates.
    fn for_each_connected_subset(&self, root: ConstId, visit: &mut impl FnMut(&[ConstId])) {
        debug_assert!(!self.is_constant(root));
        let mut subset = vec![root];
        let mut forbidden = vec![root];
        self.extend_subset(&mut subset, self.neighbours(root), &mut forbidden, visit);
    }

    fn extend_subset(
        &self,
        subset: &mut Vec<ConstId>,
        frontier: &[ConstId],
        forbidden: &mut Vec<ConstId>,
        visit: &mut impl FnMut(&[ConstId]),
    ) {
        visit(subset);
        if subset.len() == self.n {
            return;
        }
        // Choose each frontier element in turn; elements chosen earlier in
        // the loop stay forbidden for later branches (dedup) until the
        // loop ends.
        let mark = forbidden.len();
        for &cand in frontier {
            if forbidden.contains(&cand) {
                continue;
            }
            forbidden.push(cand);
            subset.push(cand);
            if subset.len() == self.n {
                visit(subset);
            } else {
                let mut next = frontier.to_vec();
                for &nb in self.neighbours(cand) {
                    if !forbidden.contains(&nb) && !next.contains(&nb) {
                        next.push(nb);
                    }
                }
                self.extend_subset(subset, &next, forbidden, visit);
            }
            subset.pop();
        }
        forbidden.truncate(mark);
    }

    /// Interns the canonical query of `subset` — every atom of the
    /// structure with at least one argument in `subset` and all arguments
    /// in `subset ∪ constants`, `subset[i]` read as `xᵢ` — and returns
    /// its id. Allocates only when the query is new to the table.
    fn intern(&self, t: &mut QueryTable, subset: &[ConstId]) -> u32 {
        t.words.clear();
        t.spans.clear();
        for (i, &c) in subset.iter().enumerate() {
            'facts: for &fidx in self.inst.facts_with_element(c) {
                let fact = self.inst.fact(fidx);
                let start = t.words.len();
                t.words.push(fact.pred.0);
                for &a in &fact.args {
                    let word = match subset.iter().position(|&s| s == a) {
                        Some(p) if p >= i => u32::MAX - p as u32,
                        // Already emitted from an earlier subset member.
                        Some(_) => {
                            t.words.truncate(start);
                            continue 'facts;
                        }
                        None if self.constants.contains(&a) => a.0,
                        None => {
                            t.words.truncate(start);
                            continue 'facts;
                        }
                    };
                    t.words.push(word);
                }
                t.spans.push((start, t.words.len() - start));
            }
        }
        let words = &t.words;
        t.spans
            .sort_unstable_by(|&(a, al), &(b, bl)| words[a..a + al].cmp(&words[b..b + bl]));
        t.key.clear();
        for &(s, l) in &t.spans {
            t.key.extend_from_slice(&t.words[s..s + l]);
        }
        if let Some(&id) = t.ids.get(t.key.as_slice()) {
            return id;
        }
        let first_var = u32::MAX - (self.n as u32 - 1);
        let atoms = t
            .spans
            .iter()
            .map(|&(s, l)| {
                let args = t.words[s + 1..s + l]
                    .iter()
                    .map(|&w| {
                        if w >= first_var {
                            Term::Var(self.vars[(u32::MAX - w) as usize])
                        } else {
                            Term::Const(ConstId(w))
                        }
                    })
                    .collect();
                Atom::new(PredId(t.words[s]), args)
            })
            .collect();
        let id = t.queries.len() as u32;
        t.queries.push(Query { atoms, vars: subset.len() });
        t.ids.insert(t.key.as_slice().into(), id);
        id
    }

    /// The signature id of the non-constant element `d`: the set of its
    /// connected canonical queries, computed on first use.
    fn signature(&self, t: &mut QueryTable, d: ConstId) -> u32 {
        if let Some(&s) = t.sig_of.get(&d) {
            return s;
        }
        let mut sig = std::mem::take(&mut t.sig);
        sig.clear();
        self.for_each_connected_subset(d, &mut |subset| sig.push(self.intern(t, subset)));
        sig.sort_unstable();
        sig.dedup();
        let s = match t.sig_ids.get(sig.as_slice()) {
            Some(&s) => s,
            None => {
                let s = t.sigs.len() as u32;
                let shared: Rc<[u32]> = sig.as_slice().into();
                t.sigs.push(shared.clone());
                t.sig_ids.insert(shared, s);
                s
            }
        };
        t.sig = sig;
        t.sig_of.insert(d, s);
        s
    }

    /// Does the query hold in `target` with its root variable at `e`?
    fn query_holds(&self, atoms: &[Atom], target: &Instance, e: ConstId) -> bool {
        let mut init = Binding::default();
        init.insert(self.vars[0], e);
        hom::hom_exists(target, atoms, &init)
    }

    /// `ptpₙ(d) ⊆ ptpₙ(e)` within the analysed structure, for elements
    /// with signatures `sd` and `se`. A query of `d` that is also one of
    /// `e`'s own holds at `e` outright (reduction 3); any other is
    /// searched for once per `(query, e)` and remembered.
    fn included_within(&self, t: &mut QueryTable, sd: u32, e: ConstId, se: u32) -> bool {
        let (qd, qe) = (t.sigs[sd as usize].clone(), t.sigs[se as usize].clone());
        qd.iter().all(|&q| {
            if qe.binary_search(&q).is_ok() {
                return true;
            }
            if let Some(&h) = t.holds.get(&(q, e)) {
                return h;
            }
            let h = self.query_holds(&t.queries[q as usize].atoms, self.inst, e);
            t.holds.insert((q, e), h);
            h
        })
    }

    /// `d ≡ₙ e` for non-constant elements with signatures `sd`, `se`.
    fn equivalent_sigs(
        &self,
        t: &mut QueryTable,
        d: ConstId,
        sd: u32,
        e: ConstId,
        se: u32,
    ) -> bool {
        sd == se || (self.included_within(t, sd, e, se) && self.included_within(t, se, d, sd))
    }

    /// Checks the *global* part of type inclusion: every connected
    /// canonical query of this structure with at most `n − 1` variables
    /// holds somewhere in `target`. This is what the type of a *constant*
    /// reduces to — the pinned `y = c` component contributes no variables,
    /// so the remaining budget ranges over arbitrary components of `C`.
    /// Each distinct query is searched for once.
    pub fn global_cqs_included_in(&self, target: &Instance) -> bool {
        if self.n <= 1 {
            return true;
        }
        let t = &mut *self.table.borrow_mut();
        let mut tested: FxHashSet<u32> = FxHashSet::default();
        for root in self.inst.sorted_domain() {
            if self.is_constant(root) {
                continue;
            }
            let s = self.signature(t, root);
            for &q in t.sigs[s as usize].iter() {
                let query = &t.queries[q as usize];
                if query.vars < self.n
                    && tested.insert(q)
                    && !hom::hom_exists(target, &query.atoms, &Binding::default())
                {
                    return false;
                }
            }
        }
        true
    }

    /// Is `ptpₙ(C, d) ⊆ ptpₙ(target, e)` (types over the shared
    /// signature)? Constants are fixed points of any homomorphism
    /// automatically because canonical queries mention them as constants.
    /// `d`'s canonical queries are built once per analyzer, however many
    /// targets they are tested against.
    pub fn ptp_included_in(&self, d: ConstId, target: &Instance, e: ConstId) -> bool {
        if self.is_constant(d) {
            // Remark 1: the type of a constant contains `y = d`, so e must
            // be d itself; the rest of the type is the set of global small
            // queries (the pinned y detaches from every other component).
            return d == e && self.global_cqs_included_in(target);
        }
        let t = &mut *self.table.borrow_mut();
        let s = self.signature(t, d);
        t.sigs[s as usize]
            .iter()
            .all(|&q| self.query_holds(&t.queries[q as usize].atoms, target, e))
    }

    /// `d ≡ₙ e` within this structure (Definition 4).
    pub fn equivalent(&self, d: ConstId, e: ConstId) -> bool {
        if d == e {
            return true;
        }
        if self.is_constant(d) || self.is_constant(e) {
            return false;
        }
        let t = &mut *self.table.borrow_mut();
        let (sd, se) = (self.signature(t, d), self.signature(t, e));
        self.equivalent_sigs(t, d, sd, e, se)
    }

    /// A cheap invariant that refines nothing `≡ₙ` distinguishes: two
    /// equivalent elements must agree on it, so classes are only sought
    /// within buckets.
    ///
    /// Each entry is the truth of a conjunctive query with at most `n`
    /// variables, so equal types force equal keys. For a `P`-fact with
    /// the element `y` at position `i`:
    ///
    /// * `(P, i)`: some `P`-fact has `y` at `i` — every other position a
    ///   fresh variable, `arity` variables in all;
    /// * `(P, i, j, c)` and `(P, i, j, y)`: some `P`-fact has `y` at `i`
    ///   and the constant `c`, or `y` again, at `j` — `arity − 1`
    ///   variables.
    ///
    /// Entries whose query needs more than `n` variables are left out.
    /// There is deliberately no "a non-constant at `j`" entry: a
    /// variable may map to a constant, so no query expresses it.
    fn bucket_key(&self, e: ConstId) -> Vec<u64> {
        let mut key: Vec<u64> = Vec::new();
        for &fidx in self.inst.facts_with_element(e) {
            let fact = self.inst.fact(fidx);
            let arity = fact.args.len();
            for (i, &a) in fact.args.iter().enumerate() {
                if a != e {
                    continue;
                }
                let entry = (fact.pred.0 as u64) << 48 | (i as u64) << 44;
                if arity <= self.n {
                    key.push(entry);
                }
                if arity - 1 > self.n {
                    continue;
                }
                for (j, &b) in fact.args.iter().enumerate() {
                    let marker: u64 = if j == i {
                        continue;
                    } else if b == e {
                        2 << 40
                    } else if self.constants.contains(&b) {
                        (1 << 40) | b.0 as u64
                    } else {
                        continue;
                    };
                    key.push(entry | (j as u64) << 32 | marker);
                }
            }
        }
        key.sort_unstable();
        key.dedup();
        key
    }

    /// Partitions the domain into `≡ₙ` classes. Constants are singleton
    /// classes (Remark 1). Classes and their members are sorted for
    /// determinism. Elements are pre-bucketed by a sound invariant so
    /// classes are only ever sought within a bucket.
    ///
    /// The first element of a bucket opens a class without further work.
    /// A later one joins the class of any element with the same signature
    /// (reduction 3), with no homomorphism search; failing that, it is
    /// checked pairwise against its bucket's class representatives and
    /// joins the first it is equivalent to. Representatives are pairwise
    /// inequivalent and `≡ₙ` is an equivalence relation, so at most one
    /// class can match: the classes are those of the plain pairwise scan.
    pub fn partition(&self) -> Vec<Vec<ConstId>> {
        self.partition_with(&NULL)
    }

    /// Like [`TypeAnalyzer::partition`], but emits one
    /// `analyzer`/`partition` summary event into `sink` when done.
    /// Fields: `elements` (domain size), `constants` (forced singleton
    /// classes), `buckets` (invariant buckets classes were sought in),
    /// `sig_hits` (elements that joined a class by signature),
    /// `eq_checks` (pairwise `≡ₙ` representative comparisons made; each
    /// element's scan stops at its first match), `queries` (distinct
    /// canonical queries interned), `classes`; gauge: `wall_ns`.
    pub fn partition_with<S: EventSink>(&self, sink: &S) -> Vec<Vec<ConstId>> {
        let timer = SpanTimer::start();
        let span = if S::ENABLED { sink.span_open("analyzer", "partition", 0, None) } else { 0 };
        let t = &mut *self.table.borrow_mut();
        let domain = self.inst.sorted_domain();
        let mut classes: Vec<Vec<ConstId>> = Vec::new();
        let mut by_bucket: FxHashMap<Vec<u64>, Vec<usize>> = FxHashMap::default();
        // Signature id → class, for every element whose signature is known.
        let mut class_of_sig: FxHashMap<u32, usize> = FxHashMap::default();
        let mut constants = 0u64;
        let mut sig_hits = 0u64;
        let mut eq_checks = 0u64;
        for &d in &domain {
            if self.is_constant(d) {
                constants += 1;
                classes.push(vec![d]);
                continue;
            }
            let bucket = by_bucket.entry(self.bucket_key(d)).or_default();
            if bucket.is_empty() {
                bucket.push(classes.len());
                classes.push(vec![d]);
                continue;
            }
            // The representatives' signatures, computed once their bucket
            // holds a second element.
            for &ci in bucket.iter() {
                let s = self.signature(t, classes[ci][0]);
                class_of_sig.entry(s).or_insert(ci);
            }
            let sd = self.signature(t, d);
            let joined = match class_of_sig.get(&sd) {
                Some(&ci) => {
                    sig_hits += 1;
                    Some(ci)
                }
                None => bucket.iter().copied().find(|&ci| {
                    eq_checks += 1;
                    let rep = classes[ci][0];
                    let sr = self.signature(t, rep);
                    self.equivalent_sigs(t, d, sd, rep, sr)
                }),
            };
            let ci = joined.unwrap_or_else(|| {
                bucket.push(classes.len());
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[ci].push(d);
            class_of_sig.insert(sd, ci);
        }
        if S::ENABLED {
            sink.record(Event {
                engine: "analyzer",
                name: "partition",
                parent: span,
                key: None,
                fields: &[
                    ("elements", domain.len() as u64),
                    ("constants", constants),
                    ("buckets", by_bucket.len() as u64),
                    ("sig_hits", sig_hits),
                    ("eq_checks", eq_checks),
                    ("queries", t.queries.len() as u64),
                    ("classes", classes.len() as u64),
                ],
                gauges: &[("wall_ns", timer.elapsed_ns())],
            });
            sink.span_close(span);
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddfc_core::{parse_into, Fact};

    /// A chain a0 -> a1 -> ... -> a_{len}, all elements *nulls* except
    /// none; `named` of them (prefix) are promoted to constants.
    fn chain(voc: &mut Vocabulary, len: usize, named: usize) -> Instance {
        let e = voc.pred("E", 2);
        let mut inst = Instance::new();
        let elems: Vec<ConstId> = (0..=len).map(|_| voc.fresh_null("a")).collect();
        for (i, &el) in elems.iter().enumerate() {
            if i < named {
                voc.name_element(el);
            }
            let _ = el;
        }
        for i in 0..len {
            inst.insert(Fact::new(e, vec![elems[i], elems[i + 1]]));
        }
        inst
    }

    #[test]
    fn chain_types_follow_example3() {
        // Example 3 on a finite chain prefix a0 → … → a12, under
        // Definition 3 read literally (queries with ≤ n variables in
        // total, i.e. |x̄| < n plus y). The longest expressible in-path
        // query has length n−1, so a_i ≡ₙ a_j for interior elements iff
        // min(i, n−1) = min(j, n−1); near the *end* of the finite prefix,
        // out-path lengths distinguish elements symmetrically (an artifact
        // of finiteness absent from the paper's infinite chain).
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 12, 0);
        let n = 3;
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, n);
        let dom = inst.sorted_domain();
        // a1 has an in-path of length 1 only; a2 of length 2 = n − 1:
        // the 3-variable query E(x1,x2) ∧ E(x2,y) separates them.
        assert!(!analyzer.equivalent(dom[1], dom[2]));
        // a2 vs a3: separation would need an in-path of length 3, i.e. 4
        // variables — beyond the budget. Equivalent.
        assert!(analyzer.equivalent(dom[2], dom[3]));
        assert!(analyzer.equivalent(dom[5], dom[9]));
        assert!(!analyzer.equivalent(dom[0], dom[1]));
        // End effects: a11 has out-path 1, a10 has ≥ 2: separated.
        assert!(!analyzer.equivalent(dom[10], dom[11]));
        assert!(!analyzer.equivalent(dom[11], dom[12]));
    }

    #[test]
    fn chain_partition_counts_interior_and_rim_classes() {
        // Classes of a finite (len+1)-element chain under ≡ₙ:
        // n−1 in-path classes {a0}…{a_{n-2}}, one interior class, and
        // n−1 out-path classes at the rim: 2(n−1) + 1 in total.
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 10, 0);
        for n in 2..=4 {
            let analyzer = TypeAnalyzer::new(&inst, &mut voc, n);
            assert_eq!(analyzer.partition().len(), 2 * (n - 1) + 1, "n = {n}");
        }
    }

    #[test]
    fn partition_sink_reports_elements_constants_and_classes() {
        use bddfc_core::obs::Memory;
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 10, 2);
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        let sink = Memory::new(16);
        let classes = analyzer.partition_with(&sink);
        assert_eq!(sink.event_counts(), vec![(("analyzer", "partition"), 1)]);
        assert_eq!(sink.counter("analyzer", "partition", "elements"), 11);
        assert_eq!(sink.counter("analyzer", "partition", "constants"), 2);
        assert_eq!(
            sink.counter("analyzer", "partition", "classes"),
            classes.len() as u64
        );
        // Every non-opening element joined by signature or by a pairwise
        // check; the interned queries are what the signatures point at.
        let elements = 11;
        let joined = elements - classes.len() as u64;
        let sig_hits = sink.counter("analyzer", "partition", "sig_hits");
        assert!(sig_hits > 0 && sig_hits <= joined, "sig_hits = {sig_hits}");
        assert!(sink.counter("analyzer", "partition", "eq_checks") > 0);
        assert!(sink.counter("analyzer", "partition", "queries") > 0);
        // The instrumented entry point computes the same partition.
        assert_eq!(classes, analyzer.partition());
    }

    #[test]
    fn chain_partition_joins_interior_elements_by_signature() {
        // a0 → … → a10 at n = 3: {a0}, {a1}, the interior {a2…a8}, {a9},
        // {a10}. Interior elements past a2 share a2's canonical queries,
        // so they join its class without a homomorphism search.
        use bddfc_core::obs::Memory;
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 10, 0);
        let dom = inst.sorted_domain();
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        let sink = Memory::new(16);
        let classes = analyzer.partition_with(&sink);
        let expect: Vec<Vec<ConstId>> = vec![
            vec![dom[0]],
            vec![dom[1]],
            dom[2..=8].to_vec(),
            vec![dom[9]],
            vec![dom[10]],
        ];
        assert_eq!(classes, expect);
        assert!(sink.counter("analyzer", "partition", "sig_hits") > 0);
    }

    #[test]
    fn equivalent_elements_with_different_signatures_share_a_class() {
        // d has one unlabelled E-successor, d2 has two. At n = 3, d2's
        // canonical query E(x0,x1) ∧ E(x0,x2) is not one of d's, so the
        // signatures differ, yet it maps to d (x1, x2 ↦ s): d ≡₃ d2, and
        // s ≡₃ t1 ≡₃ t2. The pairwise fallback must find both classes.
        use bddfc_core::obs::Memory;
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let d = voc.fresh_null("d");
        let s = voc.fresh_null("s");
        let d2 = voc.fresh_null("d");
        let t1 = voc.fresh_null("t");
        let t2 = voc.fresh_null("t");
        let mut inst = Instance::new();
        inst.insert(Fact::new(e, vec![d, s]));
        inst.insert(Fact::new(e, vec![d2, t1]));
        inst.insert(Fact::new(e, vec![d2, t2]));
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        assert!(analyzer.equivalent(d, d2));
        let sink = Memory::new(16);
        let classes = analyzer.partition_with(&sink);
        assert_eq!(classes, vec![vec![d, d2], vec![s, t1, t2]]);
        // d2 and t1 fell back to pairwise checks; t2 has t1's signature.
        assert_eq!(sink.counter("analyzer", "partition", "eq_checks"), 2);
        assert_eq!(sink.counter("analyzer", "partition", "sig_hits"), 1);
    }

    #[test]
    fn bucket_key_ignores_facts_too_wide_for_n() {
        // T(a, v0, v1) with a named: at n = 1 no query can mention the
        // T-fact (it needs two variables), so v0 ≡₁ v1 although they sit
        // at different positions.
        let mut voc = Vocabulary::new();
        let t = voc.pred("T", 3);
        let a = voc.fresh_null("a");
        voc.name_element(a);
        let v0 = voc.fresh_null("v");
        let v1 = voc.fresh_null("v");
        let mut inst = Instance::new();
        inst.insert(Fact::new(t, vec![a, v0, v1]));
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 1);
        assert_eq!(analyzer.partition(), vec![vec![a], vec![v0, v1]]);
    }

    #[test]
    fn constants_are_singletons() {
        // Remark 1: named elements are equivalent only to themselves.
        let mut voc = Vocabulary::new();
        let inst = chain(&mut voc, 6, 7);
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 2);
        assert_eq!(analyzer.partition().len(), 7);
    }

    #[test]
    fn example2_structures_compared() {
        // Example 2: chase prefix (a chain) vs the triangle M'. Types of a
        // over Θ = {E,U}: ptp₂ equal, ptp₃ differ (triangle query).
        let mut voc = Vocabulary::new();
        let (_, tri, _) = parse_into("E(a,b). E(b,c). E(c,a).", &mut voc).unwrap();
        // A long chain starting at a (mimicking Chase(D,T) far enough for
        // ptp₃ purposes).
        let mut chain_src = String::from("E(a,b).");
        let mut prev = "b".to_string();
        for i in 0..8 {
            chain_src.push_str(&format!(" E({prev},z{i})."));
            prev = format!("z{i}");
        }
        let mut voc_chain = voc.clone();
        let (_, chain_inst, _) = parse_into(&chain_src, &mut voc_chain).unwrap();
        // Only a, b are genuinely named in the paper's D; our parser names
        // everything, so re-mark the z's and c as nulls... The vocabulary
        // trick: use fresh copies where those are nulls.
        // Simpler: compare ptp inclusion of `a` in both directions.
        let a = voc.find_const("a").unwrap();
        let an2 = TypeAnalyzer::new(&chain_inst, &mut voc_chain.clone(), 2);
        // With n = 2 the chain's canonical queries at `a` hold in the
        // triangle too (single edges).
        assert!(an2.ptp_included_in(a, &tri, a));
        let tri_an3 = TypeAnalyzer::new(&tri, &mut voc.clone(), 3);
        // ptp₃ of a in the triangle contains E(y,x1) ∧ E(x1,x2) ∧ E(x2,y)
        // — hmm, with a,b,c all named constants the subsets are empty.
        // The assertion that matters: the *chain* types at a do include
        // into the triangle (quotients only add atoms)…
        let _ = tri_an3;
        // …and the triangle's 3-element cycle query does not hold in the
        // chain. We verify via a direct query instead of the analyzer
        // (constants in the triangle pin every element).
        let cyc = bddfc_core::parse_query("E(Y,X1), E(X1,X2), E(X2,Y)", &mut voc_chain).unwrap();
        assert!(bddfc_core::hom::satisfies_cq(&tri, &cyc));
        assert!(!bddfc_core::hom::satisfies_cq(&chain_inst, &cyc));
    }

    #[test]
    fn branching_structure_distinguished_from_chain() {
        // d with two distinct successors vs. d' with one: ptp₃ differs…
        // over *distinct successors observable by CQs*? CQs cannot express
        // inequality, so F/G labels make the difference.
        let mut voc = Vocabulary::new();
        let f = voc.pred("F", 2);
        let g = voc.pred("G", 2);
        let mut inst = Instance::new();
        let d = voc.fresh_null("d");
        let s1 = voc.fresh_null("s");
        let s2 = voc.fresh_null("s");
        let d2 = voc.fresh_null("d");
        let t = voc.fresh_null("t");
        inst.insert(Fact::new(f, vec![d, s1]));
        inst.insert(Fact::new(g, vec![d, s2]));
        inst.insert(Fact::new(f, vec![d2, t]));
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 2);
        // d has a G-successor; d2 does not.
        assert!(!analyzer.equivalent(d, d2));
        // but d's type includes d2's: everything true at d2 is true at d.
        assert!(analyzer.ptp_included_in(d2, &inst, d));
    }

    #[test]
    fn self_loop_absorbs_chain_types() {
        // An element with E(x,x) satisfies every connected E-path query:
        // chain elements' types include into it.
        let mut voc = Vocabulary::new();
        let e = voc.pred("E", 2);
        let mut inst = chain(&mut voc, 5, 0);
        let lp = voc.fresh_null("loop");
        inst.insert(Fact::new(e, vec![lp, lp]));
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        let dom = inst.sorted_domain();
        // dom[0] is a0 (chain head).
        assert!(analyzer.ptp_included_in(dom[0], &inst, lp));
        // The loop's type (E(y,y) ∈ ptp₁) does not include into a0.
        assert!(!analyzer.ptp_included_in(lp, &inst, dom[0]));
    }

    #[test]
    fn disconnected_parts_do_not_affect_types() {
        // Adding a far-away disconnected component leaves ≡ₙ untouched.
        let mut voc = Vocabulary::new();
        let mut inst = chain(&mut voc, 6, 0);
        let dom_before = inst.sorted_domain();
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        let eq_before = analyzer.equivalent(dom_before[3], dom_before[4]);
        drop(analyzer);
        // Add an isolated U-marked element.
        let u = voc.pred("U", 1);
        let iso = voc.fresh_null("iso");
        inst.insert(Fact::new(u, vec![iso]));
        let analyzer = TypeAnalyzer::new(&inst, &mut voc, 3);
        assert_eq!(analyzer.equivalent(dom_before[3], dom_before[4]), eq_before);
    }
}
