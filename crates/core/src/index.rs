//! The assembled SemTree index.

use semtree_cluster::{ClusterError, MetricsSnapshot};
use semtree_dist::{DistConfig, DistSemTree, GlobalStats, Neighbor, Query, QueryOutcome};
use semtree_distance::{TermResolutions, TripleDistance, TripleResolution};
use semtree_fastmap::{Embedding, FastMap};
use semtree_model::{Triple, TripleId, TripleStore};

use crate::builder::SemTreeBuilder;
use crate::error::BuildError;
use crate::hit::Hit;

/// How many candidates a refined k-NN reads per answer it returns.
const OVERFETCH: usize = 4;

/// Per-query tuning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryOptions {
    /// Re-rank candidates by the true semantic distance. The KD-tree works
    /// in the (lossy) FastMap space; refinement over-fetches `4 × k`,
    /// recomputes Eq. 1 on the candidates, and keeps the best `k` — the
    /// standard filter-and-refine step (DESIGN.md §5).
    pub refine: bool,
}

impl QueryOptions {
    /// Plain embedded-space search (the paper's configuration).
    #[must_use]
    pub fn raw() -> Self {
        QueryOptions::default()
    }

    /// Filter-and-refine.
    #[must_use]
    pub fn refined() -> Self {
        QueryOptions { refine: true }
    }
}

/// The SemTree index: triples → Eq. 1 distance → FastMap space →
/// distributed KD-tree.
pub struct SemTree {
    store: TripleStore,
    distance: TripleDistance,
    embedding: Embedding,
    /// Every term of `store`'s term table, resolved; each insert resolves
    /// the terms it interned.
    resolutions: TermResolutions,
    tree: DistSemTree,
    dimensions: usize,
    bucket_size: usize,
    partitions: usize,
}

/// A triple with its vocabulary lookups done.
type Resolved<'t> = (&'t Triple, TripleResolution);

/// A neighbour as a query ranks it: its id, its distance in the embedded
/// space and, when refined, its Eq. 1 distance.
type Ranked = (TripleId, f64, Option<f64>);

impl SemTree {
    /// Start building an index.
    #[must_use]
    pub fn builder() -> SemTreeBuilder {
        SemTreeBuilder::new()
    }

    pub(crate) fn assemble(
        builder: SemTreeBuilder,
        distance: TripleDistance,
    ) -> Result<SemTree, BuildError> {
        let store = builder.store;
        let resolutions = distance.resolve_terms(&store);

        // FastMap over the semantic distance, each row it reads built
        // from term distances over the store's term table.
        let rows = distance.rows(&store, &resolutions);
        let embedding = FastMap::new(builder.dimensions)
            .with_seed(builder.seed)
            .embed_rows(store.len(), &|s| rows.row(s));

        // Load the distributed tree; the embedding is the fan-out sample.
        let tree = build_tree(
            &embedding,
            builder.dimensions,
            builder.bucket_size,
            builder.partitions,
            semtree_cluster::CostModel::zero(),
        );

        Ok(SemTree {
            store,
            distance,
            embedding,
            resolutions,
            tree,
            dimensions: builder.dimensions,
            bucket_size: builder.bucket_size,
            partitions: builder.partitions,
        })
    }

    /// Reassemble an index from persisted parts (see the [`crate::persist`]
    /// format): the expensive FastMap embedding is reused verbatim; only
    /// the distributed tree is reloaded from the stored coordinates.
    pub(crate) fn from_parts(
        store: TripleStore,
        distance: TripleDistance,
        embedding: Embedding,
        bucket_size: usize,
        partitions: usize,
        cost: semtree_cluster::CostModel,
    ) -> SemTree {
        let dimensions = embedding.dimensions();
        let tree = build_tree(&embedding, dimensions, bucket_size, partitions, cost);
        let resolutions = distance.resolve_terms(&store);
        SemTree {
            store,
            distance,
            embedding,
            resolutions,
            tree,
            dimensions,
            bucket_size,
            partitions,
        }
    }

    /// Leaf bucket capacity the tree was built with.
    #[must_use]
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// Partition count the tree was built with.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of indexed (distinct) triples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the index is empty (never true: builders reject empty
    /// corpora).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The triple stored under an id.
    #[must_use]
    pub fn triple(&self, id: TripleId) -> Option<&Triple> {
        self.store.get(id)
    }

    /// The underlying document/triple store.
    #[must_use]
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The semantic distance in use.
    #[must_use]
    pub fn distance(&self) -> &TripleDistance {
        &self.distance
    }

    /// The FastMap embedding.
    #[must_use]
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// FastMap dimensionality.
    #[must_use]
    pub fn dimensions(&self) -> usize {
        self.dimensions
    }

    /// Project an arbitrary (possibly unseen) triple into the index's
    /// FastMap space: the coordinates
    /// `embedding().project_with(|p| distance().distance(query, p's triple))`
    /// gives, bit for bit. The query's vocabulary lookups are done once;
    /// the stored triples' are read by term id, so each of the (up to two
    /// per axis) Eq. 1 evaluations does none.
    #[must_use]
    pub fn project(&self, query: &Triple) -> Vec<f64> {
        self.project_resolved((query, self.distance.resolve(query)))
    }

    fn project_resolved(&self, query: Resolved) -> Vec<f64> {
        self.embedding
            .project_with(&|pivot| self.distance.resolved_distance(query, self.resolved(pivot)))
    }

    /// The stored triple at index `i` with its resolution, read by term id.
    fn resolved(&self, i: usize) -> Resolved<'_> {
        let ids = self.store.term_ids()[i];
        (&self.store.triples()[i], self.resolutions.triple(ids))
    }

    /// k-nearest triples by example (paper §III-B.3), default options.
    #[must_use]
    pub fn knn(&self, query: &Triple, k: usize) -> Vec<Hit> {
        self.knn_with(query, k, QueryOptions::default())
    }

    /// k-nearest with explicit [`QueryOptions`].
    #[must_use]
    pub fn knn_with(&self, query: &Triple, k: usize, opts: QueryOptions) -> Vec<Hit> {
        self.nearest(query, k, opts).map(|r| self.hit(r)).collect()
    }

    /// [`Self::knn_with`] in hit order, without cloning a triple into a
    /// [`Hit`] per neighbour.
    pub(crate) fn nearest(
        &self,
        query: &Triple,
        k: usize,
        opts: QueryOptions,
    ) -> impl Iterator<Item = Ranked> {
        let fetch = if opts.refine {
            k.saturating_mul(OVERFETCH)
        } else {
            k
        };
        let read = |point| Query::Knn { point, k: fetch };
        self.ranked(query, opts.refine, read).into_iter().take(k)
    }

    /// Range query in the embedded space (paper §III-B.4): all triples
    /// whose FastMap image lies within `radius` of the query's image.
    #[must_use]
    pub fn range(&self, query: &Triple, radius: f64) -> Vec<Hit> {
        let read = |point| Query::Range { point, radius };
        let ranked = self.ranked(query, false, read);
        ranked.into_iter().map(|r| self.hit(r)).collect()
    }

    /// Range query by *semantic* radius: over-fetches in the embedded
    /// space (scaled by `slack ≥ 1`), then keeps candidates whose true
    /// Eq. 1 distance is within `radius`.
    #[must_use]
    pub fn range_semantic(&self, query: &Triple, radius: f64, slack: f64) -> Vec<Hit> {
        let radius_embedded = radius * slack.max(1.0);
        let read = |point| Query::Range {
            point,
            radius: radius_embedded,
        };
        self.ranked(query, true, read)
            .into_iter()
            .filter(|&(_, _, semantic)| semantic.is_some_and(|d| d <= radius))
            .map(|r| self.hit(r))
            .collect()
    }

    /// The tree's neighbours of `query`'s image, read by the query `read`
    /// makes of that image. Raw, they stay in the tree's order. Refined,
    /// each gets its Eq. 1 distance to `query` from the resolutions held by
    /// term id, and they are sorted by it, stably.
    fn ranked(
        &self,
        query: &Triple,
        refine: bool,
        read: impl FnOnce(Vec<f64>) -> Query,
    ) -> Vec<Ranked> {
        let query = (query, self.distance.resolve(query));
        let point = self.project_resolved(query);
        let mut ranked: Vec<Ranked> = read_neighbors(&self.tree, read(point))
            .into_iter()
            .map(|n| {
                let id = triple_id(n.payload);
                let semantic = refine.then(|| {
                    self.distance
                        .resolved_distance(query, self.resolved(id.index()))
                });
                (id, n.dist, semantic)
            })
            .collect();
        if refine {
            ranked.sort_by(|a, b| a.2.unwrap_or(a.1).total_cmp(&b.2.unwrap_or(b.1)));
        }
        ranked
    }

    /// A ranked neighbour as a [`Hit`], its triple cloned from the store.
    fn hit(&self, (id, embedded, semantic): Ranked) -> Hit {
        Hit {
            id,
            triple: self.store.triples()[id.index()].clone(),
            embedded_distance: embedded,
            semantic_distance: semantic,
        }
    }

    /// Exact pattern matching over the indexed triples (`None` positions
    /// are wildcards) — the store-level complement of the approximate
    /// index queries, for "various pattern queries" on bound positions.
    pub fn find_pattern<'a>(
        &'a self,
        pattern: &'a semtree_model::TriplePattern,
    ) -> impl Iterator<Item = (TripleId, &'a Triple)> + 'a {
        self.store.matching(pattern)
    }

    /// Incrementally insert a triple into the *built* index under the named
    /// document (created on demand) — the paper's dynamic insertion
    /// surfaced at the API level. The new triple is projected into the
    /// existing FastMap space via the stored pivots (its coordinates do not
    /// perturb previously indexed points), then inserted through the
    /// distributed insertion algorithm. Re-inserting an already-indexed
    /// triple records the new document occurrence without duplicating the
    /// index point.
    ///
    /// Returns the triple's id and whether it was new to the index.
    pub fn insert_triple(&mut self, document: &str, triple: Triple) -> (TripleId, bool) {
        let doc = match self.store.document_by_name(document) {
            Some(d) => d.id,
            None => self.store.create_document(document),
        };
        let known = self.store.len();
        let id = self.store.insert(doc, triple);
        self.resolutions.extend(&self.distance, &self.store);
        if self.store.len() == known {
            return (id, false);
        }
        let point = self.project(&self.store.triples()[id.index()]);
        insert_point(&self.tree, &point, u64::from(id.0));
        self.embedding.push_point(&point);
        (id, true)
    }

    /// Distributed-tree statistics (per-partition).
    ///
    /// # Errors
    /// Fails when a partition in the walk is unreachable.
    pub fn tree_stats(&self) -> Result<GlobalStats, ClusterError> {
        self.tree.try_global_stats()
    }

    /// Interconnect metrics.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.tree.metrics()
    }

    /// Reset interconnect metrics.
    pub fn reset_metrics(&self) {
        self.tree.reset_metrics();
    }

    /// Shut the simulated cluster down.
    pub fn shutdown(self) {
        self.tree.shutdown();
    }
}

/// The triple a tree payload names: this index writes triple ids as
/// payloads.
fn triple_id(payload: u64) -> TripleId {
    TripleId(u32::try_from(payload).expect("payloads are triple ids"))
}

/// Run a read query against the in-process tree. The cluster lives in
/// this process and its actors outlive the facade, so the only failure
/// is a dead partition thread — unrecoverable index corruption.
fn read_neighbors(tree: &DistSemTree, query: Query) -> Vec<Neighbor<u64>> {
    tree.query(query)
        .and_then(QueryOutcome::neighbors)
        .expect("in-process cluster query failed")
}

/// Insert into the in-process tree; same failure reasoning as
/// [`read_neighbors`], and a silently dropped insert would desync the
/// tree from the triple store.
fn insert_point(tree: &DistSemTree, point: &[f64], payload: u64) {
    tree.query(Query::insert(point, payload))
        .and_then(QueryOutcome::inserted)
        .expect("in-process cluster insert failed");
}

/// Build (or rebuild) the distributed tree over an embedding's points.
fn build_tree(
    embedding: &Embedding,
    dims: usize,
    bucket_size: usize,
    partitions: usize,
    cost: semtree_cluster::CostModel,
) -> DistSemTree {
    let config = DistConfig::new(dims)
        .with_bucket_size(bucket_size)
        .with_max_partitions(partitions.max(64));
    let tree = if partitions <= 1 {
        DistSemTree::single(config, cost)
    } else {
        let sample: Vec<Vec<f64>> = embedding
            .iter()
            .take(4096)
            .map(|(_, p)| p.to_vec())
            .collect();
        DistSemTree::with_fanout(config, cost, partitions, &sample)
    };
    for (i, p) in embedding.iter() {
        insert_point(&tree, p, i as u64);
    }
    tree
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use semtree_model::Term;
    use semtree_vocab::wordnet;

    use super::*;

    fn triple(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::literal(s), Term::concept(p), Term::concept(o))
    }

    fn small_index(partitions: usize) -> SemTree {
        let mut b = SemTree::builder()
            .dimensions(4)
            .bucket_size(4)
            .partitions(partitions)
            .register_standard(Arc::new(wordnet::mini_taxonomy()));
        let verbs = [
            "accept", "block", "send", "receive", "start", "stop", "monitor", "check",
        ];
        let objs = ["command", "message", "mode", "signal"];
        let mut triples = Vec::new();
        for (i, v) in verbs.iter().enumerate() {
            for (j, o) in objs.iter().enumerate() {
                triples.push(triple(&format!("ACT{:02}", (i + j) % 5), v, o));
            }
        }
        b.add_triples("D", triples);
        b.build().unwrap()
    }

    #[test]
    fn the_build_evaluates_eq1_no_more_often_than_the_memo_did() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        use semtree_distance::MemoizedDistance;
        use semtree_reqgen::{CorpusGenerator, GenConfig};

        let generated =
            CorpusGenerator::new(GenConfig::small().with_documents(30).with_seed(5)).generate();
        let domain = &generated.domain;
        let mut b = SemTree::builder()
            .dimensions(6)
            .seed(17)
            .register_standard(Arc::new(wordnet::mini_taxonomy()))
            .register_vocabulary("Fun", Arc::clone(domain.fun_taxonomy()));
        for (prefix, tax) in domain.parameter_taxonomies() {
            b = b.register_vocabulary(prefix.clone(), Arc::clone(tax));
        }
        b.add_store(&generated.store);
        let idx = b.build().unwrap();
        let (n, evaluations, memo_pairs) = {
            let triples = idx.store.triples();
            let n = triples.len();
            // Eq. 1 by pairs, every triple resolved once: the oracle the
            // build embedded with before it read rows.
            let resolved: Vec<_> = triples.iter().map(|t| idx.distance.resolve(t)).collect();
            let oracle = |i: usize, j: usize| {
                let (a, b) = ((&triples[i], resolved[i]), (&triples[j], resolved[j]));
                idx.distance.resolved_distance(a, b)
            };
            let fastmap = FastMap::new(6).with_seed(17);
            let bits = |e: &Embedding| -> Vec<u64> {
                (0..e.len())
                    .flat_map(|i| e.point(i).iter().map(|c| c.to_bits()))
                    .collect()
            };

            // The pair oracle, counted: the embedding the rows gave the index.
            let evaluations = AtomicUsize::new(0);
            let counted = fastmap.embed(n, &|i, j| {
                evaluations.fetch_add(1, Ordering::Relaxed);
                oracle(i, j)
            });
            assert_eq!(bits(&counted), bits(&idx.embedding));

            // The memo the build used before, over the same oracle.
            let memo = MemoizedDistance::new(&oracle);
            let memoized = fastmap.embed(n, &|i, j| memo.distance(i, j));
            assert_eq!(bits(&memoized), bits(&idx.embedding));
            assert_eq!(memoized.pivots(), idx.embedding.pivots());
            (n, evaluations.into_inner(), memo.cached_pairs())
        };
        assert!(n > 100, "corpus too small to say anything: {n} triples");
        assert!(
            evaluations <= memo_pairs,
            "{evaluations} evaluations, the memo made {memo_pairs}"
        );
        idx.shutdown();
    }

    #[test]
    fn knn_exact_match_ranks_first() {
        let idx = small_index(1);
        let q = triple("ACT00", "accept", "command");
        let hits = idx.knn(&q, 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].triple, q);
        assert!(hits[0].embedded_distance < 1e-9);
        idx.shutdown();
    }

    #[test]
    fn knn_brute_force_agreement_in_embedded_space() {
        let idx = small_index(1);
        let q = triple("ACT01", "send", "message");
        let point = idx.project(&q);
        let mut brute: Vec<(f64, usize)> = (0..idx.len())
            .map(|i| {
                let p = idx.embedding().point(i);
                let d = p
                    .iter()
                    .zip(&point)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                (d, i)
            })
            .collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let hits = idx.knn(&q, 5);
        for (h, (bd, _)) in hits.iter().zip(brute.iter()) {
            assert!((h.embedded_distance - bd).abs() < 1e-9);
        }
        idx.shutdown();
    }

    #[test]
    fn multi_partition_index_matches_single_partition() {
        let single = small_index(1);
        let multi = small_index(3);
        let q = triple("ACT02", "start", "mode");
        let h1: Vec<f64> = single
            .knn(&q, 6)
            .iter()
            .map(|h| h.embedded_distance)
            .collect();
        let h3: Vec<f64> = multi
            .knn(&q, 6)
            .iter()
            .map(|h| h.embedded_distance)
            .collect();
        for (a, b) in h1.iter().zip(&h3) {
            assert!((a - b).abs() < 1e-9, "{h1:?} vs {h3:?}");
        }
        single.shutdown();
        multi.shutdown();
    }

    #[test]
    fn nearest_is_ascending_on_a_partitioned_tree() {
        let idx = small_index(3);
        assert!(idx.tree_stats().unwrap().partitions.len() > 1);
        for opts in [QueryOptions::default(), QueryOptions::refined()] {
            for q in [
                triple("ACT00", "accept", "command"),
                triple("ACT03", "stop", "signal"),
            ] {
                let d: Vec<f64> = idx
                    .nearest(&q, 12, opts)
                    .map(|(_, embedded, semantic)| semantic.unwrap_or(embedded))
                    .collect();
                assert_eq!(d.len(), 12);
                assert!(d.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()), "{d:?}");
            }
        }
        idx.shutdown();
    }

    #[test]
    fn refinement_orders_by_semantic_distance() {
        let idx = small_index(1);
        let q = triple("ACT00", "accept", "command");
        let hits = idx.knn_with(&q, 5, QueryOptions::refined());
        assert_eq!(hits.len(), 5);
        for h in &hits {
            assert!(h.semantic_distance.is_some());
        }
        for w in hits.windows(2) {
            assert!(w[0].ranking_distance() <= w[1].ranking_distance() + 1e-12);
        }
        idx.shutdown();
    }

    #[test]
    fn range_semantic_filters_by_true_distance() {
        let idx = small_index(1);
        let q = triple("ACT00", "accept", "command");
        let hits = idx.range_semantic(&q, 0.25, 2.0);
        assert!(!hits.is_empty(), "the exact match is within any radius");
        for h in &hits {
            assert!(h.semantic_distance.unwrap() <= 0.25);
        }
        idx.shutdown();
    }

    #[test]
    fn range_in_embedded_space() {
        let idx = small_index(1);
        let q = triple("ACT00", "accept", "command");
        let all = idx.range(&q, 10.0); // distances are ≤ 1: radius 10 = everything
        assert_eq!(all.len(), idx.len());
        let none = idx.range(&q, -0.0);
        assert!(none.len() <= 1); // at most the exact match at distance 0
        idx.shutdown();
    }

    #[test]
    fn project_is_stable_for_indexed_triples() {
        let idx = small_index(1);
        let t = idx.triple(TripleId(3)).unwrap().clone();
        let projected = idx.project(&t);
        let stored = idx.embedding().point(3);
        for (a, b) in projected.iter().zip(stored) {
            assert!((a - b).abs() < 1e-9);
        }
        idx.shutdown();
    }

    /// `project` against the unresolved Eq. 1 over the stored pivots, bits.
    fn assert_projects_as_eq1(idx: &SemTree, queries: &[Triple]) {
        for q in queries {
            let want = idx.embedding().project_with(&|p| {
                let pivot = idx.triple(TripleId(p as u32)).unwrap();
                idx.distance().distance(q, pivot)
            });
            let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&idx.project(q)), bits(&want), "{q}");
        }
    }

    /// Refined `knn_with` and `range_semantic` against the raw answers
    /// re-ranked by the unresolved Eq. 1 with a stable sort: ids, both
    /// distances' bits.
    fn assert_refines_as_eq1(idx: &SemTree, queries: &[Triple]) {
        let bits = |hits: Vec<Hit>| -> Vec<(TripleId, u64, Option<u64>)> {
            let bits = |h: Hit| {
                (
                    h.id,
                    h.embedded_distance.to_bits(),
                    h.semantic_distance.map(f64::to_bits),
                )
            };
            hits.into_iter().map(bits).collect()
        };
        let eq1 = |q: &Triple, hits: Vec<Hit>| -> Vec<Hit> {
            let mut hits: Vec<Hit> = hits
                .into_iter()
                .map(|h| Hit {
                    semantic_distance: Some(idx.distance().distance(q, &h.triple)),
                    ..h
                })
                .collect();
            hits.sort_by(|a, b| a.ranking_distance().total_cmp(&b.ranking_distance()));
            hits
        };
        for q in queries {
            for k in [1, 3, 8] {
                let mut want = eq1(q, idx.knn_with(q, 4 * k, QueryOptions::raw()));
                want.truncate(k);
                let got = idx.knn_with(q, k, QueryOptions::refined());
                assert_eq!(bits(got), bits(want), "{q} k={k}");
            }
            let (radius, slack) = (0.4, 2.0);
            let mut want = eq1(q, idx.range(q, radius * slack));
            want.retain(|h| h.ranking_distance() <= radius);
            let got = idx.range_semantic(q, radius, slack);
            assert_eq!(bits(got), bits(want), "{q} range");
        }
    }

    #[test]
    fn project_is_unresolved_eq1_bit_for_bit() {
        let held_out = [
            triple("ACT07", "validate", "command"),
            triple("ACT01", "accept", "signal"),
            triple("ZZZ", "reject", "message"),
            triple("ACT00", "acceptx", "modex"),
            Triple::new(
                Term::concept("accept"),
                Term::literal("send"),
                Term::concept_in("Ghost", "mode"),
            ),
        ];
        let mut idx = small_index(1);
        assert_projects_as_eq1(&idx, &held_out);
        assert_refines_as_eq1(&idx, &held_out);
        for (i, t) in held_out.iter().enumerate() {
            idx.insert_triple("late", t.clone());
            assert_projects_as_eq1(&idx, &held_out[i..]);
            assert_refines_as_eq1(&idx, &held_out);
        }
        let saved = crate::persist::save_index_string(&idx);
        let loaded = crate::persist::load_index_str(
            &saved,
            idx.distance().clone(),
            semtree_cluster::CostModel::zero(),
        )
        .unwrap();
        assert_projects_as_eq1(&loaded, &held_out);
        assert_refines_as_eq1(&loaded, &held_out);
        for q in &held_out {
            assert_eq!(loaded.project(q), idx.project(q));
        }
        idx.shutdown();
        loaded.shutdown();
    }

    #[test]
    fn find_pattern_filters_exactly() {
        use semtree_model::TriplePattern;
        let idx = small_index(1);
        let all = idx.find_pattern(&TriplePattern::any()).count();
        assert_eq!(all, idx.len());
        let p = TriplePattern::any().with_predicate(Term::concept("accept"));
        let hits: Vec<_> = idx.find_pattern(&p).collect();
        assert_eq!(hits.len(), 4); // one per object class
        assert!(hits.iter().all(|(_, t)| t.predicate.lexical() == "accept"));
        idx.shutdown();
    }

    #[test]
    fn incremental_insert_is_queryable() {
        let mut idx = small_index(1);
        let before = idx.len();
        let new = triple("NEWACT", "validate", "command");
        let (id, fresh) = idx.insert_triple("late-doc", new.clone());
        assert!(fresh);
        assert_eq!(idx.len(), before + 1);
        assert_eq!(idx.triple(id), Some(&new));
        // The new triple is immediately its own nearest neighbour.
        let hits = idx.knn(&new, 1);
        assert_eq!(hits[0].id, id);
        assert!(hits[0].embedded_distance < 1e-9);
        // The document occurrence was recorded.
        assert!(idx.store().document_by_name("late-doc").is_some());
        idx.shutdown();
    }

    #[test]
    fn incremental_reinsert_does_not_duplicate() {
        let mut idx = small_index(1);
        let existing = idx.triple(TripleId(0)).unwrap().clone();
        let before = idx.len();
        let (id, fresh) = idx.insert_triple("dup-doc", existing);
        assert!(!fresh);
        assert_eq!(id, TripleId(0));
        assert_eq!(idx.len(), before);
        idx.shutdown();
    }

    #[test]
    fn incremental_inserts_preserve_query_exactness() {
        let mut idx = small_index(1);
        for i in 0..20u32 {
            idx.insert_triple("inc", triple(&format!("X{i}"), "monitor", "sensor"));
        }
        // Brute-force check in the embedded space.
        let q = triple("X7", "monitor", "sensor");
        let point = idx.project(&q);
        let mut best = f64::INFINITY;
        for i in 0..idx.len() {
            let p = idx.embedding().point(i);
            let d = p
                .iter()
                .zip(&point)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            best = best.min(d);
        }
        let hits = idx.knn(&q, 1);
        assert!((hits[0].embedded_distance - best).abs() < 1e-9);
        idx.shutdown();
    }

    #[test]
    fn accessors() {
        let idx = small_index(1);
        assert!(!idx.is_empty());
        assert_eq!(idx.dimensions(), 4);
        assert_eq!(idx.len(), 32);
        assert!(idx.triple(TripleId(0)).is_some());
        assert!(idx.triple(TripleId(9999)).is_none());
        assert!(idx.store().len() == idx.len());
        let stats = idx.tree_stats().expect("stats");
        assert_eq!(stats.total_points(), 32);
        idx.shutdown();
    }
}
