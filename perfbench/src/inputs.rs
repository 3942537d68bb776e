//! Seeded inputs. Everything a workload feeds the product derives from
//! `--seed` alone; the product only ever sees the generated values.
//! Input generation runs before any timed phase and is never part of
//! `setup_s`.

use std::path::Path;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use semtree_bench::semantic_points;
use semtree_model::{Term, Triple};
use semtree_reqgen::{Corpus, CorpusGenerator, DomainVocabulary, GenConfig};

/// Seed of every FastMap embedding the benchmark builds. FastMap draws
/// its pivots from this seed and the draw fixes the geometry of the
/// whole space: between two draws `knn_local`'s median latency moved
/// from 6 µs to 14 µs. A run's `--seed` therefore never reaches
/// FastMap; it decides which points are stored and which are queried,
/// and in what order, so every seed measures the same benchmark on
/// different inputs.
pub const GEOMETRY_SEED: u64 = 42;

/// How big a run is. `full` is what `BENCHMARK.json` measures; `smoke`
/// is the few-second size the package's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Points in the `knn_*` and `serve_knn` trees.
    pub tree_points: usize,
    /// Points one repetition of `ingest_durable` ingests.
    pub ingest_points: usize,
    /// Documents in the `doc_retrieval` corpus.
    pub documents: usize,
    /// Ops per chunk of the steady workloads' query cycle (`queries`
    /// must be a multiple of it).
    pub chunk_ops: usize,
    /// Ops per round of the served layer probes (sized so a round's p99
    /// keeps 50 samples beyond it).
    pub probe_ops: usize,
    /// Points the traced run's layer probes work on.
    pub probe_points: usize,
    /// Documents in the layer probes' corpus.
    pub probe_documents: usize,
    /// Fewest repetitions of a from-scratch phase (`quiet_reps`): a run
    /// makes as many more as fit into its `--seconds`.
    pub reps: usize,
    /// Most set-ups a steady workload repeats, however short they are.
    pub max_reps: usize,
    /// Timed queries per workload, never inserted: one cycle of the
    /// measured phase.
    pub queries: usize,
    /// Held-out queries answered by brute force in the answer check.
    pub check_queries: usize,
}

impl Sizes {
    /// The published sizes.
    pub const FULL: Sizes = Sizes {
        tree_points: 100_000,
        ingest_points: 16_000,
        documents: 400,
        chunk_ops: 64,
        probe_ops: 5_000,
        probe_points: 20_000,
        probe_documents: 40,
        reps: 3,
        max_reps: 12,
        queries: 4096,
        check_queries: 64,
    };

    /// The harness-rot size: 2 k points, a cycle of 256 queries.
    pub const SMOKE: Sizes = Sizes {
        tree_points: 2_000,
        ingest_points: 1_600,
        documents: 6,
        chunk_ops: 64,
        probe_ops: 200,
        probe_points: 1_000,
        probe_documents: 3,
        reps: 2,
        max_reps: 2,
        queries: 256,
        check_queries: 16,
    };
}

/// Embedded semantic points for a tree workload: `data` is inserted,
/// `queries` and `check` are embedded with it but never inserted.
pub struct TreeInputs {
    /// The points the tree stores, payload = index.
    pub data: Vec<Vec<f64>>,
    /// The timed queries.
    pub queries: Vec<Vec<f64>>,
    /// The brute-force-checked queries.
    pub check: Vec<Vec<f64>>,
}

/// The one population every tree workload draws from: `count` embedded
/// semantic points (distinct domain triples under the real Eq. 1
/// distance, one FastMap embedding at [`GEOMETRY_SEED`]). It does not
/// depend on the run's seed and takes seconds to embed, so it is kept
/// in `cache` (a directory the benchmark owns) between runs; a missing,
/// short or foreign file is regenerated.
#[must_use]
pub fn population(count: usize, cache: Option<&Path>) -> Vec<Vec<f64>> {
    let file = cache.map(|dir| dir.join(format!("points-{count}-{GEOMETRY_SEED}.bin")));
    if let Some(points) = file.as_deref().and_then(|f| read_points(f, count)) {
        return points;
    }
    let points = semantic_points(count, GEOMETRY_SEED);
    if let Some(file) = &file {
        // Best effort: a run that cannot cache still measures.
        let _ = write_points(file, &points);
    }
    points
}

const POINTS_MAGIC: &[u8; 8] = b"SEMPTS01";

fn read_points(file: &Path, count: usize) -> Option<Vec<Vec<f64>>> {
    let bytes = std::fs::read(file).ok()?;
    let header = POINTS_MAGIC.len() + 16;
    let word = |at: usize| -> Option<usize> {
        let raw: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
        usize::try_from(u64::from_le_bytes(raw)).ok()
    };
    let dims = word(POINTS_MAGIC.len() + 8)?;
    if !bytes.starts_with(POINTS_MAGIC)
        || word(POINTS_MAGIC.len())? != count
        || dims == 0
        || bytes.len() != header + count * dims * 8
    {
        return None;
    }
    Some(
        bytes[header..]
            .chunks_exact(dims * 8)
            .map(|point| {
                point
                    .chunks_exact(8)
                    .filter_map(|c| c.try_into().ok().map(f64::from_le_bytes))
                    .collect()
            })
            .collect(),
    )
}

fn write_points(file: &Path, points: &[Vec<f64>]) -> std::io::Result<()> {
    let dims = points.first().map_or(0, Vec::len);
    let mut bytes = Vec::with_capacity(POINTS_MAGIC.len() + 16 + points.len() * dims * 8);
    bytes.extend_from_slice(POINTS_MAGIC);
    bytes.extend_from_slice(&(points.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(dims as u64).to_le_bytes());
    for coordinate in points.iter().flatten() {
        bytes.extend_from_slice(&coordinate.to_le_bytes());
    }
    // Written beside the target and renamed, so a reader never sees
    // half a file.
    let partial = file.with_extension(format!("{}.partial", std::process::id()));
    std::fs::write(&partial, bytes)?;
    std::fs::rename(&partial, file)
}

/// [`population`] in an order drawn from `seed`.
#[must_use]
pub fn shuffled_points(count: usize, seed: u64, cache: Option<&Path>) -> Vec<Vec<f64>> {
    let mut all = population(count, cache);
    all.shuffle(&mut StdRng::seed_from_u64(seed));
    all
}

/// `n` data points plus the query sets: one population, split by role
/// and ordered by `seed`.
#[must_use]
pub fn tree_inputs(n: usize, sizes: &Sizes, seed: u64, cache: Option<&Path>) -> TreeInputs {
    let mut all = shuffled_points(n + sizes.queries + sizes.check_queries, seed, cache);
    let check = all.split_off(n + sizes.queries);
    let queries = all.split_off(n);
    TreeInputs {
        data: all,
        queries,
        check,
    }
}

/// The `doc_retrieval` corpus: prose per document for the NLP set-up
/// path, the generator's own triples for the answer check, and query
/// triples no document asserts.
pub struct DocInputs {
    /// `(document name, prose)` in generation order.
    pub documents: Vec<(String, String)>,
    /// Sentences in the prose the extractor should parse.
    pub sentences: usize,
    /// The generated corpus (ground truth for the answer check).
    pub corpus: Corpus,
    /// Timed query triples: actors the corpus never mentions.
    pub queries: Vec<Triple>,
    /// Triples the corpus does assert, spread evenly over it, for the
    /// own-document-in-hits check.
    pub check: Vec<Triple>,
}

/// Generate the corpus at `documents` documents and the held-out query
/// triples.
#[must_use]
pub fn doc_inputs(documents: usize, sizes: &Sizes, seed: u64) -> DocInputs {
    let config = GenConfig::paper_scale()
        .with_documents(documents)
        .with_seed(seed);
    let corpus_actors = config.actor_count;
    let corpus = CorpusGenerator::new(config).generate();

    let mut prose: Vec<(String, String)> = corpus
        .store
        .documents()
        .map(|d| (d.name.clone(), String::new()))
        .collect();
    let mut sentences = 0;
    for req in &corpus.requirements {
        sentences += req.triples.len();
        if let Some((_, text)) = prose.get_mut(req.doc.index()) {
            text.push_str(&req.text);
            text.push(' ');
        }
    }

    // Actor names are positional, so a larger vocabulary's extra actors
    // are names no corpus document can contain.
    let wider = DomainVocabulary::new(corpus_actors + 40);
    let mut queries = Vec::new();
    for actor in wider.actors().iter().skip(corpus_actors) {
        for (_, _, _, predicate, obj_prefix) in wider.functions() {
            for param in wider.parameters_of(obj_prefix) {
                queries.push(Triple::new(
                    Term::literal(actor.clone()),
                    Term::concept_in("Fun", *predicate),
                    Term::concept_in(*obj_prefix, *param),
                ));
            }
        }
    }
    queries.shuffle(&mut StdRng::seed_from_u64(seed));
    queries.truncate(sizes.queries);
    // Whole chunks only: the measured phase replays the queries in
    // chunks of `chunk_ops`.
    queries.truncate(queries.len() / sizes.chunk_ops.max(1) * sizes.chunk_ops.max(1));

    let step = (corpus.store.len() / sizes.check_queries.max(1)).max(1);
    let check = corpus
        .store
        .iter()
        .step_by(step)
        .take(sizes.check_queries)
        .map(|(_, t)| t.clone())
        .collect();

    DocInputs {
        documents: prose,
        sentences,
        corpus,
        queries,
        check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_inputs_are_seeded_and_disjoint_in_role() {
        let a = tree_inputs(300, &Sizes::SMOKE, 7, None);
        let b = tree_inputs(300, &Sizes::SMOKE, 7, None);
        assert_eq!(a.data, b.data);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.data.len(), 300);
        assert_eq!(a.queries.len(), Sizes::SMOKE.queries);
        assert_eq!(a.check.len(), Sizes::SMOKE.check_queries);
        // Another seed draws other roles from the same population.
        let other = tree_inputs(300, &Sizes::SMOKE, 8, None);
        assert_ne!(a.data, other.data);
        let population = |t: &TreeInputs| {
            let mut all: Vec<Vec<u64>> = t
                .data
                .iter()
                .chain(&t.queries)
                .chain(&t.check)
                .map(|p| p.iter().map(|c| c.to_bits()).collect())
                .collect();
            all.sort();
            all
        };
        assert_eq!(population(&a), population(&other));
    }

    #[test]
    fn the_population_survives_its_cache_and_a_bad_file_is_regenerated() {
        let dir = std::env::temp_dir().join(format!("perfbench-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = population(120, Some(&dir));
        let file = dir.join(format!("points-120-{GEOMETRY_SEED}.bin"));
        assert!(file.exists());
        let cached = population(120, Some(&dir));
        let bits = |ps: &[Vec<f64>]| -> Vec<Vec<u64>> {
            ps.iter()
                .map(|p| p.iter().map(|c| c.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&fresh), bits(&cached));
        assert_eq!(bits(&fresh), bits(&population(120, None)));
        // Truncated, or written for another size: not trusted.
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_points(&file, 120).is_none());
        assert_eq!(bits(&population(120, Some(&dir))), bits(&fresh));
        assert!(read_points(&file, 121).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn doc_queries_name_actors_the_corpus_never_mentions() {
        let inputs = doc_inputs(3, &Sizes::SMOKE, 5);
        assert_eq!(inputs.documents.len(), 3);
        assert!(inputs.sentences > 0);
        assert_eq!(inputs.queries.len(), Sizes::SMOKE.queries);
        assert_eq!(inputs.check.len(), Sizes::SMOKE.check_queries);
        for t in &inputs.check {
            assert!(inputs.corpus.store.id_of(t).is_some());
        }
        for q in inputs.queries.iter().take(50) {
            assert!(inputs.corpus.store.id_of(q).is_none());
        }
        assert_eq!(inputs.queries, doc_inputs(3, &Sizes::SMOKE, 5).queries);
    }
}
