//! Golden fingerprint of the whole document pipeline: reqgen prose →
//! NLP → Eq. 1 → FastMap → KD-tree → ranked documents.
//!
//! One FNV-1a hash covers every embedded coordinate, the projection of
//! held-out triples and their document rankings (`doc`, `score` bits,
//! `matched`, `name`), so any change that moves one answer or one
//! coordinate by one bit fails here. The constants were recorded at the
//! commit before Eq. 1 lost its allocations and the ranking its hash
//! maps, and must not be re-recorded by a change that claims to keep the
//! answers.
//!
//! Two distances run over the same corpus: the benchmark's (Wu & Palmer
//! over the reqgen vocabularies, whose taxonomies are trees), and Lin
//! over a `Fun` taxonomy where every antinomic predicate has a second
//! parent, so the lowest common subsumer breaks depth ties by id and
//! the tie decides the information content.

use std::sync::Arc;

use semtree_core::{DocumentHit, DocumentRetriever, QueryOptions, SemTree};
use semtree_distance::{TermDistanceConfig, TripleDistance, VocabularyRegistry, Weights};
use semtree_model::{Term, Triple};
use semtree_reqgen::{CorpusGenerator, DomainVocabulary, GenConfig};
use semtree_vocab::similarity::SimilarityMeasure;
use semtree_vocab::{wordnet, Taxonomy};

const PAPER: u64 = 17_764_495_189_195_615_135;
const DAG_LIN: u64 = 7_135_271_558_174_302_834;

const K: usize = 10;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    fn ranking(&mut self, hits: &[DocumentHit]) {
        self.u64(hits.len() as u64);
        for h in hits {
            self.u64(u64::from(h.doc.0));
            self.u64(h.score.to_bits());
            self.u64(h.matched.len() as u64);
            for &(t, d) in &h.matched {
                self.u64(u64::from(t.0));
                self.u64(d.to_bits());
            }
            self.bytes(h.name.as_bytes());
        }
    }
}

struct Corpus {
    domain: DomainVocabulary,
    /// `(document name, prose)`.
    documents: Vec<(String, String)>,
    /// Triples naming actors the corpus never mentions.
    held_out: Vec<Triple>,
}

fn corpus() -> Corpus {
    let config = GenConfig::small().with_documents(40).with_seed(42);
    let actors = config.actor_count;
    let generated = CorpusGenerator::new(config).generate();
    let mut documents: Vec<(String, String)> = generated
        .store
        .documents()
        .map(|d| (d.name.clone(), String::new()))
        .collect();
    for req in &generated.requirements {
        let text = &mut documents[req.doc.index()].1;
        text.push_str(&req.text);
        text.push(' ');
    }
    let wider = DomainVocabulary::new(actors + 4);
    let mut held_out = Vec::new();
    for actor in wider.actors().iter().skip(actors) {
        for (_, _, _, predicate, prefix) in wider.functions() {
            for param in wider.parameters_of(prefix) {
                held_out.push(Triple::new(
                    Term::literal(actor.clone()),
                    Term::concept_in("Fun", *predicate),
                    Term::concept_in(*prefix, *param),
                ));
            }
        }
    }
    let step = held_out.len() / 48;
    let held_out = held_out.into_iter().step_by(step).take(48).collect();
    Corpus {
        domain: generated.domain,
        documents,
        held_out,
    }
}

fn registry(domain: &DomainVocabulary, fun: Arc<Taxonomy>) -> VocabularyRegistry {
    let mut registry = VocabularyRegistry::new();
    registry.register_standard(Arc::new(wordnet::mini_taxonomy()));
    registry.register("Fun", fun);
    for (prefix, tax) in domain.parameter_taxonomies() {
        registry.register(prefix.clone(), Arc::clone(tax));
    }
    registry
}

/// The reqgen `Fun` taxonomy with a second parent, `admitting` or
/// `refusing`, on every predicate of an antinomy pair: `accept_cmd` and
/// `allow_cmd` then share `command_handling` and `admitting`, both at
/// depth 2.
fn dag_fun(domain: &DomainVocabulary) -> Taxonomy {
    let mut b = Taxonomy::builder("Fun");
    let mut categories: Vec<&str> = Vec::new();
    for (category, ..) in domain.functions() {
        if !categories.contains(category) {
            categories.push(category);
            b.add(*category, &[]);
        }
    }
    b.add("admitting", &[]);
    b.add("refusing", &[]);
    for (category, _, _, predicate, _) in domain.functions() {
        let mut parents = vec![*category];
        for (admits, refuses) in domain.antinomies().iter_pairs() {
            if admits == *predicate && !parents.contains(&"admitting") {
                parents.push("admitting");
            }
            if refuses == *predicate && !parents.contains(&"refusing") {
                parents.push("refusing");
            }
        }
        b.add(*predicate, &parents);
    }
    b.build().unwrap()
}

fn fingerprint(corpus: &Corpus, distance: TripleDistance) -> u64 {
    let mut builder = SemTree::builder().dimensions(6).bucket_size(32).seed(42);
    for (name, prose) in &corpus.documents {
        builder.add_document_text(name.clone(), prose);
    }
    let index = builder.build_with_distance(distance).unwrap();
    let mut h = Fnv::new();
    h.u64(index.len() as u64);
    for (_, point) in index.embedding().iter() {
        h.f64s(point);
    }
    let raw = DocumentRetriever::new(&index).with_k(K);
    for query in &corpus.held_out {
        h.f64s(&index.project(query));
        h.ranking(&raw.query_triple(query));
    }
    for queries in corpus.held_out.chunks(3) {
        h.ranking(&raw.query_triples(queries));
    }
    let refined = DocumentRetriever::new(&index)
        .with_k(K)
        .with_options(QueryOptions::refined());
    for query in corpus.held_out.iter().take(8) {
        h.ranking(&refined.query_triple(query));
    }
    index.shutdown();
    h.0
}

#[test]
fn pipeline_fingerprint_is_unchanged() {
    let corpus = corpus();
    let fun = dag_fun(&corpus.domain);
    let id = |name: &str| fun.id_of(name).unwrap();
    assert_eq!(
        fun.depth(id("command_handling")),
        fun.depth(id("admitting"))
    );
    assert_eq!(
        fun.lcs(id("accept_cmd"), id("allow_cmd")),
        id("command_handling"),
        "the depth tie goes to the smaller id"
    );

    let paper = TripleDistance::new(
        Weights::default(),
        Arc::new(registry(
            &corpus.domain,
            Arc::clone(corpus.domain.fun_taxonomy()),
        )),
    );
    let dag_lin = TripleDistance::with_config(
        Weights::default(),
        TermDistanceConfig {
            semantic: SimilarityMeasure::Lin,
        },
        Arc::new(registry(&corpus.domain, Arc::new(fun))),
    );
    assert_eq!(
        (fingerprint(&corpus, paper), fingerprint(&corpus, dag_lin)),
        (PAPER, DAG_LIN),
        "(paper, dag-lin) fingerprints moved: an answer or a coordinate changed"
    );
}
