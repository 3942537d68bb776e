//! Command implementations. Each returns its human-readable report so the
//! logic is testable without capturing stdout.

use std::fmt::Write as _;

use semtree_core::persist::{load_index_str, save_index_string};
use semtree_core::{CostModel, InconsistencyFinder, SemTree};
use semtree_model::{turtle, TripleStore};
use semtree_reqgen::{CorpusGenerator, DomainVocabulary, GenConfig};

use crate::args::{usage, Command, ParsedArgs};
use crate::registry::standard_distance;

/// Execute a parsed command line; returns the report to print.
pub fn run(parsed: &ParsedArgs) -> Result<String, String> {
    match parsed.command {
        Command::Help => Ok(usage().to_string()),
        Command::Generate => generate(parsed),
        Command::Index => index(parsed),
        Command::Query => query(parsed),
        Command::Audit => audit(parsed),
        Command::Stats => stats(parsed),
        Command::Serve => crate::net::serve(parsed),
        Command::Worker => crate::net::worker(parsed),
        Command::NetQuery => crate::net::net_query(parsed),
        Command::Recover => crate::net::recover(parsed),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, data: &str) -> Result<(), String> {
    std::fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))
}

fn generate(parsed: &ParsedArgs) -> Result<String, String> {
    let out = parsed.require("out")?;
    let documents = parsed.get_usize("documents", 40)?;
    let seed = parsed.get_u64("seed", 42)?;
    let config = GenConfig::small().with_documents(documents).with_seed(seed);
    let corpus = CorpusGenerator::new(config).generate();
    write(out, &turtle::write_store(&corpus.store))?;
    let s = corpus.store.stats();
    Ok(format!(
        "wrote {out}: {} documents, {} distinct triples ({} occurrences), {} seeded inconsistencies\n",
        s.documents,
        s.triples,
        s.occurrences,
        corpus.seeded_inconsistencies.len()
    ))
}

fn build_index_from_corpus(parsed: &ParsedArgs, corpus_text: &str) -> Result<SemTree, String> {
    let dims = parsed.get_usize("dims", 6)?;
    let bucket = parsed.get_usize("bucket", 32)?;
    let partitions = parsed.get_usize("partitions", 1)?;
    if partitions == 2 {
        return Err("--partitions must be 1 or ≥ 3".to_string());
    }
    let mut store = TripleStore::new();
    turtle::parse_into(&mut store, corpus_text).map_err(|e| e.to_string())?;

    let mut builder = SemTree::builder()
        .dimensions(dims)
        .bucket_size(bucket)
        .partitions(partitions);
    builder.add_store(&store);
    builder
        .build_with_distance(standard_distance())
        .map_err(|e| e.to_string())
}

fn index(parsed: &ParsedArgs) -> Result<String, String> {
    let corpus_path = parsed.require("corpus")?;
    let out = parsed.require("out")?;
    let index = build_index_from_corpus(parsed, &read(corpus_path)?)?;
    let saved = save_index_string(&index);
    write(out, &saved)?;
    let report = format!(
        "indexed {} triples in R^{} ({} partitions); saved to {out} ({} bytes)\n",
        index.len(),
        index.dimensions(),
        index.partitions(),
        saved.len()
    );
    index.shutdown();
    Ok(report)
}

fn load(parsed: &ParsedArgs) -> Result<SemTree, String> {
    let path = parsed.require("index")?;
    load_index_str(&read(path)?, standard_distance(), CostModel::zero()).map_err(|e| e.to_string())
}

fn query(parsed: &ParsedArgs) -> Result<String, String> {
    let triple_text = parsed.require("triple")?;
    let k = parsed.get_usize("k", 5)?;
    let query = turtle::parse_triple(triple_text)?;
    let index = load(parsed)?;
    let mut out = format!("{k}-NN around {query}:\n");
    for hit in index.knn(&query, k) {
        let _ = writeln!(out, "  d={:.4}  {}", hit.embedded_distance, hit.triple);
    }
    index.shutdown();
    Ok(out)
}

fn audit(parsed: &ParsedArgs) -> Result<String, String> {
    let corpus_path = parsed.require("corpus")?;
    let k = parsed.get_usize("k", 10)?;
    let corpus_text = read(corpus_path)?;
    let index = build_index_from_corpus(parsed, &corpus_text)?;

    let domain = DomainVocabulary::new(8);
    let finder = InconsistencyFinder::new(&index, domain.antinomies().clone());
    let pairs = finder.sweep(k);

    let mut out = format!(
        "audited {} triples: {} inconsistent pairs (k = {k})\n",
        index.len(),
        pairs.len()
    );
    for &(a, b) in pairs.iter().take(20) {
        let _ = writeln!(
            out,
            "  {}  ⇔  {}",
            index.triple(a).expect("live id"),
            index.triple(b).expect("live id")
        );
    }
    if pairs.len() > 20 {
        let _ = writeln!(out, "  … and {} more", pairs.len() - 20);
    }
    index.shutdown();
    Ok(out)
}

fn stats(parsed: &ParsedArgs) -> Result<String, String> {
    let index = load(parsed)?;
    let stats = index.tree_stats().map_err(|e| e.to_string())?;
    let mut out = format!(
        "{} triples in R^{}, {} partitions ({} routing-only)\n",
        index.len(),
        index.dimensions(),
        stats.partition_count(),
        stats.routing_only()
    );
    for (pid, p) in &stats.partitions {
        let _ = writeln!(
            out,
            "  partition {pid}: {} points, {} leaves, {} routing nodes ({} edge), links → {:?}",
            p.points, p.leaves, p.routing, p.edge_nodes, p.remote_children
        );
    }
    index.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::args::parse_args;

    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    fn run_line(args: &[&str]) -> Result<String, String> {
        run(&parse_args(&v(args)).map_err(|e| e.to_string())?)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("semtree-cli-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_line(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn end_to_end_generate_index_query_stats_audit() {
        let corpus = tmp("e2e-corpus.ttl");
        let index = tmp("e2e-index.semtree");

        let out = run_line(&[
            "generate",
            "--out",
            &corpus,
            "--documents",
            "8",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("8 documents"), "{out}");

        let out = run_line(&[
            "index",
            "--corpus",
            &corpus,
            "--out",
            &index,
            "--dims",
            "4",
            "--partitions",
            "3",
        ])
        .unwrap();
        assert!(out.contains("3 partitions"), "{out}");

        let out = run_line(&["stats", "--index", &index]).unwrap();
        assert!(out.contains("partition 0:"), "{out}");

        // Query with a triple that certainly exists: read it from the file.
        let corpus_text = std::fs::read_to_string(&corpus).unwrap();
        let line = corpus_text
            .lines()
            .find(|l| l.starts_with('('))
            .expect("corpus has triples");
        let out = run_line(&["query", "--index", &index, "--triple", line, "-k", "3"]).unwrap();
        assert!(
            out.contains("d=0.0000"),
            "the exact match ranks first: {out}"
        );

        let out = run_line(&["audit", "--corpus", &corpus, "-k", "8"]).unwrap();
        assert!(out.contains("inconsistent pairs"), "{out}");
    }

    #[test]
    fn missing_files_and_options_error_cleanly() {
        assert!(
            run_line(&["index", "--corpus", "/nonexistent", "--out", "/tmp/x"])
                .unwrap_err()
                .contains("cannot read")
        );
        assert!(run_line(&["query", "--index", "/nonexistent"])
            .unwrap_err()
            .contains("missing required option --triple"));
        assert!(run_line(&["generate"]).unwrap_err().contains("--out"));
    }

    #[test]
    fn two_partitions_rejected() {
        let corpus = tmp("p2-corpus.ttl");
        run_line(&["generate", "--out", &corpus, "--documents", "4"]).unwrap();
        let err = run_line(&[
            "index",
            "--corpus",
            &corpus,
            "--out",
            &tmp("p2.idx"),
            "--partitions",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("1 or ≥ 3"), "{err}");
    }
}
