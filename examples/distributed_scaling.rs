//! Distributed scaling: the same corpus indexed at 1, 3, 5 and 9
//! partitions (the paper's configurations), comparing build time, query
//! time and interconnect traffic.
//!
//! ```sh
//! cargo run -p semtree-examples --bin distributed_scaling --release
//! ```

use std::time::Instant;

use semtree_eval::Series;
use semtree_examples::{builder_for_corpus, stage_corpus};
use semtree_reqgen::{CorpusGenerator, GenConfig};

fn main() {
    let corpus = CorpusGenerator::new(GenConfig::medium().with_seed(7)).generate();
    println!(
        "corpus: {} distinct triples from {} documents\n",
        corpus.store.len(),
        corpus.store.stats().documents
    );

    let mut build_series = Series::new("build seconds");
    let mut query_series = Series::new("1000-query seconds");

    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>12}",
        "partitions", "build (s)", "queries (s)", "messages", "KiB"
    );
    for m in [1usize, 3, 5, 9] {
        let mut builder = builder_for_corpus(&corpus)
            .dimensions(6)
            .bucket_size(32)
            .partitions(m);
        stage_corpus(&mut builder, &corpus);

        let t0 = Instant::now();
        let index = builder.build().expect("non-empty corpus");
        let build = t0.elapsed();

        index.reset_metrics();
        let queries: Vec<_> = (0..1000)
            .map(|i| {
                index
                    .triple(semtree_core::TripleId(
                        (i * 7 % index.len() as u32 as usize) as u32,
                    ))
                    .unwrap()
                    .clone()
            })
            .collect();
        let t1 = Instant::now();
        let mut total_hits = 0usize;
        for q in &queries {
            total_hits += index.knn(q, 3).len();
        }
        let query = t1.elapsed();
        assert_eq!(total_hits, 3000);

        let metrics = index.metrics();
        println!(
            "{:>10} {:>12.3} {:>14.3} {:>12} {:>12}",
            m,
            build.as_secs_f64(),
            query.as_secs_f64(),
            metrics.messages,
            metrics.bytes / 1024,
        );
        build_series.push(m as f64, build.as_secs_f64());
        query_series.push(m as f64, query.as_secs_f64());

        let stats = index.tree_stats().expect("partition walk");
        assert_eq!(stats.partition_count(), m);
        index.shutdown();
    }

    println!(
        "\nsingle-partition trees exchange no messages; multi-partition trees pay \
         per-border traffic — the trade Figures 5 and 7 of the paper plot."
    );
    println!("ok");
}
