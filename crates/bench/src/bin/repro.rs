//! Regenerate every figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run -p semtree-bench --bin repro --release -- all          # every figure
//! cargo run -p semtree-bench --bin repro --release -- fig3 --quick # one figure, small N
//! ```
//!
//! Output is a markdown table per figure — the series the paper plots.
//! Absolute times are this machine's; the *shapes* are the reproduction
//! target (see EXPERIMENTS.md).

use std::sync::Arc;
use std::time::Instant;

use semtree_bench::{
    build_chain_dist_tree, build_dist_tree, dist_knn, dist_range, distinct_triples, embed_triples,
    pick_radius, query_points, registry_for, semantic_points, store_of, triple_distance, BUCKET,
    DIMS,
};
use semtree_core::{SemTree, TripleId, Weights};
use semtree_distance::TripleDistance;
use semtree_eval::{ascii_plot, average_pr, ExperimentTable, PrPoint, Series};
use semtree_fastmap::stress;
use semtree_kdtree::{KdConfig, VersionedKdTree};
use semtree_reqgen::{AnnotatorPanel, CorpusGenerator, GenConfig, GroundTruthOracle};
use semtree_rtree::RTree;
use semtree_vocab::similarity::SimilarityMeasure;

/// The KD-tree of the sequential figures: one arena, no partitions.
type Tree = VersionedKdTree;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let run_all = which.is_empty() || which.contains(&"all");

    let sizes: Vec<usize> = if quick {
        vec![1_000, 5_000, 10_000]
    } else {
        vec![1_000, 5_000, 10_000, 50_000, 100_000]
    };

    let wants = |name: &str| run_all || which.contains(&name);

    if wants("fig3") {
        print_table(&fig3_build(&sizes));
    }
    if wants("fig4") {
        print_table(&fig4_knn_seq(&sizes));
    }
    if wants("fig5") {
        print_table(&fig5_knn_dist(&sizes));
    }
    if wants("fig6") {
        print_table(&fig6_range_seq(&sizes));
    }
    if wants("fig7") {
        print_table(&fig7_range_dist(&sizes));
    }
    if wants("fig8") {
        print_table(&fig8_effectiveness(quick));
    }
    if wants("ablation_weights") {
        print_table(&ablation_weights(quick));
    }
    if wants("ablation_dim") {
        print_table(&ablation_dim());
    }
    if wants("ablation_bucket") {
        print_table(&ablation_bucket(quick));
    }
    if wants("ablation_measure") {
        print_table(&ablation_measure(quick));
    }
    if wants("ablation_noise") {
        print_table(&ablation_noise(quick));
    }
    if wants("ablation_structure") {
        print_table(&ablation_structure(quick));
    }
}

fn print_table(table: &ExperimentTable) {
    println!("{}", table.to_markdown());
    println!("{}", ascii_plot(table, 64, 16));
    println!("```csv\n{}```\n", table.to_csv());
}

/// Fig. 3: index building time vs N for 1 (balanced) / 3 / 5 / 9
/// partitions / 1 (totally unbalanced).
fn fig3_build(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new("Fig. 3: Index Building Time", "points", "seconds");
    let mut balanced = Series::new("1 partition (balanced)");
    let mut p3 = Series::new("3 partitions");
    let mut p5 = Series::new("5 partitions");
    let mut p9 = Series::new("9 partitions");
    let mut chain = Series::new("1 partition (totally unbalanced)");

    for &n in sizes {
        let points = semantic_points(n, 0xF163);
        for (series, m) in [
            (&mut balanced, 1usize),
            (&mut p3, 3),
            (&mut p5, 5),
            (&mut p9, 9),
        ] {
            let t0 = Instant::now();
            let tree = build_dist_tree(&points, m, BUCKET);
            series.push(n as f64, t0.elapsed().as_secs_f64());
            tree.shutdown();
        }
        // Totally unbalanced: degenerate split rule + sorted insertion.
        let t0 = Instant::now();
        let tree = build_chain_dist_tree(&points, BUCKET);
        chain.push(n as f64, t0.elapsed().as_secs_f64());
        tree.shutdown();
    }
    for s in [balanced, p3, p5, p9, chain] {
        table.add_series(s);
    }
    table
}

/// Fig. 4: sequential k-NN time (K = 3), balanced vs totally unbalanced.
fn fig4_knn_seq(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 4: Sequential K-Nearest Time, K=3",
        "points",
        "seconds per 1000 queries",
    );
    let mut bal = Series::new("Balanced");
    let mut unbal = Series::new("Totally Unbalanced (chain)");
    for &n in sizes {
        let points = semantic_points(n, 0xF164);
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0u64..).collect();
        let queries = query_points(&points, 1000);

        let tree = Tree::bulk_load(KdConfig::new(DIMS).with_bucket_size(BUCKET), data.clone());
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(tree.knn(q, 3));
        }
        bal.push(n as f64, t0.elapsed().as_secs_f64());

        let tree = Tree::chain_load(KdConfig::new(DIMS).with_bucket_size(BUCKET), data);
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(tree.knn(q, 3));
        }
        unbal.push(n as f64, t0.elapsed().as_secs_f64());
    }
    table.add_series(bal);
    table.add_series(unbal);
    table
}

/// Fig. 5: distributed k-NN time (K = 3) vs N for 1 / 3 / 5 / 9 partitions.
fn fig5_knn_dist(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 5: K-Nearest Time, K=3",
        "points",
        "seconds per 1000 queries",
    );
    for m in [1usize, 3, 5, 9] {
        let mut series = Series::new(if m == 1 {
            "1 partition".to_string()
        } else {
            format!("{m} partitions")
        });
        for &n in sizes {
            let points = semantic_points(n, 0xF165);
            let tree = build_dist_tree(&points, m, BUCKET);
            let queries = query_points(&points, 1000);
            let t0 = Instant::now();
            for q in &queries {
                std::hint::black_box(dist_knn(&tree, q, 3));
            }
            series.push(n as f64, t0.elapsed().as_secs_f64());
            tree.shutdown();
        }
        table.add_series(series);
    }
    table
}

/// Fig. 6: sequential range-query time, balanced vs unbalanced.
fn fig6_range_seq(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 6: Sequential Range Query Time",
        "points",
        "seconds per 1000 queries",
    );
    let mut bal = Series::new("Balanced");
    let mut unbal = Series::new("Unbalanced");
    for &n in sizes {
        let points = semantic_points(n, 0xF166);
        let radius = pick_radius(&points, 0.01);
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0u64..).collect();
        let queries = query_points(&points, 1000);

        let tree = Tree::bulk_load(KdConfig::new(DIMS).with_bucket_size(BUCKET), data.clone());
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(tree.range(q, radius));
        }
        bal.push(n as f64, t0.elapsed().as_secs_f64());

        let tree = Tree::chain_load(KdConfig::new(DIMS).with_bucket_size(BUCKET), data);
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(tree.range(q, radius));
        }
        unbal.push(n as f64, t0.elapsed().as_secs_f64());
    }
    table.add_series(bal);
    table.add_series(unbal);
    table
}

/// Fig. 7: distributed range-query time vs N for 1 / 3 / 5 / 9 partitions.
fn fig7_range_dist(sizes: &[usize]) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "Fig. 7: Range Query Time",
        "points",
        "seconds per 1000 queries",
    );
    for m in [1usize, 3, 5, 9] {
        let mut series = Series::new(if m == 1 {
            "1 partition".to_string()
        } else {
            format!("{m} partitions")
        });
        for &n in sizes {
            let points = semantic_points(n, 0xF167);
            let radius = pick_radius(&points, 0.01);
            let tree = build_dist_tree(&points, m, BUCKET);
            let queries = query_points(&points, 1000);
            let t0 = Instant::now();
            for q in &queries {
                std::hint::black_box(dist_range(&tree, q, radius));
            }
            series.push(n as f64, t0.elapsed().as_secs_f64());
            tree.shutdown();
        }
        table.add_series(series);
    }
    table
}

/// The full effectiveness pipeline shared by Fig. 8 and the ablations:
/// build a corpus + index, run the paper's 100 target-triple k-NN queries,
/// and average P/R per K.
struct EffectivenessRun {
    corpus: semtree_reqgen::Corpus,
    index: SemTree,
}

fn effectiveness_run(
    quick: bool,
    dims: usize,
    weights: Weights,
    measure: SimilarityMeasure,
) -> EffectivenessRun {
    let gen_cfg = if quick {
        GenConfig::small().with_seed(0xF168)
    } else {
        GenConfig::medium().with_seed(0xF168)
    };
    let corpus = CorpusGenerator::new(gen_cfg).generate();

    let registry = Arc::new(registry_for(&corpus.domain));
    let term_cfg = semtree_distance::TermDistanceConfig { semantic: measure };
    let distance = TripleDistance::with_config(weights, term_cfg, registry);

    let mut builder = SemTree::builder().dimensions(dims).bucket_size(BUCKET);
    builder.add_store(&corpus.store);
    let index = builder
        .build_with_distance(distance)
        .expect("non-empty corpus");
    EffectivenessRun { corpus, index }
}

/// Run the paper's protocol: 100 requirements → target triples → k-NN →
/// P/R against ground truth, for each K.
fn pr_curve(run: &EffectivenessRun, ks: &[usize]) -> Vec<PrPoint> {
    let oracle = GroundTruthOracle::new(&run.corpus);

    // "for 100 different requirements, we randomly selected a triple from
    // the related set and generated the equivalent target triple":
    // deterministic selection of 100 requirements whose triple has an
    // antonym predicate.
    let mut cases: Vec<(semtree_model::Triple, Vec<TripleId>)> = Vec::new();
    for req in &run.corpus.requirements {
        if cases.len() >= 100 {
            break;
        }
        let Some(&tid) = req
            .triples
            .iter()
            .find(|&&tid| oracle.target_triple(tid).is_some())
        else {
            continue;
        };
        let target = oracle.target_triple(tid).expect("filtered above");
        let truth = oracle.inconsistent_with(tid);
        if truth.is_empty() {
            continue; // annotators found nothing for this one
        }
        cases.push((target, truth));
    }

    ks.iter()
        .map(|&k| {
            let per_query: Vec<(Vec<TripleId>, Vec<TripleId>)> = cases
                .iter()
                .map(|(target, truth)| {
                    let retrieved: Vec<TripleId> =
                        run.index.knn(target, k).into_iter().map(|h| h.id).collect();
                    (retrieved, truth.clone())
                })
                .collect();
            average_pr(k, &per_query)
        })
        .collect()
}

/// Fig. 8: average Precision and Recall of the 100 target-triple k-NN
/// queries, varying K.
fn fig8_effectiveness(quick: bool) -> ExperimentTable {
    let run = effectiveness_run(quick, DIMS, Weights::default(), SimilarityMeasure::WuPalmer);
    let ks: Vec<usize> = (1..=15).collect();
    let points = pr_curve(&run, &ks);
    let mut table = ExperimentTable::new("Fig. 8: Effectiveness", "K", "ratio");
    let mut p = Series::new("Precision");
    let mut r = Series::new("Recall");
    for pt in points {
        p.push(pt.k as f64, pt.precision);
        r.push(pt.k as f64, pt.recall);
    }
    table.add_series(p);
    table.add_series(r);
    run.index.shutdown();
    table
}

/// Ablation: effectiveness judged against noisy human-panel ground truth
/// instead of the exact oracle (the paper's annotators were 5 engineers;
/// the panel model gives each one a miss and false-positive rate and takes
/// the majority vote).
fn ablation_noise(quick: bool) -> ExperimentTable {
    let run = effectiveness_run(quick, DIMS, Weights::default(), SimilarityMeasure::WuPalmer);
    let oracle = GroundTruthOracle::new(&run.corpus);
    let panels: Vec<(&str, AnnotatorPanel)> = vec![
        ("exact oracle", AnnotatorPanel::perfect()),
        ("panel 10% miss / 5% fp", AnnotatorPanel::default()),
        (
            "panel 30% miss / 15% fp",
            AnnotatorPanel {
                annotators: 5,
                miss_rate: 0.3,
                false_positive_rate: 0.15,
                seed: 0xA77,
            },
        ),
    ];

    // The same 100 query cases as Fig. 8.
    let mut cases: Vec<(semtree_model::Triple, TripleId)> = Vec::new();
    for req in &run.corpus.requirements {
        if cases.len() >= 100 {
            break;
        }
        let Some(&tid) = req
            .triples
            .iter()
            .find(|&&tid| oracle.target_triple(tid).is_some())
        else {
            continue;
        };
        if oracle.inconsistent_with(tid).is_empty() {
            continue;
        }
        cases.push((oracle.target_triple(tid).expect("filtered"), tid));
    }

    let mut table = ExperimentTable::new("Ablation: annotator noise (K=5)", "panel", "ratio");
    let mut p_series = Series::new("Precision");
    let mut r_series = Series::new("Recall");
    for (i, (name, panel)) in panels.iter().enumerate() {
        let per_query: Vec<(Vec<TripleId>, Vec<TripleId>)> = cases
            .iter()
            .map(|(target, tid)| {
                let retrieved: Vec<TripleId> =
                    run.index.knn(target, 5).into_iter().map(|h| h.id).collect();
                (retrieved, panel.annotate(&oracle, *tid))
            })
            .collect();
        let pt = average_pr(5, &per_query);
        println!(
            "  panel[{i}] = {name}: P={:.3} R={:.3}",
            pt.precision, pt.recall
        );
        p_series.push(i as f64, pt.precision);
        r_series.push(i as f64, pt.recall);
    }
    table.add_series(p_series);
    table.add_series(r_series);
    run.index.shutdown();
    table
}

/// Ablation: Eq. 1 weights vs effectiveness at K = 5.
fn ablation_weights(quick: bool) -> ExperimentTable {
    let presets: Vec<(&str, Weights)> = vec![
        ("uniform (1/3,1/3,1/3)", Weights::default()),
        ("predicate-heavy (.25,.5,.25)", Weights::predicate_heavy()),
        (
            "subject-heavy (.5,.25,.25)",
            Weights::new(0.5, 0.25, 0.25).unwrap(),
        ),
        (
            "object-heavy (.25,.25,.5)",
            Weights::new(0.25, 0.25, 0.5).unwrap(),
        ),
    ];
    let mut table = ExperimentTable::new("Ablation: distance weights (K=5)", "preset", "ratio");
    let mut p = Series::new("Precision");
    let mut r = Series::new("Recall");
    for (i, (name, w)) in presets.iter().enumerate() {
        let run = effectiveness_run(quick, DIMS, *w, SimilarityMeasure::WuPalmer);
        let pt = pr_curve(&run, &[5])[0];
        println!(
            "  weights[{i}] = {name}: P={:.3} R={:.3}",
            pt.precision, pt.recall
        );
        p.push(i as f64, pt.precision);
        r.push(i as f64, pt.recall);
        run.index.shutdown();
    }
    table.add_series(p);
    table.add_series(r);
    table
}

/// Ablation: FastMap dimensionality vs embedding stress and recall@5.
fn ablation_dim() -> ExperimentTable {
    let store = store_of(distinct_triples(2_000, 0xD1));
    let triples = store.triples();
    let domain = semtree_reqgen::DomainVocabulary::new(8);
    let distance = triple_distance(&domain);
    let mut table = ExperimentTable::new("Ablation: FastMap dimensionality", "k", "value");
    let mut stress_series = Series::new("embedding stress");
    let mut time_series = Series::new("embed seconds");
    for k in [2usize, 4, 8, 16] {
        let t0 = Instant::now();
        let emb = embed_triples(&store, k, 0xD1);
        let secs = t0.elapsed().as_secs_f64();
        let s = stress(&emb, &|i, j| distance.distance(&triples[i], &triples[j]));
        stress_series.push(k as f64, s);
        time_series.push(k as f64, secs);
    }
    table.add_series(stress_series);
    table.add_series(time_series);
    table
}

/// Ablation: bucket size vs build and query time at fixed N.
fn ablation_bucket(quick: bool) -> ExperimentTable {
    let n = if quick { 5_000 } else { 20_000 };
    let points = semantic_points(n, 0xB5);
    let queries = query_points(&points, 1000);
    let mut table = ExperimentTable::new(
        format!("Ablation: bucket size (N={n})"),
        "bucket",
        "seconds",
    );
    let mut build = Series::new("build");
    let mut query = Series::new("1000 knn queries");
    for bs in [4usize, 16, 32, 128, 512] {
        let t0 = Instant::now();
        let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0u64..).collect();
        let tree = Tree::bulk_load(KdConfig::new(DIMS).with_bucket_size(bs), data);
        build.push(bs as f64, t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for q in &queries {
            std::hint::black_box(tree.knn(q, 3));
        }
        query.push(bs as f64, t0.elapsed().as_secs_f64());
    }
    table.add_series(build);
    table.add_series(query);
    table
}

/// Ablation: similarity measure vs effectiveness at K = 5.
fn ablation_measure(quick: bool) -> ExperimentTable {
    let mut table = ExperimentTable::new("Ablation: similarity measure (K=5)", "measure", "ratio");
    let mut p = Series::new("Precision");
    let mut r = Series::new("Recall");
    for (i, m) in SimilarityMeasure::ALL.iter().enumerate() {
        let run = effectiveness_run(quick, DIMS, Weights::default(), *m);
        let pt = pr_curve(&run, &[5])[0];
        println!(
            "  measure[{i}] = {}: P={:.3} R={:.3}",
            m.name(),
            pt.precision,
            pt.recall
        );
        p.push(i as f64, pt.precision);
        r.push(i as f64, pt.recall);
        run.index.shutdown();
    }
    table.add_series(p);
    table.add_series(r);
    table
}

/// Ablation: the §III-B design choice, measured — bucketed KD-tree vs a
/// classical R-tree (STR bulk load, Guttman splits) on the same embedded
/// semantic workload.
fn ablation_structure(quick: bool) -> ExperimentTable {
    let n = if quick { 10_000 } else { 50_000 };
    let points = semantic_points(n, 0x57A);
    let radius = pick_radius(&points, 0.01);
    let queries = query_points(&points, 1000);
    let data: Vec<(Vec<f64>, u64)> = points.iter().cloned().zip(0u64..).collect();

    let mut table = ExperimentTable::new(
        format!("Ablation: index structure (N={n})"),
        "metric (0=bulk build s, 1=dyn build s, 2=1000 knn s, 3=1000 range s)",
        "seconds",
    );
    let mut kd_series = Series::new("kd-tree");
    let mut r_series = Series::new("r-tree");

    // Bulk build.
    let t0 = Instant::now();
    let kd = Tree::bulk_load(KdConfig::new(DIMS).with_bucket_size(BUCKET), data.clone());
    kd_series.push(0.0, t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let rt = RTree::bulk_load(DIMS, data.clone());
    r_series.push(0.0, t0.elapsed().as_secs_f64());

    // Dynamic build.
    let t0 = Instant::now();
    let mut kd_dyn = Tree::new(KdConfig::new(DIMS).with_bucket_size(BUCKET));
    for (c, p) in &data {
        kd_dyn.insert(c, *p);
    }
    kd_series.push(1.0, t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let mut rt_dyn = RTree::new(DIMS);
    for (c, p) in &data {
        rt_dyn.insert(c, *p);
    }
    r_series.push(1.0, t0.elapsed().as_secs_f64());

    // k-NN.
    let t0 = Instant::now();
    for q in &queries {
        std::hint::black_box(kd.knn(q, 3));
    }
    kd_series.push(2.0, t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    for q in &queries {
        std::hint::black_box(rt.knn(q, 3));
    }
    r_series.push(2.0, t0.elapsed().as_secs_f64());

    // Range.
    let t0 = Instant::now();
    for q in &queries {
        std::hint::black_box(kd.range(q, radius));
    }
    kd_series.push(3.0, t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    for q in &queries {
        std::hint::black_box(rt.range(q, radius));
    }
    r_series.push(3.0, t0.elapsed().as_secs_f64());

    table.add_series(kd_series);
    table.add_series(r_series);
    table
}
