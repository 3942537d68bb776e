//! `knn_local` and `knn_partitioned`: the same points and queries on a
//! one-partition tree (lock-free mirror reads: descent and leaf scan
//! dominate) and on a four-partition tree (reads go through the actor
//! mailboxes: hops and routing dominate).

use std::time::{Duration, Instant};

use semtree_bench::{BUCKET, DIMS};
use semtree_cluster::CostModel;
use semtree_dist::{DistConfig, DistSemTree, Query, QueryOutcome};

use super::{matches_brute_force, well_formed, Scratch, Steady, Tally, K};
use crate::error::{layer, Result};
use crate::estimators::depth1_chunk;
use crate::inputs::TreeInputs;
use crate::trace::{SpanId, Tracer};

/// Inserts per set-up chunk (`quiet_reps` takes the fastest repetition
/// of each chunk).
pub const INSERT_CHUNK: usize = 250;

/// An in-process distributed tree over `M` partitions.
pub struct KnnTree<const M: usize> {
    tree: DistSemTree,
}

/// The distributed-tree configuration every tree workload uses.
#[must_use]
pub fn dist_config(partitions: usize) -> DistConfig {
    DistConfig::new(DIMS)
        .with_bucket_size(BUCKET)
        .with_max_partitions(partitions.max(1) * 2)
}

/// Create an empty `partitions`-way tree (fan-out split on a sample of
/// the data, as the paper's static partitioning does).
#[must_use]
pub fn empty_tree(partitions: usize, data: &[Vec<f64>]) -> DistSemTree {
    if partitions <= 1 {
        DistSemTree::single(dist_config(1), CostModel::zero())
    } else {
        let sample: Vec<Vec<f64>> = data.iter().take(2048).cloned().collect();
        DistSemTree::with_fanout(
            dist_config(partitions),
            CostModel::zero(),
            partitions,
            &sample,
        )
    }
}

/// Insert `data` (payload = index) in chunks, timing each chunk.
///
/// # Errors
/// Fails on the first insert the tree rejects.
pub fn timed_inserts(
    tree: &DistSemTree,
    data: &[Vec<f64>],
    tracer: &mut Tracer,
    parent: SpanId,
    chunks: &mut Vec<(&'static str, f64)>,
) -> Result<()> {
    for (c, chunk) in data.chunks(INSERT_CHUNK).enumerate() {
        let span = tracer.open("setup.inserts", parent, c as u64);
        let start = Instant::now();
        for (i, point) in chunk.iter().enumerate() {
            tree.query(Query::insert(point, (c * INSERT_CHUNK + i) as u64))
                .and_then(QueryOutcome::inserted)
                .map_err(layer("insert"))?;
        }
        chunks.push(("inserts", start.elapsed().as_secs_f64()));
        tracer.close(span);
    }
    Ok(())
}

/// One k-NN through the unified query API, as `(distance, payload)`
/// pairs; `None` when the tree errored.
#[must_use]
pub fn knn_pairs(tree: &DistSemTree, query: &[f64]) -> Option<Vec<(f64, u64)>> {
    tree.query(Query::knn(query, K))
        .and_then(QueryOutcome::neighbors)
        .ok()
        .map(|hits| hits.into_iter().map(|h| (h.dist, h.payload)).collect())
}

/// Brute-force check of the held-out queries against `tree`.
#[must_use]
pub fn check_against_brute_force(tree: &DistSemTree, inputs: &TreeInputs) -> Tally {
    let mut tally = Tally::default();
    for query in &inputs.check {
        let ok = knn_pairs(tree, query)
            .is_some_and(|hits| matches_brute_force(&inputs.data, query, &hits));
        tally.record(ok);
    }
    tally
}

impl<const M: usize> Steady for KnnTree<M> {
    type Inputs = TreeInputs;

    fn set_up(
        inputs: &TreeInputs,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<(Self, Vec<(&'static str, f64)>)> {
        let mut chunks = Vec::with_capacity(inputs.data.len() / INSERT_CHUNK + 2);
        let (tree, secs) = tracer.timed("setup.create", parent, || empty_tree(M, &inputs.data));
        chunks.push(("create", secs));
        timed_inserts(&tree, &inputs.data, tracer, parent, &mut chunks)?;
        Ok((KnnTree { tree }, chunks))
    }

    fn resident_points(&self) -> usize {
        self.tree.len()
    }

    fn cycle_ops(inputs: &TreeInputs) -> usize {
        inputs.queries.len()
    }

    fn chunk(
        &mut self,
        inputs: &TreeInputs,
        first_request: u64,
        ops: usize,
        scratch: &mut Scratch,
        tracer: &mut Tracer,
    ) -> Result<Duration> {
        let Scratch {
            latencies_ns,
            tally,
        } = scratch;
        let layer_name = if M <= 1 {
            "dist.query_knn"
        } else {
            "dist.query_knn_partitioned"
        };
        depth1_chunk(ops, latencies_ns, |i| {
            let request = first_request + i as u64;
            let query = &inputs.queries[(request % inputs.queries.len() as u64) as usize];
            let op = tracer.open("op", SpanId::ROOT, request);
            let call = tracer.open(layer_name, op, request);
            let outcome = self.tree.query(Query::knn(query, K));
            tracer.close(call);
            let ok = outcome
                .and_then(QueryOutcome::neighbors)
                .is_ok_and(|hits| well_formed(&hits));
            tally.record(ok);
            tracer.close(op);
            Ok(())
        })
    }

    fn check(&mut self, inputs: &TreeInputs) -> Result<Tally> {
        let mut tally = check_against_brute_force(&self.tree, inputs);
        // The tree must hold exactly what was inserted, over M partitions.
        tally.record(self.tree.len() == inputs.data.len());
        tally.record(self.tree.partition_count() == M.max(1));
        Ok(tally)
    }

    fn tear_down(self) -> Result<()> {
        self.tree.shutdown();
        Ok(())
    }
}
