//! Determinism acceptance suite: every parallel path in the workspace
//! must be **byte-identical** to its sequential twin — for every thread
//! count, and across repeated runs with a fixed seed.
//!
//! The base seed is `SEMTREE_PROPTEST_SEED` when set (same convention
//! as the model suite's `SEMTREE_MODEL_SEED`), so a CI failure can be
//! replayed locally with the exact same inputs.

use semtree_distance::MemoizedDistance;
use semtree_fastmap::FastMap;
use semtree_par::metric::euclidean;
use semtree_par::Pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const REPEATS: usize = 3;

fn base_seed() -> u64 {
    match std::env::var("SEMTREE_PROPTEST_SEED") {
        Ok(raw) => raw
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("SEMTREE_PROPTEST_SEED must be a u64, got {raw:?}")),
        Err(_) => 0x5EED_DE7E,
    }
}

/// Deterministic synthetic points from a splitmix64 stream.
fn synthetic_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            (0..dims)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
                .collect()
        })
        .collect()
}

fn embedding_bits(e: &semtree_fastmap::Embedding) -> Vec<u64> {
    (0..e.len())
        .flat_map(|i| e.point(i).iter().map(|c| c.to_bits()))
        .collect()
}

#[test]
fn parallel_embedding_is_bitwise_deterministic() {
    let seed = base_seed();
    let points = synthetic_points(160, 5, seed);
    let dist = |i: usize, j: usize| euclidean(&points[i], &points[j]);
    let reference = FastMap::new(4)
        .with_seed(seed)
        .with_threads(1)
        .embed(points.len(), &dist);
    let want = embedding_bits(&reference);

    for threads in THREAD_COUNTS {
        for run in 0..REPEATS {
            let memo = MemoizedDistance::new(&dist);
            let e = FastMap::new(4)
                .with_seed(seed)
                .with_threads(threads)
                .embed(points.len(), &|i, j| memo.distance(i, j));
            assert_eq!(
                embedding_bits(&e),
                want,
                "embedding differs (threads={threads}, run={run}, seed={seed})"
            );
            assert_eq!(
                e.pivots(),
                reference.pivots(),
                "pivot choice differs (threads={threads}, run={run}, seed={seed})"
            );
        }
    }
}

#[test]
fn pool_map_and_reduce_are_deterministic_across_thread_counts() {
    let want: Vec<usize> = (0..1000).map(|i| i * i % 97).collect();
    let far = want
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.cmp(&b.1)) // Iterator::max_by keeps the LAST max
        .map(|(i, _)| i);
    for threads in THREAD_COUNTS {
        let pool = Pool::sequential().with_threads(threads);
        assert_eq!(pool.map(1000, &|i| i * i % 97), want, "threads={threads}");
        let got = pool
            .reduce(
                1000,
                &|start, end| {
                    let mut best = (start, start * start % 97);
                    for i in start + 1..end {
                        let key = i * i % 97;
                        if key >= best.1 {
                            best = (i, key);
                        }
                    }
                    best
                },
                &|acc, next| if next.1 >= acc.1 { next } else { acc },
            )
            .map(|(i, _)| i);
        assert_eq!(got, far, "last-maximal argmax differs at threads={threads}");
    }
}
