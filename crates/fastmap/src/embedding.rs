//! The FastMap algorithm and its output.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semtree_par::Pool;

/// Number of farthest-point hops in `choose-distant-objects` (the constant
/// the original paper uses).
const PIVOT_HOPS: usize = 5;

/// One pivot pair: the two objects spanning a FastMap axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PivotPair {
    /// Index of the first pivot in the build set.
    pub a: usize,
    /// Index of the second pivot in the build set.
    pub b: usize,
    /// Projected distance between the pivots on this axis's residual space.
    pub d_ab: f64,
}

/// FastMap configuration: target dimensionality, RNG seed, and worker
/// count for the parallel scans.
#[derive(Debug, Clone, Copy)]
pub struct FastMap {
    k: usize,
    seed: u64,
    /// Worker count for the distance scans; `0` means "size to the
    /// machine". The output is byte-identical for every value.
    threads: usize,
}

impl FastMap {
    /// Embed into `k` dimensions.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "target dimensionality must be at least 1");
        FastMap {
            k,
            seed: 0x5EED_FA57,
            threads: 0,
        }
    }

    /// Fix the pivot-selection seed (embedding is deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fix the worker count for the parallel pivot scans and coordinate
    /// columns (`0` = one worker per hardware thread, the default).
    /// Thread count never changes the embedding: the parallel schedule
    /// reproduces the sequential result bit-for-bit.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Target dimensionality.
    #[must_use]
    pub fn dimensions(&self) -> usize {
        self.k
    }

    /// Run FastMap over `n` objects with the pair oracle `dist`
    /// (symmetric, non-negative, `dist(i,i) = 0`): [`FastMap::embed_rows`]
    /// with the row of `s` read as `x ↦ dist(min(s, x), max(s, x))`. The
    /// oracle must be `Sync`: each row is filled by the `semtree-par`
    /// pool, which calls `dist` concurrently on disjoint object ranges.
    ///
    /// So the oracle is only ever called as `dist(i, j)` with `i < j`,
    /// never on the diagonal, and at most once per unordered pair. With
    /// `R` distinct row sources that is `R·(n − 1) − R·(R − 1)/2` calls,
    /// and `R ≤ k·(PIVOT_HOPS + 1)` with 5 hops.
    #[must_use]
    pub fn embed<F>(&self, n: usize, dist: &F) -> Embedding
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        self.embed_rows(n, &|s| move |x: usize| dist(s.min(x), s.max(x)))
    }

    /// Run FastMap over `n` objects whose distances come a row at a time:
    /// `row(s)` is the row `d(s, ·)` as a function of the other object.
    /// Every distance FastMap reads has a *row source* on one side: the
    /// object a pivot hop scans from, or one of an axis's two pivots.
    /// The first time an object is a source, `row` is called once for it
    /// and its row is filled with one parallel map and kept; every later
    /// read of that source is an index into the kept row.
    ///
    /// The contract, which makes the result bit-identical to
    /// [`FastMap::embed`] over the pair oracle the rows are read from:
    /// - entry `x` of `row(s)` is the pair oracle's `d(min(s, x), max(s, x))`;
    /// - an entry is only asked for `x ≠ s` whose own row is not kept yet
    ///   (the diagonal is 0, and an entry for an earlier source is copied
    ///   from that source's row), from any of the pool's threads at once.
    ///
    /// The rows are held until `embed_rows` returns, 8·n bytes each:
    /// ~18 MB for 22 rows over 104k objects.
    #[must_use]
    pub fn embed_rows<R, E>(&self, n: usize, row: &R) -> Embedding
    where
        R: Fn(usize) -> E,
        E: Fn(usize) -> f64 + Sync,
    {
        let pool = if self.threads == 0 {
            Pool::new()
        } else {
            Pool::sequential().with_threads(self.threads)
        };
        let mut coords = vec![0.0f64; n * self.k];
        let mut pivots = Vec::with_capacity(self.k);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rows = Vec::new();

        for h in 0..self.k {
            if n < 2 {
                pivots.push(PivotPair {
                    a: 0,
                    b: 0,
                    d_ab: 0.0,
                });
                continue;
            }
            // Residual (projected) squared distance at level h, given the
            // original distance `d = d(i, j)`.
            let proj2 = |d: f64, i: usize, j: usize, coords: &[f64]| -> f64 {
                let mut d2 = d.powi(2);
                for m in 0..h {
                    let diff = coords[i * self.k + m] - coords[j * self.k + m];
                    d2 -= diff * diff;
                }
                d2.max(0.0)
            };

            // choose-distant-objects: start random, hop to the farthest.
            // The parallel argmax replicates `Iterator::max_by` exactly:
            // within a chunk the later index wins ties (`>=`), and chunk
            // results combine in ascending order with the later chunk
            // winning ties, so the reduction returns the *last* maximal
            // index — the same object the sequential scan picks.
            let mut a = rng.random_range(0..n);
            let mut b = a;
            for _ in 0..PIVOT_HOPS {
                let ib = kept_row(&mut rows, b, row, &pool, n);
                let row_b = &rows[ib].1;
                let far = pool
                    .reduce(
                        n,
                        &|start, end| {
                            let mut best = (start, proj2(row_b[start], b, start, &coords));
                            for (x, &d) in (start + 1..end).zip(&row_b[start + 1..end]) {
                                let key = proj2(d, b, x, &coords);
                                if key >= best.1 {
                                    best = (x, key);
                                }
                            }
                            best
                        },
                        &|acc, next| if next.1 >= acc.1 { next } else { acc },
                    )
                    .map_or(b, |(idx, _)| idx);
                if far == a {
                    break;
                }
                a = b;
                b = far;
            }
            // `a` was a hop's source, so its row is kept already.
            let ia = kept_row(&mut rows, a, row, &pool, n);
            let d_ab2 = proj2(rows[ia].1[b], a, b, &coords);
            if d_ab2 <= f64::EPSILON {
                // All residual distances are zero: remaining axes are 0.
                pivots.push(PivotPair { a, b, d_ab: 0.0 });
                continue;
            }
            let d_ab = d_ab2.sqrt();

            let ib = kept_row(&mut rows, b, row, &pool, n);
            let (row_a, row_b) = (&rows[ia].1, &rows[ib].1);
            let column = pool.map(n, &|i| {
                (proj2(row_a[i], a, i, &coords) + d_ab2 - proj2(row_b[i], b, i, &coords))
                    / (2.0 * d_ab)
            });
            for (i, x) in column.into_iter().enumerate() {
                coords[i * self.k + h] = x;
            }
            pivots.push(PivotPair { a, b, d_ab });
        }

        Embedding {
            n,
            k: self.k,
            coords,
            pivots,
        }
    }
}

/// The index in `rows` of source `s`'s row `d(s, ·)` over `n` objects,
/// computing and keeping the row on first use. The diagonal is 0 without
/// a call, an entry for an earlier source is copied from that source's
/// row, and every other entry is read from `row(s)`.
fn kept_row<R, E>(
    rows: &mut Vec<(usize, Vec<f64>)>,
    s: usize,
    row: &R,
    pool: &Pool,
    n: usize,
) -> usize
where
    R: Fn(usize) -> E,
    E: Fn(usize) -> f64 + Sync,
{
    if let Some(i) = rows.iter().position(|(source, _)| *source == s) {
        return i;
    }
    let kept = &*rows;
    let entry = row(s);
    let filled = pool.map(n, &|x| {
        if x == s {
            0.0
        } else if let Some((_, row)) = kept.iter().find(|(source, _)| *source == x) {
            row[s]
        } else {
            entry(x)
        }
    });
    rows.push((s, filled));
    rows.len() - 1
}

/// The result of a FastMap run: per-object coordinates plus the pivot pairs
/// needed to project out-of-sample objects.
#[derive(Debug, Clone)]
pub struct Embedding {
    n: usize,
    k: usize,
    coords: Vec<f64>,
    pivots: Vec<PivotPair>,
}

impl Embedding {
    /// Number of embedded objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the embedding is over zero objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality `k`.
    #[must_use]
    pub fn dimensions(&self) -> usize {
        self.k
    }

    /// Coordinates of object `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.k..(i + 1) * self.k]
    }

    /// The pivot pairs, one per dimension.
    #[must_use]
    pub fn pivots(&self) -> &[PivotPair] {
        &self.pivots
    }

    /// Euclidean distance between two embedded objects.
    #[must_use]
    pub fn embedded_distance(&self, i: usize, j: usize) -> f64 {
        semtree_par::metric::euclidean(self.point(i), self.point(j))
    }

    /// Project an out-of-sample object into the embedding.
    ///
    /// `dist_to(p)` must return the *original-space* distance between the
    /// new object and build-set object `p`; the projection then replays the
    /// cosine-law formula against the stored pivots, subtracting the
    /// already-assigned coordinates exactly as the build did.
    #[must_use]
    pub fn project_with(&self, dist_to: &dyn Fn(usize) -> f64) -> Vec<f64> {
        let mut q = vec![0.0f64; self.k];
        // Every axis with a nonzero pivot spread asks `dist_to` for both of
        // its pivots; nothing is cached, so `dist_to` runs twice per live
        // axis.
        for (h, piv) in self.pivots.iter().enumerate() {
            if piv.d_ab <= f64::EPSILON {
                q[h] = 0.0;
                continue;
            }
            let mut da2 = dist_to(piv.a).powi(2);
            let mut db2 = dist_to(piv.b).powi(2);
            let pa = self.point(piv.a);
            let pb = self.point(piv.b);
            for m in 0..h {
                da2 -= (q[m] - pa[m]).powi(2);
                db2 -= (q[m] - pb[m]).powi(2);
            }
            da2 = da2.max(0.0);
            db2 = db2.max(0.0);
            q[h] = (da2 + piv.d_ab * piv.d_ab - db2) / (2.0 * piv.d_ab);
        }
        q
    }

    /// Iterate all points as `(index, coordinates)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        (0..self.n).map(move |i| (i, self.point(i)))
    }

    /// Reassemble an embedding from its serialized parts (coordinates in
    /// row-major order plus the per-dimension pivot pairs).
    ///
    /// # Panics
    /// Panics when the part sizes are inconsistent (`coords.len()` must be
    /// `n·k` with `k = pivots.len() > 0`, and pivot indices must be within
    /// the build set).
    #[must_use]
    pub fn from_parts(n: usize, coords: Vec<f64>, pivots: Vec<PivotPair>) -> Self {
        let k = pivots.len();
        assert!(k > 0, "at least one dimension is required");
        assert_eq!(coords.len(), n * k, "coordinate buffer size mismatch");
        for p in &pivots {
            assert!(p.a < n.max(1) && p.b < n.max(1), "pivot index out of range");
        }
        Embedding {
            n,
            k,
            coords,
            pivots,
        }
    }

    /// Append an out-of-sample point (previously computed with
    /// [`Embedding::project_with`]) so it becomes addressable like a build
    /// point. The pivots are untouched: they always reference the original
    /// build set, so later projections are unaffected.
    ///
    /// # Panics
    /// Panics if `coords.len() != dimensions()`.
    pub fn push_point(&mut self, coords: &[f64]) {
        assert_eq!(coords.len(), self.k, "dimensionality mismatch");
        self.coords.extend_from_slice(coords);
        self.n += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Mutex;

    use semtree_par::metric::euclidean;

    use super::*;

    fn line_dist(i: usize, j: usize) -> f64 {
        (i as f64 - j as f64).abs()
    }

    /// The embed loop before rows were kept: every distance it reads is
    /// asked of the pair oracle, in the order the formula names it.
    fn embed_per_pair<F>(fastmap: &FastMap, n: usize, dist: &F) -> Embedding
    where
        F: Fn(usize, usize) -> f64 + Sync,
    {
        let pool = Pool::sequential().with_threads(fastmap.threads.max(1));
        let k = fastmap.k;
        let mut coords = vec![0.0f64; n * k];
        let mut pivots = Vec::with_capacity(k);
        let mut rng = StdRng::seed_from_u64(fastmap.seed);
        for h in 0..k {
            if n < 2 {
                pivots.push(PivotPair {
                    a: 0,
                    b: 0,
                    d_ab: 0.0,
                });
                continue;
            }
            let proj2 = |i: usize, j: usize, coords: &[f64]| -> f64 {
                let mut d2 = dist(i, j).powi(2);
                for m in 0..h {
                    let diff = coords[i * k + m] - coords[j * k + m];
                    d2 -= diff * diff;
                }
                d2.max(0.0)
            };
            let mut a = rng.random_range(0..n);
            let mut b = a;
            for _ in 0..PIVOT_HOPS {
                let far = pool
                    .reduce(
                        n,
                        &|start, end| {
                            let mut best = (start, proj2(b, start, &coords));
                            for x in start + 1..end {
                                let key = proj2(b, x, &coords);
                                if key >= best.1 {
                                    best = (x, key);
                                }
                            }
                            best
                        },
                        &|acc, next| if next.1 >= acc.1 { next } else { acc },
                    )
                    .map_or(b, |(idx, _)| idx);
                if far == a {
                    break;
                }
                a = b;
                b = far;
            }
            let d_ab2 = proj2(a, b, &coords);
            if d_ab2 <= f64::EPSILON {
                pivots.push(PivotPair { a, b, d_ab: 0.0 });
                continue;
            }
            let d_ab = d_ab2.sqrt();
            let column = pool.map(n, &|i| {
                (proj2(a, i, &coords) + d_ab2 - proj2(b, i, &coords)) / (2.0 * d_ab)
            });
            for (i, x) in column.into_iter().enumerate() {
                coords[i * k + h] = x;
            }
            pivots.push(PivotPair { a, b, d_ab });
        }
        Embedding {
            n,
            k,
            coords,
            pivots,
        }
    }

    /// `n` random points: on a small integer grid (repeated points and
    /// tied distances) when `grid`, else anywhere in `[0, 100)^dims`.
    fn random_points(n: usize, dims: usize, grid: bool, rng: &mut StdRng) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                (0..dims)
                    .map(|_| {
                        if grid {
                            f64::from(rng.random_range(0u8..4))
                        } else {
                            rng.random_range(0.0..100.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A random symmetric `n × n` matrix, zero on the diagonal, drawn
    /// from a few values (zeros included) so distances repeat and tie.
    fn random_matrix(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        const VALUES: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 1.0, 2.5];
        let mut m = vec![vec![0.0; n]; n];
        for (i, j) in (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
            let v = VALUES[rng.random_range(0..VALUES.len())];
            m[i][j] = v;
            m[j][i] = v;
        }
        m
    }

    fn bits(e: &Embedding) -> Vec<u64> {
        e.coords.iter().map(|c| c.to_bits()).collect()
    }

    proptest::proptest! {
        #[test]
        fn kept_rows_embed_what_the_per_pair_loop_did_bit_for_bit(
            n in 0usize..200,
            k in 1usize..8,
            oracle in 0u8..3,
            dims in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let points = random_points(n, dims, oracle == 0, &mut rng);
            let matrix = random_matrix(if oracle == 2 { n } else { 0 }, &mut rng);
            let dist = |i: usize, j: usize| {
                if oracle == 2 {
                    matrix[i][j]
                } else {
                    euclidean(&points[i], &points[j])
                }
            };
            for threads in [1, 2, 4] {
                let fastmap = FastMap::new(k).with_seed(seed).with_threads(threads);
                let want = embed_per_pair(&fastmap, n, &dist);
                let got = fastmap.embed(n, &dist);
                proptest::prop_assert_eq!(bits(&got), bits(&want), "threads {}", threads);
                proptest::prop_assert_eq!(got.pivots(), want.pivots(), "threads {}", threads);
            }
        }
    }

    #[test]
    fn the_oracle_is_called_once_per_pair_that_touches_a_row_source() {
        let mut rng = StdRng::seed_from_u64(44);
        for (n, k, threads, grid) in [
            (200, 7, 1, false),
            (200, 7, 4, false),
            (150, 3, 2, true),
            (2, 4, 1, false),
        ] {
            let points = random_points(n, 3, grid, &mut rng);
            let calls = Mutex::new(Vec::new());
            let emb = FastMap::new(k).with_threads(threads).embed(n, &|i, j| {
                calls.lock().unwrap().push((i, j));
                euclidean(&points[i], &points[j])
            });
            let calls = calls.into_inner().unwrap();
            assert!(calls.iter().all(|&(i, j)| i < j), "a call with i >= j");
            let pairs: HashSet<(usize, usize)> = calls.iter().copied().collect();
            assert_eq!(pairs.len(), calls.len(), "a pair evaluated twice");

            // A row source is an object paired with every other one.
            let mut partners = vec![0usize; n];
            for &(i, j) in &calls {
                partners[i] += 1;
                partners[j] += 1;
            }
            let sources: Vec<usize> = (0..n).filter(|&x| partners[x] == n - 1).collect();
            let r = sources.len();
            assert_eq!(calls.len(), r * (n - 1) - r * (r - 1) / 2, "n={n} k={k}");
            assert!(calls.len() <= k * (PIVOT_HOPS + 1) * (n - 1), "n={n} k={k}");
            for p in emb.pivots().iter().filter(|p| p.d_ab > 0.0) {
                assert!(sources.contains(&p.a) && sources.contains(&p.b), "{p:?}");
            }
        }
    }

    #[test]
    fn one_dimensional_data_embeds_isometrically() {
        let emb = FastMap::new(1).with_seed(1).embed(20, &line_dist);
        for i in 0..20 {
            for j in 0..20 {
                let err = (emb.embedded_distance(i, j) - line_dist(i, j)).abs();
                assert!(err < 1e-9, "({i},{j}) err {err}");
            }
        }
    }

    #[test]
    fn extra_dimensions_collapse_to_zero_for_line_data() {
        let emb = FastMap::new(3).with_seed(1).embed(10, &line_dist);
        for (_, p) in emb.iter() {
            assert!(p[1].abs() < 1e-9 && p[2].abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn embedded_distance_is_contractive_for_euclidean_input() {
        // 2-D grid under true Euclidean distance: FastMap never expands
        // distances when the input is Euclidean.
        let pts: Vec<(f64, f64)> = (0..5)
            .flat_map(|x| (0..5).map(move |y| (x as f64, y as f64)))
            .collect();
        let d = move |i: usize, j: usize| {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[j];
            ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
        };
        let emb = FastMap::new(2).with_seed(42).embed(25, &d);
        for i in 0..25 {
            for j in 0..25 {
                assert!(emb.embedded_distance(i, j) <= d(i, j) + 1e-6);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let e1 = FastMap::new(4).with_seed(9).embed(30, &line_dist);
        let e2 = FastMap::new(4).with_seed(9).embed(30, &line_dist);
        for i in 0..30 {
            assert_eq!(e1.point(i), e2.point(i));
        }
    }

    #[test]
    fn handles_tiny_inputs() {
        let e0 = FastMap::new(3).with_seed(1).embed(0, &line_dist);
        assert!(e0.is_empty());
        let e1 = FastMap::new(3).with_seed(1).embed(1, &line_dist);
        assert_eq!(e1.len(), 1);
        assert_eq!(e1.point(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn identical_objects_land_on_the_same_point() {
        let d = |_: usize, _: usize| 0.0;
        let emb = FastMap::new(2).with_seed(3).embed(5, &d);
        for i in 0..5 {
            assert_eq!(emb.point(i), emb.point(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dimensions_panics() {
        let _ = FastMap::new(0);
    }

    #[test]
    fn out_of_sample_projection_matches_in_sample() {
        // Projecting object 7 as if it were new must land where the build
        // put it: the projection formula is the build formula.
        let emb = FastMap::new(2).with_seed(11).embed(15, &line_dist);
        let q = emb.project_with(&|p| line_dist(7, p));
        let built = emb.point(7);
        for (qa, qb) in q.iter().zip(built) {
            assert!((qa - qb).abs() < 1e-9, "{q:?} vs {built:?}");
        }
    }

    #[test]
    fn out_of_sample_projection_preserves_neighbourhoods() {
        // Embed even integers; project an odd one — it must land between
        // its neighbours.
        let d = |i: usize, j: usize| ((2 * i) as f64 - (2 * j) as f64).abs();
        let emb = FastMap::new(1).with_seed(5).embed(10, &d);
        // New object with value 7 (between build objects 3→6 and 4→8).
        let q = emb.project_with(&|p| (7.0 - (2 * p) as f64).abs());
        let lo = emb.point(3)[0].min(emb.point(4)[0]);
        let hi = emb.point(3)[0].max(emb.point(4)[0]);
        assert!(q[0] > lo && q[0] < hi, "{q:?} not within ({lo}, {hi})");
    }

    #[test]
    fn thread_count_never_changes_the_embedding() {
        let seq = FastMap::new(3)
            .with_seed(6)
            .with_threads(1)
            .embed(40, &line_dist);
        for threads in [2, 3, 8] {
            let par = FastMap::new(3)
                .with_seed(6)
                .with_threads(threads)
                .embed(40, &line_dist);
            for i in 0..40 {
                for (x, y) in par.point(i).iter().zip(seq.point(i)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "threads={threads} object {i}");
                }
            }
            assert_eq!(par.pivots(), seq.pivots(), "threads={threads}");
        }
    }

    #[test]
    fn pivots_are_recorded_per_dimension() {
        let emb = FastMap::new(3).with_seed(2).embed(12, &line_dist);
        assert_eq!(emb.pivots().len(), 3);
        let p0 = emb.pivots()[0];
        assert_ne!(p0.a, p0.b);
        assert!(p0.d_ab > 0.0);
    }

    #[test]
    fn first_axis_pivots_are_far_apart() {
        // The heuristic should find (or approach) the diameter 0..19.
        let emb = FastMap::new(1).with_seed(8).embed(20, &line_dist);
        let p = emb.pivots()[0];
        assert!(p.d_ab >= 15.0, "pivot spread {} too small", p.d_ab);
    }
}
