//! Shared fixtures for the cross-crate integration tests.
//!
//! The actual tests live in the sibling `*.rs` files declared as `[[test]]`
//! targets in this package's manifest.

/// `n` deterministic pseudo-random points in `[0, 100)^dims` (splitmix64
/// from `seed`).
pub fn sample_points(dims: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
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
