//! Taxonomy-based semantic similarity measures.
//!
//! The paper names Wu & Palmer and cites Resnik as "the most diffused
//! semantic similarity measures"; we provide those plus the other standard
//! members of the family (path, Leacock–Chodorow, Lin) so the
//! similarity-measure ablation can swap them freely. Every measure is
//! normalised so that similarity ∈ [0, 1] and
//! `distance = 1 − similarity`.

use crate::error::VocabError;
use crate::taxonomy::{ConceptId, Taxonomy};

/// A semantic similarity between two concepts of one taxonomy.
pub trait Similarity {
    /// Similarity in `[0, 1]` between two concepts given by id.
    fn similarity_ids(&self, tax: &Taxonomy, a: ConceptId, b: ConceptId) -> f64;

    /// Similarity looked up by concept name.
    fn similarity(&self, tax: &Taxonomy, a: &str, b: &str) -> Result<f64, VocabError> {
        Ok(self.similarity_ids(tax, tax.require(a)?, tax.require(b)?))
    }

    /// `1 − similarity`, the semantic distance the index consumes.
    fn distance(&self, tax: &Taxonomy, a: &str, b: &str) -> Result<f64, VocabError> {
        Ok(1.0 - self.similarity(tax, a, b)?)
    }
}

/// The concrete similarity measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimilarityMeasure {
    /// Wu & Palmer (1994): `2·depth(lcs) / (depth(a) + depth(b))`.
    /// The measure the paper names explicitly; the default. In a DAG a
    /// concept's shortest root path may bypass its lcs, so `depth(lcs)`
    /// is capped at the shallower argument's depth, as it is in a tree.
    #[default]
    WuPalmer,
    /// Inverse path length: `1 / (1 + pathlen(a, b))`.
    Path,
    /// Leacock–Chodorow: `−ln((pathlen + 1) / (2·maxdepth))`, normalised by
    /// its maximum `ln(2·maxdepth)` to land in `[0, 1]`.
    LeacockChodorow,
    /// Resnik (1995): `IC(lcs)` with intrinsic information content (already
    /// in `[0, 1]`; the root contributes 0, a leaf subsumer 1).
    Resnik,
    /// Lin (1998): `2·IC(lcs) / (IC(a) + IC(b))`, 0 when both ICs are 0.
    Lin,
}

impl SimilarityMeasure {
    /// Every measure, for ablation sweeps.
    pub const ALL: [SimilarityMeasure; 5] = [
        SimilarityMeasure::WuPalmer,
        SimilarityMeasure::Path,
        SimilarityMeasure::LeacockChodorow,
        SimilarityMeasure::Resnik,
        SimilarityMeasure::Lin,
    ];

    /// Stable lowercase name (used in experiment output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimilarityMeasure::WuPalmer => "wu-palmer",
            SimilarityMeasure::Path => "path",
            SimilarityMeasure::LeacockChodorow => "leacock-chodorow",
            SimilarityMeasure::Resnik => "resnik",
            SimilarityMeasure::Lin => "lin",
        }
    }
}

impl Similarity for SimilarityMeasure {
    fn similarity_ids(&self, tax: &Taxonomy, a: ConceptId, b: ConceptId) -> f64 {
        match self {
            SimilarityMeasure::WuPalmer => {
                let (depth_a, depth_b) = (tax.depth(a), tax.depth(b));
                let depth_lcs = tax.depth(tax.lcs(a, b)).min(depth_a).min(depth_b);
                2.0 * f64::from(depth_lcs) / f64::from(depth_a + depth_b)
            }
            SimilarityMeasure::Path => 1.0 / (1.0 + f64::from(tax.path_length(a, b))),
            SimilarityMeasure::LeacockChodorow => {
                let two_d = f64::from(2 * tax.max_depth());
                let len = f64::from(tax.path_length(a, b)) + 1.0;
                let raw = -(len / two_d).ln();
                let max = two_d.ln();
                if max <= 0.0 {
                    // Degenerate single-level taxonomy: identical ids only.
                    return f64::from(a == b);
                }
                (raw / max).clamp(0.0, 1.0)
            }
            SimilarityMeasure::Resnik => tax.information_content(tax.lcs(a, b)),
            SimilarityMeasure::Lin => {
                let ic_a = tax.information_content(a);
                let ic_b = tax.information_content(b);
                if ic_a + ic_b <= 0.0 {
                    return f64::from(a == b);
                }
                2.0 * tax.information_content(tax.lcs(a, b)) / (ic_a + ic_b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::TaxonomyBuilder;

    fn sample_builder() -> TaxonomyBuilder {
        let mut b = Taxonomy::builder("test");
        b.add("vehicle", &[]);
        b.add("car", &["vehicle"]);
        b.add("suv", &["car"]);
        b.add("sedan", &["car"]);
        b.add("bike", &["vehicle"]);
        b.add("animal", &["root"]);
        b.add("dog", &["animal"]);
        b
    }

    fn sample() -> Taxonomy {
        sample_builder().build().unwrap()
    }

    /// `sample` plus a concept under `suv` (depth 4) with a shortcut to
    /// the root: its own depth is 2, shallower than its lcs with `suv`.
    fn shortcut_sample() -> Taxonomy {
        let mut b = sample_builder();
        b.add("crossover", &["suv", "root"]);
        b.build().unwrap()
    }

    #[test]
    fn wu_palmer_siblings_vs_strangers() {
        let t = sample();
        let m = SimilarityMeasure::WuPalmer;
        let sib = m.similarity(&t, "suv", "sedan").unwrap();
        let cousin = m.similarity(&t, "suv", "bike").unwrap();
        let stranger = m.similarity(&t, "suv", "dog").unwrap();
        assert!(sib > cousin, "{sib} vs {cousin}");
        assert!(cousin > stranger, "{cousin} vs {stranger}");
        // Exact value: 2*3 / (4+4) = 0.75 for suv/sedan under car(depth 3).
        assert!((sib - 0.75).abs() < 1e-12);
    }

    #[test]
    fn identity_yields_similarity_one() {
        let t = sample();
        for m in SimilarityMeasure::ALL {
            let s = m.similarity(&t, "suv", "suv").unwrap();
            assert!(
                (s - 1.0).abs() < 1e-9,
                "{} should give sim(x,x)=1, got {s}",
                m.name()
            );
        }
    }

    #[test]
    fn all_measures_stay_in_unit_interval() {
        for t in [sample(), shortcut_sample()] {
            let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
            for m in SimilarityMeasure::ALL {
                for &a in &names {
                    for &b in &names {
                        let s = m.similarity(&t, a, b).unwrap();
                        assert!((0.0..=1.0).contains(&s), "{}({a},{b}) = {s}", m.name());
                    }
                }
            }
        }
    }

    #[test]
    fn all_measures_are_symmetric() {
        let t = sample();
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        for m in SimilarityMeasure::ALL {
            for &a in &names {
                for &b in &names {
                    let s1 = m.similarity(&t, a, b).unwrap();
                    let s2 = m.similarity(&t, b, a).unwrap();
                    assert!(
                        (s1 - s2).abs() < 1e-12,
                        "{} not symmetric on ({a},{b})",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn measures_rank_siblings_above_distant_pairs() {
        let t = sample();
        for m in SimilarityMeasure::ALL {
            let sib = m.similarity(&t, "suv", "sedan").unwrap();
            let far = m.similarity(&t, "suv", "dog").unwrap();
            assert!(sib > far, "{}: sib {sib} <= far {far}", m.name());
        }
    }

    #[test]
    fn path_exact_values() {
        let t = sample();
        let m = SimilarityMeasure::Path;
        assert!((m.similarity(&t, "suv", "sedan").unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.similarity(&t, "suv", "suv").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn resnik_uses_lcs_ic() {
        let t = sample();
        let m = SimilarityMeasure::Resnik;
        // LCS(suv, dog) = root → IC 0.
        assert_eq!(m.similarity(&t, "suv", "dog").unwrap(), 0.0);
        // LCS(suv, sedan) = car, a non-root concept → IC > 0.
        assert!(m.similarity(&t, "suv", "sedan").unwrap() > 0.0);
    }

    #[test]
    fn lin_root_pair_is_zero_not_nan() {
        let t = sample();
        let m = SimilarityMeasure::Lin;
        let root = "root";
        let s = m.similarity(&t, root, root).unwrap();
        assert_eq!(s, 1.0); // identical ids short-circuit
        let s2 = m.similarity(&t, root, "dog").unwrap();
        assert!(s2.is_finite());
    }

    #[test]
    fn distance_complements_similarity() {
        let t = sample();
        for m in SimilarityMeasure::ALL {
            let s = m.similarity(&t, "suv", "bike").unwrap();
            let d = m.distance(&t, "suv", "bike").unwrap();
            assert!((s + d - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unknown_concept_errors() {
        let t = sample();
        assert!(SimilarityMeasure::WuPalmer
            .similarity(&t, "suv", "ghost")
            .is_err());
    }

    #[test]
    fn degenerate_taxonomy_does_not_panic() {
        let t = Taxonomy::builder("empty").build().unwrap();
        for m in SimilarityMeasure::ALL {
            let s = m.similarity_ids(&t, t.root(), t.root());
            assert!(s.is_finite());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SimilarityMeasure::WuPalmer.name(), "wu-palmer");
        assert_eq!(SimilarityMeasure::default(), SimilarityMeasure::WuPalmer);
    }
}
