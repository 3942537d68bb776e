//! A miniature, WordNet-flavoured general-purpose taxonomy.
//!
//! The paper's distance "uses some domain specific and/or general
//! vocabularies". Domain vocabularies are generated by `semtree-reqgen`;
//! this module provides the *general* one — a compact IS-A hierarchy with
//! a handful of noun and verb domains, enough for examples, tests and the
//! NLP fallback when a concept carries no prefix.

use crate::taxonomy::Taxonomy;

/// Build the miniature general taxonomy (~60 concepts).
///
/// # Panics
/// Never panics in practice: the definition below is a static, acyclic,
/// duplicate-free hierarchy; `expect` only guards against regressions in
/// this module itself.
#[must_use]
pub fn mini_taxonomy() -> Taxonomy {
    let mut b = Taxonomy::builder("std");
    // Top level.
    b.add("entity", &[]);
    b.add("physical_entity", &["entity"]);
    b.add("abstraction", &["entity"]);
    // Physical objects.
    b.add("object", &["physical_entity"]);
    b.add("artifact", &["object"]);
    b.add("device", &["artifact"]);
    b.add("computer", &["device"]);
    b.add("processor", &["device"]);
    b.add("sensor", &["device"]);
    b.add("actuator", &["device"]);
    b.add("antenna", &["device"]);
    b.add("amplifier", &["device"]);
    b.add("vehicle", &["artifact"]);
    b.add("aircraft", &["vehicle"]);
    b.add("airplane", &["aircraft"]);
    b.add("spacecraft", &["vehicle"]);
    b.add("instrument", &["artifact"]);
    b.add("software", &["artifact"]);
    b.add("component", &["software"]);
    b.add("module", &["software"]);
    b.add("subsystem", &["software"]);
    // Abstractions.
    b.add("attribute", &["abstraction"]);
    b.add("state", &["attribute"]);
    b.add("mode", &["state"]);
    b.add("phase", &["state"]);
    b.add("communication", &["abstraction"]);
    b.add("message", &["communication"]);
    b.add("command", &["communication"]);
    b.add("telemetry_frame", &["message"]);
    b.add("signal", &["communication"]);
    b.add("measure", &["abstraction"]);
    b.add("quantity", &["measure"]);
    b.add("time_interval", &["measure"]);
    b.add("event", &["abstraction"]);
    b.add("process", &["event"]);
    // Actions (verb-ish concepts used by predicates without a domain prefix).
    b.add("act", &["event"]);
    b.add("action", &["act"]);
    b.add("change", &["action"]);
    b.add("activation", &["change"]);
    b.add("start", &["activation"]);
    b.add("stop", &["activation"]);
    b.add("enable", &["activation"]);
    b.add("disable", &["activation"]);
    b.add("transfer", &["action"]);
    b.add("send", &["transfer"]);
    b.add("receive", &["transfer"]);
    b.add("acquire", &["transfer"]);
    b.add("release", &["transfer"]);
    b.add("decision", &["action"]);
    b.add("accept", &["decision"]);
    b.add("reject", &["decision"]);
    b.add("block", &["decision"]);
    b.add("allow", &["decision"]);
    b.add("verification", &["action"]);
    b.add("check", &["verification"]);
    b.add("monitor", &["verification"]);
    b.add("validate", &["verification"]);
    b.build().expect("static mini taxonomy is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{Similarity, SimilarityMeasure};

    #[test]
    fn builds_and_has_expected_shape() {
        let t = mini_taxonomy();
        assert!(t.len() > 50);
        assert!(t.max_depth() >= 6);
        assert!(t.id_of("accept").is_some());
        assert!(t.id_of("spacecraft").is_some());
    }

    #[test]
    fn semantic_neighbours_are_closer_than_strangers() {
        let t = mini_taxonomy();
        let m = SimilarityMeasure::WuPalmer;
        let close = m.similarity(&t, "accept", "reject").unwrap();
        let far = m.similarity(&t, "accept", "antenna").unwrap();
        assert!(close > far, "{close} vs {far}");
    }

    #[test]
    fn start_stop_are_siblings() {
        let t = mini_taxonomy();
        let lcs = t.lcs(t.id_of("start").unwrap(), t.id_of("stop").unwrap());
        assert_eq!(t.concept_name(lcs), "activation");
    }
}
