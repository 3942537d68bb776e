//! IS-A concept taxonomies (rooted DAGs).

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet, VecDeque};

use crate::error::VocabError;

/// Dense identifier of a concept within one [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u32);

impl ConceptId {
    /// The id as a usable index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The reserved name of the implicit root concept.
pub const ROOT_NAME: &str = "root";

#[derive(Debug, Clone)]
struct Node {
    name: String,
    parents: Vec<ConceptId>,
    children: Vec<ConceptId>,
    /// 1-based depth: `depth(root) == 1`, children of the root have depth 2,
    /// and a multi-parent node takes the *shortest* root path (the
    /// convention under which Wu & Palmer is usually stated for DAGs).
    depth: u32,
    /// Number of descendants, self included (for intrinsic information
    /// content).
    subtree: u32,
    /// Every ancestor, self included, deepest first with ties by id; the
    /// root is always last.
    ancestors: Vec<ConceptId>,
}

/// A rooted IS-A DAG over named concepts.
///
/// Every taxonomy has an implicit root named [`ROOT_NAME`]; a concept whose
/// declared parent list mentions `"root"` (or is empty) hangs directly under
/// it. Multiple parents are allowed (it is a DAG, not a tree), matching the
/// "ontologies, taxonomies or vocabularies" the paper delegates to.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    name: String,
    nodes: Vec<Node>,
    index: HashMap<String, ConceptId>,
    max_depth: u32,
    /// Ancestor bitsets, `words` `u64`s per concept: bit `c` of concept
    /// `x`'s row is set iff `c` subsumes `x`.
    ancestor_bits: Vec<u64>,
    words: usize,
}

/// Incremental construction of a [`Taxonomy`]; parents may be named before
/// they are defined, and validation happens in [`TaxonomyBuilder::build`].
#[derive(Debug, Clone)]
pub struct TaxonomyBuilder {
    name: String,
    declared: Vec<(String, Vec<String>)>,
    seen: HashSet<String>,
}

impl Taxonomy {
    /// Start building a taxonomy called `name` (the vocabulary prefix it
    /// serves, e.g. `"Fun"`).
    #[must_use]
    pub fn builder(name: impl Into<String>) -> TaxonomyBuilder {
        TaxonomyBuilder {
            name: name.into(),
            declared: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// The taxonomy's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Id of the implicit root.
    #[must_use]
    pub fn root(&self) -> ConceptId {
        ConceptId(0)
    }

    /// Look a concept up by name.
    #[must_use]
    pub fn id_of(&self, name: &str) -> Option<ConceptId> {
        self.index.get(name).copied()
    }

    /// Look a concept up by name, erroring when absent.
    pub fn require(&self, name: &str) -> Result<ConceptId, VocabError> {
        self.id_of(name)
            .ok_or_else(|| VocabError::UnknownConcept(name.to_string()))
    }

    /// Concept name for an id.
    #[must_use]
    pub fn concept_name(&self, id: ConceptId) -> &str {
        &self.nodes[id.index()].name
    }

    /// 1-based depth (`depth(root) == 1`).
    #[must_use]
    pub fn depth(&self, id: ConceptId) -> u32 {
        self.nodes[id.index()].depth
    }

    /// Deepest depth present in the taxonomy.
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Direct parents.
    #[must_use]
    pub fn parents(&self, id: ConceptId) -> &[ConceptId] {
        &self.nodes[id.index()].parents
    }

    /// Direct children.
    #[must_use]
    pub fn children(&self, id: ConceptId) -> &[ConceptId] {
        &self.nodes[id.index()].children
    }

    /// Number of concepts, root included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Iterate `(id, name)` pairs in id order, root first.
    pub fn iter(&self) -> impl Iterator<Item = (ConceptId, &str)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (ConceptId(i as u32), n.name.as_str()))
    }

    /// Descendant count, self included.
    #[must_use]
    pub fn subtree_size(&self, id: ConceptId) -> u32 {
        self.nodes[id.index()].subtree
    }

    /// All ancestors of `id`, self included.
    #[must_use]
    pub fn ancestors(&self, id: ConceptId) -> HashSet<ConceptId> {
        self.nodes[id.index()].ancestors.iter().copied().collect()
    }

    /// Whether `ancestor` subsumes `descendant` (reflexive).
    #[must_use]
    pub fn subsumes(&self, ancestor: ConceptId, descendant: ConceptId) -> bool {
        let word = self.ancestor_bits[descendant.index() * self.words + ancestor.index() / 64];
        word >> (ancestor.index() % 64) & 1 == 1
    }

    /// Lowest common subsumer: the common ancestor of maximum depth
    /// (ties broken towards the smaller id for determinism). `a`'s
    /// ancestors are stored in exactly that order, so the answer is the
    /// first one that also subsumes `b`; the root, last in every list,
    /// subsumes everything.
    #[must_use]
    pub fn lcs(&self, a: ConceptId, b: ConceptId) -> ConceptId {
        self.nodes[a.index()]
            .ancestors
            .iter()
            .copied()
            .find(|&c| self.subsumes(c, b))
            .unwrap_or(self.root())
    }

    /// Length (in edges) of the shortest path between `a` and `b` through
    /// their [`Taxonomy::lcs`]: the fewest IS-A edges from each up to it.
    /// In a tree that is `depth(a) + depth(b) − 2·depth(lcs)`; in a DAG a
    /// concept's shortest root path may bypass the lcs — one with a
    /// shortcut to the root can even be shallower than it — so the depths
    /// cannot say.
    #[must_use]
    pub fn path_length(&self, a: ConceptId, b: ConceptId) -> u32 {
        let lcs = self.lcs(a, b);
        self.edges_up(a, lcs) + self.edges_up(b, lcs)
    }

    /// Fewest IS-A edges from `from` up to `to`, which subsumes it: a
    /// breadth-first walk over the parents `to` also subsumes.
    fn edges_up(&self, from: ConceptId, to: ConceptId) -> u32 {
        let mut level = vec![from];
        let mut edges = 0;
        while !level.contains(&to) {
            let mut up: Vec<ConceptId> = level
                .iter()
                .flat_map(|&c| self.parents(c).iter().copied())
                .filter(|&p| self.subsumes(to, p))
                .collect();
            up.sort_unstable();
            up.dedup();
            level = up;
            edges += 1;
        }
        edges
    }

    /// Intrinsic information content (Seco et al.):
    /// `IC(c) = 1 − ln(subtree(c)) / ln(N)`, so the root has IC 0 and each
    /// leaf has IC 1. Falls back to 0 for a single-node taxonomy.
    #[must_use]
    pub fn information_content(&self, id: ConceptId) -> f64 {
        let n = self.nodes.len() as f64;
        if n <= 1.0 {
            return 0.0;
        }
        1.0 - (f64::from(self.subtree_size(id)).ln() / n.ln())
    }
}

impl TaxonomyBuilder {
    /// Declare a concept with its parent names. An empty parent list (or a
    /// mention of `"root"`) attaches the concept to the implicit root.
    pub fn add(&mut self, name: impl Into<String>, parents: &[&str]) -> &mut Self {
        let name = name.into();
        self.seen.insert(name.clone());
        self.declared
            .push((name, parents.iter().map(|s| (*s).to_string()).collect()));
        self
    }

    /// Convenience: declare a whole chain `a IS-A b IS-A c …` at once, where
    /// the *last* element hangs under the root.
    pub fn add_chain(&mut self, chain: &[&str]) -> &mut Self {
        for window in chain.windows(2) {
            if !self.seen.contains(window[0]) {
                self.add(window[0], &[window[1]]);
            }
        }
        if let Some(last) = chain.last() {
            if !self.seen.contains(*last) {
                self.add(*last, &[]);
            }
        }
        self
    }

    /// Validate and freeze the taxonomy.
    pub fn build(&self) -> Result<Taxonomy, VocabError> {
        let mut nodes = vec![Node {
            name: ROOT_NAME.to_string(),
            parents: Vec::new(),
            children: Vec::new(),
            depth: 1,
            subtree: 1,
            ancestors: Vec::new(),
        }];
        let mut index = HashMap::from([(ROOT_NAME.to_string(), ConceptId(0))]);

        for (name, _) in &self.declared {
            if name == ROOT_NAME {
                return Err(VocabError::DuplicateConcept(ROOT_NAME.to_string()));
            }
            let id = ConceptId(nodes.len() as u32);
            if index.insert(name.clone(), id).is_some() {
                return Err(VocabError::DuplicateConcept(name.clone()));
            }
            nodes.push(Node {
                name: name.clone(),
                parents: Vec::new(),
                children: Vec::new(),
                depth: 0,
                subtree: 1,
                ancestors: Vec::new(),
            });
        }

        for (name, parents) in &self.declared {
            let id = index[name];
            let mut resolved: Vec<ConceptId> = Vec::with_capacity(parents.len().max(1));
            if parents.is_empty() {
                resolved.push(ConceptId(0));
            }
            for p in parents {
                let pid = *index.get(p).ok_or_else(|| VocabError::UnknownParent {
                    concept: name.clone(),
                    parent: p.clone(),
                })?;
                if !resolved.contains(&pid) {
                    resolved.push(pid);
                }
            }
            for &pid in &resolved {
                nodes[pid.index()].children.push(id);
            }
            nodes[id.index()].parents = resolved;
        }

        // Depths via BFS from the root; any node not reached is on a cycle
        // (or hangs off one), since every acyclic node chains up to the root.
        let mut queue = VecDeque::from([ConceptId(0)]);
        let mut visited = vec![false; nodes.len()];
        visited[0] = true;
        while let Some(n) = queue.pop_front() {
            let d = nodes[n.index()].depth;
            let children = nodes[n.index()].children.clone();
            for c in children {
                if !visited[c.index()] {
                    visited[c.index()] = true;
                    nodes[c.index()].depth = d + 1;
                    queue.push_back(c);
                }
            }
        }
        if let Some(i) = visited.iter().position(|v| !v) {
            return Err(VocabError::Cycle(nodes[i].name.clone()));
        }

        // Ancestor sets by an upward walk from every node (N is small for
        // vocabularies). Each walk fills the node's bitset row and sorted
        // ancestor list, and counts the node once in every ancestor's
        // descendant total.
        let words = nodes.len().div_ceil(64);
        let mut ancestor_bits = vec![0u64; nodes.len() * words];
        let mut subtree = vec![0u32; nodes.len()];
        let mut stack = Vec::new();
        for (start, row) in ancestor_bits.chunks_exact_mut(words).enumerate() {
            let mut ancestors = Vec::new();
            stack.push(ConceptId(start as u32));
            while let Some(n) = stack.pop() {
                let bit = 1u64 << (n.index() % 64);
                if row[n.index() / 64] & bit == 0 {
                    row[n.index() / 64] |= bit;
                    ancestors.push(n);
                    subtree[n.index()] += 1;
                    stack.extend(nodes[n.index()].parents.iter().copied());
                }
            }
            ancestors.sort_by_key(|&c| (Reverse(nodes[c.index()].depth), c));
            nodes[start].ancestors = ancestors;
        }
        for (node, st) in nodes.iter_mut().zip(subtree) {
            node.subtree = st;
        }

        let max_depth = nodes.iter().map(|n| n.depth).max().unwrap_or(1);
        Ok(Taxonomy {
            name: self.name.clone(),
            nodes,
            index,
            max_depth,
            ancestor_bits,
            words,
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Ancestors by the breadth-first walk over `parents` this module
    /// used before ancestor lists and bitsets, kept as the oracle.
    fn oracle_ancestors(t: &Taxonomy, id: ConceptId) -> HashSet<ConceptId> {
        let mut out = HashSet::new();
        let mut queue = VecDeque::from([id]);
        while let Some(n) = queue.pop_front() {
            if out.insert(n) {
                queue.extend(t.parents(n).iter().copied());
            }
        }
        out
    }

    /// Fewest parent hops from `from` up to `to`, by a breadth-first walk
    /// over every ancestor.
    fn oracle_edges_up(t: &Taxonomy, from: ConceptId, to: ConceptId) -> u32 {
        let mut hops = HashMap::from([(from, 0)]);
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                return hops[&n];
            }
            for &p in t.parents(n) {
                if !hops.contains_key(&p) {
                    hops.insert(p, hops[&n] + 1);
                    queue.push_back(p);
                }
            }
        }
        panic!("{to:?} does not subsume {from:?}")
    }

    /// The old `HashSet`-intersection `lcs`.
    fn oracle_lcs(
        t: &Taxonomy,
        anc_a: &HashSet<ConceptId>,
        anc_b: &HashSet<ConceptId>,
    ) -> ConceptId {
        anc_a
            .intersection(anc_b)
            .copied()
            .max_by_key(|&c| (t.depth(c), Reverse(c)))
            .expect("root is a common ancestor of every pair")
    }

    /// A random multi-parent DAG grown from a diamond: `x` and `y` hang
    /// under the root and both parent `z` and `w`, so `lcs(z, w)` breaks
    /// a depth tie. Spec entry `i` gives concept `ci` its first `count`
    /// parents among the concepts before it, and a `shortcut` of 1 adds
    /// the root as one more, so the concept can be shallower than its
    /// lcs with another; `reverse` declares every child before its
    /// parents, which reverses the id order.
    fn random_dag(spec: &[(usize, usize, usize, usize, u8)], reverse: bool) -> Taxonomy {
        let mut names: Vec<String> = ["root", "x", "y", "z", "w"].map(String::from).to_vec();
        let mut declared: Vec<(String, Vec<String>)> = vec![
            ("x".into(), vec![]),
            ("y".into(), vec![]),
            ("z".into(), vec!["x".into(), "y".into()]),
            ("w".into(), vec!["y".into(), "x".into()]),
        ];
        for (i, &(p1, p2, p3, count, shortcut)) in spec.iter().enumerate() {
            let mut parents: Vec<String> = [p1, p2, p3][..count]
                .iter()
                .map(|p| names[p % names.len()].clone())
                .collect();
            if shortcut == 1 {
                parents.push(ROOT_NAME.into());
            }
            let name = format!("c{i}");
            declared.push((name.clone(), parents));
            names.push(name);
        }
        if reverse {
            declared.reverse();
        }
        let mut b = Taxonomy::builder("dag");
        for (name, parents) in &declared {
            let parents: Vec<&str> = parents.iter().map(String::as_str).collect();
            b.add(name.clone(), &parents);
        }
        b.build().unwrap()
    }

    proptest! {
        #[test]
        fn lcs_matches_the_hashset_oracle_on_random_dags(
            spec in prop::collection::vec((0usize..64, 0usize..64, 0usize..64, 1usize..4, 0u8..2), 0..24),
            reverse in 0u8..2,
        ) {
            let t = random_dag(&spec, reverse == 1);
            let id = |name: &str| t.id_of(name).unwrap();
            let (x, y) = (id("x"), id("y"));
            prop_assert_eq!(t.depth(x), t.depth(y));
            prop_assert_eq!(t.lcs(id("z"), id("w")), x.min(y), "the depth tie goes to the smaller id");

            let ids: Vec<ConceptId> = t.iter().map(|(c, _)| c).collect();
            let oracle: Vec<HashSet<ConceptId>> = ids.iter().map(|&c| oracle_ancestors(&t, c)).collect();
            for &a in &ids {
                prop_assert_eq!(&t.ancestors(a), &oracle[a.index()]);
                let descendants = oracle.iter().filter(|anc| anc.contains(&a)).count();
                prop_assert_eq!(t.subtree_size(a) as usize, descendants);
                for &b in &ids {
                    prop_assert_eq!(t.subsumes(a, b), oracle[b.index()].contains(&a));
                    let lcs = oracle_lcs(&t, &oracle[a.index()], &oracle[b.index()]);
                    prop_assert_eq!(t.lcs(a, b), lcs, "lcs({a:?}, {b:?})");
                    let len = oracle_edges_up(&t, a, lcs) + oracle_edges_up(&t, b, lcs);
                    prop_assert_eq!(t.path_length(a, b), len, "path_length({a:?}, {b:?})");
                }
            }
        }
    }

    /// root → vehicle → {car → {suv, sedan}, bike}; root → animal → dog
    fn sample() -> Taxonomy {
        let mut b = Taxonomy::builder("test");
        b.add("vehicle", &[]);
        b.add("car", &["vehicle"]);
        b.add("suv", &["car"]);
        b.add("sedan", &["car"]);
        b.add("bike", &["vehicle"]);
        b.add("animal", &["root"]);
        b.add("dog", &["animal"]);
        b.build().unwrap()
    }

    #[test]
    fn depths_are_shortest_root_paths() {
        let t = sample();
        assert_eq!(t.depth(t.root()), 1);
        assert_eq!(t.depth(t.id_of("vehicle").unwrap()), 2);
        assert_eq!(t.depth(t.id_of("car").unwrap()), 3);
        assert_eq!(t.depth(t.id_of("suv").unwrap()), 4);
        assert_eq!(t.max_depth(), 4);
    }

    #[test]
    fn lcs_finds_deepest_common_ancestor() {
        let t = sample();
        let suv = t.id_of("suv").unwrap();
        let sedan = t.id_of("sedan").unwrap();
        let bike = t.id_of("bike").unwrap();
        let dog = t.id_of("dog").unwrap();
        assert_eq!(t.concept_name(t.lcs(suv, sedan)), "car");
        assert_eq!(t.concept_name(t.lcs(suv, bike)), "vehicle");
        assert_eq!(t.concept_name(t.lcs(suv, dog)), "root");
        // Reflexive: lcs(x, x) = x.
        assert_eq!(t.lcs(suv, suv), suv);
        // lcs(ancestor, descendant) = ancestor.
        let car = t.id_of("car").unwrap();
        assert_eq!(t.lcs(car, suv), car);
    }

    #[test]
    fn path_lengths() {
        let t = sample();
        let suv = t.id_of("suv").unwrap();
        let sedan = t.id_of("sedan").unwrap();
        let dog = t.id_of("dog").unwrap();
        assert_eq!(t.path_length(suv, suv), 0);
        assert_eq!(t.path_length(suv, sedan), 2);
        assert_eq!(t.path_length(suv, dog), 5);
    }

    #[test]
    fn a_shortcut_to_the_root_does_not_underflow_the_path() {
        let mut b = Taxonomy::builder("shortcut");
        b.add_chain(&["x3", "x2", "x1"]);
        b.add("a", &["x3", "root"]);
        b.add("b", &["x3"]);
        let t = b.build().unwrap();
        let id = |name: &str| t.id_of(name).unwrap();
        let (a, b) = (id("a"), id("b"));
        assert_eq!(t.lcs(a, b), id("x3"));
        assert!(
            t.depth(a) < t.depth(id("x3")),
            "a is shallower than its lcs"
        );
        assert_eq!(t.path_length(a, b), 2);
        assert_eq!(t.path_length(a, id("x1")), 3);
        assert_eq!(t.path_length(a, t.root()), 1);
    }

    #[test]
    fn subsumption() {
        let t = sample();
        let car = t.id_of("car").unwrap();
        let suv = t.id_of("suv").unwrap();
        assert!(t.subsumes(car, suv));
        assert!(!t.subsumes(suv, car));
        assert!(t.subsumes(t.root(), suv));
        assert!(t.subsumes(suv, suv));
    }

    #[test]
    fn subtree_sizes_and_ic() {
        let t = sample();
        assert_eq!(t.subtree_size(t.root()), t.len() as u32);
        assert_eq!(t.subtree_size(t.id_of("car").unwrap()), 3);
        assert_eq!(t.subtree_size(t.id_of("suv").unwrap()), 1);
        assert_eq!(t.information_content(t.root()), 0.0);
        assert!((t.information_content(t.id_of("suv").unwrap()) - 1.0).abs() < 1e-12);
        let ic_car = t.information_content(t.id_of("car").unwrap());
        assert!(ic_car > 0.0 && ic_car < 1.0);
    }

    #[test]
    fn multi_parent_dag() {
        let mut b = Taxonomy::builder("dag");
        b.add("a", &[]);
        b.add("b", &[]);
        b.add("c", &["a", "b"]);
        let t = b.build().unwrap();
        let c = t.id_of("c").unwrap();
        assert_eq!(t.parents(c).len(), 2);
        assert_eq!(t.depth(c), 3);
        // c is counted once in each parent's subtree.
        assert_eq!(t.subtree_size(t.id_of("a").unwrap()), 2);
        assert_eq!(t.subtree_size(t.id_of("b").unwrap()), 2);
        assert_eq!(t.subtree_size(t.root()), 4);
    }

    #[test]
    fn duplicate_concept_rejected() {
        let mut b = Taxonomy::builder("dup");
        b.add("a", &[]);
        b.add("a", &[]);
        assert_eq!(
            b.build().unwrap_err(),
            VocabError::DuplicateConcept("a".into())
        );
    }

    #[test]
    fn redeclaring_root_rejected() {
        let mut b = Taxonomy::builder("dup");
        b.add("root", &[]);
        assert!(matches!(b.build(), Err(VocabError::DuplicateConcept(_))));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = Taxonomy::builder("bad");
        b.add("a", &["ghost"]);
        assert_eq!(
            b.build().unwrap_err(),
            VocabError::UnknownParent {
                concept: "a".into(),
                parent: "ghost".into()
            }
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut b = Taxonomy::builder("cyc");
        b.add("a", &["b"]);
        b.add("b", &["a"]);
        assert!(matches!(b.build(), Err(VocabError::Cycle(_))));
    }

    #[test]
    fn add_chain_builds_is_a_chain() {
        let mut b = Taxonomy::builder("chain");
        b.add_chain(&["suv", "car", "vehicle"]);
        b.add_chain(&["sedan", "car", "vehicle"]); // shared suffix tolerated
        let t = b.build().unwrap();
        assert_eq!(t.depth(t.id_of("suv").unwrap()), 4);
        assert_eq!(
            t.concept_name(t.lcs(t.id_of("suv").unwrap(), t.id_of("sedan").unwrap())),
            "car"
        );
    }

    #[test]
    fn require_errors_on_missing() {
        let t = sample();
        assert!(t.require("car").is_ok());
        assert_eq!(
            t.require("nope").unwrap_err(),
            VocabError::UnknownConcept("nope".into())
        );
    }

    #[test]
    fn iter_and_len() {
        let t = sample();
        assert_eq!(t.len(), 8); // 7 concepts + root
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 8);
        assert_eq!(t.iter().next().unwrap().1, ROOT_NAME);
        let empty = Taxonomy::builder("e").build().unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn duplicate_parent_mentions_collapse() {
        let mut b = Taxonomy::builder("dp");
        b.add("a", &[]);
        b.add("c", &["a", "a"]);
        let t = b.build().unwrap();
        assert_eq!(t.parents(t.id_of("c").unwrap()).len(), 1);
    }
}
