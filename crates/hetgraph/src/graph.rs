//! Typed, weighted heterogeneous graph storage.
//!
//! Nodes carry a global dense id ([`NodeId`]) and a node type; links are
//! stored per link type in CSR form ([`Csr`]) with `f32` weights (the
//! tabular function `omega` of Section III-A). The layout is optimised for
//! the access pattern of mini-batch GNN training: "give me the typed,
//! weighted neighbors of node v under link type t" is two slice lookups.

use crate::error::{Endpoint, GraphError};
use crate::schema::{LinkTypeId, NodeTypeId, Schema};

/// Global dense node identifier, valid within one [`HetGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Compressed sparse row adjacency over global node ids, with parallel
/// weight storage.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl Csr {
    /// Builds a CSR over `n` source slots from an unsorted edge list.
    pub fn from_edges(n: usize, edges: &[(u32, u32, f32)]) -> Self {
        let mut counts = vec![0u32; n + 1];
        for &(s, _, _) in edges {
            counts[s as usize + 1] += 1;
        }
        for i in 1..=n {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        let mut weights = vec![0.0f32; edges.len()];
        for &(s, t, w) in edges {
            let pos = cursor[s as usize] as usize;
            targets[pos] = t;
            weights[pos] = w;
            cursor[s as usize] += 1;
        }
        Csr { offsets, targets, weights }
    }

    /// Number of source slots.
    pub fn num_sources(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of source `s`.
    #[inline]
    pub fn degree(&self, s: usize) -> usize {
        (self.offsets[s + 1] - self.offsets[s]) as usize
    }

    /// Neighbor ids of source `s`.
    #[inline]
    pub fn neighbors(&self, s: usize) -> &[u32] {
        &self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Edge weights parallel to [`Csr::neighbors`].
    #[inline]
    pub fn weights(&self, s: usize) -> &[f32] {
        &self.weights[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Iterates `(src, dst, weight)` over all edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.num_sources()).flat_map(move |s| {
            self.neighbors(s)
                .iter()
                .zip(self.weights(s))
                .map(move |(&t, &w)| (s as u32, t, w))
        })
    }

    /// The raw column arrays `(offsets, targets, weights)`, for shard I/O.
    pub(crate) fn parts(&self) -> (&[u32], &[u32], &[f32]) {
        (&self.offsets, &self.targets, &self.weights)
    }

    /// Rebuilds a CSR from raw column arrays (shard loading). The arrays
    /// must come from [`Csr::parts`] of a well-formed CSR.
    pub(crate) fn from_parts(offsets: Vec<u32>, targets: Vec<u32>, weights: Vec<f32>) -> Self {
        Csr { offsets, targets, weights }
    }
}

/// A heterogeneous, weighted, typed graph (Definition 3.1 plus the link
/// weight function `omega`).
#[derive(Clone, Debug)]
pub struct HetGraph {
    schema: Schema,
    /// Node type of each global node id.
    node_types: Vec<NodeTypeId>,
    /// Global node ids grouped by node type.
    by_type: Vec<Vec<NodeId>>,
    /// One CSR per link type, indexed over all global node ids.
    adj: Vec<Csr>,
    /// Process-unique stamp of this graph's content state; refreshed
    /// whenever [`HetGraph::replace_links`] actually changes an edge set,
    /// so sampling caches keyed on it can never serve stale blocks.
    stamp: u64,
    /// Per-link-type content stamps, refreshed only when *that* type's
    /// edge set changes. A TE round that relinks the term edges bumps the
    /// `contains`/`contained_in` stamps and leaves `cites`/`writes`/
    /// `published_in` untouched, so sampling caches validated against the
    /// stamps of the link types a block actually consulted survive the
    /// round ([`crate::sampling::BlockCache`]).
    type_stamps: Vec<u64>,
}

/// Draws a process-unique graph content stamp (never zero).
fn next_graph_stamp() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Draws one fresh stamp per link type.
fn fresh_type_stamps(n_link_types: usize) -> Vec<u64> {
    (0..n_link_types).map(|_| next_graph_stamp()).collect()
}

impl HetGraph {
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Assembles a graph from already-built adjacency columns (shard
    /// loading); draws fresh stamps like any other construction path.
    pub(crate) fn assemble(schema: Schema, node_types: Vec<NodeTypeId>, adj: Vec<Csr>) -> Self {
        let mut by_type = vec![Vec::new(); schema.num_node_types()];
        for (i, t) in node_types.iter().enumerate() {
            by_type[t.0 as usize].push(NodeId(i as u32));
        }
        let type_stamps = fresh_type_stamps(schema.num_link_types());
        HetGraph { schema, node_types, by_type, adj, stamp: next_graph_stamp(), type_stamps }
    }

    /// Node type ids of every node, densely indexed by [`NodeId`].
    pub(crate) fn node_types_raw(&self) -> &[NodeTypeId] {
        &self.node_types
    }

    /// Identifies this graph's current content state: two `HetGraph`
    /// values report the same stamp only if one is a clone of the other
    /// and neither has had its links replaced since. Sampling caches use
    /// it as the coarse invalidation key.
    #[inline]
    pub fn sampling_stamp(&self) -> u64 {
        self.stamp
    }

    /// Content stamp of one link type: changes iff that type's edge set
    /// changed (or the graph was freshly built/deserialised). Equal stamps
    /// imply the two graph values share identical edges of that type.
    #[inline]
    pub fn link_stamp(&self, t: LinkTypeId) -> u64 {
        self.type_stamps[t.0 as usize]
    }

    /// Total number of nodes across all types.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Total number of directed, typed links.
    pub fn num_links(&self) -> usize {
        self.adj.iter().map(Csr::num_edges).sum()
    }

    /// Number of links of one type.
    pub fn num_links_of(&self, t: LinkTypeId) -> usize {
        self.adj[t.0 as usize].num_edges()
    }

    /// Node type of `v`.
    #[inline]
    pub fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.node_types[v.index()]
    }

    /// All nodes of one type.
    pub fn nodes_of_type(&self, t: NodeTypeId) -> &[NodeId] {
        &self.by_type[t.0 as usize]
    }

    /// Typed neighbors of `v` under link type `t` (may be empty).
    #[inline]
    pub fn neighbors(&self, v: NodeId, t: LinkTypeId) -> &[u32] {
        self.adj[t.0 as usize].neighbors(v.index())
    }

    /// Weights parallel to [`HetGraph::neighbors`].
    #[inline]
    pub fn weights(&self, v: NodeId, t: LinkTypeId) -> &[f32] {
        self.adj[t.0 as usize].weights(v.index())
    }

    /// Out-degree of `v` under link type `t`.
    #[inline]
    pub fn degree(&self, v: NodeId, t: LinkTypeId) -> usize {
        self.adj[t.0 as usize].degree(v.index())
    }

    /// CSR of one link type (read-only).
    pub fn csr(&self, t: LinkTypeId) -> &Csr {
        &self.adj[t.0 as usize]
    }

    /// Iterates `(src, dst, weight)` over all links of type `t`.
    pub fn iter_links(&self, t: LinkTypeId) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        self.adj[t.0 as usize].iter_edges().map(|(s, d, w)| (NodeId(s), NodeId(d), w))
    }

    /// Replaces all links of type `t` with a new edge list. Used by the TE
    /// module when paper-term links are rebuilt from refreshed TF-IDF
    /// scores.
    ///
    /// # Panics
    /// On an endpoint type mismatch; [`HetGraph::try_replace_links`]
    /// reports the same condition as a [`GraphError`].
    pub fn replace_links(&mut self, t: LinkTypeId, edges: &[(NodeId, NodeId, f32)]) {
        self.try_replace_links(t, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HetGraph::replace_links`]. On `Err` the graph is
    /// unchanged.
    pub fn try_replace_links(
        &mut self,
        t: LinkTypeId,
        edges: &[(NodeId, NodeId, f32)],
    ) -> Result<(), GraphError> {
        let def = self.schema.link_type(t).clone();
        for &(s, d, _) in edges {
            if self.node_type(s) != def.src {
                return Err(GraphError::RelinkTypeMismatch {
                    end: Endpoint::Src,
                    link: def.name.clone(),
                });
            }
            if self.node_type(d) != def.dst {
                return Err(GraphError::RelinkTypeMismatch {
                    end: Endpoint::Dst,
                    link: def.name.clone(),
                });
            }
        }
        let raw: Vec<(u32, u32, f32)> = edges.iter().map(|&(s, d, w)| (s.0, d.0, w)).collect();
        let next = Csr::from_edges(self.num_nodes(), &raw);
        // A rebuild that reproduces the existing edge set (e.g. a TE
        // refinement round whose term sets have converged) keeps the stamp,
        // so downstream sampling caches stay warm.
        if next == self.adj[t.0 as usize] {
            return Ok(());
        }
        self.adj[t.0 as usize] = next;
        self.stamp = next_graph_stamp();
        self.type_stamps[t.0 as usize] = next_graph_stamp();
        Ok(())
    }

    /// FNV-1a fingerprint of the graph's *content* — node types and every
    /// CSR's structure and weight bits — independent of the process-local
    /// [`HetGraph::sampling_stamp`]. Two graphs with equal content report
    /// equal fingerprints in any process; checkpoints store it so resume can
    /// verify the reconstructed graph matches the one that was trained on.
    pub fn content_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.node_types.len() as u64);
        for t in &self.node_types {
            mix(t.0 as u64);
        }
        mix(self.adj.len() as u64);
        for csr in &self.adj {
            mix(csr.offsets.len() as u64);
            for &o in &csr.offsets {
                mix(o as u64);
            }
            for (&t, &w) in csr.targets.iter().zip(&csr.weights) {
                mix(t as u64);
                mix(w.to_bits() as u64);
            }
        }
        h
    }
}

/// Incremental builder for a [`HetGraph`].
#[derive(Clone, Debug)]
pub struct HetGraphBuilder {
    schema: Schema,
    node_types: Vec<NodeTypeId>,
    edges: Vec<Vec<(u32, u32, f32)>>,
}

impl HetGraphBuilder {
    pub fn new(schema: Schema) -> Self {
        let n_link_types = schema.num_link_types();
        HetGraphBuilder { schema, node_types: Vec::new(), edges: vec![Vec::new(); n_link_types] }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds a node of the given type, returning its global id.
    ///
    /// # Panics
    /// On an unknown node type or a full `u32` id space;
    /// [`HetGraphBuilder::try_add_node`] reports the same conditions as a
    /// [`GraphError`].
    pub fn add_node(&mut self, t: NodeTypeId) -> NodeId {
        self.try_add_node(t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HetGraphBuilder::add_node`].
    pub fn try_add_node(&mut self, t: NodeTypeId) -> Result<NodeId, GraphError> {
        if (t.0 as usize) >= self.schema.num_node_types() {
            return Err(GraphError::UnknownNodeType { id: t.0 });
        }
        if self.node_types.len() >= u32::MAX as usize {
            return Err(GraphError::TooManyNodes);
        }
        self.node_types.push(t);
        Ok(NodeId((self.node_types.len() - 1) as u32))
    }

    /// Adds `count` nodes of one type, returning their ids.
    pub fn add_nodes(&mut self, t: NodeTypeId, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node(t)).collect()
    }

    /// Adds a weighted directed link of type `t`.
    ///
    /// # Panics
    /// Panics if the endpoints' node types do not match the link type
    /// definition, or if an endpoint id is unknown;
    /// [`HetGraphBuilder::try_add_link`] reports the same conditions as a
    /// [`GraphError`].
    pub fn add_link(&mut self, t: LinkTypeId, src: NodeId, dst: NodeId, weight: f32) {
        self.try_add_link(t, src, dst, weight).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HetGraphBuilder::add_link`]. On `Err` the builder
    /// is unchanged.
    pub fn try_add_link(
        &mut self,
        t: LinkTypeId,
        src: NodeId,
        dst: NodeId,
        weight: f32,
    ) -> Result<(), GraphError> {
        let def = self.schema.link_type(t);
        if src.index() >= self.node_types.len() {
            return Err(GraphError::UnknownEndpointNode { end: Endpoint::Src, node: src.0 });
        }
        if dst.index() >= self.node_types.len() {
            return Err(GraphError::UnknownEndpointNode { end: Endpoint::Dst, node: dst.0 });
        }
        if self.node_types[src.index()] != def.src {
            return Err(GraphError::EndpointTypeMismatch {
                end: Endpoint::Src,
                link: def.name.clone(),
            });
        }
        if self.node_types[dst.index()] != def.dst {
            return Err(GraphError::EndpointTypeMismatch {
                end: Endpoint::Dst,
                link: def.name.clone(),
            });
        }
        self.edges[t.0 as usize].push((src.0, dst.0, weight));
        Ok(())
    }

    /// Adds a link and, when `t` has a registered reverse type, the mirrored
    /// link with the same weight.
    pub fn add_link_with_reverse(&mut self, t: LinkTypeId, src: NodeId, dst: NodeId, weight: f32) {
        self.try_add_link_with_reverse(t, src, dst, weight).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HetGraphBuilder::add_link_with_reverse`]. The
    /// forward link may have been added when the reverse reports `Err`.
    pub fn try_add_link_with_reverse(
        &mut self,
        t: LinkTypeId,
        src: NodeId,
        dst: NodeId,
        weight: f32,
    ) -> Result<(), GraphError> {
        self.try_add_link(t, src, dst, weight)?;
        if let Some(r) = self.schema.link_type(t).reverse_of {
            self.try_add_link(r, dst, src, weight)?;
        }
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Finalises into an immutable [`HetGraph`].
    pub fn build(self) -> HetGraph {
        let n = self.node_types.len();
        let mut by_type = vec![Vec::new(); self.schema.num_node_types()];
        for (i, t) in self.node_types.iter().enumerate() {
            by_type[t.0 as usize].push(NodeId(i as u32));
        }
        let adj = self.edges.iter().map(|e| Csr::from_edges(n, e)).collect();
        let type_stamps = fresh_type_stamps(self.schema.num_link_types());
        HetGraph {
            schema: self.schema,
            node_types: self.node_types,
            by_type,
            adj,
            stamp: next_graph_stamp(),
            type_stamps,
        }
    }
}

/// Two-phase streaming builder for a [`HetGraph`]: a counting pass sizes
/// every CSR exactly, then a fill pass writes edges straight into their
/// final slots. Unlike [`HetGraphBuilder`], no intermediate edge `Vec`s are
/// materialised — peak memory is the finished CSR plus one cursor array —
/// which is what lets `dblp-sim` build million-paper graphs from two drains
/// of the paper stream.
///
/// Replaying the same edge sequence through both builders yields graphs
/// with equal [`HetGraph::content_fingerprint`]: `Csr::from_edges` is a
/// counting sort that preserves edge-list order within each source row, and
/// the fill pass writes in the same order.
#[derive(Clone, Debug)]
pub struct StreamGraphBuilder {
    schema: Schema,
    node_types: Vec<NodeTypeId>,
    /// Per link type: edge counts per source during the counting pass,
    /// then (after [`StreamGraphBuilder::finish_counts`]) the fill cursors.
    counts: Vec<Vec<u32>>,
    /// Per link type: final offsets (valid after `finish_counts`).
    offsets: Vec<Vec<u32>>,
    targets: Vec<Vec<u32>>,
    weights: Vec<Vec<f32>>,
    filling: bool,
}

impl StreamGraphBuilder {
    pub fn new(schema: Schema) -> Self {
        let n_link_types = schema.num_link_types();
        StreamGraphBuilder {
            schema,
            node_types: Vec::new(),
            counts: vec![Vec::new(); n_link_types],
            offsets: vec![Vec::new(); n_link_types],
            targets: vec![Vec::new(); n_link_types],
            weights: vec![Vec::new(); n_link_types],
            filling: false,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Declares `count` nodes of one type, returning the id of the first;
    /// the range is contiguous. All nodes must be declared before the
    /// counting pass ends.
    pub fn add_node_range(&mut self, t: NodeTypeId, count: usize) -> Result<NodeId, GraphError> {
        if (t.0 as usize) >= self.schema.num_node_types() {
            return Err(GraphError::UnknownNodeType { id: t.0 });
        }
        if self.node_types.len() + count > u32::MAX as usize {
            return Err(GraphError::TooManyNodes);
        }
        let first = NodeId(self.node_types.len() as u32);
        self.node_types.extend(std::iter::repeat_n(t, count));
        Ok(first)
    }

    /// Counting pass: registers one future edge of type `t` out of `src`.
    pub fn count_link(&mut self, t: LinkTypeId, src: NodeId) {
        debug_assert!(!self.filling, "count_link after finish_counts");
        let counts = &mut self.counts[t.0 as usize];
        if counts.len() < self.node_types.len() {
            counts.resize(self.node_types.len(), 0);
        }
        counts[src.index()] += 1;
    }

    /// Ends the counting pass: sizes every CSR and arms the fill cursors.
    pub fn finish_counts(&mut self) {
        let n = self.node_types.len();
        for lt in 0..self.schema.num_link_types() {
            let counts = &mut self.counts[lt];
            counts.resize(n, 0);
            let mut offsets = Vec::with_capacity(n + 1);
            let mut acc = 0u32;
            offsets.push(0);
            for &c in counts.iter() {
                acc += c;
                offsets.push(acc);
            }
            self.targets[lt] = vec![0u32; acc as usize];
            self.weights[lt] = vec![0.0f32; acc as usize];
            // Reuse the counts array as the per-source fill cursor: each
            // source starts writing at its row offset. `zip` drops the
            // trailing (n+1)-th offset.
            for (cursor, &start) in counts.iter_mut().zip(offsets.iter()) {
                *cursor = start;
            }
            self.offsets[lt] = offsets;
        }
        self.filling = true;
    }

    /// Fill pass: writes one counted edge into its final CSR slot. Edges
    /// must be replayed in the same order they were counted.
    pub fn fill_link(&mut self, t: LinkTypeId, src: NodeId, dst: NodeId, weight: f32) {
        debug_assert!(self.filling, "fill_link before finish_counts");
        let lt = t.0 as usize;
        let pos = self.counts[lt][src.index()] as usize;
        self.targets[lt][pos] = dst.0;
        self.weights[lt][pos] = weight;
        self.counts[lt][src.index()] += 1;
    }

    /// Number of nodes declared so far.
    pub fn num_nodes(&self) -> usize {
        self.node_types.len()
    }

    /// Finalises into an immutable [`HetGraph`].
    pub fn build(mut self) -> HetGraph {
        if !self.filling {
            self.finish_counts();
        }
        let mut by_type = vec![Vec::new(); self.schema.num_node_types()];
        for (i, t) in self.node_types.iter().enumerate() {
            by_type[t.0 as usize].push(NodeId(i as u32));
        }
        let adj = self
            .offsets
            .into_iter()
            .zip(self.targets)
            .zip(self.weights)
            .map(|((o, t), w)| Csr::from_parts(o, t, w))
            .collect();
        let type_stamps = fresh_type_stamps(self.schema.num_link_types());
        HetGraph {
            schema: self.schema,
            node_types: self.node_types,
            by_type,
            adj,
            stamp: next_graph_stamp(),
            type_stamps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (HetGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let (writes, _written_by) = s.add_link_type_pair("writes", "written_by", author, paper);
        let cites = s.add_link_type("cites", paper, paper);
        let mut b = HetGraphBuilder::new(s);
        let papers = b.add_nodes(paper, 3);
        let authors = b.add_nodes(author, 2);
        b.add_link_with_reverse(writes, authors[0], papers[0], 1.0);
        b.add_link_with_reverse(writes, authors[0], papers[1], 1.0);
        b.add_link_with_reverse(writes, authors[1], papers[2], 2.0);
        b.add_link(cites, papers[1], papers[0], 1.0);
        b.add_link(cites, papers[2], papers[0], 1.0);
        (b.build(), papers, authors)
    }

    #[test]
    fn counts_and_types() {
        let (g, papers, authors) = toy();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_links(), 8); // 3 writes + 3 written_by + 2 cites
        let pt = g.schema().node_type_by_name("paper").unwrap();
        let at = g.schema().node_type_by_name("author").unwrap();
        assert_eq!(g.nodes_of_type(pt), papers.as_slice());
        assert_eq!(g.nodes_of_type(at), authors.as_slice());
        assert_eq!(g.node_type(authors[1]), at);
    }

    #[test]
    fn typed_neighbors_and_weights() {
        let (g, papers, authors) = toy();
        let writes = g.schema().link_type_by_name("writes").unwrap();
        let written_by = g.schema().link_type_by_name("written_by").unwrap();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        assert_eq!(g.neighbors(authors[0], writes), &[papers[0].0, papers[1].0]);
        assert_eq!(g.weights(authors[1], writes), &[2.0]);
        assert_eq!(g.neighbors(papers[2], written_by), &[authors[1].0]);
        assert_eq!(g.neighbors(papers[0], cites), &[] as &[u32]);
        assert_eq!(g.degree(papers[1], cites), 1);
    }

    #[test]
    fn csr_from_edges_handles_empty_and_unsorted() {
        let csr = Csr::from_edges(4, &[(2, 0, 1.0), (0, 3, 0.5), (2, 1, 2.0)]);
        assert_eq!(csr.num_sources(), 4);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.neighbors(0), &[3]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        let mut n2: Vec<u32> = csr.neighbors(2).to_vec();
        n2.sort_unstable();
        assert_eq!(n2, &[0, 1]);
        assert_eq!(csr.iter_edges().count(), 3);
    }

    #[test]
    #[should_panic(expected = "src type mismatch")]
    fn rejects_wrong_endpoint_type() {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let writes = s.add_link_type("writes", author, paper);
        let mut b = HetGraphBuilder::new(s);
        let p = b.add_node(paper);
        let q = b.add_node(paper);
        b.add_link(writes, p, q, 1.0); // src should be an author
    }

    #[test]
    fn try_apis_report_structured_errors() {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let writes = s.add_link_type("writes", author, paper);
        let mut b = HetGraphBuilder::new(s);
        let p = b.add_node(paper);
        let q = b.add_node(paper);
        assert_eq!(
            b.try_add_node(NodeTypeId(9)),
            Err(GraphError::UnknownNodeType { id: 9 })
        );
        assert_eq!(
            b.try_add_link(writes, p, q, 1.0),
            Err(GraphError::EndpointTypeMismatch { end: Endpoint::Src, link: "writes".into() })
        );
        assert_eq!(
            b.try_add_link(writes, NodeId(99), p, 1.0),
            Err(GraphError::UnknownEndpointNode { end: Endpoint::Src, node: 99 })
        );
        // Failed calls left the builder unchanged.
        assert_eq!(b.num_nodes(), 2);
        let mut g = b.build();
        assert_eq!(g.num_links(), 0);
        let err = g.try_replace_links(writes, &[(p, q, 1.0)]);
        assert_eq!(
            err,
            Err(GraphError::RelinkTypeMismatch { end: Endpoint::Src, link: "writes".into() })
        );
    }

    #[test]
    fn content_fingerprint_tracks_content_not_stamp() {
        let (g, papers, _) = toy();
        let clone = g.clone();
        assert_eq!(g.content_fingerprint(), clone.content_fingerprint());
        let (mut h, _, _) = toy();
        // Fresh builds of the same graph carry different stamps but equal
        // content fingerprints.
        assert_ne!(g.sampling_stamp(), h.sampling_stamp());
        assert_eq!(g.content_fingerprint(), h.content_fingerprint());
        let cites = h.schema().link_type_by_name("cites").unwrap();
        h.replace_links(cites, &[(papers[0], papers[2], 3.0)]);
        assert_ne!(g.content_fingerprint(), h.content_fingerprint());
    }

    #[test]
    fn replace_links_swaps_edge_set() {
        let (mut g, papers, _) = toy();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        assert_eq!(g.num_links_of(cites), 2);
        g.replace_links(cites, &[(papers[0], papers[2], 3.0)]);
        assert_eq!(g.num_links_of(cites), 1);
        assert_eq!(g.neighbors(papers[0], cites), &[papers[2].0]);
        assert_eq!(g.weights(papers[0], cites), &[3.0]);
    }

    #[test]
    fn serde_round_trip() {
        let (g, _, _) = toy();
        let json = serde_json::to_string(&g).unwrap();
        let h: HetGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(h.num_nodes(), g.num_nodes());
        assert_eq!(h.num_links(), g.num_links());
    }

    #[test]
    fn stream_builder_matches_vec_builder() {
        let (g, papers, authors) = toy();
        let mut b = StreamGraphBuilder::new(g.schema().clone());
        let paper = g.schema().node_type_by_name("paper").unwrap();
        let author = g.schema().node_type_by_name("author").unwrap();
        let writes = g.schema().link_type_by_name("writes").unwrap();
        let written_by = g.schema().link_type_by_name("written_by").unwrap();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        assert_eq!(b.add_node_range(paper, 3).unwrap(), papers[0]);
        assert_eq!(b.add_node_range(author, 2).unwrap(), authors[0]);
        // Two passes over the same edge sequence as `toy()` emits it.
        let edges = [
            (writes, authors[0], papers[0], 1.0),
            (written_by, papers[0], authors[0], 1.0),
            (writes, authors[0], papers[1], 1.0),
            (written_by, papers[1], authors[0], 1.0),
            (writes, authors[1], papers[2], 2.0),
            (written_by, papers[2], authors[1], 2.0),
            (cites, papers[1], papers[0], 1.0),
            (cites, papers[2], papers[0], 1.0),
        ];
        for &(t, s, _, _) in &edges {
            b.count_link(t, s);
        }
        b.finish_counts();
        for &(t, s, d, w) in &edges {
            b.fill_link(t, s, d, w);
        }
        let h = b.build();
        assert_eq!(h.content_fingerprint(), g.content_fingerprint());
        assert_ne!(h.sampling_stamp(), g.sampling_stamp());
    }

    #[test]
    fn per_type_stamps_move_independently() {
        let (mut g, papers, _) = toy();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        let writes = g.schema().link_type_by_name("writes").unwrap();
        let cites_before = g.link_stamp(cites);
        let writes_before = g.link_stamp(writes);
        // Identical relink: no stamp moves.
        let same: Vec<_> = g.iter_links(cites).collect();
        g.replace_links(cites, &same);
        assert_eq!(g.link_stamp(cites), cites_before);
        assert_eq!(g.link_stamp(writes), writes_before);
        // Real relink of cites: only the cites stamp moves.
        g.replace_links(cites, &[(papers[0], papers[2], 3.0)]);
        assert_ne!(g.link_stamp(cites), cites_before);
        assert_eq!(g.link_stamp(writes), writes_before);
    }
}

serde::impl_serde_newtype!(NodeId);
serde::impl_serde_struct!(Csr { offsets, targets, weights });

// Manual impl (not `impl_serde_struct!`): the stamp is process-local
// identity, so it is not serialised, and deserialisation draws a fresh one.
impl serde::Serialize for HetGraph {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("schema".to_string(), serde::Serialize::to_value(&self.schema)),
            ("node_types".to_string(), serde::Serialize::to_value(&self.node_types)),
            ("by_type".to_string(), serde::Serialize::to_value(&self.by_type)),
            ("adj".to_string(), serde::Serialize::to_value(&self.adj)),
        ])
    }
}

impl serde::Deserialize for HetGraph {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let schema: Schema = serde::Deserialize::from_value(v.field("schema")?)?;
        let type_stamps = fresh_type_stamps(schema.num_link_types());
        Ok(HetGraph {
            schema,
            node_types: serde::Deserialize::from_value(v.field("node_types")?)?,
            by_type: serde::Deserialize::from_value(v.field("by_type")?)?,
            adj: serde::Deserialize::from_value(v.field("adj")?)?,
            stamp: next_graph_stamp(),
            type_stamps,
        })
    }
}
