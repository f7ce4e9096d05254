//! Fixed-size L-hop neighborhood sampling (Algorithm 1, line 5).
//!
//! Produces GraphSAGE-style bipartite [`Block`]s: `blocks[0]` has the batch
//! seeds as destinations; `blocks[l].src_nodes` equals
//! `blocks[l+1].dst_nodes`, so a model computes representations bottom-up,
//! from the deepest frontier to the seeds. Every destination node is also
//! present among the sources of its own block ([`Block::dst_in_src`]), which
//! the HGN composition `phi(h_u, h_e) (.) h_v` needs to read the previous-
//! layer embedding of the target itself.
//!
//! The fanout bound makes the peak memory of an L-layer model
//! `O(B * S^L * d)` as analysed in Section III-F.

use crate::graph::{HetGraph, NodeId};
use crate::schema::LinkTypeId;
use rand::seq::index::sample as index_sample;
use rand::Rng;
use std::collections::BTreeMap;

/// One sampled edge inside a [`Block`], in local positional coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockEdge {
    /// Index of the (neighbor) source node within [`Block::src_nodes`].
    pub src_pos: u32,
    /// Index of the target node within [`Block::dst_nodes`].
    pub dst_pos: u32,
    /// The link weight `omega(e)`.
    pub weight: f32,
}

/// A bipartite message-passing block for one hop of computation.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Target nodes of this hop (the frontier closer to the seeds).
    pub dst_nodes: Vec<NodeId>,
    /// Source nodes: all sampled neighbors plus every target node.
    pub src_nodes: Vec<NodeId>,
    /// `dst_in_src[i]` is the position of `dst_nodes[i]` in `src_nodes`.
    pub dst_in_src: Vec<u32>,
    /// Sampled edges grouped by link type (indexed by `LinkTypeId.0`).
    pub edges_by_type: Vec<Vec<BlockEdge>>,
}

impl Block {
    /// Total number of sampled edges across all link types.
    pub fn num_edges(&self) -> usize {
        self.edges_by_type.iter().map(Vec::len).sum()
    }
}

/// Samples an `hops`-deep neighborhood of `seeds` with at most `fanout`
/// neighbors per (node, link type). Returns one [`Block`] per hop, seeds
/// first.
pub fn sample_blocks<R: Rng>(
    g: &HetGraph,
    seeds: &[NodeId],
    hops: usize,
    fanout: usize,
    rng: &mut R,
) -> Vec<Block> {
    sample_blocks_traced(g, seeds, hops, fanout, rng).0
}

/// [`sample_blocks`] plus the list of link types the sampler *consulted*:
/// every type whose adjacency was read for some frontier node (including
/// empty reads — a relink could make them non-empty). The output blocks
/// depend on the graph only through these types, so a cache entry recorded
/// with their stamps stays valid until one of *them* is relinked
/// ([`BlockCache`]).
pub fn sample_blocks_traced<R: Rng>(
    g: &HetGraph,
    seeds: &[NodeId],
    hops: usize,
    fanout: usize,
    rng: &mut R,
) -> (Vec<Block>, Vec<LinkTypeId>) {
    let mut blocks = Vec::with_capacity(hops);
    let mut consulted = vec![false; g.schema().num_link_types()];
    let mut index = vec![ABSENT; g.num_nodes()];
    let mut frontier: Vec<NodeId> = dedup_preserve_order(seeds, &mut index);
    for _ in 0..hops {
        let block = sample_one_hop(g, &frontier, fanout, rng, &mut consulted, &mut index);
        frontier = block.src_nodes.clone();
        blocks.push(block);
    }
    let types = consulted
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c)
        .map(|(i, _)| LinkTypeId(i as u8))
        .collect();
    (blocks, types)
}

/// Empty slot of the sampler's dense membership index.
const ABSENT: u32 = u32::MAX;

/// Position of `v` in `list`, appending it first when its `index` slot is
/// [`ABSENT`]. An id outside the index (a seed beyond the graph) is
/// appended every time; the sampler's `node_type` read rejects it.
#[inline]
fn intern(index: &mut [u32], list: &mut Vec<NodeId>, v: NodeId) -> u32 {
    match index.get_mut(v.index()) {
        Some(slot) if *slot != ABSENT => *slot,
        slot => {
            let pos = list.len() as u32;
            list.push(v);
            if let Some(slot) = slot {
                *slot = pos;
            }
            pos
        }
    }
}

/// Returns every slot of `nodes` to [`ABSENT`], so clearing costs what
/// filling did rather than one pass over the whole graph.
fn clear_slots(index: &mut [u32], nodes: &[NodeId]) {
    for v in nodes {
        if let Some(slot) = index.get_mut(v.index()) {
            *slot = ABSENT;
        }
    }
}

fn sample_one_hop<R: Rng>(
    g: &HetGraph,
    dst: &[NodeId],
    fanout: usize,
    rng: &mut R,
    consulted: &mut [bool],
    index: &mut [u32],
) -> Block {
    let n_link_types = g.schema().num_link_types();
    let mut src_nodes: Vec<NodeId> = Vec::with_capacity(dst.len() * 2);
    // `index` maps a node id to its position in `src_nodes` (one slot per
    // graph node, `ABSENT` when not yet sampled this hop). It is only read
    // and written per id, never iterated, so output order is the
    // `src_nodes` push order. Destinations go first, so `dst_in_src` is
    // the identity prefix.
    let dst_in_src: Vec<u32> = dst
        .iter()
        .map(|&v| intern(index, &mut src_nodes, v))
        .collect();

    let mut edges_by_type = vec![Vec::new(); n_link_types];
    for (dst_pos, &v) in dst.iter().enumerate() {
        for lt in g.schema().link_type_ids() {
            // Incoming messages at v travel along link types whose *source*
            // is v's type: v's typed out-neighbors u are the message
            // senders (the reverse direction is a separate link type).
            if g.schema().link_type(lt).src != g.node_type(v) {
                continue;
            }
            consulted[lt.0 as usize] = true;
            let nbrs = g.neighbors(v, lt);
            let ws = g.weights(v, lt);
            if nbrs.is_empty() {
                continue;
            }
            let edges = &mut edges_by_type[lt.0 as usize];
            let mut push = |u: u32, w: f32| {
                edges.push(BlockEdge {
                    src_pos: intern(index, &mut src_nodes, NodeId(u)),
                    dst_pos: dst_pos as u32,
                    weight: w,
                });
            };
            if nbrs.len() <= fanout {
                for (&u, &w) in nbrs.iter().zip(ws) {
                    push(u, w);
                }
            } else {
                for i in index_sample(rng, nbrs.len(), fanout) {
                    push(nbrs[i], ws[i]);
                }
            }
        }
    }
    clear_slots(index, &src_nodes);
    Block {
        dst_nodes: dst.to_vec(),
        src_nodes,
        dst_in_src,
        edges_by_type,
    }
}

/// LRU cache over [`sample_blocks`] results, keyed by everything the
/// sampler's output depends on: the exact seed list, the hop count, the
/// fanout, and the RNG state (observed through a 4-word probe drawn from a
/// *clone*, so the caller's generator is untouched by a lookup). Lookup is
/// a `BTreeMap` search, not a scan, and recency is tracked through an LRU
/// tick index, so capacity can grow without a per-sample O(capacity) cost.
///
/// Graph freshness is validated per link type: an entry records the
/// [`HetGraph::link_stamp`] of every type the sampler consulted, and hits
/// only while all of them are current. A TE round that relinks just the
/// term edges therefore invalidates only entries whose neighborhoods
/// actually crossed a term link — cached `cites`/`writes`/`published_in`
/// blocks survive, where the old whole-graph stamp flushed everything.
///
/// On a hit the cached blocks are returned and the caller's RNG is
/// replaced with the state the sampler left behind when the entry was
/// recorded — downstream draws continue exactly as if sampling had run.
/// Repeated Algorithm-1 evaluation rounds (validation `predict` with a
/// fixed seed, per-round TE read-outs) therefore replay for free as long
/// as no consulted link type has been relinked.
pub struct BlockCache<R> {
    capacity: usize,
    entries: BTreeMap<CacheKey, CacheEntry<R>>,
    /// LRU index: tick of last use → key. First entry is the eviction
    /// victim.
    lru: BTreeMap<u64, CacheKey>,
    tick: u64,
    hits: u64,
    misses: u64,
}

struct CacheEntry<R> {
    /// Exact seed list — kills the (astronomically unlikely) seed-hash
    /// collision instead of serving a wrong neighborhood.
    seeds: Vec<NodeId>,
    blocks: Vec<Block>,
    rng_after: R,
    /// `(link type, stamp)` for every type the sampler consulted; the
    /// entry is valid while all stamps are current.
    consulted: Vec<(LinkTypeId, u64)>,
    lru_tick: u64,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CacheKey {
    seed_hash: u64,
    hops: usize,
    fanout: usize,
    rng_probe: [u32; 4],
    /// Guards against serving across graphs of a different schema shape
    /// (graph content itself is validated through the consulted stamps).
    n_link_types: usize,
}

impl<R: Rng + Clone> BlockCache<R> {
    /// A cache holding at most `capacity` sampled neighborhoods.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// [`sample_blocks`] through the cache. Bitwise-equivalent to calling
    /// the sampler directly: both the returned blocks and the caller's RNG
    /// state afterwards are identical on hit and miss paths.
    pub fn sample(
        &mut self,
        g: &HetGraph,
        seeds: &[NodeId],
        hops: usize,
        fanout: usize,
        rng: &mut R,
    ) -> Vec<Block> {
        let key = CacheKey {
            seed_hash: hash_seeds(seeds),
            hops,
            fanout,
            rng_probe: rng_probe(rng),
            n_link_types: g.schema().num_link_types(),
        };
        if let Some(entry) = self.entries.get_mut(&key) {
            let fresh = entry.consulted.iter().all(|&(lt, s)| g.link_stamp(lt) == s);
            if fresh && entry.seeds == seeds {
                self.tick += 1;
                self.lru.remove(&entry.lru_tick);
                entry.lru_tick = self.tick;
                self.lru.insert(self.tick, key);
                *rng = entry.rng_after.clone();
                self.hits += 1;
                return entry.blocks.clone();
            }
            // Stale (stamps only move forward, so it can never hit again)
            // or a seed-hash collision: drop it and resample.
            let dead = entry.lru_tick;
            self.lru.remove(&dead);
            self.entries.remove(&key);
        }
        let (blocks, types) = sample_blocks_traced(g, seeds, hops, fanout, rng);
        self.misses += 1;
        let consulted = types.into_iter().map(|lt| (lt, g.link_stamp(lt))).collect();
        self.tick += 1;
        self.lru.insert(self.tick, key.clone());
        self.entries.insert(
            key,
            CacheEntry {
                seeds: seeds.to_vec(),
                blocks: blocks.clone(),
                rng_after: rng.clone(),
                consulted,
                lru_tick: self.tick,
            },
        );
        while self.entries.len() > self.capacity {
            match self.lru.pop_first() {
                Some((_, victim)) => {
                    self.entries.remove(&victim);
                }
                None => break,
            }
        }
        blocks
    }
}

/// Fingerprints the generator's state by drawing four words from a clone;
/// the argument itself never advances.
fn rng_probe<R: Rng + Clone>(rng: &R) -> [u32; 4] {
    let mut probe = rng.clone();
    [
        probe.next_u32(),
        probe.next_u32(),
        probe.next_u32(),
        probe.next_u32(),
    ]
}

/// FNV-1a over the seed ids (cheap pre-filter; exact list compared on hit).
fn hash_seeds(seeds: &[NodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in seeds {
        h ^= s.0 as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `nodes` without repeats, in first-seen order; leaves `index` clear.
fn dedup_preserve_order(nodes: &[NodeId], index: &mut [u32]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(nodes.len());
    for &v in nodes {
        intern(index, &mut out, v);
    }
    clear_slots(index, &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HetGraphBuilder;
    use crate::schema::Schema;
    use rand::RngCore;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Star graph: one paper linked to `n_auth` authors (both directions).
    fn star(n_auth: usize) -> (HetGraph, NodeId, Vec<NodeId>) {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let (writes, _) = s.add_link_type_pair("writes", "written_by", author, paper);
        let mut b = HetGraphBuilder::new(s);
        let p = b.add_node(paper);
        let authors = b.add_nodes(author, n_auth);
        for &a in &authors {
            b.add_link_with_reverse(writes, a, p, 1.0);
        }
        (b.build(), p, authors)
    }

    #[test]
    fn fanout_caps_neighbors() {
        let (g, p, _) = star(20);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let blocks = sample_blocks(&g, &[p], 1, 5, &mut rng);
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.dst_nodes, vec![p]);
        // written_by edges capped at 5.
        let wb = g.schema().link_type_by_name("written_by").unwrap();
        assert_eq!(b.edges_by_type[wb.0 as usize].len(), 5);
        // Sources: the paper itself + 5 sampled authors.
        assert_eq!(b.src_nodes.len(), 6);
        assert_eq!(b.dst_in_src, vec![0]);
    }

    #[test]
    fn takes_all_when_degree_below_fanout() {
        let (g, p, authors) = star(3);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let blocks = sample_blocks(&g, &[p], 1, 10, &mut rng);
        let wb = g.schema().link_type_by_name("written_by").unwrap();
        let edges = &blocks[0].edges_by_type[wb.0 as usize];
        assert_eq!(edges.len(), 3);
        let mut srcs: Vec<NodeId> = edges
            .iter()
            .map(|e| blocks[0].src_nodes[e.src_pos as usize])
            .collect();
        srcs.sort();
        assert_eq!(srcs, authors);
    }

    #[test]
    fn chained_blocks_share_frontiers() {
        let (g, p, _) = star(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let blocks = sample_blocks(&g, &[p], 2, 3, &mut rng);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].src_nodes, blocks[1].dst_nodes);
        // Every dst appears among its own block's srcs at the advertised slot.
        for b in &blocks {
            for (i, &d) in b.dst_nodes.iter().enumerate() {
                assert_eq!(b.src_nodes[b.dst_in_src[i] as usize], d);
            }
        }
    }

    #[test]
    fn duplicate_seeds_are_deduped() {
        let (g, p, _) = star(2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let blocks = sample_blocks(&g, &[p, p, p], 1, 2, &mut rng);
        assert_eq!(blocks[0].dst_nodes, vec![p]);
    }

    #[test]
    fn isolated_node_yields_no_edges() {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        s.add_link_type("cites", paper, paper);
        let mut b = HetGraphBuilder::new(s);
        let p = b.add_node(paper);
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let blocks = sample_blocks(&g, &[p], 2, 5, &mut rng);
        assert_eq!(blocks[0].num_edges(), 0);
        assert_eq!(blocks[1].num_edges(), 0);
        assert_eq!(blocks[1].dst_nodes, vec![p]);
    }

    #[test]
    fn edge_weights_are_preserved() {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let term = s.add_node_type("term");
        let (_, cin) = s.add_link_type_pair("contains", "contained_in", paper, term);
        let mut b = HetGraphBuilder::new(s);
        let p = b.add_node(paper);
        let t = b.add_node(term);
        b.add_link(s_handle(&b, "contains"), p, t, 0.75);
        let _ = cin;
        let g = b.build();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let blocks = sample_blocks(&g, &[p], 1, 5, &mut rng);
        let contains = g.schema().link_type_by_name("contains").unwrap();
        let e = &blocks[0].edges_by_type[contains.0 as usize];
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].weight, 0.75);
    }

    fn s_handle(b: &HetGraphBuilder, name: &str) -> crate::schema::LinkTypeId {
        b.schema().link_type_by_name(name).unwrap()
    }

    fn blocks_eq(a: &[Block], b: &[Block]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.dst_nodes == y.dst_nodes
                    && x.src_nodes == y.src_nodes
                    && x.dst_in_src == y.dst_in_src
                    && x.edges_by_type == y.edges_by_type
            })
    }

    /// The sampler as it was before the dense index: a `BTreeMap`
    /// membership map per hop and a `BTreeSet` seed dedup. Kept as the
    /// oracle for the equivalence test below.
    fn reference_sample_blocks<R: Rng>(
        g: &HetGraph,
        seeds: &[NodeId],
        hops: usize,
        fanout: usize,
        rng: &mut R,
    ) -> (Vec<Block>, Vec<LinkTypeId>) {
        let mut consulted = vec![false; g.schema().num_link_types()];
        let mut seen = std::collections::BTreeSet::new();
        let mut frontier: Vec<NodeId> = seeds.iter().copied().filter(|&v| seen.insert(v)).collect();
        let mut blocks = Vec::new();
        for _ in 0..hops {
            let mut src_nodes: Vec<NodeId> = Vec::new();
            let mut src_index: BTreeMap<NodeId, u32> = BTreeMap::new();
            let mut pos_of = |src_nodes: &mut Vec<NodeId>, v: NodeId| {
                *src_index.entry(v).or_insert_with(|| {
                    src_nodes.push(v);
                    (src_nodes.len() - 1) as u32
                })
            };
            let dst_in_src: Vec<u32> = frontier
                .iter()
                .map(|&v| pos_of(&mut src_nodes, v))
                .collect();
            let mut edges_by_type = vec![Vec::new(); g.schema().num_link_types()];
            for (dst_pos, &v) in frontier.iter().enumerate() {
                for lt in g.schema().link_type_ids() {
                    if g.schema().link_type(lt).src != g.node_type(v) {
                        continue;
                    }
                    consulted[lt.0 as usize] = true;
                    let (nbrs, ws) = (g.neighbors(v, lt), g.weights(v, lt));
                    if nbrs.is_empty() {
                        continue;
                    }
                    let picks: Vec<usize> = if nbrs.len() <= fanout {
                        (0..nbrs.len()).collect()
                    } else {
                        index_sample(rng, nbrs.len(), fanout).into_iter().collect()
                    };
                    for i in picks {
                        let src_pos = pos_of(&mut src_nodes, NodeId(nbrs[i]));
                        edges_by_type[lt.0 as usize].push(BlockEdge {
                            src_pos,
                            dst_pos: dst_pos as u32,
                            weight: ws[i],
                        });
                    }
                }
            }
            let block = Block {
                dst_nodes: frontier.clone(),
                src_nodes,
                dst_in_src,
                edges_by_type,
            };
            frontier = block.src_nodes.clone();
            blocks.push(block);
        }
        let types = (0..consulted.len())
            .filter(|&i| consulted[i])
            .map(|i| LinkTypeId(i as u8))
            .collect();
        (blocks, types)
    }

    /// Random publication graph with `isolated` link-free nodes of every
    /// type mixed in.
    fn random_graph(seed: u64, isolated: usize) -> HetGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let term = s.add_node_type("term");
        let cites = s.add_link_type("cites", paper, paper);
        let (writes, _) = s.add_link_type_pair("writes", "written_by", author, paper);
        let (contains, _) = s.add_link_type_pair("contains", "contained_in", paper, term);
        let mut b = HetGraphBuilder::new(s);
        let papers = b.add_nodes(paper, 40);
        b.add_nodes(paper, isolated);
        let authors = b.add_nodes(author, 15);
        b.add_nodes(author, isolated);
        let terms = b.add_nodes(term, 10);
        b.add_nodes(term, isolated);
        for &p in &papers {
            for _ in 0..rng.gen_range(0..12) {
                let q = papers[rng.gen_range(0..papers.len())];
                b.add_link(cites, p, q, rng.gen_range(0.1f32..2.0));
            }
            for _ in 0..rng.gen_range(0..4) {
                let a = authors[rng.gen_range(0..authors.len())];
                b.add_link_with_reverse(writes, a, p, 1.0);
            }
            for _ in 0..rng.gen_range(0..6) {
                let t = terms[rng.gen_range(0..terms.len())];
                b.add_link_with_reverse(contains, p, t, rng.gen_range(0.1f32..1.0));
            }
        }
        b.build()
    }

    #[test]
    fn dense_index_sampler_matches_btreemap_reference() {
        for graph_seed in 0..4u64 {
            let g = random_graph(graph_seed, graph_seed as usize * 3);
            let n = g.num_nodes() as u32;
            let mut pick = ChaCha8Rng::seed_from_u64(100 + graph_seed);
            for case in 0..24u64 {
                // Duplicate seeds on purpose: ids drawn with replacement,
                // and the first seed repeated at the end.
                let mut seeds: Vec<NodeId> = (0..pick.gen_range(1..9))
                    .map(|_| NodeId(pick.gen_range(0..n)))
                    .collect();
                seeds.push(seeds[0]);
                let hops = 1 + (case % 3) as usize;
                // Below, around and above the typical degree.
                let fanout = [1, 2, 3, 5, 8, 64][(case % 6) as usize];
                let mut r_ref = ChaCha8Rng::seed_from_u64(case);
                let mut r_new = ChaCha8Rng::seed_from_u64(case);
                let (want, want_types) =
                    reference_sample_blocks(&g, &seeds, hops, fanout, &mut r_ref);
                let (got, got_types) = sample_blocks_traced(&g, &seeds, hops, fanout, &mut r_new);
                assert!(blocks_eq(&want, &got), "graph {graph_seed} case {case}");
                assert_eq!(want_types, got_types, "consulted types");
                let words = |r: &mut ChaCha8Rng| [r.next_u32(), r.next_u32(), r.next_u32()];
                assert_eq!(words(&mut r_ref), words(&mut r_new), "RNG state");

                // Through the cache: a miss, then a hit from the same state.
                let mut cache = BlockCache::new(4);
                for expect in [(0, 1), (1, 1)] {
                    let mut r_ref = ChaCha8Rng::seed_from_u64(case);
                    let mut r_c = ChaCha8Rng::seed_from_u64(case);
                    let (want, _) = reference_sample_blocks(&g, &seeds, hops, fanout, &mut r_ref);
                    let got = cache.sample(&g, &seeds, hops, fanout, &mut r_c);
                    assert!(
                        blocks_eq(&want, &got),
                        "cached graph {graph_seed} case {case}"
                    );
                    assert_eq!(words(&mut r_ref), words(&mut r_c), "cached RNG state");
                    assert_eq!(cache.stats(), expect);
                }
            }
        }
    }

    #[test]
    fn cache_hit_replays_blocks_and_rng_state() {
        let (g, p, _) = star(20);
        let mut cache = BlockCache::new(8);
        // Reference: two uncached rounds from the same seed state.
        let mut r_ref = ChaCha8Rng::seed_from_u64(7);
        let b_ref = sample_blocks(&g, &[p], 2, 5, &mut r_ref);
        let follow_ref: u32 = r_ref.next_u32();
        // Cached: miss then hit, both from the same initial state.
        let mut r1 = ChaCha8Rng::seed_from_u64(7);
        let b1 = cache.sample(&g, &[p], 2, 5, &mut r1);
        let follow1 = r1.next_u32();
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let b2 = cache.sample(&g, &[p], 2, 5, &mut r2);
        let follow2 = r2.next_u32();
        assert!(blocks_eq(&b_ref, &b1) && blocks_eq(&b_ref, &b2));
        assert_eq!(
            (follow_ref, follow_ref),
            (follow1, follow2),
            "RNG must continue identically"
        );
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn cache_misses_on_different_rng_state_or_params() {
        let (g, p, _) = star(20);
        let mut cache = BlockCache::new(8);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        cache.sample(&g, &[p], 1, 5, &mut rng); // advances rng
        cache.sample(&g, &[p], 1, 5, &mut rng); // different state -> miss
        let mut rng2 = ChaCha8Rng::seed_from_u64(1);
        cache.sample(&g, &[p], 1, 4, &mut rng2); // different fanout -> miss
        assert_eq!(cache.stats(), (0, 3));
    }

    #[test]
    fn cache_invalidates_after_relink() {
        let (mut g, p, authors) = star(4);
        let writes = g.schema().link_type_by_name("writes").unwrap();
        let mut cache = BlockCache::new(8);
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        cache.sample(&g, &[p], 1, 5, &mut r1);
        // Identical relink keeps the stamp: next lookup hits.
        let same: Vec<_> = g.iter_links(writes).collect::<Vec<_>>();
        g.replace_links(writes, &same);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        cache.sample(&g, &[p], 1, 5, &mut r2);
        assert_eq!(cache.stats(), (1, 1));
        // A real change refreshes the stamp: stale entry cannot hit, and
        // the resample sees the new adjacency.
        let wb = g.schema().link_type_by_name("written_by").unwrap();
        g.replace_links(wb, &[(p, authors[0], 0.25)]);
        let mut r3 = ChaCha8Rng::seed_from_u64(3);
        let blocks = cache.sample(&g, &[p], 1, 5, &mut r3);
        assert_eq!(cache.stats(), (1, 2));
        assert_eq!(
            blocks[0].edges_by_type[wb.0 as usize].len(),
            1,
            "resample sees replaced links"
        );
    }

    /// Publication-shaped graph: papers with author links and term links,
    /// so term relinks can be isolated from author-side caches.
    fn pub_graph() -> (HetGraph, Vec<NodeId>, Vec<NodeId>, Vec<NodeId>) {
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        let author = s.add_node_type("author");
        let term = s.add_node_type("term");
        let (writes, _) = s.add_link_type_pair("writes", "written_by", author, paper);
        let (contains, _) = s.add_link_type_pair("contains", "contained_in", paper, term);
        let mut b = HetGraphBuilder::new(s);
        let papers = b.add_nodes(paper, 3);
        let authors = b.add_nodes(author, 2);
        let terms = b.add_nodes(term, 4);
        for (i, &p) in papers.iter().enumerate() {
            b.add_link_with_reverse(writes, authors[i % 2], p, 1.0);
            b.add_link_with_reverse(contains, p, terms[i], 0.5);
            b.add_link_with_reverse(contains, p, terms[(i + 1) % 4], 0.5);
        }
        (b.build(), papers, authors, terms)
    }

    #[test]
    fn relinking_terms_keeps_author_side_entries_warm() {
        let (mut g, papers, authors, terms) = pub_graph();
        let contains = g.schema().link_type_by_name("contains").unwrap();
        let mut cache = BlockCache::new(8);
        // Author seed consults only `writes`; paper seed consults
        // `written_by` and `contains`.
        cache.sample(&g, &[authors[0]], 1, 5, &mut ChaCha8Rng::seed_from_u64(1));
        cache.sample(&g, &[papers[0]], 1, 5, &mut ChaCha8Rng::seed_from_u64(2));
        assert_eq!(cache.stats(), (0, 2));
        // A TE-style round rebuilds only the term links.
        g.replace_links(contains, &[(papers[0], terms[3], 0.9)]);
        // The author-side entry survives the relink...
        cache.sample(&g, &[authors[0]], 1, 5, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(cache.stats(), (1, 2), "unrelated entry must stay warm");
        // ...while the paper-side entry (which consulted `contains`) is
        // stale, and the resample sees the new term adjacency.
        let blocks = cache.sample(&g, &[papers[0]], 1, 5, &mut ChaCha8Rng::seed_from_u64(2));
        assert_eq!(cache.stats(), (1, 3));
        let e = &blocks[0].edges_by_type[contains.0 as usize];
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].weight, 0.9);
    }

    #[test]
    fn empty_adjacency_is_still_consulted() {
        // A seed whose consulted type currently has no edges must still be
        // invalidated when that type gains edges.
        let mut s = Schema::new();
        let paper = s.add_node_type("paper");
        s.add_link_type("cites", paper, paper);
        let mut b = HetGraphBuilder::new(s);
        let p = b.add_node(paper);
        let q = b.add_node(paper);
        let mut g = b.build();
        let cites = g.schema().link_type_by_name("cites").unwrap();
        let mut cache = BlockCache::new(4);
        let b1 = cache.sample(&g, &[p], 1, 5, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(b1[0].num_edges(), 0);
        g.replace_links(cites, &[(p, q, 1.0)]);
        let b2 = cache.sample(&g, &[p], 1, 5, &mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(
            cache.stats(),
            (0, 2),
            "empty consult must not survive relink"
        );
        assert_eq!(b2[0].num_edges(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let (g, p, authors) = star(6);
        let mut cache = BlockCache::new(2);
        let key_rng = || ChaCha8Rng::seed_from_u64(9);
        cache.sample(&g, &[p], 1, 3, &mut key_rng()); // A
        cache.sample(&g, &[authors[0]], 1, 3, &mut key_rng()); // B
        cache.sample(&g, &[p], 1, 3, &mut key_rng()); // A hits, becomes MRU
        cache.sample(&g, &[authors[1]], 1, 3, &mut key_rng()); // C evicts B
        assert_eq!(cache.len(), 2);
        cache.sample(&g, &[p], 1, 3, &mut key_rng()); // A still resident
        cache.sample(&g, &[authors[0]], 1, 3, &mut key_rng()); // B was evicted
        assert_eq!(cache.stats(), (2, 4));
    }
}
