//! Shared infrastructure for the compared systems: the [`CitationModel`]
//! interface the experiment harness drives, a generic mini-batch regression
//! trainer for the GNN baselines, graph helpers (merged homogeneous
//! edges, self-loops, meta-path neighbor sampling), the split-form
//! attention the GAT, HAN, MAGNN and HetGNN rows share, and the one
//! meta-path model body behind HAN and MAGNN.

use dblp_sim::Dataset;
use hetgraph::{sample_blocks, Block, BlockEdge, LinkTypeId, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;
use tensor::{EdgeRows, Graph, Initializer, Optimizer, ParamId, Params, Tensor, Var};

/// Uniform interface every compared system implements for Table II.
pub trait CitationModel {
    /// Display name matching the paper's Table II row.
    fn name(&self) -> String;
    /// Fits on the dataset's training split.
    fn fit(&mut self, ds: &Dataset);
    /// Predicts citations-per-year for the given paper indices.
    fn predict(&self, ds: &Dataset, papers: &[usize]) -> Vec<f32>;
}

/// Hyper-parameters shared by the GNN baselines.
#[derive(Clone, Debug)]
pub struct GnnConfig {
    pub dim: usize,
    pub layers: usize,
    pub fanout: usize,
    pub batch_size: usize,
    pub steps: usize,
    pub lr: f32,
    pub clip: f32,
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            dim: 32,
            layers: 2,
            fanout: 8,
            batch_size: 128,
            steps: 180,
            lr: 5e-3,
            clip: 5.0,
            seed: 23,
        }
    }
}

impl GnnConfig {
    /// Small config for unit tests.
    pub fn test_tiny() -> Self {
        GnnConfig {
            dim: 8,
            fanout: 4,
            batch_size: 32,
            steps: 25,
            ..Self::default()
        }
    }
}

/// A GNN baseline that can score a batch of papers in one graph. Each
/// one is a [`CitationModel`], fitted by [`train_regressor`] and queried
/// by [`predict_regressor`].
pub trait BatchRegressor {
    /// Display name matching the paper's Table II row.
    const NAME: &'static str;
    fn cfg(&self) -> &GnnConfig;
    fn params_mut(&mut self) -> &mut Params;
    /// Builds the computation producing a `B x 1` prediction column for the
    /// given paper indices.
    fn batch_forward<R: Rng>(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        papers: &[usize],
        rng: &mut R,
    ) -> Var;
}

impl<M: BatchRegressor> CitationModel for M {
    fn name(&self) -> String {
        M::NAME.into()
    }

    fn fit(&mut self, ds: &Dataset) {
        train_regressor(self, ds);
    }

    fn predict(&self, ds: &Dataset, papers: &[usize]) -> Vec<f32> {
        predict_regressor(self, ds, papers)
    }
}

/// Generic supervised training loop: mini-batch MSE regression on the
/// training split, keeping the parameters of the best validation
/// checkpoint (the 2014 split exists for exactly this). Returns per-step
/// losses.
pub fn train_regressor<M: BatchRegressor>(model: &mut M, ds: &Dataset) -> Vec<f32> {
    let cfg = model.cfg().clone();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut opt = Optimizer::adam(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.steps);
    assert!(!ds.split.train.is_empty(), "empty training split");
    let eval_every = (cfg.steps / 8).max(10);
    let mut best_val = f32::INFINITY;
    let mut best_params: Option<Params> = None;
    let mut g = Graph::new();
    for step in 0..cfg.steps {
        let batch: Vec<usize> = (0..cfg.batch_size)
            .map(|_| ds.split.train[rng.gen_range(0..ds.split.train.len())])
            .collect();
        let labels = Tensor::col_vec(ds.labels_of(&batch));
        g.reset();
        let pred = model.batch_forward(&mut g, ds, &batch, &mut rng);
        let loss = g.mse(pred, &labels);
        losses.push(g.value(loss).as_slice()[0]);
        g.backward(loss);
        opt.step_clipped(model.params_mut(), &mut g, Some(cfg.clip));
        if !ds.split.val.is_empty() && (step + 1) % eval_every == 0 {
            let val_idx: Vec<usize> = ds.split.val.iter().take(256).copied().collect();
            let preds = predict_regressor(model, ds, &val_idx);
            let val = catehgn::rmse(&preds, &ds.labels_of(&val_idx));
            if val < best_val {
                best_val = val;
                best_params = Some(model.params_mut().clone());
            }
        }
    }
    if let Some(p) = best_params {
        *model.params_mut() = p;
    }
    losses
}

/// Generic batched inference for a [`BatchRegressor`].
pub fn predict_regressor<M: BatchRegressor>(model: &M, ds: &Dataset, papers: &[usize]) -> Vec<f32> {
    let cfg = model.cfg();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0xEBA1));
    let mut out = Vec::with_capacity(papers.len());
    let mut g = Graph::new();
    for chunk in papers.chunks(cfg.batch_size.max(1)) {
        g.reset();
        let pred = model.batch_forward(&mut g, ds, chunk, &mut rng);
        out.extend_from_slice(&g.value(pred).as_slice()[..chunk.len()]);
    }
    out
}

/// Pooled per-step batch assembly shared by the GNN baselines (GAT / HGT /
/// R-GCN / HGCN): seed resolution, neighborhood sampling, and the raw input
/// feature leaf over the deepest frontier. The feature gather — the largest
/// per-step tensor these models build — goes through the graph's buffer
/// pool ([`Graph::input_rows`]), so steady-state training steps reuse the
/// same arena instead of allocating `B * S^L x feat_dim` floats each time.
pub struct BatchInputs {
    /// Seed nodes of the batch papers (pre-dedup order).
    pub seeds: Vec<NodeId>,
    /// Sampled message-passing blocks, seeds first.
    pub blocks: Vec<Block>,
    /// Raw input features of the deepest frontier (a pooled leaf).
    pub x: Var,
}

/// Samples the batch neighborhood and assembles the pooled feature leaf.
pub fn build_batch<R: Rng>(
    g: &mut Graph,
    ds: &Dataset,
    papers: &[usize],
    layers: usize,
    fanout: usize,
    rng: &mut R,
) -> BatchInputs {
    let seeds = ds.paper_nodes_of(papers);
    let blocks = sample_blocks(&ds.graph, &seeds, layers, fanout, rng);
    let mut rows = g.scratch_idx();
    rows.extend(blocks[layers - 1].src_nodes.iter().map(|v| v.index()));
    let x = g.input_rows(&ds.features, &rows);
    g.recycle_idx(rows);
    BatchInputs { seeds, blocks, x }
}

/// Pooled per-link-type edge index lists. Move the buffers into
/// `gather_rows`, into `EdgeRows::Gather` rows, or into the segments of
/// `edge_softmax` / `edge_aggregate` — the tape hands them back to the
/// pool on [`Graph::reset`].
pub struct EdgeIdx {
    /// Source position of each edge.
    pub src: Vec<usize>,
    /// Destination position of each edge (non-decreasing within a block's
    /// single link type).
    pub dst: Vec<usize>,
    /// Position of each edge's destination among the block's sources
    /// (reads the previous-layer embedding of the target).
    pub prev: Vec<usize>,
}

/// Builds the `(src, dst, prev)` index triple for one edge list from the
/// graph's pooled index scratch.
pub fn edge_idx(g: &mut Graph, block: &Block, edges: &[BlockEdge]) -> EdgeIdx {
    let mut src = g.scratch_idx();
    src.extend(edges.iter().map(|e| e.src_pos as usize));
    let mut dst = g.scratch_idx();
    dst.extend(edges.iter().map(|e| e.dst_pos as usize));
    let mut prev = g.scratch_idx();
    prev.extend(
        edges
            .iter()
            .map(|e| block.dst_in_src[e.dst_pos as usize] as usize),
    );
    EdgeIdx { src, dst, prev }
}

/// Mean-aggregation normaliser `1 / deg(dst(e))` per edge, as a pooled
/// `m x 1` leaf. Requires each destination's edges to be contiguous in
/// `dst` (true for per-type block edge lists and for
/// [`merged_edges_with_self_loops`] output per segment) — the run length is
/// the degree, so no per-destination counter array is needed.
pub fn mean_norm_col(g: &mut Graph, dst: &[usize]) -> Var {
    g.input_with(dst.len(), 1, |out| {
        let mut i = 0;
        while i < dst.len() {
            let mut j = i + 1;
            while j < dst.len() && dst[j] == dst[i] {
                j += 1;
            }
            let w = 1.0 / (j - i) as f32;
            out[i..j].fill(w);
            i = j;
        }
    })
}

/// Seed read-out: gathers each seed's row of `h` (the deduped frontier
/// prefix of `block0`) into a `B x d` tensor through pooled index scratch.
pub fn gather_seed_rows(g: &mut Graph, block0: &Block, seeds: &[NodeId], h: Var) -> Var {
    // Duplicate papers in a batch dedup in the sampler's frontier, so look
    // each paper's row up by node id rather than by position.
    let pos_of: std::collections::BTreeMap<NodeId, usize> = block0
        .dst_nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    let mut rows = g.scratch_idx();
    rows.extend(seeds.iter().map(|n| pos_of[n]));
    g.gather_rows(h, rows)
}

/// Merges all link types of a block into one homogeneous edge list and adds
/// a self-loop per destination (weight 1). Used by GAT.
pub fn merged_edges_with_self_loops(block: &Block) -> Vec<BlockEdge> {
    let mut edges: Vec<BlockEdge> = block.edges_by_type.iter().flatten().copied().collect();
    for (dst_pos, &src_pos) in block.dst_in_src.iter().enumerate() {
        edges.push(BlockEdge {
            src_pos,
            dst_pos: dst_pos as u32,
            weight: 1.0,
        });
    }
    edges
}

/// LeakyReLU slope of the attention scores (GAT's 0.2).
const ATTENTION_SLOPE: f32 = 0.2;

/// Registers `heads` attention vectors over `[h_v ‖ h_u]` (each `2d x 1`,
/// Xavier-uniform, drawn in head order as separate vectors would be) in
/// split layout: `{name}.v` holds the `h_v` halves and `{name}.u` the
/// `h_u` halves, head `k` in column `k` of each `d x H` block.
pub fn pair_attention_params<R: Rng>(
    params: &mut Params,
    name: &str,
    d: usize,
    heads: usize,
    rng: &mut R,
) -> [ParamId; 2] {
    let mut halves = [Tensor::zeros(d, heads), Tensor::zeros(d, heads)];
    for k in 0..heads {
        let a = Initializer::XavierUniform.sample(2 * d, 1, rng);
        for (r, &x) in a.as_slice().iter().enumerate() {
            halves[r / d].set(r % d, k, x);
        }
    }
    let [v, u] = halves;
    [
        params.add(format!("{name}.v"), v),
        params.add(format!("{name}.u"), u),
    ]
}

/// Attention over `[h_v ‖ h_u]` in split form: per edge and head the
/// score `(h_v·A_v)[v_e] + (h_u·A_u)[u_e]`, which is `[h_v ‖ h_u]·a` for
/// `a = [A_v; A_u]`, through LeakyReLU(0.2), softmaxed within each
/// segment and averaged over the heads. `att` comes from
/// [`pair_attention_params`]. Each product runs once per row of `h_v` and
/// of `h_u`, not once per edge, and no per-edge concat exists.
pub fn pair_attention(
    g: &mut Graph,
    params: &Params,
    att: [ParamId; 2],
    (h_v, v_rows): (Var, EdgeRows),
    (h_u, u_rows): (Var, EdgeRows),
    segments: Vec<usize>,
    n_seg: usize,
) -> Var {
    let [a_v, a_u] = att.map(|id| g.param(params, id));
    let s_v = g.matmul(h_v, a_v);
    let s_u = g.matmul(h_u, a_u);
    g.edge_softmax(
        [(s_v, v_rows), (s_u, u_rows)],
        segments,
        n_seg,
        ATTENTION_SLOPE,
    )
}

/// How a meta-path model ([`MetapathModel`]) turns the sampled instances
/// of one meta-path into input rows.
pub trait PathRows {
    /// [`BatchRegressor::NAME`] of the model.
    const NAME: &'static str;
    /// Mixed into the config seed for parameter initialisation.
    const SEED_SALT: u64;
    /// For each batch paper in order, the paper's own row, then one row per
    /// sampled instance of `path`: the raw input rows, and each row's
    /// position in the batch.
    fn rows<R: Rng>(
        ds: &Dataset,
        papers: &[usize],
        path: &[LinkTypeId],
        fanout: usize,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>);
}

/// The meta-path attention model HAN and MAGNN share, target-node-centric:
/// only papers are embedded. Per meta-path, node-level attention over
/// `[h_v ‖ h_u]` weighs each paper's instance rows into `z_p`; a semantic
/// score `mean(q^T tanh(W z_p + b))` per path is softmaxed across the
/// paths, and the regressor reads `z = sum_p beta_p z_p`. `P` says how an
/// instance becomes a row.
#[derive(Debug)]
pub struct MetapathModel<P> {
    cfg: GnnConfig,
    params: Params,
    w_proj: ParamId,
    b_proj: ParamId,
    /// Node-level attention per meta-path, split (`d x 1` halves).
    att: Vec<[ParamId; 2]>,
    /// Semantic attention: shared transform + query vector.
    w_sem: ParamId,
    b_sem: ParamId,
    q_sem: ParamId,
    w_out: ParamId,
    b_out: ParamId,
    n_paths: usize,
    rows: PhantomData<P>,
}

impl<P: PathRows> MetapathModel<P> {
    pub fn new(cfg: GnnConfig, feat_dim: usize, n_paths: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ P::SEED_SALT);
        let mut params = Params::new();
        let d = cfg.dim;
        let w_proj = params.add_init("proj.w", feat_dim, d, Initializer::XavierUniform, &mut rng);
        let b_proj = params.add_init("proj.b", 1, d, Initializer::Zeros, &mut rng);
        let att = (0..n_paths)
            .map(|p| pair_attention_params(&mut params, &format!("att.p{p}"), d, 1, &mut rng))
            .collect();
        let w_sem = params.add_init("sem.w", d, d, Initializer::XavierUniform, &mut rng);
        let b_sem = params.add_init("sem.b", 1, d, Initializer::Zeros, &mut rng);
        let q_sem = params.add_init("sem.q", d, 1, Initializer::XavierUniform, &mut rng);
        let w_out = params.add_init("out.w", d, 1, Initializer::XavierUniform, &mut rng);
        let b_out = params.add_init("out.b", 1, 1, Initializer::Zeros, &mut rng);
        MetapathModel {
            cfg,
            params,
            w_proj,
            b_proj,
            att,
            w_sem,
            b_sem,
            q_sem,
            w_out,
            b_out,
            n_paths,
            rows: PhantomData,
        }
    }
}

impl<P: PathRows> BatchRegressor for MetapathModel<P> {
    const NAME: &'static str = P::NAME;

    fn cfg(&self) -> &GnnConfig {
        &self.cfg
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn batch_forward<R: Rng>(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        papers: &[usize],
        rng: &mut R,
    ) -> Var {
        let b = papers.len();
        let paths = standard_metapaths(ds);
        assert_eq!(paths.len(), self.n_paths);
        // Projected features of the batch papers themselves.
        let self_rows: Vec<usize> = papers.iter().map(|&i| ds.paper_nodes[i].index()).collect();
        let x_self = g.input(ds.features.gather_rows(&self_rows));
        let w_proj = g.param(&self.params, self.w_proj);
        let b_proj = g.param(&self.params, self.b_proj);
        let lin = g.linear(x_self, w_proj, b_proj);
        let h_self = g.relu(lin);

        let mut z_paths = Vec::with_capacity(self.n_paths);
        let mut sem_scores = Vec::with_capacity(self.n_paths);
        for (&att, (_, path)) in self.att.iter().zip(&paths) {
            let (x, seg) = P::rows(ds, papers, path, self.cfg.fanout, rng);
            let x_n = g.input(x);
            let lin_n = g.linear(x_n, w_proj, b_proj);
            let h_n = g.relu(lin_n);
            // Node-level attention: a^T [h_v || h_u] within each paper.
            let v_rows = EdgeRows::Gather(seg.clone());
            let alpha = pair_attention(
                g,
                &self.params,
                att,
                (h_self, v_rows),
                (h_n, EdgeRows::Own),
                seg.clone(),
                b,
            );
            let z_p = g.edge_aggregate([(h_n, EdgeRows::Own)], alpha, seg, b);
            // Semantic score: mean over the batch of q^T tanh(W z + b).
            let w_sem = g.param(&self.params, self.w_sem);
            let b_sem = g.param(&self.params, self.b_sem);
            let t1 = g.linear(z_p, w_sem, b_sem);
            let t = g.tanh(t1);
            let q = g.param(&self.params, self.q_sem);
            let s_col = g.matmul(t, q);
            sem_scores.push(g.mean_all(s_col));
            z_paths.push(z_p);
        }
        // Semantic fusion, one edge per (path, paper): the softmax of the
        // path scores at each paper, then z = sum_p beta_p z_p.
        let scores = g.stack_rows(&sem_scores);
        let z_all = g.stack_rows(&z_paths);
        let path_of = (0..self.n_paths)
            .flat_map(|p| std::iter::repeat_n(p, b))
            .collect();
        let paper: Vec<usize> = (0..self.n_paths).flat_map(|_| 0..b).collect();
        let beta = g.edge_softmax([(scores, EdgeRows::Gather(path_of))], paper.clone(), b, 1.0);
        let z = g.edge_aggregate([(z_all, EdgeRows::Own)], beta, paper, b);
        let w_out = g.param(&self.params, self.w_out);
        let b_out = g.param(&self.params, self.b_out);
        g.linear(z, w_out, b_out)
    }
}

/// Samples up to `fanout` meta-path-reachable neighbors of `start` by
/// following the link-type sequence `path`, restarting for each sample.
/// Returns the *endpoints* and, for 2-step paths, the intermediate nodes.
pub fn metapath_neighbors<R: Rng>(
    ds: &Dataset,
    start: NodeId,
    path: &[hetgraph::LinkTypeId],
    fanout: usize,
    rng: &mut R,
) -> Vec<(NodeId, Option<NodeId>)> {
    let g = &ds.graph;
    let mut out = Vec::with_capacity(fanout);
    for _ in 0..fanout * 2 {
        if out.len() >= fanout {
            break;
        }
        let mut cur = start;
        let mut mid = None;
        let mut ok = true;
        for (i, &lt) in path.iter().enumerate() {
            let nbrs = g.neighbors(cur, lt);
            if nbrs.is_empty() {
                ok = false;
                break;
            }
            cur = NodeId(nbrs[rng.gen_range(0..nbrs.len())]);
            if i == 0 && path.len() > 1 {
                mid = Some(cur);
            }
        }
        if ok {
            out.push((cur, mid));
        }
    }
    out
}

/// The four fundamental meta-paths of Sec. IV-A3 (P-P, P-A-P, P-V-P,
/// P-T-P) expressed as link-type sequences for this dataset.
pub fn standard_metapaths(ds: &Dataset) -> Vec<(String, Vec<hetgraph::LinkTypeId>)> {
    let lt = &ds.link_types;
    vec![
        ("PP".into(), vec![lt.cites]),
        ("PAP".into(), vec![lt.written_by, lt.writes]),
        ("PVP".into(), vec![lt.published_in, lt.publishes]),
        ("PTP".into(), vec![lt.contains, lt.contained_in]),
    ]
}

/// RMSE of a constant mean predictor fitted on the training labels — the
/// sanity floor every learning model must beat.
pub fn mean_predictor_rmse(ds: &Dataset, papers: &[usize]) -> f32 {
    let mean =
        ds.labels_of(&ds.split.train).iter().sum::<f32>() / ds.split.train.len().max(1) as f32;
    let truth = ds.labels_of(papers);
    catehgn::rmse(&vec![mean; truth.len()], &truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblp_sim::WorldConfig;

    #[test]
    fn merged_edges_include_self_loops() {
        let block = Block {
            dst_nodes: vec![NodeId(0), NodeId(1)],
            src_nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            dst_in_src: vec![0, 1],
            edges_by_type: vec![
                vec![BlockEdge {
                    src_pos: 2,
                    dst_pos: 0,
                    weight: 1.0,
                }],
                vec![BlockEdge {
                    src_pos: 2,
                    dst_pos: 1,
                    weight: 0.5,
                }],
            ],
        };
        let merged = merged_edges_with_self_loops(&block);
        assert_eq!(merged.len(), 4);
        // Each dst has its self-loop.
        assert!(merged.iter().any(|e| e.src_pos == 0 && e.dst_pos == 0));
        assert!(merged.iter().any(|e| e.src_pos == 1 && e.dst_pos == 1));
    }

    #[test]
    fn metapath_neighbors_stay_on_type() {
        let ds = dblp_sim::Dataset::full(&WorldConfig::tiny(), 8);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let paths = standard_metapaths(&ds);
        let start = ds.paper_nodes[0];
        for (name, path) in &paths {
            let nbrs = metapath_neighbors(&ds, start, path, 5, &mut rng);
            for (end, mid) in nbrs {
                assert_eq!(
                    ds.graph.node_type(end),
                    ds.node_types.paper,
                    "{name} endpoint must be a paper"
                );
                if path.len() > 1 {
                    let m = mid.expect("2-step path records intermediate");
                    assert_ne!(ds.graph.node_type(m), ds.node_types.paper);
                }
            }
        }
    }

    #[test]
    fn mean_predictor_rmse_is_label_std_like() {
        let ds = dblp_sim::Dataset::full(&WorldConfig::tiny(), 8);
        let r = mean_predictor_rmse(&ds, &ds.split.test);
        assert!(r > 0.0 && r.is_finite());
    }
}
