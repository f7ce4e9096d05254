//! Train phase: Algorithm 1 through `catehgn::train_with` (untraced), and a
//! re-enactment of it from public functions (traced).
//!
//! `train_with` is opaque to the benchmark, so the traced run replays its
//! HGN and CA steps call for call — `sample_blocks`, the encoders,
//! `layer_forward` per layer, `soft_assign` + `masked_embedding`,
//! `plan_hgn` + `hgn_loss_planned`, `Graph::backward`, the optimizer step —
//! and each round's TE refinement and validation. Only the centre
//! initialisation from term sets is skipped: it is private to `train_with`
//! and changes values, not costs. A guard checks that the replay gives the
//! loss bits of `CateHgn::forward` + `hgn_loss` on the same blocks and RNG
//! state; if not, the table would describe a different program and the
//! run is marked incorrect.

use crate::allocs;
use crate::report::{quote, Findings, Ops, Report};
use crate::setup::{model_config, new_model};
use crate::trace::{by_name, fastest, median, overhead_frac, unattributed_frac, Tracer};
use catehgn::ca::{masked_embedding, soft_assign};
use catehgn::encoder::{encode_links, encode_nodes};
use catehgn::layer::layer_forward;
use catehgn::{
    params_fingerprint, report_fingerprint, rmse, train_with, CateHgn, ForwardOut, ModelConfig,
    TextEnhancer, TrainOptions,
};
use dblp_sim::Dataset;
use hetgraph::{sample_blocks, Block, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use tensor::{ForwardCtx, Graph, Optimizer, ParamId, Tensor};

/// Sampling seed of the validation predictions (the one `train_with` uses).
const VAL_SEED: u64 = 0xE7A1;

/// Offset `train_with` adds to the model seed for its step RNG.
const STEP_RNG_OFFSET: u64 = 0x7EA1;

/// Span names of `layer_forward`, one per layer of the default model.
pub const LAYER_SPANS: [&str; 2] = ["catehgn.layer1", "catehgn.layer2"];

/// The training configuration keeps the default model seed: the workload
/// seed varies the serving inputs, while the train phase is the paper's
/// fixed experiment. (With a seeded model, some seeds never beat the
/// mean predictor on validation within two rounds.)
fn config(ds: &Dataset, outer_iters: usize) -> ModelConfig {
    ModelConfig {
        outer_iters,
        ..model_config(ds)
    }
}

/// Validation RMSE of `model`, and of the train-label-mean predictor on the
/// same split.
fn validation(model: &CateHgn, ds: &Dataset) -> (f32, f32) {
    let seeds = ds.paper_nodes_of(&ds.split.val);
    let truth = ds.labels_of(&ds.split.val);
    let preds = model.predict(&ds.graph, &ds.features, &seeds, VAL_SEED);
    let train = ds.labels_of(&ds.split.train);
    let mean = train.iter().sum::<f32>() / train.len() as f32;
    (rmse(&preds, &truth), rmse(&vec![mean; truth.len()], &truth))
}

/// The untraced train phase. Each `call` trains a fresh model on a fresh
/// copy of the corpus with one `train_with` call (`TrainOptions::default()`),
/// so every call does the same work; the caller interleaves the calls with
/// the other phases' operations.
pub struct Load<'a> {
    small: &'a Dataset,
    outer_iters: usize,
    /// Wall seconds of each successful call.
    secs: Vec<f64>,
    /// The first trained model, its corpus and its fingerprints.
    first: Option<(CateHgn, Dataset, u64, u64)>,
    calls: Ops,
    bad: Findings,
}

impl<'a> Load<'a> {
    pub fn new(small: &'a Dataset, outer_iters: usize) -> Self {
        Load {
            small,
            outer_iters,
            secs: Vec::new(),
            first: None,
            calls: Ops::default(),
            bad: Findings::default(),
        }
    }

    /// HGN and CA optimizer steps of one call.
    fn steps(&self) -> u64 {
        let cfg = config(self.small, self.outer_iters);
        (self.outer_iters * (cfg.mini_iters + cfg.ca_iters)) as u64
    }

    pub fn call(&mut self) {
        let mut ds = self.small.clone();
        let mut model = new_model(config(&ds, self.outer_iters), &ds);
        let t = Instant::now();
        let report = self
            .calls
            .run(|| train_with(&mut model, &mut ds, &mut TrainOptions::default()));
        let secs = t.elapsed().as_secs_f64();
        let Some(report) = report else { return };
        self.secs.push(secs);
        let fps = (
            report_fingerprint(&report),
            params_fingerprint(&model.params),
        );
        match &self.first {
            None => self.first = Some((model, ds, fps.0, fps.1)),
            Some((_, _, report_fp, params_fp)) => {
                self.bad.tally(match fps == (*report_fp, *params_fp) {
                    true => Ok(()),
                    false => Err("two train_with calls on the same inputs differ".into()),
                })
            }
        }
    }

    /// Files the phase's metrics: steps per second of the fastest call (see
    /// `trace::fastest`), and the validation RMSE of the first trained
    /// model. The median call goes to the run record.
    pub fn finish(self, rep: &mut Report) {
        let steps = self.steps();
        rep.metric(
            "train_steps_per_s",
            steps as f64 / fastest(&self.secs),
            "1/s",
        );
        rep.note("train.calls", self.secs.len());
        rep.note("train.median_call_s", median(&self.secs));
        // Every HGN and CA optimizer step of a call is one operation.
        rep.phase(
            "train",
            Ops {
                attempted: self.calls.attempted * steps,
                failed: self.calls.failed * steps,
            },
        );
        self.bad.report("train", rep);
        let Some((model, ds, report_fp, params_fp)) = &self.first else {
            rep.metric("val_rmse", f64::NAN, "cit/yr");
            return;
        };
        let (val, mean) = validation(model, ds);
        rep.metric("val_rmse", f64::from(val), "cit/yr");
        rep.check(val < mean, || {
            format!("val_rmse {val} does not beat the train-label-mean predictor ({mean})")
        });
        rep.note("train.mean_predictor_rmse", mean);
        rep.note(
            "train.report_fingerprint",
            quote(&format!("{report_fp:#018x}")),
        );
        rep.note(
            "train.params_fingerprint",
            quote(&format!("{params_fp:#018x}")),
        );
    }
}

/// Traced: the re-enactment twice from one start, recording off and then
/// on. The difference is the tracing overhead.
pub fn traced(small: &Dataset, rounds: usize, seed: u64, rep: &mut Report) {
    let start = start(small);
    if let Err(e) = guard(&start.model, &start.ds, seed) {
        rep.problem(e);
    }
    let (off, _, _) = reenact(&start, rounds, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let (on, trained, ds) = reenact(&start, rounds, &mut tr);
    if let Err(e) = guard(&trained, &ds, seed.wrapping_add(1)) {
        rep.problem(e);
    }
    rep.check(on.loss_bits == off.loss_bits, || {
        "recording spans changed the training losses".into()
    });

    let steps = on.hgn_steps + on.ca_steps;
    let stats = by_name(tr.spans());
    let ms = |name: &str, per: u64| stats.get(name).map_or(f64::NAN, |s| s.ms_per(per));
    let per_hgn = |total: u64| total as f64 / on.hgn_steps.max(1) as f64;
    rep.metric(
        "hetgraph.sample_ms",
        ms("hetgraph.sample_blocks", steps),
        "ms",
    );
    rep.metric(
        "hetgraph.frontier_nodes",
        per_hgn(on.frontier_nodes),
        "count",
    );
    rep.metric("catehgn.encoder_ms", ms("catehgn.encoder", steps), "ms");
    rep.metric("catehgn.layer1_ms", ms(LAYER_SPANS[0], steps), "ms");
    rep.metric("catehgn.layer2_ms", ms(LAYER_SPANS[1], steps), "ms");
    rep.metric("catehgn.ca_assign_ms", ms("catehgn.ca_assign", steps), "ms");
    rep.metric("mi.plan_us", ms("mi.plan_hgn", on.hgn_steps) * 1e3, "us");
    rep.metric(
        "catehgn.hgn_loss_ms",
        ms("catehgn.hgn_loss_planned", on.hgn_steps),
        "ms",
    );
    rep.metric(
        "catehgn.ca_loss_ms",
        ms("catehgn.ca_loss", on.ca_steps),
        "ms",
    );
    rep.metric("tensor.backward_ms", ms("tensor.backward", steps), "ms");
    rep.metric("tensor.tape_nodes", per_hgn(on.tape_nodes), "count");
    rep.metric("tensor.optimizer_ms", ms("tensor.optimizer", steps), "ms");
    rep.metric("tensor.allocs_per_step", per_hgn(on.allocations), "count");
    rep.metric(
        "catehgn.te_round_ms",
        ms("catehgn.te_round", on.rounds),
        "ms",
    );
    rep.metric(
        "catehgn.validate_ms",
        ms("catehgn.validate", on.rounds),
        "ms",
    );
    let per_s = |p: &Pass| steps as f64 / (p.wall_ns as f64 / 1e9);
    rep.metric("train.traced_steps_per_s", per_s(&on), "1/s");
    rep.metric("train.untraced_steps_per_s", per_s(&off), "1/s");
    rep.metric(
        "train.trace_overhead_frac",
        overhead_frac(off.wall_ns, on.wall_ns),
        "ratio",
    );
    rep.metric(
        "train.unattributed_frac",
        unattributed_frac(on.wall_ns, tr.spans()),
        "ratio",
    );
    rep.phase(
        "train",
        Ops {
            attempted: 2 * steps,
            failed: 0,
        },
    );
}

/// Where both re-enactment passes start: TE initialised and the output
/// heads warm-started at the train-label mean, as in `train_with`.
struct Start {
    ds: Dataset,
    te: TextEnhancer,
    model: CateHgn,
}

fn start(small: &Dataset) -> Start {
    let mut ds = small.clone();
    let cfg = config(&ds, 1);
    let mut model = new_model(cfg.clone(), &ds);
    let mut te = TextEnhancer::new(&ds, cfg.n_clusters, cfg.dim.max(16), cfg.seed);
    te.bootstrap(cfg.kappa);
    te.relink(&mut ds, cfg.ablation.te_tfidf);
    let labels = ds.labels_of(&ds.split.train);
    let mean = labels.iter().sum::<f32>() / labels.len() as f32;
    for layer in &model.layers {
        model.params.value_mut(layer.b_y).fill(mean);
    }
    Start { ds, te, model }
}

/// What one re-enactment pass did.
#[derive(Default)]
struct Pass {
    wall_ns: u64,
    hgn_steps: u64,
    ca_steps: u64,
    rounds: u64,
    frontier_nodes: u64,
    tape_nodes: u64,
    allocations: u64,
    loss_bits: Vec<u32>,
}

/// Replays `rounds` rounds of Algorithm 1 from `start`. Returns the pass
/// with the trained model and its (relinked) dataset.
fn reenact(start: &Start, rounds: usize, tr: &mut Tracer) -> (Pass, CateHgn, Dataset) {
    let mut ds = start.ds.clone();
    let mut te = start.te.clone();
    let mut model = start.model.clone();
    let cfg = model.cfg.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(STEP_RNG_OFFSET));
    let mut opt = Optimizer::adam(cfg.lr);
    let mut ca_opt = Optimizer::adam(cfg.lr);
    let centers: BTreeSet<ParamId> = model.ca.centers.iter().copied().collect();
    let train_idx = ds.split.train.clone();
    let all_nodes: Vec<NodeId> = (0..ds.graph.num_nodes() as u32).map(NodeId).collect();
    let val_seeds = ds.paper_nodes_of(&ds.split.val);
    let val_truth = ds.labels_of(&ds.split.val);
    let count_allocations = tr.is_on();
    let mut g = Graph::new();
    let mut p = Pass::default();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for _ in 0..cfg.mini_iters {
            let before = allocs::allocations();
            allocs::set_counting(count_allocations);
            let batch: Vec<usize> = (0..cfg.batch_size)
                .map(|_| train_idx[rng.gen_range(0..train_idx.len())])
                .collect();
            let seeds = ds.paper_nodes_of(&batch);
            let labels = Tensor::col_vec(ds.labels_of(&batch));
            let blocks = tr.span("hetgraph.sample_blocks", || {
                sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng)
            });
            p.frontier_nodes += blocks.last().map_or(0, |b| b.src_nodes.len() as u64);
            let labels = dedup_labels(&seeds, &blocks[0].dst_nodes, labels);
            g.reset();
            let fw = forward(&model, &mut g, &ds, &blocks, false, tr);
            let plan = tr.span("mi.plan_hgn", || model.plan_hgn(&blocks, &mut rng));
            let (loss, _, _) = tr.span("catehgn.hgn_loss_planned", || {
                model.hgn_loss_planned(&mut g, &fw, &blocks, &labels, &plan)
            });
            p.loss_bits.push(g.value(loss).as_slice()[0].to_bits());
            tr.span("tensor.backward", || g.backward(loss));
            p.tape_nodes += g.len() as u64;
            tr.span("tensor.optimizer", || {
                opt.step_clipped(&mut model.params, &mut g, Some(cfg.clip))
            });
            allocs::set_counting(false);
            p.allocations += allocs::allocations() - before;
            p.hgn_steps += 1;
        }
        for _ in 0..cfg.ca_iters {
            let batch: Vec<NodeId> = (0..cfg.batch_size)
                .map(|_| all_nodes[rng.gen_range(0..all_nodes.len())])
                .collect();
            let blocks = tr.span("hetgraph.sample_blocks", || {
                sample_blocks(&ds.graph, &batch, cfg.layers, cfg.fanout, &mut rng)
            });
            g.reset();
            let fw = forward(&model, &mut g, &ds, &blocks, true, tr);
            if let Some(loss) = tr.span("catehgn.ca_loss", || model.ca_loss(&mut g, &fw)) {
                tr.span("tensor.backward", || g.backward(loss));
                tr.span("tensor.optimizer", || {
                    ca_opt.step_filtered(&mut model.params, &mut g, Some(cfg.clip), &centers)
                });
            }
            p.ca_steps += 1;
        }
        tr.span("catehgn.te_round", || {
            refine_terms(&model, &mut ds, &mut te)
        });
        tr.span("catehgn.validate", || {
            let preds = model.predict(&ds.graph, &ds.features, &val_seeds, VAL_SEED);
            rmse(&preds, &val_truth)
        });
        p.rounds += 1;
    }
    p.wall_ns = t0.elapsed().as_nanos() as u64;
    (p, model, ds)
}

/// `CateHgn::forward`, call for call, with a span around each public layer
/// function.
pub fn forward(
    model: &CateHgn,
    g: &mut Graph,
    ds: &Dataset,
    blocks: &[Block],
    bind_centers: bool,
    tr: &mut Tracer,
) -> ForwardOut {
    let l_total = blocks.len();
    let deep = &blocks[l_total - 1].src_nodes;
    tr.begin("catehgn.encoder");
    let h0 = encode_nodes(g, &model.params, &model.enc, &ds.graph, &ds.features, deep);
    let mut h_edges = encode_links(g, &model.params, &model.enc);
    tr.end();
    let mut h_layers = Vec::with_capacity(l_total);
    let mut h_masked = Vec::with_capacity(l_total);
    let mut q_layers = Vec::new();
    let mut transitions = Vec::with_capacity(l_total);
    let mut h_cur = h0;
    let mut src_for_mi = h0;
    for l in 1..=l_total {
        let block_idx = l_total - l;
        tr.begin(LAYER_SPANS.get(l - 1).copied().unwrap_or("catehgn.layer_n"));
        let out = layer_forward(
            g,
            &model.params,
            &model.layers[l - 1],
            &model.cfg,
            &blocks[block_idx],
            h_cur,
            &h_edges,
        );
        tr.end();
        transitions.push((block_idx, src_for_mi));
        h_edges = out.h_edge_next;
        let h_next = out.h_next;
        let hm = if model.cfg.ablation.ca {
            tr.begin("catehgn.ca_assign");
            let id = model.ca.centers[l - 1];
            let centers = if bind_centers {
                g.param(&model.params, id)
            } else {
                g.input_from(model.params.value(id))
            };
            let q = soft_assign(g, h_next, centers);
            g.free(centers);
            q_layers.push(q);
            let hm = masked_embedding(g, &model.params, h_next, q, &model.ca.masks[l - 1]);
            tr.end();
            hm
        } else {
            h_next
        };
        h_layers.push(h_next);
        h_masked.push(hm);
        h_cur = h_next;
        src_for_mi = hm;
    }
    ForwardOut {
        h0,
        h_layers,
        h_masked,
        q_layers,
        transitions,
    }
}

/// `train_with`'s label alignment: the sampler dedups seeds, so the label
/// column follows the deduped frontier (first occurrence wins).
fn dedup_labels(seeds: &[NodeId], deduped: &[NodeId], labels: Tensor) -> Tensor {
    if seeds.len() == deduped.len() {
        return labels;
    }
    let first: BTreeMap<NodeId, f32> = seeds
        .iter()
        .zip(labels.as_slice())
        .map(|(&n, &l)| (n, l))
        .rev()
        .collect();
    Tensor::col_vec(deduped.iter().map(|n| first[n]).collect())
}

/// `train_with`'s per-round TE refinement: the impact-and-cluster readout
/// of the active terms, voting refinement, then the paper-term relink.
fn refine_terms(model: &CateHgn, ds: &mut Dataset, te: &mut TextEnhancer) {
    let cfg = &model.cfg;
    let active: Vec<_> = te.active_terms().into_iter().collect();
    if active.is_empty() {
        return;
    }
    let nodes: Vec<NodeId> = active.iter().map(|t| ds.term_nodes[t.index()]).collect();
    let readout = model.impact_and_cluster(&ds.graph, &ds.features, &nodes, cfg.seed);
    let mut impact = BTreeMap::new();
    let mut cluster = BTreeMap::new();
    for (t, (y, c)) in active.iter().zip(readout) {
        impact.insert(*t, y);
        cluster.insert(*t, c);
    }
    te.refine(&impact, &cluster, cfg.kappa);
    te.relink(ds, cfg.ablation.te_tfidf);
}

/// The re-enactment guard: a replayed step must give the loss bits of
/// `CateHgn::forward` + `hgn_loss` on the same blocks and RNG state.
fn guard(model: &CateHgn, ds: &Dataset, seed: u64) -> Result<(), String> {
    let cfg = &model.cfg;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let train = &ds.split.train;
    let batch: Vec<usize> = (0..cfg.batch_size)
        .map(|_| train[rng.gen_range(0..train.len())])
        .collect();
    let seeds = ds.paper_nodes_of(&batch);
    let blocks = sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, &mut rng);
    let labels = Tensor::col_vec(ds.labels_of(&batch));
    let labels = dedup_labels(&seeds, &blocks[0].dst_nodes, labels);
    let mut reference_rng = rng.clone();

    let mut g = Graph::new();
    let fw = forward(model, &mut g, ds, &blocks, false, &mut Tracer::new(false));
    let plan = model.plan_hgn(&blocks, &mut rng);
    let (loss, _, _) = model.hgn_loss_planned(&mut g, &fw, &blocks, &labels, &plan);

    let mut g_ref = Graph::new();
    let fw_ref = model.forward(&mut g_ref, &ds.graph, &ds.features, &blocks, false);
    let (loss_ref, _, _) =
        model.hgn_loss(&mut g_ref, &fw_ref, &blocks, &labels, &mut reference_rng);

    let replayed = g.value(loss).as_slice()[0].to_bits();
    let reference = g_ref.value(loss_ref).as_slice()[0].to_bits();
    if replayed == reference {
        Ok(())
    } else {
        Err(format!(
            "re-enacted loss bits {replayed:#010x} differ from CateHgn::forward + hgn_loss \
             ({reference:#010x})"
        ))
    }
}
