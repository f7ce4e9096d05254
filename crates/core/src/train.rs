//! Algorithm 1: iterative training of HGN mini-iterations, CA center
//! updates, and TE term refreshes.
//!
//! [`train_with`] runs every step through one *step driver*: `Draws`
//! yields `Payload`s in the main RNG's order — batch, blocks, MI plan —
//! and the driver evaluates each group of them (on the one tape, or on
//! lane tapes folded in fixed order), takes the guarded optimizer step,
//! accounts it, and checkpoints or halts. A run resumed from a checkpoint
//! at any step boundary reproduces the uninterrupted run bitwise.
//! Non-finite steps are handled by a [`RecoveryPolicy`]; [`train`] runs
//! with all of this off.

use crate::config::ModelConfig;
use crate::mi::{plan_mi, MiPlan};
use crate::model::{CateHgn, Reads};
use crate::resilience::{
    restore_params, restore_values, snapshot_params, snapshot_values, CheckpointError,
    CheckpointManager, FaultPlan, NonFiniteSource, RecoveryPolicy, TrainError, TrainOptions,
    TrainState,
};
use crate::te::TextEnhancer;
use dblp_sim::Dataset;
use hetgraph::{sample_blocks, Block, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use tensor::{Graph, Optimizer, ParamId, Tensor};

/// Snapshot of the TE term sets after one refinement round (Fig. 5 data).
#[derive(Clone, Debug, PartialEq)]
pub struct TeRound {
    pub round: usize,
    /// Per-cluster precision against the generator's quality terms.
    pub precision: Vec<f32>,
    /// Per-cluster mined term strings (first few, for case studies).
    pub sample_terms: Vec<Vec<String>>,
}

/// Training trace returned by [`train`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainReport {
    /// Mean total HGN loss per outer round.
    pub hgn_losses: Vec<f32>,
    /// Mean supervised loss per outer round.
    pub sup_losses: Vec<f32>,
    /// Validation RMSE per outer round (empty if no validation split).
    pub val_rmse: Vec<f32>,
    /// TE refinement trace (empty when TE is off).
    pub te_rounds: Vec<TeRound>,
    /// Batches dropped by [`RecoveryPolicy::SkipBatch`].
    pub skipped: usize,
    /// Rollbacks performed by [`RecoveryPolicy::Rollback`].
    pub rollbacks: usize,
}

/// Trains `model` on `ds` per Algorithm 1. `ds` is mutable because the TE
/// module rebuilds its paper-term links; callers wanting to reuse a dataset
/// across models should pass a clone.
///
/// Equivalent to [`train_with`] under [`TrainOptions::default`]: a
/// non-finite step aborts with [`TrainError::NonFinite`], and an empty
/// training split is [`TrainError::EmptyTrainSplit`].
pub fn train(model: &mut CateHgn, ds: &mut Dataset) -> Result<TrainReport, TrainError> {
    train_with(model, ds, &mut TrainOptions::default())
}

/// Where the loop stands in Algorithm 1 — exactly what checkpoint codec
/// v4 records as `(outer, mini, phase, ca_done)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pos {
    /// Round `outer`, `mini` HGN mini-iterations landed.
    Hgn { outer: usize, mini: usize },
    /// Round `outer`, HGN minis and their epilogue complete, `done` CA
    /// iterations landed.
    Ca { outer: usize, done: usize },
}

impl Pos {
    fn of(state: &TrainState) -> Pos {
        let outer = state.outer as usize;
        let (mini, done) = (state.mini as usize, state.ca_done as usize);
        match state.phase {
            1 => Pos::Ca { outer, done },
            _ => Pos::Hgn { outer, mini },
        }
    }

    /// `(outer, phase-local step)`: the mini-iteration or CA iteration.
    fn parts(self) -> (usize, usize) {
        let (Pos::Hgn { outer, mini: k } | Pos::Ca { outer, done: k }) = self;
        (outer, k)
    }

    fn per_round(self, cfg: &ModelConfig) -> usize {
        match self {
            Pos::Hgn { .. } => cfg.mini_iters,
            Pos::Ca { .. } => cfg.ca_iters,
        }
    }

    /// Global position in the phase's step sequence. For HGN steps this is
    /// the fault-injection key, stable across resume and rollback replays.
    fn global(self, cfg: &ModelConfig) -> u64 {
        let (outer, k) = self.parts();
        (outer * self.per_round(cfg) + k) as u64
    }

    /// Steps of this phase still to land in the current round.
    fn left(self, cfg: &ModelConfig) -> usize {
        self.per_round(cfg).saturating_sub(self.parts().1)
    }
}

/// One drawn training step. CA steps carry no labels and an empty plan.
struct Payload {
    /// Global step position (the fault-injection key).
    step: u64,
    seeds: Vec<NodeId>,
    /// Raw labels, before fault poisoning and seed dedup.
    labels: Vec<f32>,
    blocks: Vec<Block>,
    plan: MiPlan,
    /// Main-RNG state after all of this step's draws; the step driver
    /// adopts it for every group it takes.
    rng_words: [u32; 27],
}

/// The step source of one phase segment: yields the phase's remaining
/// steps, consuming a private copy of the main RNG in serial order —
/// batch, blocks, then the MI plan. Owning the copy (rather than
/// borrowing `Run::rng`) leaves the step driver free to borrow `Run`
/// mutably while the draws are live.
struct Draws<'a> {
    ds: &'a Dataset,
    cfg: &'a ModelConfig,
    /// HGN steps draw training papers with labels and an MI plan; CA
    /// steps draw any node.
    hgn: bool,
    lanes: usize,
    rng: ChaCha8Rng,
    steps: std::ops::Range<u64>,
}

impl Iterator for Draws<'_> {
    type Item = Payload;

    fn next(&mut self) -> Option<Payload> {
        let step = self.steps.next()?;
        let (ds, cfg, rng) = (self.ds, self.cfg, &mut self.rng);
        let (seeds, labels) = if self.hgn {
            let train = &ds.split.train;
            let batch: Vec<usize> = (0..cfg.batch_size)
                .map(|_| train[rng.gen_range(0..train.len())])
                .collect();
            (ds.paper_nodes_of(&batch), ds.labels_of(&batch))
        } else {
            let n = ds.graph.num_nodes();
            let batch = (0..cfg.batch_size)
                .map(|_| NodeId(rng.gen_range(0..n) as u32))
                .collect();
            (batch, Vec::new())
        };
        let blocks = sample_blocks(&ds.graph, &seeds, cfg.layers, cfg.fanout, rng);
        let (mi, max_edges) = (cfg.ablation.mi, cfg.mi_max_edges);
        let plan = match (self.hgn, self.lanes > 1) {
            (false, _) => MiPlan::default(),
            (true, false) => plan_mi(&blocks, mi, max_edges, rng),
            // A lane draws its plan from a private stream seeded off the
            // main one, so main-RNG consumption is a function of the lane
            // schedule only, never of the thread count.
            (true, true) => {
                let mut lane_rng = ChaCha8Rng::seed_from_u64(rng.gen());
                plan_mi(&blocks, mi, max_edges, &mut lane_rng)
            }
        };
        Some(Payload {
            step,
            seeds,
            labels,
            blocks,
            plan,
            rng_words: rng.state_words(),
        })
    }
}

/// Per-lane tape of the batch-parallel path (more than one
/// [`TrainOptions::data_lanes`]), with its own `BufferPool` scratch. Lanes
/// live as long as the run, so steady-state lane steps run allocation-free
/// like the one-tape path.
#[derive(Default)]
struct Lane {
    g: Graph,
    loss: f32,
    sup: f32,
}

/// How a step segment ended. Recovery, which may need `&mut Dataset`,
/// runs after the segment has finished.
enum Segment {
    /// The phase's steps for this round have all landed.
    Done,
    /// A halt option or a shutdown request hit; the snapshot is saved.
    Halt,
    /// A non-finite step at `pos`; the main RNG is past its draws, and no
    /// parameter or optimizer state moved.
    Failed(NonFiniteSource),
}

/// Algorithm 1's loop state together with what the step driver works on.
/// A checkpoint is this state at a step boundary: [`Run::capture`] and
/// [`Run::restore`] convert between the two.
struct Run<'a> {
    cfg: &'a ModelConfig,
    cfg_json: String,
    model: &'a mut CateHgn,
    opts: &'a mut TrainOptions,
    manager: CheckpointManager,
    /// Normalized lane count: 0 and 1 both mean the one-tape loop.
    lanes: usize,
    center_ids: BTreeSet<ParamId>,
    pos: Pos,
    /// Loss sums over the current round's landed HGN minis.
    tot: f32,
    sup_tot: f32,
    opt: Optimizer,
    ca_opt: Optimizer,
    rng: ChaCha8Rng,
    report: TrainReport,
    best_val: f32,
    best_params: Option<tensor::Params>,
    te: Option<TextEnhancer>,
    /// Consecutive-failure counters; both reset on any landed step.
    skips_in_row: usize,
    rolls_in_row: usize,
    /// One long-lived tape: reset between steps recycles every node
    /// buffer through its pool, so steady-state training steps run
    /// allocation-free (see DESIGN.md, "Memory model").
    g: Graph,
    /// Lane tapes (empty on the one-tape path).
    lane_tapes: Vec<Lane>,
    /// `(loss, sup)` of each step of the last landed group, in step order.
    landed: Vec<(f32, f32)>,
}

impl Run<'_> {
    fn capture(&self, ds: &Dataset) -> TrainState {
        let (outer, mini, phase, ca_done) = match self.pos {
            Pos::Hgn { outer, mini } => (outer, mini, 0, 0),
            Pos::Ca { outer, done } => (outer, self.cfg.mini_iters, 1, done),
        };
        TrainState {
            config_json: self.cfg_json.clone(),
            outer: outer as u64,
            mini: mini as u64,
            tot: self.tot,
            sup_tot: self.sup_tot,
            best_val: self.best_val,
            opt_lr: self.opt.lr(),
            opt_steps: self.opt.steps(),
            ca_lr: self.ca_opt.lr(),
            ca_steps: self.ca_opt.steps(),
            rng_words: self.rng.state_words(),
            params: snapshot_params(&self.model.params),
            best_params: self.best_params.as_ref().map(snapshot_values),
            te_term_sets: self.te.as_ref().map(|te| {
                te.term_sets
                    .iter()
                    .map(|s| s.iter().map(|t| t.0).collect())
                    .collect()
            }),
            report: self.report.clone(),
            graph_fingerprint: ds.graph.content_fingerprint(),
            cache_stamp: ds.graph.sampling_stamp(),
            data_lanes: self.lanes as u64,
            phase,
            ca_done: ca_done as u64,
        }
    }

    /// Restores a captured state into the live loop, position included.
    fn restore(&mut self, state: &TrainState, ds: &mut Dataset) -> Result<(), TrainError> {
        restore_params(&mut self.model.params, &state.params)?;
        // The snapshot carries the best model's *values* only; the moments
        // in this reconstructed store are the live optimizer's and are
        // never read — model selection installs values, not optimizer
        // state.
        self.best_params = state
            .best_params
            .as_ref()
            .map(|snaps| {
                let mut p = self.model.params.clone();
                restore_values(&mut p, snaps).map(|()| p)
            })
            .transpose()?;
        self.opt.set_lr(state.opt_lr);
        self.opt.set_steps(state.opt_steps);
        self.ca_opt.set_lr(state.ca_lr);
        self.ca_opt.set_steps(state.ca_steps);
        self.rng = ChaCha8Rng::from_state_words(&state.rng_words);
        self.report = state.report.clone();
        self.best_val = state.best_val;
        match (self.te.as_mut(), &state.te_term_sets) {
            (Some(te), Some(sets)) => {
                te.term_sets = sets
                    .iter()
                    .map(|s| s.iter().map(|&x| textmine::TokenId(x)).collect())
                    .collect();
                // Replaying the persisted term sets through relink
                // reproduces the snapshot-time paper-term links on the
                // freshly built graph.
                te.relink(ds, self.cfg.ablation.te_tfidf);
            }
            (None, None) => {}
            (te, sets) => {
                return Err(CheckpointError::Mismatch(format!(
                    "snapshot {} TE state but TE is {}",
                    if sets.is_some() { "carries" } else { "has no" },
                    if te.is_some() { "enabled" } else { "disabled" }
                ))
                .into());
            }
        }
        let fp = ds.graph.content_fingerprint();
        if fp != state.graph_fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "graph content fingerprint {fp:#018x} != snapshot {:#018x}",
                state.graph_fingerprint
            ))
            .into());
        }
        self.tot = state.tot;
        self.sup_tot = state.sup_tot;
        self.pos = Pos::of(state);
        Ok(())
    }

    /// Runs the current phase from `pos` to its end, a halt, or a failed
    /// step: evaluates groups of drawn payloads — one step per group, or
    /// up to `lanes` HGN steps sharing one optimizer step — and runs the
    /// post-step block after each landed group. The draws consume a copy
    /// of the main RNG, and the loop adopts the state of each group it
    /// takes.
    fn segment(&mut self, ds: &Dataset) -> Result<Segment, TrainError> {
        let start = self.pos.global(self.cfg);
        let mut draws = Draws {
            ds,
            cfg: self.cfg,
            hgn: matches!(self.pos, Pos::Hgn { .. }),
            lanes: self.lanes,
            rng: self.rng.clone(),
            steps: start..start + self.pos.left(self.cfg) as u64,
        };
        let cfg = self.cfg;
        let mut batch: Vec<Payload> = Vec::with_capacity(self.lanes);
        loop {
            let group = match self.pos {
                Pos::Hgn { .. } => self.lanes.min(self.pos.left(cfg)),
                Pos::Ca { .. } => self.pos.left(cfg).min(1),
            };
            batch.clear();
            batch.extend(draws.by_ref().take(group));
            let Some(last) = batch.last() else {
                return Ok(Segment::Done);
            };
            self.rng = ChaCha8Rng::from_state_words(&last.rng_words);
            let stepped = match self.pos {
                Pos::Hgn { .. } => self.hgn_step(ds, &mut batch),
                Pos::Ca { .. } => batch.iter().try_for_each(|p| self.ca_step(ds, p)),
            };
            if let Err(source) = stepped {
                return Ok(Segment::Failed(source));
            }

            // ---- Post-step: the group landed ------------------------
            // Same values, same f32 accumulation order as a serial walk
            // of the group.
            for &(loss, sup) in &self.landed {
                self.tot += loss;
                self.sup_tot += sup;
            }
            self.skips_in_row = 0;
            self.rolls_in_row = 0;
            let prev = self.pos.global(cfg);
            let (Pos::Hgn { mini: k, .. } | Pos::Ca { done: k, .. }) = &mut self.pos;
            *k += batch.len();
            let halt_at = match self.pos {
                Pos::Hgn { .. } => self.opts.halt_after_steps,
                Pos::Ca { .. } => self.opts.halt_after_ca,
            };
            let pos = self.pos.global(cfg);
            // "Crossed a multiple of n" is `pos.is_multiple_of(n)` for a
            // one-step group and lands lane groups on group boundaries,
            // so a resume always restarts on the same lane schedule.
            let due = self
                .opts
                .checkpoint_every
                .is_some_and(|n| n > 0 && pos / n as u64 > prev / n as u64);
            let halting = halt_at.is_some_and(|n| pos >= n)
                || self.opts.shutdown.as_ref().is_some_and(|t| t.requested());
            if due || halting {
                let state = self.capture(ds);
                self.manager.save(&state, &mut self.opts.faults)?;
            }
            if halting {
                // Simulated kill or shutdown: the snapshot above is the
                // resume point.
                return Ok(Segment::Halt);
            }
        }
    }

    /// Guarded HGN step over one group of payloads. On failure nothing
    /// moved: parameters, moments, and the Adam counter are untouched.
    fn hgn_step(&mut self, ds: &Dataset, batch: &mut [Payload]) -> Result<(), NonFiniteSource> {
        self.landed.clear();
        let clip = Some(self.cfg.clip);
        if self.lanes == 1 {
            for p in batch.iter_mut() {
                let labels = step_labels(p, &mut self.opts.faults);
                let (model, g): (&CateHgn, _) = (self.model, &mut self.g);
                g.reset();
                let fw = model.forward(g, &ds.graph, &ds.features, &p.blocks, Reads::HGN_STEP);
                let (loss, sup, _mi) = model.hgn_loss_planned(g, &fw, &p.blocks, &labels, &p.plan);
                let loss_val = g.value(loss).as_slice()[0];
                if !loss_val.is_finite() {
                    return Err(NonFiniteSource::Loss);
                }
                g.backward(loss);
                self.opts.faults.corrupt_gradients(p.step, g);
                self.opt
                    .step_clipped_guarded(&mut self.model.params, g, clip)
                    .map_err(|pid| grad_source(self.model, pid))?;
                self.landed.push((loss_val, sup));
            }
            return Ok(());
        }

        // ---- Lane group: each payload on its own tape ---------------
        // `batch.len() <= lanes == lane_tapes.len()` by construction.
        let (lanes, _) = self.lane_tapes.split_at_mut(batch.len());
        let faults = &mut self.opts.faults;
        let labels: Vec<Tensor> = batch.iter_mut().map(|p| step_labels(p, faults)).collect();
        // Each lane touches only its own tape, and every kernel inside a
        // lane runs serially (pool jobs carry the nested guard), so a
        // lane's numbers match a one-at-a-time evaluation bitwise at any
        // `TENSOR_NUM_THREADS`.
        let payloads: &[Payload] = batch;
        let model: &CateHgn = self.model;
        tensor::par::par_for_each_mut(lanes, |k, lane| {
            let (Some(p), Some(labels)) = (payloads.get(k), labels.get(k)) else {
                return;
            };
            lane.g.reset();
            let fw = model.forward(
                &mut lane.g,
                &ds.graph,
                &ds.features,
                &p.blocks,
                Reads::HGN_STEP,
            );
            let (loss, sup, _mi) =
                model.hgn_loss_planned(&mut lane.g, &fw, &p.blocks, labels, &p.plan);
            lane.sup = sup;
            lane.loss = lane.g.value(loss).as_slice()[0];
            if lane.loss.is_finite() {
                lane.g.backward(loss);
            }
        });
        if lanes.iter().any(|l| !l.loss.is_finite()) {
            return Err(NonFiniteSource::Loss);
        }
        // Fold per-lane gradient sums in fixed lane order; the BTreeMap then
        // yields an id-sorted list exactly like `collect_param_grads`, so
        // the clip norm and Adam arithmetic see a canonical order.
        let mut folded: BTreeMap<ParamId, Tensor> = BTreeMap::new();
        for (lane, p) in lanes.iter_mut().zip(payloads) {
            self.opts.faults.corrupt_gradients(p.step, &mut lane.g);
            for (pid, grad) in lane.g.collect_param_grads() {
                match folded.get_mut(&pid) {
                    Some(sum) => {
                        sum.add_assign(&grad);
                        lane.g.recycle(grad);
                    }
                    None => {
                        folded.insert(pid, grad);
                    }
                }
            }
        }
        let inv = 1.0 / lanes.len() as f32;
        let grads: Vec<(ParamId, Tensor)> = folded
            .into_iter()
            .map(|(pid, mut sum)| {
                sum.scale_assign(inv);
                (pid, sum)
            })
            .collect();
        self.opt
            .step_grads_clipped_guarded(&mut self.model.params, grads, clip, &mut self.g)
            .map_err(|pid| grad_source(self.model, pid))?;
        self.landed.extend(lanes.iter().map(|l| (l.loss, l.sup)));
        Ok(())
    }

    /// Guarded CA step: only the cluster centers move. A batch whose
    /// forward pass yields no CA loss lands without a step.
    fn ca_step(&mut self, ds: &Dataset, p: &Payload) -> Result<(), NonFiniteSource> {
        self.landed.clear();
        let (model, g): (&CateHgn, _) = (self.model, &mut self.g);
        g.reset();
        let fw = model.forward(g, &ds.graph, &ds.features, &p.blocks, Reads::CA_STEP);
        let Some(loss) = model.ca_loss(g, &fw) else {
            return Ok(());
        };
        if !g.value(loss).as_slice()[0].is_finite() {
            return Err(NonFiniteSource::Loss);
        }
        g.backward(loss);
        let clip = Some(self.cfg.clip);
        self.ca_opt
            .step_filtered_guarded(&mut self.model.params, g, clip, &self.center_ids)
            .map(drop)
            .map_err(|pid| grad_source(self.model, pid))
    }

    /// The one failure block: the policy decides, then the failed step is
    /// skipped or the run rolls back to the last snapshot.
    fn recover(&mut self, source: NonFiniteSource, ds: &mut Dataset) -> Result<(), TrainError> {
        self.skips_in_row += 1;
        self.rolls_in_row += 1;
        let (exhausted, give_up) = match self.opts.policy {
            RecoveryPolicy::Abort => ("policy is abort", true),
            RecoveryPolicy::SkipBatch { max_consecutive } => (
                "skip-batch limit reached",
                self.skips_in_row > max_consecutive,
            ),
            RecoveryPolicy::Rollback { max_retries, .. } => (
                "rollback retries exhausted",
                self.rolls_in_row > max_retries,
            ),
        };
        if give_up {
            let (outer, step) = self.pos.parts();
            return Err(TrainError::NonFinite {
                source,
                outer,
                step,
                exhausted,
            });
        }
        if let RecoveryPolicy::Rollback { lr_backoff, .. } = self.opts.policy {
            let state = self.manager.last_state()?;
            self.restore(&state, ds)?;
            self.report.rollbacks += 1;
            // Backoff compounds over consecutive retries of the same
            // snapshot.
            let scale = lr_backoff.powi(self.rolls_in_row as i32);
            self.opt.set_lr(state.opt_lr * scale);
            self.ca_opt.set_lr(state.ca_lr * scale);
        } else {
            // The RNG is already past the bad draws. An HGN skip redraws
            // the same mini slot; a CA iteration carries no loss
            // accounting, so its skip consumes the iteration.
            self.report.skipped += 1;
            if let Pos::Ca { done, .. } = &mut self.pos {
                *done += 1;
            }
        }
        Ok(())
    }
}

fn grad_source(model: &CateHgn, pid: ParamId) -> NonFiniteSource {
    NonFiniteSource::Gradient {
        param: model.params.name(pid).to_string(),
    }
}

/// A step's label column: fault poisoning first (keyed by the global step),
/// then alignment with the sampler's deduped seed prefix.
fn step_labels(p: &mut Payload, faults: &mut FaultPlan) -> Tensor {
    let mut labels = Tensor::col_vec(std::mem::take(&mut p.labels));
    faults.poison_batch(p.step, labels.as_mut_slice());
    match p.blocks.first() {
        Some(b) => dedup_labels(&p.seeds, &b.dst_nodes, &labels),
        None => labels,
    }
}

/// [`train`] with checkpoint/resume, non-finite recovery, fault injection,
/// and batch-level data parallelism. See `crate::resilience` for the
/// option types.
///
/// Determinism contract: on a clean run (no faults, no non-finite values)
/// this performs arithmetic bitwise-identical to the historical loop
/// regardless of checkpoint options, and a run resumed from a
/// checkpoint continues bitwise-identical to the uninterrupted run.
pub fn train_with(
    model: &mut CateHgn,
    ds: &mut Dataset,
    opts: &mut TrainOptions,
) -> Result<TrainReport, TrainError> {
    if ds.split.train.is_empty() {
        return Err(TrainError::EmptyTrainSplit);
    }
    let cfg = model.cfg.clone();
    let cfg_json = serde_json::to_string(&cfg)
        .map_err(|e| CheckpointError::Corrupt(format!("model config serialization: {e}")))
        .map_err(TrainError::Checkpoint)?;
    let lanes = opts.data_lanes.max(1);
    let mut run = Run {
        cfg: &cfg,
        cfg_json,
        manager: CheckpointManager::new(opts.checkpoint_path.clone()),
        lanes,
        center_ids: model.ca.centers.iter().copied().collect(),
        pos: Pos::Hgn { outer: 0, mini: 0 },
        tot: 0.0,
        sup_tot: 0.0,
        opt: Optimizer::adam(cfg.lr),
        ca_opt: Optimizer::adam(cfg.lr),
        rng: ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0x7EA1)),
        report: TrainReport::default(),
        best_val: f32::INFINITY,
        best_params: None,
        te: None,
        skips_in_row: 0,
        rolls_in_row: 0,
        g: Graph::new(),
        lane_tapes: match lanes {
            1 => Vec::new(),
            n => (0..n).map(|_| Lane::default()).collect(),
        },
        landed: Vec::with_capacity(lanes),
        model,
        opts,
    };

    if run.opts.resume {
        let state = run.manager.load_latest()?;
        if state.config_json != run.cfg_json {
            return Err(CheckpointError::Mismatch(
                "checkpoint was produced by a different model config".into(),
            )
            .into());
        }
        // The RNG stream and step grouping are functions of the lane
        // schedule: resuming under a different one would silently diverge.
        if state.data_lanes != lanes as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint was captured with data_lanes={}, run configured with {lanes}",
                state.data_lanes
            ))
            .into());
        }
        // The enhancer itself is a pure deterministic function of the
        // dataset and config; only its mined term sets evolve, and those
        // come back from the snapshot inside `restore`.
        run.te = cfg
            .ablation
            .te
            .then(|| TextEnhancer::new(ds, cfg.n_clusters, cfg.dim.max(16), cfg.seed));
        run.restore(&state, ds)?;
    } else {
        // ---- TE initialisation (Algorithm 1, line 1) ------------------
        if cfg.ablation.te {
            let mut te = TextEnhancer::new(ds, cfg.n_clusters, cfg.dim.max(16), cfg.seed);
            if cfg.ablation.te_init {
                te.bootstrap(cfg.kappa);
            } else {
                te.bootstrap_from_keywords(ds);
            }
            te.relink(ds, cfg.ablation.te_tfidf);
            run.report.te_rounds.push(snapshot(0, &te, ds));
            // Term-enhanced cluster-center initialisation (Sec. III-E1):
            // centers start at the mean embedding of each bootstrapped
            // term set (without TE they are seeded after round one).
            if cfg.ablation.ca {
                init_centers_from_terms(run.model, ds, &te);
            }
            run.te = Some(te);
        }

        // Output-bias warm start: every layer's prediction head opens at
        // the train-label mean, so round one already matches the mean
        // predictor and gradient steps refine from there instead of
        // climbing to it.
        let label_mean = {
            let labels = ds.labels_of(&ds.split.train);
            labels.iter().sum::<f32>() / labels.len() as f32
        };
        for layer in &run.model.layers {
            run.model.params.value_mut(layer.b_y).fill(label_mean);
        }

        // Best-on-validation model selection (Sec. IV-A1): heavy-tailed
        // labels make late epochs drift. The warm-started parameters seed
        // the selection, so a run whose every round validates worse keeps
        // the mean-predictor head.
        if let Some(val) = val_rmse(run.model, ds) {
            run.best_val = val;
            run.best_params = Some(run.model.params.clone());
        }
    }

    // Rollback needs a restore target even before the first periodic
    // checkpoint: capture a run-entry baseline (memory only).
    if matches!(run.opts.policy, RecoveryPolicy::Rollback { .. }) && !run.manager.has_snapshot() {
        let state = run.capture(ds);
        run.manager.set_baseline(&state);
    }

    while run.pos.parts().0 < cfg.outer_iters {
        match run.pos {
            // ---- Round epilogue of the HGN mini-iterations (lines 3-9)
            Pos::Hgn { outer, mini } if mini >= cfg.mini_iters => {
                let minis = cfg.mini_iters as f32;
                run.report.hgn_losses.push(run.tot / minis);
                run.report.sup_losses.push(run.sup_tot / minis);
                // CA without TE: seed the centers from real node embeddings
                // once the trunk has seen one round of supervision.
                if outer == 0 && cfg.ablation.ca && run.te.is_none() {
                    init_centers_from_nodes(run.model, ds, &mut run.rng);
                }
                run.pos = Pos::Ca { outer, done: 0 };
            }
            // ---- Round end: CA center updates (line 10) are done ------
            Pos::Ca { outer, done } if !cfg.ablation.ca || done >= cfg.ca_iters => {
                // ---- TE refinement (line 11) --------------------------
                if let Some(te) = run.te.as_mut() {
                    if cfg.ablation.te_iterative {
                        refine_terms(run.model, ds, te, &cfg);
                        run.report.te_rounds.push(snapshot(outer + 1, te, ds));
                    }
                }
                // ---- Validation trace & model selection ---------------
                if let Some(val) = val_rmse(run.model, ds) {
                    run.report.val_rmse.push(val);
                    if val < run.best_val {
                        run.best_val = val;
                        run.best_params = Some(run.model.params.clone());
                    }
                }
                run.pos = Pos::Hgn {
                    outer: outer + 1,
                    mini: 0,
                };
                run.tot = 0.0;
                run.sup_tot = 0.0;
            }
            // ---- HGN mini-iterations or CA iterations left to run -----
            _ => match run.segment(ds)? {
                Segment::Done => {}
                Segment::Halt => return Ok(run.report),
                Segment::Failed(source) => run.recover(source, ds)?,
            },
        }
    }
    if let Some(best) = &run.best_params {
        // Install the selected model's values over the live optimizer
        // moments. The moments belong to the optimizer's trajectory, not
        // the selected model, and nothing downstream reads them — which
        // is what lets checkpoints persist the best model values-only.
        let ids: Vec<ParamId> = run.model.params.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let value = run.model.params.value_mut(id).as_mut_slice();
            value.copy_from_slice(best.value(id).as_slice());
        }
    }
    Ok(run.report)
}

/// Root mean squared error.
pub fn rmse(pred: &[f32], truth: &[f32]) -> f32 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    let s: f32 = pred
        .iter()
        .zip(truth)
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum();
    (s / pred.len() as f32).sqrt()
}

/// Validation RMSE of the current parameters; `None` without a validation
/// split.
fn val_rmse(model: &CateHgn, ds: &Dataset) -> Option<f32> {
    (!ds.split.val.is_empty()).then(|| {
        let seeds = ds.paper_nodes_of(&ds.split.val);
        let preds = model.predict(&ds.graph, &ds.features, &seeds, 0xE7A1);
        rmse(&preds, &ds.labels_of(&ds.split.val))
    })
}

/// The sampler dedups seeds; align the label column with the deduped order,
/// keeping each seed's first label.
pub(crate) fn dedup_labels(seeds: &[NodeId], deduped: &[NodeId], labels: &Tensor) -> Tensor {
    if seeds.len() == deduped.len() {
        return labels.clone();
    }
    let first_label: BTreeMap<NodeId, f32> = seeds
        .iter()
        .zip(labels.as_slice())
        .map(|(&n, &l)| (n, l))
        .rev()
        .collect();
    Tensor::col_vec(deduped.iter().map(|n| first_label[n]).collect())
}

fn init_centers_from_terms(model: &mut CateHgn, ds: &Dataset, te: &TextEnhancer) {
    // Collect the union of term nodes, embed them once per layer, then
    // average per cluster.
    let mut all_tokens: Vec<textmine::TokenId> = te.term_sets.iter().flatten().copied().collect();
    all_tokens.sort();
    all_tokens.dedup();
    if all_tokens.is_empty() {
        return;
    }
    let nodes: Vec<NodeId> = all_tokens
        .iter()
        .map(|t| ds.term_nodes[t.index()])
        .collect();
    let embs = model.embed(&ds.graph, &ds.features, &nodes, model.cfg.seed);
    let pos_of: BTreeMap<textmine::TokenId, usize> = all_tokens
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i))
        .collect();
    for (l, emb) in embs.iter().enumerate() {
        let centers = model.params.value_mut(model.ca.centers[l]);
        for (k, set) in te.term_sets.iter().enumerate() {
            if set.is_empty() {
                continue; // keep the random init for empty clusters
            }
            let mut mean = vec![0.0f32; emb.cols()];
            for t in set {
                for (m, &x) in mean.iter_mut().zip(emb.row(pos_of[t])) {
                    *m += x;
                }
            }
            mean.iter_mut().for_each(|m| *m /= set.len() as f32);
            centers.set_row(k, &mean);
        }
    }
}

/// Seeds cluster centers with a k-means++-style selection over the
/// embeddings of a random node sample (all types).
fn init_centers_from_nodes<R: Rng>(model: &mut CateHgn, ds: &Dataset, rng: &mut R) {
    let k = model.cfg.n_clusters;
    let n = ds.graph.num_nodes();
    let sample: Vec<NodeId> = (0..(8 * k).min(n))
        .map(|_| NodeId(rng.gen_range(0..n as u32)))
        .collect();
    let embs = model.embed(&ds.graph, &ds.features, &sample, model.cfg.seed ^ 0xCE);
    for (l, emb) in embs.iter().enumerate() {
        let mut chosen: Vec<usize> = vec![rng.gen_range(0..sample.len())];
        while chosen.len() < k {
            // Pick the sample point farthest from its nearest chosen center.
            let mut best = (0usize, -1.0f32);
            for i in 0..sample.len() {
                let d = chosen
                    .iter()
                    .map(|&c| {
                        emb.row(i)
                            .iter()
                            .zip(emb.row(c))
                            .map(|(&a, &b)| (a - b) * (a - b))
                            .sum::<f32>()
                    })
                    .fold(f32::INFINITY, f32::min);
                if d > best.1 {
                    best = (i, d);
                }
            }
            chosen.push(best.0);
        }
        let centers = model.params.value_mut(model.ca.centers[l]);
        for (slot, &i) in chosen.iter().enumerate() {
            let row: Vec<f32> = emb.row(i).to_vec();
            centers.set_row(slot, &row);
        }
    }
}

fn refine_terms(model: &CateHgn, ds: &mut Dataset, te: &mut TextEnhancer, cfg: &ModelConfig) {
    let active: Vec<textmine::TokenId> = {
        let mut v: Vec<_> = te.active_terms().into_iter().collect();
        v.sort();
        v
    };
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

fn snapshot(round: usize, te: &TextEnhancer, ds: &Dataset) -> TeRound {
    let precision = te.term_precision(ds);
    let sample_terms = te
        .term_sets
        .iter()
        .map(|set| {
            set.iter()
                .take(8)
                .map(|t| ds.vocab.token(*t).to_string())
                .collect()
        })
        .collect();
    TeRound {
        round,
        precision,
        sample_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dblp_sim::{Dataset, WorldConfig};

    fn train_variant_on(cfg: ModelConfig, world: &WorldConfig) -> (TrainReport, CateHgn, Dataset) {
        let mut ds = Dataset::full(world, 8);
        let mut model = CateHgn::new(
            cfg,
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let report = train(&mut model, &mut ds).unwrap();
        (report, model, ds)
    }

    fn train_variant(cfg: ModelConfig) -> (TrainReport, CateHgn, Dataset) {
        train_variant_on(cfg, &WorldConfig::tiny())
    }

    #[test]
    fn training_decreases_loss_hgn() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.ablation = crate::config::Ablation::hgn_only();
        cfg.outer_iters = 3;
        cfg.mini_iters = 10;
        let (report, model, _) = train_variant(cfg);
        assert_eq!(report.hgn_losses.len(), 3);
        assert!(
            report.hgn_losses.last().unwrap() < report.hgn_losses.first().unwrap(),
            "loss should fall: {:?}",
            report.hgn_losses
        );
        assert!(model.params.all_finite(), "training must stay finite");
    }

    #[test]
    fn full_cate_hgn_trains_and_tracks_te() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.outer_iters = 2;
        cfg.mini_iters = 6;
        let (report, model, ds) = train_variant(cfg);
        assert!(!report.te_rounds.is_empty(), "TE rounds recorded");
        assert_eq!(report.te_rounds[0].round, 0);
        assert!(model.params.all_finite());
        // TE must have rebuilt term links.
        assert!(ds.graph.num_links_of(ds.link_types.contains) > 0);
        // Validation RMSE tracked per outer round.
        assert_eq!(report.val_rmse.len(), 2);
        assert!(report.val_rmse.iter().all(|r| r.is_finite()));
        // No recovery machinery fired on a clean run.
        assert_eq!((report.skipped, report.rollbacks), (0, 0));
    }

    #[test]
    fn empty_train_split_is_a_typed_error() {
        let mut ds = Dataset::full(&WorldConfig::tiny(), 8);
        ds.split.train.clear();
        let mut model = CateHgn::new(
            ModelConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let err = train(&mut model, &mut ds).unwrap_err();
        assert!(matches!(err, TrainError::EmptyTrainSplit), "got {err:?}");
    }

    #[test]
    fn rmse_known_values() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn dedup_labels_keeps_first_occurrence() {
        let seeds = vec![NodeId(3), NodeId(5), NodeId(3)];
        let deduped = vec![NodeId(3), NodeId(5)];
        let labels = Tensor::col_vec(vec![1.0, 2.0, 9.0]);
        let out = dedup_labels(&seeds, &deduped, &labels);
        assert_eq!(out.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn trained_model_beats_mean_predictor() {
        let mut cfg = ModelConfig::test_tiny();
        cfg.outer_iters = 6;
        cfg.mini_iters = 20;
        cfg.ablation = crate::config::Ablation::hgn_only();
        // The 160-paper tiny world has a ~10-paper validation split —
        // checkpoint selection is a coin flip there. Use a 400-paper world
        // so "learns anything at all" is actually testable.
        let world = WorldConfig {
            n_papers: 400,
            n_authors: 200,
            ..WorldConfig::tiny()
        };
        let (_report, model, ds) = train_variant_on(cfg, &world);
        let seeds = ds.paper_nodes_of(&ds.split.test);
        let preds = model.predict(&ds.graph, &ds.features, &seeds, 1);
        let truth = ds.labels_of(&ds.split.test);
        let model_rmse = rmse(&preds, &truth);
        let train_mean =
            ds.labels_of(&ds.split.train).iter().sum::<f32>() / ds.split.train.len() as f32;
        let mean_preds = vec![train_mean; truth.len()];
        let mean_rmse = rmse(&mean_preds, &truth);
        assert!(
            model_rmse < mean_rmse,
            "HGN ({model_rmse}) should beat the mean predictor ({mean_rmse})"
        );
    }
}
