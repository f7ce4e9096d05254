//! Training resilience: atomic checkpoint/resume, non-finite recovery
//! policies, and a deterministic fault-injection harness.
//!
//! Algorithm 1 is a long-running stateful loop; this module gives it three
//! production affordances:
//!
//! 1. **Atomic checkpoints** — [`TrainState`] captures everything the loop
//!    needs to continue bitwise (parameters with Adam moments, both
//!    optimizers, the training RNG, TE term sets, the partial-round loss
//!    accumulators, the full [`TrainReport`] so far, and a content
//!    fingerprint of the graph). Snapshots are serialized by a hand-rolled
//!    versioned binary codec, checksummed with FNV-1a, and written via
//!    temp-file + rename with one `.prev` generation retained, so a crash
//!    mid-write can never destroy the last good snapshot.
//! 2. **[`RecoveryPolicy`]** — what `train_with` does when a loss or
//!    gradient goes non-finite: structured abort, skip the batch, or roll
//!    back to the last snapshot with learning-rate backoff.
//! 3. **[`FaultPlan`]** — seeded, once-firing fault injection (NaN/Inf
//!    gradients, poisoned batches, torn checkpoint writes) so every
//!    recovery path is exercised deterministically in tests.
//!
//! The invariant the whole module is built around: on a clean run, every
//! hook here is observationally free — capture only reads, guards only
//! scan — so a checkpointed run is bitwise-identical to an uncheckpointed
//! one, and a resumed run is bitwise-identical to an uninterrupted one.

use crate::train::{TeRound, TrainReport};
use hetgraph::shard::fnv1a;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tensor::{Graph, ParamId, Params};

/// Snapshot file magic.
const MAGIC: [u8; 4] = *b"CHGN";
/// Snapshot format version. v4 appends the training phase (HGN mini-loop
/// vs CA refinement) and the completed-CA-iteration count, so a run can
/// checkpoint and resume bitwise from inside the clustering phase, not
/// just at HGN mini-iteration boundaries.
const VERSION: u32 = 4;

// -------------------------------------------------------------------
// Graceful shutdown.
// -------------------------------------------------------------------

/// Process-wide shutdown flag set by the signal handler. A signal handler
/// may only perform async-signal-safe work; a relaxed store into a static
/// atomic is exactly that.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The signal handler: records the request and returns. Everything else
/// (checkpointing, unwinding the training loop) happens at the next safe
/// boundary on the main thread.
extern "C" fn record_shutdown(_signum: i32) {
    SIGNAL_SHUTDOWN.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
const SIGINT: i32 = 2;
#[cfg(unix)]
const SIGTERM: i32 = 15;

/// A cooperative shutdown request, checked by `train_with` at batch and
/// CA-iteration boundaries. When the flag is set, the loop captures one
/// final atomic checkpoint and returns the partial report cleanly — a
/// `kill -TERM` mid-training resumes bitwise, exactly like `halt_after`.
///
/// [`ShutdownToken::install`] wires the flag to SIGTERM/SIGINT;
/// [`ShutdownToken::manual`] gives tests a private flag with no signal
/// plumbing (and no cross-test interference through the process-global
/// handler state).
#[derive(Clone, Debug, Default)]
pub struct ShutdownToken {
    /// `None` observes the process-global signal flag; `Some` is a
    /// test-private flag flipped only by [`ShutdownToken::trigger`].
    manual: Option<Arc<AtomicBool>>,
}

impl ShutdownToken {
    /// Installs the SIGTERM/SIGINT handler (idempotent) and returns a
    /// token observing the process-global flag. On non-unix targets the
    /// token still works, but only [`ShutdownToken::trigger`] can set it.
    pub fn install() -> Self {
        #[cfg(unix)]
        {
            // std links libc; declare the one symbol needed rather than
            // growing a dependency for two `signal(2)` calls.
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            let handler = record_shutdown as *const () as usize;
            // SAFETY: `record_shutdown` is an `extern "C" fn(i32)` that
            // only performs an atomic store — async-signal-safe by
            // construction. `signal(2)` itself is safe to call with a
            // valid function pointer, and replacing the disposition of
            // SIGTERM/SIGINT cannot violate memory safety elsewhere in
            // the process.
            unsafe {
                signal(SIGTERM, handler);
                signal(SIGINT, handler);
            }
        }
        ShutdownToken { manual: None }
    }

    /// A token with a private flag, for tests: [`ShutdownToken::trigger`]
    /// is the only way to set it.
    pub fn manual() -> Self {
        ShutdownToken {
            manual: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// True once shutdown has been requested (signal received or
    /// [`ShutdownToken::trigger`] called).
    pub fn requested(&self) -> bool {
        match &self.manual {
            Some(flag) => flag.load(Ordering::Relaxed),
            None => SIGNAL_SHUTDOWN.load(Ordering::Relaxed),
        }
    }

    /// Requests shutdown programmatically (what the signal handler does).
    pub fn trigger(&self) {
        match &self.manual {
            Some(flag) => flag.store(true, Ordering::Relaxed),
            None => SIGNAL_SHUTDOWN.store(true, Ordering::Relaxed),
        }
    }
}

// -------------------------------------------------------------------
// Errors.
// -------------------------------------------------------------------

/// A checkpoint could not be written, read, or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (message carries the `std::io::Error` text).
    Io(String),
    /// The snapshot bytes failed magic/version/length/checksum validation
    /// or the payload decoder ran off the rails.
    Corrupt(String),
    /// The snapshot is internally valid but disagrees with the live model
    /// or dataset (different config, parameter set, or graph content).
    Mismatch(String),
    /// No snapshot exists at the configured path (nor a `.prev` fallback).
    Missing,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint io error: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::Missing => write!(f, "no checkpoint found"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Where a non-finite value was first detected during a training step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NonFiniteSource {
    /// The scalar training loss.
    Loss,
    /// A collected parameter gradient (named).
    Gradient { param: String },
}

impl fmt::Display for NonFiniteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonFiniteSource::Loss => write!(f, "loss"),
            NonFiniteSource::Gradient { param } => write!(f, "gradient of '{param}'"),
        }
    }
}

/// Structured training failure returned by `train_with`.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainError {
    /// The dataset's training split is empty: there is nothing to draw a
    /// batch from.
    EmptyTrainSplit,
    /// Checkpoint plumbing failed.
    Checkpoint(CheckpointError),
    /// A non-finite value survived the configured [`RecoveryPolicy`]
    /// (or the policy was [`RecoveryPolicy::Abort`]).
    NonFinite {
        source: NonFiniteSource,
        /// Outer round of the failing step.
        outer: usize,
        /// Phase-local step index (HGN mini-iteration or CA iteration).
        step: usize,
        /// What the policy had already tried when it gave up.
        exhausted: &'static str,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyTrainSplit => write!(f, "empty training split"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::NonFinite {
                source,
                outer,
                step,
                exhausted,
            } => write!(
                f,
                "non-finite {source} at outer round {outer}, step {step} ({exhausted})"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

// -------------------------------------------------------------------
// Recovery policy.
// -------------------------------------------------------------------

/// What the training loop does when a step produces a non-finite loss or
/// gradient. In every case the poisoned update is discarded before any
/// parameter or optimizer state changes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RecoveryPolicy {
    /// Return a structured [`TrainError::NonFinite`] immediately.
    #[default]
    Abort,
    /// Drop the batch and draw a fresh one. Aborts after
    /// `max_consecutive` failed batches in a row (the counter resets on
    /// every successful step).
    SkipBatch { max_consecutive: usize },
    /// Restore the last in-memory snapshot (the last checkpoint, or the
    /// run-entry baseline) and multiply the learning rate by `lr_backoff`.
    /// Aborts after `max_retries` rollbacks without an intervening
    /// successful step.
    Rollback { lr_backoff: f32, max_retries: usize },
}

// -------------------------------------------------------------------
// Fault injection.
// -------------------------------------------------------------------

/// One injectable fault. Steps are global HGN mini-iteration positions
/// (`outer * mini_iters + mini`), which are stable across resume/rollback
/// replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// After backward at the given step, set one gradient element to NaN.
    NanGradients { step: u64 },
    /// After backward at the given step, set one gradient element to +Inf.
    InfGradients { step: u64 },
    /// Replace the step's batch labels with NaN before the forward pass.
    PoisonBatch { step: u64 },
    /// Make the N-th checkpoint save (1-based) behave like a writer that
    /// crashed mid-stream: the current file is left truncated on disk.
    TornCheckpointWrite { ordinal: u64 },
}

/// A seeded plan of faults to inject. Each armed fault fires **once** —
/// a replay of the same step after recovery proceeds cleanly, which is
/// exactly the transient-fault model the recovery policies target. Arm the
/// same fault twice to simulate a persistent failure.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    armed: Vec<(Fault, bool)>,
    /// Checkpoint saves attempted so far (for torn-write ordinals).
    saves: u64,
}

impl FaultPlan {
    /// A plan with the given faults; `seed` drives which gradient element
    /// gets corrupted.
    pub fn new(seed: u64, faults: &[Fault]) -> Self {
        FaultPlan {
            seed,
            armed: faults.iter().map(|&f| (f, false)).collect(),
            saves: 0,
        }
    }

    /// True when every armed fault has fired.
    pub fn exhausted(&self) -> bool {
        self.armed.iter().all(|&(_, fired)| fired)
    }

    fn fire(&mut self, want: impl Fn(Fault) -> bool) -> Option<Fault> {
        for (f, fired) in self.armed.iter_mut() {
            if !*fired && want(*f) {
                *fired = true;
                return Some(*f);
            }
        }
        None
    }

    /// Hook: poison a batch's labels before the forward pass. Returns true
    /// when a fault fired.
    pub fn poison_batch(&mut self, step: u64, labels: &mut [f32]) -> bool {
        if self.fire(|f| f == Fault::PoisonBatch { step }).is_some() {
            labels.fill(f32::NAN);
            return true;
        }
        false
    }

    /// Hook: corrupt one bound parameter's gradient after backward. The
    /// victim binding and element are drawn from the plan's seed and the
    /// step index, so the same plan corrupts the same weight every run.
    pub fn corrupt_gradients(&mut self, step: u64, g: &mut Graph) -> bool {
        let bad = match self
            .fire(|f| f == Fault::NanGradients { step } || f == Fault::InfGradients { step })
        {
            Some(Fault::NanGradients { .. }) => f32::NAN,
            Some(Fault::InfGradients { .. }) => f32::INFINITY,
            _ => return false,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ step.wrapping_mul(0x9E37_79B9));
        let bindings: Vec<tensor::Var> = g.bindings().iter().map(|&(_, v)| v).collect();
        // Walk bindings from a seeded start until one carries a gradient.
        if bindings.is_empty() {
            return false;
        }
        let start = rng.gen_range(0..bindings.len());
        for k in 0..bindings.len() {
            let v = bindings[(start + k) % bindings.len()];
            if let Some(grad) = g.grad_mut(v) {
                let slot = rng.gen_range(0..grad.len());
                grad.as_mut_slice()[slot] = bad;
                return true;
            }
        }
        false
    }

    /// Hook: called once per checkpoint save attempt; returns true when
    /// this save should be torn.
    fn torn_save(&mut self) -> bool {
        self.saves += 1;
        let n = self.saves;
        self.fire(|f| f == Fault::TornCheckpointWrite { ordinal: n })
            .is_some()
    }
}

// -------------------------------------------------------------------
// Training options.
// -------------------------------------------------------------------

/// Knobs for `train_with`. [`Default`] reproduces the historical `train`
/// behavior exactly (no checkpoints, abort on non-finite, no faults).
#[derive(Clone, Debug, Default)]
pub struct TrainOptions {
    /// Snapshot file; `.tmp` and `.prev` siblings are created next to it.
    pub checkpoint_path: Option<PathBuf>,
    /// Capture a snapshot every N completed HGN mini-iterations and every
    /// N completed CA iterations (a lane group that crosses a multiple of
    /// N captures at its end). Captures land in memory always (rollback
    /// target) and on disk when `checkpoint_path` is set.
    pub checkpoint_every: Option<usize>,
    /// Resume from `checkpoint_path` instead of starting fresh.
    pub resume: bool,
    /// Stop after the global HGN step position reaches N (saving a final
    /// snapshot), returning the partial report — the test/CLI hook for
    /// kill-and-resume drills.
    pub halt_after_steps: Option<u64>,
    /// Stop after the global CA iteration position reaches N (saving a
    /// final snapshot) — the mid-clustering-phase counterpart of
    /// `halt_after_steps`.
    pub halt_after_ca: Option<u64>,
    /// Cooperative shutdown flag, checked at batch and CA-iteration
    /// boundaries. When set mid-run the loop saves one final atomic
    /// checkpoint and returns the partial report cleanly; a later
    /// `resume` continues bitwise. Production wires this to
    /// SIGTERM/SIGINT via [`ShutdownToken::install`].
    pub shutdown: Option<ShutdownToken>,
    /// Non-finite recovery policy.
    pub policy: RecoveryPolicy,
    /// Fault injection plan (empty in production).
    pub faults: FaultPlan,
    /// Independent mini-batch lanes folded into each optimizer step.
    /// `0` or `1` runs the historical serial loop bitwise; `n > 1` draws
    /// `n` batches per step, evaluates them concurrently on the tensor
    /// worker pool, and averages their gradients in fixed lane order —
    /// results depend on the lane count but never on the thread count.
    pub data_lanes: usize,
}

// -------------------------------------------------------------------
// Snapshot state.
// -------------------------------------------------------------------

/// One parameter's full persisted state.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSnap {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
    pub value: Vec<f32>,
    pub m: Vec<f32>,
    pub v: Vec<f32>,
}

/// One parameter's values, without optimizer moments. Used for the
/// best-validation model: its Adam moments are never consumed — the end
/// of training installs the best *values* over the live optimizer state,
/// and a resumed run rebuilds them the same way — so persisting them
/// would triple the best-model bytes for nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueSnap {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
    pub value: Vec<f32>,
}

/// Everything `train_with` needs to continue a run bitwise.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainState {
    /// JSON of the `ModelConfig` that produced this run; resume refuses a
    /// snapshot whose config disagrees with the live model's.
    pub config_json: String,
    /// Resume position: completed outer rounds.
    pub outer: u64,
    /// Resume position: completed HGN mini-iterations within `outer`
    /// (may equal `mini_iters`, meaning the round's epilogue is pending).
    pub mini: u64,
    /// Partial-round total / supervised loss accumulators.
    pub tot: f32,
    pub sup_tot: f32,
    pub best_val: f32,
    pub opt_lr: f32,
    pub opt_steps: u64,
    pub ca_lr: f32,
    pub ca_steps: u64,
    /// The training RNG, mid-stream.
    pub rng_words: [u32; 27],
    pub params: Vec<ParamSnap>,
    /// Best-validation model, values only (see [`ValueSnap`]).
    pub best_params: Option<Vec<ValueSnap>>,
    /// TE term sets (token ids per cluster), when TE is on.
    pub te_term_sets: Option<Vec<Vec<u32>>>,
    pub report: TrainReport,
    /// [`hetgraph::HetGraph::content_fingerprint`] at capture time;
    /// resume verifies the reconstructed graph matches.
    pub graph_fingerprint: u64,
    /// The process-local sampling stamp at capture time. Diagnostic only:
    /// stamps are never comparable across processes, and block-cache
    /// replay is bitwise-transparent, so resume always starts cold.
    pub cache_stamp: u64,
    /// Normalized lane count (`max(1)`) the run was captured with; resume
    /// refuses a snapshot whose lane schedule disagrees with the live
    /// options, because the RNG stream is a function of it.
    pub data_lanes: u64,
    /// Training phase at capture: `0` = inside round `outer`'s HGN
    /// mini-loop (resume enters at `mini`), `1` = the round's HGN minis
    /// and epilogue are complete and the CA refinement loop is underway
    /// (resume enters at `ca_done`).
    pub phase: u64,
    /// Completed CA iterations within round `outer` when `phase == 1`.
    pub ca_done: u64,
}

/// Captures a [`Params`] store (values + Adam moments) into snaps.
pub fn snapshot_params(params: &Params) -> Vec<ParamSnap> {
    params
        .iter()
        .map(|(id, name, value)| {
            let (m, v) = params.moments(id);
            let (rows, cols) = value.shape();
            ParamSnap {
                name: name.to_string(),
                rows,
                cols,
                value: value.as_slice().to_vec(),
                m: m.as_slice().to_vec(),
                v: v.as_slice().to_vec(),
            }
        })
        .collect()
}

/// Checks a saved parameter list against a live [`Params`] store
/// positionally: the same count, and at each position the same name and
/// shape. `saved` yields each saved parameter's `(name, rows, cols)`.
/// Returns the live store's ids in order, for the caller to restore into.
pub(crate) fn check_layout<'a>(
    params: &Params,
    saved: impl ExactSizeIterator<Item = (&'a str, usize, usize)>,
) -> Result<Vec<ParamId>, CheckpointError> {
    if params.len() != saved.len() {
        return Err(CheckpointError::Mismatch(format!(
            "snapshot has {} parameters, model has {}",
            saved.len(),
            params.len()
        )));
    }
    for ((_, name, value), (saved_name, rows, cols)) in params.iter().zip(saved) {
        if name != saved_name {
            return Err(CheckpointError::Mismatch(format!(
                "parameter name mismatch: snapshot '{saved_name}', model '{name}'"
            )));
        }
        if value.shape() != (rows, cols) {
            return Err(CheckpointError::Mismatch(format!(
                "parameter '{name}' shape mismatch: snapshot {rows}x{cols}, model {:?}",
                value.shape()
            )));
        }
    }
    Ok(params.iter().map(|(id, _, _)| id).collect())
}

/// Restores snaps into a live [`Params`] store built by the same model
/// constructor, after [`check_layout`] accepts them; on a mismatch the
/// store is left as it was.
pub fn restore_params(params: &mut Params, snaps: &[ParamSnap]) -> Result<(), CheckpointError> {
    let layout = snaps.iter().map(|s| (s.name.as_str(), s.rows, s.cols));
    let ids = check_layout(params, layout)?;
    for (id, snap) in ids.into_iter().zip(snaps) {
        params.restore_state(id, &snap.value, &snap.m, &snap.v);
    }
    Ok(())
}

/// Captures a [`Params`] store's values (no moments) into snaps.
pub fn snapshot_values(params: &Params) -> Vec<ValueSnap> {
    params
        .iter()
        .map(|(_, name, value)| {
            let (rows, cols) = value.shape();
            ValueSnap {
                name: name.to_string(),
                rows,
                cols,
                value: value.as_slice().to_vec(),
            }
        })
        .collect()
}

/// Restores values-only snaps into a live [`Params`] store, leaving its
/// optimizer moments untouched, after the same [`check_layout`] as
/// [`restore_params`].
pub fn restore_values(params: &mut Params, snaps: &[ValueSnap]) -> Result<(), CheckpointError> {
    let layout = snaps.iter().map(|s| (s.name.as_str(), s.rows, s.cols));
    let ids = check_layout(params, layout)?;
    for (id, snap) in ids.into_iter().zip(snaps) {
        params
            .value_mut(id)
            .as_mut_slice()
            .copy_from_slice(&snap.value);
    }
    Ok(())
}

// -------------------------------------------------------------------
// Binary codec.
// -------------------------------------------------------------------

/// [`fnv1a`] over the exact bit patterns of an `f32` slice (little-endian
/// byte order), without reinterpreting memory. Bit-exact: `-0.0` and `0.0`
/// hash differently.
pub fn fnv1a_f32(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }
    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }
    fn f32(&mut self, x: f32) {
        self.u32(x.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn f32s(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f32(x);
        }
    }
    fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u32(x);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.at + n > self.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "payload truncated at byte {} (wanted {n} more of {})",
                self.at,
                self.buf.len()
            )));
        }
        let s = self
            .buf
            .get(self.at..self.at + n)
            .ok_or_else(|| CheckpointError::Corrupt("payload bounds".into()))?;
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| CheckpointError::Corrupt("u32 read".into()))?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| CheckpointError::Corrupt("u64 read".into()))?;
        Ok(u64::from_le_bytes(b))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        // Guard absurd lengths so a corrupt length prefix fails cleanly
        // instead of attempting a huge allocation.
        if n > self.buf.len() as u64 {
            return Err(CheckpointError::Corrupt(format!("implausible length {n}")));
        }
        Ok(n as usize)
    }
    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CheckpointError::Corrupt("invalid utf-8 string".into()))
    }
    fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.len()?;
        (0..n).map(|_| self.f32()).collect()
    }
    fn u32s(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.len()?;
        (0..n).map(|_| self.u32()).collect()
    }
}

fn encode_snaps(e: &mut Enc, snaps: &[ParamSnap]) {
    e.u64(snaps.len() as u64);
    for s in snaps {
        e.str(&s.name);
        e.u64(s.rows as u64);
        e.u64(s.cols as u64);
        e.f32s(&s.value);
        e.f32s(&s.m);
        e.f32s(&s.v);
    }
}

fn encode_value_snaps(e: &mut Enc, snaps: &[ValueSnap]) {
    e.u64(snaps.len() as u64);
    for s in snaps {
        e.str(&s.name);
        e.u64(s.rows as u64);
        e.u64(s.cols as u64);
        e.f32s(&s.value);
    }
}

fn decode_value_snaps(d: &mut Dec) -> Result<Vec<ValueSnap>, CheckpointError> {
    let n = d.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ValueSnap {
            name: d.str()?,
            rows: d.u64()? as usize,
            cols: d.u64()? as usize,
            value: d.f32s()?,
        });
    }
    Ok(out)
}

fn decode_snaps(d: &mut Dec) -> Result<Vec<ParamSnap>, CheckpointError> {
    let n = d.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(ParamSnap {
            name: d.str()?,
            rows: d.u64()? as usize,
            cols: d.u64()? as usize,
            value: d.f32s()?,
            m: d.f32s()?,
            v: d.f32s()?,
        });
    }
    Ok(out)
}

fn encode_payload(state: &TrainState) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&state.config_json);
    e.u64(state.outer);
    e.u64(state.mini);
    e.f32(state.tot);
    e.f32(state.sup_tot);
    e.f32(state.best_val);
    e.f32(state.opt_lr);
    e.u64(state.opt_steps);
    e.f32(state.ca_lr);
    e.u64(state.ca_steps);
    e.u32s(&state.rng_words);
    encode_snaps(&mut e, &state.params);
    match &state.best_params {
        Some(snaps) => {
            e.u8(1);
            encode_value_snaps(&mut e, snaps);
        }
        None => e.u8(0),
    }
    match &state.te_term_sets {
        Some(sets) => {
            e.u8(1);
            e.u64(sets.len() as u64);
            for set in sets {
                e.u32s(set);
            }
        }
        None => e.u8(0),
    }
    let r = &state.report;
    e.f32s(&r.hgn_losses);
    e.f32s(&r.sup_losses);
    e.f32s(&r.val_rmse);
    e.u64(r.te_rounds.len() as u64);
    for t in &r.te_rounds {
        e.u64(t.round as u64);
        e.f32s(&t.precision);
        e.u64(t.sample_terms.len() as u64);
        for terms in &t.sample_terms {
            e.u64(terms.len() as u64);
            for s in terms {
                e.str(s);
            }
        }
    }
    e.u64(r.skipped as u64);
    e.u64(r.rollbacks as u64);
    e.u64(state.graph_fingerprint);
    e.u64(state.cache_stamp);
    e.u64(state.data_lanes);
    e.u64(state.phase);
    e.u64(state.ca_done);
    e.buf
}

fn decode_payload(buf: &[u8]) -> Result<TrainState, CheckpointError> {
    let mut d = Dec::new(buf);
    let config_json = d.str()?;
    let outer = d.u64()?;
    let mini = d.u64()?;
    let tot = d.f32()?;
    let sup_tot = d.f32()?;
    let best_val = d.f32()?;
    let opt_lr = d.f32()?;
    let opt_steps = d.u64()?;
    let ca_lr = d.f32()?;
    let ca_steps = d.u64()?;
    let words = d.u32s()?;
    let rng_words: [u32; 27] = words
        .try_into()
        .map_err(|_| CheckpointError::Corrupt("rng state is not 27 words".into()))?;
    let params = decode_snaps(&mut d)?;
    let best_params = match d.u8()? {
        0 => None,
        1 => Some(decode_value_snaps(&mut d)?),
        x => return Err(CheckpointError::Corrupt(format!("bad option tag {x}"))),
    };
    let te_term_sets = match d.u8()? {
        0 => None,
        1 => {
            let n = d.len()?;
            let mut sets = Vec::with_capacity(n);
            for _ in 0..n {
                sets.push(d.u32s()?);
            }
            Some(sets)
        }
        x => return Err(CheckpointError::Corrupt(format!("bad option tag {x}"))),
    };
    let hgn_losses = d.f32s()?;
    let sup_losses = d.f32s()?;
    let val_rmse = d.f32s()?;
    let n_rounds = d.len()?;
    let mut te_rounds = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        let round = d.u64()? as usize;
        let precision = d.f32s()?;
        let n_sets = d.len()?;
        let mut sample_terms = Vec::with_capacity(n_sets);
        for _ in 0..n_sets {
            let n_terms = d.len()?;
            let mut terms = Vec::with_capacity(n_terms);
            for _ in 0..n_terms {
                terms.push(d.str()?);
            }
            sample_terms.push(terms);
        }
        te_rounds.push(TeRound {
            round,
            precision,
            sample_terms,
        });
    }
    let skipped = d.u64()? as usize;
    let rollbacks = d.u64()? as usize;
    let graph_fingerprint = d.u64()?;
    let cache_stamp = d.u64()?;
    let data_lanes = d.u64()?;
    let phase = d.u64()?;
    let ca_done = d.u64()?;
    Ok(TrainState {
        config_json,
        outer,
        mini,
        tot,
        sup_tot,
        best_val,
        opt_lr,
        opt_steps,
        ca_lr,
        ca_steps,
        rng_words,
        params,
        best_params,
        te_term_sets,
        report: TrainReport {
            hgn_losses,
            sup_losses,
            val_rmse,
            te_rounds,
            skipped,
            rollbacks,
        },
        graph_fingerprint,
        cache_stamp,
        data_lanes,
        phase,
        ca_done,
    })
}

/// Serializes a [`TrainState`] into complete snapshot-file bytes:
/// `magic | version | payload_len | fnv1a(payload) | payload`.
pub fn encode_checkpoint(state: &TrainState) -> Vec<u8> {
    let payload = encode_payload(state);
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates and decodes snapshot-file bytes produced by
/// [`encode_checkpoint`]. Torn, truncated, or bit-flipped files are
/// rejected with [`CheckpointError::Corrupt`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<TrainState, CheckpointError> {
    let truncated = || CheckpointError::Corrupt("file shorter than header".into());
    let header_bytes = |lo: usize, hi: usize| bytes.get(lo..hi).ok_or_else(truncated);
    let header_u64 = |lo: usize| -> Result<u64, CheckpointError> {
        let b: [u8; 8] = header_bytes(lo, lo + 8)?
            .try_into()
            .map_err(|_| truncated())?;
        Ok(u64::from_le_bytes(b))
    };
    if header_bytes(0, 4)? != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let version_bytes: [u8; 4] = header_bytes(4, 8)?.try_into().map_err(|_| truncated())?;
    let version = u32::from_le_bytes(version_bytes);
    if version != VERSION {
        return Err(CheckpointError::Corrupt(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    let len = header_u64(8)? as usize;
    let sum = header_u64(16)?;
    let payload = bytes.get(24..).ok_or_else(truncated)?;
    if payload.len() != len {
        return Err(CheckpointError::Corrupt(format!(
            "payload length {} != header length {len}",
            payload.len()
        )));
    }
    if fnv1a(payload) != sum {
        return Err(CheckpointError::Corrupt("checksum mismatch".into()));
    }
    decode_payload(payload)
}

// -------------------------------------------------------------------
// Checkpoint manager.
// -------------------------------------------------------------------

/// Owns snapshot persistence for one training run: an always-available
/// in-memory copy of the last good snapshot (the rollback target), plus
/// optional atomic on-disk persistence with one `.prev` generation.
#[derive(Debug, Default)]
pub struct CheckpointManager {
    path: Option<PathBuf>,
    /// Encoded bytes of the last good snapshot.
    last: Option<Vec<u8>>,
}

impl CheckpointManager {
    pub fn new(path: Option<PathBuf>) -> Self {
        CheckpointManager { path, last: None }
    }

    /// True once at least one snapshot has been captured.
    pub fn has_snapshot(&self) -> bool {
        self.last.is_some()
    }

    /// Captures an in-memory-only snapshot (no disk write, no fault
    /// accounting) — the run-entry rollback target.
    pub fn set_baseline(&mut self, state: &TrainState) {
        self.last = Some(encode_checkpoint(state));
    }

    /// Decodes the in-memory snapshot (the rollback target).
    pub fn last_state(&self) -> Result<TrainState, CheckpointError> {
        let bytes = self.last.as_ref().ok_or(CheckpointError::Missing)?;
        decode_checkpoint(bytes)
    }

    /// Captures a snapshot: always into memory, and atomically onto disk
    /// when a path is configured (temp-file + rename, previous snapshot
    /// rotated to `.prev`). An injected torn-write fault leaves a
    /// truncated file on disk — simulating a writer that crashed
    /// mid-stream — without updating the in-memory copy.
    pub fn save(
        &mut self,
        state: &TrainState,
        faults: &mut FaultPlan,
    ) -> Result<(), CheckpointError> {
        let bytes = encode_checkpoint(state);
        if faults.torn_save() {
            if let Some(path) = &self.path {
                rotate_to_prev(path)?;
                // Deliberately non-atomic, deliberately truncated: the
                // checksum must catch this on load.
                let torn = bytes.get(..bytes.len() / 2).unwrap_or(&bytes);
                std::fs::write(path, torn).map_err(|e| CheckpointError::Io(e.to_string()))?;
            }
            return Ok(());
        }
        if let Some(path) = &self.path {
            write_atomic(path, &bytes)?;
        }
        self.last = Some(bytes);
        Ok(())
    }

    /// Loads the newest valid snapshot from disk: the current file, or the
    /// `.prev` generation when the current one is missing or corrupt. The
    /// loaded bytes become the in-memory rollback target.
    pub fn load_latest(&mut self) -> Result<TrainState, CheckpointError> {
        let path = self.path.clone().ok_or(CheckpointError::Missing)?;
        let mut last_err = CheckpointError::Missing;
        for candidate in [path.clone(), prev_path(&path)] {
            match std::fs::read(&candidate) {
                Ok(bytes) => match decode_checkpoint(&bytes) {
                    Ok(state) => {
                        self.last = Some(bytes);
                        return Ok(state);
                    }
                    Err(e) => last_err = e,
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => last_err = CheckpointError::Io(e.to_string()),
            }
        }
        Err(last_err)
    }
}

fn prev_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".prev");
    PathBuf::from(os)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

fn rotate_to_prev(path: &Path) -> Result<(), CheckpointError> {
    if path.exists() {
        std::fs::rename(path, prev_path(path)).map_err(|e| CheckpointError::Io(e.to_string()))?;
    }
    Ok(())
}

/// Temp-file + fsync + rename; the destination is either the old snapshot
/// or the complete new one at every instant, never a torn mix.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = tmp_path(path);
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp).map_err(|e| CheckpointError::Io(e.to_string()))?;
        f.write_all(bytes)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        f.sync_all()
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
    }
    rotate_to_prev(path)?;
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
}

// -------------------------------------------------------------------
// Fingerprints (cross-process bitwise comparison).
// -------------------------------------------------------------------

/// FNV-1a fingerprint of a parameter store: names, shapes, and the exact
/// bit patterns of values and Adam moments. Equal fingerprints across
/// processes ⇒ bitwise-equal training state.
pub fn params_fingerprint(params: &Params) -> u64 {
    let mut e = Enc::new();
    encode_snaps(&mut e, &snapshot_params(params));
    fnv1a(&e.buf)
}

/// FNV-1a fingerprint of a training report's numeric trace (loss curves,
/// validation RMSE, recovery counters) — bit patterns, not rounded text.
pub fn report_fingerprint(report: &TrainReport) -> u64 {
    let mut e = Enc::new();
    e.f32s(&report.hgn_losses);
    e.f32s(&report.sup_losses);
    e.f32s(&report.val_rmse);
    e.u64(report.te_rounds.len() as u64);
    for t in &report.te_rounds {
        e.u64(t.round as u64);
        e.f32s(&t.precision);
    }
    e.u64(report.skipped as u64);
    e.u64(report.rollbacks as u64);
    fnv1a(&e.buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_state() -> TrainState {
        TrainState {
            config_json: "{\"dim\":8}".into(),
            outer: 2,
            mini: 3,
            tot: 1.25,
            sup_tot: 0.5,
            best_val: 0.75,
            opt_lr: 3e-3,
            opt_steps: 27,
            ca_lr: 1e-3,
            ca_steps: 6,
            rng_words: std::array::from_fn(|i| i as u32 * 0x9E37),
            params: vec![ParamSnap {
                name: "w".into(),
                rows: 2,
                cols: 2,
                value: vec![1.0, -2.0, 3.5, f32::MIN_POSITIVE],
                m: vec![0.1; 4],
                v: vec![0.2; 4],
            }],
            best_params: Some(vec![ValueSnap {
                name: "w".into(),
                rows: 2,
                cols: 2,
                value: vec![0.0; 4],
            }]),
            te_term_sets: Some(vec![vec![1, 5, 9], vec![], vec![2]]),
            report: TrainReport {
                hgn_losses: vec![3.0, 2.0],
                sup_losses: vec![2.5, 1.5],
                val_rmse: vec![1.1],
                te_rounds: vec![TeRound {
                    round: 0,
                    precision: vec![0.5, 0.25],
                    sample_terms: vec![vec!["graph".into(), "neural".into()], vec![]],
                }],
                skipped: 1,
                rollbacks: 2,
            },
            graph_fingerprint: 0xDEAD_BEEF,
            cache_stamp: 42,
            data_lanes: 1,
            phase: 1,
            ca_done: 5,
        }
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let state = dummy_state();
        let bytes = encode_checkpoint(&state);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn truncation_and_bitflips_are_rejected() {
        let bytes = encode_checkpoint(&dummy_state());
        for cut in [0, 3, 23, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_checkpoint(&bytes[..cut]),
                    Err(CheckpointError::Corrupt(_))
                ),
                "truncation at {cut} must be rejected"
            );
        }
        for flip in [0usize, 5, 20, 30, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "bit flip at byte {flip} must be rejected"
            );
        }
    }

    #[test]
    fn atomic_save_rotates_and_torn_write_falls_back() {
        let dir = std::env::temp_dir().join(format!(
            "catehgn-ckpt-test-{}-{:x}",
            std::process::id(),
            fnv1a(b"atomic_save_rotates")
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let mut mgr = CheckpointManager::new(Some(path.clone()));
        let mut faults = FaultPlan::new(7, &[Fault::TornCheckpointWrite { ordinal: 2 }]);

        let mut first = dummy_state();
        first.outer = 0;
        mgr.save(&first, &mut faults).unwrap();
        let mut second = dummy_state();
        second.outer = 1;
        // Save #2 is torn: current file ends up truncated on disk.
        mgr.save(&second, &mut faults).unwrap();
        assert!(faults.exhausted());

        // The in-memory rollback target still holds the last good state.
        assert_eq!(mgr.last_state().unwrap().outer, 0);
        // A fresh process resuming from disk rejects the torn current file
        // by checksum and falls back to the rotated previous snapshot.
        let mut fresh = CheckpointManager::new(Some(path.clone()));
        let loaded = fresh.load_latest().unwrap();
        assert_eq!(loaded, first);

        // A clean save #3 restores normal rotation.
        mgr.save(&second, &mut faults).unwrap();
        let mut fresh2 = CheckpointManager::new(Some(path));
        assert_eq!(fresh2.load_latest().unwrap().outer, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manual_shutdown_tokens_are_independent_and_sticky() {
        let a = ShutdownToken::manual();
        let b = ShutdownToken::manual();
        assert!(!a.requested() && !b.requested());
        a.trigger();
        assert!(a.requested(), "trigger must set the flag");
        assert!(!b.requested(), "manual tokens must not share state");
        let a2 = a.clone();
        assert!(a2.requested(), "clones observe the same flag");
        a.trigger();
        assert!(a.requested(), "the flag is sticky");
    }

    #[test]
    fn fault_plan_fires_each_fault_once() {
        let mut plan = FaultPlan::new(
            3,
            &[
                Fault::PoisonBatch { step: 2 },
                Fault::PoisonBatch { step: 2 },
            ],
        );
        let mut labels = [1.0f32, 2.0];
        assert!(!plan.poison_batch(1, &mut labels));
        assert!(plan.poison_batch(2, &mut labels));
        assert!(labels.iter().all(|x| x.is_nan()));
        // The duplicate armed fault fires on the replay; then the plan is dry.
        labels = [1.0, 2.0];
        assert!(plan.poison_batch(2, &mut labels));
        assert!(!plan.poison_batch(2, &mut labels));
        assert!(plan.exhausted());
    }
}
