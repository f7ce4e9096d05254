//! Integration tests for the training resilience subsystem: bitwise
//! checkpoint/resume equivalence (property-tested across halt points and
//! thread counts), and one deterministic injected fault per
//! [`RecoveryPolicy`] arm.

use catehgn::{
    params_fingerprint, report_fingerprint, train_with, CateHgn, CheckpointError, Fault, FaultPlan,
    ModelConfig, NonFiniteSource, RecoveryPolicy, TrainError, TrainOptions, TrainReport,
};
use dblp_sim::{Dataset, WorldConfig};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tensor::{par, Params, Tensor};

/// Serialises access to the process-global tensor thread-count override.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tiny_cfg() -> ModelConfig {
    // Full CATE-HGN (TE + CA + HGN) so resume exercises every piece of
    // state: 2 outer rounds x 4 mini-iterations = 8 checkpointable steps.
    ModelConfig::test_tiny()
}

fn build(cfg: &ModelConfig, pristine: &Dataset) -> (CateHgn, Dataset) {
    let ds = pristine.clone();
    let model = CateHgn::new(
        cfg.clone(),
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    (model, ds)
}

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catehgn-resilience-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.ckpt"))
}

fn cleanup(path: &Path) {
    for suffix in ["", ".prev", ".tmp"] {
        let mut os = path.as_os_str().to_os_string();
        os.push(suffix);
        std::fs::remove_file(PathBuf::from(os)).ok();
    }
}

/// `(params_fingerprint, report_fingerprint, report)` of a finished run.
type RunTrace = (u64, u64, TrainReport);

fn run_uninterrupted(cfg: &ModelConfig, pristine: &Dataset) -> RunTrace {
    let (mut model, mut ds) = build(cfg, pristine);
    let mut opts = TrainOptions::default();
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    (
        params_fingerprint(&model.params),
        report_fingerprint(&report),
        report,
    )
}

fn run_halted_then_resumed(
    cfg: &ModelConfig,
    pristine: &Dataset,
    halt_after: u64,
    path: PathBuf,
) -> RunTrace {
    // Process 1: train until `halt_after` completed steps, then "die".
    {
        let (mut model, mut ds) = build(cfg, pristine);
        let mut opts = TrainOptions {
            checkpoint_path: Some(path.clone()),
            halt_after_steps: Some(halt_after),
            ..TrainOptions::default()
        };
        let partial = train_with(&mut model, &mut ds, &mut opts).unwrap();
        // The partial trace must be a prefix of the rounds completed so far.
        assert!(partial.hgn_losses.len() <= cfg.outer_iters);
    }
    // Process 2: fresh model + dataset, resume from disk, run to the end.
    let (mut model, mut ds) = build(cfg, pristine);
    let mut opts = TrainOptions {
        checkpoint_path: Some(path.clone()),
        resume: true,
        ..TrainOptions::default()
    };
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    cleanup(&path);
    (
        params_fingerprint(&model.params),
        report_fingerprint(&report),
        report,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill the run at a random step, resume from the snapshot in a fresh
    /// "process" (fresh model, fresh dataset, cold caches), and the final
    /// parameters, Adam moments, and full training report are bitwise
    /// identical to the uninterrupted run — at 1 and 4 tensor threads.
    #[test]
    fn resume_reproduces_uninterrupted_run_bitwise(halt_after in 1u64..8) {
        let cfg = tiny_cfg();
        let pristine = Dataset::full(&WorldConfig::tiny(), 8);
        let _guard = THREADS.lock().unwrap();
        for threads in [1usize, 4] {
            par::set_num_threads(threads);
            let reference = run_uninterrupted(&cfg, &pristine);
            let path = ckpt_path(&format!("bitwise-{halt_after}-{threads}"));
            let resumed = run_halted_then_resumed(&cfg, &pristine, halt_after, path);
            prop_assert_eq!(
                &reference, &resumed,
                "halt at step {} with {} threads diverged", halt_after, threads
            );
        }
        par::set_num_threads(0);
    }
}

/// Kill the run inside the CA refinement phase (positions 1..=4 with
/// test_tiny's 2 outer x 2 CA iterations), resume in a fresh "process",
/// and land bitwise on the uninterrupted run. CA-phase snapshots carry
/// `phase = 1`, so resume must skip the already-finished HGN minis and
/// the round epilogue and re-enter the CA loop mid-way.
#[test]
fn ca_phase_resume_reproduces_uninterrupted_run_bitwise() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let _guard = THREADS.lock().unwrap();
    par::set_num_threads(1);
    let reference = run_uninterrupted(&cfg, &pristine);
    for halt_ca in 1..=(cfg.outer_iters * cfg.ca_iters) as u64 {
        let path = ckpt_path(&format!("ca-bitwise-{halt_ca}"));
        {
            let (mut model, mut ds) = build(&cfg, &pristine);
            let mut opts = TrainOptions {
                checkpoint_path: Some(path.clone()),
                halt_after_ca: Some(halt_ca),
                ..TrainOptions::default()
            };
            train_with(&mut model, &mut ds, &mut opts).unwrap();
        }
        let (mut model, mut ds) = build(&cfg, &pristine);
        let mut opts = TrainOptions {
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..TrainOptions::default()
        };
        let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
        cleanup(&path);
        assert_eq!(
            reference,
            (
                params_fingerprint(&model.params),
                report_fingerprint(&report),
                report
            ),
            "halt after CA position {halt_ca} diverged"
        );
    }
    par::set_num_threads(0);
}

/// Graceful shutdown is a first-class halt: a requested shutdown lands
/// one final atomic checkpoint at the next step boundary and returns the
/// partial report cleanly; chained interrupted resumes still finish
/// bitwise-identical to the uninterrupted run.
#[test]
fn shutdown_request_checkpoints_and_resumes_bitwise() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let _guard = THREADS.lock().unwrap();
    par::set_num_threads(1);
    let reference = run_uninterrupted(&cfg, &pristine);
    let path = ckpt_path("shutdown");

    // "Process" 1: shutdown already requested when training starts — the
    // first completed step observes it, snapshots, and returns.
    {
        let (mut model, mut ds) = build(&cfg, &pristine);
        let token = catehgn::ShutdownToken::manual();
        token.trigger();
        let mut opts = TrainOptions {
            checkpoint_path: Some(path.clone()),
            shutdown: Some(token),
            ..TrainOptions::default()
        };
        let partial = train_with(&mut model, &mut ds, &mut opts).unwrap();
        assert!(
            partial.hgn_losses.is_empty(),
            "shutdown at step 1 must return before any round completes"
        );
    }
    // "Process" 2: resume under another immediate shutdown — one more
    // step, one more snapshot, another clean partial return.
    {
        let (mut model, mut ds) = build(&cfg, &pristine);
        let token = catehgn::ShutdownToken::manual();
        token.trigger();
        let mut opts = TrainOptions {
            checkpoint_path: Some(path.clone()),
            resume: true,
            shutdown: Some(token),
            ..TrainOptions::default()
        };
        train_with(&mut model, &mut ds, &mut opts).unwrap();
    }
    // "Process" 3: resume with an un-triggered token and run to the end.
    let (mut model, mut ds) = build(&cfg, &pristine);
    let mut opts = TrainOptions {
        checkpoint_path: Some(path.clone()),
        resume: true,
        shutdown: Some(catehgn::ShutdownToken::manual()),
        ..TrainOptions::default()
    };
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    cleanup(&path);
    assert_eq!(
        reference,
        (
            params_fingerprint(&model.params),
            report_fingerprint(&report),
            report
        ),
        "twice-interrupted run must land bitwise on the uninterrupted run"
    );
    par::set_num_threads(0);
}

#[test]
fn checkpointing_is_observationally_free_on_clean_runs() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let reference = run_uninterrupted(&cfg, &pristine);

    let (mut model, mut ds) = build(&cfg, &pristine);
    let path = ckpt_path("free");
    let mut opts = TrainOptions {
        checkpoint_path: Some(path.clone()),
        checkpoint_every: Some(2),
        policy: RecoveryPolicy::Rollback {
            lr_backoff: 0.5,
            max_retries: 3,
        },
        ..TrainOptions::default()
    };
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    cleanup(&path);
    assert_eq!(
        reference,
        (
            params_fingerprint(&model.params),
            report_fingerprint(&report),
            report
        ),
        "checkpoint capture and guard scans must not perturb a clean run"
    );
}

#[test]
fn abort_policy_reports_the_poisoned_loss() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    let mut opts = TrainOptions {
        faults: FaultPlan::new(11, &[Fault::PoisonBatch { step: 2 }]),
        policy: RecoveryPolicy::Abort,
        ..TrainOptions::default()
    };
    let err = train_with(&mut model, &mut ds, &mut opts).unwrap_err();
    match err {
        TrainError::NonFinite {
            source,
            outer,
            step,
            exhausted,
        } => {
            assert_eq!(source, NonFiniteSource::Loss);
            assert_eq!((outer, step), (0, 2));
            assert_eq!(exhausted, "policy is abort");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
}

#[test]
fn abort_policy_names_the_corrupted_gradient() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    let mut opts = TrainOptions {
        faults: FaultPlan::new(11, &[Fault::NanGradients { step: 1 }]),
        policy: RecoveryPolicy::Abort,
        ..TrainOptions::default()
    };
    let err = train_with(&mut model, &mut ds, &mut opts).unwrap_err();
    match err {
        TrainError::NonFinite {
            source: NonFiniteSource::Gradient { param },
            ..
        } => {
            assert!(
                !param.is_empty(),
                "gradient failure must name the parameter"
            );
        }
        other => panic!("expected gradient NonFinite, got {other:?}"),
    }
}

#[test]
fn skip_batch_drops_the_fault_and_finishes() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    let mut opts = TrainOptions {
        faults: FaultPlan::new(
            5,
            &[
                Fault::PoisonBatch { step: 1 },
                Fault::InfGradients { step: 5 },
            ],
        ),
        policy: RecoveryPolicy::SkipBatch { max_consecutive: 2 },
        ..TrainOptions::default()
    };
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    assert_eq!(report.skipped, 2, "both injected faults should be skipped");
    assert_eq!(report.rollbacks, 0);
    assert_eq!(
        report.hgn_losses.len(),
        cfg.outer_iters,
        "run must complete"
    );
    assert!(
        model.params.all_finite(),
        "skipped faults must not leak into params"
    );
    assert!(opts.faults.exhausted(), "every armed fault must have fired");
}

#[test]
fn skip_batch_aborts_after_consecutive_failures() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    // Three persistent failures of the same mini slot (each retry re-fires
    // the next armed copy) exceed max_consecutive = 2.
    let mut opts = TrainOptions {
        faults: FaultPlan::new(
            5,
            &[
                Fault::PoisonBatch { step: 2 },
                Fault::PoisonBatch { step: 2 },
                Fault::PoisonBatch { step: 2 },
            ],
        ),
        policy: RecoveryPolicy::SkipBatch { max_consecutive: 2 },
        ..TrainOptions::default()
    };
    let err = train_with(&mut model, &mut ds, &mut opts).unwrap_err();
    match err {
        TrainError::NonFinite { exhausted, .. } => {
            assert_eq!(exhausted, "skip-batch limit reached");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
}

#[test]
fn rollback_restores_the_snapshot_and_finishes() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    let mut opts = TrainOptions {
        checkpoint_every: Some(2),
        faults: FaultPlan::new(9, &[Fault::InfGradients { step: 5 }]),
        policy: RecoveryPolicy::Rollback {
            lr_backoff: 0.5,
            max_retries: 2,
        },
        ..TrainOptions::default()
    };
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    assert_eq!(
        report.rollbacks, 1,
        "the single fault should cause one rollback"
    );
    assert_eq!(report.skipped, 0);
    assert_eq!(
        report.hgn_losses.len(),
        cfg.outer_iters,
        "run must complete"
    );
    assert!(report.hgn_losses.iter().all(|l| l.is_finite()));
    assert!(model.params.all_finite());
    assert!(opts.faults.exhausted());
}

#[test]
fn rollback_aborts_when_retries_are_exhausted() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    // Checkpoint every step puts the snapshot immediately before the
    // faulty step, so each rollback replays straight into the next armed
    // copy of the fault: three consecutive failures beat max_retries = 2.
    let mut opts = TrainOptions {
        checkpoint_every: Some(1),
        faults: FaultPlan::new(
            9,
            &[
                Fault::NanGradients { step: 3 },
                Fault::NanGradients { step: 3 },
                Fault::NanGradients { step: 3 },
            ],
        ),
        policy: RecoveryPolicy::Rollback {
            lr_backoff: 0.5,
            max_retries: 2,
        },
        ..TrainOptions::default()
    };
    let err = train_with(&mut model, &mut ds, &mut opts).unwrap_err();
    match err {
        TrainError::NonFinite { exhausted, .. } => {
            assert_eq!(exhausted, "rollback retries exhausted");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
}

/// Recovery does not depend on the thread count: the same fault schedule
/// lands on the same fingerprints at one and at four tensor threads.
#[test]
fn recovery_is_bitwise_across_thread_counts() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    // `(params_fingerprint, report_fingerprint, skipped, rollbacks)`.
    let run = |policy: RecoveryPolicy| {
        let (mut model, mut ds) = build(&cfg, &pristine);
        let mut opts = TrainOptions {
            checkpoint_every: Some(2),
            faults: FaultPlan::new(
                5,
                &[
                    Fault::PoisonBatch { step: 1 },
                    Fault::InfGradients { step: 5 },
                ],
            ),
            policy,
            ..TrainOptions::default()
        };
        let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
        assert!(opts.faults.exhausted(), "every armed fault must have fired");
        (
            params_fingerprint(&model.params),
            report_fingerprint(&report),
            report.skipped,
            report.rollbacks,
        )
    };
    let _guard = THREADS.lock().unwrap();
    for policy in [
        RecoveryPolicy::SkipBatch { max_consecutive: 2 },
        RecoveryPolicy::Rollback {
            lr_backoff: 0.5,
            max_retries: 2,
        },
    ] {
        par::set_num_threads(1);
        let serial = run(policy);
        assert!(serial.2 + serial.3 > 0, "{policy:?}: no recovery fired");
        par::set_num_threads(4);
        assert_eq!(
            serial,
            run(policy),
            "{policy:?}: diverged between 1 and 4 tensor threads"
        );
    }
    par::set_num_threads(0);
}

#[test]
fn torn_checkpoint_write_falls_back_to_previous_snapshot() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let reference = run_uninterrupted(&cfg, &pristine);

    let path = ckpt_path("torn");
    // Process 1: checkpoint every step; the save at step 2 is torn
    // mid-write (truncated file on disk), then the process "dies".
    {
        let (mut model, mut ds) = build(&cfg, &pristine);
        let mut opts = TrainOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: Some(1),
            halt_after_steps: Some(2),
            faults: FaultPlan::new(3, &[Fault::TornCheckpointWrite { ordinal: 2 }]),
            ..TrainOptions::default()
        };
        train_with(&mut model, &mut ds, &mut opts).unwrap();
        assert!(opts.faults.exhausted());
    }
    // Process 2: resume rejects the truncated current file by checksum and
    // restarts from the rotated `.prev` snapshot (step 1) — still landing
    // bitwise on the uninterrupted run.
    let (mut model, mut ds) = build(&cfg, &pristine);
    let mut opts = TrainOptions {
        checkpoint_path: Some(path.clone()),
        resume: true,
        ..TrainOptions::default()
    };
    let report = train_with(&mut model, &mut ds, &mut opts).unwrap();
    cleanup(&path);
    assert_eq!(
        reference,
        (
            params_fingerprint(&model.params),
            report_fingerprint(&report),
            report
        ),
    );
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_config() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let path = ckpt_path("cfg-mismatch");
    {
        let (mut model, mut ds) = build(&cfg, &pristine);
        let mut opts = TrainOptions {
            checkpoint_path: Some(path.clone()),
            halt_after_steps: Some(1),
            ..TrainOptions::default()
        };
        train_with(&mut model, &mut ds, &mut opts).unwrap();
    }
    let mut other = cfg.clone();
    other.lr *= 2.0;
    let (mut model, mut ds) = build(&other, &pristine);
    let mut opts = TrainOptions {
        checkpoint_path: Some(path.clone()),
        resume: true,
        ..TrainOptions::default()
    };
    let err = train_with(&mut model, &mut ds, &mut opts).unwrap_err();
    cleanup(&path);
    assert!(
        matches!(err, TrainError::Checkpoint(CheckpointError::Mismatch(_))),
        "expected config mismatch, got {err:?}"
    );
}

#[test]
fn resume_without_a_checkpoint_reports_missing() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (mut model, mut ds) = build(&cfg, &pristine);
    let path = ckpt_path("nonexistent");
    cleanup(&path);
    let mut opts = TrainOptions {
        checkpoint_path: Some(path),
        resume: true,
        ..TrainOptions::default()
    };
    let err = train_with(&mut model, &mut ds, &mut opts).unwrap_err();
    assert!(matches!(
        err,
        TrainError::Checkpoint(CheckpointError::Missing)
    ));
}

/// A model saved before the HGN layer stored its weights split carries
/// `l{l}.w_a` as one `2d x d` parameter and each attention head as its
/// own `3d x 1` parameter (`l0.a_node.t0.h0`, ..). It holds exactly as
/// many weights as the split layout, so only the positional name and
/// shape check tells them apart: `CateHgn::load` returns a typed
/// mismatch instead of binding the wrong shapes.
#[test]
fn load_rejects_a_model_saved_in_the_concat_layout() {
    let cfg = tiny_cfg();
    let pristine = Dataset::full(&WorldConfig::tiny(), 8);
    let (model, ds) = build(&cfg, &pristine);

    // The same values regrouped into the concat layout, in the old order.
    let mut old = Params::new();
    let mut split = model.params.iter();
    while let Some((_, name, value)) = split.next() {
        let mut next_block = || split.next().expect("a split weight has all its blocks").2;
        if let Some(base) = name.strip_suffix(".phi") {
            // `W_a`: its halves stacked.
            let bottom = next_block();
            let rows: Vec<f32> = [value, bottom]
                .iter()
                .flat_map(|t| t.as_slice().to_vec())
                .collect();
            old.add(base, Tensor::from_vec(2 * value.rows(), value.cols(), rows));
        } else if let Some(base) = name.strip_suffix(".v") {
            // Attention `[A_v, A_e, A_u]`: one `3d x 1` vector per head.
            let blocks = [value, next_block(), next_block()];
            for h in 0..value.cols() {
                let col: Vec<f32> = blocks
                    .iter()
                    .flat_map(|t| (0..t.rows()).map(move |r| t.get(r, h)))
                    .collect();
                old.add(format!("{base}.h{h}"), Tensor::col_vec(col));
            }
        } else {
            old.add(name, value.clone());
        }
    }
    assert!(old
        .iter()
        .any(|(_, name, value)| name == "l0.a_node.t0.h0" && value.shape() == (3 * cfg.dim, 1)));
    assert_eq!(old.num_weights(), model.num_weights());

    let path = ckpt_path("concat-layout").with_extension("json");
    let blob = serde_json::json!({ "config": cfg, "params": old });
    std::fs::write(&path, serde_json::to_string(&blob).unwrap()).unwrap();
    let loaded = CateHgn::load(
        &path,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(loaded, Err(CheckpointError::Mismatch(_))),
        "expected a layout mismatch, got {:?}",
        loaded.err()
    );
}
