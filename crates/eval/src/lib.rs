//! # eval — metrics and the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Runner binary | Module |
//! |---|---|---|
//! | Table I (dataset statistics) | `table1` | [`harness`] |
//! | Table II (RMSE of 15 systems x 3 datasets) | `table2` | [`harness`] |
//! | Fig. 4(a) (component ablations) | `fig4a_ablation` | [`ablation`] |
//! | Fig. 4(b,c) (K and kappa sweeps) | `fig4bc_hparams` | [`ablation`] |
//! | Table III (top-impact case study) | `table3_case` | [`case`] |
//! | Fig. 5 (adaptive term mining) | `fig5_terms` | [`case`] |
//!
//! Every binary accepts `--scale tiny|small|full` (default `small`).
//! Results are printed as the paper's rows and also written as JSON under
//! `results/` when `--out <dir>` is passed.

pub mod ablation;
pub mod case;
pub mod harness;
pub mod metrics;

pub use ablation::{ablation_variants, run_ablation, sweep_clusters, sweep_kappa};
pub use case::{case_study, fig5_trace, render_case_study, score_case_study};
pub use harness::{build_datasets, run_catehgn_variant, run_table2, ExperimentConfig, Scale};
pub use metrics::{nmi, paired_ttest_sq_err, rmse, TTest};

use std::path::PathBuf;

/// Reads `--out <dir>` from argv.
pub fn out_dir_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).map(PathBuf::from)
}

/// Writes a serialisable result as pretty JSON into `dir/name.json`.
pub fn write_json<T: serde::Serialize>(dir: &std::path::Path, name: &str, value: &T) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialise result");
    std::fs::write(&path, json).expect("write result file");
    eprintln!("[eval] wrote {}", path.display());
}
