//! Figure 4(a): component ablations of CATE-HGN, and Figure 4(b,c):
//! hyper-parameter sensitivity sweeps over the cluster count `K` and the
//! relevant-term cut-off `kappa`.

use crate::harness::{clusters_for, run_catehgn_variant, ExperimentConfig};
use crate::metrics::rmse;
use catehgn::{Ablation, Composition, ModelConfig};
use dblp_sim::Dataset;

/// One ablation bar: the variant label and its test RMSE.
#[derive(Clone, Debug)]
pub struct AblationBar {
    pub group: String,
    pub variant: String,
    pub rmse: f32,
}

/// The Fig. 4(a) variant grid, matching the paper's three bar groups.
pub fn ablation_variants() -> Vec<(&'static str, &'static str, ModelConfig)> {
    let base = ModelConfig::default;
    let mut out = Vec::new();
    // HGN group (CA/TE off throughout so the HGN deltas are isolated).
    let hgn = |f: fn(&mut ModelConfig)| {
        let mut c = base();
        c.ablation = Ablation::hgn_only();
        f(&mut c);
        c
    };
    out.push(("HGN", "comp-sub", hgn(|c| c.composition = Composition::Sub)));
    out.push(("HGN", "comp-mult", hgn(|c| c.composition = Composition::Mult)));
    out.push(("HGN", "no-MI", hgn(|c| c.ablation.mi = false)));
    out.push(("HGN", "no-attn", hgn(|c| c.ablation.attention = false)));
    out.push(("HGN", "full", hgn(|_| {})));
    // CA group.
    let ca = |f: fn(&mut Ablation)| {
        let mut c = base();
        c.ablation = Ablation::ca_hgn();
        f(&mut c.ablation);
        c
    };
    out.push(("CA-HGN", "no-self-train", ca(|a| a.ca_self_training = false)));
    out.push(("CA-HGN", "no-consistency", ca(|a| a.ca_consistency = false)));
    out.push(("CA-HGN", "no-disparity", ca(|a| a.ca_disparity = false)));
    out.push(("CA-HGN", "full", ca(|_| {})));
    // TE group.
    let te = |f: fn(&mut Ablation)| {
        let mut c = base();
        f(&mut c.ablation);
        c
    };
    out.push(("CATE-HGN", "no-init", te(|a| a.te_init = false)));
    out.push(("CATE-HGN", "no-tfidf", te(|a| a.te_tfidf = false)));
    out.push(("CATE-HGN", "no-iterative", te(|a| a.te_iterative = false)));
    out.push(("CATE-HGN", "full", te(|_| {})));
    out
}

/// Runs the Fig. 4(a) study on one dataset.
pub fn run_ablation(cfg: &ExperimentConfig, ds: &Dataset, verbose: bool) -> Vec<AblationBar> {
    let truth = ds.labels_of(&ds.split.test);
    ablation_variants()
        .into_iter()
        .map(|(group, variant, var_cfg)| {
            // Keep the experiment's scale knobs, take the variant's
            // composition + ablation flags.
            let merged = ModelConfig {
                composition: var_cfg.composition,
                ablation: var_cfg.ablation,
                ..cfg.model.clone()
            };
            let (preds, _) = run_catehgn_variant(ds, &merged, merged.ablation);
            let r = rmse(&preds, &truth);
            if verbose {
                eprintln!("[fig4a] {group}/{variant}: RMSE {r:.4}");
            }
            AblationBar { group: group.into(), variant: variant.into(), rmse: r }
        })
        .collect()
}

/// One point of a hyper-parameter sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The swept value; for `K`, the count the run trained with.
    pub value: usize,
    pub rmse: f32,
}

/// Fig. 4(b): sweep the cluster count `K`. Each point records the `K` its
/// run trained with: a request above the dataset's domains + 1 is clamped
/// to it, so two requests can land on the same point.
pub fn sweep_clusters(
    cfg: &ExperimentConfig,
    ds: &Dataset,
    ks: &[usize],
    verbose: bool,
) -> Vec<SweepPoint> {
    let truth = ds.labels_of(&ds.split.test);
    ks.iter()
        .map(|&k| {
            let merged = ModelConfig { n_clusters: k, ..cfg.model.clone() };
            let (preds, _) = run_catehgn_variant(ds, &merged, merged.ablation);
            let r = rmse(&preds, &truth);
            let used = clusters_for(ds, k);
            if verbose {
                eprintln!("[fig4b] K={used} (requested {k}): RMSE {r:.4}");
            }
            SweepPoint { value: used, rmse: r }
        })
        .collect()
}

/// Fig. 4(c): sweep the relevant-term cut-off `kappa`.
pub fn sweep_kappa(
    cfg: &ExperimentConfig,
    ds: &Dataset,
    kappas: &[usize],
    verbose: bool,
) -> Vec<SweepPoint> {
    let truth = ds.labels_of(&ds.split.test);
    kappas
        .iter()
        .map(|&kappa| {
            let merged = ModelConfig { kappa, ..cfg.model.clone() };
            let (preds, _) = run_catehgn_variant(ds, &merged, merged.ablation);
            let r = rmse(&preds, &truth);
            if verbose {
                eprintln!("[fig4c] kappa={kappa}: RMSE {r:.4}");
            }
            SweepPoint { value: kappa, rmse: r }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_grid_matches_figure_4a() {
        let v = ablation_variants();
        assert_eq!(v.len(), 13);
        assert_eq!(v.iter().filter(|(g, _, _)| *g == "HGN").count(), 5);
        assert_eq!(v.iter().filter(|(g, _, _)| *g == "CA-HGN").count(), 4);
        assert_eq!(v.iter().filter(|(g, _, _)| *g == "CATE-HGN").count(), 4);
        // Each group ends in its full model.
        for g in ["HGN", "CA-HGN", "CATE-HGN"] {
            let last = v.iter().rfind(|(gr, _, _)| *gr == g).unwrap();
            assert_eq!(last.1, "full");
        }
        // HGN rows must not enable CA or TE.
        for (g, _, c) in &v {
            if *g == "HGN" {
                assert!(!c.ablation.ca && !c.ablation.te);
            }
            if *g == "CA-HGN" {
                assert!(c.ablation.ca && !c.ablation.te);
            }
            if *g == "CATE-HGN" {
                assert!(c.ablation.ca && c.ablation.te);
            }
        }
    }
}

serde::impl_serde_struct!(AblationBar { group, variant, rmse });
serde::impl_serde_struct!(SweepPoint { value, rmse });
