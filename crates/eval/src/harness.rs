//! Experiment harness: builds the three dataset variants, trains every
//! compared system, and regenerates the paper's tables and figures.

use crate::metrics::{paired_ttest_sq_err, rmse};
use baselines::{all_baselines, GnnConfig};
use catehgn::{train_model, Ablation, CateHgn, ModelConfig};
use dblp_sim::{Dataset, WorldConfig};

/// Scale presets for the harness. `Small` reproduces the result shapes in
/// minutes on a laptop; `Full` uses the DESIGN.md reference sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Small,
    Full,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Reads `--scale <tiny|small|full>` from argv, defaulting to `Small`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--scale")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| Scale::parse(s))
            .unwrap_or(Scale::Small)
    }
}

/// Everything an experiment needs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub world: WorldConfig,
    pub feat_dim: usize,
    pub gnn: GnnConfig,
    pub model: ModelConfig,
}

impl ExperimentConfig {
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => ExperimentConfig {
                world: WorldConfig::tiny(),
                feat_dim: 16,
                gnn: GnnConfig { dim: 16, steps: 60, batch_size: 64, ..GnnConfig::default() },
                model: ModelConfig {
                    dim: 16,
                    batch_size: 64,
                    mini_iters: 12,
                    outer_iters: 4,
                    ca_iters: 3,
                    heads_node: 2,
                    heads_link: 2,
                    n_clusters: 4,
                    kappa: 20,
                    ..ModelConfig::default()
                },
            },
            Scale::Small => ExperimentConfig {
                world: WorldConfig::small(),
                feat_dim: 32,
                gnn: GnnConfig::default(),
                model: ModelConfig::default(),
            },
            Scale::Full => ExperimentConfig {
                world: WorldConfig::full(),
                feat_dim: 32,
                gnn: GnnConfig { steps: 240, ..GnnConfig::default() },
                model: ModelConfig::default(),
            },
        }
    }
}

/// Builds the three Table I dataset variants.
pub fn build_datasets(cfg: &ExperimentConfig) -> (Dataset, Dataset, Dataset) {
    let full = Dataset::full(&cfg.world, cfg.feat_dim);
    let single = Dataset::single(&cfg.world, cfg.feat_dim, "data");
    let random = Dataset::random(&cfg.world, cfg.feat_dim);
    (full, single, random)
}

/// The number of clusters usable on a dataset (bounded by its domains+1).
fn clusters_for(ds: &Dataset, requested: usize) -> usize {
    requested.min(ds.world.config.n_domains + 1).max(2)
}

/// Trains one CATE-HGN-family variant on a *clone* of the dataset (TE
/// rewires term links) and returns its test predictions.
///
/// Following the paper's "standard grid-search" protocol (Sec. III-F),
/// two training seeds are run and the one with the better validation RMSE
/// is kept; the test split plays no part in the selection. A seed whose
/// training returns an error is dropped; panics when both are.
pub fn run_catehgn_variant(
    ds: &Dataset,
    base: &ModelConfig,
    ablation: Ablation,
) -> (Vec<f32>, CateHgn) {
    let mut best: Option<(f32, CateHgn, Dataset)> = None;
    for seed_bump in [0u64, 1] {
        let mut ds_run = ds.clone();
        let cfg = ModelConfig {
            ablation,
            n_clusters: clusters_for(&ds_run, base.n_clusters),
            seed: base.seed.wrapping_add(seed_bump),
            ..base.clone()
        };
        let mut model = CateHgn::new(
            cfg,
            ds_run.features.cols(),
            ds_run.graph.schema().num_node_types(),
            ds_run.graph.schema().num_link_types(),
        );
        let Ok(report) = train_model(&mut model, &mut ds_run) else {
            continue;
        };
        let val = report.val_rmse.iter().cloned().fold(f32::INFINITY, f32::min);
        if best.as_ref().is_none_or(|(b, _, _)| val < *b) {
            best = Some((val, model, ds_run));
        }
    }
    let (_, model, ds_run) = best.expect("no training seed finished");
    let seeds = ds_run.paper_nodes_of(&ds_run.split.test);
    let preds = model.predict(&ds_run.graph, &ds_run.features, &seeds, 0xF1AA);
    (preds, model)
}

/// One row of Table II.
#[derive(Clone, Debug)]
pub struct Table2Row {
    pub name: String,
    pub full: f32,
    pub single: f32,
    pub random: f32,
    /// Significance vs the best baseline (only set on CATE-HGN rows).
    pub significant: bool,
}

/// The full Table II result.
#[derive(Clone, Debug)]
pub struct Table2 {
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>10}\n",
            "Algorithm", "full", "single", "random"
        ));
        for r in &self.rows {
            let star = if r.significant { "*" } else { "" };
            out.push_str(&format!(
                "{:<14} {:>9.4}{star} {:>9.4}{star} {:>9.4}{star}\n",
                r.name, r.full, r.single, r.random
            ));
        }
        out
    }

    pub fn row(&self, name: &str) -> Option<&Table2Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the full Table II protocol: 12 baselines + HGN + CA-HGN + CATE-HGN
/// on the three dataset variants.
pub fn run_table2(cfg: &ExperimentConfig, verbose: bool) -> Table2 {
    let (full, single, random) = build_datasets(cfg);
    let datasets = [&full, &single, &random];
    let mut rows: Vec<Table2Row> = Vec::new();
    let mut best_baseline_preds: Vec<Option<Vec<f32>>> = vec![None, None, None];
    let mut best_baseline_rmse = [f32::INFINITY; 3];

    // --- baselines -----------------------------------------------------
    let names: Vec<String> = all_baselines(&full, &cfg.gnn).iter().map(|m| m.name()).collect();
    for name in &names {
        let mut scores = [0.0f32; 3];
        for (d, ds) in datasets.iter().enumerate() {
            let mut model = all_baselines(ds, &cfg.gnn)
                .into_iter()
                .find(|m| &m.name() == name)
                .expect("name from the same registry");
            model.fit(ds);
            let preds = model.predict(ds, &ds.split.test);
            let truth = ds.labels_of(&ds.split.test);
            scores[d] = rmse(&preds, &truth);
            if scores[d] < best_baseline_rmse[d] {
                best_baseline_rmse[d] = scores[d];
                best_baseline_preds[d] = Some(preds);
            }
            if verbose {
                eprintln!("[table2] {name} on {}: RMSE {:.4}", ds.name, scores[d]);
            }
        }
        rows.push(Table2Row {
            name: name.clone(),
            full: scores[0],
            single: scores[1],
            random: scores[2],
            significant: false,
        });
    }

    // --- CATE-HGN family -------------------------------------------------
    for (name, ablation) in [
        ("HGN", Ablation::hgn_only()),
        ("CA-HGN", Ablation::ca_hgn()),
        ("CATE-HGN", Ablation::default()),
    ] {
        let mut scores = [0.0f32; 3];
        let mut significant = true;
        for (d, ds) in datasets.iter().enumerate() {
            let (preds, _) = run_catehgn_variant(ds, &cfg.model, ablation);
            let truth = ds.labels_of(&ds.split.test);
            scores[d] = rmse(&preds, &truth);
            if verbose {
                eprintln!("[table2] {name} on {}: RMSE {:.4}", ds.name, scores[d]);
            }
            if name == "CATE-HGN" {
                if let Some(base) = &best_baseline_preds[d] {
                    let tt = paired_ttest_sq_err(&preds, base, &truth);
                    significant &= tt.significant(0.05) && scores[d] < best_baseline_rmse[d];
                }
            }
        }
        rows.push(Table2Row {
            name: name.into(),
            full: scores[0],
            single: scores[1],
            random: scores[2],
            significant: name == "CATE-HGN" && significant,
        });
    }
    Table2 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn dataset_variants_share_text() {
        let cfg = ExperimentConfig::at_scale(Scale::Tiny);
        let (full, single, random) = build_datasets(&cfg);
        assert_eq!(full.docs, random.docs);
        assert!(single.n_papers() < full.n_papers());
    }

    #[test]
    fn catehgn_variant_runs_at_tiny_scale() {
        let cfg = ExperimentConfig::at_scale(Scale::Tiny);
        let ds = Dataset::full(&cfg.world, cfg.feat_dim);
        let (preds, model) = run_catehgn_variant(&ds, &cfg.model, Ablation::hgn_only());
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(model.params.all_finite());
    }

    #[test]
    fn table2_renders_all_rows() {
        let t = Table2 {
            rows: vec![Table2Row {
                name: "X".into(),
                full: 1.0,
                single: 2.0,
                random: 3.0,
                significant: true,
            }],
        };
        let s = t.render();
        assert!(s.contains("X"));
        assert!(s.contains('*'));
        assert!(t.row("X").is_some());
        assert!(t.row("Y").is_none());
    }
}

serde::impl_serde_struct!(Table2Row { name, full, single, random, significant });
serde::impl_serde_struct!(Table2 { rows });
