//! Cross-crate integration tests: the full pipeline from world generation
//! through training to prediction and case studies, at test-tiny scale.

use baselines::{mean_predictor_rmse, CitationModel, GnnConfig};
use catehgn::{train_model, Ablation, CateHgn, ModelConfig};
use dblp_sim::{Dataset, DatasetStats, WorldConfig};
use eval::{rmse, run_catehgn_variant, ExperimentConfig, Scale};

fn tiny_dataset() -> Dataset {
    Dataset::full(&WorldConfig::tiny(), 16)
}

fn tiny_model_cfg(ds: &Dataset) -> ModelConfig {
    ModelConfig {
        dim: 16,
        n_clusters: ds.world.config.n_domains + 1,
        batch_size: 64,
        mini_iters: 10,
        outer_iters: 5,
        heads_node: 2,
        heads_link: 2,
        kappa: 15,
        ..ModelConfig::default()
    }
}

#[test]
fn full_pipeline_beats_mean_predictor() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg(&ds);
    let (preds, model) = run_catehgn_variant(&ds, &cfg, Ablation::default());
    let truth = ds.labels_of(&ds.split.test);
    let r = rmse(&preds, &truth);
    let floor = mean_predictor_rmse(&ds, &ds.split.test);
    assert!(r < floor, "CATE-HGN {r} must beat the mean predictor {floor}");
    assert!(model.params.all_finite());
}

#[test]
fn all_three_variants_order_sanely() {
    // At tiny scale exact ordering is noisy, but every variant must beat
    // the mean predictor and produce finite predictions.
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg(&ds);
    let truth = ds.labels_of(&ds.split.test);
    let floor = mean_predictor_rmse(&ds, &ds.split.test);
    for ab in [Ablation::hgn_only(), Ablation::ca_hgn(), Ablation::default()] {
        let (preds, _) = run_catehgn_variant(&ds, &cfg, ab);
        let r = rmse(&preds, &truth);
        assert!(r.is_finite());
        assert!(r < 1.2 * floor, "variant rmse {r} vs floor {floor}");
    }
}

#[test]
fn every_baseline_runs_end_to_end() {
    let ds = tiny_dataset();
    let gnn = GnnConfig { dim: 16, steps: 20, batch_size: 32, ..GnnConfig::default() };
    let models = baselines::all_baselines(&ds, &gnn);
    assert_eq!(models.len(), 12, "all twelve Table II baselines");
    let expected = [
        "BERT",
        "GAT",
        "CCP",
        "CPDF",
        "metapath2vec",
        "hin2vec",
        "R-GCN",
        "HAN",
        "HetGNN",
        "HGT",
        "MAGNN",
        "HGCN",
    ];
    for (mut m, want) in models.into_iter().zip(expected) {
        assert_eq!(m.name(), want);
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len(), "{want}");
        assert!(preds.iter().all(|p| p.is_finite()), "{want} produced NaNs");
    }
}

#[test]
fn table1_stats_scale_with_world() {
    let small = DatasetStats::of(&Dataset::full(&WorldConfig::tiny(), 8));
    let mut bigger_cfg = WorldConfig::tiny();
    bigger_cfg.n_papers *= 2;
    let big = DatasetStats::of(&Dataset::full(&bigger_cfg, 8));
    assert_eq!(big.n_papers, 2 * small.n_papers);
    assert!(big.n_links > small.n_links);
}

#[test]
fn text_only_model_is_variant_invariant_but_graph_models_are_not() {
    // The DBLP-random signature: text-only predictions identical, while a
    // term-link-consuming GNN's differ.
    let cfg = WorldConfig::tiny();
    let full = Dataset::full(&cfg, 16);
    let random = Dataset::random(&cfg, 16);
    let mut bert1 = baselines::BertRegressor::new(16, 60, 5);
    bert1.fit(&full);
    let mut bert2 = baselines::BertRegressor::new(16, 60, 5);
    bert2.fit(&random);
    assert_eq!(
        bert1.predict(&full, &full.split.test),
        bert2.predict(&random, &random.split.test)
    );
    let gnn = GnnConfig { dim: 16, steps: 15, batch_size: 32, ..GnnConfig::default() };
    let mut r1 = baselines::Rgcn::new(gnn.clone(), full.features.cols(), 7);
    r1.fit(&full);
    let mut r2 = baselines::Rgcn::new(gnn, random.features.cols(), 7);
    r2.fit(&random);
    assert_ne!(
        r1.predict(&full, &full.split.test),
        r2.predict(&random, &random.split.test)
    );
}

#[test]
fn cate_hgn_is_bitwise_invariant_to_term_link_randomisation() {
    // The paper's strongest Table II claim: CATE-HGN is "not affected at
    // all" by randomised term links, because TE rebuilds them from raw
    // text before any training step.
    let cfg = WorldConfig::tiny();
    let full = Dataset::full(&cfg, 16);
    let random = Dataset::random(&cfg, 16);
    let mcfg = tiny_model_cfg(&full);
    let (p_full, _) = run_catehgn_variant(&full, &mcfg, Ablation::default());
    let (p_random, _) = run_catehgn_variant(&random, &mcfg, Ablation::default());
    assert_eq!(p_full, p_random);
}

#[test]
fn training_is_deterministic_under_fixed_seed() {
    let ds = tiny_dataset();
    let cfg = tiny_model_cfg(&ds);
    let run = || {
        let mut ds2 = ds.clone();
        let mut model = CateHgn::new(
            cfg.clone(),
            ds2.features.cols(),
            ds2.graph.schema().num_node_types(),
            ds2.graph.schema().num_link_types(),
        );
        train_model(&mut model, &mut ds2).unwrap();
        let seeds = ds2.paper_nodes_of(&ds2.split.test);
        model.predict(&ds2.graph, &ds2.features, &seeds, 1)
    };
    assert_eq!(run(), run());
}

#[test]
fn experiment_scales_build() {
    for scale in [Scale::Tiny, Scale::Small] {
        let cfg = ExperimentConfig::at_scale(scale);
        let (full, single, random) = eval::build_datasets(&cfg);
        assert!(full.n_papers() > 0);
        assert!(single.n_papers() > 0);
        assert_eq!(random.n_papers(), full.n_papers());
    }
}

#[test]
fn case_study_lists_prestigious_domain_matched_authors() {
    // The 160-paper tiny world is too small for a meaningful Table III;
    // use a 400-paper world (still seconds to train).
    let world = WorldConfig { n_papers: 400, n_authors: 200, ..WorldConfig::tiny() };
    let ds = Dataset::full(&world, 16);
    let cfg = tiny_model_cfg(&ds);
    let (_, model) = run_catehgn_variant(&ds, &cfg, Ablation::default());
    let cs = catehgn::case_study(&model, &ds, 5);
    let acc = eval::score_case_study(&cs, &ds, &[0, 1, 2]);
    // The listed authors should be above median prestige and mostly listed
    // under a domain they actually work in.
    assert!(
        acc.author_prestige_percentile > 0.5,
        "top-listed authors at percentile {}",
        acc.author_prestige_percentile
    );
    assert!(
        acc.author_domain_match > 0.3,
        "author-domain match {}",
        acc.author_domain_match
    );
}
