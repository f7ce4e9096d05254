//! Quickstart: build a synthetic publication network, train CATE-HGN, and
//! predict citations for unseen papers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use catehgn::{train_model, CateHgn, ModelConfig};
use dblp_sim::{Dataset, WorldConfig};

fn main() -> Result<(), catehgn::TrainError> {
    // 1. Generate a publication world: papers, authors, venues, terms,
    //    citation links, and per-year citation labels.
    let world = WorldConfig::tiny();
    let mut ds = Dataset::full(&world, 16);
    println!("dataset: {} ({} papers, {} nodes, {} links)",
        ds.name, ds.n_papers(), ds.graph.num_nodes(), ds.graph.num_links());

    // 2. Configure and train the full CATE-HGN model (HGN + CA + TE).
    let cfg = ModelConfig {
        dim: 16,
        n_clusters: world.n_domains + 1,
        batch_size: 64,
        mini_iters: 15,
        outer_iters: 4,
        ..ModelConfig::cate_hgn()
    };
    let mut model = CateHgn::new(
        cfg,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    println!("model: {} trainable weights", model.num_weights());
    let report = train_model(&mut model, &mut ds)?;
    println!("validation RMSE per round: {:?}", report.val_rmse);

    // 3. Predict average citations-per-year for the held-out test papers.
    let seeds = ds.paper_nodes_of(&ds.split.test);
    let preds = model.predict(&ds.graph, &ds.features, &seeds, 0);
    let truth = ds.labels_of(&ds.split.test);
    let rmse = catehgn::rmse(&preds, &truth);
    let floor = baselines::mean_predictor_rmse(&ds, &ds.split.test);
    println!("test RMSE: {rmse:.3}  (mean-predictor floor: {floor:.3})");
    for (i, &p) in ds.split.test.iter().take(5).zip(preds.iter()) {
        println!("  paper #{i}: predicted {p:.2} cites/yr, actual {:.2}", ds.labels[*i]);
    }
    assert!(rmse < floor, "the trained model must beat the mean predictor");
    Ok(())
}
