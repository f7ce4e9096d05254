//! Dynamic citation prediction — the paper's stated future-work extension
//! (Sec. III-G): predict a paper's per-year citation trajectory, not just
//! its static average, and keep the model fresh with incremental updates
//! as new years become labeled.
//!
//! ```sh
//! cargo run --release --example dynamic_citation
//! ```

use catehgn::{
    rolling_update, train_model, trajectory_rmse, CateHgn, ModelConfig, TemporalHead,
};
use dblp_sim::{Dataset, WorldConfig};

fn main() -> Result<(), catehgn::TrainError> {
    let world = WorldConfig::tiny();
    let mut ds = Dataset::full(&world, 16);
    let cfg = ModelConfig {
        dim: 16,
        n_clusters: world.n_domains + 1,
        batch_size: 64,
        mini_iters: 12,
        outer_iters: 4,
        ..ModelConfig::cate_hgn()
    };
    let mut model = CateHgn::new(
        cfg,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    train_model(&mut model, &mut ds)?;

    // 1. Temporal head: per-year trajectories on top of the frozen base.
    let horizon = 5;
    let mut head = TemporalHead::new(model.cfg.dim, horizon, 11);
    head.fit(&model, &ds, 300, 5e-3, 12);
    let sample: Vec<usize> = ds.split.test.iter().take(3).copied().collect();
    let preds = head.predict(&model, &ds, &sample, 13);
    println!("predicted citation trajectories (cites/yr for years 1..{horizon}):");
    for (&i, traj) in sample.iter().zip(&preds) {
        let shown: Vec<String> = traj.iter().map(|x| format!("{x:.1}")).collect();
        println!("  paper #{i} (static label {:.1}): [{}]", ds.labels[i], shown.join(", "));
    }
    let r = trajectory_rmse(
        &head.predict(&model, &ds, &ds.split.test, 13),
        &ds,
        &ds.split.test,
        horizon,
    );
    println!("trajectory RMSE on the test split: {r:.3}");

    // 2. Incremental deployment loop: 2015's labels arrive, adapt, and
    //    re-evaluate on the later years.
    let (before, after) = rolling_update(&mut model, &ds, 2015, 8, 21);
    println!("rolling update on year 2015: RMSE on later years {before:.3} -> {after:.3}");
    Ok(())
}
