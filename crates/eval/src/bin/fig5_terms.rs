//! Regenerates Figure 5: adaptive quality-term mining across training
//! rounds, scored as precision against the generator's planted quality
//! terms.

use catehgn::{train_model, CateHgn, ModelConfig};
use eval::{fig5_trace, out_dir_from_args, write_json, ExperimentConfig, Scale};

fn main() -> Result<(), catehgn::TrainError> {
    let scale = Scale::from_args();
    let cfg = ExperimentConfig::at_scale(scale);
    let mut ds = dblp_sim::Dataset::full(&cfg.world, cfg.feat_dim);
    let model_cfg = ModelConfig {
        n_clusters: cfg.model.n_clusters.min(ds.world.config.n_domains + 1),
        ..cfg.model.clone()
    };
    let mut model = CateHgn::new(
        model_cfg,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    let report = train_model(&mut model, &mut ds)?;
    let trace = fig5_trace(&report, ds.world.config.n_domains);
    println!("Figure 5 — adaptive term mining on {} ({scale:?} scale)", ds.name);
    for p in &trace {
        println!(
            "round {:<3} mean precision {:.3}   e.g. data-domain terms: {:?}",
            p.round,
            p.mean_precision,
            p.sample_terms.first().map(|v| &v[..v.len().min(5)]).unwrap_or(&[])
        );
    }
    if let Some(dir) = out_dir_from_args() {
        write_json(&dir, "fig5", &trace);
    }
    Ok(())
}
