//! Domain discovery: the cluster-aware module as an unsupervised research
//! community detector over *all* node types, validated against the
//! generator's ground-truth domains.
//!
//! ```sh
//! cargo run --release --example domain_discovery
//! ```

use catehgn::{case_study, train_model, Ablation, CateHgn, ModelConfig};
use dblp_sim::{Dataset, WorldConfig};
use eval::nmi;

fn main() -> Result<(), catehgn::TrainError> {
    let world = WorldConfig::tiny();
    let mut ds = Dataset::full(&world, 16);
    let cfg = ModelConfig {
        dim: 16,
        n_clusters: world.n_domains,
        batch_size: 64,
        mini_iters: 15,
        outer_iters: 4,
        ablation: Ablation::ca_hgn(), // CA on, TE off: clustering in focus
        ..ModelConfig::default()
    };
    let mut model = CateHgn::new(
        cfg,
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    train_model(&mut model, &mut ds)?;

    // Score the learned venue clustering against ground-truth domains.
    let readout =
        model.impact_and_cluster(&ds.graph, &ds.features, &ds.venue_nodes, 7);
    let mut used: Vec<usize> = ds.papers.iter().map(|p| p.venue).collect();
    used.sort_unstable();
    used.dedup();
    let truth: Vec<usize> = used.iter().map(|&v| ds.world.venues[v].domain).collect();
    let learned: Vec<usize> = readout.iter().map(|(_, c)| *c).collect();
    println!("venue clustering NMI vs ground-truth domains: {:.3}", nmi(&learned, &truth));

    // Show the Table-III-style listing for the first two domains.
    let cs = case_study(&model, &ds, 5);
    for k in 0..2 {
        println!("-- cluster {k} ({}) --", ds.world.config.domain_name(k));
        for r in &cs.venues[k] {
            println!("   venue {:<16} impact {:.2}", r.name, r.impact);
        }
    }
    Ok(())
}
