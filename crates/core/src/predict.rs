//! Case-study readouts (Table III and Figure 5): top-impact authors,
//! venues, and terms grouped by learned research domain.

use crate::model::CateHgn;
use dblp_sim::Dataset;
use hetgraph::NodeId;

/// One row of a Table-III-style list.
#[derive(Clone, Debug)]
pub struct RankedNode {
    pub name: String,
    pub node: NodeId,
    pub impact: f32,
}

/// The Table III case-study output: per cluster, the top-impact authors,
/// venues, and terms as ranked by the model's impact regressor applied to
/// every node type in the one shared embedding space.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    pub authors: Vec<Vec<RankedNode>>,
    pub venues: Vec<Vec<RankedNode>>,
    pub terms: Vec<Vec<RankedNode>>,
}

/// Ranks every node of one list by predicted impact within its assigned
/// cluster, keeping the top `top_n` per cluster.
fn rank_nodes(
    model: &CateHgn,
    ds: &Dataset,
    nodes: &[NodeId],
    names: impl Fn(usize) -> String,
    top_n: usize,
) -> Vec<Vec<RankedNode>> {
    let readout = model.impact_and_cluster(&ds.graph, &ds.features, nodes, model.cfg.seed);
    let k = model.cfg.n_clusters;
    let mut per_cluster: Vec<Vec<RankedNode>> = vec![Vec::new(); k];
    for (i, (&node, (impact, cluster))) in nodes.iter().zip(readout).enumerate() {
        per_cluster[cluster.min(k - 1)].push(RankedNode {
            name: names(i),
            node,
            impact,
        });
    }
    for group in &mut per_cluster {
        // Deterministic total order: equal or NaN impacts can never
        // reorder output across runs (node id breaks ties).
        group.sort_by(|a, b| b.impact.total_cmp(&a.impact).then(a.node.0.cmp(&b.node.0)));
        group.truncate(top_n);
    }
    per_cluster
}

/// Builds the full Table III case study from a trained model.
pub fn case_study(model: &CateHgn, ds: &Dataset, top_n: usize) -> CaseStudy {
    let author_names: Vec<String> = {
        // Author nodes map positionally onto the used-author list; recover
        // names through the world profiles referenced by the papers.
        let mut used: Vec<usize> = ds
            .papers
            .iter()
            .flat_map(|p| p.authors.iter().copied())
            .collect();
        used.sort_unstable();
        used.dedup();
        used.iter()
            .map(|&a| ds.world.authors[a].name.clone())
            .collect()
    };
    let venue_names: Vec<String> = {
        let mut used: Vec<usize> = ds.papers.iter().map(|p| p.venue).collect();
        used.sort_unstable();
        used.dedup();
        used.iter()
            .map(|&v| ds.world.venues[v].name.clone())
            .collect()
    };
    CaseStudy {
        authors: rank_nodes(
            model,
            ds,
            &ds.author_nodes,
            |i| author_names[i].clone(),
            top_n,
        ),
        venues: rank_nodes(
            model,
            ds,
            &ds.venue_nodes,
            |i| venue_names[i].clone(),
            top_n,
        ),
        terms: rank_nodes(
            model,
            ds,
            &ds.term_nodes,
            |i| ds.vocab.token(textmine::TokenId(i as u32)).to_string(),
            top_n,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use dblp_sim::WorldConfig;

    #[test]
    fn case_study_shape_and_ordering() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let model = CateHgn::new(
            ModelConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        let cs = case_study(&model, &ds, 5);
        assert_eq!(cs.authors.len(), model.cfg.n_clusters);
        assert_eq!(cs.venues.len(), model.cfg.n_clusters);
        assert_eq!(cs.terms.len(), model.cfg.n_clusters);
        let total_authors: usize = cs.authors.iter().map(Vec::len).sum();
        assert!(total_authors > 0);
        for group in cs.authors.iter().chain(&cs.venues).chain(&cs.terms) {
            assert!(group.len() <= 5);
            for pair in group.windows(2) {
                assert!(pair[0].impact >= pair[1].impact, "ranked descending");
            }
        }
    }
}
