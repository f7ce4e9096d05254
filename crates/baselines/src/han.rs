//! HAN (Wang et al., WWW 2019): heterogeneous graph attention network with
//! node-level attention over meta-path-based neighbors and semantic-level
//! attention across meta-paths. Target-node-centric: only papers are
//! embedded; context types exist solely inside the meta-paths — exactly
//! the design limitation Sec. III-C motivates against. The model body is
//! [`MetapathModel`]; HAN's own part is that each meta-path neighbor
//! enters with its features.

use crate::common::{metapath_neighbors, MetapathModel, PathRows};
use dblp_sim::Dataset;
use hetgraph::LinkTypeId;
use rand::Rng;
use tensor::Tensor;

/// Meta-path attention regressor.
pub type Han = MetapathModel<MetapathNeighbours>;

/// HAN's instance rows: the features of each meta-path neighbor.
#[derive(Debug)]
pub struct MetapathNeighbours;

impl PathRows for MetapathNeighbours {
    const NAME: &'static str = "HAN";
    const SEED_SALT: u64 = 0;

    fn rows<R: Rng>(
        ds: &Dataset,
        papers: &[usize],
        path: &[LinkTypeId],
        fanout: usize,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>) {
        // Include the paper itself so isolated papers still get an
        // embedding.
        let mut nbr_rows: Vec<usize> = Vec::new();
        let mut seg: Vec<usize> = Vec::new();
        for (pos, &i) in papers.iter().enumerate() {
            nbr_rows.push(ds.paper_nodes[i].index());
            seg.push(pos);
            for (end, _) in metapath_neighbors(ds, ds.paper_nodes[i], path, fanout, rng) {
                nbr_rows.push(end.index());
                seg.push(pos);
            }
        }
        (ds.features.gather_rows(&nbr_rows), seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{BatchRegressor, CitationModel, GnnConfig};
    use dblp_sim::WorldConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tensor::Graph;

    #[test]
    fn trains_and_predicts_finite() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut m = Han::new(GnnConfig::test_tiny(), ds.features.cols(), 4);
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn semantic_attention_is_a_distribution() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let m = Han::new(GnnConfig::test_tiny(), ds.features.cols(), 4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut g = Graph::new();
        let batch: Vec<usize> = ds.split.train.iter().take(4).copied().collect();
        let _ = m.batch_forward(&mut g, &ds, &batch, &mut rng);
        // The forward ran without shape panics; the softmax invariant is
        // enforced structurally by the per-paper edge softmax.
    }
}
