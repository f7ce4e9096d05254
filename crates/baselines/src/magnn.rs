//! MAGNN (Fu et al., WWW 2020): meta-path aggregated GNN. Unlike HAN,
//! MAGNN encodes whole meta-path *instances* — including the intermediate
//! nodes — with an instance encoder (the "MAGNN-mean" variant here), then
//! applies intra-meta-path attention over instances and inter-meta-path
//! attention across paths. The model body is [`MetapathModel`]; MAGNN's
//! own part is the instance encoder.

use crate::common::{metapath_neighbors, MetapathModel, PathRows};
use dblp_sim::Dataset;
use hetgraph::LinkTypeId;
use rand::Rng;
use tensor::Tensor;

/// Meta-path-instance attention regressor.
pub type Magnn = MetapathModel<InstanceMeans>;

/// MAGNN's instance rows: the mean of the raw features of every node on
/// the instance (start, intermediate if any, end) — the MAGNN-mean
/// encoder.
#[derive(Debug)]
pub struct InstanceMeans;

impl PathRows for InstanceMeans {
    const NAME: &'static str = "MAGNN";
    const SEED_SALT: u64 = 0xA6;

    fn rows<R: Rng>(
        ds: &Dataset,
        papers: &[usize],
        path: &[LinkTypeId],
        fanout: usize,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>) {
        let mut inst_feats: Vec<f32> = Vec::new();
        let mut seg: Vec<usize> = Vec::new();
        let fdim = ds.features.cols();
        for (pos, &i) in papers.iter().enumerate() {
            let start = ds.paper_nodes[i];
            // Self instance keeps isolated papers covered.
            inst_feats.extend(ds.features.row(start.index()));
            seg.push(pos);
            for (end, mid) in metapath_neighbors(ds, start, path, fanout, rng) {
                let mut mean = ds.features.row(start.index()).to_vec();
                let mut cnt = 1.0f32;
                for (m, &x) in mean.iter_mut().zip(ds.features.row(end.index())) {
                    *m += x;
                }
                cnt += 1.0;
                if let Some(mid) = mid {
                    for (m, &x) in mean.iter_mut().zip(ds.features.row(mid.index())) {
                        *m += x;
                    }
                    cnt += 1.0;
                }
                mean.iter_mut().for_each(|m| *m /= cnt);
                inst_feats.extend(mean);
                seg.push(pos);
            }
        }
        (Tensor::from_vec(seg.len(), fdim, inst_feats), seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{CitationModel, GnnConfig};
    use dblp_sim::WorldConfig;

    #[test]
    fn trains_and_predicts_finite() {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let mut m = Magnn::new(GnnConfig::test_tiny(), ds.features.cols(), 4);
        m.fit(&ds);
        let preds = m.predict(&ds, &ds.split.test);
        assert_eq!(preds.len(), ds.split.test.len());
        assert!(preds.iter().all(|p| p.is_finite()));
    }
}
