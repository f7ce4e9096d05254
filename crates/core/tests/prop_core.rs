//! Property tests for the CATE-HGN building blocks: soft assignments,
//! target sharpening, masked embeddings, and layer outputs under arbitrary
//! inputs.

use catehgn::ca::{masked_embedding, soft_assign, target_distribution, CaParams};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{softmax_in_place, Graph, Params, Tensor};

fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn soft_assignments_are_row_stochastic(h in small_tensor(6, 4), c in small_tensor(3, 4)) {
        let mut g = Graph::new();
        let hv = g.input(h);
        let cv = g.input(c);
        let q = soft_assign(&mut g, hv, cv);
        for row in g.value(q).rows_iter() {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn nearest_center_gets_the_largest_assignment(
        h in small_tensor(5, 3), c in small_tensor(4, 3)
    ) {
        let mut g = Graph::new();
        let hv = g.input(h.clone());
        let cv = g.input(c.clone());
        let q = soft_assign(&mut g, hv, cv);
        let d = h.pairwise_sq_dists(&c);
        let qv = g.value(q);
        for i in 0..5 {
            let nearest = (0..4)
                .min_by(|&a, &b| d.get(i, a).partial_cmp(&d.get(i, b)).unwrap())
                .unwrap();
            let am = qv.argmax_rows()[i];
            // Ties can flip the argmax, so compare distances instead.
            prop_assert!(d.get(i, am) <= d.get(i, nearest) + 1e-4);
        }
    }

    #[test]
    fn target_distribution_is_stochastic_and_sharper(q_raw in small_tensor(5, 3)) {
        // Build a valid Q by softmaxing arbitrary logits.
        let mut q = q_raw.clone();
        for i in 0..5 {
            softmax_in_place(q.row_mut(i));
        }
        let p = target_distribution(&q);
        let mut q_ent = 0.0f32;
        let mut p_ent = 0.0f32;
        for i in 0..5 {
            let s: f32 = p.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            for j in 0..3 {
                let (qi, pi) = (q.get(i, j).max(1e-9), p.get(i, j).max(1e-9));
                q_ent -= qi * qi.ln();
                p_ent -= pi * pi.ln();
            }
        }
        // Squaring + renormalising cannot increase total entropy by more
        // than the frequency-balancing correction; allow slack for it.
        prop_assert!(p_ent <= q_ent + 0.7, "p_ent {p_ent} vs q_ent {q_ent}");
    }

    #[test]
    fn masked_embedding_is_bounded_by_input(h in small_tensor(4, 5)) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut params = Params::new();
        let ca = CaParams::init(&mut params, 1, 5, 3, &mut rng);
        let mut g = Graph::new();
        let hv = g.input(h.clone());
        // A valid soft assignment.
        let q = g.input(Tensor::from_vec(4, 3, vec![
            0.2, 0.5, 0.3,
            1.0, 0.0, 0.0,
            0.1, 0.1, 0.8,
            1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0,
        ]));
        let hm = masked_embedding(&mut g, &params, hv, q, &ca.masks[0]);
        let out = g.value(hm);
        // Each output entry is a convex combination of gated copies of the
        // input, so |out| <= |h| element-wise.
        for (o, x) in out.as_slice().iter().zip(h.as_slice()) {
            prop_assert!(o.abs() <= x.abs() + 1e-4);
            // Gates are positive, so the sign never flips.
            if x.abs() > 1e-6 {
                prop_assert!(o.signum() == x.signum() || o.abs() < 1e-6);
            }
        }
    }
}

mod end_to_end_props {
    use super::*;
    use catehgn::{CateHgn, ModelConfig};
    use dblp_sim::{Dataset, WorldConfig};
    use hetgraph::sample_blocks;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Forward passes stay finite and correctly shaped for arbitrary
        /// batch compositions and fanouts.
        #[test]
        fn forward_is_total(batch_size in 1usize..24, fanout in 1usize..8, seed in 0u64..50) {
            let ds = Dataset::full(&WorldConfig::tiny(), 8);
            let cfg = ModelConfig { fanout, ..ModelConfig::test_tiny() };
            let model = CateHgn::new(
                cfg,
                ds.features.cols(),
                ds.graph.schema().num_node_types(),
                ds.graph.schema().num_link_types(),
            );
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Mixed-type seeds, possibly duplicated.
            let n = ds.graph.num_nodes() as u32;
            let seeds: Vec<hetgraph::NodeId> = (0..batch_size)
                .map(|i| hetgraph::NodeId((seed as u32 * 31 + i as u32 * 7) % n))
                .collect();
            let blocks = sample_blocks(&ds.graph, &seeds, model.cfg.layers, fanout, &mut rng);
            let mut g = Graph::new();
            let fw = model.forward(&mut g, &ds.graph, &ds.features, &blocks, false);
            for &h in &fw.h_layers {
                prop_assert!(g.value(h).all_finite());
                prop_assert_eq!(g.value(h).cols(), model.cfg.dim);
            }
            // Prediction over the deduped seed prefix is finite.
            let b = blocks[0].dst_nodes.len();
            let pred = model.predict_rows(&mut g, &fw, model.cfg.layers, b);
            prop_assert!(g.value(pred).all_finite());
        }
    }
}
