//! Seeded input streams. Every input the library receives is drawn here
//! from the workload seed, so one seed reproduces the same queries,
//! batches, cold-start rows, refresh schedule and shard generations.

use hetgraph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// What a stream feeds. Each purpose draws from its own generator, so
/// lengthening one phase never shifts another phase's inputs.
#[derive(Clone, Copy, Debug)]
pub enum Purpose {
    Single = 1,
    Batch,
    Predict,
    Cold,
    Refresh,
    TraceQuery,
    TracePredict,
    TraceRefresh,
    Sweep,
    Generation,
}

pub struct Stream {
    rng: ChaCha8Rng,
}

impl Stream {
    pub fn new(seed: u64, purpose: Purpose) -> Self {
        let key = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(purpose as u64);
        Stream {
            rng: ChaCha8Rng::seed_from_u64(key),
        }
    }

    /// A uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// A uniform node of `pool`.
    pub fn node(&mut self, pool: &[NodeId]) -> NodeId {
        pool[self.index(pool.len())]
    }

    /// `n` distinct nodes of `pool` (all of it when `n` is larger), in draw
    /// order. Batches must not repeat a node: `ServeEngine::predict` panics
    /// on a repeated seed.
    pub fn distinct(&mut self, pool: &[NodeId], n: usize) -> Vec<NodeId> {
        let n = n.min(pool.len());
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let i = self.index(pool.len());
            if seen.insert(i) {
                out.push(pool[i]);
            }
        }
        out
    }

    /// `row` with every value moved by a uniform offset in
    /// `[-scale / 2, scale / 2)`.
    pub fn perturbed(&mut self, row: &[f32], scale: f32) -> Vec<f32> {
        row.iter()
            .map(|&x| x + (self.rng.gen::<f32>() - 0.5) * scale)
            .collect()
    }

    /// A raw 64-bit word, for library calls that take a seed.
    pub fn word(&mut self) -> u64 {
        self.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Vec<NodeId> {
        (100..400).map(NodeId).collect()
    }

    fn queries(seed: u64) -> Vec<NodeId> {
        let mut s = Stream::new(seed, Purpose::Single);
        (0..64).map(|_| s.node(&pool())).collect()
    }

    fn batches(seed: u64) -> Vec<Vec<NodeId>> {
        let mut s = Stream::new(seed, Purpose::Batch);
        (0..8).map(|_| s.distinct(&pool(), 64)).collect()
    }

    fn cold_rows(seed: u64) -> Vec<u32> {
        let mut s = Stream::new(seed, Purpose::Cold);
        let row = [0.5f32, -1.0, 2.0, 0.0];
        (0..16)
            .flat_map(|_| s.perturbed(&row, 0.1))
            .map(f32::to_bits)
            .collect()
    }

    fn refreshes(seed: u64) -> (Vec<u64>, Vec<NodeId>) {
        let mut g = Stream::new(seed, Purpose::Generation);
        let mut r = Stream::new(seed, Purpose::Refresh);
        (
            (0..2).map(|_| g.word()).collect(),
            (0..64).map(|_| r.node(&pool())).collect(),
        )
    }

    #[test]
    fn fixed_seed_reproduces_every_stream() {
        for seed in [0, 1, 7, u64::MAX] {
            assert_eq!(queries(seed), queries(seed));
            assert_eq!(batches(seed), batches(seed));
            assert_eq!(cold_rows(seed), cold_rows(seed));
            assert_eq!(refreshes(seed), refreshes(seed));
        }
    }

    #[test]
    fn seeds_and_purposes_draw_different_inputs() {
        assert_ne!(queries(1), queries(2));
        assert_ne!(batches(1), batches(2));
        assert_ne!(refreshes(1), refreshes(2));
        let pool = pool();
        let mut a = Stream::new(1, Purpose::Single);
        let mut b = Stream::new(1, Purpose::Refresh);
        let from_a: Vec<NodeId> = (0..32).map(|_| a.node(&pool)).collect();
        let from_b: Vec<NodeId> = (0..32).map(|_| b.node(&pool)).collect();
        assert_ne!(from_a, from_b);
    }

    #[test]
    fn batches_hold_distinct_nodes_of_the_pool() {
        let pool = pool();
        for batch in batches(3) {
            let set: BTreeSet<NodeId> = batch.iter().copied().collect();
            assert_eq!((batch.len(), set.len()), (64, 64));
            assert!(batch.iter().all(|n| pool.contains(n)));
        }
        let mut s = Stream::new(3, Purpose::Batch);
        assert_eq!(s.distinct(&pool[..5], 64).len(), 5);
    }

    #[test]
    fn perturbation_stays_within_its_scale() {
        let mut s = Stream::new(9, Purpose::Cold);
        let row = vec![1.0f32; 256];
        let out = s.perturbed(&row, 0.1);
        assert!(out.iter().all(|&x| (x - 1.0).abs() <= 0.05));
        assert!(out.iter().any(|&x| x != 1.0));
    }
}
