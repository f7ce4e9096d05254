//! Named parameter store shared across training steps.
//!
//! A [`Params`] owns the trainable tensors of a model. Each forward pass
//! binds parameters into a fresh [`crate::graph::Graph`] via
//! [`crate::graph::Graph::param`]; after `backward`, an optimizer from
//! [`crate::optim`] reads the gradients off the graph bindings and updates
//! the stored values in place.

use crate::init::Initializer;
use crate::tensor::Tensor;
use rand::Rng;

/// Stable handle to a parameter inside a [`Params`] store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

#[derive(Clone, Debug)]
struct Entry {
    name: String,
    value: Tensor,
    /// First-moment buffer (Adam).
    m: Tensor,
    /// Second-moment buffer (Adam).
    v: Tensor,
}

/// A collection of named, trainable tensors with per-parameter optimizer
/// state.
#[derive(Clone, Debug, Default)]
pub struct Params {
    entries: Vec<Entry>,
}

impl Params {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an explicit initial value.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.entries.push(Entry {
            name: name.into(),
            value,
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Registers a parameter initialised by `init`.
    pub fn add_init<R: Rng>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Initializer,
        rng: &mut R,
    ) -> ParamId {
        self.add(name, init.sample(rows, cols, rng))
    }

    /// Registers a weight over a concatenation `[x_1 ‖ .. ‖ x_K]` of
    /// `d`-wide inputs in split layout: one parameter per input, the rows
    /// that multiply it. `draws` weights of `K·d x cols` are drawn by
    /// `init` in turn, exactly as `draws` calls of [`Params::add_init`]
    /// would draw them (same fan-in and fan-out, same RNG order). Rows
    /// `i·d..(i+1)·d` of every draw go to `{name}.{parts[i]}`, a
    /// `d x (draws·cols)` parameter holding draw `k` in columns
    /// `k·cols..(k+1)·cols`.
    ///
    /// `H` attention heads over `[h_v ‖ h_u]` are `H` draws of one column
    /// each (`d x H` blocks); a shared `2d x d` transformation is one draw
    /// of `d` columns (its two `d x d` halves).
    pub fn add_init_split<const K: usize, R: Rng>(
        &mut self,
        name: &str,
        parts: [&str; K],
        (d, cols): (usize, usize),
        draws: usize,
        init: Initializer,
        rng: &mut R,
    ) -> [ParamId; K] {
        let drawn: Vec<Tensor> = (0..draws).map(|_| init.sample(K * d, cols, rng)).collect();
        let first = self.entries.len();
        for (i, part) in parts.iter().enumerate() {
            // Row `r` of block `i` is row `i·d + r` of every draw, in turn.
            let data = (i * d..(i + 1) * d)
                .flat_map(|r| drawn.iter().flat_map(move |w| w.row(r)))
                .copied()
                .collect();
            self.add(format!("{name}.{part}"), Tensor::from_vec(d, draws * cols, data));
        }
        std::array::from_fn(|i| ParamId(first + i))
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// Mutable access (e.g. for manual re-initialisation of cluster centers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    /// Registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Iterates over `(id, name, value)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ParamId, &str, &Tensor)> {
        self.entries.iter().enumerate().map(|(i, e)| (ParamId(i), e.name.as_str(), &e.value))
    }

    pub(crate) fn moments_mut(&mut self, id: ParamId) -> (&mut Tensor, &mut Tensor, &mut Tensor) {
        let e = &mut self.entries[id.0];
        (&mut e.value, &mut e.m, &mut e.v)
    }

    /// Read-only view of the optimizer moment buffers `(m, v)` — what a
    /// checkpoint must capture alongside the value to resume Adam bitwise.
    pub fn moments(&self, id: ParamId) -> (&Tensor, &Tensor) {
        let e = &self.entries[id.0];
        (&e.m, &e.v)
    }

    /// Overwrites a parameter's value and optimizer moments in place from
    /// raw element slices (checkpoint restore). Panics on length mismatch —
    /// snapshot/model shape agreement is validated by the caller first.
    pub fn restore_state(&mut self, id: ParamId, value: &[f32], m: &[f32], v: &[f32]) {
        let e = &mut self.entries[id.0];
        e.value.as_mut_slice().copy_from_slice(value);
        e.m.as_mut_slice().copy_from_slice(m);
        e.v.as_mut_slice().copy_from_slice(v);
    }

    /// True when every parameter value is finite — a cheap sanity check for
    /// training loops.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|e| e.value.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn add_and_lookup() {
        let mut p = Params::new();
        let w = p.add("w", Tensor::full(2, 3, 1.0));
        let b = p.add("b", Tensor::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_weights(), 9);
        assert_eq!(p.name(w), "w");
        assert_eq!(p.value(b).shape(), (1, 3));
        assert!(p.all_finite());
    }

    #[test]
    fn init_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut p = Params::new();
        let w = p.add_init("w", 4, 5, Initializer::XavierUniform, &mut rng);
        assert_eq!(p.value(w).shape(), (4, 5));
        // Xavier bound for 4x5 is sqrt(6/9) ~ 0.816.
        assert!(p.value(w).max() <= 0.82 && p.value(w).min() >= -0.82);
    }

    /// Draws `draws` concat-layout `K·d x cols` weights both ways from one
    /// seed and holds every split-layout value bitwise to its concat-layout
    /// twin, and the RNG streams to the same position afterwards.
    fn assert_split_matches_concat<const K: usize>(d: usize, cols: usize, draws: usize) {
        let parts: [&str; K] = std::array::from_fn(|i| ["v", "e", "u"][i]);
        let mut split_rng = ChaCha8Rng::seed_from_u64(9);
        let mut p = Params::new();
        let ids = p.add_init_split(
            "a",
            parts,
            (d, cols),
            draws,
            Initializer::XavierUniform,
            &mut split_rng,
        );
        let mut concat_rng = ChaCha8Rng::seed_from_u64(9);
        for k in 0..draws {
            let want = Initializer::XavierUniform.sample(K * d, cols, &mut concat_rng);
            for r in 0..K * d {
                for c in 0..cols {
                    let got = p.value(ids[r / d]).get(r % d, k * cols + c);
                    assert_eq!(got.to_bits(), want.get(r, c).to_bits(), "draw {k}, ({r}, {c})");
                }
            }
        }
        for (id, part) in ids.iter().zip(parts) {
            assert_eq!(p.name(*id), format!("a.{part}"));
            assert_eq!(p.value(*id).shape(), (d, draws * cols));
        }
        assert_eq!(split_rng.gen::<u64>(), concat_rng.gen::<u64>());
    }

    #[test]
    fn split_draws_equal_the_concat_draws_they_replace() {
        for d in [3, 8] {
            // Attention heads over `[h_v ‖ h_u]` (the baselines).
            for heads in [1, 2] {
                assert_split_matches_concat::<2>(d, 1, heads);
            }
            // Attention heads over `[h_v ‖ h_e ‖ h_u]` (Eqs. 14 and 15).
            for heads in [1, 4] {
                assert_split_matches_concat::<3>(d, 1, heads);
            }
            // A shared `2d x d` transformation over `[φ ‖ h_v]` (Eq. 3).
            assert_split_matches_concat::<2>(d, d, 1);
        }
    }

    #[test]
    fn serde_round_trip() {
        let mut p = Params::new();
        p.add("w", Tensor::from_rows(&[&[1.0, 2.0]]));
        let json = serde_json::to_string(&p).unwrap();
        let q: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(q.value(ParamId(0)).as_slice(), &[1.0, 2.0]);
    }
}

serde::impl_serde_newtype!(ParamId);
serde::impl_serde_struct!(Entry { name, value, m, v });
serde::impl_serde_struct!(Params { entries });
