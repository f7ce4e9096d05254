//! SimBert — a masked-language-model oracle standing in for pre-trained
//! BERT in the TE module (Eq. 23).
//!
//! The paper consumes BERT through exactly one interface: *mask every
//! occurrence of a query term (a research-domain name or an existing
//! quality term), read the MLM's distribution over the vocabulary at the
//! masked position, and keep the top-κ terms.* The statistical property
//! this relies on is that terms used in the same contexts as the query
//! rank high.
//!
//! SimBert reproduces that interface from corpus statistics alone: the
//! contextual embedding `z` of a masked occurrence is the query's
//! distributional embedding (a profile of its contexts), and the MLM
//! softmax (Eq. 23) becomes a temperature-sharpened softmax over
//! context-similarity scores with a log-frequency prior — mimicking a real
//! MLM's bias toward frequent fillers.

use crate::embed::WordEmbeddings;
use crate::vocab::TokenId;
use tensor::softmax_in_place;

/// Masked-LM oracle over a fixed vocabulary.
#[derive(Clone, Debug)]
pub struct SimBert {
    emb: WordEmbeddings,
    log_freq: Vec<f32>,
    /// Softmax temperature on cosine scores (lower = sharper).
    temperature: f32,
    /// Weight of the log-frequency prior.
    freq_weight: f32,
}

impl SimBert {
    /// Trains the oracle on a corpus of token-id documents.
    /// `freqs[t]` is the corpus frequency of token `t`.
    pub fn train(corpus: &[Vec<TokenId>], freqs: &[u64], dim: usize, seed: u64) -> Self {
        let vocab_size = freqs.len();
        let emb = WordEmbeddings::train(corpus, vocab_size, dim, seed);
        let log_freq = freqs.iter().map(|&f| ((1 + f) as f32).ln()).collect();
        SimBert { emb, log_freq, temperature: 0.1, freq_weight: 0.05 }
    }

    pub fn vocab_size(&self) -> usize {
        self.emb.vocab_size()
    }

    /// The underlying distributional embeddings.
    pub fn embeddings(&self) -> &WordEmbeddings {
        &self.emb
    }

    /// Eq. 23 analogue: the MLM distribution over the vocabulary at a
    /// masked occurrence of `query`, truncated to the top-`kappa` entries
    /// (highest probability first). The query itself is excluded — the TE
    /// module wants *other* relevant terms, and a real MLM's self-
    /// prediction carries no new information.
    pub fn predict_masked(&self, query: TokenId, kappa: usize) -> Vec<(TokenId, f32)> {
        self.predict_masked_multi(&[query], kappa)
    }

    /// Multi-token query (e.g. a two-word domain name): the contextual
    /// embedding is the aggregate of the query tokens' embeddings.
    pub fn predict_masked_multi(&self, query: &[TokenId], kappa: usize) -> Vec<(TokenId, f32)> {
        let z = self.emb.aggregate(query);
        let n = self.vocab_size();
        let mut scores: Vec<f32> = (0..n)
            .map(|u| {
                let cos = tensor::dot(&z, self.emb.embedding(TokenId(u as u32)));
                cos / self.temperature + self.freq_weight * self.log_freq[u]
            })
            .collect();
        // Exclude query tokens from their own prediction.
        for &q in query {
            if q.index() < n {
                scores[q.index()] = f32::NEG_INFINITY;
            }
        }
        softmax_in_place(&mut scores);
        let mut ranked: Vec<(TokenId, f32)> = scores
            .into_iter()
            .enumerate()
            .map(|(u, p)| (TokenId(u as u32), p))
            .filter(|(u, _)| !query.contains(u))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(kappa);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TokenId {
        TokenId(i)
    }

    /// Corpus with a "data" cluster {0,1,2,3} and a "systems" cluster
    /// {4,5,6,7}; token 0 and 4 act as the domain names.
    fn two_domain_corpus() -> (Vec<Vec<TokenId>>, Vec<u64>) {
        let mut corpus = Vec::new();
        for i in 0..40 {
            let a = 1 + (i % 3) as u32;
            let b = 1 + ((i + 1) % 3) as u32;
            corpus.push(vec![t(0), t(a), t(b)]);
            corpus.push(vec![t(4), t(4 + a), t(4 + b)]);
        }
        let mut freqs = vec![0u64; 8];
        for doc in &corpus {
            for tok in doc {
                freqs[tok.index()] += 1;
            }
        }
        (corpus, freqs)
    }

    #[test]
    fn masked_prediction_prefers_same_domain_terms() {
        let (corpus, freqs) = two_domain_corpus();
        let mlm = SimBert::train(&corpus, &freqs, 32, 11);
        let top: Vec<TokenId> =
            mlm.predict_masked(t(0), 3).into_iter().map(|(u, _)| u).collect();
        for u in &top {
            assert!(
                (1..=3).contains(&u.0),
                "expected data-domain terms, got token {}",
                u.0
            );
        }
    }

    #[test]
    fn query_token_is_excluded() {
        let (corpus, freqs) = two_domain_corpus();
        let mlm = SimBert::train(&corpus, &freqs, 32, 11);
        let all = mlm.predict_masked(t(0), 8);
        assert!(all.iter().all(|(u, _)| *u != t(0)));
    }

    #[test]
    fn probabilities_are_normalised_and_sorted() {
        let (corpus, freqs) = two_domain_corpus();
        let mlm = SimBert::train(&corpus, &freqs, 16, 3);
        let full = mlm.predict_masked(t(4), 7); // whole vocab minus query
        let total: f32 = full.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-4, "total {total}");
        for w in full.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn multi_token_query_blends_domains() {
        let (corpus, freqs) = two_domain_corpus();
        let mlm = SimBert::train(&corpus, &freqs, 32, 5);
        let top: Vec<u32> =
            mlm.predict_masked_multi(&[t(0), t(4)], 6).into_iter().map(|(u, _)| u.0).collect();
        // Terms from both clusters should appear among the union.
        assert!(top.iter().any(|&u| (1..=3).contains(&u)));
        assert!(top.iter().any(|&u| (5..=7).contains(&u)));
    }

    #[test]
    fn kappa_truncates() {
        let (corpus, freqs) = two_domain_corpus();
        let mlm = SimBert::train(&corpus, &freqs, 16, 9);
        assert_eq!(mlm.predict_masked(t(1), 2).len(), 2);
        assert_eq!(mlm.predict_masked(t(1), 100).len(), 7); // vocab 8 minus query
    }
}
