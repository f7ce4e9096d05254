//! TF-IDF scoring of paper-term links (Eq. 24 of the paper):
//!
//! `omega(e) = (f(u, v) / sum_u' f(u', v)) * log(N_papers / n(u))`
//!
//! where `f(u, v)` is the raw count of term `u` in paper `v` and `n(u)` is
//! the number of papers containing `u`.

use crate::vocab::TokenId;
use std::collections::{BTreeMap, BTreeSet};

/// Document-frequency statistics fitted over a corpus of token-id documents.
#[derive(Clone, Debug, Default)]
pub struct TfIdf {
    /// Number of documents containing each term.
    doc_freq: BTreeMap<TokenId, u32>,
    n_docs: usize,
}

impl TfIdf {
    /// Fits document frequencies over `docs` (each a bag of token ids).
    pub fn fit(docs: &[Vec<TokenId>]) -> Self {
        let mut doc_freq: BTreeMap<TokenId, u32> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        for doc in docs {
            seen.clear();
            for &t in doc {
                if seen.insert(t) {
                    *doc_freq.entry(t).or_insert(0) += 1;
                }
            }
        }
        TfIdf { doc_freq, n_docs: docs.len() }
    }

    /// `n(u)`: number of documents containing `term`.
    pub fn doc_freq(&self, term: TokenId) -> u32 {
        self.doc_freq.get(&term).copied().unwrap_or(0)
    }

    /// `log(N / n(u))`; zero for unseen terms (they carry no signal).
    pub fn idf(&self, term: TokenId) -> f32 {
        let n = self.doc_freq(term);
        if n == 0 || self.n_docs == 0 {
            0.0
        } else {
            (self.n_docs as f32 / n as f32).ln()
        }
    }

    /// TF-IDF weights (Eq. 24) for every distinct term of one document.
    /// Terms with zero IDF (present in every document, or unseen) get
    /// weight zero; callers typically drop those links.
    pub fn weights(&self, doc: &[TokenId]) -> Vec<(TokenId, f32)> {
        if doc.is_empty() {
            return Vec::new();
        }
        let mut counts: BTreeMap<TokenId, u32> = BTreeMap::new();
        for &t in doc {
            *counts.entry(t).or_insert(0) += 1;
        }
        let total = doc.len() as f32;
        // BTreeMap iteration is token-id-sorted, so the output order is
        // deterministic without an explicit sort.
        counts
            .into_iter()
            .map(|(t, c)| (t, (c as f32 / total) * self.idf(t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TokenId {
        TokenId(i)
    }

    #[test]
    fn idf_penalises_ubiquitous_terms() {
        // Term 0 in all 4 docs, term 1 in one doc.
        let docs = vec![vec![t(0), t(1)], vec![t(0)], vec![t(0)], vec![t(0)]];
        let m = TfIdf::fit(&docs);
        assert_eq!(m.doc_freq(t(0)), 4);
        assert_eq!(m.doc_freq(t(1)), 1);
        assert_eq!(m.idf(t(0)), 0.0); // ln(4/4)
        assert!((m.idf(t(1)) - (4.0f32).ln()).abs() < 1e-6);
        assert_eq!(m.idf(t(9)), 0.0); // unseen
    }

    #[test]
    fn weights_match_eq_24() {
        let docs = vec![vec![t(0), t(0), t(1)], vec![t(1)]];
        let m = TfIdf::fit(&docs);
        let w = m.weights(&docs[0]);
        // term 0: tf = 2/3, idf = ln(2/1); term 1: tf = 1/3, idf = ln(2/2)=0.
        assert_eq!(w.len(), 2);
        assert!((w[0].1 - (2.0 / 3.0) * (2.0f32).ln()).abs() < 1e-6);
        assert_eq!(w[1].1, 0.0);
    }

    #[test]
    fn duplicate_terms_count_once_for_df() {
        let docs = vec![vec![t(0), t(0), t(0)], vec![t(1)]];
        let m = TfIdf::fit(&docs);
        assert_eq!(m.doc_freq(t(0)), 1);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let m = TfIdf::fit(&[]);
        assert_eq!(m.idf(t(0)), 0.0);
        assert!(m.weights(&[]).is_empty());
    }
}
