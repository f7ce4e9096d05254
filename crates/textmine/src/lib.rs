//! # textmine — text substrate for text-rich heterogeneous networks
//!
//! Everything the CATE-HGN text-enhancing (TE) module and the text-consuming
//! baselines need:
//!
//! * [`Vocab`] / [`tokenize`] — interning tokenizer with stopword removal;
//! * [`TfIdf`] — Eq. 24 paper-term link weighting;
//! * [`WordEmbeddings`] — distributional word vectors by reflective random
//!   indexing, used to featurise papers/authors/venues/terms;
//! * [`SimBert`] — a masked-language-model oracle reproducing the single
//!   interface the paper uses pre-trained BERT for (Eq. 23): top-κ
//!   vocabulary terms for a masked occurrence of a query term.

pub mod embed;
pub mod simbert;
pub mod tfidf;
pub mod vocab;

pub use embed::WordEmbeddings;
pub use simbert::SimBert;
pub use tfidf::TfIdf;
pub use vocab::{tokenize, TokenId, Vocab, STOPWORDS};
