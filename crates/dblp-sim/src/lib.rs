//! # dblp-sim — generative publication-network simulator
//!
//! Substitutes for the DBLP ⋈ AMiner dump of the CATE-HGN paper (gated
//! data; see DESIGN.md). The generator's latent variables are exactly the
//! factors the paper claims drive citations: domain-conditioned author
//! prestige, domain-conditioned venue authority, and citation-indicative
//! quality terms observed only through noisy keyword lists. A model attains
//! low RMSE on the generated labels iff it recovers those factors, so the
//! relative ordering of the compared systems is preserved at laptop scale.
//!
//! * [`WorldConfig`] — knobs and presets (`full`, `small`, `tiny`);
//! * [`LatentWorld`] — the sampled ground truth (domains, prestige,
//!   authority, term quality);
//! * [`Corpus`] — generated papers with labels and citation links;
//! * [`Dataset`] — graph + features + splits, in three variants matching
//!   Table I: [`Dataset::full`], [`Dataset::single`], [`Dataset::random`];
//! * [`DatasetStats`] — the Table I row of a dataset.

pub mod config;
pub mod dataset;
pub mod generate;
pub mod stats;
pub mod stream;
pub mod world;

pub use config::{WorldConfig, DOMAIN_NAMES};
pub use dataset::{
    publication_schema, Dataset, DatasetError, LinkTypes, NodeTypes, ScaleOptions, Split,
};
pub use generate::{citation_rate, sample_poisson, Corpus, Paper};
pub use stats::DatasetStats;
pub use stream::{BoundedPool, PaperStream};
pub use world::{AuthorProfile, LatentWorld, Term, TermKind, VenueProfile};
