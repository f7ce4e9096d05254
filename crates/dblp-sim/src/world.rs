//! Latent structure of the synthetic publication world: domains, term
//! inventory with per-domain impact, author prestige profiles, and venue
//! authority profiles. These latent variables are the generator's ground
//! truth — the experiment harness evaluates, e.g., the TE module's mined
//! terms against [`TermKind::Quality`] membership.

use crate::config::WorldConfig;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tensor::init::gaussian;

/// Ground-truth role of a term in the generative process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermKind {
    /// The name of a research domain (the weak supervision TE starts from).
    DomainName { domain: usize },
    /// A latent quality term of one domain, with citation-indicative impact.
    Quality { domain: usize },
    /// A domain-agnostic filler term.
    Generic,
    /// A noise term with no semantic coherence.
    Noise,
}

/// One term of the world vocabulary.
#[derive(Clone, Debug)]
pub struct Term {
    pub text: String,
    pub kind: TermKind,
    /// Citation impact contributed when the term truly describes a paper
    /// (only non-zero for quality terms).
    pub impact: f32,
}

/// An author with domain-conditioned prestige: high in the primary domain,
/// discounted in the secondary, negligible elsewhere. This is exactly the
/// "Jiawei Han is more impactful in data mining than machine learning"
/// structure of Figure 3(a).
#[derive(Clone, Debug)]
pub struct AuthorProfile {
    pub name: String,
    pub primary: usize,
    pub secondary: usize,
    /// Prestige in the primary domain (heavy-tailed).
    pub prestige: f32,
    /// Multiplier applied in the secondary domain (in `(0, 0.5]`).
    pub secondary_discount: f32,
    /// Relative productivity (papers are assigned preferentially).
    pub productivity: f32,
}

impl AuthorProfile {
    /// Prestige of this author within `domain`.
    pub fn prestige_in(&self, domain: usize) -> f32 {
        if domain == self.primary {
            self.prestige
        } else if domain == self.secondary {
            self.prestige * self.secondary_discount
        } else {
            0.05 * self.prestige
        }
    }
}

/// A venue with a primary domain and heavy-tailed authority.
#[derive(Clone, Debug)]
pub struct VenueProfile {
    pub name: String,
    pub domain: usize,
    pub authority: f32,
}

impl VenueProfile {
    /// Authority of this venue within `domain`.
    pub fn authority_in(&self, domain: usize) -> f32 {
        if domain == self.domain {
            self.authority
        } else {
            0.1 * self.authority
        }
    }
}

/// Read access to the latent quantities the paper generator draws on.
///
/// [`LatentWorld`] implements it by profile lookup; the string-free
/// [`crate::stream::CompactWorld`] implements it over struct-of-arrays
/// columns. Both are sampled from the same RNG draw sequence, so the
/// generator produces bitwise-identical corpora over either view
/// (proptested in `stream.rs`).
pub trait WorldView {
    fn config(&self) -> &WorldConfig;
    fn n_authors(&self) -> usize;
    fn author_primary(&self, a: usize) -> usize;
    fn author_secondary(&self, a: usize) -> usize;
    fn author_productivity(&self, a: usize) -> f32;
    fn author_prestige_in(&self, a: usize, domain: usize) -> f32;
    fn n_venues(&self) -> usize;
    fn venue_domain(&self, v: usize) -> usize;
    fn venue_authority(&self, v: usize) -> f32;
    fn venue_authority_in(&self, v: usize, domain: usize) -> f32;
    fn term_impact(&self, t: usize) -> f32;
}

/// Term-layout helpers: `gen_terms` lays the inventory out as
/// `[domain names | per-domain quality terms | generic | noise]`, so slot
/// arithmetic replaces linear scans on the hot generator path.
pub mod layout {
    use crate::config::WorldConfig;

    /// Slot of domain `d`'s name term.
    pub fn domain_name_term(d: usize) -> usize {
        d
    }

    /// Slot of quality term `j` of domain `d`.
    pub fn quality_term(cfg: &WorldConfig, d: usize, j: usize) -> usize {
        cfg.n_domains + d * cfg.quality_terms_per_domain + j
    }

    /// First generic-term slot.
    pub fn generic_start(cfg: &WorldConfig) -> usize {
        cfg.n_domains + cfg.n_domains * cfg.quality_terms_per_domain
    }

    /// First noise-term slot.
    pub fn noise_start(cfg: &WorldConfig) -> usize {
        generic_start(cfg) + cfg.n_generic_terms
    }
}

/// The full latent world.
#[derive(Clone, Debug)]
pub struct LatentWorld {
    pub config: WorldConfig,
    pub terms: Vec<Term>,
    pub authors: Vec<AuthorProfile>,
    pub venues: Vec<VenueProfile>,
}

impl WorldView for LatentWorld {
    fn config(&self) -> &WorldConfig {
        &self.config
    }
    fn n_authors(&self) -> usize {
        self.authors.len()
    }
    fn author_primary(&self, a: usize) -> usize {
        self.authors[a].primary
    }
    fn author_secondary(&self, a: usize) -> usize {
        self.authors[a].secondary
    }
    fn author_productivity(&self, a: usize) -> f32 {
        self.authors[a].productivity
    }
    fn author_prestige_in(&self, a: usize, domain: usize) -> f32 {
        self.authors[a].prestige_in(domain)
    }
    fn n_venues(&self) -> usize {
        self.venues.len()
    }
    fn venue_domain(&self, v: usize) -> usize {
        self.venues[v].domain
    }
    fn venue_authority(&self, v: usize) -> f32 {
        self.venues[v].authority
    }
    fn venue_authority_in(&self, v: usize, domain: usize) -> f32 {
        self.venues[v].authority_in(domain)
    }
    fn term_impact(&self, t: usize) -> f32 {
        self.terms[t].impact
    }
}

impl LatentWorld {
    /// Samples the latent world from a config (deterministic in the seed).
    pub fn generate(config: &WorldConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let terms = gen_terms(config, &mut rng);
        let authors = gen_authors(config, &mut rng);
        let venues = gen_venues(config, &mut rng);
        LatentWorld { config: config.clone(), terms, authors, venues }
    }
}

/// Heavy-tailed positive sample: `exp(sigma * N(0,1))`, normalised to have
/// roughly unit median.
pub(crate) fn lognormal<R: Rng>(rng: &mut R, sigma: f32) -> f32 {
    (sigma * gaussian(rng)).exp()
}

fn gen_terms<R: Rng>(cfg: &WorldConfig, rng: &mut R) -> Vec<Term> {
    let mut terms = Vec::with_capacity(cfg.total_terms());
    for k in 0..cfg.n_domains {
        terms.push(Term {
            text: cfg.domain_name(k).to_string(),
            kind: TermKind::DomainName { domain: k },
            impact: 0.15,
        });
    }
    for k in 0..cfg.n_domains {
        for j in 0..cfg.quality_terms_per_domain {
            terms.push(Term {
                text: format!("{}-q{j:03}", cfg.domain_name(k)),
                kind: TermKind::Quality { domain: k },
                impact: rng.gen_range(0.5..1.5),
            });
        }
    }
    for j in 0..cfg.n_generic_terms {
        terms.push(Term { text: format!("generic{j:03}"), kind: TermKind::Generic, impact: 0.0 });
    }
    for j in 0..cfg.n_noise_terms {
        terms.push(Term { text: format!("noise{j:03}"), kind: TermKind::Noise, impact: 0.0 });
    }
    terms
}

fn gen_authors<R: Rng>(cfg: &WorldConfig, rng: &mut R) -> Vec<AuthorProfile> {
    (0..cfg.n_authors)
        .map(|i| {
            let primary = rng.gen_range(0..cfg.n_domains);
            let mut secondary = rng.gen_range(0..cfg.n_domains);
            if secondary == primary {
                secondary = (secondary + 1) % cfg.n_domains;
            }
            AuthorProfile {
                name: format!("author-{i:05}"),
                primary,
                secondary,
                prestige: lognormal(rng, 1.0),
                secondary_discount: rng.gen_range(0.05..0.5),
                productivity: lognormal(rng, 0.8),
            }
        })
        .collect()
}

fn gen_venues<R: Rng>(cfg: &WorldConfig, rng: &mut R) -> Vec<VenueProfile> {
    (0..cfg.n_venues)
        .map(|i| {
            let domain = i % cfg.n_domains;
            VenueProfile {
                name: format!("conf-{}-{:02}", cfg.domain_name(domain), i / cfg.n_domains),
                domain,
                authority: lognormal(rng, 0.9),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_has_expected_inventory() {
        let cfg = WorldConfig::tiny();
        let w = LatentWorld::generate(&cfg);
        assert_eq!(w.terms.len(), cfg.total_terms());
        assert_eq!(w.authors.len(), cfg.n_authors);
        assert_eq!(w.venues.len(), cfg.n_venues);
        // Every domain has its name term and the right count of quality terms.
        for domain in 0..cfg.n_domains {
            let name = w.terms.iter().find(|t| t.kind == TermKind::DomainName { domain });
            assert_eq!(name.map(|t| t.text.as_str()), Some(cfg.domain_name(domain)));
            let quality = w.terms.iter().filter(|t| t.kind == TermKind::Quality { domain });
            assert_eq!(quality.count(), cfg.quality_terms_per_domain);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorldConfig::tiny();
        let (a, b) = (LatentWorld::generate(&cfg), LatentWorld::generate(&cfg));
        assert_eq!(a.authors[0].prestige, b.authors[0].prestige);
        assert_eq!(a.venues[3].authority, b.venues[3].authority);
        assert_eq!(a.terms[20].impact, b.terms[20].impact);
    }

    #[test]
    fn prestige_is_domain_conditioned() {
        let cfg = WorldConfig::tiny();
        let w = LatentWorld::generate(&cfg);
        for a in &w.authors {
            let p = a.prestige_in(a.primary);
            let s = a.prestige_in(a.secondary);
            let other = (0..cfg.n_domains)
                .find(|&k| k != a.primary && k != a.secondary)
                .map(|k| a.prestige_in(k))
                .unwrap();
            assert!(p > s, "primary must dominate secondary");
            assert!(s > other, "secondary must dominate the rest");
        }
    }

    #[test]
    fn prestige_is_heavy_tailed() {
        let cfg = WorldConfig::full();
        let w = LatentWorld::generate(&cfg);
        let mut ps: Vec<f32> = w.authors.iter().map(|a| a.prestige).collect();
        ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ps[ps.len() / 2];
        let p99 = ps[ps.len() * 99 / 100];
        assert!(p99 > 5.0 * median, "p99 {p99} vs median {median}");
    }

    #[test]
    fn venue_names_embed_domain_for_subsetting() {
        let cfg = WorldConfig::tiny();
        let w = LatentWorld::generate(&cfg);
        let data_venues =
            w.venues.iter().filter(|v| v.name.contains("data")).count();
        assert_eq!(data_venues, cfg.n_venues / cfg.n_domains);
    }
}

serde::impl_serde_enum!(TermKind {
    DomainName { domain },
    Quality { domain },
    Generic,
    Noise,
});
serde::impl_serde_struct!(Term { text, kind, impact });
serde::impl_serde_struct!(AuthorProfile {
    name,
    primary,
    secondary,
    prestige,
    secondary_discount,
    productivity,
});
serde::impl_serde_struct!(VenueProfile { name, domain, authority });
serde::impl_serde_struct!(LatentWorld { config, terms, authors, venues });
