//! Paper generation: assigns domains, years, authors, venues, latent and
//! observed terms, citation links, and citations-per-year labels.
//!
//! The label model implements the paper's premise (Sec. II): a paper's
//! citation rate is driven by the *domain-conditioned* prestige of its
//! authors, the *domain-conditioned* authority of its venue, and the
//! citation-indicative impact of the quality terms that truly describe it
//! — plus irreducible noise that no model can explain.

use crate::config::WorldConfig;
use crate::stream::PaperStream;
use crate::world::{layout, WorldView};
#[cfg(test)]
use crate::world::{LatentWorld, TermKind};
use rand::Rng;
use tensor::init::gaussian;

/// One generated paper.
#[derive(Clone, Debug)]
pub struct Paper {
    pub domain: usize,
    pub year: u16,
    /// Indices into [`LatentWorld::authors`].
    pub authors: Vec<usize>,
    /// Index into [`LatentWorld::venues`].
    pub venue: usize,
    /// Latent quality terms (indices into [`LatentWorld::terms`]) that truly
    /// describe the paper — ground truth, not observable by models.
    pub true_terms: Vec<usize>,
    /// Observed keyword list (noisy view of `true_terms`).
    pub keywords: Vec<usize>,
    /// Tokens of the paper's title text (term indices): quality terms plus
    /// fillers, possibly mentioning the domain name.
    pub title_terms: Vec<usize>,
    /// Earlier papers cited by this one (indices into the paper list).
    pub cites: Vec<usize>,
    /// True expected citations per year.
    pub rate: f32,
    /// Observed average citations per year (the regression label).
    pub label: f32,
}

/// All generated papers, in ascending-year order.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub papers: Vec<Paper>,
}

impl Corpus {
    /// Generates the corpus from a latent world, deterministic in the
    /// config seed. Implemented as a full drain of the bounded-memory
    /// [`PaperStream`] in exact mode, so the in-memory and streaming
    /// generators cannot diverge (they are the same code).
    pub fn generate<W: WorldView>(world: &W) -> Self {
        Corpus { papers: PaperStream::exact(world).collect() }
    }

    pub fn len(&self) -> usize {
        self.papers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.papers.is_empty()
    }
}

/// Pre-computed per-domain author sampling tables (productivity- and
/// affinity-weighted).
pub(crate) struct AuthorPicker {
    /// For each domain: (author index, cumulative weight).
    tables: Vec<(Vec<usize>, Vec<f32>)>,
}

impl AuthorPicker {
    pub(crate) fn new<W: WorldView>(world: &W) -> Self {
        let k = world.config().n_domains;
        let mut tables = Vec::with_capacity(k);
        for d in 0..k {
            let mut ids = Vec::new();
            let mut cum = Vec::new();
            let mut acc = 0.0f32;
            for i in 0..world.n_authors() {
                let aff = if world.author_primary(i) == d {
                    1.0
                } else if world.author_secondary(i) == d {
                    0.4
                } else {
                    0.02
                };
                acc += world.author_productivity(i) * aff;
                ids.push(i);
                cum.push(acc);
            }
            tables.push((ids, cum));
        }
        AuthorPicker { tables }
    }

    pub(crate) fn pick(&self, domain: usize, rng: &mut impl Rng) -> Vec<usize> {
        let n = 1 + sample_poisson(rng, 1.5).min(4);
        let (ids, cum) = &self.tables[domain];
        let total = *cum.last().unwrap();
        let mut out = Vec::with_capacity(n);
        let mut guard = 0;
        while out.len() < n && guard < 50 {
            guard += 1;
            let u = rng.gen_range(0.0..total);
            let pos = cum.partition_point(|&c| c < u);
            let a = ids[pos.min(ids.len() - 1)];
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    /// Approximate live heap footprint (generator memory accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|(ids, cum)| {
                ids.capacity() * std::mem::size_of::<usize>()
                    + cum.capacity() * std::mem::size_of::<f32>()
            })
            .sum()
    }
}

pub(crate) fn pick_venue<W: WorldView>(world: &W, domain: usize, rng: &mut impl Rng) -> usize {
    let candidates: Vec<usize> = (0..world.n_venues())
        .filter(|&i| world.venue_domain(i) == domain)
        .collect();
    assert!(!candidates.is_empty(), "every domain must own at least one venue");
    // Authority-weighted choice: stronger venues publish more.
    let total: f32 = candidates.iter().map(|&i| world.venue_authority(i)).sum();
    let mut u = rng.gen_range(0.0..total);
    for &i in &candidates {
        u -= world.venue_authority(i);
        if u <= 0.0 {
            return i;
        }
    }
    *candidates.last().unwrap()
}

pub(crate) fn pick_true_terms<W: WorldView>(
    world: &W,
    domain: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let cfg = world.config();
    // `gen_terms` lays quality terms out contiguously per domain, so slot
    // arithmetic replaces a linear scan of the term list — same draws,
    // same indices, no per-paper allocation of the pool.
    let pool_len = cfg.quality_terms_per_domain;
    let n = (3 + sample_poisson(rng, 1.5)).min(pool_len);
    let mut out = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < 100 {
        guard += 1;
        let t = layout::quality_term(cfg, domain, rng.gen_range(0..pool_len));
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

pub(crate) fn pick_keywords<W: WorldView>(
    world: &W,
    domain: usize,
    true_terms: &[usize],
    rng: &mut impl Rng,
) -> Vec<usize> {
    let cfg = world.config();
    let n = (1 + sample_poisson(rng, cfg.keywords_per_paper as f64 - 1.0)).max(2);
    let pool_len = cfg.quality_terms_per_domain;
    let generic_start = layout::generic_start(cfg);
    let noise_start = layout::noise_start(cfg);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t = if rng.gen::<f32>() < cfg.keyword_quality {
            // Mostly the paper's own quality terms, sometimes domain kin.
            if !true_terms.is_empty() && rng.gen::<f32>() < 0.7 {
                true_terms[rng.gen_range(0..true_terms.len())]
            } else {
                layout::quality_term(cfg, domain, rng.gen_range(0..pool_len))
            }
        } else if rng.gen::<f32>() < 0.7 {
            generic_start + rng.gen_range(0..cfg.n_generic_terms)
        } else {
            noise_start + rng.gen_range(0..cfg.n_noise_terms)
        };
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

pub(crate) fn make_title<W: WorldView>(
    world: &W,
    domain: usize,
    true_terms: &[usize],
    rng: &mut impl Rng,
) -> Vec<usize> {
    let cfg = world.config();
    let mut title = true_terms.to_vec();
    let generic_start = layout::generic_start(cfg);
    for _ in 0..rng.gen_range(1..3usize) {
        title.push(generic_start + rng.gen_range(0..cfg.n_generic_terms));
    }
    if rng.gen::<f32>() < cfg.domain_name_rate {
        title.push(layout::domain_name_term(domain));
    }
    title
}

/// The citation-rate model: domain-conditioned author/venue/term factors.
pub fn citation_rate<W: WorldView>(
    world: &W,
    domain: usize,
    authors: &[usize],
    venue: usize,
    true_terms: &[usize],
) -> f32 {
    let cfg = world.config();
    let best_prestige = authors
        .iter()
        .map(|&a| world.author_prestige_in(a, domain))
        .fold(0.0f32, f32::max);
    let authority = world.venue_authority_in(venue, domain);
    let t_mean = if true_terms.is_empty() {
        0.0
    } else {
        true_terms.iter().map(|&t| world.term_impact(t)).sum::<f32>() / true_terms.len() as f32
    };
    // Multiplicative interaction of the three factors: impact compounds
    // (a strong paper at a strong venue by a strong group), which yields the
    // heavy-tailed citation distributions observed in real bibliometric
    // data and defeats purely additive feature models.
    cfg.label_scale
        * (0.05 + best_prestige).powf(0.8 * cfg.w_author)
        * (0.05 + authority).powf(0.5 * cfg.w_venue)
        * (0.30 + t_mean).powf(0.9 * cfg.w_term)
}

pub(crate) fn observe_label(cfg: &WorldConfig, rate: f32, rng: &mut impl Rng) -> f32 {
    (rate * (cfg.label_noise * gaussian(rng)).exp()).max(0.0)
}

/// Knuth's Poisson sampler (fine for small lambda).
pub fn sample_poisson<R: Rng>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l || k > 1000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_corpus() -> (LatentWorld, Corpus) {
        let w = LatentWorld::generate(&WorldConfig::tiny());
        let c = Corpus::generate(&w);
        (w, c)
    }

    #[test]
    fn corpus_size_and_year_order() {
        let (w, c) = tiny_corpus();
        assert_eq!(c.len(), w.config.n_papers);
        for pair in c.papers.windows(2) {
            assert!(pair[0].year <= pair[1].year, "papers must be year-sorted");
        }
    }

    #[test]
    fn citations_point_backwards() {
        let (_, c) = tiny_corpus();
        for (i, p) in c.papers.iter().enumerate() {
            for &r in &p.cites {
                assert!(r < i, "paper {i} cites later paper {r}");
            }
        }
    }

    #[test]
    fn endpoints_are_in_range() {
        let (w, c) = tiny_corpus();
        for p in &c.papers {
            assert!(!p.authors.is_empty() && p.authors.len() <= 5);
            assert!(p.venue < w.venues.len());
            assert_eq!(w.venues[p.venue].domain, p.domain, "venue domain matches paper");
            for &t in p.true_terms.iter().chain(&p.keywords).chain(&p.title_terms) {
                assert!(t < w.terms.len());
            }
            // True terms really are quality terms of the paper's domain.
            for &t in &p.true_terms {
                assert_eq!(w.terms[t].kind, TermKind::Quality { domain: p.domain });
            }
        }
    }

    #[test]
    fn labels_are_positive_and_dispersed() {
        let w = LatentWorld::generate(&WorldConfig::small());
        let c = Corpus::generate(&w);
        let labels: Vec<f32> = c.papers.iter().map(|p| p.label).collect();
        let mean = labels.iter().sum::<f32>() / labels.len() as f32;
        let var = labels.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>()
            / labels.len() as f32;
        let std = var.sqrt();
        assert!(labels.iter().all(|&l| l >= 0.0));
        assert!(mean > 1.0 && mean < 30.0, "label mean {mean}");
        assert!(std > 1.0, "label std {std} should be dispersed");
        // Heavy-ish tail: the max should be several times the mean.
        let max = labels.iter().cloned().fold(0.0f32, f32::max);
        assert!(max > 3.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn rate_reflects_domain_conditioning() {
        // An author must generate a higher rate in their primary domain
        // than in an unrelated one, all else equal.
        let w = LatentWorld::generate(&WorldConfig::tiny());
        let a = w
            .authors
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.prestige.partial_cmp(&y.1.prestige).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let prof = &w.authors[a];
        let other = (0..w.config.n_domains)
            .find(|&k| k != prof.primary && k != prof.secondary)
            .unwrap();
        let venue_in = w.venues.iter().position(|v| v.domain == prof.primary).unwrap();
        let venue_out = w.venues.iter().position(|v| v.domain == other).unwrap();
        let r_primary = citation_rate(&w, prof.primary, &[a], venue_in, &[]);
        let r_other = citation_rate(&w, other, &[a], venue_out, &[]);
        assert!(
            r_primary > r_other,
            "domain conditioning violated: {r_primary} <= {r_other}"
        );
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 4000;
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, 3.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "poisson mean {mean}");
    }

    #[test]
    fn determinism() {
        let w = LatentWorld::generate(&WorldConfig::tiny());
        let (a, b) = (Corpus::generate(&w), Corpus::generate(&w));
        assert_eq!(a.papers.len(), b.papers.len());
        assert_eq!(a.papers[10].label, b.papers[10].label);
        assert_eq!(a.papers[42].cites, b.papers[42].cites);
    }
}

serde::impl_serde_struct!(Paper {
    domain,
    year,
    authors,
    venue,
    true_terms,
    keywords,
    title_terms,
    cites,
    rate,
    label,
});
serde::impl_serde_struct!(Corpus { papers });
