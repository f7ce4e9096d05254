//! Streaming paper generation for million-node worlds.
//!
//! [`PaperStream`] emits the corpus one paper at a time from a bounded
//! working set: a per-year volume histogram instead of a materialized
//! year-per-paper vector, the per-domain author tables (sublinear in the
//! paper count under [`WorldConfig::at_scale`]), and citation pools that
//! are either exact (the historical unbounded cumulative table) or
//! windowed into a fixed-capacity Fenwick ring. `Corpus::generate` is a
//! full drain of the exact-mode stream, so the streaming and in-memory
//! generators are the same code and cannot diverge.
//!
//! [`CompactWorld`] is the string-free struct-of-arrays twin of
//! [`LatentWorld`]: it consumes the identical RNG draw sequence, so a
//! stream over either world view yields bitwise-identical papers
//! (proptested in `tests/prop_stream.rs`).

use crate::config::WorldConfig;
use crate::generate::{
    citation_rate, make_title, observe_label, pick_keywords, pick_true_terms, pick_venue,
    sample_poisson, AuthorPicker, Paper,
};
#[cfg(test)]
use crate::world::LatentWorld;
use crate::world::{layout, lognormal, WorldView};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Historical unbounded citation pool: cumulative weights over every
/// earlier paper of one domain (exact, `O(papers)` memory).
#[derive(Default)]
pub(crate) struct ExactPool {
    ids: Vec<usize>,
    cum: Vec<f32>,
}

impl ExactPool {
    fn push(&mut self, id: usize, w: f32) {
        let last = self.cum.last().copied().unwrap_or(0.0);
        self.ids.push(id);
        self.cum.push(last + w);
    }

    fn sample(&self, rng: &mut impl Rng) -> Option<usize> {
        let total = *self.cum.last()?;
        let u = rng.gen_range(0.0..total);
        let pos = self.cum.partition_point(|&c| c < u);
        Some(self.ids[pos.min(self.ids.len() - 1)])
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<usize>()
            + self.cum.capacity() * std::mem::size_of::<f32>()
    }
}

/// Fixed-capacity citation pool: a ring of the `cap` most recent papers of
/// one domain, weight-sampled through a Fenwick tree (`O(cap)` memory,
/// `O(log cap)` push/sample). A deterministic *approximation* of the exact
/// pool — recency-windowed citations, matching how real reference lists
/// skew recent — used only by the scale path, never by the parity path.
pub struct BoundedPool {
    cap: usize,
    ids: Vec<u32>,
    weights: Vec<f32>,
    /// 1-based Fenwick tree over the `cap` slots.
    tree: Vec<f64>,
    cursor: usize,
    total: f64,
}

impl BoundedPool {
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        BoundedPool {
            cap,
            ids: Vec::new(),
            weights: Vec::new(),
            tree: vec![0.0; cap + 1],
            cursor: 0,
            total: 0.0,
        }
    }

    fn add(&mut self, slot: usize, delta: f64) {
        let mut i = slot + 1;
        while i <= self.cap {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
        self.total += delta;
    }

    pub fn push(&mut self, id: usize, w: f32) {
        if self.ids.len() < self.cap {
            let slot = self.ids.len();
            self.ids.push(id as u32);
            self.weights.push(w);
            self.add(slot, w as f64);
        } else {
            let slot = self.cursor;
            self.cursor = (self.cursor + 1) % self.cap;
            let delta = w as f64 - self.weights[slot] as f64;
            self.ids[slot] = id as u32;
            self.weights[slot] = w;
            self.add(slot, delta);
        }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> Option<usize> {
        if self.ids.is_empty() {
            return None;
        }
        // One f32 draw, like the exact pool.
        let u = rng.gen_range(0.0..(self.total as f32).max(f32::MIN_POSITIVE)) as f64;
        // Fenwick descent: largest prefix strictly below `u`.
        let mut pos = 0usize;
        let mut rem = u;
        let mut bit = self.cap.next_power_of_two();
        if bit > self.cap {
            bit >>= 1;
        }
        while bit != 0 {
            let next = pos + bit;
            if next <= self.cap && self.tree[next] < rem {
                pos = next;
                rem -= self.tree[next];
            }
            bit >>= 1;
        }
        Some(self.ids[pos.min(self.ids.len() - 1)] as usize)
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u32>()
            + self.weights.capacity() * std::mem::size_of::<f32>()
            + self.tree.capacity() * std::mem::size_of::<f64>()
    }
}

/// One domain's citation pool, exact or windowed.
pub(crate) enum CitePool {
    Exact(ExactPool),
    Bounded(BoundedPool),
}

impl CitePool {
    fn push(&mut self, id: usize, w: f32) {
        match self {
            CitePool::Exact(p) => p.push(id, w),
            CitePool::Bounded(p) => p.push(id, w),
        }
    }

    fn sample(&self, rng: &mut impl Rng) -> Option<usize> {
        match self {
            CitePool::Exact(p) => p.sample(rng),
            CitePool::Bounded(p) => p.sample(rng),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            CitePool::Exact(p) => p.heap_bytes(),
            CitePool::Bounded(p) => p.heap_bytes(),
        }
    }
}

fn pick_citations(
    cfg: &WorldConfig,
    pools: &[CitePool],
    domain: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let n = sample_poisson(rng, cfg.refs_per_paper as f64);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let d = if rng.gen::<f32>() < 0.8 {
            domain
        } else {
            rng.gen_range(0..cfg.n_domains)
        };
        if let Some(p) = pools[d].sample(rng) {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    out
}

/// String-free struct-of-arrays view of the latent world, for generation
/// at scales where per-entity `String` names are dead weight. Sampled
/// from the exact RNG draw sequence of [`LatentWorld::generate`].
#[derive(Clone, Debug)]
pub struct CompactWorld {
    pub config: WorldConfig,
    /// Impact per quality term, domain-major (`n_domains * qtpd`).
    quality_impact: Vec<f32>,
    author_primary: Vec<u16>,
    author_secondary: Vec<u16>,
    author_prestige: Vec<f32>,
    author_discount: Vec<f32>,
    author_productivity: Vec<f32>,
    venue_authority: Vec<f32>,
}

impl CompactWorld {
    /// Samples the compact world (deterministic in the config seed;
    /// bitwise-identical latent values to [`LatentWorld::generate`]).
    pub fn generate(config: &WorldConfig) -> Self {
        assert!(config.n_domains <= u16::MAX as usize, "domain ids are u16");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        // gen_terms draw order: only quality terms consume the RNG.
        let quality_impact: Vec<f32> = (0..config.n_domains * config.quality_terms_per_domain)
            .map(|_| rng.gen_range(0.5..1.5))
            .collect();
        // gen_authors draw order.
        let n = config.n_authors;
        let mut author_primary = Vec::with_capacity(n);
        let mut author_secondary = Vec::with_capacity(n);
        let mut author_prestige = Vec::with_capacity(n);
        let mut author_discount = Vec::with_capacity(n);
        let mut author_productivity = Vec::with_capacity(n);
        for _ in 0..n {
            let primary = rng.gen_range(0..config.n_domains);
            let mut secondary = rng.gen_range(0..config.n_domains);
            if secondary == primary {
                secondary = (secondary + 1) % config.n_domains;
            }
            author_primary.push(primary as u16);
            author_secondary.push(secondary as u16);
            author_prestige.push(lognormal(&mut rng, 1.0));
            author_discount.push(rng.gen_range(0.05..0.5));
            author_productivity.push(lognormal(&mut rng, 0.8));
        }
        // gen_venues draw order.
        let venue_authority: Vec<f32> = (0..config.n_venues)
            .map(|_| lognormal(&mut rng, 0.9))
            .collect();
        CompactWorld {
            config: config.clone(),
            quality_impact,
            author_primary,
            author_secondary,
            author_prestige,
            author_discount,
            author_productivity,
            venue_authority,
        }
    }

    /// Approximate live heap footprint of the world columns.
    pub fn heap_bytes(&self) -> usize {
        self.quality_impact.capacity() * 4
            + self.author_primary.capacity() * 2
            + self.author_secondary.capacity() * 2
            + self.author_prestige.capacity() * 4
            + self.author_discount.capacity() * 4
            + self.author_productivity.capacity() * 4
            + self.venue_authority.capacity() * 4
    }
}

impl WorldView for CompactWorld {
    fn config(&self) -> &WorldConfig {
        &self.config
    }
    fn n_authors(&self) -> usize {
        self.author_prestige.len()
    }
    fn author_primary(&self, a: usize) -> usize {
        self.author_primary[a] as usize
    }
    fn author_secondary(&self, a: usize) -> usize {
        self.author_secondary[a] as usize
    }
    fn author_productivity(&self, a: usize) -> f32 {
        self.author_productivity[a]
    }
    fn author_prestige_in(&self, a: usize, domain: usize) -> f32 {
        let p = self.author_prestige[a];
        if domain == self.author_primary[a] as usize {
            p
        } else if domain == self.author_secondary[a] as usize {
            p * self.author_discount[a]
        } else {
            0.05 * p
        }
    }
    fn n_venues(&self) -> usize {
        self.venue_authority.len()
    }
    fn venue_domain(&self, v: usize) -> usize {
        // gen_venues assigns domains round-robin.
        v % self.config.n_domains
    }
    fn venue_authority(&self, v: usize) -> f32 {
        self.venue_authority[v]
    }
    fn venue_authority_in(&self, v: usize, domain: usize) -> f32 {
        let a = self.venue_authority[v];
        if domain == self.venue_domain(v) {
            a
        } else {
            0.1 * a
        }
    }
    fn term_impact(&self, t: usize) -> f32 {
        let cfg = &self.config;
        if t < cfg.n_domains {
            0.15 // domain-name terms
        } else if t < layout::generic_start(cfg) {
            self.quality_impact[t - cfg.n_domains]
        } else {
            0.0 // generic / noise terms
        }
    }
}

/// Streaming corpus generator: yields papers in ascending-year order from
/// a bounded working set. Exact mode reproduces the historical in-memory
/// generator bitwise; windowed mode caps citation-pool memory.
pub struct PaperStream<'w, W: WorldView> {
    world: &'w W,
    rng: ChaCha8Rng,
    /// Papers per year offset — the histogram form of the historical
    /// draw-then-sort year vector. The sorted vector is fully determined
    /// by the multiset of draws, so counting is bitwise-equivalent to
    /// sorting while holding `O(year span)` memory instead of
    /// `O(papers)`.
    year_counts: Vec<u64>,
    year_idx: usize,
    emitted_in_year: u64,
    picker: AuthorPicker,
    pools: Vec<CitePool>,
    next_paper: usize,
}

impl<'w, W: WorldView> PaperStream<'w, W> {
    /// Exact mode: bitwise-identical to the historical in-memory
    /// generator (`Corpus::generate` is defined as this stream,
    /// collected).
    pub fn exact(world: &'w W) -> Self {
        Self::new(world, None)
    }

    /// Windowed mode: citation pools hold only the `window` most recent
    /// papers per domain (bounded memory; a documented deterministic
    /// approximation).
    pub fn windowed(world: &'w W, window: usize) -> Self {
        Self::new(world, Some(window))
    }

    fn new(world: &'w W, cite_window: Option<usize>) -> Self {
        let cfg = world.config();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0xC0FFEE));
        // Year histogram: pdf(t) proportional to (1 + t), inverse-CDF
        // sampled — the exact per-paper draws of the historical
        // `sample_years`, binned instead of sorted.
        let (y0, y1) = cfg.year_range;
        let span = (y1 - y0) as f32 + 1.0;
        let mut year_counts = vec![0u64; (y1 - y0) as usize + 1];
        for _ in 0..cfg.n_papers {
            let u: f32 = rng.gen();
            let t = ((1.0 + u * (span * span + 2.0 * span)).sqrt() - 1.0).clamp(0.0, span - 1.0);
            year_counts[t as u16 as usize] += 1;
        }
        let picker = AuthorPicker::new(world);
        let pools = (0..cfg.n_domains)
            .map(|_| match cite_window {
                None => CitePool::Exact(ExactPool::default()),
                Some(w) => CitePool::Bounded(BoundedPool::new(w)),
            })
            .collect();
        PaperStream {
            world,
            rng,
            year_counts,
            year_idx: 0,
            emitted_in_year: 0,
            picker,
            pools,
            next_paper: 0,
        }
    }

    /// Approximate live heap footprint of the generator working set
    /// (year histogram + author tables + citation pools). The
    /// `prop_stream` test `generator_memory_grows_sublinearly_across_scale_tiers`
    /// gates sublinear growth on it.
    pub fn heap_bytes(&self) -> usize {
        self.year_counts.capacity() * std::mem::size_of::<u64>()
            + self.picker.heap_bytes()
            + self.pools.iter().map(CitePool::heap_bytes).sum::<usize>()
    }
}

impl<W: WorldView> Iterator for PaperStream<'_, W> {
    type Item = Paper;

    fn next(&mut self) -> Option<Paper> {
        let cfg = self.world.config();
        if self.next_paper >= cfg.n_papers {
            return None;
        }
        while self.emitted_in_year >= self.year_counts[self.year_idx] {
            self.year_idx += 1;
            self.emitted_in_year = 0;
        }
        self.emitted_in_year += 1;
        let year = cfg.year_range.0 + self.year_idx as u16;
        let i = self.next_paper;
        self.next_paper += 1;

        let world = self.world;
        let rng = &mut self.rng;
        let domain = rng.gen_range(0..cfg.n_domains);
        let venue = pick_venue(world, domain, rng);
        let authors = self.picker.pick(domain, rng);
        let true_terms = pick_true_terms(world, domain, rng);
        let keywords = pick_keywords(world, domain, &true_terms, rng);
        let title_terms = make_title(world, domain, &true_terms, rng);
        let rate = citation_rate(world, domain, &authors, venue, &true_terms);
        let label = observe_label(cfg, rate, rng);
        let cites = pick_citations(cfg, &self.pools, domain, rng);
        self.pools[domain].push(i, 1.0 + rate);
        Some(Paper {
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
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.world.config().n_papers - self.next_paper;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Corpus;

    fn assert_papers_eq(a: &Paper, b: &Paper) {
        assert_eq!(a.domain, b.domain);
        assert_eq!(a.year, b.year);
        assert_eq!(a.authors, b.authors);
        assert_eq!(a.venue, b.venue);
        assert_eq!(a.true_terms, b.true_terms);
        assert_eq!(a.keywords, b.keywords);
        assert_eq!(a.title_terms, b.title_terms);
        assert_eq!(a.cites, b.cites);
        assert_eq!(a.rate.to_bits(), b.rate.to_bits());
        assert_eq!(a.label.to_bits(), b.label.to_bits());
    }

    #[test]
    fn compact_world_matches_latent_world() {
        let cfg = WorldConfig::tiny();
        let full = LatentWorld::generate(&cfg);
        let compact = CompactWorld::generate(&cfg);
        assert_eq!(full.n_authors(), compact.n_authors());
        assert_eq!(full.n_venues(), compact.n_venues());
        for a in 0..full.n_authors() {
            assert_eq!(full.author_primary(a), compact.author_primary(a));
            assert_eq!(full.author_secondary(a), compact.author_secondary(a));
            assert_eq!(
                full.author_productivity(a).to_bits(),
                compact.author_productivity(a).to_bits()
            );
            for d in 0..cfg.n_domains {
                assert_eq!(
                    full.author_prestige_in(a, d).to_bits(),
                    compact.author_prestige_in(a, d).to_bits()
                );
            }
        }
        for v in 0..full.n_venues() {
            assert_eq!(full.venue_domain(v), compact.venue_domain(v));
            assert_eq!(
                full.venue_authority(v).to_bits(),
                compact.venue_authority(v).to_bits()
            );
        }
        for t in 0..cfg.total_terms() {
            assert_eq!(
                full.term_impact(t).to_bits(),
                compact.term_impact(t).to_bits()
            );
        }
    }

    #[test]
    fn streaming_over_compact_world_matches_in_memory_corpus() {
        let cfg = WorldConfig::tiny();
        let in_memory = Corpus::generate(&LatentWorld::generate(&cfg));
        let compact = CompactWorld::generate(&cfg);
        let streamed: Vec<Paper> = PaperStream::exact(&compact).collect();
        assert_eq!(in_memory.papers.len(), streamed.len());
        for (a, b) in in_memory.papers.iter().zip(&streamed) {
            assert_papers_eq(a, b);
        }
    }

    #[test]
    fn windowed_stream_is_deterministic_and_backward_citing() {
        let cfg = WorldConfig::tiny();
        let world = CompactWorld::generate(&cfg);
        let a: Vec<Paper> = PaperStream::windowed(&world, 32).collect();
        let b: Vec<Paper> = PaperStream::windowed(&world, 32).collect();
        assert_eq!(a.len(), cfg.n_papers);
        for (x, y) in a.iter().zip(&b) {
            assert_papers_eq(x, y);
        }
        for (i, p) in a.iter().enumerate() {
            for &c in &p.cites {
                assert!(c < i, "paper {i} cites later paper {c}");
            }
        }
    }

    #[test]
    fn windowed_pools_bound_generator_memory() {
        let small = WorldConfig {
            n_papers: 500,
            ..WorldConfig::tiny()
        };
        let big = WorldConfig {
            n_papers: 5000,
            ..WorldConfig::tiny()
        };
        let ws = CompactWorld::generate(&small);
        let wb = CompactWorld::generate(&big);
        let mut ss = PaperStream::windowed(&ws, 64);
        let mut sb = PaperStream::windowed(&wb, 64);
        ss.by_ref().for_each(drop);
        sb.by_ref().for_each(drop);
        // 10x papers, same bounded working set (same world knobs).
        assert_eq!(ss.heap_bytes(), sb.heap_bytes());
        // Exact pools, by contrast, grow linearly.
        let mut es = PaperStream::exact(&ws);
        let mut eb = PaperStream::exact(&wb);
        es.by_ref().for_each(drop);
        eb.by_ref().for_each(drop);
        assert!(eb.heap_bytes() > es.heap_bytes());
    }

    #[test]
    fn bounded_pool_ring_replaces_oldest() {
        let mut p = BoundedPool::new(4);
        for i in 0..10 {
            p.push(i, 1.0);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..200 {
            let s = p.sample(&mut rng).unwrap();
            assert!((6..10).contains(&s), "sampled evicted paper {s}");
        }
    }
}
