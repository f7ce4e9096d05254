//! Property tests for the streaming generator: `Corpus::generate` must
//! equal a full exact-stream drain, and the windowed scale mode must
//! diverge from exact mode in the citation lists *only* (every other
//! paper field is on the same RNG stream and stays bitwise-identical).

use dblp_sim::{Corpus, LatentWorld, PaperStream, WorldConfig};
use proptest::prelude::*;

/// A miniature world sized for per-case generation inside proptest.
fn small_cfg(n_papers: usize, n_domains: usize, seed: u64) -> WorldConfig {
    WorldConfig {
        n_papers,
        n_domains,
        seed,
        n_authors: 12,
        n_venues: 6,
        ..WorldConfig::tiny()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The in-memory corpus is *defined* as an exact-stream drain; pin
    /// that equality so a refactor cannot silently fork the two paths.
    #[test]
    fn corpus_equals_exact_stream_drain(
        n_papers in 1usize..100,
        seed in 0u64..1000,
    ) {
        let cfg = small_cfg(n_papers, 3, seed);
        let world = LatentWorld::generate(&cfg);
        let corpus = Corpus::generate(&world);
        let streamed: Vec<_> = PaperStream::exact(&world).collect();
        prop_assert_eq!(corpus.papers.len(), streamed.len());
        for (a, b) in corpus.papers.iter().zip(&streamed) {
            prop_assert_eq!(&a.cites, &b.cites);
            prop_assert_eq!(a.label.to_bits(), b.label.to_bits());
        }
    }

    /// Windowed mode is a citation-pool approximation and nothing else:
    /// both pool kinds consume one RNG draw per sampled reference, so
    /// every non-citation field stays bitwise-identical to exact mode,
    /// and windowed citations still point strictly backwards in time.
    #[test]
    fn windowed_mode_diverges_only_in_citations(
        n_papers in 1usize..120,
        window in 1usize..40,
        seed in 0u64..1000,
    ) {
        let cfg = small_cfg(n_papers, 3, seed);
        let world = LatentWorld::generate(&cfg);
        let exact: Vec<_> = PaperStream::exact(&world).collect();
        let windowed: Vec<_> = PaperStream::windowed(&world, window).collect();
        prop_assert_eq!(exact.len(), windowed.len());
        for (i, (a, b)) in exact.iter().zip(&windowed).enumerate() {
            prop_assert_eq!(a.domain, b.domain);
            prop_assert_eq!(a.year, b.year);
            prop_assert_eq!(&a.authors, &b.authors);
            prop_assert_eq!(a.venue, b.venue);
            prop_assert_eq!(&a.true_terms, &b.true_terms);
            prop_assert_eq!(&a.keywords, &b.keywords);
            prop_assert_eq!(&a.title_terms, &b.title_terms);
            prop_assert_eq!(a.rate.to_bits(), b.rate.to_bits());
            prop_assert_eq!(a.label.to_bits(), b.label.to_bits());
            // Same number of accepted references modulo dedup is NOT
            // guaranteed, but causality is: citations only reach earlier
            // papers, in both modes.
            for &c in &a.cites {
                prop_assert!(c < i, "exact cite {c} must precede paper {i}");
            }
            for &c in &b.cites {
                prop_assert!(c < i, "windowed cite {c} must precede paper {i}");
            }
        }
    }

    /// The windowed generator's working set is bounded by the window, not
    /// the corpus: growing the paper count must not grow citation-pool
    /// memory once the window is saturated.
    #[test]
    fn windowed_pool_memory_is_independent_of_paper_count(
        window in 1usize..16,
        seed in 0u64..200,
    ) {
        let heap_after = |n_papers: usize| {
            let cfg = small_cfg(n_papers, 2, seed);
            let world = LatentWorld::generate(&cfg);
            let mut s = PaperStream::windowed(&world, window);
            for _ in &mut s {}
            s.heap_bytes()
        };
        // Both corpora saturate the window; entity tables are identical
        // because the config only differs in n_papers through year
        // histogram size, which is span-bounded, so the working set must
        // not grow with the corpus.
        prop_assert!(heap_after(160) <= heap_after(40) + 64);
    }
}

/// The windowed stream's working set (year histogram, author tables and
/// citation pools) grows sublinearly in the paper count:
/// `WorldConfig::at_scale` grows the author tables ~sqrt(papers) and the
/// citation pools saturate at the window (the `ScaleOptions::at_scale`
/// one), so a 10x larger corpus may cost at most half of 10x the heap.
#[test]
fn generator_memory_grows_sublinearly_across_scale_tiers() {
    const WINDOW: usize = 4096;
    let heap = |n_papers: usize| {
        let world = LatentWorld::generate(&WorldConfig::at_scale(n_papers));
        let mut stream = PaperStream::windowed(&world, WINDOW);
        let emitted = (&mut stream).count();
        assert_eq!(emitted, n_papers, "stream must emit every configured paper");
        stream.heap_bytes()
    };
    let (small, large) = (10_000, 100_000);
    let paper_ratio = large as f64 / small as f64;
    let mem_ratio = heap(large) as f64 / heap(small) as f64;
    assert!(
        mem_ratio <= 0.5 * paper_ratio,
        "generator memory grew {mem_ratio:.2}x for {paper_ratio:.0}x more papers"
    );
}
