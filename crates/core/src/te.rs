//! Text-enhancing module (Sec. III-E): MLM bootstrap of quality terms from
//! research-domain names (Eq. 23), TF-IDF paper-term link construction
//! (Eq. 24), and adaptive refinement through impact-based voting
//! (Sec. III-E2).

use dblp_sim::Dataset;
use std::collections::{BTreeMap, BTreeSet};
use textmine::{SimBert, TfIdf, TokenId};

/// The TE module state: a masked-LM oracle over the dataset vocabulary and
/// the current per-cluster quality-term sets `T_k`.
#[derive(Clone, Debug)]
pub struct TextEnhancer {
    simbert: SimBert,
    /// Query token for each domain name (index = domain = cluster id).
    domain_queries: Vec<Option<TokenId>>,
    /// IDF of every vocabulary token over the raw title corpus — the
    /// "statistical importance" signal reused during voting (Sec. III-E2).
    idf: Vec<f32>,
    /// Current quality-term sets, one per cluster.
    pub term_sets: Vec<Vec<TokenId>>,
}

impl TextEnhancer {
    /// Trains the masked-LM oracle on the dataset's raw title text.
    pub fn new(ds: &Dataset, n_clusters: usize, mlm_dim: usize, seed: u64) -> Self {
        let freqs: Vec<u64> = (0..ds.vocab.len())
            .map(|i| ds.vocab.count(TokenId(i as u32)))
            .collect();
        let simbert = SimBert::train(&ds.docs, &freqs, mlm_dim, seed);
        let tfidf = TfIdf::fit(&ds.docs);
        let idf: Vec<f32> = (0..ds.vocab.len())
            .map(|i| tfidf.idf(TokenId(i as u32)))
            .collect();
        let n_domains = ds.world.config.n_domains;
        let domain_queries = (0..n_clusters)
            .map(|k| {
                if k < n_domains {
                    ds.vocab.get(ds.world.config.domain_name(k))
                } else {
                    None
                }
            })
            .collect();
        TextEnhancer {
            simbert,
            domain_queries,
            idf,
            term_sets: vec![Vec::new(); n_clusters],
        }
    }

    /// Cluster-oriented term initialisation (Sec. III-E1): bootstrap the
    /// top-`kappa` MLM predictions for each domain name.
    pub fn bootstrap(&mut self, kappa: usize) {
        for (set, q) in self.term_sets.iter_mut().zip(&self.domain_queries) {
            *set = match q {
                Some(tok) => self
                    .simbert
                    .predict_masked(*tok, kappa)
                    .into_iter()
                    .map(|(u, _)| u)
                    .collect(),
                None => Vec::new(),
            };
        }
    }

    /// Ablation variant of the initialisation (Fig. 4a, "no init"): start
    /// from the papers' given keyword terms like the baselines do, bucketing
    /// each keyword under its most similar domain name by MLM embedding.
    pub fn bootstrap_from_keywords(&mut self, ds: &Dataset) {
        let world_to_local = ds.world_to_local_terms();
        let mut seen: BTreeSet<TokenId> = BTreeSet::new();
        for p in &ds.papers {
            for w in &p.keywords {
                if let Some(&l) = world_to_local.get(w) {
                    seen.insert(TokenId(l as u32));
                }
            }
        }
        for set in &mut self.term_sets {
            set.clear();
        }
        let emb = self.simbert.embeddings();
        for tok in seen {
            let mut best = 0usize;
            let mut best_sim = f32::NEG_INFINITY;
            for (k, q) in self.domain_queries.iter().enumerate() {
                if let Some(dq) = q {
                    let sim = emb.cosine(tok, *dq);
                    if sim > best_sim {
                        best_sim = sim;
                        best = k;
                    }
                }
            }
            self.term_sets[best].push(tok);
        }
    }

    /// The union of all cluster term sets.
    pub fn active_terms(&self) -> BTreeSet<TokenId> {
        self.term_sets.iter().flatten().copied().collect()
    }

    /// Rebuilds the paper-term links of `ds` from the raw title text
    /// restricted to the active term set, weighted by TF-IDF (Eq. 24) or
    /// uniformly when `use_tfidf` is false (Fig. 4a ablation).
    pub fn relink(&self, ds: &mut Dataset, use_tfidf: bool) {
        let active = self.active_terms();
        let filtered: Vec<Vec<TokenId>> = ds
            .docs
            .iter()
            .map(|doc| doc.iter().filter(|t| active.contains(t)).copied().collect())
            .collect();
        let tfidf = TfIdf::fit(&filtered);
        let mut contains = Vec::new();
        let mut contained_in = Vec::new();
        for (i, doc) in filtered.iter().enumerate() {
            let weights = if use_tfidf {
                tfidf.weights(doc)
            } else {
                let mut distinct: Vec<TokenId> = doc.clone();
                distinct.sort();
                distinct.dedup();
                distinct.into_iter().map(|t| (t, 1.0)).collect()
            };
            for (tok, w) in weights {
                if w <= 0.0 {
                    continue;
                }
                let pn = ds.paper_nodes[i];
                let tn = ds.term_nodes[tok.index()];
                contains.push((pn, tn, w));
                contained_in.push((tn, pn, w));
            }
        }
        ds.graph.replace_links(ds.link_types.contains, &contains);
        ds.graph
            .replace_links(ds.link_types.contained_in, &contained_in);
    }

    /// Adaptive term refinement through impact-based voting (Sec. III-E2).
    ///
    /// `impact[t]` is the model's current impact estimate `y_hat^(L)` for
    /// active term `t`. Following the paper, the voters of cluster `k` are
    /// the members of the *current* set `T_k^t` ("we allow each term
    /// `u in T_k^t` to vote"): each votes for its top-`kappa` MLM neighbors
    /// `T(u)` with weight `y_hat_u`, the union is IDF-reweighted and cut
    /// back to `|T_k|`. `cluster` (the model's hard assignments) is kept
    /// for diagnostics and possible strategies but intentionally does not
    /// regroup voters — early-training assignments drift and would destroy
    /// set identities.
    pub fn refine(
        &mut self,
        impact: &BTreeMap<TokenId, f32>,
        cluster: &BTreeMap<TokenId, usize>,
        kappa: usize,
    ) {
        let _ = cluster;
        let groups: Vec<Vec<TokenId>> = self.term_sets.clone();
        for (k, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Fixed budget: the refined set replaces, not grows, T_k.
            let target_size = self.term_sets[k].len();
            // Vote weights are the voters' impact estimates shifted to be
            // positive within the group: the regressor's output is an
            // unanchored affine score, so its absolute sign carries no
            // meaning — only the ordering among voters does.
            let raw: Vec<f32> = group
                .iter()
                .map(|u| impact.get(u).copied().unwrap_or(0.0))
                .collect();
            let min = raw.iter().cloned().fold(f32::INFINITY, f32::min).min(0.0);
            let mut votes: BTreeMap<TokenId, f32> = BTreeMap::new();
            for (&u, &r) in group.iter().zip(&raw) {
                let w = r - min + 0.05;
                // Terms keep voting for themselves with their own impact so
                // that genuinely impactful members survive the re-ranking.
                *votes.entry(u).or_insert(0.0) += w;
                for (v, p) in self.simbert.predict_masked(u, kappa) {
                    *votes.entry(v).or_insert(0.0) += w * p;
                }
            }
            // Statistical-importance reweighting (Sec. III-E2 reuses
            // TF-IDF): ubiquitous terms (low IDF) are poor quality terms
            // regardless of their vote mass. Candidates are additionally
            // anchored to the cluster's domain-name context (the weak
            // supervision TE is built on) so that repeated refinement
            // rounds cannot drift a domain's set into its neighbors'
            // vocabulary.
            let anchor = self.domain_queries.get(k).copied().flatten();
            let emb = self.simbert.embeddings();
            // Domain-name tokens are the weak supervision vocabulary, not
            // candidate quality terms: every voter's MLM list contains
            // them, so without this filter they crowd out real terms.
            let is_domain_name =
                |t: &TokenId| self.domain_queries.iter().any(|q| q.as_ref() == Some(t));
            let mut ranked: Vec<(TokenId, f32)> = votes
                .into_iter()
                .filter(|(t, _)| !is_domain_name(t))
                .map(|(t, w)| {
                    let idf = self.idf.get(t.index()).copied().unwrap_or(0.0);
                    let dom = match anchor {
                        Some(q) => (emb.cosine(t, q) + 1.0) / 2.0,
                        None => 1.0,
                    };
                    (t, w * idf * dom * dom)
                })
                .collect();
            // Deterministic order: by vote weight desc, token id asc.
            ranked.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            ranked.truncate(target_size);
            self.term_sets[k] = ranked.into_iter().map(|(t, _)| t).collect();
        }
    }

    /// Fig. 5 evaluation: per cluster, the fraction of mined terms that are
    /// ground-truth quality terms of the matching domain.
    pub fn term_precision(&self, ds: &Dataset) -> Vec<f32> {
        let n_domains = ds.world.config.n_domains;
        self.term_sets
            .iter()
            .enumerate()
            .map(|(k, set)| {
                if k >= n_domains || set.is_empty() {
                    return 0.0;
                }
                let hits = set
                    .iter()
                    .filter(|t| {
                        let w = ds.term_world_idx[t.index()];
                        ds.world.terms[w].kind == dblp_sim::TermKind::Quality { domain: k }
                    })
                    .count();
                hits as f32 / set.len() as f32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dblp_sim::WorldConfig;

    fn setup() -> (Dataset, TextEnhancer) {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let te = TextEnhancer::new(&ds, 4, 24, 3);
        (ds, te)
    }

    #[test]
    fn bootstrap_finds_domain_relevant_terms() {
        let (ds, mut te) = setup();
        te.bootstrap(15);
        // Every real domain got terms; the extra cluster stays empty.
        for k in 0..3 {
            assert!(!te.term_sets[k].is_empty(), "domain {k} empty");
        }
        assert!(te.term_sets[3].is_empty());
        // Bootstrapped sets should be enriched in the right domain's
        // quality terms relative to chance.
        let prec = te.term_precision(&ds);
        let avg: f32 = prec[..3].iter().sum::<f32>() / 3.0;
        let chance = ds.world.config.quality_terms_per_domain as f32 / ds.vocab.len() as f32;
        assert!(avg > 3.0 * chance, "avg precision {avg} vs chance {chance}");
    }

    #[test]
    fn relink_restricts_links_to_active_terms() {
        let (mut ds, mut te) = setup();
        te.bootstrap(10);
        te.relink(&mut ds, true);
        let active = te.active_terms();
        for (_, t, w) in ds.graph.iter_links(ds.link_types.contains) {
            assert!(w > 0.0);
            let local = ds.term_nodes.iter().position(|&n| n == t).unwrap();
            assert!(active.contains(&TokenId(local as u32)));
        }
    }

    #[test]
    fn relink_uniform_weights_when_tfidf_off() {
        let (mut ds, mut te) = setup();
        te.bootstrap(10);
        te.relink(&mut ds, false);
        for (_, _, w) in ds.graph.iter_links(ds.link_types.contains) {
            assert_eq!(w, 1.0);
        }
    }

    #[test]
    fn keyword_bootstrap_covers_keyword_tokens() {
        let (ds, mut te) = setup();
        te.bootstrap_from_keywords(&ds);
        let active = te.active_terms();
        assert!(!active.is_empty());
        // All active tokens come from keyword lists.
        let world_to_local = ds.world_to_local_terms();
        let kw: BTreeSet<TokenId> = ds
            .papers
            .iter()
            .flat_map(|p| p.keywords.iter())
            .filter_map(|w| world_to_local.get(w).map(|&l| TokenId(l as u32)))
            .collect();
        assert!(active.is_subset(&kw));
    }

    #[test]
    fn refinement_with_quality_oracle_improves_precision() {
        let (ds, mut te) = setup();
        te.bootstrap(12);
        let before: f32 = te.term_precision(&ds)[..3].iter().sum();
        // Oracle impact: ground-truth quality terms get high impact.
        let mut impact = BTreeMap::new();
        let mut cluster = BTreeMap::new();
        for (l, &w) in ds.term_world_idx.iter().enumerate() {
            let tok = TokenId(l as u32);
            if let dblp_sim::TermKind::Quality { domain } = ds.world.terms[w].kind {
                impact.insert(tok, 5.0);
                cluster.insert(tok, domain);
            } else {
                impact.insert(tok, 0.1);
            }
        }
        for _ in 0..3 {
            te.refine(&impact, &cluster, 12);
        }
        let after: f32 = te.term_precision(&ds)[..3].iter().sum();
        // Allow tiny churn from MLM-suggested near-misses, but oracle
        // guidance must keep precision essentially intact and far above
        // chance.
        assert!(
            after >= before - 0.1,
            "oracle-guided refinement must not hurt: {after} < {before}"
        );
        let chance = ds.world.config.quality_terms_per_domain as f32 / ds.vocab.len() as f32;
        assert!(
            after / 3.0 > 5.0 * chance,
            "precision {after} too close to chance"
        );
    }

    #[test]
    fn refine_preserves_set_sizes_at_least() {
        let (_ds, mut te) = setup();
        te.bootstrap(8);
        let sizes: Vec<usize> = te.term_sets.iter().map(Vec::len).collect();
        let impact = BTreeMap::new();
        let cluster = BTreeMap::new();
        te.refine(&impact, &cluster, 8);
        for (k, set) in te.term_sets.iter().enumerate() {
            if sizes[k] > 0 {
                assert!(!set.is_empty(), "cluster {k} lost all terms");
            }
        }
    }
}
