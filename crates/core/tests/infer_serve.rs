//! Equivalence and staleness gates for the tape-free inference engine:
//! the no-tape paths must be bitwise-identical to the tape-based forward
//! at every thread count, and the serving embedding cache must never
//! answer from stale state.

use catehgn::config::ModelConfig;
use catehgn::model::CateHgn;
use catehgn::serve::{rank_desc, Recommendation, ServeEngine, ServeError};
use dblp_sim::{Dataset, WorldConfig};
use hetgraph::{NodeId, NodeTypeId, ShardStore};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use tensor::Tensor;

fn fixture() -> &'static (CateHgn, Dataset) {
    static FIX: OnceLock<(CateHgn, Dataset)> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = Dataset::full(&WorldConfig::tiny(), 8);
        let model = CateHgn::new(
            ModelConfig::test_tiny(),
            ds.features.cols(),
            ds.graph.schema().num_node_types(),
            ds.graph.schema().num_link_types(),
        );
        (model, ds)
    })
}

/// Serialises the tests that set the process-wide tensor thread count,
/// so each runs at the counts it names.
static THREADS: Mutex<()> = Mutex::new(());

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn tape_free_paths_match_tape_bitwise_across_thread_counts() {
    let (model, ds) = fixture();
    let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(20).copied().collect();
    let mut reference: Option<Vec<u32>> = None;
    let _guard = THREADS
        .lock()
        .expect("no test panics while holding the lock");
    for threads in [1usize, 2, 4] {
        tensor::par::set_num_threads(threads);
        let free = model.predict(&ds.graph, &ds.features, &seeds, 17);
        let taped = model.predict_taped(&ds.graph, &ds.features, &seeds, 17);
        assert_eq!(
            bits(&free),
            bits(&taped),
            "predict diverged at {threads} threads"
        );
        match &reference {
            Some(r) => assert_eq!(r, &bits(&free), "predict differs across thread counts"),
            None => reference = Some(bits(&free)),
        }

        let ef = model.embed(&ds.graph, &ds.features, &seeds, 17);
        let et = model.embed_taped(&ds.graph, &ds.features, &seeds, 17);
        assert_eq!(ef.len(), et.len());
        for (a, b) in ef.iter().zip(&et) {
            assert_eq!(
                bits(a.as_slice()),
                bits(b.as_slice()),
                "embed diverged at {threads} threads"
            );
        }

        let inf = model.impact_and_cluster(&ds.graph, &ds.features, &seeds, 17);
        let tap = model.impact_and_cluster_taped(&ds.graph, &ds.features, &seeds, 17);
        let ib: Vec<(u32, usize)> = inf.iter().map(|&(y, c)| (y.to_bits(), c)).collect();
        let tb: Vec<(u32, usize)> = tap.iter().map(|&(y, c)| (y.to_bits(), c)).collect();
        assert_eq!(ib, tb, "impact_and_cluster diverged at {threads} threads");
    }
    tensor::par::set_num_threads(0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn predict_tape_free_is_bitwise_identical_to_tape(seed in 0u64..u64::MAX, n in 1usize..24) {
        let (model, ds) = fixture();
        let seeds: Vec<NodeId> = ds.paper_nodes.iter().take(n).copied().collect();
        let free = model.predict(&ds.graph, &ds.features, &seeds, seed);
        let taped = model.predict_taped(&ds.graph, &ds.features, &seeds, seed);
        prop_assert_eq!(bits(&free), bits(&taped));
    }

    #[test]
    fn embed_tape_free_is_bitwise_identical_to_tape(seed in 0u64..u64::MAX, n in 1usize..24) {
        let (model, ds) = fixture();
        let seeds: Vec<NodeId> = ds.term_nodes.iter().take(n).copied().collect();
        let free = model.embed(&ds.graph, &ds.features, &seeds, seed);
        let taped = model.embed_taped(&ds.graph, &ds.features, &seeds, seed);
        prop_assert_eq!(free.len(), taped.len());
        for (a, b) in free.iter().zip(&taped) {
            prop_assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
        }
    }
}

/// A fresh dataset whose graph the test owns (and may mutate).
fn owned_dataset() -> Dataset {
    Dataset::full(&WorldConfig::tiny(), 8)
}

#[test]
fn graph_mutation_invalidates_cache_and_stale_is_never_served() {
    let (model, _) = fixture();
    let mut ds = owned_dataset();
    let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(12).copied().collect();
    let mut eng = ServeEngine::new(model, 23);

    let before = eng
        .recommend(&ds.graph, &ds.features, &candidates, candidates[0], 5)
        .unwrap();
    assert_eq!(eng.stats().cache_rebuilds, 1);
    let _ = eng
        .recommend(&ds.graph, &ds.features, &candidates, candidates[1], 5)
        .unwrap();
    assert_eq!(
        eng.stats().cache_rebuilds,
        1,
        "unchanged graph must hit the cache"
    );

    // Mutate the graph: drop every paper-term containment link. The stamp
    // and the content fingerprint both change.
    let stamp_before = ds.graph.sampling_stamp();
    ds.graph.replace_links(ds.link_types.contains, &[]);
    ds.graph.replace_links(ds.link_types.contained_in, &[]);
    assert_ne!(ds.graph.sampling_stamp(), stamp_before);

    let after = eng
        .recommend(&ds.graph, &ds.features, &candidates, candidates[0], 5)
        .unwrap();
    assert_eq!(
        eng.stats().cache_rebuilds,
        2,
        "mutation must rebuild the cache"
    );

    // The answer must equal what a cold engine computes on the mutated
    // graph — i.e. the stale cache contributed nothing.
    let mut cold = ServeEngine::new(model, 23);
    let fresh = cold
        .recommend(&ds.graph, &ds.features, &candidates, candidates[0], 5)
        .unwrap();
    assert_eq!(
        after, fresh,
        "post-mutation answer must come from fresh embeddings"
    );
    // (And the mutation actually changed the ranking inputs.)
    let scores_changed = before
        .iter()
        .zip(&after)
        .any(|(a, b)| a.node != b.node || a.score.to_bits() != b.score.to_bits());
    assert!(
        scores_changed,
        "dropping all term links should perturb recommendations"
    );
}

#[test]
fn content_equal_graph_reload_keeps_cache_warm() {
    let (model, _) = fixture();
    let ds1 = owned_dataset();
    let ds2 = owned_dataset(); // same config => identical content, new stamp
    assert_ne!(ds1.graph.sampling_stamp(), ds2.graph.sampling_stamp());
    assert_eq!(
        ds1.graph.content_fingerprint(),
        ds2.graph.content_fingerprint()
    );

    let candidates: Vec<NodeId> = ds1.paper_nodes.iter().take(10).copied().collect();
    let mut eng = ServeEngine::new(model, 29);
    let r1 = eng
        .recommend(&ds1.graph, &ds1.features, &candidates, candidates[0], 4)
        .unwrap();
    assert_eq!(eng.stats().cache_rebuilds, 1);
    let r2 = eng
        .recommend(&ds2.graph, &ds2.features, &candidates, candidates[0], 4)
        .unwrap();
    assert_eq!(
        eng.stats().cache_rebuilds,
        1,
        "content-equal reload must revalidate, not rebuild"
    );
    assert_eq!(r1, r2);
}

/// A ranking as exact bits, so NaN and signed-zero scores compare too.
fn rank_bits(r: &[Recommendation]) -> Vec<(u32, u32)> {
    r.iter().map(|r| (r.node.0, r.score.to_bits())).collect()
}

/// `recommend_batch` ranks exactly as a brute-force full sort would: every
/// candidate scored against the query's row of the taped last-layer
/// embeddings, the query itself excluded, ordered by `rank_desc` — bitwise
/// and at 1, 2 and 4 tensor threads.
#[test]
fn recommend_batch_matches_brute_force_ranking_over_taped_embeddings() {
    const K: usize = 10;
    let (model, ds) = fixture();
    let candidates = ds.paper_nodes.clone();
    let queries: Vec<NodeId> = candidates.iter().step_by(11).take(16).copied().collect();
    let emb = model
        .embed_taped(&ds.graph, &ds.features, &candidates, 41)
        .pop()
        .expect("the model has at least one layer");
    let expected: Vec<Vec<(u32, u32)>> = queries
        .iter()
        .map(|&q| {
            let row = candidates
                .iter()
                .position(|&c| c == q)
                .expect("query is a candidate");
            let scores = Tensor::from_vec(1, emb.cols(), emb.row(row).to_vec()).matmul_tb(&emb);
            let mut recs: Vec<Recommendation> = candidates
                .iter()
                .zip(scores.row(0))
                .filter(|&(&node, _)| node != q)
                .map(|(&node, &score)| Recommendation { node, score })
                .collect();
            recs.sort_by(rank_desc);
            recs.truncate(K);
            rank_bits(&recs)
        })
        .collect();
    let _guard = THREADS
        .lock()
        .expect("no test panics while holding the lock");
    for threads in [1usize, 2, 4] {
        tensor::par::set_num_threads(threads);
        let got = ServeEngine::new(model, 41)
            .recommend_batch(&ds.graph, &ds.features, &candidates, &queries, K)
            .expect("well-formed request");
        tensor::par::set_num_threads(0);
        let got: Vec<Vec<(u32, u32)>> = got.iter().map(|r| rank_bits(r)).collect();
        assert_eq!(got, expected, "top-{K} diverged at {threads} threads");
    }
}

/// An in-place edit of one finite feature value invalidates the cache, at
/// either end of the matrix and for a sign-only change, and the answer is
/// the one a fresh engine gives on the edited data. Content-equal features
/// in a different tensor keep the cache warm.
#[test]
fn in_place_feature_edits_invalidate_cache() {
    // Width 7: the matrix length is not a multiple of a 16-value block,
    // so the last value sits in the tail of any such blocking.
    let ds = Dataset::full(&WorldConfig::tiny(), 7);
    let model = CateHgn::new(
        ModelConfig::test_tiny(),
        ds.features.cols(),
        ds.graph.schema().num_node_types(),
        ds.graph.schema().num_link_types(),
    );
    let len = ds.features.as_slice().len();
    assert_ne!(len % 16, 0, "the last value must fall outside whole blocks");
    let zero = ds
        .features
        .as_slice()
        .iter()
        .position(|v| v.to_bits() == 0)
        .expect("the fixture has a +0.0 feature");
    let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(12).copied().collect();
    let query = |eng: &mut ServeEngine, f: &Tensor| {
        let r = eng.recommend(&ds.graph, f, &candidates, candidates[0], 5);
        rank_bits(&r.unwrap())
    };

    let mut eng = ServeEngine::new(&model, 37);
    let original = query(&mut eng, &ds.features);
    let mut feats = ds.features.clone();
    assert_eq!(query(&mut eng, &feats), original);
    assert_eq!(
        (eng.stats().cache_rebuilds, eng.stats().cache_hits),
        (1, 1),
        "content-equal features are a hit"
    );
    let first = feats.as_slice()[0];
    let last = feats.as_slice()[len - 1];
    for (pos, edited) in [(0, first + 1.0), (len - 1, last * 2.0 + 0.5), (zero, -0.0)] {
        let old = feats.as_slice()[pos];
        assert_ne!(old.to_bits(), edited.to_bits());
        let rebuilds = eng.stats().cache_rebuilds;
        feats.as_mut_slice()[pos] = edited;
        let got = query(&mut eng, &feats);
        assert_eq!(
            eng.stats().cache_rebuilds,
            rebuilds + 1,
            "editing value {pos} must rebuild"
        );
        let fresh = query(&mut ServeEngine::new(&model, 37), &feats);
        assert_eq!(got, fresh, "answer after editing value {pos} is stale");

        // Restoring the value rebuilds back to the original answer, and
        // the untouched original matrix is then a hit.
        feats.as_mut_slice()[pos] = old;
        assert_eq!(query(&mut eng, &feats), original);
        assert_eq!(eng.stats().cache_rebuilds, rebuilds + 2);
        let hits = eng.stats().cache_hits;
        assert_eq!(query(&mut eng, &ds.features), original);
        assert_eq!(eng.stats().cache_rebuilds, rebuilds + 2);
        assert_eq!(
            eng.stats().cache_hits,
            hits + 1,
            "restored values are a hit"
        );
    }
}

/// A scratch shard directory under the OS temp dir, cleaned before use.
fn shard_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("catehgn-infer-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The cache-degradation gate: after a failed shard reload the engine
/// keeps answering from the last-good resident graph and warm cache, but
/// every such answer is flagged — stale embeddings are never served
/// without the degraded marker.
#[test]
fn failed_reload_serves_last_good_graph_flagged_degraded() {
    let (model, _) = fixture();
    let ds = owned_dataset();
    let candidates: Vec<NodeId> = ds.paper_nodes.iter().take(12).copied().collect();
    let dir = shard_dir("degraded");
    ShardStore::write(&dir, &ds.graph).unwrap();
    let store = ShardStore::open(&dir).unwrap();

    let mut eng = ServeEngine::new(model, 31);
    eng.install_resident(ds.graph.clone(), ds.features.clone())
        .unwrap();
    let healthy = eng
        .recommend_batch_resident(&candidates, &candidates[..2], 4)
        .unwrap();
    assert!(!eng.degraded());
    assert_eq!(eng.stats().degraded_queries, 0);
    let rebuilds = eng.stats().cache_rebuilds;

    // Corrupt one on-disk segment; the next reload must fail typed.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n.starts_with("seg-") && n.ends_with(".hgs")
        })
        .unwrap();
    let mut bytes = std::fs::read(&seg).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&seg, bytes).unwrap();

    match eng.reload_resident(&store) {
        Err(ServeError::Reload(_)) => {}
        other => panic!("expected Reload error, got {other:?}"),
    }
    assert!(eng.degraded(), "failed reload must flip the degraded flag");
    assert_eq!(eng.stats().reload_failures, 1);

    // Still serving: identical answers from the warm cache, but flagged.
    let stale = eng
        .recommend_batch_resident(&candidates, &candidates[..2], 4)
        .unwrap();
    assert_eq!(
        stale, healthy,
        "degraded answers come from the last-good graph"
    );
    assert_eq!(
        eng.stats().cache_rebuilds,
        rebuilds,
        "degraded serving must not discard the warm cache"
    );
    assert_eq!(
        eng.stats().degraded_queries,
        2,
        "every degraded answer is counted"
    );

    // Repair the shard; a successful reload clears the flag.
    store.repair(&ds.graph).unwrap();
    eng.reload_resident(&store).unwrap();
    assert!(!eng.degraded());
    let fresh = eng
        .recommend_batch_resident(&candidates, &candidates[..2], 4)
        .unwrap();
    assert_eq!(fresh, healthy, "repaired reload serves identical content");
    assert_eq!(
        eng.stats().degraded_queries,
        2,
        "healthy answers are unflagged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch that repeats a seed answers once per requested seed, with the
/// same value the seed gets in a distinct-seed batch (the sampler dedups
/// the frontier, so both batches run the same forward pass).
#[test]
fn repeated_seeds_answer_once_per_request() {
    let (model, ds) = fixture();
    let (a, b, c) = (ds.paper_nodes[0], ds.paper_nodes[1], ds.paper_nodes[2]);
    let distinct = [a, b, c];
    let repeated = [a, b, a, c, b];
    let expand = |v: &[f32]| vec![v[0], v[1], v[0], v[2], v[1]];

    let p = model.predict(&ds.graph, &ds.features, &distinct, 5);
    let pr = model.predict(&ds.graph, &ds.features, &repeated, 5);
    assert_eq!(bits(&pr), bits(&expand(&p)), "predict");
    let pt = model.predict_taped(&ds.graph, &ds.features, &repeated, 5);
    assert_eq!(bits(&pt), bits(&pr), "taped predict");
    let same = model.predict(&ds.graph, &ds.features, &[a, a], 5);
    assert_eq!(bits(&same), bits(&[p[0], p[0]]), "predict [p, p]");

    let ic = model.impact_and_cluster(&ds.graph, &ds.features, &distinct, 9);
    let icr = model.impact_and_cluster(&ds.graph, &ds.features, &repeated, 9);
    let (ic0, ic1, ic2) = (ic[0], ic[1], ic[2]);
    assert_eq!(icr.len(), repeated.len());
    for (got, want) in icr.iter().zip([ic0, ic1, ic0, ic2, ic1]) {
        assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
    }

    let mut eng = ServeEngine::new(model, 3);
    let served = eng.predict(&ds.graph, &ds.features, &distinct).unwrap();
    let served_rep = eng.predict(&ds.graph, &ds.features, &repeated).unwrap();
    assert_eq!(
        bits(&served_rep),
        bits(&expand(&served)),
        "ServeEngine::predict"
    );
}

/// The feature matrix one call sends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Feats {
    Good,
    /// Three rows instead of one per node.
    Rows,
    /// One row per node, three columns too many.
    Wide,
    /// One row per node, no columns.
    Empty,
    /// The right shape with one NaN.
    Nan,
}

/// One engine call. A node is `(in_set, i)`: the `i`-th candidate, or a
/// node outside the candidate set (for `Predict`: outside the graph).
#[derive(Clone, Debug)]
enum Call {
    Batch(Vec<(bool, usize)>, usize),
    Predict(Vec<(bool, usize)>),
    /// Type id, feature-row width choice, NaN in the row.
    Cold(u8, usize, bool),
    Ensure(Feats),
}

impl Feats {
    /// Three of seven draws are well-formed.
    fn from_draw(d: u8) -> Self {
        match d {
            3 => Feats::Rows,
            4 => Feats::Wide,
            5 => Feats::Empty,
            6 => Feats::Nan,
            _ => Feats::Good,
        }
    }
}

/// Four of five drawn nodes are in the candidate set.
fn node((d, i): (u8, usize)) -> (bool, usize) {
    (d != 0, i)
}

/// The candidate set of one call: `size` distinct papers (1..=all) in an
/// order shuffled by `seed`.
fn candidate_set(papers: &[NodeId], seed: u64, size: usize) -> Vec<NodeId> {
    let mut set = papers.to_vec();
    let mut state = seed;
    for i in (1..set.len()).rev() {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        set.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    set.truncate(1 + size % papers.len());
    set
}

/// Batches reach 23 queries, and four of seven are drawn with every query
/// in the candidate set, so batches of any size must come back `Ok`.
fn call() -> impl Strategy<Value = Call> {
    let nodes = collection::vec((0u8..5, 0usize..64), 0..24);
    (0u8..4, 0u8..7, 0usize..64, nodes).prop_map(|(kind, d, i, nodes)| {
        let nodes: Vec<(bool, usize)> = nodes.into_iter().map(node).collect();
        match kind {
            0 if d < 4 => Call::Batch(nodes.into_iter().map(|(_, i)| (true, i)).collect(), i % 6),
            0 => Call::Batch(nodes, i % 6),
            1 => Call::Predict(if nodes.is_empty() {
                vec![(d != 0, i)]
            } else {
                nodes
            }),
            2 => Call::Cold(d, i % 4, i % 5 == 0),
            _ => Call::Ensure(Feats::from_draw(d)),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every call returns `Ok` or a typed error, exactly when the request
    /// data is valid, and the engine's counters account for every call:
    /// one error per `Err` and one query per ranking returned.
    #[test]
    fn serve_accounting_matches_the_calls_made(
        calls in collection::vec((call(), 0u64..u64::MAX, 0usize..usize::MAX), 1..14),
    ) {
        let (model, ds) = fixture();
        let (n, cols) = ds.features.shape();
        let types = model.enc.node_w.len();
        let mut nan = ds.features.clone();
        nan.as_mut_slice()[cols + 1] = f32::NAN;
        let variants = [
            (Feats::Good, ds.features.clone()),
            (Feats::Rows, Tensor::zeros(3, cols)),
            (Feats::Wide, Tensor::zeros(n, cols + 3)),
            (Feats::Empty, Tensor::zeros(n, 0)),
            (Feats::Nan, nan),
        ];
        let matrix = |f: Feats| &variants.iter().find(|v| v.0 == f).unwrap().1;
        let mut eng = ServeEngine::new(model, 7);
        let (mut errors, mut answers) = (0u64, 0u64);

        for (c, set_seed, set_size) in &calls {
            let candidates = candidate_set(&ds.paper_nodes, *set_seed, *set_size);
            // Graph nodes outside this call's candidate set: the papers it
            // left out and every non-paper node.
            let outsiders: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|v| !candidates.contains(v))
                .collect();
            let pick = |(in_set, i): (bool, usize)| {
                if in_set {
                    candidates[i % candidates.len()]
                } else {
                    outsiders[i % outsiders.len()]
                }
            };
            let (ok, answered, err) = match c {
                Call::Batch(qs, k) => {
                    let queries: Vec<NodeId> = qs.iter().map(|&q| pick(q)).collect();
                    let want = qs.iter().all(|q| q.0);
                    let r = eng.recommend_batch(&ds.graph, &ds.features, &candidates, &queries, *k);
                    if let Ok(v) = &r {
                        prop_assert_eq!(v.len(), queries.len());
                    }
                    (want, r.as_ref().map_or(0, Vec::len), r.err())
                }
                Call::Predict(ss) => {
                    let seeds: Vec<NodeId> = ss
                        .iter()
                        .map(|&(in_range, i)| if in_range { pick((true, i)) } else { NodeId((n + i) as u32) })
                        .collect();
                    let want = ss.iter().all(|s| s.0);
                    let r = eng.predict(&ds.graph, &ds.features, &seeds);
                    if let Ok(v) = &r {
                        prop_assert_eq!(v.len(), seeds.len());
                    }
                    (want, 0, r.err())
                }
                Call::Cold(ty, width, has_nan) => {
                    let width = [cols, cols, cols - 1, cols + 2][*width];
                    let mut row = ds.features.row(candidates[0].index()).to_vec();
                    row.resize(width, 0.5);
                    if *has_nan {
                        row[0] = f32::NAN;
                    }
                    let want = (*ty as usize) < types && width == cols && !has_nan;
                    let r = eng.cold_start(
                        &ds.graph,
                        &ds.features,
                        &candidates,
                        NodeTypeId(*ty),
                        &row,
                        3,
                    );
                    (want, usize::from(r.is_ok()), r.err())
                }
                Call::Ensure(f) => {
                    let r = eng.ensure_cache(&ds.graph, matrix(*f), &candidates);
                    (*f == Feats::Good, 0, r.err())
                }
            };
            prop_assert_eq!(err.is_none(), ok, "{:?} returned {:?}", c, err);
            answers += answered as u64;
            errors += u64::from(err.is_some());
            let s = eng.stats();
            prop_assert_eq!(s.errors, errors, "errors after {:?}", c);
            prop_assert_eq!(s.queries, answers, "queries after {:?}", c);
        }
    }
}
