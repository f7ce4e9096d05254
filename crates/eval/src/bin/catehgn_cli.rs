//! `catehgn` command-line interface: the end-to-end workflow a downstream
//! user needs — generate a dataset, train a model, predict citations, and
//! inspect the learned research domains — without writing any Rust.
//!
//! ```sh
//! catehgn_cli generate  --scale small --out ds-stats.json
//! catehgn_cli train     --scale small --variant cate-hgn --model model.json
//! catehgn_cli predict   --scale small --model model.json --top 10
//! catehgn_cli domains   --scale small --model model.json
//! catehgn_cli serve     --scale small --model model.json --batch 64
//! catehgn_cli recommend --scale small --model model.json --paper 3 --top 5
//! catehgn_cli shard write  --scale small --dir shards/small
//! catehgn_cli shard verify --dir shards/small
//! catehgn_cli shard repair --scale small --dir shards/small
//! ```
//!
//! The dataset is regenerated deterministically from the scale preset, so
//! only the trained weights need to be persisted. `train` with
//! `--checkpoint` installs a SIGTERM/SIGINT handler: a kill lands a final
//! atomic checkpoint and `--resume` continues bitwise.

use catehgn::resilience::fnv1a_f32;
use catehgn::{
    params_fingerprint, report_fingerprint, train_with, Ablation, CateHgn, ModelConfig,
    ServeEngine, ServeError, ShutdownToken, TrainOptions,
};
use dblp_sim::{Dataset, DatasetStats};
use eval::{ExperimentConfig, Scale};
use hetgraph::{FaultyIo, RetryPolicy, SegmentHealth, ShardStore};
use std::path::PathBuf;

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when a bare flag (no value) is present.
fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn usage() -> ! {
    eprintln!(
        "usage: catehgn_cli <generate|train|predict|domains|serve|recommend|shard> \
         [--scale tiny|small|full] [--variant hgn|ca-hgn|cate-hgn] \
         [--model FILE] [--out FILE] [--top N] \
         [--checkpoint FILE] [--checkpoint-every N] [--resume] [--halt-after N] \
         [--halt-after-ca N] [--lanes N] [--papers N] \
         [--batch N] [--paper I] [--cold] [--shard DIR] [--chaos SEED]\n       \
         catehgn_cli shard <write|verify|repair> --dir DIR [--scale ...]"
    );
    std::process::exit(2);
}

/// Unwraps a serving result, or reports the typed error and exits — the
/// CLI is the process boundary where degraded-mode errors become exit
/// codes instead of panics.
fn serve_ok<T>(r: Result<T, ServeError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("serve failed: {e}");
        std::process::exit(1);
    })
}

/// Opens a shard store, threading a seeded chaos fault plan through its
/// I/O when `--chaos SEED` is given (retries and `.prev` fallbacks must
/// absorb every injected fault without changing any answer).
fn open_store(dir: &std::path::Path) -> ShardStore {
    let opened = match arg("--chaos").and_then(|s| s.parse::<u64>().ok()) {
        Some(seed) => {
            ShardStore::open_with(dir, Box::new(FaultyIo::chaos(seed)), RetryPolicy::default())
        }
        None => ShardStore::open(dir),
    };
    opened.unwrap_or_else(|e| {
        eprintln!("shard open failed: {e}");
        std::process::exit(1);
    })
}

/// FNV-1a over the flattened `(node, score)` stream of a ranking batch:
/// one u64 that CI can diff between a clean run and a chaos run.
fn rankings_fingerprint(recs: &[Vec<catehgn::Recommendation>]) -> u64 {
    let flat: Vec<f32> = recs
        .iter()
        .flatten()
        .flat_map(|r| [r.node.0 as f32, r.score])
        .collect();
    fnv1a_f32(&flat)
}

fn build_dataset(cfg: &ExperimentConfig) -> Dataset {
    // `--papers N` overrides the scale preset with a streamed at-scale
    // world: bounded-memory generation with windowed citation pools (see
    // DESIGN.md, "Scale path"). Without it, the exact in-memory dataset
    // of the chosen preset is built as before.
    let result = match arg("--papers").and_then(|s| s.parse::<usize>().ok()) {
        Some(n) => Dataset::try_streamed(
            &dblp_sim::WorldConfig::at_scale(n),
            cfg.feat_dim,
            &dblp_sim::ScaleOptions::at_scale(),
        ),
        None => Dataset::try_full(&cfg.world, cfg.feat_dim),
    };
    result.unwrap_or_else(|e| {
        eprintln!("dataset construction failed: {e}");
        std::process::exit(1);
    })
}

fn variant_ablation(name: &str) -> Ablation {
    match name {
        "hgn" => Ablation::hgn_only(),
        "ca-hgn" => Ablation::ca_hgn(),
        "cate-hgn" => Ablation::default(),
        other => {
            eprintln!("unknown variant '{other}'");
            usage()
        }
    }
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    let scale = Scale::from_args();
    let cfg = ExperimentConfig::at_scale(scale);
    match cmd.as_str() {
        "generate" => {
            let ds = build_dataset(&cfg);
            let stats = DatasetStats::of(&ds);
            println!("{}", DatasetStats::header());
            println!("{}", stats.row());
            if let Some(out) = arg("--out") {
                let json = serde_json::to_string_pretty(&stats).expect("serialise stats");
                std::fs::write(&out, json).expect("write stats");
                eprintln!("wrote {out}");
            }
        }
        "train" => {
            let variant = arg("--variant").unwrap_or_else(|| "cate-hgn".into());
            let model_path =
                PathBuf::from(arg("--model").unwrap_or_else(|| "catehgn-model.json".into()));
            let mut ds = build_dataset(&cfg);
            let mcfg = ModelConfig {
                ablation: variant_ablation(&variant),
                n_clusters: cfg.model.n_clusters.min(ds.world.config.n_domains + 1),
                ..cfg.model.clone()
            };
            let mut model = CateHgn::new(
                mcfg,
                ds.features.cols(),
                ds.graph.schema().num_node_types(),
                ds.graph.schema().num_link_types(),
            );
            eprintln!(
                "training {variant} ({} weights) on {} ({} train papers)...",
                model.num_weights(),
                ds.name,
                ds.split.train.len()
            );
            let checkpoint_path = arg("--checkpoint").map(PathBuf::from);
            // Checkpointed runs get graceful shutdown for free: SIGTERM or
            // ctrl-C lands one final atomic snapshot at the next step
            // boundary and `--resume` continues the run bitwise.
            let shutdown = checkpoint_path.as_ref().map(|_| ShutdownToken::install());
            let mut opts = TrainOptions {
                checkpoint_path,
                checkpoint_every: arg("--checkpoint-every").and_then(|s| s.parse().ok()),
                resume: flag("--resume"),
                halt_after_steps: arg("--halt-after").and_then(|s| s.parse().ok()),
                halt_after_ca: arg("--halt-after-ca").and_then(|s| s.parse().ok()),
                data_lanes: arg("--lanes").and_then(|s| s.parse().ok()).unwrap_or(1),
                shutdown,
                ..TrainOptions::default()
            };
            let report = train_with(&mut model, &mut ds, &mut opts).unwrap_or_else(|e| {
                eprintln!("training failed: {e}");
                std::process::exit(1);
            });
            eprintln!("validation RMSE per round: {:?}", report.val_rmse);
            // Bitwise run identity, for kill-and-resume drills: equal
            // fingerprints mean equal parameter bits and loss traces.
            println!(
                "params_fingerprint=0x{:016x}",
                params_fingerprint(&model.params)
            );
            println!("report_fingerprint=0x{:016x}", report_fingerprint(&report));
            let interrupted = opts.shutdown.as_ref().is_some_and(|t| t.requested());
            if interrupted {
                eprintln!("shutdown requested; final checkpoint saved, skipping model save");
            } else if opts.halt_after_steps.is_some() || opts.halt_after_ca.is_some() {
                eprintln!("halted early (checkpoint drill); skipping model save");
            } else {
                model.save(&model_path).expect("save model");
                println!("saved {}", model_path.display());
            }
        }
        "predict" => {
            let model_path =
                PathBuf::from(arg("--model").unwrap_or_else(|| "catehgn-model.json".into()));
            let top: usize = arg("--top").and_then(|s| s.parse().ok()).unwrap_or(10);
            let ds = build_dataset(&cfg);
            let model = CateHgn::load(
                &model_path,
                ds.features.cols(),
                ds.graph.schema().num_node_types(),
                ds.graph.schema().num_link_types(),
            )
            .expect("load model");
            let seeds = ds.paper_nodes_of(&ds.split.test);
            let preds = model.predict(&ds.graph, &ds.features, &seeds, 0xC11);
            let truth = ds.labels_of(&ds.split.test);
            println!("test RMSE: {:.4}", catehgn::rmse(&preds, &truth));
            let mut ranked: Vec<(usize, f32)> = ds
                .split
                .test
                .iter()
                .copied()
                .zip(preds.iter().copied())
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            println!("top {top} predicted papers (pred vs actual cites/yr):");
            for (i, p) in ranked.into_iter().take(top) {
                println!("  paper #{i:<6} {:>7.2} vs {:>7.2}", p, ds.labels[i]);
            }
        }
        "serve" => {
            // Batched tape-free serving demo: answers the full test-split
            // impact workload through one persistent engine, then a top-K
            // recommendation sweep over the same engine's warm embedding
            // cache. Output is deterministic; throughput numbers live in
            // perfbench's `serve-query` workload.
            let model_path =
                PathBuf::from(arg("--model").unwrap_or_else(|| "catehgn-model.json".into()));
            let batch: usize = arg("--batch")
                .and_then(|s| s.parse().ok())
                .unwrap_or(64)
                .max(1);
            let top: usize = arg("--top").and_then(|s| s.parse().ok()).unwrap_or(5);
            let ds = build_dataset(&cfg);
            let model = CateHgn::load(
                &model_path,
                ds.features.cols(),
                ds.graph.schema().num_node_types(),
                ds.graph.schema().num_link_types(),
            )
            .expect("load model");
            // `--shard DIR` serves from the on-disk shard (optionally under
            // `--chaos SEED` fault injection) instead of the in-memory
            // graph; the shard carries the same content fingerprint, so
            // rankings must be identical either way.
            let graph = match arg("--shard") {
                Some(dir) => {
                    let store = open_store(&PathBuf::from(dir));
                    store.load_graph().unwrap_or_else(|e| {
                        eprintln!("shard load failed: {e}");
                        std::process::exit(1);
                    })
                }
                None => ds.graph.clone(),
            };
            let seeds = ds.paper_nodes_of(&ds.split.test);
            let mut eng = ServeEngine::new(&model, 0xC11);
            let mut preds = Vec::with_capacity(seeds.len());
            for chunk in seeds.chunks(batch) {
                preds.extend(serve_ok(eng.predict(&graph, &ds.features, chunk)));
            }
            let truth = ds.labels_of(&ds.split.test);
            println!(
                "served {} impact queries tape-free (batch size {batch})",
                seeds.len()
            );
            println!("test RMSE: {:.4}", catehgn::rmse(&preds, &truth));
            let recs =
                serve_ok(eng.recommend_batch(&graph, &ds.features, &ds.paper_nodes, &seeds, top));
            let s = eng.stats();
            println!(
                "served {} top-{top} recommendation queries over {} candidates \
                 ({} cache rebuild{}, {} cache hits)",
                recs.len(),
                ds.paper_nodes.len(),
                s.cache_rebuilds,
                if s.cache_rebuilds == 1 { "" } else { "s" },
                s.cache_hits,
            );
            println!(
                "rankings_fingerprint=0x{:016x}",
                rankings_fingerprint(&recs)
            );
        }
        "recommend" => {
            let model_path =
                PathBuf::from(arg("--model").unwrap_or_else(|| "catehgn-model.json".into()));
            let top: usize = arg("--top").and_then(|s| s.parse().ok()).unwrap_or(5);
            let ds = build_dataset(&cfg);
            let model = CateHgn::load(
                &model_path,
                ds.features.cols(),
                ds.graph.schema().num_node_types(),
                ds.graph.schema().num_link_types(),
            )
            .expect("load model");
            let paper: usize = arg("--paper")
                .and_then(|s| s.parse().ok())
                .or_else(|| ds.split.test.first().copied())
                .expect("dataset has test papers");
            if paper >= ds.paper_nodes.len() {
                eprintln!(
                    "paper index {paper} out of range (dataset has {})",
                    ds.paper_nodes.len()
                );
                std::process::exit(1);
            }
            let node = ds.paper_nodes[paper];
            let mut eng = ServeEngine::new(&model, 0xC11);
            let recs = if flag("--cold") {
                // Inductive cold-start: treat the paper's raw feature row as
                // an unseen submission embedded through the frozen encoder.
                let feat = ds.features.row(node.index()).to_vec();
                serve_ok(eng.cold_start(
                    &ds.graph,
                    &ds.features,
                    &ds.paper_nodes,
                    ds.graph.node_type(node),
                    &feat,
                    top,
                ))
            } else {
                serve_ok(eng.recommend(&ds.graph, &ds.features, &ds.paper_nodes, node, top))
            };
            let mode = if flag("--cold") {
                "cold-start"
            } else {
                "transductive"
            };
            println!("top {top} citation recommendations for paper #{paper} ({mode}):");
            for r in recs {
                let idx = ds
                    .paper_nodes
                    .iter()
                    .position(|n| *n == r.node)
                    .expect("recommendation comes from the candidate set");
                println!("  paper #{idx:<6} score {:>9.4}", r.score);
            }
        }
        "shard" => {
            // Operational storage tooling: `write` materialises the scale
            // preset's graph as a checksummed shard directory, `verify` is
            // a read-only health check (exit 1 when any segment is
            // unhealthy), `repair` rebuilds bad segments from the
            // regenerated source graph — which must carry the exact
            // fingerprint the shard's meta promises.
            let action = std::env::args().nth(2).unwrap_or_default();
            let dir = PathBuf::from(arg("--dir").unwrap_or_else(|| {
                eprintln!("shard: --dir DIR is required");
                usage()
            }));
            match action.as_str() {
                "write" => {
                    let ds = build_dataset(&cfg);
                    ShardStore::write(&dir, &ds.graph).unwrap_or_else(|e| {
                        eprintln!("shard write failed: {e}");
                        std::process::exit(1);
                    });
                    let store = open_store(&dir);
                    println!(
                        "wrote {} ({} nodes, {} segments, {} bytes, fingerprint 0x{:016x})",
                        dir.display(),
                        store.num_nodes(),
                        store.schema().num_link_types(),
                        store.total_bytes(),
                        store.content_fingerprint(),
                    );
                }
                "verify" => {
                    let store = open_store(&dir);
                    let reports = store.verify_all();
                    let mut unhealthy = 0usize;
                    for r in &reports {
                        let status = match &r.health {
                            SegmentHealth::Intact => "intact".to_string(),
                            SegmentHealth::Missing => "MISSING".to_string(),
                            SegmentHealth::Corrupt(d) => format!("CORRUPT: {d}"),
                        };
                        if !matches!(r.health, SegmentHealth::Intact) {
                            unhealthy += 1;
                        }
                        println!(
                            "  {:<16} {status}{}{}",
                            r.name,
                            if r.prev_ok { " [prev-ok]" } else { "" },
                            if r.quarantined { " [quarantined]" } else { "" },
                        );
                    }
                    println!(
                        "{} segment{}, {unhealthy} unhealthy",
                        reports.len(),
                        if reports.len() == 1 { "" } else { "s" },
                    );
                    if unhealthy > 0 {
                        std::process::exit(1);
                    }
                }
                "repair" => {
                    let ds = build_dataset(&cfg);
                    let store = open_store(&dir);
                    let rep = store.repair(&ds.graph).unwrap_or_else(|e| {
                        eprintln!("shard repair failed: {e}");
                        std::process::exit(1);
                    });
                    println!(
                        "rebuilt {} segment{} ({}), cleared {} quarantine marker{}",
                        rep.rebuilt.len(),
                        if rep.rebuilt.len() == 1 { "" } else { "s" },
                        if rep.rebuilt.is_empty() {
                            "none".to_string()
                        } else {
                            rep.rebuilt.join(", ")
                        },
                        rep.quarantine_cleared,
                        if rep.quarantine_cleared == 1 { "" } else { "s" },
                    );
                    if !store.healthy() {
                        eprintln!("shard still unhealthy after repair");
                        std::process::exit(1);
                    }
                    println!("shard healthy");
                }
                other => {
                    eprintln!("unknown shard action '{other}'");
                    usage()
                }
            }
        }
        "domains" => {
            let model_path =
                PathBuf::from(arg("--model").unwrap_or_else(|| "catehgn-model.json".into()));
            let ds = build_dataset(&cfg);
            let model = CateHgn::load(
                &model_path,
                ds.features.cols(),
                ds.graph.schema().num_node_types(),
                ds.graph.schema().num_link_types(),
            )
            .expect("load model");
            let cs = catehgn::case_study(&model, &ds, 5);
            for k in 0..model.cfg.n_clusters {
                if cs.authors[k].is_empty() && cs.terms[k].is_empty() {
                    continue;
                }
                println!("cluster {k}:");
                let terms: Vec<&str> = cs.terms[k].iter().map(|r| r.name.as_str()).collect();
                let authors: Vec<&str> = cs.authors[k]
                    .iter()
                    .take(3)
                    .map(|r| r.name.as_str())
                    .collect();
                println!("  top terms:   {}", terms.join(", "));
                println!("  top authors: {}", authors.join(", "));
            }
        }
        _ => usage(),
    }
}
