//! The CATE-HGN benchmark: one process per run, two workloads.
//!
//! ```text
//! python3 perfbench/run.py --workload train-refresh --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run builds one set of seeded inputs and runs three phases on them:
//!
//! * **train** — Algorithm 1 through `catehgn::train_with` on the 900-paper
//!   `small` corpus ([`train`]);
//! * **query** — warm `ServeEngine` queries over every paper of the
//!   workload's query corpus ([`query`]);
//! * **refresh** — shard reloads between two term-link generations, each
//!   answered by a query that must rebuild the embedding cache
//!   ([`refresh`]).
//!
//! Every end-to-end metric is defined on every workload; the workload picks
//! the query corpus and how the run is shared between the phases ([`Plan`]).
//! `--trace 0` measures the end-to-end metrics, interleaving the phases'
//! operations over one measured interval ([`mix`]); `--trace 1` re-enacts
//! each phase from public calls with spans around them and prints the
//! per-layer table. The last stdout line is the result; the line before it
//! is the run record.

// Wall-clock timing is this program's whole job.
#![allow(clippy::disallowed_types)]

mod allocs;
mod mix;
mod query;
mod refresh;
mod report;
mod setup;
mod streams;
mod sweep;
mod trace;
mod train;

use mix::{Mix, Target};
use report::{quote, Report};
use setup::{Engines, Fixture};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::median;

/// Ranking depth of every recommendation query.
pub const TOP_K: usize = 10;

/// Sampling seed of every serving engine; fixed so that engines given the
/// same data give bitwise-identical answers.
pub const ENGINE_SEED: u64 = 41;

/// Setup repetitions in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Outer rounds of the traced training re-enactment.
const TRACE_ROUNDS: usize = 2;

/// Tensor worker threads. One, not `nproc`: on a shared host a parallel
/// kernel waits for its slowest worker, so every interference on either CPU
/// stalls it. On a shared 2-vCPU VM, two threads ran training about 25%
/// faster but spread its steps/s, the fastest refresh and the fastest
/// predict by 20-26% across runs; one thread spread them by 6-8%.
const TENSOR_THREADS: usize = 1;

const USAGE: &str = "usage: perfbench --workload train-refresh|serve-query \
                     --seed N --seconds S --trace 0|1 [--scratch DIR]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    TrainRefresh,
    ServeQuery,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "train-refresh" => Some(Workload::TrainRefresh),
            "serve-query" => Some(Workload::ServeQuery),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainRefresh => "train-refresh",
            Workload::ServeQuery => "serve-query",
        }
    }
}

/// The kinds of operation an untraced run interleaves, in the order of a
/// plan's targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Train,
    Single,
    Batch,
    Predict,
    Cold,
    Refresh,
}

const OPS: [Op; 6] = [
    Op::Train,
    Op::Single,
    Op::Batch,
    Op::Predict,
    Op::Cold,
    Op::Refresh,
];

/// How a workload spends one run.
struct Plan {
    /// Outer rounds of Algorithm 1 per `train_with` call.
    outer_iters: usize,
    /// Serve the 20k-paper streamed corpus instead of `small`.
    big_corpus: bool,
    /// Share of `--seconds` and minimum count of each kind in `OPS`. The
    /// minimums keep every metric's sample large enough on every workload:
    /// a thousand single queries or more for the p99 (ten beyond it; three
    /// thousand where they are cheap), a few dozen or more of every other
    /// kind for its fastest operation and median.
    targets: [Target; 6],
}

const fn t(share: f64, min: usize) -> Target {
    Target { share, min }
}

impl Plan {
    fn of(w: Workload) -> Self {
        match w {
            // Training and refreshes fill the run; queries serve the
            // 900-paper corpus.
            Workload::TrainRefresh => Plan {
                outer_iters: 2,
                big_corpus: false,
                targets: [
                    t(0.44, 4),
                    t(0.05, 3000),
                    t(0.01, 30),
                    t(0.05, 20),
                    t(0.01, 150),
                    t(0.44, 50),
                ],
            },
            // Queries over 20k candidates fill the run, where the per-query
            // work linear in the candidate count shows.
            Workload::ServeQuery => Plan {
                outer_iters: 2,
                big_corpus: true,
                targets: [
                    t(0.25, 3),
                    t(0.35, 1000),
                    t(0.08, 20),
                    t(0.12, 20),
                    t(0.05, 150),
                    t(0.15, 30),
                ],
            },
        }
    }

    /// Share of `--seconds` of the query operations together.
    fn query_share(&self) -> f64 {
        self.targets[1..5].iter().map(|t| t.share).sum()
    }

    fn refresh_share(&self) -> f64 {
        self.targets[5].share
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scratch,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    tensor::par::set_num_threads(TENSOR_THREADS);
    let mut rep = Report::default();
    rep.note("workload", quote(args.workload.name()));
    rep.note("seed", args.seed);
    rep.note("seconds", args.seconds);
    rep.note("trace", u8::from(args.trace));
    rep.note("nproc", nproc);
    rep.note("tensor_threads", tensor::par::num_threads());
    for (key, var) in [
        ("git_rev", "PERFBENCH_GIT_REV"),
        ("rustc", "PERFBENCH_RUSTC"),
    ] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        rep.note(key, quote(&value));
    }
    let scratch = args
        .scratch
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &scratch, &mut rep);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", rep.record_json());
    println!("{}", rep.result_json());
}

fn run(args: &Args, scratch: &Path, rep: &mut Report) -> Result<(), String> {
    let plan = Plan::of(args.workload);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    // Every repetition sets up from scratch; the last one is kept.
    for _ in 1..reps {
        let t = start_setup(scratch);
        let fx = Fixture::build(plan.big_corpus, args.seed, scratch)?;
        Engines::warm(&fx).map_err(|e| format!("warming the engines: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = start_setup(scratch);
    let fx = Fixture::build(plan.big_corpus, args.seed, scratch)?;
    let mut eng = Engines::warm(&fx).map_err(|e| format!("warming the engines: {e}"))?;
    setup_s.push(t.elapsed().as_secs_f64());
    rep.note("setup_s_samples", format!("{setup_s:?}"));
    if args.trace {
        traced(args, &plan, &fx, &mut eng, rep);
    } else {
        rep.metric("setup_s", median(&setup_s), "s");
        untraced(args, &plan, &fx, &mut eng, rep);
    }
    Ok(())
}

/// Clears the shard directory, so that every setup writes it anew, and
/// starts the setup clock.
fn start_setup(scratch: &Path) -> Instant {
    let _ = std::fs::remove_dir_all(scratch);
    Instant::now()
}

/// `--trace 0`: the end-to-end metrics of every phase, from one measured
/// interval that interleaves the phases' operations ([`Mix`]).
fn untraced(args: &Args, plan: &Plan, fx: &Fixture, eng: &mut Engines<'_>, rep: &mut Report) {
    let q = fx.query_ds();
    let reference = fx.refresh_model.clone();
    let mut train = train::Load::new(&fx.small, plan.outer_iters);
    let mut query = query::Load::new(&mut eng.query, q, args.seed);
    let mut refresh = refresh::Load::new(&mut eng.refresh, fx, &reference, args.seed);
    let mut mix = Mix::new(&plan.targets, args.seconds);
    while let Some(k) = mix.next() {
        let t = Instant::now();
        match OPS[k] {
            Op::Train => train.call(),
            Op::Single => query.single(),
            Op::Batch => query.batch(),
            Op::Predict => query.predict(),
            Op::Cold => query.cold(),
            Op::Refresh => refresh.step(),
        }
        mix.done(k, t.elapsed().as_secs_f64());
    }
    let counts: Vec<String> = OPS
        .iter()
        .zip(mix.counts())
        .map(|(op, n)| format!("{}: {n}", quote(&format!("{op:?}"))))
        .collect();
    rep.note("mix.counts", format!("{{{}}}", counts.join(", ")));
    train.finish(rep);
    let answers = query.finish(rep);
    query::brute_force_check(&query::embeddings(&fx.query_model, q), q, &answers, rep);
    refresh.finish(rep);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// `--trace 1`: the setup parts, each phase re-enacted with recording off
/// and on, and the Sec. III-F sweep.
fn traced(args: &Args, plan: &Plan, fx: &Fixture, eng: &mut Engines<'_>, rep: &mut Report) {
    rep.metric("dblp-sim.dataset_s", fx.dataset_s, "s");
    rep.metric("hetgraph.shard_write_ms", fx.shard_write_s * 1e3, "ms");
    rep.metric("serve.cache_warm_s", eng.warm_s, "s");
    train::traced(&fx.small, TRACE_ROUNDS, args.seed, rep);
    let q = fx.query_ds();
    let emb = query::embeddings(&fx.query_model, q);
    let secs = args.seconds * plan.query_share();
    query::traced(
        &mut eng.query,
        &fx.query_model,
        q,
        &emb,
        secs,
        args.seed,
        rep,
    );
    let (reference, probe) = (fx.refresh_model.clone(), fx.refresh_model.clone());
    let mut refs = refresh::references(&reference);
    let secs = args.seconds * plan.refresh_share();
    refresh::traced(
        &mut eng.refresh,
        fx,
        &mut refs,
        &probe,
        secs,
        args.seed,
        rep,
    );
    sweep::run(&fx.small, args.seed, rep);
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
