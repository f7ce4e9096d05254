//! Determinism-taint pass: interprocedural nondeterminism tracking.
//!
//! Taint is seeded at nondeterminism *sources* inside function bodies —
//! wall-clock reads (`Instant`/`SystemTime`), thread identity
//! (`thread::current().id`), hash-map iteration (`HashMap`/`HashSet`),
//! pointer-address observation (`as usize` on a pointer), and ambient RNG
//! construction (`thread_rng`/`from_entropy`) — and propagated through
//! the call graph to every transitive caller. A finding fires when taint
//! reaches a *sink*:
//!
//! * `par-region` — a call inside the argument region of
//!   `par_row_chunks_mut` / `par_map` / `par_for_each_mut` / `run_region`
//!   resolves to a tainted function (or the region contains a source
//!   directly). Tainted values inside a parallel region are how
//!   fold-order and scheduling nondeterminism reach results.
//! * `train-step` — a function named `train` / `train_with` is tainted:
//!   the training loop's bitwise resume equality (PR 4) would silently
//!   break.
//! * `serve-entry` — a public `ServeEngine` method is tainted: served
//!   rankings are documented bitwise-reproducible.
//!
//! Every finding carries the witness call path from the sink down to the
//! source token. Sanctioning uses the ordinary `lint.allow` ratchet keyed
//! by `(determinism-taint, <sink rule>, <sink file>)`.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{for_each_call_site, CallGraph};
use crate::lexer::SigView;
use crate::passes::{Finding, PASS_TAINT};
use crate::scanner::Kind;

/// The sanctioned deterministic parallel primitives whose closure
/// arguments are taint sinks.
pub const PAR_PRIMS: [&str; 4] = [
    "par_row_chunks_mut",
    "par_map",
    "par_for_each_mut",
    "run_region",
];

/// One detected source token.
#[derive(Clone, Debug)]
struct Source {
    label: &'static str,
    what: String,
    line: u32,
}

/// Scan `view[start..end)` for the first nondeterminism source.
fn find_source(view: &SigView, start: usize, end: usize) -> Option<Source> {
    let mut s = start;
    while s < end {
        if view.kind(s) != Some(Kind::Ident) || view.in_test(s) {
            s += 1;
            continue;
        }
        let src = match view.text(s) {
            t @ ("Instant" | "SystemTime") => Some(Source {
                label: "wall-clock",
                what: format!("`{t}`"),
                line: view.line(s),
            }),
            t @ ("HashMap" | "HashSet") => Some(Source {
                label: "hash-iteration",
                what: format!("`{t}`"),
                line: view.line(s),
            }),
            t @ ("thread_rng" | "from_entropy") => Some(Source {
                label: "ambient-rng",
                what: format!("`{t}`"),
                line: view.line(s),
            }),
            "thread"
                if view.text(s + 1) == "::"
                    && view.text(s + 2) == "current"
                    && view.text(s + 3) == "("
                    && view.text(s + 4) == ")"
                    && view.text(s + 5) == "."
                    && view.text(s + 6) == "id" =>
            {
                Some(Source {
                    label: "thread-id",
                    what: "`thread::current().id`".to_string(),
                    line: view.line(s),
                })
            }
            "as" if view.text(s + 1) == "usize" && ptr_cast_before(view, s) => Some(Source {
                label: "ptr-address",
                what: "pointer `as usize`".to_string(),
                line: view.line(s),
            }),
            _ => None,
        };
        if src.is_some() {
            return src;
        }
        s += 1;
    }
    None
}

/// Whether the few tokens before an `as usize` cast mention a raw
/// pointer: `.as_ptr()`, `.as_mut_ptr()`, or an `as *const`/`as *mut`
/// cast in the same expression.
fn ptr_cast_before(view: &SigView, s: usize) -> bool {
    let lo = s.saturating_sub(10);
    (lo..s).any(|k| {
        matches!(view.text(k), "as_ptr" | "as_mut_ptr")
            || (view.text(k) == "*" && matches!(view.text(k + 1), "const" | "mut"))
    })
}

/// Render the witness chain `sink-side fn -> … -> source`.
fn witness(cg: &CallGraph, chain: &[(usize, Option<u32>)], src: &Source) -> Vec<String> {
    let mut out: Vec<String> = chain
        .iter()
        .map(|&(f, _)| {
            let item = &cg.fns[f];
            format!("{} ({}:{})", item.qualified(), item.file, item.line)
        })
        .collect();
    if let Some(&(seed, _)) = chain.last() {
        out.push(format!(
            "{} at {}:{}",
            src.what, cg.fns[seed].file, src.line
        ));
    }
    out
}

fn msg_for(cg: &CallGraph, chain: &[(usize, Option<u32>)], src: &Source, sink: &str) -> String {
    let path: Vec<String> = chain.iter().map(|&(f, _)| cg.fns[f].qualified()).collect();
    format!(
        "nondeterminism source {} ({}) reaches {sink} via {}",
        src.what,
        src.label,
        path.join(" -> ")
    )
}

/// Run the pass. `views` is indexed by `FnItem::file_idx`;
/// `exempt_par_files` names files whose parallel regions are the
/// sanctioned runtime itself (the driver passes `tensor/src/par/*`).
pub fn determinism_taint(
    cg: &CallGraph,
    views: &[&SigView],
    exempt_par_files: &[&str],
) -> Vec<Finding> {
    // Seed: functions whose body contains a source.
    let mut sources: BTreeMap<usize, Source> = BTreeMap::new();
    for (i, f) in cg.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        if let Some(src) = find_source(views[f.file_idx], open + 1, close) {
            sources.insert(i, src);
        }
    }
    let seeds: BTreeSet<usize> = sources.keys().copied().collect();
    let tainted = cg.propagate_up(&seeds);

    let mut out = Vec::new();
    let mut push =
        |rule: &'static str, file: &str, line: u32, msg: String, witness: Vec<String>| {
            out.push(Finding {
                pass: PASS_TAINT,
                rule,
                file: file.to_string(),
                line,
                msg,
                witness,
            });
        };

    // Sink 1: parallel regions.
    for (i, f) in cg.fns.iter().enumerate() {
        if f.in_test || exempt_par_files.contains(&f.file.as_str()) {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let view = views[f.file_idx];
        let mut s = open + 1;
        while s < close {
            let is_prim = view.kind(s) == Some(Kind::Ident)
                && PAR_PRIMS.contains(&view.text(s))
                && view.text(s + 1) == "("
                && (s == 0 || view.text(s - 1) != "fn");
            if !is_prim {
                s += 1;
                continue;
            }
            let region_open = s + 1;
            let region_close = view.mate(region_open).unwrap_or(close);
            let prim = view.text(s).to_string();
            // Direct source inside the region.
            if let Some(src) = find_source(view, region_open + 1, region_close) {
                let sink = format!("the `{prim}` region");
                push(
                    "par-region",
                    &f.file,
                    src.line,
                    format!(
                        "nondeterminism source {} ({}) used directly inside {sink}",
                        src.what, src.label
                    ),
                    vec![format!("{} at {}:{}", src.what, f.file, src.line)],
                );
            }
            // Calls inside the region that resolve to tainted functions.
            let mut hits: Vec<(usize, u32)> = Vec::new();
            let region = (region_open + 1, region_close);
            for_each_call_site(view, region.0, region.1, false, &mut |p, name, qual| {
                if PAR_PRIMS.contains(&name) {
                    return;
                }
                for callee in cg.resolve(name, &qual, Some(i)) {
                    if tainted.contains_key(&callee) {
                        hits.push((callee, view.line(p)));
                    }
                }
            });
            hits.sort();
            hits.dedup();
            for (callee, line) in hits {
                let chain = cg.path_to_seed(&tainted, callee);
                let Some(src) = chain.last().and_then(|&(seed, _)| sources.get(&seed)) else {
                    continue;
                };
                let sink = format!("the `{prim}` region");
                push(
                    "par-region",
                    &f.file,
                    line,
                    msg_for(cg, &chain, src, &sink),
                    witness(cg, &chain, src),
                );
            }
            s = view.skip_group(region_open);
        }
    }

    // Sinks 2 and 3: training steps and serving entry points.
    for (&i, _) in tainted.iter() {
        let f = &cg.fns[i];
        if f.in_test {
            continue;
        }
        let is_train_loop = matches!(f.name.as_str(), "train" | "train_with")
            && f.self_ty.is_none()
            && f.file.ends_with("src/train.rs");
        let rule: &'static str = if is_train_loop {
            "train-step"
        } else if f.self_ty.as_deref() == Some("ServeEngine") && f.is_pub {
            "serve-entry"
        } else {
            continue;
        };
        let chain = cg.path_to_seed(&tainted, i);
        let Some(src) = chain.last().and_then(|&(seed, _)| sources.get(&seed)) else {
            continue;
        };
        let sink = format!("`{}`", f.qualified());
        push(
            rule,
            &f.file,
            f.line,
            msg_for(cg, &chain, src, &sink),
            witness(cg, &chain, src),
        );
    }
    out
}
