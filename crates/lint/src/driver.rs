//! File discovery, pass scoping, ratchet enforcement, and reporting.
//!
//! Scope policy (documented in DESIGN.md §Static analysis):
//!
//! | files | determinism + taint + par-fold | panic-path | unsafe-audit | suppression |
//! |---|---|---|---|---|
//! | `crates/*/src/**` (libraries) | yes | yes | yes | yes |
//! | `crates/bench/**`, `src/bin/**`, `src/main.rs` | – | – | yes | yes |
//! | `tests/**`, `benches/**`, `examples/**` | – | – | yes | yes |
//! | `vendor/**`, `target/**` | – | – | – | – |
//!
//! `vendor/` holds third-party API shims and is policed by clippy only;
//! `crates/bench` is the sanctioned home of wall-clock timing. Binaries
//! may panic on bad CLI input. `crates/tensor/src/par/` (the worker-pool
//! module: `mod.rs` and `pool.rs`) is the sanctioned threading runtime:
//! exempt from the `thread-escape` rule and from the region-sink rules
//! (`par-region`, `unordered-par-fold`) — it is instead held to the
//! `lock-discipline` pass, which runs only on `pool.rs`.
//!
//! The call-graph passes (determinism-taint, panic-reach) run over the
//! union of library files, so taint and panic reachability cross crate
//! boundaries; dead-pub adds the files roots live in, `perfbench/src`
//! included (read, not linted). `results/PANIC_SURFACE.md` and `DEAD_PUB.md`
//! are written by `--update` and checked stale-fail by the default mode.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::allowlist::{Allowlist, Key};
use crate::callgraph::CallGraph;
use crate::items;
use crate::lexer::SigView;
use crate::passes::{self, DeadPub, Finding, PanicSurface, UnsafeSite};
use crate::scanner::{self, Scanned};
use crate::taint;

/// The sanctioned parallel runtime files (exact paths, not a directory
/// prefix, so new files cannot ride in on the exemption).
pub const PAR_RUNTIME: [&str; 2] = [
    "crates/tensor/src/par/mod.rs",
    "crates/tensor/src/par/pool.rs",
];

/// The crates whose public API the panic-surface report covers.
pub const PANIC_SURFACE_SCOPE: [&str; 3] = [
    "crates/core/src/",
    "crates/hetgraph/src/",
    "crates/tensor/src/",
];

/// What the linter should do with the allowlist.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Enforce: fail on new violations *and* on stale ratchet entries.
    Check,
    /// Tighten `lint.allow` to the observed counts and rewrite it.
    Update,
}

/// Options for one lint run.
pub struct Options {
    pub root: PathBuf,
    pub mode: Mode,
    /// Write/verify `results/UNSAFE_AUDIT.md`, `results/PANIC_SURFACE.md`
    /// and `results/DEAD_PUB.md` (disabled in the fixture tests, which
    /// run against synthetic roots without a results/ directory).
    pub write_report: bool,
}

/// Outcome of a run: human-readable errors (empty means the gate passes)
/// plus the counts the `--update` mode and the tests introspect.
pub struct Outcome {
    pub errors: Vec<String>,
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub files_scanned: usize,
    /// The panic-surface analysis (always computed; gated on disk only
    /// when `write_report` is set).
    pub panic_surface: PanicSurface,
    /// The dead-public-API analysis (likewise).
    pub dead_pub: DeadPub,
}

/// How each discovered file participates in the passes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileClass {
    /// Library source: all passes.
    Lib,
    /// Binary / bench / test / example source: audit passes only.
    Support,
    /// Not linted at all (vendor, target, non-Rust).
    Skip,
}

/// Classify a workspace-relative, `/`-separated path.
pub fn classify(rel: &str) -> FileClass {
    if !rel.ends_with(".rs") || rel.starts_with("vendor/") || rel.starts_with("target/") {
        return FileClass::Skip;
    }
    // Lint fixtures are deliberate violations; they are exercised by the
    // golden tests, never by the workspace gate.
    if rel.contains("tests/fixtures/") {
        return FileClass::Skip;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    let in_crates = parts.first() == Some(&"crates");
    let crate_name = if in_crates {
        parts.get(1).copied().unwrap_or("")
    } else {
        ""
    };
    let sub = if in_crates {
        parts.get(2..).unwrap_or(&[])
    } else {
        &parts[..]
    };
    let dir = sub.first().copied().unwrap_or("");
    match dir {
        "src" => {
            let is_bin = sub.get(1) == Some(&"bin") || sub.get(1) == Some(&"main.rs");
            if is_bin || crate_name == "bench" {
                FileClass::Support
            } else {
                FileClass::Lib
            }
        }
        "tests" | "benches" | "examples" => FileClass::Support,
        _ => FileClass::Skip,
    }
}

/// Recursively collect the `.rs` files under the `tops` directories of
/// `root`, sorted for deterministic finding order (and therefore
/// deterministic ratchet counts).
fn collect_files(root: &Path, tops: &[&str]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// One loaded workspace file.
struct Loaded {
    rel: String,
    class: FileClass,
    scanned: Scanned,
}

/// Run the full analysis over the workspace at `opts.root`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let allow_path = opts.root.join("lint.allow");
    let mut allow = if allow_path.is_file() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::default()
    };

    // Phase 1: load everything, run the per-file passes.
    let mut findings: Vec<Finding> = Vec::new();
    let mut unsafe_sites: Vec<UnsafeSite> = Vec::new();
    let mut loaded: Vec<Loaded> = Vec::new();
    for rel in collect_files(&opts.root, &["crates", "src", "tests", "examples"])? {
        let class = classify(&rel);
        if class == FileClass::Skip {
            continue;
        }
        let src =
            fs::read_to_string(opts.root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        loaded.push(Loaded {
            rel,
            class,
            scanned: scanner::scan(&src),
        });
    }
    for f in &loaded {
        let rel = f.rel.as_str();
        if f.class == FileClass::Lib {
            let exempt_threads = PAR_RUNTIME.contains(&rel);
            findings.extend(passes::determinism(rel, &f.scanned, exempt_threads));
            findings.extend(passes::panic_path(rel, &f.scanned));
        }
        let (unsafe_findings, sites) = passes::unsafe_audit(rel, &f.scanned);
        findings.extend(unsafe_findings);
        unsafe_sites.extend(sites);
        findings.extend(passes::suppression(rel, &f.scanned));
    }

    // Phase 2: call-graph passes over the library files.
    let lib: Vec<&Loaded> = loaded
        .iter()
        .filter(|f| f.class == FileClass::Lib)
        .collect();
    let views: Vec<SigView> = lib.iter().map(|f| SigView::new(&f.scanned)).collect();
    let view_refs: Vec<&SigView> = views.iter().collect();
    let mut fns = Vec::new();
    let mut per_file_items: Vec<std::ops::Range<usize>> = Vec::new();
    for (idx, f) in lib.iter().enumerate() {
        let start = fns.len();
        fns.extend(items::extract(&f.rel, idx, &views[idx]));
        per_file_items.push(start..fns.len());
    }
    let cg = CallGraph::build(fns, &view_refs, false);
    for (idx, f) in lib.iter().enumerate() {
        let rel = f.rel.as_str();
        if !PAR_RUNTIME.contains(&rel) {
            let file_fns = &cg.fns[per_file_items[idx].clone()];
            findings.extend(passes::par_fold(rel, &views[idx], file_fns));
        }
        if rel.ends_with("tensor/src/par/pool.rs") {
            findings.extend(passes::lock_discipline(rel, &views[idx]));
        }
    }
    findings.extend(taint::determinism_taint(&cg, &view_refs, &PAR_RUNTIME));
    let panic_surface = passes::panic_reach(&cg, &view_refs, &PANIC_SURFACE_SCOPE);

    // Phase 3: dead-pub over the library plus the files roots live in.
    let mut perf = Vec::new();
    for rel in collect_files(&opts.root, &["perfbench/src"])? {
        let src =
            fs::read_to_string(opts.root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        perf.push((rel, scanner::scan(&src)));
    }
    let root_files: Vec<(&str, &Scanned)> = loaded
        .iter()
        .filter(|f| f.class == FileClass::Support)
        .filter(|f| !f.rel.split('/').any(|p| p == "tests" || p == "benches"))
        .map(|f| (f.rel.as_str(), &f.scanned))
        .chain(perf.iter().map(|(rel, s)| (rel.as_str(), s)))
        .collect();
    let root_views: Vec<SigView> = root_files.iter().map(|f| SigView::new(f.1)).collect();
    let mut fns = cg.fns.clone();
    for (k, (rel, _)) in root_files.iter().enumerate() {
        fns.extend(items::extract(rel, lib.len() + k, &root_views[k]));
    }
    let all_views: Vec<&SigView> = views.iter().chain(&root_views).collect();
    let dg = CallGraph::build(fns, &all_views, true);
    let roots: Vec<usize> = (cg.fns.len()..dg.fns.len())
        .filter(|&i| !dg.fns[i].in_test)
        .filter(|&i| dg.fns[i].name == "main" || dg.fns[i].file.starts_with("perfbench/"))
        .collect();
    let dead_pub = passes::dead_pub(&dg, &roots, |f| classify(&f.file) == FileClass::Lib);

    // Ratchet bookkeeping: observed counts per (pass, rule, file).
    let mut observed: BTreeMap<Key, usize> = BTreeMap::new();
    for f in &findings {
        *observed
            .entry((f.pass.to_string(), f.rule.to_string(), f.file.clone()))
            .or_insert(0) += 1;
    }

    let mut errors = Vec::new();
    if opts.mode == Mode::Update {
        // Tighten stale ceilings and rewrite the file. Over-ceiling
        // findings still fail below: tightening never legitimizes *new*
        // debt — that requires a manual, justified allowlist edit.
        allow.tighten(&observed);
        fs::write(&allow_path, allow.render(ALLOW_HEADER))
            .map_err(|e| format!("write {}: {e}", allow_path.display()))?;
    }
    for (key, &seen) in &observed {
        let max = allow.get(&key.0, &key.1, &key.2);
        if seen > max {
            let mut msg = format!(
                "{}/{}: {} violation(s) in {} (allowlist ceiling {}):",
                key.0, key.1, seen, key.2, max
            );
            for f in findings
                .iter()
                .filter(|f| f.pass == key.0 && f.rule == key.1 && f.file == key.2)
            {
                let _ = write!(msg, "\n    {}:{} — {}", f.file, f.line, f.msg);
                for w in &f.witness {
                    let _ = write!(msg, "\n        via {w}");
                }
            }
            errors.push(msg);
        } else if seen < max && opts.mode == Mode::Check {
            errors.push(format!(
                "{}/{}: ratchet stale for {} ({} allowed, {} found) — run \
                 `cargo run -p lint -- --update` to tighten",
                key.0, key.1, key.2, max, seen
            ));
        }
    }
    if opts.mode == Mode::Check {
        for (key, entry) in &allow.entries {
            if !observed.contains_key(key) {
                errors.push(format!(
                    "{}/{}: ratchet stale for {} ({} allowed, 0 found) — run \
                     `cargo run -p lint -- --update` to drop it",
                    key.0, key.1, key.2, entry.max
                ));
            }
        }
    }

    if opts.write_report {
        let report = render_unsafe_report(&unsafe_sites);
        let results = opts.root.join("results");
        fs::create_dir_all(&results).map_err(|e| format!("mkdir {}: {e}", results.display()))?;
        let path = results.join("UNSAFE_AUDIT.md");
        fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))?;

        // Ratcheted reports: `--update` rewrites each committed report;
        // the default mode fails when one is stale or its count grew.
        for (pass, name, report) in [
            ("panic-reach", "PANIC_SURFACE.md", &panic_surface.report),
            ("dead-pub", "DEAD_PUB.md", &dead_pub.report),
        ] {
            let path = results.join(name);
            if opts.mode == Mode::Update {
                fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))?;
                continue;
            }
            let regen = format!("run `cargo run -p lint -- --update` to regenerate results/{name}");
            let Ok(committed) = fs::read_to_string(&path) else {
                errors.push(format!("{pass}: results/{name} is missing — {regen}"));
                continue;
            };
            if let (Some(old), Some(new)) = (parse_ratchet(&committed), parse_ratchet(report)) {
                if new > old {
                    errors.push(format!(
                        "{pass}: the count ratcheted in results/{name} grew ({old} -> {new}); \
                         it may only shrink"
                    ));
                }
            }
            if committed != *report {
                errors.push(format!("{pass}: results/{name} is stale — {regen}"));
            }
        }
    }

    Ok(Outcome {
        errors,
        findings,
        unsafe_sites,
        files_scanned: loaded.len(),
        panic_surface,
        dead_pub,
    })
}

/// The ratcheted count `N` of a report's `<!-- ratchet: <what> N of M -->`
/// line.
fn parse_ratchet(report: &str) -> Option<usize> {
    let line = report.lines().find(|l| l.starts_with("<!-- ratchet: "))?;
    let (head, _) = line.split_once(" of ")?;
    head.rsplit(' ').next()?.parse().ok()
}

const ALLOW_HEADER: &str = "\
# lint.allow — ratcheted allowlist for `cargo run -p lint` (see DESIGN.md).
#
# Format: <pass> <rule> <file> <count> -- <justification>
#
# Each line pins existing, justified debt at its current count. The gate
# fails when a file exceeds its ceiling (new violations) and when it drops
# below it (stale ratchet — run `cargo run -p lint -- --update`, which
# tightens counts but never raises them). Adding or raising an entry is a
# manual, reviewed edit and the justification is mandatory.
";

/// Render `results/UNSAFE_AUDIT.md`: the complete inventory of `unsafe`
/// sites with their SAFETY justifications.
pub fn render_unsafe_report(sites: &[UnsafeSite]) -> String {
    let mut out = String::from(
        "# Unsafe audit\n\n\
         Generated by `cargo run -p lint` (the unsafe-audit pass). Every\n\
         `unsafe` site in the workspace (vendor/ excluded) with the\n\
         `// SAFETY:` justification the pass verified. Sites without a\n\
         justification fail the lint gate and cannot land.\n",
    );
    let mut by_file: BTreeMap<&str, Vec<&UnsafeSite>> = BTreeMap::new();
    for s in sites {
        by_file.entry(&s.file).or_default().push(s);
    }
    let total = sites.len();
    let _ = write!(
        out,
        "\nTotal: {total} site(s) across {} file(s).\n",
        by_file.len()
    );
    for (file, sites) in &by_file {
        let _ = write!(out, "\n## {file}\n\n");
        for s in sites {
            let what = match s.kind {
                "block" => "unsafe block",
                "fn" => "unsafe fn",
                "impl" => "unsafe impl",
                "trait" => "unsafe trait",
                _ => "unsafe",
            };
            let just = match &s.justification {
                Some(j) if !j.is_empty() => j.clone(),
                Some(_) => "(SAFETY comment present, see source)".to_string(),
                None => "**MISSING SAFETY COMMENT**".to_string(),
            };
            let _ = writeln!(out, "- line {} ({what}): {just}", s.line);
        }
    }
    out
}

/// The contract of each rule, for `--explain <rule>`. Returns
/// `(pass, rule, contract)` triples.
pub fn rule_contracts() -> &'static [(&'static str, &'static str, &'static str)] {
    &[
        ("determinism", "hash-collections",
         "HashMap/HashSet iteration order is randomized per process; iterating one into any \
          result-bearing value breaks bitwise reproducibility. Use BTreeMap/BTreeSet or CSR-order \
          structures; membership-only uses may be sanctioned in lint.allow."),
        ("determinism", "wall-clock",
         "Instant/SystemTime read the clock. Timing belongs in crates/bench; library results must \
          never depend on when they were computed."),
        ("determinism", "thread-escape",
         "thread::spawn/thread::scope/rayon outside tensor::par escape the deterministic executor. \
          All parallelism routes through the worker pool, which is bitwise-identical to serial at \
          any thread count."),
        ("unsafe-audit", "missing-safety",
         "Every unsafe block/fn/impl must be immediately preceded by a // SAFETY: comment stating \
          the invariant that makes it sound. The full inventory is results/UNSAFE_AUDIT.md."),
        ("panic-path", "unwrap",
         ".unwrap() panics in library code; route through a try_* error path (GraphError, \
          DatasetError, ServeError) or justify the invariant in lint.allow."),
        ("panic-path", "expect",
         ".expect(…) panics in library code; route through a try_* error path or justify the \
          invariant in lint.allow."),
        ("panic-path", "panic-macro",
         "panic!/todo!/unimplemented!/unreachable! are panic paths in library code; acceptable \
          only as documented diagnostics for corrupted internal state, pinned in lint.allow."),
        ("panic-path", "range-index",
         "Bounded range indexing x[a..b] panics when out of range; prefer get(..), split_at, or \
          chunks_exact — all of which preserve bitwise-identical access order when rewritten \
          mechanically."),
        ("suppression", "unjustified-allow",
         "#[allow(…)] without a justification comment (same line or the line above) silently \
          widens the lint gate; say why the suppression is sound."),
        ("determinism-taint", "par-region",
         "A call inside a par_row_chunks_mut/par_map/par_for_each_mut/run_region argument region \
          resolves (through any number of helpers) to a function that observes a nondeterminism \
          source: wall-clock, thread id, hash iteration, pointer address, or ambient RNG. The \
          finding prints the witness call path. Fix the helper or sanction the site in lint.allow \
          under (determinism-taint, par-region, <file>)."),
        ("determinism-taint", "train-step",
         "train/train_with transitively observes a nondeterminism source, breaking bitwise resume \
          equality (PR 4). The finding prints the witness call path."),
        ("determinism-taint", "serve-entry",
         "A public ServeEngine method transitively observes a nondeterminism source; served \
          rankings are documented bitwise-reproducible. The finding prints the witness call path."),
        ("parallel-fold", "unordered-par-fold",
         "A compound assignment inside a parallel-region closure targets a variable captured from \
          outside the region; its accumulation order would depend on job scheduling, and float \
          addition does not commute bitwise. Keep accumulators region-local or route them through \
          the sanctioned fixed-order folds: matmul_grads_into, the hgn_step lane fold, the \
          backward_parallel_impl slot fold."),
        ("lock-discipline", "wait-outside-loop",
         "Condvar::wait must sit inside a loop/while that rechecks its predicate; condvars wake \
          spuriously, and a single-shot wait turns a spurious wake into a missed condition."),
        ("lock-discipline", "lock-across-park",
         "No mutex guard may be live across thread::park/sleep/spin_loop/yield_now, and a \
          Condvar::wait may hold no guard other than the one it atomically releases; a held lock \
          across a park stalls every contender."),
        ("lock-discipline", "lock-order",
         "When two pool mutexes nest, every nesting in the file must acquire them in the same \
          order; an inverted pair is the classic AB/BA deadlock."),
        ("panic-reach", "entry-points",
         "Not a per-site rule: the panic-reach pass renders results/PANIC_SURFACE.md (the \
          transitive panic surface of the core/hetgraph/tensor public API) and ratchets the count \
          of panic-reachable serving/training entry points — the gate fails when the report is \
          stale or the count grows. Regenerate with cargo run -p lint -- --update."),
        ("dead-pub", "unreachable-pub",
         "Not a per-site rule: results/DEAD_PUB.md lists the public library functions no binary \
          or example main and no perfbench function reaches (tests are not roots); the gate fails \
          when it is stale or its count grows. Delete what it lists unless tests need it."),
    ]
}
