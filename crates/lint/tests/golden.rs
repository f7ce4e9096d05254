//! Golden tests for the workspace linter.
//!
//! Three layers: scanner classification on the lexical-minefield fixture,
//! exact `(rule, line)` findings per pass on the violation fixtures, and
//! driver-level gate behaviour (per-class failure, allowlist pinning,
//! ratchet staleness, `--update` tightening) on synthetic workspace roots.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use lint::allowlist::Allowlist;
use lint::callgraph::CallGraph;
use lint::driver::{self, classify, FileClass, Mode, Options};
use lint::items;
use lint::lexer::SigView;
use lint::passes::{self, Finding};
use lint::scanner::{self, Kind, Scanned};
use lint::taint;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Lines of findings matching `rule`, in emission order.
fn lines(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

#[test]
fn scanner_tricky_classifies_every_trap() {
    let src = fixture("scanner_tricky.rs");
    let toks = scanner::tokenize(&src);

    // None of the trigger words survive as identifiers — they are all
    // inside strings, chars, or comments.
    let idents: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    for trap in [
        "HashMap",
        "HashSet",
        "unwrap",
        "expect",
        "Instant",
        "SystemTime",
        "panic",
        "todo",
        "thread",
        "rayon",
        "SAFETY",
    ] {
        assert!(!idents.contains(&trap), "`{trap}` leaked out of a literal");
    }

    let count = |k: Kind| toks.iter().filter(|t| t.kind == k).count();
    // Strings: s, raw, fenced, nested ("/* … */" is a STRING), b"…",
    // "rayon::spawn", the continuation string, and the format! template.
    assert_eq!(count(Kind::Str), 8, "string literals");
    // Chars: '/', '"', '\n', '\\', b'/'.
    assert_eq!(count(Kind::Char), 5, "char literals");
    assert_eq!(count(Kind::Lifetime), 1, "'static");
    // Exactly one block comment (line 17); line 9's "/* … */" is a string.
    assert_eq!(count(Kind::BlockComment), 1, "block comments");

    // Line numbers stay correct across the `\`-newline continuation in the
    // string on lines 19–20: the raw identifier after it sits on line 21.
    let raw_ident = toks
        .iter()
        .find(|t| t.kind == Kind::Ident && t.text == "type")
        .expect("raw identifier r#type");
    assert_eq!(
        raw_ident.line, 21,
        "line counting across string continuation"
    );

    // And the whole fixture yields zero findings from every pass.
    let scanned = scanner::scan(&src);
    assert!(passes::determinism("f.rs", &scanned, false).is_empty());
    assert!(passes::panic_path("f.rs", &scanned).is_empty());
    let (unsafe_findings, sites) = passes::unsafe_audit("f.rs", &scanned);
    assert!(unsafe_findings.is_empty() && sites.is_empty());
    assert!(passes::suppression("f.rs", &scanned).is_empty());
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

#[test]
fn determinism_fixture_exact_lines() {
    let scanned = scanner::scan(&fixture("determinism_viol.rs"));
    let found = passes::determinism("f.rs", &scanned, false);
    assert_eq!(lines(&found, "hash-collections"), vec![4, 8, 8, 31]);
    assert_eq!(lines(&found, "wall-clock"), vec![5, 9, 10]);
    assert_eq!(lines(&found, "thread-escape"), vec![11, 12, 13]);
    assert_eq!(found.len(), 10, "no findings beyond the three rules");

    // The sanctioned-executor exemption drops exactly the thread rule.
    let exempt = passes::determinism("f.rs", &scanned, true);
    assert_eq!(lines(&exempt, "thread-escape"), Vec::<u32>::new());
    assert_eq!(exempt.len(), 7);
}

#[test]
fn unsafe_fixture_accepts_every_comment_position() {
    let scanned = scanner::scan(&fixture("unsafe_ok.rs"));
    let (findings, sites) = passes::unsafe_audit("f.rs", &scanned);
    assert!(
        findings.is_empty(),
        "all five sites are justified: {findings:?}"
    );
    assert_eq!(sites.len(), 5);
    assert!(sites.iter().all(|s| s.justification.is_some()));
    let kinds: Vec<&str> = sites.iter().map(|s| s.kind).collect();
    assert_eq!(kinds, vec!["fn", "fn", "fn", "block", "block"]);
    // The statement-continuation walk found the comment above the `let`.
    let cont = &sites[3];
    assert_eq!(cont.line, 21);
    assert!(
        cont.justification
            .as_deref()
            .is_some_and(|j| j.contains("continuation")),
        "multi-line SAFETY text collected: {:?}",
        cont.justification
    );
}

#[test]
fn unsafe_fixture_flags_every_missing_comment() {
    let scanned = scanner::scan(&fixture("unsafe_missing.rs"));
    let (findings, sites) = passes::unsafe_audit("f.rs", &scanned);
    assert_eq!(lines(&findings, "missing-safety"), vec![4, 7, 11, 15]);
    assert_eq!(sites.len(), 4);
    assert!(sites.iter().all(|s| s.justification.is_none()));
}

#[test]
fn panic_fixture_exact_lines() {
    let scanned = scanner::scan(&fixture("panic_viol.rs"));
    let found = passes::panic_path("f.rs", &scanned);
    assert_eq!(lines(&found, "unwrap"), vec![6]);
    assert_eq!(lines(&found, "expect"), vec![7]);
    assert_eq!(lines(&found, "panic-macro"), vec![9, 20, 24, 30]);
    // x[a..b], x[..n], x[a..] flagged; x[..] (line 14) infallible, not.
    assert_eq!(lines(&found, "range-index"), vec![11, 12, 13]);
    assert_eq!(found.len(), 9, "cfg(test) module fully exempt");
}

#[test]
fn suppression_fixture_exact_lines() {
    let scanned = scanner::scan(&fixture("suppression_viol.rs"));
    let found = passes::suppression("f.rs", &scanned);
    assert_eq!(lines(&found, "unjustified-allow"), vec![1, 12]);
}

// ---------------------------------------------------------------------------
// Call-graph passes
// ---------------------------------------------------------------------------

/// Build the interprocedural pipeline over a single fixture file,
/// pretending it lives at `file` in the workspace.
fn single_file_graph<'a>(file: &str, scanned: &'a Scanned) -> (CallGraph, SigView<'a>) {
    let view = SigView::new(scanned);
    let fns = items::extract(file, 0, &view, None);
    let cg = CallGraph::build(fns, &[&view], false);
    (cg, view)
}

/// Acceptance criterion: the taint pass catches a nondeterminism source
/// reaching a parallel region through two levels of function calls, and
/// the witness call path names every hop down to the source token.
#[test]
fn taint_fixture_witness_through_two_helpers() {
    let scanned = scanner::scan(&fixture("taint_through_helper.rs"));
    let (cg, view) = single_file_graph("crates/foo/src/train.rs", &scanned);
    let found = taint::determinism_taint(&cg, &[&view], &[]);

    let rules: Vec<&str> = found.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["par-region", "train-step", "serve-entry"]);

    // Sink 1: the call site inside the `par_row_chunks_mut` region.
    let par = &found[0];
    assert_eq!(par.line, 18, "flagged at the in-region call site");
    assert_eq!(
        par.witness,
        vec![
            "mid_helper (crates/foo/src/train.rs:11)",
            "leaf_count (crates/foo/src/train.rs:6)",
            "`HashMap` at crates/foo/src/train.rs:7",
        ],
        "two-hop witness chain down to the source token"
    );
    assert!(par.msg.contains("mid_helper -> leaf_count"));

    // Sink 2: the training loop, three hops above the source.
    let train = &found[1];
    assert_eq!(train.line, 23);
    assert_eq!(train.witness[0], "train_with (crates/foo/src/train.rs:23)");
    assert_eq!(
        train.witness.len(),
        4,
        "train_with -> mid -> leaf -> source"
    );

    // Sink 3: the public ServeEngine method.
    let serve = &found[2];
    assert_eq!(serve.line, 30);
    assert_eq!(
        serve.witness[0],
        "ServeEngine::predict (crates/foo/src/train.rs:30)"
    );
}

#[test]
fn panic_reach_fixture_counts_and_witness() {
    let scanned = scanner::scan(&fixture("panic_reach_pub.rs"));
    let (cg, view) = single_file_graph("crates/foo/src/train.rs", &scanned);
    let surface = passes::panic_reach(&cg, &[&view], &[""]);

    // safe/risky/train_with are entry points; risky and train_with reach
    // the index in helper_leaf through helper_mid.
    assert_eq!((surface.entry_reachable, surface.entry_total), (2, 3));
    assert_eq!((surface.public_reachable, surface.public_total), (2, 3));
    assert!(surface
        .report
        .contains("<!-- ratchet: entry-points-panic-reachable 2 of 3 -->"));
    assert!(
        surface.report.contains(
            "ServeEngine::risky -> helper_mid -> helper_leaf \
             (index at crates/foo/src/train.rs:25)"
        ),
        "witness path rendered: {}",
        surface.report
    );
    assert!(surface
        .report
        .contains("`ServeEngine::safe` (crates/foo/src/train.rs:7) — no panic path found"));
}

/// The callees of the function named `caller`, as qualified names.
fn callees(cg: &CallGraph, caller: &str) -> Vec<String> {
    let i = cg
        .fns
        .iter()
        .position(|f| f.name == caller)
        .unwrap_or_else(|| panic!("no fn `{caller}`"));
    cg.calls[i]
        .iter()
        .map(|c| cg.fns[c.callee].qualified())
        .collect()
}

/// A turbofish qualifier names its type: `Operands::<3>::new()` calls
/// `Operands::new` only, not every workspace `new`.
#[test]
fn turbofish_qualifier_resolves_to_its_type() {
    let scanned = scanner::scan(&fixture("callgraph_qualifiers.rs"));
    let (cg, _view) = single_file_graph("crates/foo/src/lib.rs", &scanned);
    assert_eq!(callees(&cg, "with_turbofish"), ["Operands::new"]);
}

/// A type alias names its target: `Alias::new(0)` with
/// `type Alias = crate::Model<u8>` calls `Model::new`.
#[test]
fn type_alias_qualifier_resolves_to_its_target() {
    let scanned = scanner::scan(&fixture("callgraph_qualifiers.rs"));
    let (cg, _view) = single_file_graph("crates/foo/src/lib.rs", &scanned);
    assert_eq!(callees(&cg, "through_alias"), ["Model::new"]);
}

/// A type parameter qualifier resolves like a bare name: `P::rows()`
/// under `P: Rows` reaches the implementors' `rows`.
#[test]
fn type_param_qualifier_resolves_like_a_bare_name() {
    let scanned = scanner::scan(&fixture("callgraph_qualifiers.rs"));
    let (cg, _view) = single_file_graph("crates/foo/src/lib.rs", &scanned);
    assert_eq!(
        callees(&cg, "through_param"),
        ["Rows::rows", "ByPath::rows"]
    );
}

#[test]
fn par_fold_fixture_flags_captured_accumulator_only() {
    let scanned = scanner::scan(&fixture("par_fold_viol.rs"));
    let view = SigView::new(&scanned);
    let fns = items::extract("f.rs", 0, &view, None);
    let found = passes::par_fold("f.rs", &view, &fns);

    // `acc` in bad_fold is captured; the identical accumulation inside
    // matmul_grads_into is sanctioned, and `local` is region-bound.
    assert_eq!(lines(&found, "unordered-par-fold"), vec![9]);
    assert_eq!(found.len(), 1);
    assert!(found[0].msg.contains("`acc`"));
    assert!(found[0].msg.contains("matmul_grads_into"));
    assert!(found[0].msg.contains("hgn_step"));
}

#[test]
fn lock_fixture_exact_lines() {
    let scanned = scanner::scan(&fixture("lock_viol.rs"));
    let view = SigView::new(&scanned);
    let found = passes::lock_discipline("pool.rs", &view);

    assert_eq!(lines(&found, "wait-outside-loop"), vec![6]);
    assert_eq!(lines(&found, "lock-across-park"), vec![12]);
    assert_eq!(lines(&found, "lock-order"), vec![25]);
    assert_eq!(found.len(), 3, "good_wait stays clean");
}

// ---------------------------------------------------------------------------
// Allowlist ratchet
// ---------------------------------------------------------------------------

#[test]
fn allowlist_parse_and_ratchet() {
    let text = "\
# comment\n\n\
panic-path unwrap crates/a/src/lib.rs 2 -- invariant: index pre-validated by caller\n\
determinism wall-clock crates/b/src/lib.rs 1 -- startup banner only, not in results\n";
    let mut list = Allowlist::parse(text).expect("valid allowlist");
    assert_eq!(list.get("panic-path", "unwrap", "crates/a/src/lib.rs"), 2);
    assert_eq!(list.get("panic-path", "unwrap", "crates/zzz/src/lib.rs"), 0);

    // Malformed lines are hard errors, not silent widenings.
    assert!(
        Allowlist::parse("panic-path unwrap f.rs 1\n").is_err(),
        "no justification"
    );
    assert!(
        Allowlist::parse("panic-path unwrap f.rs 1 -- short\n").is_err(),
        "trivial"
    );
    assert!(
        Allowlist::parse("panic-path unwrap f.rs 1 -- FIXME explain this later\n").is_err(),
        "placeholder justification"
    );
    assert!(Allowlist::parse("panic-path unwrap f.rs x -- bad count field here\n").is_err());
    let dup = "p r f 1 -- justified because reasons\np r f 2 -- justified because reasons\n";
    assert!(Allowlist::parse(dup).is_err(), "duplicate keys rejected");

    // tighten() lowers and drops, never raises; render() round-trips.
    let mut observed: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    observed.insert(
        (
            "panic-path".into(),
            "unwrap".into(),
            "crates/a/src/lib.rs".into(),
        ),
        1, // down from 2 — ceiling tightens
    ); // wall-clock entry unobserved — dropped
    let changed = list.tighten(&observed);
    assert_eq!(changed, 2);
    assert_eq!(list.get("panic-path", "unwrap", "crates/a/src/lib.rs"), 1);
    assert_eq!(
        list.get("determinism", "wall-clock", "crates/b/src/lib.rs"),
        0
    );
    let rendered = list.render("# header\n");
    let reparsed = Allowlist::parse(&rendered).expect("render round-trips");
    assert_eq!(reparsed.entries.len(), 1);
}

// ---------------------------------------------------------------------------
// Driver: scope matrix + gate behaviour on synthetic roots
// ---------------------------------------------------------------------------

#[test]
fn classify_scope_matrix() {
    assert_eq!(classify("crates/core/src/model.rs"), FileClass::Lib);
    assert_eq!(classify("crates/tensor/src/par/mod.rs"), FileClass::Lib);
    assert_eq!(classify("crates/tensor/src/par/pool.rs"), FileClass::Lib);
    assert_eq!(
        classify("crates/eval/src/bin/table2.rs"),
        FileClass::Support
    );
    assert_eq!(classify("crates/core/src/main.rs"), FileClass::Support);
    assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::Support);
    assert_eq!(
        classify("crates/core/tests/resilience.rs"),
        FileClass::Support
    );
    assert_eq!(
        classify("crates/lint/tests/fixtures/panic_viol.rs"),
        FileClass::Skip
    );
    // A benches dir is audited like tests and examples.
    assert_eq!(
        classify("crates/bench/benches/kernels.rs"),
        FileClass::Support
    );
    assert_eq!(classify("vendor/proptest/src/lib.rs"), FileClass::Skip);
    assert_eq!(classify("target/debug/build/out.rs"), FileClass::Skip);
    assert_eq!(classify("crates/core/README.md"), FileClass::Skip);
}

/// Build a throwaway workspace root containing one library file.
fn synth_root(tag: &str, lib_rs: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lint-golden-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/foo/src");
    fs::create_dir_all(&src).expect("mkdir synth root");
    fs::write(src.join("lib.rs"), lib_rs).expect("write synth lib.rs");
    root
}

fn run_check(root: &Path) -> driver::Outcome {
    driver::run(&Options {
        root: root.to_path_buf(),
        mode: Mode::Check,
        write_report: false,
    })
    .expect("driver run")
}

/// Acceptance criterion: the gate fails (and therefore the binary exits
/// non-zero) on *each* violation class in isolation.
#[test]
fn gate_fails_per_violation_class() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "hash",
            "use std::collections::HashMap;\n",
            "hash-collections",
        ),
        (
            "clock",
            "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
            "wall-clock",
        ),
        (
            "thread",
            "pub fn s() {\n    std::thread::spawn(|| {});\n}\n",
            "thread-escape",
        ),
        (
            "unwrap",
            "pub fn u(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n",
            "unwrap",
        ),
        (
            "panic",
            "pub fn p() {\n    panic!(\"boom\");\n}\n",
            "panic-macro",
        ),
        (
            "range",
            "pub fn r(v: &[u32]) -> &[u32] {\n    &v[1..3]\n}\n",
            "range-index",
        ),
        ("unsafe", "pub unsafe fn g() {}\n", "missing-safety"),
        (
            "allow",
            "#[allow(dead_code)]\nfn h() {}\n",
            "unjustified-allow",
        ),
    ];
    for (tag, src, rule) in cases {
        let root = synth_root(tag, src);
        let out = run_check(&root);
        assert!(
            out.errors.iter().any(|e| e.contains(rule)),
            "class {rule}: expected a gate error, got {:?}",
            out.errors
        );
    }
}

#[test]
fn gate_pins_tightens_and_detects_stale() {
    let lib = "\
use std::collections::HashMap;
use std::time::Instant;

pub fn count() -> usize {
    let m: HashMap<u32, u32> = HashMap::new();
    m.len()
}

pub fn when() -> Instant {
    Instant::now()
}

pub fn risky(o: Option<u32>) -> u32 {
    o.unwrap()
}

pub unsafe fn raw() {}

#[allow(dead_code)]
fn silenced() {}
";
    let root = synth_root("full", lib);

    // 1. Unpinned: every class fails the gate.
    let out = run_check(&root);
    for rule in [
        "hash-collections",
        "wall-clock",
        "unwrap",
        "missing-safety",
        "unjustified-allow",
    ] {
        assert!(
            out.errors.iter().any(|e| e.contains(rule)),
            "unpinned {rule}"
        );
    }

    // 2. Pin every count in lint.allow: the gate passes.
    let allow = "\
determinism hash-collections crates/foo/src/lib.rs 3 -- fixture debt pinned by golden test
determinism wall-clock crates/foo/src/lib.rs 3 -- fixture debt pinned by golden test
panic-path unwrap crates/foo/src/lib.rs 1 -- fixture debt pinned by golden test
unsafe-audit missing-safety crates/foo/src/lib.rs 1 -- fixture debt pinned by golden test
suppression unjustified-allow crates/foo/src/lib.rs 1 -- fixture debt pinned by golden test
";
    fs::write(root.join("lint.allow"), allow).expect("write lint.allow");
    let out = run_check(&root);
    assert!(
        out.errors.is_empty(),
        "pinned gate should pass: {:?}",
        out.errors
    );
    assert_eq!(out.files_scanned, 1);

    // 3. Fix the unwrap: the pinned ceiling is now stale and Check fails.
    let fixed = lib.replace("o.unwrap()", "o.unwrap_or(0)");
    fs::write(root.join("crates/foo/src/lib.rs"), &fixed).expect("rewrite lib.rs");
    let out = run_check(&root);
    assert!(
        out.errors
            .iter()
            .any(|e| e.contains("stale") && e.contains("unwrap")),
        "stale ratchet detected: {:?}",
        out.errors
    );

    // 4. --update tightens: the unwrap entry is dropped, Check passes.
    driver::run(&Options {
        root: root.clone(),
        mode: Mode::Update,
        write_report: false,
    })
    .expect("update run");
    let rewritten = fs::read_to_string(root.join("lint.allow")).expect("read lint.allow");
    assert!(
        !rewritten.contains("panic-path unwrap"),
        "tightened entry dropped"
    );
    assert!(
        rewritten.contains("hash-collections"),
        "live entries survive"
    );
    let out = run_check(&root);
    assert!(
        out.errors.is_empty(),
        "post-update gate passes: {:?}",
        out.errors
    );

    // 5. New debt above a ceiling still fails even in Update mode:
    //    tightening never legitimizes growth.
    let grown = fixed.replace("m.len()", "m.len() + HashMap::<u8, u8>::new().len()");
    fs::write(root.join("crates/foo/src/lib.rs"), &grown).expect("grow lib.rs");
    let out = driver::run(&Options {
        root: root.clone(),
        mode: Mode::Update,
        write_report: false,
    })
    .expect("update run on grown debt");
    assert!(
        out.errors.iter().any(|e| e.contains("hash-collections")),
        "over-ceiling still fails in Update mode: {:?}",
        out.errors
    );
}

/// A taint finding surfaces in the gate with its witness call path, and
/// an ordinary `lint.allow` entry sanctions it.
#[test]
fn gate_sanctions_taint_via_allowlist() {
    let lib = "\
use std::collections::HashMap;

fn entropy(xs: &[u32]) -> usize {
    let m: HashMap<u32, u32> = xs.iter().map(|&x| (x, x)).collect();
    m.len()
}

fn helper(xs: &[u32]) -> usize {
    entropy(xs)
}

pub fn par_user(out: &mut [f32], xs: &[u32]) {
    par_row_chunks_mut(out, 4, |chunk, _r0| {
        for v in chunk.iter_mut() {
            *v = helper(xs) as f32;
        }
    });
}
";
    let root = synth_root("taint", lib);
    let out = run_check(&root);
    let taint_err = out
        .errors
        .iter()
        .find(|e| e.contains("par-region"))
        .expect("unpinned taint violation fails the gate");
    for via in [
        "via helper (crates/foo/src/lib.rs:8)",
        "via entropy (crates/foo/src/lib.rs:3)",
        "via `HashMap` at crates/foo/src/lib.rs:4",
    ] {
        assert!(
            taint_err.contains(via),
            "gate error prints the witness hop {via:?}: {taint_err}"
        );
    }

    let allow = "\
determinism hash-collections crates/foo/src/lib.rs 2 -- fixture debt pinned by golden taint test
determinism-taint par-region crates/foo/src/lib.rs 1 -- sanctioned fixture nondeterminism for golden taint test
";
    fs::write(root.join("lint.allow"), allow).expect("write lint.allow");
    let out = run_check(&root);
    assert!(
        out.errors.is_empty(),
        "sanctioned taint site passes the gate: {:?}",
        out.errors
    );
}

/// The real binary exits non-zero on a violating root and zero once the
/// debt is pinned — the exact contract scripts/ci.sh relies on.
#[test]
fn binary_exit_codes_match_gate() {
    let root = synth_root("exitcode", "pub unsafe fn g() {}\n");
    let run = |root: &Path| {
        Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(["--no-report", "--root"])
            .arg(root)
            .output()
            .expect("spawn lint binary")
    };
    let out = run(&root);
    assert!(!out.status.success(), "violating root must exit non-zero");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("missing-safety"),
        "diagnostic names the rule"
    );

    fs::write(
        root.join("lint.allow"),
        "unsafe-audit missing-safety crates/foo/src/lib.rs 1 -- pinned by exit-code test\n",
    )
    .expect("write lint.allow");
    let out = run(&root);
    assert!(out.status.success(), "pinned root must exit zero");
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint: OK"));
}

/// The dead-pub report lists exactly the public functions no root
/// reaches: a binary's `main` calls `a`, a unit test calls `b`, and
/// nothing calls `c`. A stale committed report fails the gate.
#[test]
fn dead_pub_lists_what_no_root_reaches() {
    let root = synth_root(
        "deadpub",
        "pub fn a() {}\npub fn b() {}\npub fn c() {}\n\n#[cfg(test)]\nmod tests {\n    \
         #[test]\n    fn t() {\n        super::b();\n    }\n}\n",
    );
    let bin = root.join("crates/foo/src/bin");
    fs::create_dir_all(&bin).expect("mkdir bin");
    fs::write(bin.join("app.rs"), "fn main() {\n    foo::a();\n}\n").expect("write bin");
    let out = run_check(&root);
    assert_eq!(out.dead_pub.dead, ["b", "c"]);
    assert!(out.dead_pub.report.contains("dead-pub 2 of 3 -->"));

    // A committed report with a lower count fails as grown and as stale.
    fs::create_dir_all(root.join("results")).expect("mkdir results");
    let committed = out.dead_pub.report.replace("2 of 3", "1 of 3");
    fs::write(root.join("results/DEAD_PUB.md"), committed).expect("write report");
    let opts = Options {
        root,
        mode: Mode::Check,
        write_report: true,
    };
    let errors = driver::run(&opts).expect("driver run").errors.join("\n");
    assert!(errors.contains("DEAD_PUB.md grew (1 -> 2)"), "{errors}");
    assert!(errors.contains("DEAD_PUB.md is stale"), "{errors}");
}

/// A crate is named by its package as well as by its directory: a root's
/// `foo_pkg::used()` reaches `used` in `crates/foo` when `crates/foo`'s
/// manifest names the package `foo-pkg`, so only `unused` is listed dead.
#[test]
fn dead_pub_follows_package_qualified_calls() {
    let root = synth_root("deadpub-package", "pub fn used() {}\npub fn unused() {}\n");
    fs::write(
        root.join("crates/foo/Cargo.toml"),
        "[package]\nname = \"foo-pkg\"\nversion = \"0.1.0\"\n",
    )
    .expect("write manifest");
    let bin = root.join("crates/foo/src/bin");
    fs::create_dir_all(&bin).expect("mkdir bin");
    fs::write(bin.join("app.rs"), "fn main() {\n    foo_pkg::used();\n}\n").expect("write bin");
    assert_eq!(run_check(&root).dead_pub.dead, ["unused"]);
}

/// A bare value names a free function or a local, never a method: a
/// binary passing its local `l2` to `zip(l2)` keeps the free `l2` alive
/// but not the method `Graph::l2`.
#[test]
fn dead_pub_bare_value_does_not_resolve_to_a_method() {
    let root = synth_root(
        "deadpub-value",
        "pub struct Graph;\nimpl Graph {\n    pub fn l2(&self) {}\n}\npub fn l2() {}\n",
    );
    let bin = root.join("crates/foo/src/bin");
    fs::create_dir_all(&bin).expect("mkdir bin");
    fs::write(
        bin.join("app.rs"),
        "fn main() {\n    let l2 = [1];\n    let _ = [0].iter().zip(l2);\n    let _ = \
         [0].map(l2);\n}\n",
    )
    .expect("write bin");
    assert_eq!(run_check(&root).dead_pub.dead, ["Graph::l2"]);
}
