//! CLI for the workspace invariant analyzer.
//!
//! ```text
//! cargo run -p lint                    # enforce (CI gate; exit 1 on violations)
//! cargo run -p lint -- --update       # tighten lint.allow + rewrite PANIC_SURFACE.md, DEAD_PUB.md
//! cargo run -p lint -- --json         # machine-readable findings + errors
//! cargo run -p lint -- --explain RULE # print a rule's contract (or `all`)
//! cargo run -p lint -- --root DIR     # lint another workspace root
//! cargo run -p lint -- --no-report    # skip results/ report writing + stale checks
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use lint::driver::{self, rule_contracts, Mode, Options};
use lint::passes::Finding;

fn main() -> ExitCode {
    let mut opts = Options {
        // The crate lives at <root>/crates/lint, so the default workspace
        // root is two levels up from the manifest.
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        mode: Mode::Check,
        write_report: true,
    };
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--update" => opts.mode = Mode::Update,
            "--no-report" => opts.write_report = false,
            "--json" => json = true,
            "--explain" => {
                return match args.next() {
                    Some(rule) => explain(&rule),
                    None => {
                        eprintln!("lint: --explain requires a rule name (or `all`)");
                        ExitCode::FAILURE
                    }
                };
            }
            "--root" => match args.next() {
                Some(dir) => opts.root = PathBuf::from(dir),
                None => {
                    eprintln!("lint: --root requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("lint: unknown flag {other:?}");
                eprintln!(
                    "usage: lint [--update] [--json] [--explain RULE] [--no-report] [--root DIR]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let outcome = match driver::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", render_json(&outcome));
        return if outcome.errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let audited = outcome.unsafe_sites.len();
    println!(
        "lint: scanned {} file(s); {} finding(s) pre-allowlist; {} unsafe site(s) audited; \
         panic surface {}/{} entry point(s); dead pub {}/{} function(s)",
        outcome.files_scanned,
        outcome.findings.len(),
        audited,
        outcome.panic_surface.entry_reachable,
        outcome.panic_surface.entry_total,
        outcome.dead_pub.dead.len(),
        outcome.dead_pub.total,
    );
    if outcome.errors.is_empty() {
        println!("lint: OK");
        ExitCode::SUCCESS
    } else {
        for e in &outcome.errors {
            eprintln!("lint: {e}");
        }
        eprintln!("lint: {} error(s)", outcome.errors.len());
        ExitCode::FAILURE
    }
}

/// Print the contract of one rule (or every rule, for `all`).
fn explain(rule: &str) -> ExitCode {
    let table = rule_contracts();
    let matches: Vec<_> = table
        .iter()
        .filter(|(pass, r, _)| rule == "all" || *r == rule || *pass == rule)
        .collect();
    if matches.is_empty() {
        eprintln!("lint: unknown rule {rule:?}; known rules:");
        for (pass, r, _) in table {
            eprintln!("  {pass}/{r}");
        }
        return ExitCode::FAILURE;
    }
    for (pass, r, contract) in matches {
        println!("{pass}/{r}:\n  {contract}\n");
    }
    ExitCode::SUCCESS
}

/// Hand-rolled JSON (the workspace is dependency-free by policy).
fn render_json(outcome: &driver::Outcome) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&finding_json(f));
    }
    out.push_str("\n  ],\n  \"errors\": [");
    for (i, e) in outcome.errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&json_str(e));
    }
    out.push_str(&format!(
        "\n  ],\n  \"files_scanned\": {},\n  \"unsafe_sites\": {},\n  \
         \"panic_surface\": {{\"entry_reachable\": {}, \"entry_total\": {}, \
         \"public_reachable\": {}, \"public_total\": {}}}\n}}",
        outcome.files_scanned,
        outcome.unsafe_sites.len(),
        outcome.panic_surface.entry_reachable,
        outcome.panic_surface.entry_total,
        outcome.panic_surface.public_reachable,
        outcome.panic_surface.public_total,
    ));
    out
}

fn finding_json(f: &Finding) -> String {
    let mut s = format!(
        "{{\"pass\": {}, \"rule\": {}, \"file\": {}, \"line\": {}, \"msg\": {}, \"witness\": [",
        json_str(f.pass),
        json_str(f.rule),
        json_str(&f.file),
        f.line,
        json_str(&f.msg),
    );
    for (i, w) in f.witness.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(w));
    }
    s.push_str("]}");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
