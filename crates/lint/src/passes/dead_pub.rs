//! Dead-public-API pass: public library functions that no root reaches
//! down the call graph, rendered as `results/DEAD_PUB.md` with a ratcheted
//! count. The driver names the roots: every binary's and example's `fn
//! main` and every function in `perfbench/src`; tests are never roots.
//! Resolution by bare name over-approximates callees, so the pass can miss
//! a dead function but never lists a live one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::callgraph::CallGraph;
use crate::items::FnItem;

/// Result of the pass: the rendered report and what it lists.
pub struct DeadPub {
    pub report: String,
    /// Qualified names of the dead functions, in report order.
    pub dead: Vec<String>,
    /// Public library functions in scope.
    pub total: usize,
}

/// Run the pass over `cg` from `roots`; `in_scope` picks the functions
/// the report covers (the driver passes the library files).
pub fn dead_pub(cg: &CallGraph, roots: &[usize], in_scope: impl Fn(&FnItem) -> bool) -> DeadPub {
    let mut reached = vec![false; cg.fns.len()];
    let mut stack = roots.to_vec();
    while let Some(f) = stack.pop() {
        if !std::mem::replace(&mut reached[f], true) {
            stack.extend(cg.calls[f].iter().map(|site| site.callee));
        }
    }
    let mut by_file: BTreeMap<&str, Vec<(u32, String)>> = BTreeMap::new();
    let mut total = 0;
    for (f, &live) in cg.fns.iter().zip(&reached) {
        if f.is_pub && !f.in_test && in_scope(f) {
            total += 1;
            if !live {
                by_file
                    .entry(&f.file)
                    .or_default()
                    .push((f.line, f.qualified()));
            }
        }
    }
    let dead: Vec<String> = by_file.values().flatten().map(|(_, n)| n.clone()).collect();
    let mut report = String::from(
        "# Dead public API\n\n\
         Generated by `cargo run -p lint -- --update` (the dead-pub pass);\n\
         `cargo run -p lint` fails when this file is stale or the count grows.\n\
         Listed: public library functions that no `fn main` of a binary or\n\
         example, and no function in `perfbench/src`, reaches through the call\n\
         graph. Tests are not roots, so what stays listed is a test fixture or\n\
         the reference another function is tested against.\n\n",
    );
    let n = dead.len();
    let _ = writeln!(
        report,
        "<!-- ratchet: dead-pub {n} of {total} -->\n\n**{n} of {total}** unreachable."
    );
    for (file, fns) in &by_file {
        let _ = write!(report, "\n## {file}\n\n");
        for (line, name) in fns {
            let _ = writeln!(report, "- `{name}` (line {line})");
        }
    }
    DeadPub {
        report,
        dead,
        total,
    }
}
