//! Parallel-fold-order pass: no captured accumulation inside parallel
//! regions.
//!
//! The determinism contract (DESIGN.md) allows a parallel region to
//! *write* disjoint output ranges but never to *accumulate* into shared
//! state: accumulation order would then depend on job scheduling, and
//! float addition does not commute bitwise. This pass flags compound
//! assignments (`+=`, `-=`, `*=`, `/=`) whose left-hand base identifier
//! is captured from outside the closure — i.e. not bound by a closure
//! parameter, a `let`, or a `for` pattern inside the region — in the
//! argument region of a `tensor::par` primitive.
//!
//! Accumulation belongs in the sanctioned fixed-order fold
//! ([`SANCTIONED_FOLDS`]): `matmul_grads_into`, the fused MatMul
//! backward. Regions lexically inside it are exempt; everything else
//! either keeps its accumulators local or justifies itself in
//! `lint.allow`.

use std::collections::BTreeSet;

use crate::items::FnItem;
use crate::lexer::SigView;
use crate::passes::{Finding, PASS_PAR_FOLD};
use crate::scanner::Kind;
use crate::taint::PAR_PRIMS;

/// Functions that implement the deterministic fixed-order folds; their
/// parallel regions are the sanctioned exceptions to this pass.
pub const SANCTIONED_FOLDS: [&str; 1] = ["matmul_grads_into"];

/// Run the pass over one file. `fns` are the file's extracted items
/// (used to name the enclosing function of each region).
pub fn par_fold(file: &str, view: &SigView, fns: &[FnItem]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut s = 0usize;
    while s < view.len() {
        let is_prim = view.kind(s) == Some(Kind::Ident)
            && PAR_PRIMS.contains(&view.text(s))
            && view.text(s + 1) == "("
            && (s == 0 || view.text(s - 1) != "fn")
            && !view.in_test(s);
        if !is_prim {
            s += 1;
            continue;
        }
        let open = s + 1;
        let close = match view.mate(open) {
            Some(c) => c,
            None => {
                s += 1;
                continue;
            }
        };
        let enclosing = fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o < s && s < c))
            .max_by_key(|f| f.body.map(|(o, _)| o));
        if enclosing.is_some_and(|f| SANCTIONED_FOLDS.contains(&f.name.as_str())) {
            s = close + 1;
            continue;
        }
        let prim = view.text(s).to_string();
        let bound = bound_names(view, open + 1, close);
        for (base, line) in captured_accumulations(view, open + 1, close, &bound) {
            out.push(Finding {
                pass: PASS_PAR_FOLD,
                rule: "unordered-par-fold",
                file: file.to_string(),
                line,
                msg: format!(
                    "`{base}` is accumulated inside the `{prim}` region but captured from \
                     outside it; accumulation order would depend on scheduling — route it \
                     through a sanctioned fixed-order fold ({})",
                    SANCTIONED_FOLDS.join(", ")
                ),
                witness: Vec::new(),
            });
        }
        s = close + 1;
    }
    out
}

/// Names bound *inside* the region: closure parameters, `let` bindings,
/// and `for` patterns. Over-collection (e.g. an ident in a type
/// annotation) only makes the pass more permissive, never noisier.
fn bound_names(view: &SigView, start: usize, end: usize) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    let mut s = start;
    while s < end {
        match view.text(s) {
            "|" if matches!(view.text(s.wrapping_sub(1)), "(" | "," | "move") || s == start => {
                // Closure parameter list: idents up to the closing `|`.
                let mut t = s + 1;
                while t < end && view.text(t) != "|" {
                    if view.kind(t) == Some(Kind::Ident) {
                        bound.insert(view.text(t).to_string());
                    }
                    t += 1;
                }
                s = t + 1;
            }
            "let" => {
                // Pattern idents up to `=` or `;`.
                let mut t = s + 1;
                while t < end && !matches!(view.text(t), "=" | ";") {
                    if view.kind(t) == Some(Kind::Ident) {
                        bound.insert(view.text(t).to_string());
                    }
                    t += 1;
                }
                s = t + 1;
            }
            "for" => {
                let mut t = s + 1;
                while t < end && view.text(t) != "in" {
                    if view.kind(t) == Some(Kind::Ident) {
                        bound.insert(view.text(t).to_string());
                    }
                    t += 1;
                }
                s = t + 1;
            }
            _ => s += 1,
        }
    }
    bound
}

/// Compound assignments in the region whose base identifier is not in
/// `bound`: `(base ident, line)` pairs.
fn captured_accumulations(
    view: &SigView,
    start: usize,
    end: usize,
    bound: &BTreeSet<String>,
) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for t in start + 1..end {
        if view.text(t) != "=" || !matches!(view.text(t - 1), "+" | "-" | "*" | "/") {
            continue;
        }
        // Walk left from the operator to the base identifier of the
        // lvalue: over `]`/`)` groups (indexing, calls) and `.field`
        // chains.
        let mut k = match (t - 1).checked_sub(1) {
            Some(k) if k >= start => k,
            _ => continue,
        };
        let base = loop {
            match view.text(k) {
                "]" | ")" => match view.mate(k) {
                    Some(open) if open > start => k = open - 1,
                    _ => break None,
                },
                _ if view.kind(k) == Some(Kind::Ident) => {
                    if k > start && view.text(k - 1) == "." {
                        if k < start + 2 {
                            break None;
                        }
                        k -= 2;
                    } else {
                        break Some(view.text(k).to_string());
                    }
                }
                _ => break None,
            }
            if k <= start {
                break None;
            }
        };
        if let Some(base) = base {
            if !bound.contains(&base) {
                out.push((base, view.line(t)));
            }
        }
    }
    out
}
