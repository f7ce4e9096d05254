//! The workspace invariant passes.
//!
//! Per-file passes ([`determinism`], [`unsafe_audit`], [`panic_path`],
//! [`suppression`], [`par_fold`], [`lock_discipline`]) are pure functions
//! from a scanned file to findings; the interprocedural passes
//! ([`crate::taint`], [`panic_reach`], [`dead_pub`]) run over the
//! workspace call graph.
//! File scoping (which crates, which directory kinds) lives in the
//! driver. All passes match token sequences over the comment-free
//! stream, so anything inside strings, chars, or comments is invisible
//! to them by construction.

pub mod dead_pub;
mod determinism;
mod lockpark;
mod panic;
pub mod panic_reach;
mod parfold;
mod suppression;
mod unsafe_audit;

pub use dead_pub::{dead_pub, DeadPub};
pub use determinism::determinism;
pub use lockpark::lock_discipline;
pub use panic::panic_path;
pub use panic_reach::{panic_reach, PanicSurface};
pub use parfold::{par_fold, SANCTIONED_FOLDS};
pub use suppression::suppression;
pub use unsafe_audit::{unsafe_audit, UnsafeSite};

use crate::scanner::Token;

/// One lint finding, addressed the way the allowlist ratchet counts it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub pass: &'static str,
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub msg: String,
    /// For interprocedural findings: the call path from the flagged site
    /// down to the root cause, outermost first. Empty for per-file
    /// findings.
    pub witness: Vec<String>,
}

pub const PASS_DETERMINISM: &str = "determinism";
pub const PASS_UNSAFE: &str = "unsafe-audit";
pub const PASS_PANIC: &str = "panic-path";
pub const PASS_SUPPRESSION: &str = "suppression";
pub const PASS_TAINT: &str = "determinism-taint";
pub const PASS_PAR_FOLD: &str = "parallel-fold";
pub const PASS_LOCK: &str = "lock-discipline";
pub const PASS_PANIC_REACH: &str = "panic-reach";

/// Indices of non-trivia tokens, the view the per-file sequence matchers
/// use. (The interprocedural passes use [`crate::lexer::SigView`], which
/// additionally pre-computes bracket mates.)
pub(crate) fn sig_indices(tokens: &[Token]) -> Vec<usize> {
    (0..tokens.len())
        .filter(|&i| !tokens[i].is_trivia())
        .collect()
}
