//! # lint — workspace invariant analyzer
//!
//! Offline, dependency-free static analysis for the invariants the rest
//! of the workspace proves dynamically: bitwise-identical results at any
//! `TENSOR_NUM_THREADS`, pooled-tape safety, and bitwise resume
//! equality. Proptests sample those guarantees; this crate makes their
//! known failure modes — nondeterministic iteration, unaudited `unsafe`,
//! panic paths in library code, unexplained lint suppressions, taint
//! leaking into parallel regions, and worker-pool locking mistakes —
//! impossible to reintroduce silently.
//!
//! Two analysis tiers share a hand-rolled token scanner ([`scanner`]):
//!
//! * **Per-file passes** ([`passes`]) match token sequences within one
//!   file: determinism sources, unsafe-audit, panic paths, suppression
//!   hygiene, parallel-fold order, and lock/park discipline.
//! * **Call-graph passes** walk the workspace-wide graph built by
//!   [`lexer`] → [`items`] → [`callgraph`]: [`taint`] (nondeterminism
//!   reaching parallel regions, training steps, or serving entry points,
//!   with witness call paths), [`passes::panic_reach`] (the transitive
//!   panic surface of the public API, `results/PANIC_SURFACE.md`) and
//!   [`passes::dead_pub`] (public API no root reaches, `results/DEAD_PUB.md`).
//!
//! Existing debt is pinned by a ratcheted allowlist ([`allowlist`],
//! `lint.allow` at the workspace root) that can only shrink; the
//! panic-surface entry-point count and the dead-pub count are ratcheted
//! inside their reports the same way. `cargo run -p lint` is the first
//! `scripts/ci.sh` stage, before clippy and the build. See DESIGN.md
//! §"Static analysis".

pub mod allowlist;
pub mod callgraph;
pub mod driver;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod scanner;
pub mod taint;
