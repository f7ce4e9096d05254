#!/usr/bin/env bash
# Offline CI gate — everything runs against the vendored deps in vendor/,
# no network access required.
#
#   scripts/ci.sh          # fmt + lint + clippy + release build + tier-1 tests
#   scripts/ci.sh --full   # also: workspace tests + pooled-allocation gate
#
# Stages:
#   1. cargo fmt --check on the incrementally-adopted file list below. The
#      seed tree predates rustfmt enforcement and reformatting it wholesale
#      would bury real diffs, so formatting is ratcheted: files added or
#      rewritten by a PR go on the list and stay clean forever after.
#   2. cargo run -p lint — the workspace invariant linter: per-file
#      passes (determinism, unsafe-audit, panic-path, suppression) plus
#      the call-graph passes (determinism-taint with witness paths,
#      panic-reach, parallel-fold, lock-discipline, dead-pub; DESIGN.md
#      §Static analysis). Debt is pinned in lint.allow and may only
#      shrink; the same run stale-fails when results/PANIC_SURFACE.md or
#      results/DEAD_PUB.md (public functions no binary, example or
#      perfbench function reaches) is out of date with --update output,
#      or when the count either report ratchets grows.
#   3. cargo clippy -D warnings across the whole workspace (all targets),
#      with the clippy.toml disallowed-types/-methods backstop.
#   4. cargo build --release --workspace (every binary the later stages
#      run, not just the root package).
#   5. cargo test -q — the tier-1 suite (root-package integration tests),
#      once under TENSOR_NUM_THREADS=1 and once under =4 (results are
#      guaranteed bitwise-identical at any worker count).
#      --full widens this to every workspace crate and runs the
#      alloc-count gate asserting the pooled training path performs >= 10x
#      fewer heap allocations than the fresh-graph path.
#      The perfbench workspace's own tests follow (it builds against
#      crates/* but sits outside this workspace), then the resilience
#      suite and the serving suite (the `catehgn` crate's `infer_serve`
#      integration tests and `serve::` unit tests: tape-free equivalence,
#      cache staleness, degraded reload, typed errors and the accounting
#      proptest) with the `tensor` unit tests behind its content-stamp
#      cache check, which tier-1's root-package run never reaches; those
#      unit tests run again in a release build, and the HGN layer is
#      checked against its concat-form reference (`layer_reference`) and
#      its fused edge kernels against written-out loops and the op chains
#      their multi-operand forms stand for (`edge_kernels`). The Table II
#      baselines run on the same two kernels: their unit tests and the
#      split-form attention against its concat form (`split_attention`).
#      Next come the owning-crate suites behind the timing gates and the
#      scale path: pooled and fresh tape equivalence, lane determinism
#      across thread counts, sublinear generator memory, shard round-trip
#      and selective load, per-link-type cache invalidation, and the
#      sampler's unit tests (blocks and RNG state equal to the
#      ordered-map reference sampler).
#      Between tier-1 and the timing gates, three CLI smokes drill the
#      resilience path end to end: halt/resume fingerprint equality, a
#      real `kill -TERM` mid-training with bitwise resume, and the shard
#      chaos loop (fault-injected serving, corruption, quarantine-and-
#      repair — rankings fingerprint stable throughout). The tiny
#      train and serve fingerprints are also pinned to committed
#      constants, so bits that move in every run alike still fail.
#   6. bench_gates — the timing gates, each the median over alternating
#      pairs of fastest-of-3 runs: batched tape-free serving >= 3x faster
#      than per-query tape-based predict, embedding-cache hit >= 10x
#      faster than recompute, and batch-parallel lanes >= 0.95x serial
#      throughput. It writes no files; the determinism claims behind the
#      arms are tests in the owning crates.
set -euo pipefail
cd "$(dirname "$0")/.."

RUSTFMT_RATCHET=(
    crates/tensor/src/pool.rs
    crates/tensor/src/finite.rs
    crates/tensor/src/graph.rs
    crates/tensor/src/optim.rs
    crates/tensor/src/par/mod.rs
    crates/tensor/src/par/pool.rs
    crates/tensor/src/tensor.rs
    crates/tensor/src/stamped.rs
    crates/tensor/tests/prop_pool.rs
    crates/tensor/tests/prop_parallel.rs
    crates/tensor/tests/prop_backward_threads.rs
    crates/tensor/tests/prop_gradients.rs
    crates/tensor/tests/edge_kernels.rs
    crates/tensor/src/fwd.rs
    crates/tensor/src/infer.rs
    crates/core/src/ca.rs
    crates/core/src/encoder.rs
    crates/core/src/layer.rs
    crates/core/src/model.rs
    crates/core/src/predict.rs
    crates/core/src/resilience.rs
    crates/core/src/serve.rs
    crates/core/src/te.rs
    crates/core/src/temporal.rs
    crates/core/src/train.rs
    crates/core/tests/batch_parallel.rs
    crates/core/tests/infer_serve.rs
    crates/core/tests/layer_reference.rs
    crates/core/tests/pool_equivalence.rs
    crates/core/tests/resilience.rs
    crates/dblp-sim/src/stream.rs
    crates/dblp-sim/tests/prop_stream.rs
    crates/eval/src/bin/catehgn_cli.rs
    crates/hetgraph/src/error.rs
    crates/hetgraph/src/sampling.rs
    crates/hetgraph/src/shard.rs
    crates/hetgraph/tests/prop_shard.rs
    crates/hetgraph/tests/prop_graph.rs
    crates/bench/src/bin/bench_gates.rs
    crates/bench/tests/alloc_ratio.rs
    crates/lint/src/allowlist.rs
    crates/lint/src/callgraph.rs
    crates/lint/src/driver.rs
    crates/lint/src/items.rs
    crates/lint/src/lexer.rs
    crates/lint/src/lib.rs
    crates/lint/src/main.rs
    crates/lint/src/passes/dead_pub.rs
    crates/lint/src/passes/determinism.rs
    crates/lint/src/passes/lockpark.rs
    crates/lint/src/passes/mod.rs
    crates/lint/src/passes/panic.rs
    crates/lint/src/passes/panic_reach.rs
    crates/lint/src/passes/parfold.rs
    crates/lint/src/passes/suppression.rs
    crates/lint/src/passes/unsafe_audit.rs
    crates/lint/src/scanner.rs
    crates/lint/src/taint.rs
    crates/lint/tests/golden.rs
    crates/eval/src/case.rs
    crates/baselines/src/hgt.rs
    crates/baselines/src/common.rs
    crates/baselines/src/gat.rs
    crates/baselines/src/han.rs
    crates/baselines/src/hetgnn.rs
    crates/baselines/src/hgcn.rs
    crates/baselines/src/magnn.rs
    crates/baselines/src/rgcn.rs
    crates/baselines/tests/split_attention.rs
)

echo "== rustfmt (ratcheted file list) =="
rustfmt --edition 2021 --check "${RUSTFMT_RATCHET[@]}"

# The invariant linter gates before the expensive stages: it needs only a
# debug build of the zero-dependency lint crate, so a new unwrap, a
# missing SAFETY comment, or a nondeterminism source leaking through a
# helper into a parallel region fails in seconds, not after the release
# build. The same run checks results/PANIC_SURFACE.md and
# results/DEAD_PUB.md against the current workspace and fails if either
# is stale or its ratcheted count grew (regenerate with
# `cargo run -p lint -- --update`).
echo "== invariant lint (cargo run -p lint) =="
cargo run -q -p lint

echo "== clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release (workspace) =="
# --workspace matters: this is a non-virtual workspace, so a bare
# `cargo build` only builds the root package — leaving the release
# binaries the later stages run (catehgn_cli, bench_gates) stale or
# missing.
cargo build --release --workspace

# Tier-1 runs under both a serial and a multi-threaded worker count: the
# parallel kernels, the backward sweep's included, guarantee
# bitwise-identical results at any thread count, so the same suite must
# pass unchanged under both.
echo "== cargo test (tier-1, TENSOR_NUM_THREADS=1) =="
TENSOR_NUM_THREADS=1 cargo test -q

echo "== cargo test (tier-1, TENSOR_NUM_THREADS=4) =="
TENSOR_NUM_THREADS=4 cargo test -q

# perfbench is its own cargo workspace with path dependencies on
# crates/*, so the tier-1 run above never builds it: compile and test it
# here so an API change in the library cannot silently break the
# benchmark.
echo "== perfbench tests (separate workspace) =="
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== resilience suite (checkpoint/resume + fault injection) =="
cargo test -q -p catehgn --test resilience

# The serving engine lives in the `catehgn` crate, which tier-1's
# root-package run never tests: run its integration suite and its
# in-module unit tests here, plus the `tensor` unit tests, which pin the
# content-stamp contract the engine's cache check relies on.
echo "== serving suite (ServeEngine: equivalence, cache, typed errors, accounting) =="
cargo test -q -p catehgn --test infer_serve
cargo test -q -p catehgn --lib serve::
cargo test -q -p tensor --lib
# The same unit tests in an optimised build: the kernel-equality tests
# must hold for the code the release binaries run, not only for debug.
cargo test -q --release -p tensor --lib
# The per-node HGN layer against the concat-form reference of the paper's
# equations: output and gradients within a relative tolerance. Its fused
# edge kernels against written-out loops (one-operand forms) and the op
# chains the other forms stand for: value and every gradient bit for bit.
cargo test -q -p catehgn --test layer_reference
cargo test -q -p tensor --test edge_kernels

echo "== baseline suite (Table II models on the edge kernels) =="
cargo test -q -p baselines

# The deterministic halves of the timing gates below, and the scale
# path's checks, live in the suites of the crates that own the code;
# tier-1 never reaches them.
echo "== training, generator and storage determinism suites =="
cargo test -q -p catehgn --test pool_equivalence --test batch_parallel
cargo test -q -p dblp-sim --test prop_stream
cargo test -q -p hetgraph --test prop_graph
cargo test -q -p hetgraph --lib shard::
cargo test -q -p hetgraph --lib sampling::

# Kill-and-resume drill through the real CLI: a run halted at step 20 and
# resumed in a fresh process must print the same params/report
# fingerprints (bitwise-equal parameters and loss traces) as an
# uninterrupted run.
echo "== kill-and-resume smoke test (catehgn_cli, --scale tiny) =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
CLI=target/release/catehgn_cli
"$CLI" train --scale tiny --variant cate-hgn \
    --model "$SMOKE_DIR/ref.json" 2>/dev/null \
    | grep fingerprint > "$SMOKE_DIR/ref.txt"
"$CLI" train --scale tiny --variant cate-hgn \
    --checkpoint "$SMOKE_DIR/train.ckpt" --halt-after 20 2>/dev/null >/dev/null
"$CLI" train --scale tiny --variant cate-hgn \
    --checkpoint "$SMOKE_DIR/train.ckpt" --resume \
    --model "$SMOKE_DIR/res.json" 2>/dev/null \
    | grep fingerprint > "$SMOKE_DIR/res.txt"
if ! diff "$SMOKE_DIR/ref.txt" "$SMOKE_DIR/res.txt"; then
    echo "kill-and-resume smoke test FAILED: resumed run diverged" >&2
    exit 1
fi
echo "kill-and-resume: bitwise-equal"

# Pinned bits. The drills above compare run against run, so a change
# that moves the tape's bits (training) or the tape-free path's bits
# (validation inside training, serving) in every run alike would pass
# them. These constants fail it instead; moving them is a deliberate
# fingerprint rebase, stated as such in CHANGES.md.
echo "== pinned fingerprints (catehgn_cli train / serve, --scale tiny) =="
printf '%s\n' 'params_fingerprint=0xd1c7b21bad78ccc8' \
    'report_fingerprint=0x355e52297a0255ef' > "$SMOKE_DIR/pinned-train.txt"
if ! diff "$SMOKE_DIR/pinned-train.txt" "$SMOKE_DIR/ref.txt"; then
    echo "pinned fingerprints FAILED: training bits moved" >&2
    exit 1
fi
printf '%s\n' 'test RMSE: 7.2254' 'rankings_fingerprint=0xc1b9730da00a5ea2' \
    > "$SMOKE_DIR/pinned-serve.txt"
"$CLI" serve --scale tiny --model "$SMOKE_DIR/ref.json" 2>/dev/null \
    | grep -E '^(test RMSE|rankings_fingerprint)' > "$SMOKE_DIR/serve-pinned.txt"
if ! diff "$SMOKE_DIR/pinned-serve.txt" "$SMOKE_DIR/serve-pinned.txt"; then
    echo "pinned fingerprints FAILED: serving bits moved" >&2
    exit 1
fi
echo "pinned fingerprints: unchanged"

# Real-signal drill: SIGTERM a checkpointed training process mid-run. The
# installed handler makes the loop land one final atomic snapshot and exit
# cleanly; resuming must still hit the reference fingerprints bitwise.
# (If the tiny run finishes before the signal lands, resume replays from
# the last periodic snapshot — the equality must hold either way.)
echo "== SIGTERM graceful-shutdown smoke test (kill -TERM mid-training) =="
"$CLI" train --scale tiny --variant cate-hgn \
    --checkpoint "$SMOKE_DIR/term.ckpt" --checkpoint-every 4 \
    --model "$SMOKE_DIR/term-first.json" >/dev/null 2>&1 &
TRAIN_PID=$!
sleep 2
kill -TERM "$TRAIN_PID" 2>/dev/null || true
wait "$TRAIN_PID" || true
"$CLI" train --scale tiny --variant cate-hgn \
    --checkpoint "$SMOKE_DIR/term.ckpt" --resume \
    --model "$SMOKE_DIR/term.json" 2>/dev/null \
    | grep fingerprint > "$SMOKE_DIR/term.txt"
if ! diff "$SMOKE_DIR/ref.txt" "$SMOKE_DIR/term.txt"; then
    echo "SIGTERM smoke test FAILED: post-kill resume diverged" >&2
    exit 1
fi
echo "sigterm-resume: bitwise-equal"

# Shard chaos smoke: the serving invariant end to end. A chaos-injected
# store must return bitwise-identical rankings (retries and .prev
# fallbacks absorb every fault); a corrupted segment must fail `verify`,
# keep serving through the previous generation, and come back healthy
# after `repair` — still on the same rankings fingerprint.
echo "== shard chaos smoke (write / chaos-serve / corrupt / repair) =="
SHARD_DIR="$SMOKE_DIR/shard"
"$CLI" shard write --scale tiny --dir "$SHARD_DIR" >/dev/null
# Second write rotates the first generation to .prev fallbacks.
"$CLI" shard write --scale tiny --dir "$SHARD_DIR" >/dev/null
"$CLI" shard verify --dir "$SHARD_DIR" >/dev/null
"$CLI" serve --scale tiny --model "$SMOKE_DIR/ref.json" --shard "$SHARD_DIR" \
    2>/dev/null | grep rankings_fingerprint > "$SMOKE_DIR/serve-ref.txt"
"$CLI" serve --scale tiny --model "$SMOKE_DIR/ref.json" --shard "$SHARD_DIR" \
    --chaos 7 2>/dev/null | grep rankings_fingerprint > "$SMOKE_DIR/serve-chaos.txt"
if ! diff "$SMOKE_DIR/serve-ref.txt" "$SMOKE_DIR/serve-chaos.txt"; then
    echo "chaos smoke FAILED: fault-injected serving changed the rankings" >&2
    exit 1
fi
SEG=$(ls "$SHARD_DIR"/seg-*.hgs | head -1)
printf 'CORRUPT' >> "$SEG"
if "$CLI" shard verify --dir "$SHARD_DIR" >/dev/null 2>&1; then
    echo "chaos smoke FAILED: verify passed on a corrupted segment" >&2
    exit 1
fi
# Degraded serving: the corrupt current generation quarantines and the
# matching .prev is served instead — same rankings, no error.
"$CLI" serve --scale tiny --model "$SMOKE_DIR/ref.json" --shard "$SHARD_DIR" \
    2>/dev/null | grep rankings_fingerprint > "$SMOKE_DIR/serve-prev.txt"
if ! diff "$SMOKE_DIR/serve-ref.txt" "$SMOKE_DIR/serve-prev.txt"; then
    echo "chaos smoke FAILED: .prev fallback changed the rankings" >&2
    exit 1
fi
"$CLI" shard repair --scale tiny --dir "$SHARD_DIR" >/dev/null
"$CLI" shard verify --dir "$SHARD_DIR" >/dev/null
"$CLI" serve --scale tiny --model "$SMOKE_DIR/ref.json" --shard "$SHARD_DIR" \
    2>/dev/null | grep rankings_fingerprint > "$SMOKE_DIR/serve-rep.txt"
if ! diff "$SMOKE_DIR/serve-ref.txt" "$SMOKE_DIR/serve-rep.txt"; then
    echo "chaos smoke FAILED: repaired shard changed the rankings" >&2
    exit 1
fi
echo "shard chaos: rankings bitwise-stable through faults, corruption, repair"

# Timing gates, self-asserted by the binary (one line per gate on
# stdout); the deterministic checks behind its arms ran above.
echo "== bench_gates (serving, cache and lanes timing gates) =="
./target/release/bench_gates

if [[ "${1:-}" == "--full" ]]; then
    echo "== cargo test (workspace) =="
    cargo test --workspace -q
    echo "== pooled-allocation gate (>= 10x fewer allocs/step) =="
    cargo test -p bench --features alloc-count --release --test alloc_ratio
fi

echo "ci: OK"
