#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, tests.
# Everything runs offline against the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== rustdoc (-D warnings)"
# Keeps intra-doc links honest: a deleted item still named in a doc
# comment fails here instead of rendering as a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== pm2-lint source gate (raw-sync + protocol-panic rules)"
# The former grep hygiene gate, promoted to a scanner with testable
# rules: raw std::sync primitives outside crates/sync (escape:
# `// sync-allow: <reason>`) and panic-capable calls in the pm2-newmad
# protocol paths (escape: `// lint-allow: <reason>`).
./target/release/pm2_lint

echo "== cargo test"
cargo test -q

echo "== protocol model-checker lane (explorer + conformance + mutations)"
# tests/model.rs: exhaustive exploration of the wire-protocol transition
# tables (zero violations on the faithful tables, all nine seeded
# mutations caught with counterexamples) plus trace conformance of real
# runs; PM2_MODEL_DEEP adds the larger configurations.
PM2_MODEL_DEEP=1 cargo test -q --release -p pm2-bench --test model

echo "== seed matrix (PM2_FAULT_SEED = 1 7 42)"
# Each suite re-runs under the published fault seeds: faults (retransmit,
# quarantine, typed exhaustion), stress (2% lossy random-traffic soak,
# exactly-once + frame/message balance), coll (algorithm differential),
# sched (goldens, determinism, liveness, exactly-once at 2k streams), rma
# (passive-target put/get/accumulate, both progression modes) and scale
# (256-rank storm with balance + probe-linearity, 256-rank determinism).
for suite in faults stress coll sched rma scale; do
  for seed in 1 7 42; do
    PM2_FAULT_SEED=$seed cargo test -q --release -p pm2-bench --test "$suite"
  done
done

echo "== benchmark (locked build, smoke check, unit tests)"
# --locked first: any change to the dependency graph under benchmark/
# fails here instead of silently rewriting benchmark/Cargo.lock.
cargo build --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir target
# Every workload at /50 size, twice: output checks pass, and every
# virtual metric, count and workload hash repeats exactly.
benchmark/check.sh --smoke
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "== zero-fault baseline guard (byte-identical figures)"
# Doubles as the obs-disabled guard: pm2-obs is off by default, so any
# observability cost leaking into the disabled path shows up here as a
# baseline deviation.
for b in fig5 fig6 table1 bandwidth; do
  ./target/release/$b | diff -u "tests/baselines/$b.txt" - \
    || { echo "$b deviates from tests/baselines/$b.txt"; exit 1; }
done

echo "== obs timeline dump (pm2-obs-dump/v1 schema)"
# The dump carries virtual timestamps, so it is schema-checked rather
# than diffed against a golden file; obs_dump itself exits nonzero if any
# reconstructed timeline is out of causal order.
./target/release/obs_dump > /tmp/obs_dump.json
for key in pm2-obs-dump/v1 pm2-obs-timeline/v1 pm2-obs-metrics/v1 \
           reqs rdvs rts_tx cts_rx dma_chunks submit_site latency_ns \
           faults_dropped groups; do
  grep -q "\"$key\"" /tmp/obs_dump.json \
    || { echo "obs_dump output misses key \"$key\""; exit 1; }
done

# Long soak (~10^6 messages at 1% loss, both engines); run locally with
# PM2_SOAK=1 ./ci.sh, tune the volume via PM2_SOAK_MSGS.
if [ "${PM2_SOAK:-0}" = "1" ]; then
  echo "== 1%-loss soak"
  cargo test --release -p pm2-bench --test faults -- --ignored --nocapture
fi

# Bounded model checking of the pm2-sync primitives with the in-tree loom
# replacement (~1 min); run locally with PM2_LOOM=1 ./ci.sh. The bound is
# CHESS-style preemption counting; 3 is exhaustive enough for every suite
# invariant while keeping the lane offline-friendly and fast.
if [ "${PM2_LOOM:-0}" = "1" ]; then
  echo "== loom model-checking lane (pm2-sync, bounded interleaving search)"
  RUSTFLAGS="--cfg loom" LOOM_MAX_PREEMPTIONS="${LOOM_MAX_PREEMPTIONS:-3}" \
    cargo test -p pm2-sync --release --test loom
fi

# Miri lane (undefined-behaviour interpreter) for the pm2-sync natives;
# opt-in with PM2_MIRI=1. Needs the nightly `miri` component, which this
# offline container cannot install — the lane skips LOUDLY rather than
# silently passing.
if [ "${PM2_MIRI:-0}" = "1" ]; then
  echo "== Miri lane (pm2-sync)"
  if cargo +nightly miri --version >/dev/null 2>&1; then
    MIRIFLAGS="-Zmiri-strict-provenance" cargo +nightly miri test -p pm2-sync --lib
  else
    echo "SKIPPED: Miri unavailable (needs 'rustup +nightly component add miri'," \
         "not installable offline). Run this lane on a networked host."
  fi
fi

echo "CI OK"
