#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, tests.
# Everything runs offline against the committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings, large futures)"
# clippy::large_futures holds every awaited future under the threshold
# in clippy.toml: a simulated thread keeps the futures it awaits inline,
# so a grown future costs its bytes once per rank.
cargo clippy --workspace --all-targets -- -D warnings -W clippy::large_futures

echo "== cargo build --release"
cargo build --release

echo "== rustdoc (-D warnings)"
# Keeps intra-doc links honest: a deleted item still named in a doc
# comment fails here instead of rendering as a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== pm2-lint source gate (raw-sync + protocol-panic + payload-copy rules)"
# The former grep hygiene gate, promoted to a scanner with testable
# rules: no native sync primitives anywhere in crates/ (std::sync,
# Atomic*, UnsafeCell, std::thread; escape: `// sync-allow: <reason>`),
# no panic-capable calls in the pm2-newmad protocol paths (escape:
# `// lint-allow: <reason>`) and no payload copies there (`.to_vec()`,
# `extend_from_slice`; escape: `// copy-allow: <reason>`).
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
# rail stall, typed exhaustion), stress (2% lossy random-traffic soak,
# exactly-once + frame/message balance), coll (algorithm differential),
# sched (goldens, determinism, liveness, exactly-once at 2k streams), rma
# (passive-target put/get/accumulate, both progression modes), scale
# (256-rank storm with balance + probe-linearity, 256-rank determinism),
# idle (parked idle cores reproduce the polled goldens; events per message;
# one parked core woken per change; no leaked tasks) and drop (a dropped
# cluster frees every heap byte, whether run to quiescence, stopped
# midway or never run; heap bytes per rank stay flat from 1 024 to 8 192
# ranks, at most 3 340 B; a request is one block of at most 120 B; a
# pending receive costs its handle, request and one match-table slot
# (≤ 168 B), a queued send its handle, request and pack (≤ 212 B), a
# pending rendezvous send its records at both ends (≤ 475 B, 660 with a
# tag per send); a `Step` is at most 24 B and a one-entry slab one slot;
# a ring thread's future is at most 436 B; threads that finish, and
# more ring rounds, leave no heap behind; a one-rail rendezvous hands the
# sender's buffer to the receiver and a one-chunk RMA put allocates no
# chunk, a two-rail rendezvous copies at most its tail; a 256-rank ring run
# peaks at most 10 100 B per rank; release-only, so it runs here at 1, 7
# and 42: a ring on 8 192 ranks peaks under 11 350 B per rank, ~13 s per
# seed).
# The idle suite also runs in debug at seeds 7 and 42 (`cargo test` above
# covered seed 1): debug builds run the parking oracle, which panics where
# a change skipped its ring.
for suite in faults stress coll sched rma scale idle drop; do
  for seed in 1 7 42; do
    PM2_FAULT_SEED=$seed cargo test -q --release -p pm2-bench --test "$suite"
  done
done
for seed in 7 42; do
  PM2_FAULT_SEED=$seed cargo test -q -p pm2-bench --test idle
done
# The event queue's differential fuzz (random schedules, cancels and pops
# against a flat (time, seq) model) draws from the same seeds: every
# bit-identity check in this script rests on that queue's pop order.
for seed in 1 7 42; do
  PM2_FAULT_SEED=$seed cargo test -q --release -p pm2-sim --lib equeue
done
# The drop census also runs at the benchmark's second seed, the one its
# heap figures are quoted at besides 1.
PM2_FAULT_SEED=20240927 cargo test -q --release -p pm2-bench --test drop

echo "== benchmark (locked build, smoke check, unit tests)"
# --locked first: any change to the dependency graph under benchmark/
# fails here instead of silently rewriting benchmark/Cargo.lock.
cargo build --release --offline --locked --quiet \
  --manifest-path benchmark/Cargo.toml --target-dir target
# Every workload at /50 size, twice: output checks pass, and every
# virtual metric, count and workload hash repeats exactly.
benchmark/check.sh --smoke
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

echo "== zero-fault baseline guard (byte-identical claims)"
# Every row of the claims table (crates/bench/src/claims.rs) must print
# its baseline byte for byte; `claims` also exits nonzero if the row's
# shape does not hold. Doubles as the obs-disabled guard: pm2-obs is off
# by default, so any observability cost leaking into the disabled path
# shows up here as a baseline deviation.
for id in fig5 fig6 table1 bandwidth abl_lock abl_blocking abl_aggreg \
          abl_adaptive abl_timer abl_numa abl_threshold; do
  ./target/release/claims $id | diff -u "tests/baselines/$id.txt" - \
    || { echo "$id deviates from tests/baselines/$id.txt"; exit 1; }
done

echo "== obs timeline dump (pm2-obs-dump/v1 schema) and trace example"
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
# examples/trace.rs is the repo's one human-readable trace: it renders
# the typed pm2-obs stream of one eager send, so it must name the post,
# the tasklet that ran the submission and the delivery.
cargo run --release -q -p pm2-mpi --example trace > /tmp/obs_trace.txt
for kind in SendPosted TaskletRun EagerDeliver; do
  grep -q "$kind" /tmp/obs_trace.txt \
    || { echo "examples/trace output misses $kind"; exit 1; }
done

# Long soak (~10^6 messages at 1% loss, both engines); run locally with
# PM2_SOAK=1 ./ci.sh, tune the volume via PM2_SOAK_MSGS.
if [ "${PM2_SOAK:-0}" = "1" ]; then
  echo "== 1%-loss soak"
  cargo test --release -p pm2-bench --test faults -- --ignored --nocapture
fi

echo "CI OK"
