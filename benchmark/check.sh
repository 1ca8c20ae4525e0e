#!/usr/bin/env bash
# Runs the whole benchmark twice on this tree and compares the two passes:
#   * every virtual-clock metric, every count and the workload hash must be
#     bit-identical (the simulator is deterministic per seed);
#   * every host-clock end-to-end metric must agree within its bound from
#     BENCHMARK.json (`setup_s` within max(bound, 5 ms): it is microseconds
#     on three workloads); other host-clock numbers are only printed.
#
#   benchmark/check.sh            full sizes, ~6 min
#   benchmark/check.sh --smoke    every workload /50, one rep: outputs and
#                                 determinism only, for pre-push use
#   SEED=7 benchmark/check.sh     another seed (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=()
if [[ "${1:-}" == "--smoke" ]]; then
    smoke=(--smoke --seconds 0)
elif [[ $# -gt 0 ]]; then
    echo "usage: benchmark/check.sh [--smoke]" >&2
    exit 2
fi
seed="${SEED:-1}"
target="${CARGO_TARGET_DIR:-target}"
out=benchmark/out/check
workloads=(overlap_2n ring_1024 incast_lossy coll_rma_step)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
bin="$target/release/pm2-benchmark"
rm -rf "$out"
mkdir -p "$out"

for pass in a b; do
    for w in "${workloads[@]}"; do
        for mode in run trace; do
            echo "pass $pass: $mode $w" >&2
            "$bin" "$mode" --workload "$w" --seed "$seed" ${smoke[@]+"${smoke[@]}"} >"$out/$pass.$w.$mode.txt"
        done
    done
done

python3 - "$out" "${#smoke[@]}" "${workloads[@]}" <<'EOF'
import json, sys

out, smoke, workloads = sys.argv[1], sys.argv[2] != "0", sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
# setup_s is a few microseconds on three workloads; max(bound, 5 ms).
ABS_FLOOR = {"setup_s": 0.005}
failures = 0

def parse(path):
    rows, info = {}, {}
    for line in open(path):
        f = line.split()
        if f[:1] in (["metric"], ["layer"]):
            rows[f[1]] = (f[2], f[3], f[4])
        elif f[:2] == ["info", "workload_hash"]:
            info["workload_hash"] = f[2]
        elif f[:1] == ["check"]:
            info.setdefault("failed_checks", []).append(line.strip())
    return rows, info

for w in workloads:
    for mode in ("run", "trace"):
        a, ia = parse(f"{out}/a.{w}.{mode}.txt")
        b, ib = parse(f"{out}/b.{w}.{mode}.txt")
        exact = noisy = 0
        for info in (ia, ib):
            for line in info.get("failed_checks", []):
                print(f"FAIL {w} {mode}: {line}")
                failures += 1
        if ia.get("workload_hash") != ib.get("workload_hash") or "workload_hash" not in ia:
            print(f"FAIL {w} {mode}: workload_hash {ia.get('workload_hash')} vs {ib.get('workload_hash')}")
            failures += 1
        if a.keys() != b.keys():
            print(f"FAIL {w} {mode}: the two passes print different metrics")
            failures += 1
        for name in a.keys() & b.keys():
            (va, unit, clock), (vb, _, _) = a[name], b[name]
            if clock in ("virt", "count"):
                exact += 1
                if va != vb:
                    print(f"FAIL {w} {mode}: {name} {va} vs {vb} {unit} ({clock} clock must repeat exactly)")
                    failures += 1
                continue
            noisy += 1
            fa, fb = float(va), float(vb)
            rel = abs(fa - fb) / max(abs(fa), 1e-300)
            if name in bounds and not smoke:
                ok = rel <= bounds[name] or abs(fa - fb) <= ABS_FLOOR.get(name, 0.0)
                print(f"{'ok  ' if ok else 'FAIL'} {w} {mode}: {name} {fa:.6g} vs {fb:.6g} {unit} "
                      f"({rel:.1%} apart, bound {bounds[name]:.0%})")
                failures += 0 if ok else 1
            elif not smoke:
                print(f"     {w} {mode}: {name} {fa:.6g} vs {fb:.6g} {unit} ({rel:.1%} apart, no bound)")
        print(f"ok   {w} {mode}: workload_hash {ia.get('workload_hash')}, "
              f"{exact} virt/count metrics identical, {noisy} host metrics")

print("check.sh:", "FAILED" if failures else "passed", f"({failures} failure(s))")
sys.exit(1 if failures else 0)
EOF
