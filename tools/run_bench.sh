#!/usr/bin/env bash
# Smoke harness for the benchmarks: configure, build, run the tier-1
# test suite, run sim_core_micro, checker_micro and churn_fleet with
# small budgets, validate the BENCH_sim_core.json / BENCH_checker.json
# / BENCH_churn.json schemas, and validate the Chrome trace-event
# schema of a traced dma_attack_demo run. churn_fleet writes to a
# temporary file that must reproduce every fingerprint of the
# committed BENCH_churn.json: a drifted churn cell fails the run (the
# failure prints the command that re-emits the file on purpose).
#
# Usage: tools/run_bench.sh [build-dir] [iters] [mode]
#        tools/run_bench.sh --sanitize [build-dir]
#
# mode "fuzz" skips the benchmark/schema legs and instead runs the
# differential-fuzz soak: the full siopmp_fuzz campaign (every checker
# flavour, dense + wide configurations) under fixed seeds. Exits
# nonzero on any DUT-vs-oracle divergence. The bounded version of the
# same campaign already runs inside the tier-1 suite (test_check).
#
# --sanitize configures a separate ASan+UBSan-instrumented tree
# (default build-asan/, matching the asan-ubsan CMake preset), then
# runs the plan-invalidation/accelerator tests and bounded
# differential-fuzz campaigns — accel forced on, forced off, and the
# mutation-heavy churn profile that stresses per-MD incremental
# invalidation — under the sanitizers, plus the tenant-churn workload
# tests with fast-forward on and off (the naive loop runs every parked
# checker node's missed-wake self-check on every cycle). It then
# configures a second,
# TSan-instrumented tree (build-tsan/, matching the tsan preset) and
# runs the one multithreaded path left in the tree — siopmp_fuzz --jobs
# sharding over the shared stats::Registry — plus the concurrent
# ExtendedTable regressions under ThreadSanitizer. Exits nonzero on any
# sanitizer report or divergence.
#
# Every schema and gate check is a Python assertion block whose failure
# fails the script. Only when no python3 interpreter is installed do the
# checks fall back to the grep-based key scans.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PYTHON="$(command -v python3 || true)"

# py_check LABEL ARGS...: run the Python assertions on stdin with ARGS
# as sys.argv[1:]. A failed assertion exits nonzero (set -e). Without an
# interpreter, report that only the grep-based checks ran.
py_check() {
    local label="$1"
    shift
    if [ -z "$PYTHON" ]; then
        cat > /dev/null
        echo "$label OK (grep-only: python3 unavailable)"
        return 0
    fi
    "$PYTHON" - "$@"
}

if [ "${1:-}" = "--sanitize" ]; then
    ASAN_DIR="${2:-$REPO_ROOT/build-asan}"
    TSAN_DIR="$REPO_ROOT/build-tsan"
    echo "== configure + build (ASan+UBSan) =="
    cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DSIOPMP_SANITIZE=ON
    # Only the targets this mode runs — an instrumented build of the
    # whole tree is slow and buys nothing here.
    cmake --build "$ASAN_DIR" -j --target test_iopmp_checkers siopmp_fuzz
    echo "== accelerator + invalidation tests (sanitized) =="
    "$ASAN_DIR/tests/test_iopmp_checkers" \
        --gtest_filter='*CheckAccel*:*Invalidation*:*AccelDifferential*'
    echo "== bounded fuzz campaign, accel forced on (sanitized) =="
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --accel plans --seed 1
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --accel off --seed 1
    echo "== churn-profile fuzz: incremental invalidation (sanitized) =="
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --profile churn \
        --accel plans --seed 1
    "$ASAN_DIR/tools/siopmp_fuzz" --cases 300 --profile churn \
        --accel off --seed 2

    echo "== tenant-churn workload leg (ASan+UBSan) =="
    cmake --build "$ASAN_DIR" -j --target test_workloads
    "$ASAN_DIR/tests/test_workloads" --gtest_filter='Churn.*'
    echo "== tenant-churn workload leg, naive loop (ASan+UBSan) =="
    SIOPMP_NO_FAST_FORWARD=1 "$ASAN_DIR/tests/test_workloads" \
        --gtest_filter='Churn.*'

    echo "== configure + build (TSan) =="
    cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DSIOPMP_TSAN=ON
    cmake --build "$TSAN_DIR" -j --target siopmp_fuzz test_iopmp_structs
    echo "== concurrent-structure regressions (TSan) =="
    # Covers the atomic ExtendedTable::total_loads_: concurrent finders
    # from multiple threads must count loads exactly.
    "$TSAN_DIR/tests/test_iopmp_structs" --gtest_filter='*Concurrent*'
    echo "== sharded fuzz campaign, 4 workers (TSan) =="
    # Fuzz legs run on worker threads that share the stats::Registry.
    "$TSAN_DIR/tools/siopmp_fuzz" --cases 100 --jobs 4 --seed 1
    echo "run_bench: sanitize mode clean"
    exit 0
fi

BUILD_DIR="${1:-$REPO_ROOT/build}"
ITERS="${2:-4}"
MODE="${3:-bench}"
OUT_JSON="$REPO_ROOT/BENCH_sim_core.json"
CHECKER_JSON="$REPO_ROOT/BENCH_checker.json"

echo "== configure + build =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j

# gtest_discover_tests caches per-binary test lists in
# <exe>[1]_tests.cmake files under the build tree. When a test binary
# is renamed or removed, the stale list file survives and ctest keeps
# trying to run tests of an executable that no longer exists. Prune
# any list whose binary is gone before invoking ctest.
for f in "$BUILD_DIR"/tests/*_tests.cmake; do
    [ -e "$f" ] || continue
    base="$(basename "$f")"
    exe="${base%%\[*}"
    if [ ! -x "$BUILD_DIR/tests/$exe" ]; then
        echo "pruning stale ctest discovery artifact: $base"
        rm -f "$f" "${f%_tests.cmake}_include.cmake"
    fi
done

if [ "$MODE" = "fuzz" ]; then
    echo "== differential fuzz soak =="
    # Two fixed seeds: deterministic in CI, still decorrelated runs.
    "$BUILD_DIR/tools/siopmp_fuzz" --cases 10000 --seed 1
    "$BUILD_DIR/tools/siopmp_fuzz" --cases 10000 --seed 20260806
    echo "run_bench: fuzz soak clean"
    exit 0
fi

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

echo "== sim_core_micro (iters=$ITERS) =="
"$BUILD_DIR/bench/sim_core_micro" "$ITERS" "$OUT_JSON"

echo "== BENCH_sim_core.json schema check =="
# Every required key must be present; values must parse as numbers.
for key in \
    '"benchmark"' \
    '"idle_heavy"' \
    '"saturated"' \
    '"simulated_cycles"' \
    '"fast_forward_s_per_mcycle"' \
    '"naive_s_per_mcycle"' \
    '"idle_cycles_skipped"' \
    '"speedup"'; do
    grep -q "$key" "$OUT_JSON" || {
        echo "schema check FAILED: missing $key in $OUT_JSON" >&2
        exit 1
    }
done

py_check "json schema" "$OUT_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "sim_core_micro"
for wl in ("idle_heavy", "saturated"):
    w = d[wl]
    assert isinstance(w["simulated_cycles"], int) and w["simulated_cycles"] > 0
    for k in ("fast_forward_s_per_mcycle", "naive_s_per_mcycle", "speedup"):
        assert isinstance(w[k], (int, float)), (wl, k)
    assert isinstance(w["idle_cycles_skipped"], int)
print("json schema OK")
EOF

echo "== checker_micro (BENCH_checker.json) =="
"$BUILD_DIR/bench/checker_micro" --json "$CHECKER_JSON" --checks 100000

echo "== BENCH_checker.json schema check =="
for key in \
    '"benchmark"' \
    '"num_sids"' \
    '"configs"' \
    '"churn"' \
    '"ratio"' \
    '"ns_per_check"' \
    '"s_per_mcycle"' \
    '"speedup"'; do
    grep -q "$key" "$CHECKER_JSON" || {
        echo "schema check FAILED: missing $key in $CHECKER_JSON" >&2
        exit 1
    }
done

py_check "checker json schema" "$CHECKER_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "checker_micro"
assert d["num_sids"] == 128
cfgs = d["configs"]
kinds = {c["kind"] for c in cfgs}
assert kinds == {"linear", "tree", "mt3"}, kinds
for c in cfgs:
    assert c["accel"] in ("off", "plans"), c
    assert c["entries"] in (64, 256, 1024)
    assert c["ns_per_check"] > 0 and c["s_per_mcycle"] > 0
# Acceptance gate: saturated 128-SID throughput with compiled plans
# must be at least 3x the accel-off walk, per kind and entry count.
for c in cfgs:
    if c["accel"] == "plans":
        assert c["speedup"] >= 3.0, (c["kind"], c["entries"], c["speedup"])
# Churn series: every kind at ratios 1:10/1:100/1:1000, accel off+plans.
churn = d["churn"]
ckinds = {c["kind"] for c in churn}
assert ckinds == {"linear", "tree", "mt3"}, ckinds
for c in churn:
    assert c["accel"] in ("off", "plans"), c
    assert c["ratio"] in (10, 100, 1000), c
    assert c["ns_per_check"] > 0, c
# Acceptance gate: with per-MD incremental invalidation, accelerated
# checks under churn at a 1:100 mutation:check ratio must be at least
# 5x the uncached walk, per kind. (A global epoch flushing every plan
# on every mutation is what this gate would fail.)
for c in churn:
    if c["accel"] == "plans" and c["ratio"] == 100:
        assert c["speedup"] >= 5.0, (c["kind"], c["speedup"])
print("checker json schema OK (min speedup %.1fx; min churn@1:100 %.1fx)" %
      (min(c["speedup"] for c in cfgs if c["accel"] == "plans"),
       min(c["speedup"] for c in churn
           if c["accel"] == "plans" and c["ratio"] == 100)))
EOF

echo "== churn_fleet (BENCH_churn.json) =="
COMMITTED_CHURN_JSON="$REPO_ROOT/BENCH_churn.json"
CHURN_JSON="$(mktemp /tmp/siopmp_churn.XXXXXX.json)"
TRACE_JSON="$(mktemp /tmp/siopmp_trace.XXXXXX.json)"
trap 'rm -f "$CHURN_JSON" "$TRACE_JSON"' EXIT
# The binary itself enforces the churn-rate gate (exits nonzero if the
# headline point sustains < 1000 TEE/s).
"$BUILD_DIR/bench/churn_fleet" "$CHURN_JSON"

echo "== BENCH_churn.json schema check =="
for key in \
    '"benchmark"' \
    '"series"' \
    '"churn_per_sim_s"' \
    '"check_p50"' \
    '"check_p99"' \
    '"cold_switch_p99"' \
    '"block_window_hist"' \
    '"cam_evictions"' \
    '"mounted_cold_flushes"' \
    '"invariant_violations"' \
    '"fingerprint"'; do
    grep -q "$key" "$CHURN_JSON" || {
        echo "schema check FAILED: missing $key in $CHURN_JSON" >&2
        exit 1
    }
done

py_check "churn json schema" "$CHURN_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["benchmark"] == "churn_fleet"
series = d["series"]
assert len(series) >= 4, len(series)
for p in series:
    assert p["tenants"] > 0 and p["devices"] > 0, p
    # Acceptance: device population >= 4x (CAM rows + eSID slot) = 16.
    assert p["devices"] >= 16, p
    assert p["cycles"] > 0 and p["churn_per_sim_s"] > 0, p
    assert p["check_p99"] >= p["check_p50"] > 0, p
    assert p["invariant_violations"] == 0, p
    assert int(p["fingerprint"], 16) != 0, p
    hist = p["block_window_hist"]
    assert isinstance(hist, list) and sum(hist) == p["block_windows"], p
# Acceptance gate: the headline point sustains >= 1000 TEE
# create/destroy cycles per simulated second.
head = series[0]
assert head["churn_per_sim_s"] >= 1000.0, head
# The all-hot contention cell must actually evict live CAM entries.
assert any(p["cam_evictions"] > 0 for p in series), "no CAM churn"
assert any(p["sid_misses"] > 0 for p in series), "no cold misses"
print("churn json schema OK (headline %.0f TEE/s over %d points)" %
      (head["churn_per_sim_s"], len(series)))
EOF

echo "== BENCH_churn.json drift check =="
# Churn cells are deterministic per seed: every cell must reproduce the
# committed file's fingerprint. Without python3 the fingerprint lines
# are compared in order.
churn_drift=0
if [ -n "$PYTHON" ]; then
    "$PYTHON" - "$COMMITTED_CHURN_JSON" "$CHURN_JSON" <<'EOF' || churn_drift=1
import json, sys
old = json.load(open(sys.argv[1]))["series"]
new = json.load(open(sys.argv[2]))["series"]
key = ("tenants", "devices", "arrival_mean", "cold_fraction")
drift = len(old) != len(new)
for i, (a, b) in enumerate(zip(old, new)):
    if [a[k] for k in key] != [b[k] for k in key] or \
            a["fingerprint"] != b["fingerprint"]:
        drift = True
        print("churn cell %d drifted: committed %s fp=%s, now %s fp=%s" %
              (i, [a[k] for k in key], a["fingerprint"],
               [b[k] for k in key], b["fingerprint"]))
assert not drift, "BENCH_churn.json fingerprints drifted"
print("churn fingerprints OK (%d cells match the committed file)" % len(new))
EOF
else
    diff <(grep -o '"fingerprint": "[0-9a-f]*"' "$COMMITTED_CHURN_JSON") \
         <(grep -o '"fingerprint": "[0-9a-f]*"' "$CHURN_JSON") ||
        churn_drift=1
    [ "$churn_drift" = 1 ] || echo "churn fingerprints OK (grep-only)"
fi
if [ "$churn_drift" = 1 ]; then
    echo "churn drift: if the change is intended, re-emit the file with" >&2
    echo "  $BUILD_DIR/bench/churn_fleet $COMMITTED_CHURN_JSON" >&2
    echo "and explain the moved fingerprints in CHANGES.md." >&2
    exit 1
fi

echo "== trace schema check (dma_attack_demo --trace) =="
"$BUILD_DIR/examples/dma_attack_demo" "$TRACE_JSON" > /dev/null

if [ -n "$PYTHON" ]; then
    "$PYTHON" - "$TRACE_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
assert any(e.get("cat") == "bus" and e["ph"] == "b" for e in evs), "no bus spans"
assert any(e.get("name") == "verdict" for e in evs), "no checker verdicts"
assert any(e.get("name") == "violation" for e in evs), "no violation events"
assert any(e.get("name") == "block_window" for e in evs), "no blocking window"
assert any(e.get("cat") == "mem" for e in evs), "no memory service spans"
spans = {}
for e in evs:
    if e["ph"] in ("b", "e"):
        spans.setdefault((e.get("cat"), e["id"]), []).append(e["ph"])
assert spans and all(p.count("b") == p.count("e") for p in spans.values()), \
    "unbalanced async spans"
print("trace schema OK: %d events" % len(evs))
EOF
else
    for pat in '"ph":"b"' '"name":"verdict"' '"name":"violation"' \
               '"name":"block_window"' '"cat":"mem"'; do
        grep -q "$pat" "$TRACE_JSON" || {
            echo "trace schema FAILED: missing $pat" >&2
            exit 1
        }
    done
    echo "trace schema OK (grep-only: python3 unavailable)"
fi

echo "run_bench: all checks passed"
