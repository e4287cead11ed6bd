#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --locked --workspace --all-targets"
cargo build --locked --workspace --all-targets

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> fault-injection suite (resilience contract)"
cargo test --quiet -p microbrowse-faultinject
cargo test --quiet -p microbrowse-store --test corrupt
cargo test --quiet -p microbrowse-core --test artifact_errors

echo "==> no unwrap/expect on artifact load/serve paths (incl. obs + api + server + faultinject)"
if grep -rn 'unwrap()\|expect(' crates/store/src crates/core/src/serve.rs \
    crates/core/src/error.rs crates/obs/src crates/cli/src crates/server/src \
    crates/api/src crates/faultinject/src crates/online/src \
    crates/core/src/compiled.rs crates/core/src/paircache.rs \
    crates/core/src/features.rs crates/core/src/rewrite.rs \
    crates/core/src/suggest.rs crates/core/src/explain.rs \
    crates/text/src/snippet.rs \
    | python3 -c '
import sys, re
bad = []
files = {}
for line in sys.stdin:
    path, lineno, _ = line.split(":", 2)
    if path not in files:
        files[path] = open(path).read().splitlines()
    src = files[path]
    # Allowed only below the #[cfg(test)] marker of the file s test module.
    marker = next((i for i, l in enumerate(src) if "#[cfg(test)]" in l), len(src))
    if int(lineno) - 1 < marker:
        bad.append(line.rstrip())
print("\n".join(bad))
sys.exit(1 if bad else 0)
'; then
    :
else
    echo "ERROR: unwrap()/expect( found outside test code on a load/serve path" >&2
    exit 1
fi

echo "==> disabled-instrumentation overhead gate (< 2% of pipeline wall time)"
cargo build --locked --release -q -p microbrowse-bench --bin obs_overhead
./target/release/obs_overhead --adgroups 100

echo "==> trace-schema gate (--trace-json output validates via the strict obs::json reader)"
cargo build --locked --release -q -p microbrowse-cli --bin microbrowse
cargo build --locked --release -q -p microbrowse-bench --bin trace_schema
./target/release/microbrowse experiment --spec m1 --adgroups 12 --folds 2 \
    --trace-json /tmp/trace_schema.check.jsonl >/dev/null
./target/release/trace_schema --file /tmp/trace_schema.check.jsonl --require-traced 1

echo "==> flight-recorder overhead gate (< 2% of traced serving wall time, recorder on)"
cargo build --locked --release -q -p microbrowse-bench --bin flight_overhead
./target/release/flight_overhead --requests 2000

echo "==> hot-path scoring engine gate (>= 5.1x reference-scorer throughput, bit-identical)"
cargo build --locked --release -q -p microbrowse-bench --bin bench_score_hot
./target/release/bench_score_hot --adgroups 120 --reps 10 --gate 5.1 \
    --out /tmp/BENCH_score_hot.check.json

echo "==> server smoke gate (serve + hot reload under load + graceful drain)"
cargo build --locked --release -q -p microbrowse-cli --bin microbrowse \
    -p microbrowse-server --bin serve_smoke
./target/release/serve_smoke --bin ./target/release/microbrowse

echo "==> online-learning drift gate (post-drift online margin >= 0.10 over frozen model)"
cargo build --locked --release -q -p microbrowse-bench --bin bench_online
./target/release/bench_online --train-adgroups 160 --adgroups 80 --windows 4 \
    --drift-at 3 --seed 42 --gate 0.10 --out /tmp/BENCH_online.check.json >/dev/null

echo "==> suggestion beam gate (beam finds improving rewrites; top-1 beats input; deterministic)"
cargo build --locked --release -q -p microbrowse-bench --bin bench_suggest
./target/release/bench_suggest --adgroups 80 --creatives 48 --reps 2 --seed 42 \
    --gate 0.5 --out /tmp/BENCH_suggest.check.json >/dev/null

echo "==> live-socket chaos gate (shed under overload, no stranded workers, full recovery)"
cargo build --locked --release -q -p microbrowse-bench --bin chaos_serve
./target/release/chaos_serve --seed 42 --out /tmp/BENCH_chaos.check.json

echo "==> perfbench smoke (each workload 1 s: correct, no failed requests)"
for workload in batch_hot suggest_explain; do
    result=$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    python3 -c '
import json, sys
r = json.loads(sys.argv[2])
print("perfbench", sys.argv[1], "correct:", r.get("correct"), "failed:", r.get("failed"),
      "of", r.get("attempted"))
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$workload" "$result"
done

echo "==> perfbench traced smoke (batch_hot 1 s: every alignment a cache hit, 256 hits and 0 misses per request)"
result=$(bash perfbench/run.sh --workload batch_hot --seed 1 --seconds 1 --trace 1 | tail -n 1)
python3 -c '
import json, sys
r = json.loads(sys.argv[1])
m = r.get("metrics", {})
hits = m.get("aligncache_hits_per_req", {}).get("value")
misses = m.get("aligncache_misses_per_req", {}).get("value")
print("perfbench batch_hot traced: correct:", r.get("correct"), "failed:", r.get("failed"),
      "hits/req:", hits, "misses/req:", misses)
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0
         and hits == 256 and misses == 0 else 1)
' "$result"

echo "==> docs of every workspace crate warning-free"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "OK: build, tests, fault injection, unwrap audit, overhead gate, trace schema, flight recorder, hot-path gate, server smoke, online drift gate, suggest gate, chaos gate, perfbench smoke, perfbench traced smoke, workspace docs, clippy, fmt all green"
