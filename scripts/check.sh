#!/usr/bin/env bash
# Full local gate: rustfmt, release build, test suite, lint-clean clippy (the
# determinism bans in clippy.toml, the lib-root panic denies and the
# workspace unsafe-hygiene lint; tests/alloc_free.rs audits the hot paths)
# and warning-free rustdoc.
# Run from anywhere; operates on the repository that contains this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> perfbench/Cargo.lock resolves unchanged (offline, locked; writes nothing)"
cargo metadata --offline --locked --format-version 1 --manifest-path perfbench/Cargo.toml >/dev/null

echo "==> perfbench compiles against the workspace crates (target dir outside perfbench/)"
cargo check --offline --locked --quiet --manifest-path perfbench/Cargo.toml --target-dir target/perfbench-check

echo "==> cargo test -q"
cargo test -q

echo "==> numeric sanitizer test leg (--features sanitize)"
cargo test --release -q -p overrun-linalg --features sanitize
cargo test --release -q -p overrun-jsr --features sanitize --test sanitize_poison

echo "==> determinism at OVERRUN_THREADS=4"
OVERRUN_THREADS=4 cargo test --release -q -p overrun-control --test par_determinism

echo "==> ellipsoid LMI solver + screening equivalence at OVERRUN_THREADS=4"
OVERRUN_THREADS=4 cargo test --release -q -p overrun-jsr --test ellipsoid_lmi
OVERRUN_THREADS=4 cargo test --release -q -p overrun-control --test screening_equivalence

echo "==> trace counters thread-invariant at OVERRUN_THREADS=4"
OVERRUN_THREADS=4 cargo test --release -q -p overrun-control --test trace_counters

echo "==> --trace smoke on every experiment binary (default build): every JSONL line"
echo "    parses, is an open, close or counter event, and every open has one close"
for bin in table1 table2 ts_tradeoff jsr_ablation figure1; do
  rm -f "bench_results/$bin.trace.jsonl"
  cargo run --release -q -p overrun-bench --bin "$bin" -- \
    --sequences 10 --jobs 10 --out bench_results --trace >/dev/null
  test -s "bench_results/$bin.trace.jsonl"
  python3 - "bench_results/$bin.trace.jsonl" <<'PY'
import collections, json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
kinds = collections.Counter(ev["e"] for ev in events)
assert set(kinds) <= {"open", "close", "counter"}, f"unexpected event kinds: {kinds}"
opens = collections.Counter(ev["id"] for ev in events if ev["e"] == "open")
closes = collections.Counter(ev["id"] for ev in events if ev["e"] == "close")
assert all(n == 1 for n in opens.values()), "a span id opened twice"
assert opens == closes, f"unbalanced spans: {sorted((opens - closes) + (closes - opens))}"
PY
done

echo "==> golden CSV data sections (refresh with UPDATE_GOLDEN=1 after intentional changes)"
cargo test --release -q -p overrun-bench --test golden_csv

echo "==> golden CSV data sections at OVERRUN_THREADS=4"
OVERRUN_THREADS=4 cargo test --release -q -p overrun-bench --test golden_csv

echo "==> bench JSON smoke (table1, reduced)"
rm -f bench_results/BENCH_results.json
cargo run --release -q -p overrun-bench --bin table1 -- \
  --sequences 20 --jobs 10 --out bench_results --json bench_results/BENCH_results.json
test -s bench_results/BENCH_results.json

echo "==> perf ledger: last two committed rows per binary (reads BENCH_*.json only)"
python3 scripts/ledger.py --compare

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy on the feature-gated library code (sanitize)"
cargo clippy -p overrun-linalg -p overrun-jsr -p overrun-control -p overrun-rtsim --lib \
  --features overrun-linalg/sanitize -- -D warnings

echo "==> rustdoc: every doc link resolves to a public item (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "All checks passed."
