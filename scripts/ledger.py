#!/usr/bin/env python3
"""Performance ledger: repeated timings of the reproduction binaries.

Usage, from anywhere inside the repository:

    python3 scripts/ledger.py [BIN ...]   # measure, append rows
    python3 scripts/ledger.py --compare   # read rows, print deltas

Measuring builds the bench binaries in release mode, runs each one 5 times
(all five binaries unless some are named) with
`--threads 2 --trace --json -`, and appends one row to `BENCH_<bin>.json`
at the repository root. A row holds the git revision (`-dirty` when the
working tree has changes), the core count, the thread count, and the
median, min and max of the wall time (`elapsed_ms`) and of every traced
span (`trace.span_ms.*`) over the runs.

`--compare` reads the committed files only. For every binary with two or
more rows it prints the last row against the one before it, per span, and
flags (`<<`) only the changes whose new median lies outside the old
row's min-max band and whose old median lies outside the new row's band.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINS = ["table1", "table2", "ts_tradeoff", "jsr_ablation", "figure1"]
THREADS = 2
RUNS = 5
SPAN_PREFIX = "trace.span_ms."


def ledger_path(binary):
    return os.path.join(ROOT, f"BENCH_{binary}.json")


def load_rows(binary):
    path = ledger_path(binary)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)


def save_rows(binary, rows):
    # One row per line keeps the committed files diffable.
    with open(ledger_path(binary), "w") as f:
        f.write("[\n")
        f.write(",\n".join(json.dumps(row, sort_keys=True) for row in rows))
        f.write("\n]\n")


def band(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def revision():
    rev = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=7"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return rev.stdout.strip()


def measure(binary):
    exe = os.path.join(ROOT, "target", "release", binary)
    records = []
    for i in range(RUNS):
        out = subprocess.run(
            [exe, "--threads", str(THREADS), "--trace", "--json", "-"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        records.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"  {binary} run {i + 1}/{RUNS}: "
              f"{records[-1]['elapsed_ms']:.1f} ms", file=sys.stderr)
    spans = sorted({k for r in records for k in r["key_metrics"]
                    if k.startswith(SPAN_PREFIX)})
    return {
        "revision": revision(),
        "cores": os.cpu_count(),
        "threads": THREADS,
        "runs": RUNS,
        "wall_ms": band([r["elapsed_ms"] for r in records]),
        "spans_ms": {
            k[len(SPAN_PREFIX):]: band([r["key_metrics"][k] for r in records
                                        if k in r["key_metrics"]])
            for k in spans
        },
    }


def separated(old, new):
    """True when each median lies outside the other row's min-max band."""
    outside_old = not old["min"] <= new["median"] <= old["max"]
    outside_new = not new["min"] <= old["median"] <= new["max"]
    return outside_old and outside_new


def compare():
    for binary in BINS:
        rows = load_rows(binary)
        if len(rows) < 2:
            continue
        old, new = rows[-2], rows[-1]
        print(f"{binary}: {old['revision']} -> {new['revision']} "
              f"(median over {old['runs']} / {new['runs']} runs, ms)")
        layers = [("wall", old["wall_ms"], new["wall_ms"])]
        for span in sorted(set(old["spans_ms"]) | set(new["spans_ms"])):
            if span in old["spans_ms"] and span in new["spans_ms"]:
                layers.append((span, old["spans_ms"][span],
                               new["spans_ms"][span]))
        for name, a, b in layers:
            ratio = b["median"] / a["median"] if a["median"] > 0 else float("nan")
            flag = "  <<" if separated(a, b) else ""
            print(f"  {name:<28} {a['median']:>12.3f} -> {b['median']:>12.3f}"
                  f"  x{ratio:.3f}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="print the last two rows per binary; run nothing")
    parser.add_argument("bins", nargs="*", metavar="BIN",
                        help=f"binaries to measure (default: all of {BINS})")
    args = parser.parse_args()
    if args.compare:
        compare()
        return 0
    unknown = sorted(set(args.bins) - set(BINS))
    if unknown:
        parser.error(f"unknown binaries {unknown}; choose from {BINS}")
    subprocess.run(["cargo", "build", "--release", "-q", "-p", "overrun-bench"],
                   cwd=ROOT, check=True)
    for binary in args.bins or BINS:
        rows = load_rows(binary)
        rows.append(measure(binary))
        save_rows(binary, rows)
        print(f"{binary}: appended row to {ledger_path(binary)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
