#!/usr/bin/env python3
"""Performance ledger: repeated timings of the reproduction binaries and
of the perfbench workloads.

Usage, from anywhere inside a checkout:

    python3 scripts/ledger.py [NAME ...]  # measure this checkout, append rows
    python3 scripts/ledger.py --compare   # read rows, print deltas

Measuring times the checkout the command runs in and appends to the
`BENCH_*.json` files next to this script, so a parent revision is
measured by running this script from a `git clone` of it. The revision is
read once, before anything is written (`-dirty` when tracked files
differ from it).

A NAME is a bench binary or a perfbench workload (all of both by
default). Each binary is built in release mode and run 5 times with
`--threads 2 --trace --json -`; one row goes to `BENCH_<bin>.json`,
holding the revision, the core count, the thread count, and the median,
min and max of the wall time (`elapsed_ms`) and of every traced span
(`trace.span_ms.*`) over the runs. Each workload is run once with
`perfbench/run.py --seed 2021 --seconds 20` at `--trace 0` (end-to-end
metrics) and once at `--trace 1` (per-layer metrics); each run's JSON
result line goes, as printed, into its own row of
`BENCH_perfbench_<workload>.json`, next to the revision, core count and
arguments.

`--compare` reads the committed files only. For every binary with two or
more rows it prints the last row against the one before it, per span; for
every workload it pools each metric over the rows of the last two
revisions. It flags (`<<`) only the changes whose new median lies
outside the old min-max band and whose old median lies outside the new
band.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINS = ["table1", "table2", "ts_tradeoff", "jsr_ablation", "figure1"]
WORKLOADS = ["pi_mc", "lqr_mc", "table2_cert"]
THREADS = 2
RUNS = 5
SPAN_PREFIX = "trace.span_ms."
PERF_SEED = 2021
PERF_SECONDS = 20


def ledger_name(name):
    return f"perfbench_{name}" if name in WORKLOADS else name


def ledger_path(name):
    return os.path.join(LEDGER, f"BENCH_{ledger_name(name)}.json")


def load_rows(name):
    path = ledger_path(name)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return json.load(f)


def save_rows(name, rows):
    # One row per line keeps the committed files diffable.
    with open(ledger_path(name), "w") as f:
        f.write("[\n")
        f.write(",\n".join(json.dumps(row, sort_keys=True) for row in rows))
        f.write("\n]\n")


def band(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def git(*args):
    out = subprocess.run(["git", *args], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


def measure(binary, root, rev):
    exe = os.path.join(root, "target", "release", binary)
    records = []
    for i in range(RUNS):
        out = subprocess.run(
            [exe, "--threads", str(THREADS), "--trace", "--json", "-"],
            cwd=root, capture_output=True, text=True, check=True,
        )
        records.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"  {binary} run {i + 1}/{RUNS}: "
              f"{records[-1]['elapsed_ms']:.1f} ms", file=sys.stderr)
    spans = sorted({k for r in records for k in r["key_metrics"]
                    if k.startswith(SPAN_PREFIX)})
    return {
        "revision": rev,
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


def measure_perfbench(workload, root, rev):
    rows = []
    for trace in (0, 1):
        args = ["--workload", workload, "--seed", str(PERF_SEED),
                "--seconds", str(PERF_SECONDS), "--trace", str(trace)]
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), *args],
            cwd=root, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"  {workload} --trace {trace}: correct={result['correct']}",
              file=sys.stderr)
        rows.append({"revision": rev, "cores": os.cpu_count(),
                     "args": args, "result": result})
    return rows


def separated(old, new):
    """True when each median lies outside the other row's min-max band."""
    outside_old = not old["min"] <= new["median"] <= old["max"]
    outside_new = not new["min"] <= old["median"] <= new["max"]
    return outside_old and outside_new


def print_layers(layers):
    for name, a, b in layers:
        ratio = b["median"] / a["median"] if a["median"] > 0 else float("nan")
        flag = "  <<" if separated(a, b) else ""
        print(f"  {name:<28} {a['median']:>12.3f} -> {b['median']:>12.3f}"
              f"  x{ratio:.3f}{flag}")


def compare_perfbench(workload):
    rows = load_rows(workload)
    revs = list(dict.fromkeys(row["revision"] for row in rows))
    if len(revs) < 2:
        return
    pooled = {}
    for rev in revs[-2:]:
        values = {}
        for row in rows:
            if row["revision"] == rev:
                for name, m in row["result"]["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        pooled[rev] = {name: band(v) for name, v in values.items()}
    old, new = (pooled[rev] for rev in revs[-2:])
    wrong = sum(not row["result"]["correct"] for row in rows
                if row["revision"] in pooled)
    print(f"perfbench {workload}: {revs[-2]} -> {revs[-1]} "
          f"(median over runs, normalised; {wrong} incorrect runs)")
    print_layers([(name, old[name], new[name])
                  for name in sorted(set(old) & set(new))])


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
        print_layers(layers)
    for workload in WORKLOADS:
        compare_perfbench(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="print the last two revisions per binary and "
                             "workload; run nothing")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"binaries or workloads to measure "
                             f"(default: all of {BINS + WORKLOADS})")
    args = parser.parse_args()
    if args.compare:
        compare()
        return 0
    unknown = sorted(set(args.names) - set(BINS) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown names {unknown}; "
                     f"choose from {BINS + WORKLOADS}")
    root = git("rev-parse", "--show-toplevel")
    rev = git("-C", root, "describe", "--always", "--dirty", "--abbrev=7")
    names = args.names or BINS + WORKLOADS
    if set(names) & set(BINS):
        subprocess.run(["cargo", "build", "--release", "-q", "-p",
                        "overrun-bench"], cwd=root, check=True)
    for name in names:
        rows = load_rows(name)
        if name in WORKLOADS:
            rows.extend(measure_perfbench(name, root, rev))
        else:
            rows.append(measure(name, root, rev))
        save_rows(name, rows)
        print(f"{name} ({rev}): appended to {ledger_path(name)}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
