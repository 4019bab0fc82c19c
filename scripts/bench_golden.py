#!/usr/bin/env python3
"""Rerun simulation benches and compare their stdout to pinned files.

Each bench runs at SEESAW_INSTRUCTIONS=20000 (the budget the files
under bench/golden/stdout/ were captured at) with SEESAW_RESULTS_DIR
pointing into a temporary directory. A bench passes when it exits 0,
its stdout equals bench/golden/stdout/<bench>.txt byte for byte, and
its JSON sink <bench>.json exists (holding --cells results, when
given). A bench in NO_SINK builds no campaign and writes no sink, so
only its exit status and stdout are checked.

Usage:
  bench_golden.py --bench-dir build/bench [--jobs N] [--cells N] [BENCH...]

With no BENCH names, every bench that has a pinned file runs. To
re-pin after a deliberate change, rerun each bench the same way and
copy its stdout over bench/golden/stdout/<bench>.txt.

Exits 0 when every bench passes, 1 otherwise.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

INSTRUCTIONS = "20000"
# Benches that drive the model directly instead of through a campaign.
NO_SINK = {"fig03_superpage_coverage"}
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "bench", "golden", "stdout")


def check(bench, args, results_dir):
    """@return a list of failure messages for @p bench (empty: pass)."""
    golden_path = os.path.join(GOLDEN_DIR, bench + ".txt")
    with open(golden_path, encoding="utf-8") as f:
        golden = f.read()
    env = dict(os.environ, SEESAW_INSTRUCTIONS=INSTRUCTIONS,
               SEESAW_RESULTS_DIR=results_dir)
    if args.jobs:
        env["SEESAW_JOBS"] = str(args.jobs)
    proc = subprocess.run([os.path.join(args.bench_dir, bench)],
                          env=env, capture_output=True, text=True,
                          check=False)
    failures = []
    if proc.returncode != 0:
        failures.append(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.stdout != golden:
        diff = difflib.unified_diff(
            golden.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile=golden_path, tofile=bench + " stdout")
        failures.append("stdout differs:\n" + "".join(diff))
    if bench in NO_SINK:
        if args.cells is not None:
            failures.append(f"{bench} writes no sink to hold --cells")
        return failures
    sink = os.path.join(results_dir, bench + ".json")
    try:
        with open(sink, encoding="utf-8") as f:
            cells = len(json.load(f)["results"])
        if args.cells is not None and cells != args.cells:
            failures.append(f"{sink} holds {cells} cells, "
                            f"want {args.cells}")
    except (OSError, ValueError, KeyError) as e:
        failures.append(f"no readable JSON sink {sink}: {e}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bench-dir", required=True)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--cells", type=int)
    parser.add_argument("benches", nargs="*")
    args = parser.parse_args()

    benches = args.benches or sorted(
        name[:-len(".txt")] for name in os.listdir(GOLDEN_DIR)
        if name.endswith(".txt"))
    failed = 0
    with tempfile.TemporaryDirectory() as results_dir:
        for bench in benches:
            failures = check(bench, args, results_dir)
            print(f"{bench}: {'FAIL' if failures else 'ok'}")
            for failure in failures:
                print("  " + failure)
            failed += bool(failures)
    print(f"{len(benches) - failed}/{len(benches)} benches match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
