#!/usr/bin/env python3
"""Kill-and-resume convergence test for store-backed campaigns.

Runs the same smoke campaign three ways and requires the result
stores to agree bit-for-bit in cell statistics:

  1. an uninterrupted serial reference (--store A --jobs 1),
  2. a 2-thread run (--store B --jobs 2) SIGKILLed as soon as the
     first cell lands in the store,
  3. the same store resumed (--jobs 2 --resume).

Also asserts that the resume ran exactly the cells the killed run
left over: the "(N already in store)" count plus the records the
resume appended must equal the campaign's cell count. Last, resuming
a copy of the reference store whose first segment line is corrupt
must exit non-zero before any cell runs, leaving the segment as it
was.

Usage: campaign_resume_test.py --campaign-bin PATH --store-cli PATH
Exits 0 on success, 1 on any divergence, 2 on usage/setup errors.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

GRID = [
    "--campaign", "resume-smoke",
    "--workloads", "redis,mcf,gups,tunk",
    "--designs", "vipt,seesaw",
    "--l1", "32K",
    "--instructions", "60000",
]
CELLS = 8  # 4 workloads x 2 designs


def run(cmd, **kwargs):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          **kwargs)
    if proc.returncode != 0:
        print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    return proc


def store_records(store):
    """Completed (newline-terminated) records across all segments."""
    records = 0
    segdir = os.path.join(store, "segments")
    if not os.path.isdir(segdir):
        return 0
    for name in os.listdir(segdir):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(segdir, name), "rb") as f:
            records += f.read().count(b"\n")
    return records


def corrupt_store_refuses_resume(campaign_bin, reference, tmp):
    """--resume over a corrupt segment line must fail before any cell
    runs and leave the segment byte-for-byte as it was."""
    store = os.path.join(tmp, "store-corrupt")
    shutil.copytree(reference, store)
    segment = os.path.join(store, "segments", "driver.jsonl")
    with open(segment, "rb") as f:
        content = f.read()
    damaged = b"{x" + content[2:]  # line 1 no longer parses
    with open(segment, "wb") as f:
        f.write(damaged)

    proc = subprocess.run(
        [campaign_bin, *GRID, "--jobs", "2", "--resume", "--quiet",
         "--store", store, "--out", os.path.join(tmp, "results")],
        capture_output=True, text=True)
    with open(segment, "rb") as f:
        after = f.read()
    if proc.returncode == 0:
        print("FAIL: --resume over a corrupt store exited 0")
        return False
    if "driver.jsonl:1:" not in proc.stderr:
        print("FAIL: the corrupt-store error does not name the line")
        sys.stderr.write(proc.stderr)
        return False
    if after != damaged:
        before_lines = damaged.count(b"\n")
        after_lines = after.count(b"\n")
        print("FAIL: --resume wrote to the corrupt store "
              f"({before_lines} -> {after_lines} lines)")
        return False
    print(f"corrupt store: --resume exited {proc.returncode} before "
          "running any cell; segment unchanged")
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--campaign-bin", required=True)
    parser.add_argument("--store-cli", required=True)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="seesaw-resume-") as tmp:
        store_a = os.path.join(tmp, "store-serial")
        store_b = os.path.join(tmp, "store-killed")
        out = os.path.join(tmp, "results")

        # 1. Uninterrupted serial reference.
        run([args.campaign_bin, *GRID, "--jobs", "1", "--quiet",
             "--store", store_a, "--out", out])

        # 2. Two threads, SIGKILLed once the store holds at least one
        # completed cell but before it can hold all of them. A hard
        # kill, not SIGTERM: this is the crash path.
        proc = subprocess.Popen(
            [args.campaign_bin, *GRID, "--jobs", "2", "--quiet",
             "--store", store_b, "--out", out],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120
        while (store_records(store_b) < 1
               and time.monotonic() < deadline
               and proc.poll() is None):
            time.sleep(0.01)
        proc.kill()  # a no-op if it finished first; resume skips all
        proc.wait()

        done = store_records(store_b)
        print(f"killed after {done} completed cell(s)")
        if done < 1:
            print("FAIL: campaign died before completing any cell")
            return 1

        # 3. Resume on two threads.
        resumed = run([args.campaign_bin, *GRID, "--jobs", "2",
                       "--resume", "--quiet", "--store", store_b,
                       "--out", out])

        # The resume must skip every already-stored cell...
        match = re.search(r"\((\d+) already in store\)",
                          resumed.stderr)
        if not match:
            print("FAIL: resume did not report stored cells")
            sys.stderr.write(resumed.stderr)
            return 1
        stored = int(match.group(1))
        if stored < 1:
            print(f"FAIL: resume re-ran every cell (skipped {stored})")
            return 1

        # ...and run exactly the missing ones: every cell it runs
        # appends one record, so the segment growth proves completed
        # cells were skipped, not silently re-executed.
        ran = store_records(store_b) - done
        if stored + ran != CELLS:
            print(f"FAIL: {stored} skipped + {ran} run != "
                  f"{CELLS} cells")
            sys.stderr.write(resumed.stderr)
            return 1
        print(f"resume skipped {stored} cells, ran {ran}")

        # Convergence: the killed-and-resumed store must match the
        # uninterrupted serial store bit-for-bit in cell stats.
        run([args.store_cli, "diff", store_a, store_b])
        dump_a = run([args.store_cli, "dump", store_a]).stdout
        dump_b = run([args.store_cli, "dump", store_b]).stdout
        if dump_a != dump_b:
            print("FAIL: canonical dumps differ")
            return 1
        if not dump_a.strip():
            print("FAIL: canonical dumps are empty")
            return 1
        print(f"stores converged on {CELLS} cells; "
              "canonical dumps byte-identical")

        if not corrupt_store_refuses_resume(args.campaign_bin, store_a,
                                            tmp):
            return 1
        return 0


if __name__ == "__main__":
    sys.exit(main())
