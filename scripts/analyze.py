#!/usr/bin/env python3
"""Drive the seesaw-analyze pipeline: extract -> merge -> check.

Runs the Clang LibTooling extract tool (tools/analyze/SeesawExtract.cc)
once per TU of compile_commands.json, scans ``#include`` edges between
src/ modules with a plain-text pass (deliberately not done in the
Clang tool: the text scan is stable across Clang versions and testable
without the toolchain), merges everything into one facts document, and
hands it to seesaw_analyze_check, which enforces the four
whole-program invariants (DESIGN.md "Whole-program static analysis").

Exits 77 (the ctest SKIP convention) when the extract tool was not
built — machines without Clang dev packages — unless --require is
given; CI passes --require so a skip there is a failure.
"""

import argparse
import json
import multiprocessing.pool
import os
import re
import subprocess
import sys

SKIP = 77

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# TUs whose facts matter: the simulator and its tests/benches/examples
# (test TUs count as stat collectors). Tool sources are not simulator
# surface.
TU_RE = re.compile(r"/(src|tests|bench|examples)/.*\.cc$")

FACT_ARRAYS = [
    "tus", "config_fields", "key_fields", "geometry_fields",
    "config_reads", "includes", "stat_regs", "stat_reads", "members",
    "mutations", "calls", "overrides", "ignores",
]


def scan_includes(repo: str) -> "list[dict]":
    """#include edges between repo files, from a plain-text scan of
    src/ (the layer-DAG check only concerns src/ modules)."""
    edges = []
    src = os.path.join(repo, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".hh", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel_from = os.path.relpath(path, repo)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    m = INCLUDE_RE.match(line)
                    if not m:
                        continue
                    # Project includes are spelled repo-relative to
                    # src/ ("tlb/tlb.hh").
                    to = m.group(1)
                    if os.path.exists(os.path.join(src, to)):
                        edges.append({"from": rel_from,
                                      "to": "src/" + to})
    return edges


def merge_facts(documents: "list[dict]",
                includes: "list[dict]") -> dict:
    """Union per-TU facts into one document (dedup + stable order)."""
    merged = {"schema": 1}
    for key in FACT_ARRAYS:
        seen = set()
        out = []
        items = [e for doc in documents for e in doc.get(key, [])]
        if key == "includes":
            items = items + includes
        for item in items:
            canon = json.dumps(item, sort_keys=True)
            if canon not in seen:
                seen.add(canon)
                out.append(item)
        out.sort(key=lambda e: json.dumps(e, sort_keys=True))
        merged[key] = out
    return merged


def compile_db_tus(build_dir: str, repo: str) -> "list[str]":
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        sys.exit(f"error: {db_path} not found (configure with cmake "
                 f"first; CMAKE_EXPORT_COMPILE_COMMANDS is on by "
                 f"default)")
    with open(db_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    repo_real = os.path.realpath(repo)
    tus = []
    for entry in entries:
        path = os.path.realpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        if path.startswith(repo_real + os.sep) and TU_RE.search(path):
            tus.append(path)
    return sorted(set(tus))


def run_extract(extract: str, build_dir: str, repo: str,
                tu: str) -> "tuple[str, dict | None, str]":
    cmd = [extract, "-p", build_dir, f"--repo={repo}", tu]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return tu, None, proc.stderr.strip() or "exit " + str(
            proc.returncode)
    try:
        return tu, json.loads(proc.stdout), ""
    except json.JSONDecodeError as exc:
        return tu, None, f"bad facts JSON: {exc}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    repo_default = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--repo", default=repo_default)
    parser.add_argument("--build-dir", default=None,
                        help="build tree with compile_commands.json "
                             "(default: <repo>/build)")
    parser.add_argument("--extract", default=None,
                        help="seesaw_extract binary (default: "
                             "<build-dir>/tools/seesaw_extract)")
    parser.add_argument("--check", default=None,
                        help="seesaw_analyze_check binary (default: "
                             "<build-dir>/tools/seesaw_analyze_check)")
    parser.add_argument("--out", default=None,
                        help="merged facts path (default: "
                             "<build-dir>/analyze/facts.json)")
    parser.add_argument("--jobs", type=int,
                        default=os.cpu_count() or 2)
    parser.add_argument("--werror", action="store_true",
                        help="check phase treats warnings as errors")
    parser.add_argument("--require", action="store_true",
                        help="fail (not SKIP) when the extract tool "
                             "is missing — set in CI")
    parser.add_argument("--merge-only", action="store_true",
                        help="write the merged facts but skip the "
                             "check phase")
    args = parser.parse_args()

    build_dir = args.build_dir or os.path.join(args.repo, "build")
    extract = args.extract or os.path.join(build_dir, "tools",
                                           "seesaw_extract")
    check = args.check or os.path.join(build_dir, "tools",
                                       "seesaw_analyze_check")
    out = args.out or os.path.join(build_dir, "analyze", "facts.json")

    if not os.path.exists(extract):
        msg = (f"seesaw-analyze: extract tool not built at {extract} "
               f"(Clang dev packages missing?)")
        if args.require:
            print(f"error: {msg}", file=sys.stderr)
            return 1
        print(f"SKIP: {msg}")
        return SKIP

    tus = compile_db_tus(build_dir, args.repo)
    if not tus:
        print("error: no TUs matched in compile_commands.json",
              file=sys.stderr)
        return 1

    documents = []
    failures = []
    with multiprocessing.pool.ThreadPool(args.jobs) as pool:
        results = pool.starmap(
            run_extract,
            [(extract, build_dir, args.repo, tu) for tu in tus])
    for tu, doc, err in results:
        if doc is None:
            failures.append((tu, err))
        else:
            documents.append(doc)
    if failures:
        for tu, err in failures:
            print(f"error: extract failed for {tu}: {err}",
                  file=sys.stderr)
        return 1

    merged = merge_facts(documents, scan_includes(args.repo))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")
    print(f"seesaw-analyze: extracted {len(documents)} TUs -> {out}")
    if args.merge_only:
        return 0

    if not os.path.exists(check):
        print(f"error: check binary not built at {check}",
              file=sys.stderr)
        return 1
    cmd = [check, "--facts", out]
    if args.werror:
        cmd.append("--werror")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
