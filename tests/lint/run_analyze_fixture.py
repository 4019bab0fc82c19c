#!/usr/bin/env python3
"""Extraction-phase fixture test for seesaw-analyze.

Runs the seesaw_extract Clang tool over the miniature repo in
fixtures/analyze/repo/ (its MiniConfig/miniKey/miniGeom names are
remapped via the tool's --config-struct/--key-fn/... options), merges
the per-TU facts with scripts/analyze.py's merge_facts, normalizes
away source line numbers, and diffs against golden_facts.json. This
pins the whole extraction surface: type-based field provenance,
front/indexed/param base classification, definitional-function field
sets, stat registration + ctor-init handle binds, the owning-member
graph, cross-class mutations, the call graph, overrides, and the
seesaw-analyze-ignore escape.

Exits 77 (ctest SKIP) when the extract tool is not built — machines
without Clang dev packages. Pass --update-golden to regenerate the
golden after an intentional extractor change.
"""

import argparse
import json
import os
import subprocess
import sys

SKIP = 77

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXREPO = os.path.join(HERE, "fixtures", "analyze", "repo")
GOLDEN = os.path.join(HERE, "fixtures", "analyze", "golden_facts.json")
TUS = ["src/fix/front.cc", "src/fix/sub.cc"]

sys.path.insert(0, os.path.join(REPO, "scripts"))
import analyze  # noqa: E402  (scripts/analyze.py: merge_facts)


def normalize(doc: dict) -> dict:
    """Keep only the fact arrays; drop source line numbers (they churn
    with unrelated edits) and impose a canonical order."""
    out = {}
    for key in analyze.FACT_ARRAYS:
        items = []
        for item in doc.get(key, []):
            if isinstance(item, dict):
                item = {k: v for k, v in item.items() if k != "line"}
            items.append(item)
        items.sort(key=lambda e: json.dumps(e, sort_keys=True))
        out[key] = items
    return out


def run_extract(extract: str, tu: str) -> dict:
    cmd = [
        extract,
        f"--repo={FIXREPO}",
        "--config-struct=MiniConfig",
        "--key-fn=miniKey",
        "--geom-fn=miniGeom",
        os.path.join(FIXREPO, tu),
        "--",
        "-std=c++17",
        f"-I{os.path.join(FIXREPO, 'src')}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: extract failed for {tu}:\n{proc.stderr}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        sys.exit(f"FAIL: bad facts JSON for {tu}: {exc}\n"
                 f"{proc.stdout[:2000]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--extract", default=os.path.join(
        REPO, "build", "tools", "seesaw_extract"))
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(args.extract):
        print(f"SKIP: extract tool not built at {args.extract} "
              f"(Clang dev packages missing?)")
        return SKIP

    documents = [run_extract(args.extract, tu) for tu in TUS]
    got = normalize(analyze.merge_facts(documents, []))

    if args.update_golden:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1)
            fh.write("\n")
        print(f"updated {GOLDEN}")
        return 0

    with open(GOLDEN, encoding="utf-8") as fh:
        want = normalize(json.load(fh))

    failed = False
    for key in analyze.FACT_ARRAYS:
        got_set = {json.dumps(e, sort_keys=True) for e in got[key]}
        want_set = {json.dumps(e, sort_keys=True) for e in want[key]}
        for extra in sorted(got_set - want_set):
            print(f"FAIL: {key}: unexpected fact: {extra}")
            failed = True
        for missing in sorted(want_set - got_set):
            print(f"FAIL: {key}: missing fact:    {missing}")
            failed = True
    if failed:
        print("hint: tests/lint/run_analyze_fixture.py "
              "--update-golden after an intentional extractor change")
        return 1
    total = sum(len(v) for v in got.values())
    print(f"PASS: extraction fixture matches golden ({total} facts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
