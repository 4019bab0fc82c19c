#!/usr/bin/env python3
"""Police NOLINT suppressions of seesaw-tidy checks and the
thread-safety escape hatch.

A suppression is an auditable decision, so the project requires the
form

    // NOLINT(seesaw-<check>): <justification>

with a named seesaw check and a non-trivial justification after the
colon (NOLINTNEXTLINE and NOLINTBEGIN take the same form; a matching
NOLINTEND needs none).  This script fails on:

  * bare ``NOLINT`` / ``NOLINTNEXTLINE`` without a check list -- they
    would silently suppress seesaw checks along with everything else;
  * seesaw suppressions without a justification, or with a throwaway
    one (fewer than three words).

The same discipline applies to ``SEESAW_NO_THREAD_SAFETY_ANALYSIS``,
which disables Clang's capability analysis for a whole function body:
every use (outside the defining file) must carry a same-line
justification of three or more words.

Run as a ctest ("check_nolint") and in CI's lint job; the negative
self-test runs as ctest "lint_nolint_policy".
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples", "tools")
SKIP_DIRS = {os.path.join("tests", "lint", "fixtures")}
EXTENSIONS = (".hh", ".cc", ".h", ".cpp")

NOLINT_RE = re.compile(r"NOLINT(?:NEXTLINE|BEGIN|END)?(\([^)]*\))?")
JUSTIFIED_RE = re.compile(
    r"NOLINT(?:NEXTLINE|BEGIN)?\(([^)]*)\)\s*:\s*(.*\S)")
MIN_JUSTIFICATION_WORDS = 3

NO_TSA_TOKEN = "SEESAW_NO_THREAD_SAFETY_ANALYSIS"
NO_TSA_JUSTIFIED_RE = re.compile(
    NO_TSA_TOKEN + r"\b.*//\s*(.*\S)")
# The macro's own definition and documentation live here.
NO_TSA_HOME = os.path.join("src", "common", "thread_annotations.hh")


def scan_lines(lines: "list[str]", rel: str) -> "list[str]":
    problems = []
    for lineno, line in enumerate(lines, start=1):
        for m in NOLINT_RE.finditer(line):
            checks = m.group(1)
            if checks is None:
                problems.append(
                    f"{rel}:{lineno}: bare {m.group(0)} suppresses every "
                    f"check; name the check: NOLINT(<check>): <reason>")
                continue
            if "seesaw-" not in checks:
                continue  # other tools' suppressions are not ours
            if m.group(0).startswith("NOLINTEND"):
                continue  # closes a justified NOLINTBEGIN region
            jm = JUSTIFIED_RE.search(line[m.start():])
            words = jm.group(2).split() if jm else []
            if len(words) < MIN_JUSTIFICATION_WORDS:
                problems.append(
                    f"{rel}:{lineno}: NOLINT{checks} needs a "
                    f"justification -- write "
                    f"'// NOLINT{checks}: <why this is safe>' "
                    f"({MIN_JUSTIFICATION_WORDS}+ words)")
        if NO_TSA_TOKEN in line and rel != NO_TSA_HOME:
            stripped = line.lstrip()
            if not stripped.startswith(("#", "//", "*")):
                jm = NO_TSA_JUSTIFIED_RE.search(line)
                words = jm.group(1).split() if jm else []
                if len(words) < MIN_JUSTIFICATION_WORDS:
                    problems.append(
                        f"{rel}:{lineno}: {NO_TSA_TOKEN} disables the "
                        f"capability analysis for the whole function; "
                        f"add a same-line '// <why the analysis cannot "
                        f"express this>' justification "
                        f"({MIN_JUSTIFICATION_WORDS}+ words)")
    return problems


def scan_file(path: str, rel: str) -> "list[str]":
    with open(path, encoding="utf-8", errors="replace") as fh:
        return scan_lines(fh.readlines(), rel)


def self_test() -> int:
    """Negative self-test: every bad suppression form must be caught,
    every well-justified one accepted."""
    bad = [
        "int x; // NOLINT",
        "// NOLINTNEXTLINE",
        "// NOLINTNEXTLINE(seesaw-raw-random)",
        "int x; // NOLINT(seesaw-raw-random): no",
        "// NOLINTBEGIN(seesaw-lock-order)",
        "void f() SEESAW_NO_THREAD_SAFETY_ANALYSIS {}",
        "void f() SEESAW_NO_THREAD_SAFETY_ANALYSIS {} // recursive",
    ]
    good = [
        "int x;",
        "int x; // NOLINT(seesaw-raw-random): seeded by the harness",
        "// NOLINTNEXTLINE(seesaw-lock-order): lock proven unreachable here",
        "// NOLINTBEGIN(seesaw-lock-order): ordered by the pool invariant",
        "// NOLINTEND(seesaw-lock-order)",
        "int x; // NOLINT(clang-diagnostic-unused): not a seesaw check",
        "void f() SEESAW_NO_THREAD_SAFETY_ANALYSIS {} "
        "// recursion the analysis cannot model",
    ]
    failures = []
    for line in bad:
        if not scan_lines([line], "selftest.cc"):
            failures.append(f"NOT caught (should fail): {line!r}")
    for line in good:
        got = scan_lines([line], "selftest.cc")
        if got:
            failures.append(f"false positive on {line!r}: {got}")
    for f in failures:
        print(f"SELF-TEST FAIL: {f}")
    if failures:
        return 1
    print(f"OK: self-test caught all {len(bad)} bad forms, "
          f"accepted all {len(good)} good forms")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    problems = []
    scanned = 0
    for top in SCAN_DIRS:
        root_dir = os.path.join(args.repo, top)
        for dirpath, _, filenames in os.walk(root_dir):
            rel_dir = os.path.relpath(dirpath, args.repo)
            if any(rel_dir.startswith(skip) for skip in SKIP_DIRS):
                continue
            for name in sorted(filenames):
                if not name.endswith(EXTENSIONS):
                    continue
                scanned += 1
                path = os.path.join(dirpath, name)
                problems.extend(scan_file(path, os.path.relpath(
                    path, args.repo)))

    for p in problems:
        print(p)
    if problems:
        return 1
    print(f"OK: no unjustified seesaw NOLINT suppressions "
          f"({scanned} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
