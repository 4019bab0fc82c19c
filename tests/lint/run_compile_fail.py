#!/usr/bin/env python3
"""Compile-fail tests for the thread-safety annotation layer.

Feeds known-bad snippets (an unguarded write, a ...Locked() helper
missing SEESAW_REQUIRES, a double acquire) through a Clang
``-Wthread-safety -Werror`` compile and asserts the expected
diagnostic, proving the CI gate actually rejects the bug classes the
annotations exist for.  Each snippet names its expected diagnostic in
an ``// EXPECT-ERROR: <regex>`` comment; a snippet without the marker
(the control) must compile cleanly, which also guards against the
whole suite "passing" because of an unrelated breakage.

As a final step the driver mutates a copy of the real
``src/store/result_store.cc`` — deleting the lock acquisition before
``appendLineLocked`` in ``SegmentWriter::upsert`` — and asserts the
analysis rejects it, so the gate is exercised against production
source, not just toy snippets (and the unmutated file is compiled
first as its own control).

Exit codes:
  0   every expectation held
  1   a snippet compiled when it must not, failed when it must not,
      or produced the wrong diagnostic
  77  no Clang compiler available (thread-safety analysis is a Clang
      extension) -- ctest maps this to SKIP via SKIP_RETURN_CODE
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

SKIP = 77

EXPECT_RE = re.compile(r"//\s*EXPECT-ERROR:\s*(?P<pattern>.+?)\s*$")

MUTATION_FILE = os.path.join("store", "result_store.cc")
MUTATION_CONTEXT = (
    "    MutexLock lock(mutex_);\n"
    "    appendLineLocked(line.str());"
)
MUTATION_REPLACEMENT = "    appendLineLocked(line.str());"
MUTATION_EXPECT = r"requires holding mutex 'mutex_'"


def skip(reason: str) -> "NoReturn":
    print(f"SKIP: {reason}")
    sys.exit(SKIP)


def find_clang(explicit: str) -> str:
    """Locate a Clang C++ compiler or exit 77."""
    candidates = [explicit] if explicit else []
    candidates += [
        os.environ.get("SEESAW_CLANGXX", ""),
        "clang++",
        "clang++-19",
        "clang++-18",
        "clang++-17",
        "clang++-16",
        "clang++-15",
        "clang++-14",
    ]
    for candidate in candidates:
        if not candidate:
            continue
        path = shutil.which(candidate)
        if not path:
            continue
        proc = subprocess.run([path, "--version"], capture_output=True,
                              text=True, check=False)
        if proc.returncode == 0 and "clang" in proc.stdout.lower():
            return path
    skip("no Clang C++ compiler found (thread-safety analysis needs "
         "Clang; set SEESAW_CLANGXX to override)")


def compile_file(clang: str, src_dir: str, path: str) -> "tuple[int, str]":
    proc = subprocess.run(
        [
            clang,
            "-fsyntax-only",
            "-std=c++20",
            f"-I{src_dir}",
            "-Wthread-safety",
            "-Wthread-safety-beta",
            "-Werror",
            path,
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stderr


def expected_pattern(path: str) -> "str | None":
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            m = EXPECT_RE.search(line)
            if m:
                return m.group("pattern")
    return None


def check_snippet(clang: str, src_dir: str, path: str) -> bool:
    name = os.path.basename(path)
    pattern = expected_pattern(path)
    rc, stderr = compile_file(clang, src_dir, path)
    if pattern is None:
        if rc != 0:
            print(f"FAIL {name}: control snippet must compile cleanly:")
            print(stderr)
            return False
        print(f"ok   {name}: control compiles cleanly")
        return True
    if rc == 0:
        print(f"FAIL {name}: compiled cleanly but must be rejected "
              f"(expected /{pattern}/)")
        return False
    if not re.search(pattern, stderr):
        print(f"FAIL {name}: rejected, but without the expected "
              f"diagnostic /{pattern}/; stderr was:")
        print(stderr)
        return False
    print(f"ok   {name}: rejected with /{pattern}/")
    return True


def check_mutation(clang: str, src_dir: str) -> bool:
    """Seed a violation into result_store.cc and require a rejection."""
    original = os.path.join(src_dir, MUTATION_FILE)
    with open(original, encoding="utf-8") as fh:
        source = fh.read()

    rc, stderr = compile_file(clang, src_dir, original)
    if rc != 0:
        print("FAIL mutation control: pristine result_store.cc must "
              "pass the thread-safety build:")
        print(stderr)
        return False
    print("ok   mutation control: pristine result_store.cc passes")

    if MUTATION_CONTEXT not in source:
        print("FAIL mutation: result_store.cc no longer contains the "
              "expected upsert() lock context; update "
              "run_compile_fail.py's MUTATION_CONTEXT")
        return False
    mutated = source.replace(MUTATION_CONTEXT, MUTATION_REPLACEMENT, 1)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result_store_mutated.cc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutated)
        rc, stderr = compile_file(clang, src_dir, path)
    if rc == 0:
        print("FAIL mutation: upsert() without the lock compiled "
              "cleanly -- the thread-safety gate is not working")
        return False
    if not re.search(MUTATION_EXPECT, stderr):
        print(f"FAIL mutation: rejected, but without the expected "
              f"diagnostic /{MUTATION_EXPECT}/; stderr was:")
        print(stderr)
        return False
    print(f"ok   mutation: unlocked upsert() rejected with "
          f"/{MUTATION_EXPECT}/")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clang", default="",
                        help="Clang C++ compiler to use (default: probe)")
    parser.add_argument("--src", required=True,
                        help="path to the repo's src/ directory")
    parser.add_argument("--snippets", required=True,
                        help="directory of compile-fail snippets")
    args = parser.parse_args()

    clang = find_clang(args.clang)
    print(f"using {clang}")

    snippets = sorted(
        os.path.join(args.snippets, name)
        for name in os.listdir(args.snippets)
        if name.endswith(".cc")
    )
    if not snippets:
        print(f"no snippets under {args.snippets}")
        return 1

    ok = True
    for snippet in snippets:
        ok = check_snippet(clang, args.src, snippet) and ok
    ok = check_mutation(clang, args.src) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
