#!/usr/bin/env python3
"""Check that the src/ include graph lies within the CMake link graph.

src/CMakeLists.txt is the one layering policy. Module A (src/A/) may
include a header of module B only if seesaw_A links seesaw_B, directly
or through other libraries. Every src/ directory must have a
seesaw_<dir> library, and the link graph must be acyclic.

Usage: check_layers.py [--src DIR]   (default: the repository's src/)
"""

import argparse
import os
import re
import sys

LIBRARY_RE = re.compile(r"add_library\(\s*(seesaw_\w+)")
LINK_RE = re.compile(r"target_link_libraries\(\s*(\w+)([^)]*)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def link_graph(cmake_text):
    text = re.sub(r"#[^\n]*", "", cmake_text)
    graph = {lib: set() for lib in LIBRARY_RE.findall(text)}
    for lib, args in LINK_RE.findall(text):
        graph.setdefault(lib, set()).update(
            dep for dep in args.split() if dep.startswith("seesaw_"))
    return graph


def find_cycle(graph):
    """@return one cycle as a list of libraries, or None."""
    state = {}  # absent: unvisited, 1: on the DFS stack, 2: done
    stack = []

    def visit(lib):
        state[lib] = 1
        stack.append(lib)
        for dep in sorted(graph.get(lib, ())):
            if state.get(dep) == 1:
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        state[lib] = 2
        return None

    for lib in sorted(graph):
        if lib not in state:
            cycle = visit(lib)
            if cycle:
                return cycle
    return None


def reachable(graph, lib):
    seen, todo = set(), [lib]
    while todo:
        for dep in graph.get(todo.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def check(src):
    with open(os.path.join(src, "CMakeLists.txt"), encoding="utf-8") as fh:
        graph = link_graph(fh.read())
    problems = []
    cycle = find_cycle(graph)
    if cycle:
        problems.append("link cycle: " + " -> ".join(cycle))

    modules = sorted(d for d in os.listdir(src)
                     if os.path.isdir(os.path.join(src, d)))
    for module in modules:
        lib = "seesaw_" + module
        if lib not in graph:
            problems.append(f"src/{module}/ has no {lib} library")
            continue
        allowed = reachable(graph, lib)
        for dirpath, _, files in os.walk(os.path.join(src, module)):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, os.path.dirname(src))
                with open(path, encoding="utf-8", errors="replace") as fh:
                    includes = INCLUDE_RE.findall(fh.read())
                for inc in includes:
                    target = inc.split("/")[0]
                    if target not in modules:
                        problems.append(
                            f"{rel}: #include \"{inc}\" names no src/ "
                            f"module")
                    elif (target != module and
                          "seesaw_" + target not in allowed):
                        problems.append(
                            f"{rel}: #include \"{inc}\" but {lib} does "
                            f"not link seesaw_{target}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", "..", "src"))
    problems = check(os.path.normpath(parser.parse_args().src))
    for p in problems:
        print(p)
    if problems:
        return 1
    print("OK: every src/ include follows the CMake link graph")
    return 0


if __name__ == "__main__":
    sys.exit(main())
