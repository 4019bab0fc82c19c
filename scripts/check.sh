#!/usr/bin/env bash
# Local mirror of the CI correctness matrix:
#
#   default    -Wall -Wextra -Werror build, full test suite
#   asan-ubsan AddressSanitizer + UBSan build, full test suite
#   tsan       ThreadSanitizer build, threaded harness tests + a
#              2-worker smoke campaign
#   tidy       clang-tidy over the compilation database (skipped with a
#              notice when clang-tidy is not installed)
#   lint       project-discipline checks: NOLINT justifications,
#              the src/ layering check, the seesaw-tidy fixture suite
#              (ctest -L lint; SKIPs when clang-tidy is absent), and
#              — when the plugin built — seesaw-tidy over all of src/
#   format     git clang-format --diff of changed lines vs the merge
#              base (skipped with a notice when not installed)
#   perf       perf-regression gate: 3-run median of the throughput
#              suite vs bench/perf/BENCH_throughput.baseline.json
#              (the local mirror of the CI perf-gate job)
#   resume     kill-and-resume gate: store unit tests, then the
#              convergence script (a 2-thread store-backed campaign
#              SIGKILLed partway must resume, skip finished cells, and
#              match an uninterrupted serial store bit-for-bit — the
#              local mirror of the CI campaign-resume job)
#   threads    Clang Thread Safety Analysis build (-Wthread-safety as
#              errors over the capability annotations) plus the
#              compile-fail snippet tests (skipped with a notice when
#              clang++ is not installed; CI runs it)
#
# Usage: scripts/check.sh [stage...]   (default: all stages)

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"
stages=("$@")
[ ${#stages[@]} -eq 0 ] && \
    stages=(default asan-ubsan tsan tidy lint format perf resume
        threads)

banner() { printf '\n=== %s ===\n' "$*"; }

configure_build_test() {
    local dir="$1"; shift
    cmake -S "$repo" -B "$dir" "$@"
    cmake --build "$dir" -j "$jobs"
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

for stage in "${stages[@]}"; do
    case "$stage" in
    default)
        banner "default build + tests"
        configure_build_test "$repo/build"
        ;;
    asan-ubsan)
        banner "ASan+UBSan build + tests"
        configure_build_test "$repo/build-asan" \
            -DSEESAW_SANITIZE=asan-ubsan
        ;;
    tsan)
        banner "TSan build + threaded smoke"
        cmake -S "$repo" -B "$repo/build-tsan" -DSEESAW_SANITIZE=tsan
        cmake --build "$repo/build-tsan" -j "$jobs"
        # The harness owns all the threading; run its suites plus a
        # parallel campaign so real worker interleavings execute.
        ctest --test-dir "$repo/build-tsan" --output-on-failure \
            -R 'Campaign|Sink|Resume'
        "$repo/build-tsan/examples/campaign" --campaign tsan-smoke \
            --workloads redis,mcf --l1 32K --jobs 2 \
            --instructions 50000 --quiet
        ;;
    tidy)
        banner "clang-tidy"
        if ! command -v clang-tidy > /dev/null; then
            echo "clang-tidy not installed; skipping (CI runs it)"
            continue
        fi
        cmake -S "$repo" -B "$repo/build" > /dev/null # refresh DB
        mapfile -t sources < <(
            find "$repo/src" "$repo/examples" "$repo/bench" \
                -name '*.cc' -o -name '*.cpp' | sort)
        if command -v run-clang-tidy > /dev/null; then
            run-clang-tidy -p "$repo/build" -j "$jobs" -quiet \
                "${sources[@]}"
        else
            clang-tidy -p "$repo/build" --quiet "${sources[@]}"
        fi
        ;;
    lint)
        banner "project lint"
        python3 "$repo/scripts/check_nolint.py"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs"
        # Fixture tests SKIP (exit 77) when clang-tidy or the plugin
        # headers are missing; ctest reports that visibly.
        ctest --test-dir "$repo/build" --output-on-failure -L lint
        plugin="$repo/build/tools/tidy/libSeesawTidy.so"
        if command -v clang-tidy > /dev/null && [ -f "$plugin" ]; then
            mapfile -t sources < <(
                find "$repo/src" -name '*.cc' | sort)
            clang-tidy -p "$repo/build" --quiet -load "$plugin" \
                -checks='-*,seesaw-*' --warnings-as-errors='seesaw-*' \
                "${sources[@]}"
            echo "seesaw-tidy: src/ is clean"
        else
            echo "seesaw-tidy plugin or clang-tidy unavailable;" \
                "skipping whole-src sweep (CI runs it)"
        fi
        ;;
    format)
        banner "format gate (changed lines vs merge base)"
        if ! command -v git-clang-format > /dev/null \
            && ! git clang-format -h > /dev/null 2>&1; then
            echo "git-clang-format not installed; skipping (CI runs it)"
            continue
        fi
        base="$(git -C "$repo" merge-base HEAD origin/main \
            2> /dev/null || git -C "$repo" rev-parse HEAD~1)"
        out="$(git -C "$repo" clang-format --diff "$base" -- \
            src tests tools bench examples || true)"
        if [ -n "$out" ] && ! grep -q "did not modify" <<< "$out" \
            && ! grep -q "no modified files" <<< "$out"; then
            printf '%s\n' "$out"
            echo "format gate FAILED: run 'git clang-format $base'" >&2
            exit 1
        fi
        echo "changed lines are clang-format clean"
        ;;
    perf)
        banner "perf-regression gate"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs" --target perf_throughput
        python3 "$repo/scripts/perf_gate.py"
        ;;
    resume)
        banner "kill/resume convergence"
        cmake -S "$repo" -B "$repo/build" > /dev/null
        cmake --build "$repo/build" -j "$jobs" \
            --target seesaw_tests campaign seesaw_store_cli
        ctest --test-dir "$repo/build" --output-on-failure \
            -R 'ResultStore|JsonValue|Resume\.'
        python3 "$repo/scripts/campaign_resume_test.py" \
            --campaign-bin "$repo/build/examples/campaign" \
            --store-cli "$repo/build/tools/seesaw_store"
        ;;
    threads)
        banner "Clang thread-safety analysis"
        if ! command -v clang++ > /dev/null; then
            echo "clang++ not installed; skipping (CI runs it)"
            continue
        fi
        # SEESAW_WERROR=OFF: only the thread-safety groups are promoted
        # to errors, so a Clang-only -Wall nit cannot mask a finding.
        cmake -S "$repo" -B "$repo/build-threads" \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DSEESAW_THREAD_SAFETY=ON -DSEESAW_WERROR=OFF
        cmake --build "$repo/build-threads" -j "$jobs"
        ctest --test-dir "$repo/build-threads" --output-on-failure \
            -R compile_fail
        ;;
    *)
        echo "unknown stage: $stage" >&2
        echo "stages: default asan-ubsan tsan tidy lint format" \
            "perf resume threads" >&2
        exit 1
        ;;
    esac
done

banner "all requested stages passed"
