#!/bin/sh
# Full-suite sanitizer run (docs/parallelism.md "ThreadSanitizer"):
#
#   tools/sanitize.sh [build-dir-prefix] [jobs]
#
# Configures two build trees next to each other,
#   <prefix>-asan  with -DFELIX_SANITIZE=address,undefined
#   <prefix>-tsan  with -DFELIX_SANITIZE=thread
# builds everything in each and runs the WHOLE ctest suite there (not
# only the labelled subsets). UndefinedBehaviorSanitizer reports are
# made fatal, so a test that triggers one fails instead of printing a
# warning. Defaults: prefix <repo>/build-sanitize, jobs 2.
#
# Exit status: 0 when both suites pass; otherwise the number of
# configurations whose ctest failed (1 or 2). Both configurations run
# even if the first one fails.
set -u

src_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
prefix=${1:-"$src_dir/build-sanitize"}
jobs=${2:-2}

UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}
TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
export UBSAN_OPTIONS TSAN_OPTIONS

failed=0
for config in "asan address,undefined" "tsan thread"; do
    set -- $config
    build_dir="$prefix-$1"
    echo "== $1: -DFELIX_SANITIZE=$2 in $build_dir"
    if cmake -B "$build_dir" -S "$src_dir" -DFELIX_SANITIZE="$2" &&
        cmake --build "$build_dir" -j "$jobs" &&
        ctest --test-dir "$build_dir" -j "$jobs" --output-on-failure
    then
        echo "== $1: passed"
    else
        echo "== $1: FAILED"
        failed=$((failed + 1))
    fi
done
exit "$failed"
