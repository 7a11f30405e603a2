#!/usr/bin/env bash
# Profile the simulator hot path: with perf when it is installed, otherwise
# with gprof through a statically linked BRISA_GPROF build, otherwise as a
# plain timed run.
#
#   scripts/profile_hotpath.sh [BENCH_FILTER] [-- extra bench args...]
#   scripts/profile_hotpath.sh --cell
#
# Examples:
#   scripts/profile_hotpath.sh                         # BM_SimEventRate
#   scripts/profile_hotpath.sh 'SimEventRate/100000'
#   scripts/profile_hotpath.sh 'EventQueueTimerChurn' -- --benchmark_min_time=1
#   scripts/profile_hotpath.sh --cell                  # 10k faulted BRISA cell
#
# Without --cell the target is bench_micro_sim; with --cell it is the
# end-to-end brisa_run of the 10k-node faulted BRISA cell of
# scenarios/scale_sweep.scn (13.9M events; the cell perfbench's upkeep_10k
# workload reproduces).
#
# perf: records into perf.data and prints the top symbols; it profiles the
# binaries in build/ (cmake --build build -j).
# gprof: configures and builds build-gprof/ (Release, -DBRISA_GPROF=ON; the
# first build takes a few minutes), runs the target there, and prints the
# flat profile's top lines; the full report is `gprof BINARY gmon.out` in
# that directory. bench_micro_sim links Google Benchmark dynamically, so
# its gprof profile leaves libc/libm time unattributed; the brisa_run cell
# is linked statically and attributes everything.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

cell=0
if [ "${1:-}" = "--cell" ]; then
  cell=1
  shift
  if [ $# -gt 0 ]; then
    echo "error: --cell takes no further arguments" >&2
    exit 2
  fi
else
  filter="${1:-BM_SimEventRate}"
  [ $# -gt 0 ] && shift
  [ "${1:-}" = "--" ] && shift
fi

if command -v perf > /dev/null 2>&1; then
  tool=perf
elif command -v gprof > /dev/null 2>&1; then
  tool=gprof
else
  tool=none
fi

if [ "$tool" = gprof ]; then
  build="$repo/build-gprof"
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      -DBRISA_GPROF=ON -DBUILD_TESTING=OFF > /dev/null
  fi
  target=$([ $cell -eq 1 ] && echo brisa_run || echo bench_micro_sim)
  cmake --build "$build" -j "$(nproc)" --target "$target" > /dev/null
else
  build="$repo/build"
fi

if [ $cell -eq 1 ]; then
  binary="$build/brisa_run"
  args=(--set params.sizes=10000 --set params.protocols=brisa
        --set params.variants=faulted "$repo/scenarios/scale_sweep.scn")
  build_hint="cmake --build build -j --target brisa_run"
else
  binary="$build/bench_micro_sim"
  args=(--benchmark_filter="$filter" --benchmark_min_time=0.5 "$@")
  build_hint="cmake --build build -j --target bench_micro_sim"
fi
if [ ! -x "$binary" ]; then
  echo "error: $binary not built ($build_hint)" >&2
  exit 1
fi

# bench_micro_sim must run from its build directory; gmon.out lands there.
cd "$build"
case "$tool" in
  perf)
    perf record -g --output=perf.data -- "$binary" "${args[@]}"
    perf report --stdio --percent-limit 0.5 --input=perf.data > perf.txt
    echo
    echo "=== hottest symbols (perf report --stdio, top 40 lines) ==="
    head -40 perf.txt
    echo
    echo "full report: perf report --input=$build/perf.data"
    ;;
  gprof)
    rm -f gmon.out
    "$binary" "${args[@]}"
    gprof -b -p "$binary" gmon.out > gprof.txt
    echo
    echo "=== flat profile (gprof -b -p, top 40 lines) ==="
    head -40 gprof.txt
    echo
    echo "full report: (cd $build && gprof $binary gmon.out)"
    ;;
  none)
    echo "neither perf nor gprof found; running the target un-profiled" >&2
    echo "so the numbers are still comparable:" >&2
    exec "$binary" "${args[@]}"
    ;;
esac
