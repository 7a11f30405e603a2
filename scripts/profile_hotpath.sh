#!/usr/bin/env bash
# Profile the simulator hot path: with perf when it is installed, otherwise
# with a SIGPROF frame-pointer stack sampler (callers attributed), otherwise
# with gprof through a statically linked BRISA_GPROF build, otherwise as a
# plain timed run — whichever the host has first.
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
# end-to-end brisa_run of scenarios/scale_sweep.scn, whose default cell is
# the 10k-node faulted BRISA broadcast (13.9M events; the cell perfbench's
# upkeep_10k workload reproduces).
#
# perf: records into perf.data and prints the top symbols; it profiles the
# binaries in build/ (cmake --build build -j).
# sampler: configures and builds build-fp/ (Release with
# -fno-omit-frame-pointer; the first build takes a few minutes), compiles
# scripts/stack_sampler.cpp into build-fp/stack_sampler.so, runs the target
# with it preloaded, and prints scripts/stack_report.py's flat profile plus
# the callers of the hottest functions — including libc routines such as
# memmove, named from the entry points the sampler resolves. Raw samples
# stay in build-fp/samples.<pid>.
# gprof: configures and builds build-gprof/ (Release, -DBRISA_GPROF=ON; the
# first build takes a few minutes), runs the target there, and prints the
# flat profile's top lines; the full report is `gprof BINARY gmon.out` in
# that directory. The brisa_run cell is linked statically, so libc time is
# counted, but libc is not compiled with -pg: its routines (memmove,
# malloc) appear in the flat profile without callers. bench_micro_sim
# links Google Benchmark dynamically and leaves libc/libm time out.
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

have() { command -v "$1" > /dev/null 2>&1; }
if have perf; then
  tool=perf
elif [ "$(uname -m)" = x86_64 ] && have c++ && have nm && have python3; then
  tool=sampler
elif have gprof; then
  tool=gprof
else
  tool=none
fi

target=$([ $cell -eq 1 ] && echo brisa_run || echo bench_micro_sim)
case "$tool" in
  gprof)
    build="$repo/build-gprof"
    config=(-DBRISA_GPROF=ON)
    ;;
  sampler)
    build="$repo/build-fp"
    config=(-DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer)
    ;;
  *)
    build="$repo/build"
    ;;
esac
if [ "$tool" = gprof ] || [ "$tool" = sampler ]; then
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      "${config[@]}" -DBUILD_TESTING=OFF > /dev/null
  fi
  cmake --build "$build" -j "$(nproc)" --target "$target" > /dev/null
fi
if [ "$tool" = sampler ]; then
  sampler_src="$repo/scripts/stack_sampler.cpp"
  if [ ! "$build/stack_sampler.so" -nt "$sampler_src" ]; then
    c++ -O2 -shared -fPIC -o "$build/stack_sampler.so" "$sampler_src"
  fi
fi

if [ $cell -eq 1 ]; then
  binary="$build/brisa_run"
  args=("$repo/scenarios/scale_sweep.scn")
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
  sampler)
    rm -f samples.*
    BRISA_SAMPLE_OUT="$build/samples" LD_PRELOAD="$build/stack_sampler.so" \
      "$binary" "${args[@]}"
    samples=$(ls -S samples.* | grep -v '\.maps$\|\.syms$' | head -1)
    echo
    echo "=== stack samples (scripts/stack_report.py) ==="
    python3 "$repo/scripts/stack_report.py" "$build/$samples"
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
    echo "no profiler available; running the target un-profiled" >&2
    echo "so the numbers are still comparable:" >&2
    exec "$binary" "${args[@]}"
    ;;
esac
