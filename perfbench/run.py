#!/usr/bin/env python3
"""End-to-end benchmark of the BRISA simulator.

Builds perfbench_driver (perfbench/CMakeLists.txt, from the repository's
src/ tree) into .bench_build/perfbench, then runs one named workload for a
fixed measuring time, one fresh driver process per iteration, and prints the
metrics. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload upkeep_10k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --split-check

--trace 0 reports the end-to-end metrics: host times are medians over the
iterations, simulated metrics pool the run's SEEDS_PER_RUN simulation seeds
(see run_seeds). --trace 1 interleaves traced and untraced iterations of the
given seed, writes the
span files to .bench_build/perfbench/spans/ and reports the per-layer metrics
plus trace.overhead_ratio. --split-check builds and runs the benchmark's own
split-stabilisation test. See perfbench/README.md for the workloads and the
metric definitions.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
# Every iteration is a fresh process, so peak RSS and set-up time are never
# inherited. An untraced run cycles through its SEEDS_PER_RUN simulation
# seeds; a traced run uses the given seed only. A run keeps starting
# iterations while the next one is predicted to end inside --seconds, and
# never past HARD_LIMIT_S. It makes at least MIN_ITERATIONS untraced
# iterations, so that the first seed runs twice and its digest is compared,
# or MIN_PAIRS traced/untraced pairs.
SEEDS_PER_RUN = 3
SEED_STRIDE = 1_000_003
MIN_ITERATIONS = SEEDS_PER_RUN + 1
MIN_PAIRS = 2
HARD_LIMIT_S = 140.0
ITERATION_TIMEOUT_S = 150.0

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; False when it fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return DRIVER.exists()


def run_seeds(seed):
    """The simulation seeds of a run: the given seed first, then seeds
    SEED_STRIDE apart. Pooling the simulated metrics over them averages out
    the seed-to-seed variation of churn_dag_2k's losses."""
    return [(seed + j * SEED_STRIDE) % 2**64 for j in range(SEEDS_PER_RUN)]


def run_driver(workload, seed, span_file=None):
    """One iteration in a fresh process: (result dict, wall seconds)."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if span_file is not None:
        cmd += ["--trace", str(span_file)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ITERATION_TIMEOUT_S, check=False)
    wall = time.monotonic() - start
    if done.returncode != 0:
        raise RuntimeError(f"driver exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), wall


def iterate(workload, seed, seconds, traced):
    """Runs iterations for the measuring time; returns (untraced, traced)
    lists of (result, wall) pairs. Untraced runs cycle through run_seeds.
    Traced runs alternate the order inside each traced/untraced pair of the
    given seed, so a drift of the host's speed during the run weighs on both
    sides alike."""
    sim_seeds = run_seeds(seed)
    untraced, traced_runs = [], []
    unit_times = []
    begin = time.monotonic()
    spans = BUILD / "spans"
    if traced:
        spans.mkdir(parents=True, exist_ok=True)
    while True:
        unit_start = time.monotonic()
        if traced:
            span_file = spans / f"{workload}-seed{seed}-{len(traced_runs)}.json"
            if len(traced_runs) % 2 == 0:
                traced_runs.append(run_driver(workload, seed, span_file))
                untraced.append(run_driver(workload, seed))
            else:
                untraced.append(run_driver(workload, seed))
                traced_runs.append(run_driver(workload, seed, span_file))
        else:
            sim_seed = sim_seeds[len(untraced) % len(sim_seeds)]
            untraced.append(run_driver(workload, sim_seed))
        unit_times.append(time.monotonic() - unit_start)
        elapsed = time.monotonic() - begin
        predicted = elapsed + statistics.median(unit_times)
        min_units = MIN_PAIRS if traced else MIN_ITERATIONS
        if len(unit_times) >= min_units and (predicted > seconds or
                                             predicted > HARD_LIMIT_S):
            return untraced, traced_runs


def verify(runs):
    """Output checks over every iteration: each run's own checks, and the
    same simulated digest in every iteration of a seed (determinism)."""
    verdicts = {}
    digests = {}
    for result, _ in runs:
        for name, ok in result["checks"].items():
            verdicts[name] = verdicts.get(name, True) and bool(ok)
        digests.setdefault(result["seed"], set()).add(result["digest"])
    verdicts["deterministic"] = all(len(d) == 1 for d in digests.values())
    return verdicts


def first_per_seed(runs):
    """The first result of each simulation seed, in run order."""
    firsts = {}
    for result, _ in runs:
        firsts.setdefault(result["seed"], result)
    return list(firsts.values())


def median_of(runs, key):
    return statistics.median(result[key] for result, _ in runs)


def end_to_end(untraced):
    """Host times are medians over the iterations. The simulated metrics
    pool the run's seeds: delivered_ratio over their summed deliveries, the
    others as the median over the seeds, which one seed's outlying delay
    tail does not move."""
    sims = first_per_seed(untraced)

    def seed_median(key):
        return statistics.median(result[key] for result in sims)

    missing = sum(result["missing"] for result in sims)
    expected = sum(result["expected"] for result in sims)
    return {
        "setup_s": median_of(untraced, "setup_s"),
        "run_s": median_of(untraced, "run_s"),
        "cpu_s": median_of(untraced, "cpu_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        "delivered_ratio": 1.0 - missing / expected,
        "delay_p50_ms": seed_median("delay_p50_ms"),
        "delay_p999_ms": seed_median("delay_p999_ms"),
        "msgs_per_delivery": seed_median("msgs_per_delivery"),
    }


def per_layer(untraced, traced_runs):
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        metrics[name] = statistics.median(
            result["layers"][name] for result, _ in traced_runs)
    # Pair i is traced_runs[i] with untraced[i], run back to back.
    metrics["trace.overhead_ratio"] = statistics.median(
        t_wall / u_wall
        for (_, t_wall), (_, u_wall) in zip(traced_runs, untraced))
    return metrics


def print_summary(workload, seed, untraced, verdicts):
    sims = first_per_seed(untraced)
    e2e = end_to_end(untraced)
    print(f"workload {workload}  seed {seed}  iterations {len(untraced)}")
    for result in sims:
        print(f"  seed {result['seed']}: digest {result['digest']}  "
              f"undelivered {result['missing']} of {result['expected']}  "
              f"delay samples {result['delay_samples']}")
        print(f"    simulated: {result['digest_text']}")
    for name in ("setup_s", "run_s", "cpu_s", "peak_rss_mb"):
        values = ", ".join(f"{result[name]:.4f}" for result, _ in untraced)
        print(f"  {name:<18} {e2e[name]:12.4f} {END_TO_END[name]:<5} "
              f"(median of {values})")
    missing = sum(result["missing"] for result in sims)
    expected = sum(result["expected"] for result in sims)
    print(f"  {'undelivered_ratio':<18} {missing / expected:12.6f} "
          f"ratio ({missing} of {expected} expected deliveries missing, "
          f"{len(sims)} seeds)")
    print(f"  {'delivered_ratio':<18} {e2e['delivered_ratio']:12.6f} ratio")
    samples = "+".join(str(result["delay_samples"]) for result in sims)
    for name in ("delay_p50_ms", "delay_p999_ms"):
        print(f"  {name:<18} {e2e[name]:12.4f} ms    "
              f"(median over seeds; {samples} samples)")
    print(f"  {'msgs_per_delivery':<18} {e2e['msgs_per_delivery']:12.4f} "
          f"ratio (median over seeds)")
    checks = "  ".join(f"{name}={'pass' if ok else 'FAIL'}"
                       for name, ok in sorted(verdicts.items()))
    print(f"  checks: {checks}")


def split_check():
    if not build():
        return 1
    done = subprocess.run(["ctest", "--test-dir", str(BUILD),
                           "--output-on-failure"], check=False)
    return done.returncode


def main():
    # A terminated run raises SystemExit inside subprocess.run, which kills
    # and reaps the driver process before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--split-check", action="store_true")
    args = parser.parse_args()
    if args.split_check:
        return split_check()
    if args.workload is None or args.seed is None or args.seed < 0 or \
            args.seconds < 1:
        parser.error("--workload, a non-negative --seed and --seconds >= 1 "
                     "are required")
    if not build():
        return 1

    untraced, traced_runs = iterate(args.workload, args.seed, args.seconds,
                                    args.trace == 1)
    verdicts = verify(untraced + traced_runs)
    print_summary(args.workload, args.seed, untraced, verdicts)
    if args.trace:
        values = per_layer(untraced, traced_runs)
        units = PER_LAYER
        print(f"  spans: {BUILD / 'spans'}  "
              f"({len(traced_runs)} traced/untraced pairs)")
        for name, value in values.items():
            print(f"  {name:<34} {value:16.6f} {units[name]}")
    else:
        values = end_to_end(untraced)
        units = END_TO_END
    if values.keys() != units.keys():
        log(f"metrics {sorted(values)} differ from BENCHMARK.json")
        return 1
    attempted = sum(result["expected"] for result, _ in untraced)
    failed = sum(result["wrong"] for result, _ in untraced)
    print(json.dumps({
        "correct": all(verdicts.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
