"""Benchmark of nlocality: one workload, one seed, untraced or traced.

    python3 bench/run.py --workload violation --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports nlocality from
`src/`.  It builds the workload's inputs from the seed, then repeats rounds
of the workload's operations (each round the same operations on the same
inputs) while another round still fits in --seconds, and checks every
output.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mib).  With --trace 1 the first half of the time runs untraced
rounds, the second half traced rounds, and the metrics are per-layer ones
taken from the traced rounds; see README.md.  Exit code 2 means the
benchmark could not start (no program to measure, bad arguments).
"""

import os
import sys
import time

# the workload runs in this one process with no extra threads: BLAS and
# OpenMP pools are sized before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

FILE_START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# metric names and units, as BENCHMARK.json at the root declares them
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# per-function inclusive times reported under network.<name>_s
NETWORK_FUNCTIONS = ("trilocal_transfers", "nlocal_transfers", "behavior",
                     "nlocal_behavior", "swapped_state")


def process_age():
    """Seconds since this process was started, as the kernel records it.

    Falls back to the time since this file began executing where
    /proc/self/stat or CLOCK_BOOTTIME is not available.
    """
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # field 22 of stat, counted from the state field (field 3)
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - FILE_START


def machine_info():
    """Cores, interpreter, numpy, scipy and BLAS of this run."""
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


class Round:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.wall = 0.0        # seconds inside the operations
        self.attempted = 0
        self.failed = 0        # operations the program refused or aborted
        self.wrong = 0         # operations whose output failed a check
        self.evaluations = 0   # objective evaluations the outputs report


def run_round(ops):
    result = Round()
    for op in ops:
        result.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # noqa: BLE001 - a failed operation is counted
            result.wall += time.perf_counter() - start
            result.failed += 1
            log("operation failed: %s\n%s" % (op.name, traceback.format_exc()))
            continue
        seconds = time.perf_counter() - start
        result.wall += seconds
        try:
            evaluations = op.check(out)
        except Exception:  # noqa: BLE001 - a wrong output is reported
            result.wrong += 1
            log("check failed: %s\n%s" % (op.name, traceback.format_exc()))
            continue
        result.evaluations += evaluations
        log("%-28s %9.4f s %8d evaluations" % (op.name, seconds, evaluations))
    return result


def run_rounds(ops, budget, on_round=None):
    """At least one round, then more while another one fits in budget."""
    rounds, lengths = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        rounds.append(run_round(ops))
        lengths.append(time.perf_counter() - begin)
        if on_round is not None:
            on_round(rounds[-1])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) > budget:
            return rounds


def per_layer_metrics(tracer, begin, end, basin_tol):
    """Per-layer metrics of the traced spans[begin:end] (one round)."""
    self_s, layer_s, by_name = tracer.layer_metrics(begin, end)
    groups = tracer.restart_groups(begin, end)
    restarts = sum(len(values) for _, values in groups)
    nfev = sum(n for _, values in groups for n, _ in values)
    hits = 0
    for _, values in groups:
        best = max(v for _, v in values)
        hits += sum(1 for _, v in values if v >= best - basin_tol)
    threshold_calls = {i for i in range(begin, end)
                       if tracer.spans[i][0] == "optimize.visibility_threshold"}
    threshold_points = sum(1 for parent, _ in groups
                           if parent in threshold_calls)
    minimize_s = by_name.get("optimize.minimize", (0, 0.0))[1]
    metrics = {
        "cli.self_s": self_s["cli"],
        "optimize.self_s": self_s["optimize"],
        "optimize.evaluations": nfev,
        "optimize.us_per_eval": 1e6 * minimize_s / nfev if nfev else 0.0,
        "optimize.restarts": restarts,
        "optimize.evals_per_restart": nfev / restarts if restarts else 0.0,
        "optimize.basin_hit_rate": hits / restarts if restarts else 0.0,
        "optimize.threshold_points": (threshold_points / len(threshold_calls)
                                      if threshold_calls else 0.0),
        "network.self_s": self_s["network"],
        "network.trilocal_transfers_calls":
            by_name.get("network.trilocal_transfers", (0, 0.0))[0],
        "linalg.s": layer_s["linalg"],
        "states.s": layer_s["states"],
        "measurements.s": layer_s["measurements"],
        "analysis.s": layer_s["analysis"],
        "lhv.s": layer_s["lhv"],
    }
    for name in NETWORK_FUNCTIONS:
        metrics["network.%s_s" % name] = by_name.get("network." + name,
                                                     (0, 0.0))[1]
    return metrics


def traced_rounds(ops, budget, trace_path, info):
    """Traced rounds, their per-layer metrics (mean per round), nfev."""
    import tracing

    tracer = tracing.Tracer()
    marks = [tracer.mark()]
    tracer.install()
    try:
        rounds = run_rounds(ops, budget, lambda _: marks.append(tracer.mark()))
    finally:
        tracer.uninstall()
    per_round = [per_layer_metrics(tracer, begin, end, tracing.BASIN_TOL)
                 for begin, end in zip(marks, marks[1:])]
    metrics = {name: statistics.fmean(m[name] for m in per_round)
               for name in per_round[0]}
    nfev = [m["optimize.evaluations"] for m in per_round]
    tracer.write(trace_path, info)
    return rounds, metrics, nfev


def result_line(correct, rounds, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("violation", "threshold", "engines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nlocality", "__init__.py")):
        log("error: no nlocality sources under %s; run from the root of a "
            "source checkout" % src)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    workdir = os.path.join(OUT_DIR, "%s-seed%d-pid%d" % (args.workload,
                                                         args.seed,
                                                         os.getpid()))
    os.makedirs(workdir)
    try:
        import workloads

        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = process_age()
        info = machine_info()
        log("machine: " + json.dumps(info, sort_keys=True))
        if not args.trace:
            rounds = run_rounds(ops, args.seconds)
            correct = all(r.wrong == 0 for r in rounds)
            metrics = {
                "wall_s": statistics.median(r.wall for r in rounds),
                "setup_s": setup_s,
                # ru_maxrss is in KiB on Linux
                "peak_rss_mib": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(result_line(correct, rounds, metrics, END_TO_END_UNITS))
            return 0
        plain = run_rounds(ops, args.seconds / 2)
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json.gz"
                                  % (args.workload, args.seed))
        traced, metrics, nfev = traced_rounds(ops, args.seconds / 2,
                                              trace_path, info)
        rounds = plain + traced
        correct = all(r.wrong == 0 for r in rounds)
        if args.workload in workloads.EVALUATIONS_REPORTED:
            # every optimizer result reports its evaluations: their sum
            # must be scipy's nfev total, round by round
            reported = [r.evaluations for r in traced]
            if reported != nfev:
                correct = False
                log("reported evaluations %s differ from scipy nfev %s"
                    % (reported, nfev))
        metrics["trace.overhead_s"] = (
            statistics.median(r.wall for r in traced)
            - statistics.median(r.wall for r in plain))
        log("spans written to %s" % trace_path)
        print(result_line(correct, rounds, metrics, PER_LAYER_UNITS))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
