"""Run one workload of the dtasnn training benchmark and print its metrics.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the engine is imported from that
checkout's ``src``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run and writes its spans to
``perfbench/out/``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when every correctness gate passed, 1 when one failed, and 2 when the
engine's sources are missing or the arguments are wrong.
"""

import os
import sys
import time

# CLOCK_MONOTONIC is system-wide on Linux, so the start survives the re-exec
PROCESS_START = float(os.environ.get("PERFBENCH_PROCESS_START", time.monotonic()))

# The string hash seed changes when the cyclic GC frees the dead step records:
# with a random seed, peak RSS of one workload and seed moved between 3.9 and
# 4.8 GB from run to run. Re-exec once with a fixed seed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PERFBENCH_PROCESS_START"] = repr(PROCESS_START)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import argparse  # noqa: E402
import json  # noqa: E402

# one BLAS thread, pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine():
    """Import the benchmark against this checkout's engine, or return None."""
    if not os.path.isfile(os.path.join(SRC, "dtasnn", "__init__.py")):
        return None
    sys.path[:0] = [SRC, HERE]
    import dtasnn
    if os.path.dirname(os.path.dirname(os.path.abspath(dtasnn.__file__))) != SRC:
        return None
    import bench
    return bench


def report(values: dict, units: dict, outcome, facts: dict) -> dict:
    """Print the human-readable table; return the metrics object."""
    print("machine " + json.dumps(facts, sort_keys=True))
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<34} {shown:>14} {unit}")
        metrics[name] = {"value": 0.0 if value is None else float(value), "unit": unit}
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{'failure_ratio':<34} {ratio:>14.6g} of {outcome.attempted} operations")
    for message in outcome.errors:
        print("FAILED: " + message, file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = import_engine()
    if bench is None:
        print(f"error: no dtasnn sources under {SRC}", file=sys.stderr)
        return 2
    imports_s = time.monotonic() - PROCESS_START
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    w = bench.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    ckpt = os.path.join(OUT, f"checkpoint-{os.getpid()}.dtasnn")
    outcome = bench.Outcome()
    try:
        inputs, setup_s = bench.setup(w, args.seed, outcome)
        if args.trace:
            values, tracer = bench.run_traced(w, args.seed, args.seconds, inputs, ckpt,
                                             outcome)
            units = bench.layer_metric_units()
            tracer.write(os.path.join(OUT, f"spans-{w.name}-seed{args.seed}.jsonl"))
        else:
            values = bench.run_untraced(w, args.seed, args.seconds, inputs, ckpt, outcome)
            values["setup_s"] = imports_s + setup_s
            units = bench.end_to_end_units()
    finally:
        if os.path.exists(ckpt):
            os.remove(ckpt)
    # only a layer the workload never runs may be n/a; a hook that stopped firing fails
    may_be_absent = bench.not_run(w) if args.trace else set()
    absent = [n for n in units if values.get(n) is None and n not in may_be_absent]
    outcome.gate(not absent, f"no value for {absent}")
    metrics = report(values, units, outcome, bench.machine_facts())
    correct = not outcome.errors
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
