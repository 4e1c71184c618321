"""Benchmark entry point.

    python3 perfbench/run.py --workload lastfm-train --seed 1 --seconds 10 --trace 0

Runs one workload (or `all`, each in its own process) from the root of a
source checkout, checks its outputs and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The environment, the counts the generators produced, the check results
and (traced) every span are written to .perfbench_out/ in the checkout.
"""

import os

# One BLAS thread: the benchmark stays within one core of the machine and
# timings do not depend on how many cores other processes leave free.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
    }


def run_one(args, workloads):
    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), work_dir)
    end_to_end = {}
    try:
        end_to_end = workloads.WORKLOADS[args.workload](run)
        end_to_end["peak_rss_mb"] = workloads.peak_rss_mb()
    except Exception:  # a crash is a failed run, reported like a failed check
        traceback.print_exc()
        run.attempted += 1
        run.failed += 1
        run.failures.append("workload raised")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in workloads.layer_metrics(run).items()
                   if value is not None}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in workloads.END_TO_END_UNITS.items() if name in end_to_end}
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "generated": run.counts,
        "samples": run.samples, "tracing_overhead_pct": run.overhead_pct,
        "failures": run.failures, "result": result,
    }
    if run.tracer is not None:
        record["spans"] = run.tracer.as_records()
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f)
    print(json.dumps({k: record[k] for k in ("environment", "generated", "samples", "failures")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, names):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(name, json.dumps(result))
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "kgcn" / "__init__.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"perfbench: no kgcn sources under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
