"""Benchmark of the SOLVE -> ESTIMATE -> MARK -> REFINE loop.

    python3 perfbench/run.py --workload square-uniform --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Runs each workload in fresh processes against the ``platedpg`` sources of
this checkout (``src/``), checks the outputs against pinned reference
values, prints every metric by name and unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up is timed in at least this many fresh processes per run
SETUP_SAMPLES = 5
# a worker (a set-up-only process) still running this long after its
# start is killed, so that a run ends within three minutes whatever the
# library does
WORKER_LIMIT_S = 120.0
SETUP_LIMIT_S = 20.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "final_level_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "dpg.kernels_s": "s", "dpg.kernels_us_per_elem": "us",
    "dpg.elements": "count", "dpg.assemble_s": "s", "dpg.nnz": "count",
    "linalg.solve_s": "s", "linalg.lu_fill": "count",
    "linalg.cg_iters": "count", "linalg.rel_residual_max": "ratio",
    "dpg.estimate_s": "s", "dpg.eta_max_over_mean": "ratio",
    "dpg.gram_cond_max": "ratio", "problems.l2_s": "s",
    "mesh.refine_s": "s", "mesh.bisections": "count",
    "mesh.marked_ratio": "ratio", "spaces.dofmap_s": "s",
    "spaces.free_dofs": "count", "spaces.full_dofs": "count",
    "driver.mark_s": "s", "driver.marked": "count", "driver.other_s": "s",
    "trace_overhead_frac": "ratio",
}


def child_env():
    """Single-threaded BLAS in every worker."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(args, limit):
    """Run ``worker.py`` in a fresh process, killed after ``limit``
    seconds; returns its JSON result, or None if it failed or timed out.
    The worker times its own set-up from the launch stamp passed here."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--started",
           repr(time.monotonic())] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=limit)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    """Measure one workload; returns (result line, full record).

    Units run one per fresh worker process, untraced and traced in turn
    with ``--trace 1``, while the next one is expected to end within
    ``--seconds``.  Much of the run-to-run variation is per process, so
    several processes per run steady the medians.
    """
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        base.append("--quick")
    min_units = 2 if args.trace else 1
    setups, units, lost = [], [], 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(units) % 2 == 1
        unit = run_worker(base + ["--trace", str(int(traced))],
                          WORKER_LIMIT_S)
        if unit is None:
            lost += 1
            break
        unit["traced"] = traced
        units.append(unit)
        setups.append(unit["setup_s"])
        elapsed = time.perf_counter() - start
        expected = statistics.median(u["wall_s"] for u in units)
        if len(units) >= min_units and elapsed + expected > args.seconds:
            break
    for _ in range(SETUP_SAMPLES - len(setups)):
        sample = run_worker(base + ["--setup-only"], SETUP_LIMIT_S)
        if sample is not None:
            setups.append(sample["setup_s"])

    attempted = sum(u["attempted"] for u in units) + lost
    failed = sum(len(u["failures"]) for u in units) + lost
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    if not plain or (args.trace and not traced):
        # a lost worker: a failed result without metrics
        result = {"correct": False, "attempted": attempted,
                  "failed": failed, "metrics": {}}
        return result, detail_of(args, units, setups, result)

    ok = [u for u in plain if not u["failures"]] or plain
    if args.trace:
        metrics = {key: statistics.median(u["layers"][key] for u in traced)
                   for key in PER_LAYER if key != "trace_overhead_frac"}
        metrics["trace_overhead_frac"] = (
            statistics.median(u["wall_s"] for u in traced)
            / statistics.median(u["wall_s"] for u in plain) - 1.0)
        units_of = PER_LAYER
        write_spans(args, units)
    else:
        metrics = {
            "wall_s": statistics.median(u["wall_s"] for u in ok),
            "final_level_s": statistics.median(
                u["level_s"][-1] if u["level_s"] else u["wall_s"] for u in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in ok),
        }
        units_of = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units_of[k]}
                          for k, v in metrics.items()}}
    return result, detail_of(args, units, setups, result)


def detail_of(args, units, setups, result):
    """The full record of a run, for the summary and ``--out``."""
    for u in units:
        u.pop("spans", None)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "quick": args.quick, "env": environment(args.seed),
            "setup_samples_s": setups, "units": units,
            "failed_frac": result["failed"] / result["attempted"],
            "result": result}


def write_spans(args, units):
    """All spans of the run's traced units, one JSON object per line."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as handle:
        for i, u in enumerate(units):
            for level, depth, name, t0, t1, counts in u.get("spans", ()):
                handle.write(json.dumps(dict(
                    unit=i, level=level, depth=depth, name=name, start=t0,
                    end=t1, counts=counts)) + "\n")


def environment(seed):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    env = child_env()
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: env[var] for var in THREAD_VARS},
            "machine": platform.machine(), "commit": commit, "seed": seed}


def print_summary(detail):
    result = detail["result"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} "
          f"seconds={detail['seconds']} trace={detail['trace']}")
    print("env " + json.dumps(detail["env"]))
    for name, m in result["metrics"].items():
        print(f"  {name:26s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':26s} {detail['failed_frac']:14.6g} "
          f"({result['failed']} of {result['attempted']} levels)")
    for i, u in enumerate(detail["units"]):
        for level, why in u["failures"].items():
            print(f"  FAILED unit {i} level {level}: {why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results (JSON)")
    parser.add_argument("--quick", action="store_true",
                        help="cut each unit short (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "platedpg" / "__init__.py").is_file():
        print(f"perfbench: no platedpg sources in {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    details = []
    for name in names:
        result, detail = run_workload(argparse.Namespace(
            **{**vars(args), "workload": name}))
        print_summary(detail)
        details.append(detail)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(details, handle, indent=1)
    if args.workload == "all":
        print(json.dumps({d["workload"]: d["result"] for d in details}))
    else:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
