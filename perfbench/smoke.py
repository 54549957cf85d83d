"""Smoke test of the benchmark itself (not of the solver).

    python3 perfbench/smoke.py

Runs every workload cut short (``--quick``) with tracing off and on and
checks the result line: the fixed key set, metric names and units as
``BENCHMARK.json`` declares them, and a passing output gate.  Then checks
in-process that the gate trips when a pinned reference value is perturbed
or a unit runs past its time limit, that a killed worker gives a failed
result line, and that the benchmark refuses to run without the solver's
sources.  Takes about a minute.
"""

import argparse
import copy
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_result_lines(spec):
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = run_bench(["--workload", name, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace),
                              "--quick"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, \
                proc.stdout
            assert isinstance(result["attempted"], int) \
                and result["attempted"] >= 1
            metrics = result["metrics"]
            assert set(metrics) == set(declared[trace]), sorted(metrics)
            for key, m in metrics.items():
                assert NAME_RE.fullmatch(key), key
                assert set(m) == {"value", "unit"}, m
                assert isinstance(m["value"], (int, float)), m
                assert m["unit"] == declared[trace][key], (key, m)
            if trace == 0:
                assert all(m["value"] > 0 for m in metrics.values()), metrics
            print(f"ok  {name} trace={trace}: {result['attempted']} levels")


def check_gate_trips():
    for name in workloads.NAMES:
        problem, base_mesh = workloads.setup(name)
        unit = workloads.run_unit(name, problem, base_mesh, 0, quick=True)
        ref = workloads.load_reference(name)
        _, failures = workloads.check_unit(name, unit, ref, 0, quick=True)
        assert not failures, failures

        bad = copy.deepcopy(ref)
        if name in workloads.DPG:
            bad["levels"][1]["eta"] *= 1 + 10 * workloads.RTOL
            bad["levels"][2]["ndofs"] += 1
            expect = {1, 2}
        else:
            bad["ntriangles"][1] += 1
            expect = {1}
        _, failures = workloads.check_unit(name, unit, bad, 0, quick=True)
        assert set(failures) == expect, failures

        if name == "mesh-refine":
            broken = copy.deepcopy(unit)
            broken["levels"][3]["free_dofs"] += 2
            _, failures = workloads.check_unit(name, broken, ref, 7,
                                               quick=True)
            assert set(failures) == {3}, failures
        print(f"ok  {name}: gate trips on a perturbed reference")


def check_time_limit():
    import worker

    worker.UNIT_LIMIT_S = 0.2
    signal.signal(signal.SIGALRM, worker._on_alarm)
    problem, base_mesh = workloads.setup("zshape-adaptive")
    unit = worker._run_one("zshape-adaptive", problem, base_mesh, 0, True,
                           None)
    assert unit["error"].startswith("UnitTimeout"), unit["error"]
    attempted, failures = workloads.check_unit(
        "zshape-adaptive", unit, workloads.load_reference("zshape-adaptive"),
        0, quick=True)
    assert len(failures) == 1 and attempted == len(unit["levels"]) + 1
    print(f"ok  time limit: unit stopped after {len(unit['levels'])} levels "
          f"and counted as failed")


def check_lost_worker():
    import run

    run.WORKER_LIMIT_S = 0.01
    result, _ = run.run_workload(argparse.Namespace(
        workload="mesh-refine", seed=0, seconds=1.0, trace=0, quick=True))
    assert result == {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}, result
    print("ok  a killed worker gives a failed result without metrics")


def check_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(["--workload", "mesh-refine", "--seed", "0",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/")


def main():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_refuses_without_sources()
    check_result_lines(spec)
    workloads.use_checkout_sources()
    check_gate_trips()
    check_time_limit()
    check_lost_worker()
    print("smoke test passed")


if __name__ == "__main__":
    main()
