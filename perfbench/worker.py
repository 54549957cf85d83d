"""One unit of one workload in a fresh process; started by ``run.py``.

Prints one JSON line, the unit's result.  ``setup_s`` in it is the time
from ``--started`` (the launcher's ``time.monotonic()`` just before it
started this process) to the problem being set up; with ``--setup-only``
the process prints only that and exits.  With ``--trace 1`` the unit runs
with the library's layers wrapped, and the result carries the unit's spans
and per-layer numbers.
"""

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time

import workloads
from tracing import Tracer, gram_cond_max, layer_metrics, lu_fill
from workloads import UnitTimeout

# A unit that runs this long is stopped and counted as failed.  Every unit
# takes under 30 s on two x86-64 cores; the known hang of the solver's CG
# fallback above ~50k DOFs would otherwise run for tens of minutes.
UNIT_LIMIT_S = 100


def _on_alarm(signum, frame):
    raise UnitTimeout(f"unit exceeded {UNIT_LIMIT_S} s")


def _run_one(name, problem, base_mesh, seed, quick, tracer):
    """One unit under the time limit; a timeout outside the library's
    own error handling still yields a failed unit."""
    signal.setitimer(signal.ITIMER_REAL, UNIT_LIMIT_S)
    try:
        return workloads.run_unit(name, problem, base_mesh, seed, quick,
                                  tracer)
    except UnitTimeout as exc:
        return dict(wall_s=float(UNIT_LIMIT_S), level_s=[], levels=[],
                    error=f"UnitTimeout: {exc}", rounds=0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    name = args.workload
    # one core for the whole unit: no migration between cores mid-unit
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workloads.use_checkout_sources()
    problem, base_mesh = workloads.setup(name)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps(dict(setup_s=setup_s)), flush=True)
        return 0

    reference = workloads.load_reference(name)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None
    gc.collect()
    if tracer is not None:
        tracer.install(problem)
        tracer.start_unit()
    try:
        result = _run_one(name, problem, base_mesh, args.seed, args.quick,
                          tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()
    attempted, failures = workloads.check_unit(name, result, reference,
                                               args.seed, args.quick)
    record = dict(setup_s=setup_s, wall_s=result["wall_s"],
                  level_s=result["level_s"],
                  attempted=attempted,
                  failures={str(k): v for k, v in failures.items()})
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        layers["linalg.lu_fill"] = (lu_fill(tracer.last_matrix)
                                    if tracer.last_matrix is not None else 0)
        layers["dpg.gram_cond_max"] = (gram_cond_max(tracer.last_grams)
                                       if tracer.last_grams is not None
                                       else 0.0)
        record["layers"] = layers
        record["spans"] = tracer.spans
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
