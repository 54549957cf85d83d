"""The benchmark's workloads: set-up, one unit of work, and the output gate.

A unit is one whole experiment.  For the DPG workloads that is one
``run_experiment`` call, the CLI path minus argument parsing; for
``mesh-refine`` it is one sequence of random refine rounds.  A unit
reports its wall time, the wall time of each level (or round) and the
values the gate compares against the pinned reference.
"""

import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NAMES = ("square-uniform", "zshape-adaptive", "mesh-refine")

# ExperimentConfig of each DPG workload, full size and cut short (smoke).
DPG = {
    # the CLI default: plate-dpg run --problem square --mode uniform
    "square-uniform": (dict(problem="square", mode="uniform", max_levels=6),
                       dict(problem="square", mode="uniform", max_levels=4)),
    # adaptive Z-shape stopped at the size the acceptance suite uses, so
    # that a unit fits the run's time budget
    "zshape-adaptive": (dict(problem="zshape", mode="adaptive", theta=0.5,
                             max_dofs=20_000),
                        dict(problem="zshape", mode="adaptive", theta=0.5,
                             max_dofs=2_000)),
}

# mesh-refine: the Z-shape initial mesh refined uniformly BASE_UNIFORM times
# during set-up, then ROUNDS rounds that each mark a random MARK_FRACTION of
# the triangles and run NVB with closure, the clamped boundary conditions
# and the DOF map.  Starting from 1,280 triangles rather than five keeps
# the final mesh size, and so the work, within about 1 % across seeds:
# seeds change the closure chains, not the amount of work.
BASE_UNIFORM = 4
MARK_FRACTION = 0.2
ROUNDS = (9, 4)         # full size (about 47k triangles), cut short

# Relative tolerance on eta, err_u and err_M against the pinned values.
# They repeat bit for bit with one BLAS kernel, but the finest Z-shape
# levels go through element Gram matrices with condition numbers near
# 1e15: forcing another OpenBLAS kernel (Sandybridge, Prescott) moves eta
# there by 2e-5 to 5e-5 relative.  The tolerance leaves room for that,
# not for a changed method.
RTOL = 1e-4
# Acceptance windows, recomputed on every unit.
SQUARE_EOC_WINDOW = (0.40, 0.60)
ZSHAPE_MIN_SLOPE = 0.45


class UnitTimeout(Exception):
    """The unit ran past its time limit."""


def use_checkout_sources():
    """Import ``platedpg`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "platedpg" / "__init__.py").is_file():
        raise ImportError(f"no platedpg sources under {src}")
    sys.path.insert(0, str(src))
    import platedpg
    if Path(platedpg.__file__).resolve().parent != (src / "platedpg").resolve():
        raise ImportError(f"platedpg imported from {platedpg.__file__}, "
                          f"not from {src}")
    return platedpg


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json") as handle:
        return json.load(handle)


def setup(name):
    """What a user pays before the first level: the problem with its
    initial mesh, and for mesh-refine the uniformly refined base mesh."""
    from platedpg.mesh import uniform_refine
    from platedpg.problems import builtin_problem

    if name in DPG:
        return builtin_problem(DPG[name][0]["problem"]), None
    problem = builtin_problem("zshape")
    mesh = problem.initial_mesh
    for _ in range(BASE_UNIFORM):
        mesh = uniform_refine(mesh)
    return problem, mesh


def run_unit(name, problem, base_mesh, seed, quick=False, tracer=None):
    if name in DPG:
        return _run_dpg(DPG[name][1 if quick else 0], problem, tracer)
    return _run_mesh_refine(problem, base_mesh, seed,
                            ROUNDS[1 if quick else 0], tracer)


def _typed_errors():
    from platedpg.errors import (ConfigurationError, MeshStructureError,
                                 SolverConvergenceError, SPDError)
    return (SolverConvergenceError, SPDError, MeshStructureError,
            ConfigurationError, UnitTimeout)


# ---------------------------------------------------------------------------
# DPG workloads
# ---------------------------------------------------------------------------

class _LevelClock(logging.Handler):
    """Timestamps the INFO record ``platedpg.driver`` logs at the end of
    each level; the record's arguments carry that level's values."""

    def __init__(self, tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer
        self.stamps = []
        self.args = []

    def emit(self, record):
        self.stamps.append(time.perf_counter())
        self.args.append(record.args)
        if self.tracer is not None:
            self.tracer.end_level("driver.level")


def _run_dpg(spec, problem, tracer):
    from platedpg.driver import ExperimentConfig, run_experiment

    config = ExperimentConfig(**spec)
    logger = logging.getLogger("platedpg.driver")
    clock = _LevelClock(tracer)
    old_level = logger.level
    logger.setLevel(logging.INFO)
    logger.addHandler(clock)
    records, error = None, None
    start = time.perf_counter()
    try:
        records = run_experiment(config, problem=problem)
    except _typed_errors() as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        end = time.perf_counter()
        logger.removeHandler(clock)
        logger.setLevel(old_level)
    if records is not None:
        levels = [dict(ntriangles=r.ntriangles, ndofs=r.ndofs, eta=r.eta,
                       err_u=r.err_u, err_M=r.err_M, eoc_eta=r.eoc_eta,
                       eoc_u=r.eoc_u, eoc_M=r.eoc_M) for r in records]
    else:
        levels = [dict(ntriangles=a[1], ndofs=a[2], eta=a[3], err_u=a[4],
                       err_M=a[5]) for a in clock.args]
    return dict(wall_s=end - start,
                level_s=np.diff([start] + clock.stamps).tolist(),
                levels=levels, error=error)


def _check_dpg(name, unit, reference, quick):
    pinned = reference["levels"]
    failures = {}
    levels = unit["levels"]
    for i, got in enumerate(levels):
        if i >= len(pinned):
            failures[i] = "level beyond the reference"
            continue
        ref = pinned[i]
        for key in ("ntriangles", "ndofs"):
            if got[key] != ref[key]:
                failures.setdefault(i, f"{key} {got[key]} != {ref[key]}")
        for key in ("eta", "err_u", "err_M"):
            if not math.isclose(got[key], ref[key], rel_tol=RTOL):
                failures.setdefault(i, f"{key} {got[key]!r} != {ref[key]!r}")
    if unit["error"] is None and not quick:
        last = len(levels) - 1
        if len(levels) != len(pinned):
            failures[last] = f"{len(levels)} levels, reference has {len(pinned)}"
        elif name == "square-uniform":
            lo, hi = SQUARE_EOC_WINDOW
            rates = [r[f"eoc_{q}"] for r in levels[-3:]
                     for q in ("eta", "u", "M")]
            if not all(lo <= v <= hi for v in rates):
                failures[last] = f"last-three EOCs {rates} outside [{lo}, {hi}]"
        else:
            half = levels[len(levels) // 2:]
            logn = np.log([r["ndofs"] for r in half])
            for q in ("eta", "err_M"):
                slope = -np.polyfit(logn, np.log([r[q] for r in half]), 1)[0]
                if slope < ZSHAPE_MIN_SLOPE:
                    failures[last] = (f"second-half slope of {q} {slope:.3f}"
                                      f" < {ZSHAPE_MIN_SLOPE}")
    return failures


# ---------------------------------------------------------------------------
# mesh-refine
# ---------------------------------------------------------------------------

def _run_mesh_refine(problem, base_mesh, seed, rounds, tracer):
    from platedpg import mesh as mesh_module
    from platedpg import spaces

    rng = np.random.default_rng(seed)
    mesh = base_mesh
    area = float(base_mesh.tri_area.sum())
    out, times, error = [], [], None
    try:
        for _ in range(rounds):
            if tracer is not None:
                tracer.begin_level()
            t0 = time.perf_counter()
            n = mesh.num_triangles
            marked = rng.choice(n, size=max(1, round(MARK_FRACTION * n)),
                                replace=False)
            mesh = mesh_module.nvb_refine(mesh, marked)
            dofmap = spaces.build_dofmap(mesh, problem.bc_builder(mesh))
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_level("bench.round")
            out.append(dict(
                ntriangles=mesh.num_triangles, free_dofs=dofmap.free_dim,
                formula=(7 * mesh.num_triangles
                         + 2 * mesh.num_interior_vertices
                         + 2 * mesh.num_edges),
                area_error=abs(float(mesh.tri_area.sum()) - area) / area))
    except _typed_errors() as exc:
        error = f"{type(exc).__name__}: {exc}"
    return dict(wall_s=sum(times), level_s=times, levels=out, error=error,
                rounds=rounds)


def _check_mesh_refine(unit, reference, seed):
    failures = {}
    pinned = reference["ntriangles"] if seed == reference["seed"] else None
    for i, got in enumerate(unit["levels"]):
        if got["free_dofs"] != got["formula"]:
            failures.setdefault(i, f"free DOFs {got['free_dofs']} != "
                                   f"7T + 2Vi + 2E = {got['formula']}")
        if got["area_error"] > 1e-12:
            failures.setdefault(i, f"area changed by {got['area_error']:.2e}")
        if pinned is not None and got["ntriangles"] != pinned[i]:
            failures.setdefault(i, f"#T {got['ntriangles']} != {pinned[i]}")
    if unit["error"] is None and len(unit["levels"]) != unit["rounds"]:
        failures[len(unit["levels"]) - 1] = "too few rounds"
    return failures


def check_unit(name, unit, reference, seed, quick=False):
    """Compare a unit's outputs with the pinned reference.

    Returns ``(attempted, failures)``: the number of levels (or rounds)
    attempted and a map from failed level to the first mismatch found.  A
    typed error or a timeout fails the level it interrupted.
    """
    if name in DPG:
        failures = _check_dpg(name, unit, reference, quick)
    else:
        failures = _check_mesh_refine(unit, reference, seed)
    attempted = len(unit["levels"])
    if unit["error"] is not None:
        failures[attempted] = unit["error"]
        attempted += 1
    return attempted, failures
