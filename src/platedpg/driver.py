"""Experiment orchestration: the refinement loop, marking, EOC, CSV, CLI."""

import argparse
import csv
from dataclasses import astuple, dataclass, fields, replace
from itertools import count
import logging
from numbers import Integral, Real
import os
import sys
from typing import List, NamedTuple, Optional

import numpy as np

from . import dpg
from .errors import ConfigurationError, SolverConvergenceError, SPDError
from .linalg import SolveReport, spd_solve
from .mesh import Mesh, mesh_to_text, nvb_refine, uniform_refine
from .problems import PROBLEMS, builtin_problem, l2_errors
from .spaces import build_dofmap

logger = logging.getLogger(__name__)

@dataclass
class ExperimentConfig:
    problem: str                       # a key of problems.PROBLEMS
    mode: str                          # "uniform" or "adaptive"
    theta: float = 0.5
    max_levels: Optional[int] = None
    max_dofs: Optional[int] = None
    out: Optional[str] = None
    dump_mesh: Optional[str] = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.mode not in ("uniform", "adaptive"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if isinstance(self.theta, bool) or not isinstance(self.theta, Real):
            raise ConfigurationError(f"theta = {self.theta!r} is not a number")
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(f"theta = {self.theta} outside (0, 1)")
        if self.max_levels is None and self.max_dofs is None:
            if self.mode == "uniform":
                self.max_levels = 6
            else:
                self.max_dofs = 30_000
        if self.max_levels is None:
            self.max_levels = 100
        for name, value in (("max_levels", self.max_levels),
                            ("max_dofs", self.max_dofs)):
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigurationError(
                    f"{name} = {value!r} is not an integer")
            if value <= 0:
                raise ConfigurationError(f"{name} = {value} <= 0")


@dataclass
class ConvergenceRecord:
    level: int
    ntriangles: int
    ndofs: int
    eta: float
    err_u: float
    err_M: float
    eoc_eta: Optional[float] = None
    eoc_u: Optional[float] = None
    eoc_M: Optional[float] = None


def dorfler_mark(etas, theta):
    """Minimal-cardinality bulk marking: the shortest prefix of elements,
    sorted by estimator value descending (ties by id ascending), whose
    squared sum reaches ``theta`` times the squared total."""
    if not 0.0 < theta < 1.0:
        raise ConfigurationError(f"theta = {theta} outside (0, 1)")
    etas = np.asarray(etas, dtype=float)
    if not np.all((0.0 <= etas) & (etas < np.inf)):
        raise ConfigurationError("negative or non-finite estimator values")
    order = np.argsort(-etas, kind="stable")
    # an exact power-of-two scale keeps the squares from under- or
    # overflowing and leaves every comparison below as it was
    etas = np.ldexp(etas, -np.frexp(etas.max(initial=0.0))[1])
    cum = np.cumsum(etas[order] ** 2)
    if cum.size == 0 or cum[-1] == 0.0:
        return set()
    k = int(np.searchsorted(cum, theta * cum[-1]))
    return set(order[:k + 1].tolist())


def eoc(records: List[ConvergenceRecord]):
    """Fill empirical orders of convergence between consecutive records:
    ``log(q_prev / q_cur) / log(N_cur / N_prev)``."""
    out = [replace(records[0])] if records else []
    for prev, cur in zip(records, records[1:]):
        denom = np.log(cur.ndofs / prev.ndofs)

        def rate(a, b):
            if a <= 0.0 or b <= 0.0 or denom <= 0.0:
                return None
            return float(np.log(a / b) / denom)

        out.append(replace(cur,
                           eoc_eta=rate(prev.eta, cur.eta),
                           eoc_u=rate(prev.err_u, cur.err_u),
                           eoc_M=rate(prev.err_M, cur.err_M)))
    return out


def solve_problem(problem, mesh):
    """One SOLVE + ESTIMATE pass on a given mesh.

    Returns (solution, estimator, report, free_dofs).
    """
    dofmap = build_dofmap(mesh, problem.bc_builder(mesh))
    system = dpg.assemble(mesh, dofmap, problem)
    y, report = spd_solve(system.A, system.rhs)
    x_full = dofmap.recover_full(system.scale * y)
    estimator = dpg.estimate(system.systems, x_full)
    return dpg.Solution(dofmap, x_full), estimator, report, dofmap.free_dim


def _cell(field, value):
    return "" if value is None else format(
        value, "d" if field.type is int else ".17g")


def write_records_csv(records, path):
    columns = fields(ConvergenceRecord)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f.name for f in columns])
        writer.writerows([_cell(f, getattr(r, f.name)) for f in columns]
                         for r in records)


class Level(NamedTuple):
    record: ConvergenceRecord          # without EOCs
    mesh: Mesh
    solution: dpg.Solution
    estimator: dpg.EstimatorField
    report: SolveReport


def experiment_levels(config: ExperimentConfig, problem=None):
    """The SOLVE -> ESTIMATE -> MARK -> REFINE loop, one :class:`Level`
    per mesh.  Each level is logged as one INFO record; the next mesh is
    refined only when the next level is asked for.  The loop stops after
    ``config.max_levels`` levels, at ``config.max_dofs`` free DOFs, or
    when adaptive marking marks nothing."""
    problem = problem or builtin_problem(config.problem)
    if problem.exact is None:
        raise ConfigurationError(
            f"problem {problem.name!r} has no exact solution for the errors")
    mesh = problem.initial_mesh
    for level in count():
        solution, estimator, report, ndofs = solve_problem(problem, mesh)
        record = ConvergenceRecord(level, mesh.num_triangles, ndofs,
                                   estimator.total,
                                   *l2_errors(mesh, solution, problem.exact))
        logger.info("level %d: #T=%d N=%d eta=%.3e err_u=%.3e err_M=%.3e",
                    *astuple(record)[:6])
        yield Level(record, mesh, solution, estimator, report)
        if level + 1 >= config.max_levels or (
                config.max_dofs is not None and ndofs >= config.max_dofs):
            return
        if config.mode == "uniform":
            mesh = uniform_refine(mesh)
        else:
            marked = dorfler_mark(estimator.per_element, config.theta)
            if not marked:
                return
            mesh = nvb_refine(mesh, marked)


def run_experiment(config: ExperimentConfig, problem=None):
    """Run :func:`experiment_levels` to its end, write the mesh dumps and
    the CSV (on :class:`SolverConvergenceError` or :class:`SPDError` too,
    with the levels done) and return the records with EOCs.  Outputs
    that cannot be written are refused before the first solve."""
    records: List[ConvergenceRecord] = []

    def dump_path(level):
        return f"{config.dump_mesh}{level:03d}.txt"

    for name, path in (("out", config.out),
                       ("dump_mesh", config.dump_mesh and dump_path(0))):
        if path == "":
            raise ConfigurationError(f"{name} '' names no file")
        folder = os.path.dirname(path or "") or "."
        if path and (os.path.isdir(path) or not os.path.isdir(folder)
                     or not os.access(folder, os.W_OK)):
            raise ConfigurationError(f"{name} {path!r} cannot be written")

    def flush():
        done = eoc(records)
        if config.out:
            write_records_csv(done, config.out)
        return done

    try:
        for level in experiment_levels(config, problem):
            records.append(level.record)
            if config.dump_mesh:
                with open(dump_path(level.record.level), "w") as handle:
                    handle.write(mesh_to_text(level.mesh))
    except (SolverConvergenceError, SPDError):
        flush()
        raise
    return flush()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plate-dpg",
        description="Ultraweak DPG solver for Kirchhoff-Love plate bending")
    sub = parser.add_subparsers(dest="command", required=True)
    # the dests are ExperimentConfig fields; a flag left out is not set,
    # so the config's own default applies
    run = sub.add_parser("run", help="run a convergence experiment",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--problem", required=True, choices=list(PROBLEMS))
    run.add_argument("--mode", required=True,
                     choices=["uniform", "adaptive"])
    run.add_argument("--theta", type=float)
    run.add_argument("--levels", dest="max_levels", type=int)
    run.add_argument("--max-dofs", type=int)
    run.add_argument("--out", required=True)
    run.add_argument("--dump-mesh",
                     help="per-level mesh dump file prefix")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    flags = vars(_build_parser().parse_args(argv))
    del flags["command"]
    try:
        records = run_experiment(ExperimentConfig(**flags))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverConvergenceError, SPDError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    last = records[-1]
    print(f"finished: {len(records)} levels, N={last.ndofs}, "
          f"eta={last.eta:.3e}")
    return 0


if __name__ == "__main__":
    print("platedpg.driver is not a command; run `python -m platedpg run "
          "...` or `plate-dpg run ...`", file=sys.stderr)
    raise SystemExit(2)
