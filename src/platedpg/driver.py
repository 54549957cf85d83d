"""Experiment orchestration: refinement loops, marking, EOC, CSV, CLI."""

import argparse
import csv
from dataclasses import dataclass, replace
import logging
import sys
from typing import List, Optional

import numpy as np

from . import dpg
from .errors import ConfigurationError, SolverConvergenceError, SPDError
from .linalg import spd_solve
from .mesh import mesh_to_text, nvb_refine, uniform_refine
from .problems import builtin_problem, l2_errors
from .spaces import build_dofmap

logger = logging.getLogger(__name__)

CSV_COLUMNS = ["level", "ntriangles", "ndofs", "eta", "err_u", "err_M",
               "eoc_eta", "eoc_u", "eoc_M"]


@dataclass
class ExperimentConfig:
    problem: str                       # "square" or "zshape"
    mode: str                          # "uniform" or "adaptive"
    theta: float = 0.5
    max_levels: Optional[int] = None
    max_dofs: Optional[int] = None
    out: Optional[str] = None
    tol: float = 1e-12
    dump_mesh: Optional[str] = None

    def __post_init__(self):
        if self.problem not in ("square", "zshape"):
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.mode not in ("uniform", "adaptive"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(f"theta = {self.theta} outside (0, 1)")
        if self.max_levels is None and self.max_dofs is None:
            if self.mode == "uniform":
                self.max_levels = 6
            else:
                self.max_dofs = 30_000
        if self.max_levels is None:
            self.max_levels = 100


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
    if np.any(etas < 0.0):
        raise ConfigurationError("negative estimator values")
    order = sorted(range(len(etas)), key=lambda i: (-etas[i], i))
    sq = etas[order] ** 2
    cum = np.cumsum(sq)
    if cum.size == 0 or cum[-1] == 0.0:
        return set()
    k = int(np.searchsorted(cum, theta * cum[-1]))
    return set(order[:k + 1])


def eoc(records: List[ConvergenceRecord]):
    """Fill empirical orders of convergence between consecutive records:
    ``log(q_prev / q_cur) / log(N_cur / N_prev)``."""
    out = [replace(records[0])] if records else []
    for prev, cur in zip(records, records[1:]):
        denom = np.log(cur.ndofs / prev.ndofs)

        def rate(a, b):
            if a is None or b is None or a <= 0.0 or b <= 0.0 or denom <= 0.0:
                return None
            return float(np.log(a / b) / denom)

        out.append(replace(cur,
                           eoc_eta=rate(prev.eta, cur.eta),
                           eoc_u=rate(prev.err_u, cur.err_u),
                           eoc_M=rate(prev.err_M, cur.err_M)))
    return out


def solve_problem(problem, mesh, tol=1e-12):
    """One SOLVE + ESTIMATE pass on a given mesh.

    Returns (solution, estimator, report, free_dofs).
    """
    dofmap = build_dofmap(mesh, problem.bc_builder(mesh))
    system = dpg.assemble(mesh, dofmap, problem)
    y, report = spd_solve(system.A, system.rhs, tol=tol)
    solution = dpg.Solution(mesh=mesh, dofmap=dofmap,
                            x_full=dofmap.recover_full(system.recover_free(y)))
    estimator = dpg.estimate(mesh, dofmap, problem, solution,
                             systems=system.systems)
    return solution, estimator, report, dofmap.free_dim


def _fmt(x):
    return "" if x is None else format(x, ".17g")


def write_records_csv(records, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.level, r.ntriangles, r.ndofs,
                             _fmt(r.eta), _fmt(r.err_u), _fmt(r.err_M),
                             _fmt(r.eoc_eta), _fmt(r.eoc_u), _fmt(r.eoc_M)])


def read_records_csv(path):
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            records.append(ConvergenceRecord(
                level=int(row["level"]),
                ntriangles=int(row["ntriangles"]),
                ndofs=int(row["ndofs"]),
                eta=float(row["eta"]),
                err_u=float(row["err_u"]),
                err_M=float(row["err_M"]),
                eoc_eta=float(row["eoc_eta"]) if row["eoc_eta"] else None,
                eoc_u=float(row["eoc_u"]) if row["eoc_u"] else None,
                eoc_M=float(row["eoc_M"]) if row["eoc_M"] else None))
    return records


def run_experiment(config: ExperimentConfig, problem=None):
    """SOLVE -> ESTIMATE -> MARK -> REFINE loop with per-level records.

    On solver failure (:class:`SolverConvergenceError` or
    :class:`SPDError`) the records collected so far are flushed to the CSV
    before the exception propagates.
    """
    problem = problem or builtin_problem(config.problem)
    mesh = problem.initial_mesh
    records: List[ConvergenceRecord] = []

    def flush():
        done = eoc(records)
        if config.out:
            write_records_csv(done, config.out)
        return done

    level = 0
    while True:
        try:
            solution, estimator, report, ndofs = solve_problem(
                problem, mesh, tol=config.tol)
        except (SolverConvergenceError, SPDError):
            flush()
            raise
        err_u, err_M = l2_errors(mesh, solution, problem.exact,
                                 singular_point=problem.singular_point)
        records.append(ConvergenceRecord(
            level=level, ntriangles=mesh.num_triangles, ndofs=ndofs,
            eta=estimator.total, err_u=err_u, err_M=err_M))
        logger.info("level %d: #T=%d N=%d eta=%.3e err_u=%.3e err_M=%.3e",
                    level, mesh.num_triangles, ndofs, estimator.total,
                    err_u, err_M)
        if config.dump_mesh:
            with open(f"{config.dump_mesh}{level:03d}.txt", "w") as handle:
                handle.write(mesh_to_text(mesh))

        if config.max_levels is not None and level + 1 >= config.max_levels:
            break
        if config.max_dofs is not None and ndofs >= config.max_dofs:
            break
        if config.mode == "uniform":
            mesh = uniform_refine(mesh)
        else:
            marked = dorfler_mark(estimator.per_element, config.theta)
            if not marked:
                break
            mesh = nvb_refine(mesh, marked)
        level += 1
    return flush()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="plate-dpg",
        description="Ultraweak DPG solver for Kirchhoff-Love plate bending")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a convergence experiment")
    run.add_argument("--problem", required=True,
                     choices=["square", "zshape"])
    run.add_argument("--mode", required=True,
                     choices=["uniform", "adaptive"])
    run.add_argument("--theta", type=float, default=0.5)
    run.add_argument("--levels", type=int, default=None)
    run.add_argument("--max-dofs", type=int, default=None)
    run.add_argument("--tol", type=float, default=1e-12)
    run.add_argument("--out", required=True)
    run.add_argument("--dump-mesh", default=None,
                     help="per-level mesh dump file prefix")
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(
            problem=args.problem, mode=args.mode, theta=args.theta,
            max_levels=args.levels, max_dofs=args.max_dofs,
            tol=args.tol, out=args.out, dump_mesh=args.dump_mesh)
        records = run_experiment(config)
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
    sys.exit(main())
