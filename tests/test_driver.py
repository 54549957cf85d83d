import csv
from dataclasses import fields, replace
import logging
import os
import subprocess
import sys
import warnings

from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)
import numpy as np
import pytest

import platedpg
from platedpg.driver import (ConvergenceRecord, ExperimentConfig, dorfler_mark,
                             eoc, experiment_levels, main, run_experiment,
                             solve_problem, write_records_csv)
from platedpg.errors import ConfigurationError
from platedpg.mesh import mesh_to_text
from platedpg.problems import builtin_square_problem


def parse_csv(path):
    """The records of a CSV written by ``write_records_csv``; an empty
    cell reads as None."""
    ints = {f.name for f in fields(ConvergenceRecord) if f.type is int}
    with open(path, newline="") as handle:
        return [ConvergenceRecord(**{
            name: int(text) if name in ints else float(text) if text else None
            for name, text in row.items()}) for row in csv.DictReader(handle)]


# ---------------------------------------------------------------------------
# marking
# ---------------------------------------------------------------------------

def test_dorfler_examples():
    assert dorfler_mark([3.0, 2.0, 1.0], 0.5) == {0}
    assert dorfler_mark([3.0, 2.0, 1.0], 0.9) == {0, 1}
    assert dorfler_mark([1.0, 1.0, 1.0, 1.0], 0.5) == {0, 1}


def test_dorfler_all_zero():
    assert dorfler_mark([0.0, 0.0], 0.5) == set()


def test_dorfler_order_independence():
    assert dorfler_mark([1.0, 3.0, 2.0], 0.5) == {1}


@settings(max_examples=200, deadline=None)
@given(etas=st.lists(st.sampled_from([0.0, 0.25, 1.0])
                     | st.floats(0.0, 1.0), min_size=1, max_size=30),
       theta=st.floats(0.05, 0.95))
@example(etas=[3.4036451192112416e-162], theta=0.25)
def test_dorfler_minimality(etas, theta):
    """The marked set is the shortest prefix, in the order eta descending
    with ties by id ascending, that reaches the bulk; repeated values and
    zeros make the ties.  The sums are formed on etas scaled by the same
    exact power of two as in ``dorfler_mark``, so tiny etas whose squares
    underflow are judged too."""
    marked = dorfler_mark(etas, theta)
    assert all(type(i) is int for i in marked)
    order = sorted(range(len(etas)), key=lambda i: (-etas[i], i))
    assert marked == set(order[:len(marked)])
    etas = np.array(etas)
    etas = np.ldexp(etas, -np.frexp(etas.max())[1])
    total = np.sum(etas ** 2)
    if total == 0.0:
        assert marked == set()
        return
    got = np.sum(etas[list(marked)] ** 2)
    assert got >= theta * total * (1.0 - 1e-12)
    last = order[len(marked) - 1]
    rest = np.sum(etas[list(marked - {last})] ** 2)
    assert rest < theta * total * (1.0 + 1e-12)


@pytest.mark.parametrize("etas, marked", [([1e-170, 1e-170], {0}),
                                           ([1e200, 1e200, 1.0], {0})])
def test_dorfler_tiny_and_huge_estimators(etas, marked):
    """Squares of 1e-170 underflow to 0 and of 1e200 overflow; marking
    still reaches the bulk, without a floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dorfler_mark(etas, 0.5) == marked


@pytest.mark.parametrize("etas", [[-1.0, 2.0], [np.nan, 1.0, 2.0],
                                  [1.0, np.nan], [np.inf, 1.0]])
def test_dorfler_rejects_negative_and_non_finite_estimators(etas):
    """A NaN or infinite eta would mark an arbitrary set ({0, 1, 2},
    {0, 1} and {0} for the last three), so it is refused like a negative
    one."""
    with pytest.raises(ConfigurationError, match="estimator values"):
        dorfler_mark(etas, 0.5)


def test_dorfler_theta_validation():
    with pytest.raises(ConfigurationError):
        dorfler_mark([1.0], 0.0)
    with pytest.raises(ConfigurationError):
        dorfler_mark([1.0], 1.0)


# ---------------------------------------------------------------------------
# EOC and records
# ---------------------------------------------------------------------------

def _rec(level, n, q):
    return ConvergenceRecord(level=level, ntriangles=n, ndofs=n, eta=q,
                             err_u=q, err_M=q)


def test_eoc_examples():
    out = eoc([_rec(0, 100, 1e-1), _rec(1, 400, 5e-2)])
    assert out[0].eoc_eta is None
    assert out[1].eoc_eta == pytest.approx(0.5)
    out = eoc([_rec(0, 100, 1.0), _rec(1, 400, 1.0)])
    assert out[1].eoc_eta == pytest.approx(0.0)
    out = eoc([_rec(0, 100, 1.0), _rec(1, 400, 0.25)])
    assert out[1].eoc_eta == pytest.approx(1.0)


def test_eoc_zero_marked_unavailable():
    out = eoc([_rec(0, 10, 1.0), _rec(1, 40, 0.0)])
    assert out[1].eoc_eta is None


def _seeded_records():
    """Five records of run-like sizes, the first without EOCs."""
    rng = np.random.default_rng(3)
    records = []
    for level in range(5):
        q = float(np.exp(rng.normal()) * 10.0 ** rng.integers(-8, 2))
        records.append(ConvergenceRecord(
            level=level, ntriangles=int(rng.integers(1, 10 ** 6)),
            ndofs=int(rng.integers(1, 10 ** 7)), eta=q,
            err_u=q * np.pi, err_M=q / 3.0,
            eoc_eta=None if level == 0 else float(rng.normal()),
            eoc_u=None if level == 0 else float(rng.normal()),
            eoc_M=None if level == 0 else float(rng.normal())))
    return records


# every finite double: zeros of both signs, subnormals and +-max included
_double = st.floats(allow_nan=False, allow_infinity=False)
_record = st.builds(
    ConvergenceRecord, level=st.integers(0, 10 ** 3),
    ntriangles=st.integers(1, 10 ** 9), ndofs=st.integers(1, 10 ** 10),
    eta=_double, err_u=_double, err_M=_double, eoc_eta=st.none() | _double,
    eoc_u=st.none() | _double, eoc_M=st.none() | _double)
# the least subnormal, minus the largest one, the least normal, +-max and
# -0, each in every float column once
_EXTREMES = (5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, -0.0)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_record, max_size=8))
@example(records=_seeded_records())
@example(records=[ConvergenceRecord(k, 1, 1, *_EXTREMES[k:], *_EXTREMES[:k])
                  for k in range(6)])
def test_csv_roundtrip_bit_exact(tmp_path, records):
    """Every finite double, and None for a missing EOC, reads back with
    its bits; the file is rewritten for each drawn list."""
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = parse_csv(path)
    assert back == records
    assert repr(back) == repr(records)        # the sign of zero too


def test_csv_header(tmp_path):
    path = tmp_path / "r.csv"
    write_records_csv([_rec(0, 2, 1.0)], path)
    header = path.read_text().splitlines()[0]
    assert header == "level,ntriangles,ndofs,eta,err_u,err_M,eoc_eta,eoc_u,eoc_M"
    assert path.read_text().splitlines()[1].endswith(",,,")
    assert b"\r" not in path.read_bytes()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="cube", mode="uniform")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="square", mode="random")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problem="square", mode="adaptive", theta=1.5)
    # limits that are not integers, and a theta that is not a number, are
    # refused by name rather than truncated, counted or compared
    for field, value in (("max_levels", 2.5), ("max_levels", True),
                         ("max_levels", 3.0), ("max_dofs", 150.5),
                         ("max_dofs", False), ("max_dofs", "2000"),
                         ("theta", "0.5"), ("theta", True), ("theta", None)):
        with pytest.raises(ConfigurationError, match=f"^{field} = "):
            ExperimentConfig(problem="square", mode="adaptive",
                             **{field: value})
    # numpy scalars are integers and numbers like the Python ones
    for ok in (dict(max_levels=np.int64(2)), dict(max_dofs=np.int32(500)),
               dict(theta=np.float64(0.3))):
        ExperimentConfig(problem="square", mode="adaptive", **ok)


def test_config_defaults():
    cfg = ExperimentConfig(problem="square", mode="uniform")
    assert cfg.max_levels == 6
    cfg = ExperimentConfig(problem="zshape", mode="adaptive")
    assert cfg.max_dofs == 30_000
    assert cfg.theta == 0.5


# ---------------------------------------------------------------------------
# experiment loop
# ---------------------------------------------------------------------------

def test_run_experiment_square_smoke(tmp_path):
    out = tmp_path / "square.csv"
    cfg = ExperimentConfig(problem="square", mode="uniform", max_levels=3,
                           out=str(out), dump_mesh=str(tmp_path / "mesh"))
    records = run_experiment(cfg)
    assert len(records) == 3
    ndofs = [r.ndofs for r in records]
    assert ndofs == sorted(ndofs) and len(set(ndofs)) == 3
    assert records[1].eoc_eta is not None
    back = parse_csv(out)
    assert back == records
    meshes = [level.mesh for level in experiment_levels(cfg)]
    assert [m.num_triangles for m in meshes] == [2, 8, 32]
    for i, m in enumerate(meshes):
        assert (tmp_path / f"mesh{i:03d}.txt").read_text() == mesh_to_text(m)
    assert not (tmp_path / "mesh003.txt").exists()


def test_run_experiment_adaptive_smoke(tmp_path):
    cfg = ExperimentConfig(problem="zshape", mode="adaptive",
                           max_dofs=400, out=str(tmp_path / "z.csv"))
    records = run_experiment(cfg)
    assert records[-1].ndofs >= 400
    assert all(b.ndofs > a.ndofs for a, b in zip(records, records[1:]))
    assert all(r.eta > 0 for r in records)


def test_problem_without_exact_solution_is_refused_before_solving(
        monkeypatch):
    """A problem may leave out its exact solution for assembly alone, but
    the experiment loop measures the errors on every level, so it refuses
    such a problem with a ConfigurationError before the first solve."""
    import platedpg.driver as driver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a problem without an exact solution")

    monkeypatch.setattr(driver, "solve_problem", no_solve)
    with pytest.raises(ConfigurationError, match="no exact solution"):
        run_experiment(ExperimentConfig("square", "uniform", max_levels=1),
                       problem=replace(builtin_square_problem(), exact=None))


@pytest.mark.parametrize("problem, mode", [("square", "uniform"),
                                           ("zshape", "adaptive")])
def test_each_level_builds_its_element_systems_once(problem, mode,
                                                    monkeypatch):
    """One ElementSystems per level feeds both assembly and the
    estimator: no step rebuilds the element matrices."""
    import platedpg.dpg as dpg

    real = dpg.build_element_systems
    calls = {"n": 0}

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dpg, "build_element_systems", counting)
    records = run_experiment(ExperimentConfig(problem=problem, mode=mode,
                                              max_levels=3))
    assert len(records) == 3
    assert calls["n"] == len(records)


def test_levels_refine_only_when_the_next_level_is_asked_for(monkeypatch):
    import platedpg.driver as driver

    real = driver.nvb_refine
    calls = []

    def counting(mesh, marked):
        calls.append(len(marked))
        return real(mesh, marked)

    monkeypatch.setattr(driver, "nvb_refine", counting)
    levels = experiment_levels(ExperimentConfig("zshape", "adaptive"))
    first = next(levels)
    assert first.record.level == 0 and calls == []
    assert next(levels).record.level == 1 and len(calls) == 1
    assert first.mesh.num_triangles == first.record.ntriangles


def test_adaptive_loop_stops_when_nothing_is_marked():
    """Without a load the discrete solution and every eta_T are zero, so
    marking marks nothing and the loop ends after its first level."""
    problem = replace(builtin_square_problem(), f=None)
    levels = list(experiment_levels(
        ExperimentConfig("square", "adaptive", max_levels=5), problem))
    assert len(levels) == 1
    assert levels[0].record.eta == 0.0


def test_each_level_logs_its_record_once(caplog):
    """One INFO record of ``platedpg.driver`` per level, whose arguments
    are the level's record up to the EOCs."""
    with caplog.at_level(logging.INFO, logger="platedpg.driver"):
        records = run_experiment(ExperimentConfig("zshape", "adaptive",
                                                  max_levels=4))
    logged = [r.args for r in caplog.records if r.name == "platedpg.driver"]
    assert logged == [(r.level, r.ntriangles, r.ndofs, r.eta, r.err_u,
                       r.err_M) for r in records]
    assert len(records) == 4


def test_solve_problem_returns_consistent_report():
    prob = builtin_square_problem()
    sol, est, report, ndofs = solve_problem(prob, prob.initial_mesh)
    assert report.relative_residual <= 1e-12
    assert ndofs == sol.dofmap.free_dim
    assert est.per_element.shape == (2,)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "2", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert len(parse_csv(out)) == 2


def _python_m(module, out):
    """``python -m module run`` of a two-level uniform square run."""
    src = os.path.dirname(os.path.dirname(platedpg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, "run", "--problem", "square",
         "--mode", "uniform", "--levels", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)


def test_python_m_platedpg_runs_the_cli_once(tmp_path):
    """``python -m platedpg run`` loads the driver once: no runpy
    RuntimeWarning about a module found in sys.modules."""
    out = tmp_path / "m.csv"
    proc = _python_m("platedpg", out)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert out.read_text().splitlines()[0] == (
        "level,ntriangles,ndofs,eta,err_u,err_M,eoc_eta,eoc_u,eoc_M")


def test_python_m_platedpg_driver_names_the_entry_points(tmp_path):
    """The old command line ``python -m platedpg.driver run`` runs
    nothing: exit 2, a message naming the entry points, no CSV."""
    out = tmp_path / "d.csv"
    proc = _python_m("platedpg.driver", out)
    assert proc.returncode == 2
    assert "python -m platedpg run" in proc.stderr
    assert "plate-dpg run" in proc.stderr
    assert not out.exists()


def test_cli_builds_config_from_the_given_flags(tmp_path, monkeypatch):
    """Flags left out take ExperimentConfig's defaults, not copies of
    them kept in the parser."""
    import platedpg.driver as driver

    seen = []

    def fake_run(config):
        seen.append(config)
        return [_rec(0, 2, 1.0)]

    monkeypatch.setattr(driver, "run_experiment", fake_run)
    p = str(tmp_path / "x.csv")
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "1", "--out", p])
    assert code == 0
    assert seen == [ExperimentConfig("square", "uniform", max_levels=1,
                                     out=p)]


def test_cli_bad_theta_exits_2(tmp_path):
    code = main(["run", "--problem", "square", "--mode", "adaptive",
                 "--theta", "2.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def _refuse_to_solve(monkeypatch):
    import platedpg.driver as driver

    def no_solve(*args, **kwargs):
        raise AssertionError("solved although the run was refused")

    monkeypatch.setattr(driver, "solve_problem", no_solve)


@pytest.mark.parametrize("flags", [
    ["--levels", "0"], ["--levels", "-2"], ["--max-dofs", "0"],
    ["--max-dofs", "-5"]], ids="=".join)
def test_cli_bad_limits_exit_2_before_solving(tmp_path, monkeypatch, flags):
    """Level and DOF limits must be positive; otherwise the run stops
    with exit 2, before any solve and without a CSV."""
    _refuse_to_solve(monkeypatch)
    out = tmp_path / "x.csv"
    code = main(["run", "--problem", "square", "--mode", "uniform", *flags,
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, path", [
    ("--out", "missing/x.csv"), ("--out", "."), ("--out", ""),
    ("--out", "file/x.csv"), ("--dump-mesh", "missing/mesh"),
    ("--dump-mesh", ""), ("--dump-mesh", "file/mesh")])
def test_cli_unwritable_output_exits_2_before_solving(tmp_path, monkeypatch,
                                                      flag, path):
    """An output in a directory that does not exist, in a folder that is
    a regular file, one that is a directory, or an empty --out or
    --dump-mesh, which names no file, is refused with exit 2 before the
    first solve, and nothing is written."""
    _refuse_to_solve(monkeypatch)
    monkeypatch.chdir(tmp_path)
    given = ["file"] if path.startswith("file/") else []
    for name in given:
        (tmp_path / name).write_text("")
    args = {"--out": str(tmp_path / "x.csv"),
            flag: path and str(tmp_path / path)}
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "2", *(x for kv in args.items() for x in kv)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == given
    assert all((tmp_path / name).read_text() == "" for name in given)


def test_cli_bad_choice_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", "--problem", "pentagon", "--mode", "uniform",
              "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_solver_failure_flushes_partial_records(tmp_path, monkeypatch):
    """A solver breakdown mid-run writes the records collected so far and
    surfaces exit code 3 through the CLI."""
    import platedpg.driver as driver
    from platedpg.errors import SolverConvergenceError

    real = driver.spd_solve
    calls = {"n": 0}

    def flaky(A, b):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise SolverConvergenceError("synthetic breakdown")
        return real(A, b)

    monkeypatch.setattr(driver, "spd_solve", flaky)
    out = tmp_path / "partial.csv"
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "4", "--out", str(out)])
    assert code == 3
    assert len(parse_csv(out)) == 1


def test_spd_failure_flushes_partial_records(tmp_path, monkeypatch,
                                            capsys):
    """An element Gram that is not SPD mid-run also writes the records
    collected so far and surfaces exit code 3 through the CLI, naming a
    triangle."""
    import platedpg.dpg as dpg

    real = dpg.element_matrices
    calls = {"n": 0}

    def breaking(geom):
        B, G = real(geom)
        calls["n"] += 1
        if calls["n"] >= 2:
            G[-1] = -np.eye(G.shape[-1])
        return B, G

    monkeypatch.setattr(dpg, "element_matrices", breaking)
    out = tmp_path / "partial.csv"
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "4", "--out", str(out)])
    assert code == 3
    assert len(parse_csv(out)) == 1
    assert "element Gram matrix" in capsys.readouterr().err
