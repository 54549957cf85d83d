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
from platedpg import dpg
from platedpg.driver import (ConvergenceRecord, ExperimentConfig, _rate,
                             dorfler_mark, experiment_levels, main,
                             run_experiment, solve_problem, write_records_csv)
from platedpg.errors import ConfigurationError
from platedpg.mesh import mesh_from_arrays, mesh_to_text
from platedpg.problems import (ExactSolution, builtin_problem,
                               builtin_square_problem, fourier_eval)


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
    assert _rate(1e-1, 5e-2, 100, 400) == pytest.approx(0.5)
    assert _rate(1.0, 1.0, 100, 400) == pytest.approx(0.0)
    assert _rate(1.0, 0.25, 100, 400) == pytest.approx(1.0)


def test_eoc_zero_marked_unavailable():
    """No rate from a zero value or from a DOF count that did not grow."""
    assert _rate(1.0, 0.0, 10, 40) is None
    assert _rate(0.0, 1.0, 10, 40) is None
    assert _rate(1.0, 0.5, 40, 40) is None


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
    # the EOCs of each record against the previous one, none on the first
    assert (records[0].eoc_eta, records[0].eoc_u, records[0].eoc_M) == (
        None, None, None)
    for prev, r in zip(records, records[1:]):
        assert (r.eoc_eta, r.eoc_u, r.eoc_M) == tuple(
            _rate(getattr(prev, q), getattr(r, q), prev.ndofs, r.ndofs)
            for q in ("eta", "err_u", "err_M"))
        assert r.eoc_eta is not None
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


def assert_same_levels(cfg, problem):
    """The run of ``problem`` has the levels of the built-in one: #T and
    N exact, eta, err_u and err_M within 1e-9 relative."""
    for a, b in zip(experiment_levels(cfg), experiment_levels(cfg, problem),
                    strict=True):
        a, b = a.record, b.record
        assert (b.ntriangles, b.ndofs) == (a.ntriangles, a.ndofs)
        for q in ("eta", "err_u", "err_M"):
            assert getattr(b, q) == pytest.approx(getattr(a, q), rel=1e-9)


def test_rotated_square_with_swapped_triangles_agrees():
    """The unit square turned by 90 degrees, (x, y) -> (1 - y, x), which
    is exact on its dyadic coordinates, with its two initial triangles
    swapped: the same plate, whose horizontal sides are now the vertical
    ones.  On L0-L3 #T and N are exact and eta agrees to 1e-9 relative
    (1.3e-15 measured); err_u and err_M agree to 1e-9 as well (3.9e-13
    and 9.2e-12 measured, growing with the level: 7.1e-12 and 1.1e-10
    at L4)."""
    problem = builtin_square_problem()
    c, tris = problem.initial_mesh.coords, problem.initial_mesh.tri_vertices
    turned = replace(problem, initial_mesh=mesh_from_arrays(
        np.column_stack([1.0 - c[:, 1], c[:, 0]]), tris[::-1]))
    assert_same_levels(ExperimentConfig("square", "uniform", max_levels=4),
                       turned)


@pytest.mark.parametrize("shift", [(2.0, -1.0), (0.5, 0.25)])
def test_translated_square_agrees(shift):
    """The unit square moved by a dyadic vector, which is exact on its
    coordinates, with its exact fields moved along: the same load and
    the same simply supported sides.  On L0-L3 #T and N are exact and
    eta, err_u and err_M agree to 1e-9 relative (at most 7.1e-15,
    3.4e-12 and 3.7e-12 measured)."""
    problem = builtin_square_problem()
    mesh, shift = problem.initial_mesh, np.array(shift)
    moved = replace(
        problem,
        initial_mesh=mesh_from_arrays(mesh.coords + shift, mesh.tri_vertices),
        exact=ExactSolution(lambda p: fourier_eval(p - shift)))
    assert_same_levels(ExperimentConfig("square", "uniform", max_levels=4),
                       moved)


@pytest.mark.parametrize("name, limits", [
    ("square", dict(mode="uniform", max_levels=4)),
    ("zshape", dict(mode="adaptive", max_dofs=2000))],
    ids=["square", "zshape"])
def test_relabelled_vertices_agree(name, limits):
    """The initial mesh with its vertex ids permuted by a fixed random
    permutation (seed 32; the Z-shape's corner vertex 0 becomes 6): the
    same triangles, whose edges now run the other way round where the
    order of their ends flips, and whose vertex DOFs are numbered in
    another order.  Square L0-L3 and the adaptive Z-shape to 2,000 DOFs
    (L0-L11): #T and N exact, eta, err_u and err_M within 1e-9 relative
    (at most 1.1e-16, 0 and 1.2e-14 on the square, 2.1e-15, 2.2e-16 and
    3.0e-13 on the Z-shape)."""
    problem = builtin_problem(name)
    mesh = problem.initial_mesh
    p = np.random.default_rng(32).permutation(mesh.num_vertices)
    coords = np.empty_like(mesh.coords)
    coords[p] = mesh.coords
    relabelled = replace(problem, initial_mesh=mesh_from_arrays(
        coords, p[mesh.tri_vertices]))
    assert_same_levels(ExperimentConfig(problem=name, **limits), relabelled)


@pytest.mark.parametrize("factor, code, written", [(4.0, 0, 4),
                                                  (5.0, 3, 2)])
def test_estimator_growth_stops_the_run(tmp_path, monkeypatch, capsys,
                                        factor, code, written):
    """Level 2 of the uniform square has 0.455 times the eta of level 1.
    A stubbed estimator scaled by 4 there gives 1.82 times, and the run
    goes on; scaled by 5, 2.27 times, more than twice: level 2 is not
    yielded, levels 0 and 1 are written and the CLI exits 3."""
    real = dpg.estimate
    calls = {"n": 0}

    def grown(systems, x_full):
        est = real(systems, x_full)
        calls["n"] += 1
        if calls["n"] == 3:
            est = dpg.EstimatorField(factor * est.per_element)
        return est

    monkeypatch.setattr(dpg, "estimate", grown)
    out = tmp_path / "grown.csv"
    assert main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "4", "--out", str(out)]) == code
    assert len(parse_csv(out)) == written
    assert ("level 2: eta" in capsys.readouterr().err) == (code == 3)


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
    ("--dump-mesh", ""), ("--dump-mesh", "file/mesh"),
    ("--out", "dangling.csv"), ("--dump-mesh", "dangling")])
def test_cli_unwritable_output_exits_2_before_solving(tmp_path, monkeypatch,
                                                      flag, path):
    """An output in a directory that does not exist, in a folder that is
    a regular file, one that is a directory, a link into a directory that
    does not exist, or an empty --out or --dump-mesh, which names no file,
    is refused with exit 2 before the first solve, and nothing is
    written."""
    _refuse_to_solve(monkeypatch)
    monkeypatch.chdir(tmp_path)
    given = ["file"] if path.startswith("file/") else []
    for name in given:
        (tmp_path / name).write_text("")
    links = []
    if path.startswith("dangling"):   # the first file --dump-mesh writes
        links = [path + ("000.txt" if flag == "--dump-mesh" else "")]
        (tmp_path / links[0]).symlink_to("no_such_dir/x")
    args = {"--out": str(tmp_path / "x.csv"),
            flag: path and str(tmp_path / path)}
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "2", *(x for kv in args.items() for x in kv)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(given + links)
    assert all((tmp_path / name).read_text() == "" for name in given)
    assert not any((tmp_path / name).exists() for name in links)


@pytest.mark.parametrize("output", ["dump_mesh", "out"])
def test_cli_output_failing_after_a_solve_exits_2_with_the_levels_done(
        tmp_path, monkeypatch, capsys, output):
    """An output that passes the pre-flight checks but cannot be written
    after a solve, a directory at the level-1 mesh dump or one made at
    --out during the first solve, stops the run with exit 2 and one error
    line naming it, not a traceback.  A failed dump still writes the CSV
    of the levels solved, 0 and 1, and keeps the level-0 dump."""
    import platedpg.driver as driver
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "r.csv"
    if output == "dump_mesh":
        bad = tmp_path / "m001.txt"
        bad.mkdir()
    else:
        real = driver.solve_problem

        def solve_then_block(problem, mesh):
            out.mkdir(exist_ok=True)
            return real(problem, mesh)

        monkeypatch.setattr(driver, "solve_problem", solve_then_block)
        bad = out
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "3", "--out", str(out), "--dump-mesh",
                 str(tmp_path / "m")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert [line for line in err.splitlines()
            if line.startswith("configuration error")] == [
        f"configuration error: {str(bad)!r} cannot be written: "
        f"Is a directory"]
    if output == "dump_mesh":
        assert [r.level for r in parse_csv(out)] == [0, 1]
        assert (tmp_path / "m000.txt").read_text().startswith("4 5 2")


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


def test_unexpected_error_still_writes_the_levels_done(tmp_path,
                                                       monkeypatch):
    """An error of no type the CLI knows, raised at the third solve of a
    4-level run, propagates as it is, and the CSV still holds the levels
    done, 0 and 1."""
    import platedpg.driver as driver

    real = driver.spd_solve
    calls = {"n": 0}

    def failing(A, b):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("synthetic failure")
        return real(A, b)

    monkeypatch.setattr(driver, "spd_solve", failing)
    out = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError, match="synthetic failure"):
        run_experiment(ExperimentConfig("square", "uniform", max_levels=4,
                                        out=str(out)))
    assert [r.level for r in parse_csv(out)] == [0, 1]


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
