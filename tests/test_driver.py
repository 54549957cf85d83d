import numpy as np
import pytest

from platedpg.driver import (ConvergenceRecord, ExperimentConfig, dorfler_mark,
                             eoc, main, read_records_csv, run_experiment,
                             solve_problem, write_records_csv)
from platedpg.errors import ConfigurationError
from platedpg.mesh import mesh_from_text
from platedpg.problems import builtin_square_problem


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


def test_dorfler_minimality():
    rng = np.random.default_rng(0)
    for trial in range(20):
        etas = rng.uniform(0.0, 1.0, size=17)
        theta = rng.uniform(0.05, 0.95)
        marked = dorfler_mark(etas, theta)
        total = np.sum(etas ** 2)
        got = np.sum(etas[list(marked)] ** 2)
        assert got >= theta * total - 1e-12
        if marked:
            smallest = min(marked, key=lambda i: (etas[i], -i))
            rest = np.sum(etas[list(marked - {smallest})] ** 2)
            assert rest < theta * total


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


def test_csv_roundtrip_bit_exact(tmp_path):
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
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert back == records


def test_csv_header(tmp_path):
    path = tmp_path / "r.csv"
    write_records_csv([_rec(0, 2, 1.0)], path)
    header = path.read_text().splitlines()[0]
    assert header == "level,ntriangles,ndofs,eta,err_u,err_M,eoc_eta,eoc_u,eoc_M"
    assert path.read_text().splitlines()[1].endswith(",,,")


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
    back = read_records_csv(out)
    assert back == records
    m0 = mesh_from_text((tmp_path / "mesh000.txt").read_text())
    assert m0.num_triangles == 2
    m2 = mesh_from_text((tmp_path / "mesh002.txt").read_text())
    assert m2.num_triangles == 32


def test_run_experiment_adaptive_smoke(tmp_path):
    cfg = ExperimentConfig(problem="zshape", mode="adaptive",
                           max_dofs=400, out=str(tmp_path / "z.csv"))
    records = run_experiment(cfg)
    assert records[-1].ndofs >= 400
    assert all(b.ndofs > a.ndofs for a, b in zip(records, records[1:]))
    assert all(r.eta > 0 for r in records)


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
    assert len(read_records_csv(out)) == 2


def test_cli_bad_theta_exits_2(tmp_path):
    code = main(["run", "--problem", "square", "--mode", "adaptive",
                 "--theta", "2.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2


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

    def flaky(A, b, tol=1e-12):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise SolverConvergenceError("synthetic breakdown")
        return real(A, b, tol=tol)

    monkeypatch.setattr(driver, "spd_solve", flaky)
    out = tmp_path / "partial.csv"
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "4", "--out", str(out)])
    assert code == 3
    assert len(read_records_csv(out)) == 1


def test_spd_failure_flushes_partial_records(tmp_path, monkeypatch):
    """An element Gram that is not SPD mid-run also writes the records
    collected so far and surfaces exit code 3 through the CLI."""
    import platedpg.dpg as dpg

    real = dpg.condense
    calls = {"n": 0}

    def breaking(B, G, load):
        calls["n"] += 1
        if calls["n"] >= 2:
            G = G.copy()
            G[-1] = -np.eye(G.shape[-1])
        return real(B, G, load)

    monkeypatch.setattr(dpg, "condense", breaking)
    out = tmp_path / "partial.csv"
    code = main(["run", "--problem", "square", "--mode", "uniform",
                 "--levels", "4", "--out", str(out)])
    assert code == 3
    assert len(read_records_csv(out)) == 1
