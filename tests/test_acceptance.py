"""Acceptance suite: benchmark rates, the manufactured-solution oracle,
and the property/invariant battery.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the stated tolerances.
"""

import time

import conftest
import numpy as np
import pytest
from conftest import (manufactured_M, manufactured_divM, manufactured_f,
                      manufactured_fields, manufactured_grad, manufactured_u,
                      project_fields, random_shape_regular_triangle,
                      vertex_patch, zero_fields)

from platedpg import dpg
from platedpg.driver import (ExperimentConfig, dorfler_mark, eoc,
                             experiment_levels)
from platedpg.mesh import (mesh_from_arrays, nvb_refine, uniform_refine,
                           unit_square_mesh)
from platedpg.polyquad import p3_table, tri_rule
from platedpg.problems import (SINGULAR_ALPHA, ZSHAPE_OPENING,
                               builtin_square_problem, builtin_zshape_problem,
                               fourier_eval, singular_eval)
from platedpg.spaces import (BCSpec, ElementGeometry, build_dofmap,
                             interpolate_uhat_bc)
from trace_oracles import (element_tensor_basis, extract_qhat,
                           extract_uhat, local_qhat, qhat_pair_local,
                           uhat_pair_local)


def report(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{name}: {detail}"


def run_levels(problem, mode, **stop):
    """Every level of the library's experiment loop on ``problem``."""
    return list(experiment_levels(ExperimentConfig(problem.name, mode, **stop),
                                  problem))


def eoc_records(levels):
    return eoc([level.record for level in levels])


@pytest.fixture(scope="module")
def square_uniform():
    t0 = time.perf_counter()
    levels = run_levels(builtin_square_problem(), "uniform", max_levels=6)
    return levels, time.perf_counter() - t0


@pytest.fixture(scope="module")
def zshape_uniform():
    return run_levels(builtin_zshape_problem(), "uniform", max_levels=6)


@pytest.fixture(scope="module")
def zshape_adaptive():
    return run_levels(builtin_zshape_problem(), "adaptive", max_dofs=20_000)


def test_criterion_1_smooth_benchmark_rates(square_uniform):
    levels, elapsed = square_uniform
    records = eoc_records(levels)
    assert len(records) >= 5
    assert records[-1].ndofs >= 20_000
    tail = records[-3:]
    rates = {q: [getattr(r, f"eoc_{q}") for r in tail]
             for q in ("eta", "u", "M")}
    ok = all(0.40 <= v <= 0.60 for vs in rates.values() for v in vs)
    ok = ok and elapsed < 300.0
    report("1 (square uniform rates)", ok,
           f"last-three EOCs eta={['%.3f' % v for v in rates['eta']]} "
           f"u={['%.3f' % v for v in rates['u']]} "
           f"M={['%.3f' % v for v in rates['M']]}, {elapsed:.0f}s")


def test_criterion_2_singular_uniform_rate(zshape_uniform):
    records = eoc_records(zshape_uniform)
    assert len(records) >= 5
    tail = [r.eoc_eta for r in records[-3:]]
    lo, hi = SINGULAR_ALPHA / 2 - 0.07, SINGULAR_ALPHA / 2 + 0.07
    ok = all(lo <= v <= hi for v in tail)
    report("2 (zshape uniform suboptimal rate)", ok,
           f"EOC_eta last three = {['%.3f' % v for v in tail]}, "
           f"window [{lo:.3f}, {hi:.3f}]")


def test_criterion_3_adaptive_restores_rates(zshape_adaptive):
    records = eoc_records(zshape_adaptive)
    assert records[-1].ndofs >= 20_000
    half = records[len(records) // 2:]
    logN = np.log([r.ndofs for r in half])
    slope_eta = -np.polyfit(logN, np.log([r.eta for r in half]), 1)[0]
    slope_M = -np.polyfit(logN, np.log([r.err_M for r in half]), 1)[0]
    mesh = zshape_adaptive[-1].mesh
    finest = np.nonzero(mesh.tri_area == mesh.tri_area.min())[0]
    centroid = mesh.coords[mesh.tri_vertices[finest]].mean(axis=1)
    dist = np.linalg.norm(centroid, axis=1)
    frac = float(np.mean(dist < 0.25))
    ok = slope_eta >= 0.45 and slope_M >= 0.45 and frac >= 0.5
    report("3 (zshape adaptive restored rates)", ok,
           f"slopes eta={slope_eta:.3f} M={slope_M:.3f}, "
           f"corner fraction={frac:.2f}")


def exact_dof_vector(mesh, dofmap):
    x = np.zeros(dofmap.full_dim)
    uP, MP = project_fields(mesh, manufactured_u, manufactured_M)
    x[:dofmap.off_m] = uP
    x[dofmap.off_m:dofmap.off_uhat] = MP.ravel()
    x[dofmap.off_uhat:dofmap.off_alpha] = extract_uhat(
        mesh, manufactured_u, manufactured_grad).ravel()
    al, be, ga = extract_qhat(mesh, manufactured_M, manufactured_divM)
    x[dofmap.off_alpha:dofmap.off_beta] = al
    x[dofmap.off_beta:dofmap.off_gamma] = be
    x[dofmap.off_gamma:] = ga.ravel()
    return x


def test_criterion_4_manufactured_consistency():
    """Exact trial DOFs of the clamped-square bump are inserted into the
    local systems; the residual functional must shrink at first order.

    The residual size per element is measured in the dual norm of the
    discrete test space (the same norm the estimator uses), which is
    invariant under basis rescaling; the absolute threshold is relative
    to the sup of the load.
    """
    mesh = unit_square_mesh()
    sups = []
    for level in range(4):
        dofmap = build_dofmap(mesh, interpolate_uhat_bc(
            manufactured_fields, mesh))
        x = exact_dof_vector(mesh, dofmap)
        systems = dpg.build_element_systems(mesh, dofmap, manufactured_f)
        est = dpg.estimate(systems, x)
        sups.append(est.per_element.max())
        mesh = uniform_refine(mesh)

    order = np.log(sups[0] / sups[3]) / np.log(8.0)   # h halves per level
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 201),
                                np.linspace(0, 1, 201)), axis=-1).reshape(-1, 2)
    f_sup = np.abs(manufactured_f(grid)).max()
    ok = order >= 1.0 and sups[3] <= 1e-3 * f_sup
    report("4 (manufactured-solution consistency)", ok,
           f"residual sups={['%.2e' % s for s in sups]}, order={order:.2f}, "
           f"level-3 = {sups[3]:.2e} vs 1e-3*sup|f| = {1e-3 * f_sup:.2e}")


def test_criterion_5_invariants(square_uniform, zshape_uniform,
                                zshape_adaptive):
    rng = np.random.default_rng(42)
    failures = []

    # DOF-count formulas on benchmark meshes
    square_levels, _ = square_uniform
    for level in (square_levels[0], square_levels[-1], zshape_uniform[1],
                  zshape_adaptive[-1]):
        mesh = level.mesh
        dm = build_dofmap(mesh, BCSpec())
        if dm.n_qhat_free != (2 * mesh.num_edges + 3 * mesh.num_triangles
                              - mesh.num_interior_vertices):
            failures.append("qhat count")
        bc = interpolate_uhat_bc(zero_fields, mesh)
        if build_dofmap(mesh, bc).n_uhat_free != \
                3 * mesh.num_interior_vertices:
            failures.append("uhat count")

    # integration-by-parts identity for the uhat pairing
    tri = mesh_from_arrays([(0.05, 0.1), (1.2, 0.3), (0.4, 1.1)], [(0, 1, 2)])
    geom = ElementGeometry(tri, 0)
    tb = element_tensor_basis(geom)
    pts, w = tri_rule(8).map_to(geom.P)
    table = tb.eval(pts)
    c = rng.normal(size=6)
    v = lambda p: (c[0] + c[1] * p[:, 0] + c[2] * p[:, 1]
                   + c[3] * p[:, 0] ** 2 + c[4] * p[:, 0] * p[:, 1]
                   + c[5] * p[:, 1] ** 2)
    gv = lambda p: np.stack([c[1] + 2 * c[3] * p[:, 0] + c[4] * p[:, 1],
                             c[2] + c[4] * p[:, 0] + 2 * c[5] * p[:, 1]],
                            axis=1)
    hess = np.array([[2 * c[3], c[4]], [c[4], 2 * c[5]]])
    udofs = np.concatenate([np.concatenate(([v(geom.P[k:k + 1])[0]],
                                            gv(geom.P[k:k + 1])[0]))
                            for k in range(3)])
    for i in range(tb.dim):
        tc = np.zeros(tb.dim)
        tc[i] = 1.0
        lhs = uhat_pair_local(geom, udofs, tc)
        rhs = (w @ (table.divdiv[:, i] * v(pts))
               - np.einsum("q,qij,ij->", w, table.values[:, i], hess))
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            failures.append(f"IBP identity ({abs(lhs - rhs):.1e})")
            break

    # constant-tensor qhat extraction identity
    Theta0 = np.array([[0.9, 0.3], [0.3, -1.4]])
    alpha, beta, gamma = extract_qhat(
        tri, lambda p: np.broadcast_to(Theta0, (len(p), 2, 2)),
        lambda p: np.zeros((len(p), 2)))
    qd = local_qhat(tri, 0, alpha, beta, gamma)
    sv = p3_table(geom.centroid, geom.diam, pts)
    for i in range(10):
        zc = np.zeros(10)
        zc[i] = 1.0
        lhs = qhat_pair_local(geom, qd, zc)
        rhs = -np.einsum("q,ij,qij->", w, Theta0, sv.hessians[:, i])
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            failures.append("constant-tensor extraction")
            break

    # Gram SPD on 200 random shape-regular triangles
    for _ in range(200):
        m1 = mesh_from_arrays(random_shape_regular_triangle(rng), [(0, 1, 2)])
        try:
            np.linalg.cholesky(dpg.element_matrices(
                ElementGeometry(m1, np.array([0])))[1][0])
        except Exception:
            failures.append("Gram SPD")
            break

    # NVB conformity and Euler after 10 random adaptive steps
    m = unit_square_mesh()
    for _ in range(10):
        marked = set(rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 4),
                                replace=False).tolist())
        m = nvb_refine(m, marked)
        if m.num_vertices - m.num_edges + m.num_triangles != 1:
            failures.append("Euler relation")
            break

    # Doerfler minimality
    for _ in range(25):
        etas = rng.uniform(size=rng.integers(1, 40))
        theta = rng.uniform(0.05, 0.95)
        marked = dorfler_mark(etas, theta)
        total = np.sum(etas ** 2)
        if np.sum(etas[list(marked)] ** 2) < theta * total - 1e-12:
            failures.append("Doerfler bulk")
        if marked:
            smallest = min(marked, key=lambda i: (etas[i], -i))
            if np.sum(etas[list(marked - {smallest})] ** 2) >= theta * total:
                failures.append("Doerfler minimality")

    # patch-sum constraint exact after reconstruction
    mesh = zshape_adaptive[min(4, len(zshape_adaptive) - 1)].mesh
    dm = build_dofmap(mesh, interpolate_uhat_bc(zero_fields, mesh))
    x = dm.recover_full(rng.normal(size=dm.free_dim))
    for vax in np.flatnonzero(~mesh.vertex_on_boundary):
        tot = 0.0
        for t in vertex_patch(mesh, vax):
            cidx = int(np.nonzero(mesh.tri_vertices[t] == vax)[0][0])
            tot += x[dm.off_gamma + 3 * t + cidx]
        if abs(tot) > 1e-12 * max(1.0, np.abs(x).max()):
            failures.append("patch sum")
            break

    # normal-equation residual on every benchmark solve
    worst = max(level.report.relative_residual
                for level in square_levels + zshape_uniform + zshape_adaptive)
    if worst > 1e-10:
        failures.append(f"normal-equation residual {worst:.1e}")

    report("5 (invariant suite)", not failures,
           "all invariants hold" if not failures else "; ".join(failures))


def test_criterion_6_exact_solution_validation():
    checks = []
    om = ZSHAPE_OPENING
    checks.append(("exponent relation",
                   abs(np.sin(SINGULAR_ALPHA * om)
                       + SINGULAR_ALPHA * np.sin(om)) <= 1e-12))

    radii = np.linspace(0.05, 1.0, 20)
    u1, g1, _ = singular_eval(np.column_stack([radii, np.zeros_like(radii)]))
    xy = -radii / np.sqrt(2.0)
    u2, g2, _ = singular_eval(np.column_stack([xy, xy]))
    n2 = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    vanish = max(np.abs(u1).max(), np.abs(g1[:, 1]).max(),
                 np.abs(u2).max(), np.abs(g2 @ n2).max())
    checks.append(("corner-edge vanishing", vanish <= 1e-12))

    u_c, _, _ = fourier_eval([0.5, 0.5])
    checks.append(("Fourier central deflection",
                   abs(u_c[0] - 0.00406) <= 1e-4))

    ok = all(flag for _, flag in checks)
    report("6 (exact-solution validation)", ok,
           ", ".join(f"{name}:{'ok' if flag else 'FAIL'}"
                     for name, flag in checks))
