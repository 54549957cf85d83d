"""Benchmark problems, exact solutions, L2 errors.

The bending law is ``M = -Hessian(u)`` throughout (unit rigidity, zero
Poisson ratio), so the exact moment reported for errors is the negative
Hessian of the exact deflection.  Each exact solution,
:func:`fourier_eval` or :func:`singular_eval`, is the ``fields`` of its
:class:`ExactSolution`.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh, dyadic_shape, mesh_from_arrays, unit_square_mesh
from .polyquad import ERROR_RULE
from .spaces import BCSpec, interpolate_uhat_bc, simply_supported_bc

# singular exponent and amplitude of the reentrant-corner solution; the
# exponent satisfies sin(alpha*omega) + alpha*sin(omega) = 0 for the
# interior opening omega = 5 pi / 4
SINGULAR_ALPHA = 0.673583432147380
SINGULAR_C = 1.234587795273723
ZSHAPE_OPENING = 5.0 * np.pi / 4.0
L2_CHUNK = 256        # cells per chunk of the L2 error pass: 12.5k points
L2_SUBDIVISIONS = 4   # dyadic quadrisections of a corner triangle
FOURIER_N_MAX = 15    # fourier_eval sums the odd harmonics 2j + 1, j <= 15


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------

def _pack_fields(u, grad, uxx, uxy, uyy):
    """(u, grad, M = -Hessian) at n points: (n,), (n, 2), (n, 2, 2)."""
    return u, grad, -np.stack([uxx, uxy, uxy, uyy], axis=-1).reshape(-1, 2, 2)


def odd_harmonics(t, n_max):
    """sin and cos of (2j + 1) pi t, j = 0..n_max, as contiguous (n_max + 1,
    n) arrays, by angle addition from one sin and one cos of pi t."""
    S, C = np.empty((2, n_max + 1, t.size))
    S[0], C[0] = np.sin(np.pi * t), np.cos(np.pi * t)
    s2, c2 = 2.0 * S[0] * C[0], C[0] ** 2 - S[0] ** 2
    for j in range(n_max):
        S[j + 1] = S[j] * c2 + C[j] * s2
        C[j + 1] = C[j] * c2 - S[j] * s2
    return S, C


def fourier_eval(points):
    """Simply supported square under unit load: the double sine series
    to :data:`FOURIER_N_MAX` for u, its gradient and the moment
    ``-Hessian`` at points (n, 2), or at one point (2,) as n = 1.

    The amplitude 16/pi^6 is forced by the biharmonic equation applied
    term-wise to the sine expansion of the constant load.
    """
    x, y = np.atleast_2d(np.asarray(points, dtype=float)).T

    k = np.pi * (2 * np.arange(FOURIER_N_MAX + 1) + 1.0)  # (n,)
    amp = 16.0 / np.pi ** 6 / np.multiply.outer(
        k / np.pi, k / np.pi)                             # 1/(ab)
    amp /= (np.add.outer((k / np.pi) ** 2, (k / np.pi) ** 2)) ** 2

    sx, cx = odd_harmonics(x, FOURIER_N_MAX)
    sy, cy = odd_harmonics(y, FOURIER_N_MAX)

    def rows(X, a, Y):                 # sum_ab X_aq a_ab Y_bq
        return np.einsum("bq,bq->q", a.T @ X, Y)

    kc, kr = k[:, None], k[None, :]
    u = rows(sx, amp, sy)
    ux = rows(cx, kc * amp, sy)
    uy = rows(sx, amp * kr, cy)
    uxx = -rows(sx, kc ** 2 * amp, sy)
    uyy = -rows(sx, amp * kr ** 2, sy)
    uxy = rows(cx, kc * amp * kr, cy)

    grad = np.stack([ux, uy], axis=-1)
    return _pack_fields(u, grad, uxx, uxy, uyy)


def singular_eval(points):
    """Reentrant-corner solution ``r^(1+alpha) (cos((alpha+1) psi) +
    C cos((alpha-1) psi))`` in the bisector frame ``psi = phi - 5 pi/8``,
    where ``phi`` in [0, 5 pi/4] measures the interior angle from the edge
    along the positive x-axis.

    Returns deflection, gradient and moment ``-Hessian`` at points
    (n, 2), or at one point (2,) as n = 1.  The deflection and gradient
    vanish at the corner and are returned exactly as zero there; the
    moment is singular at the corner and a zero placeholder is returned
    for that point.
    """
    x, y = np.atleast_2d(np.asarray(points, dtype=float)).T

    r = np.hypot(x, y)
    phi = np.arctan2(y, x)
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
    psi = phi - ZSHAPE_OPENING / 2.0

    a, C = SINGULAR_ALPHA, SINGULAR_C
    mu = 1.0 + a
    n1, n2 = 1.0 + a, a - 1.0
    c1, s1 = np.cos(n1 * psi), np.sin(n1 * psi)
    c2, s2 = np.cos(n2 * psi), np.sin(n2 * psi)
    g = c1 + C * c2
    gp = -n1 * s1 - C * n2 * s2
    gpp = -n1 ** 2 * c1 - C * n2 ** 2 * c2

    interior = r > 0.0
    rs = np.where(interior, r, 1.0)
    cg, sg = np.cos(phi), np.sin(phi)

    u = np.where(interior, rs ** mu * g, 0.0)
    F1 = mu * cg * g - sg * gp
    F2 = mu * sg * g + cg * gp
    rpow = rs ** (mu - 1.0)
    grad = np.where(interior[:, None],
                    rpow[:, None] * np.stack([F1, F2], axis=1), 0.0)

    dF1 = -mu * sg * g + (mu - 1.0) * cg * gp - sg * gpp
    dF2 = mu * cg * g + (mu - 1.0) * sg * gp + cg * gpp
    rfac = np.where(interior, rpow / rs, 0.0)
    uxx = rfac * ((mu - 1.0) * cg * F1 - sg * dF1)
    uxy = rfac * ((mu - 1.0) * sg * F1 + cg * dF1)
    uyy = rfac * ((mu - 1.0) * sg * F2 + cg * dF2)

    return _pack_fields(u, grad, uxx, uxy, uyy)


class Singularity(NamedTuple):
    """Declares u positively homogeneous of ``degree`` about ``point`` s:
    ``u(s + lam q) = lam**degree u(s + q)``, hence ``M(s + lam q) =
    lam**(degree - 2) M(s + q)``, for every lam > 0."""
    point: tuple
    degree: float


@dataclass(frozen=True)
class ExactSolution:
    """``fields`` maps points (n, 2) to u (n,), grad (n, 2) and M
    (n, 2, 2) in one evaluation.  ``singularity``, when set, names the
    point where M is unbounded and the homogeneity about it;
    ``l2_errors`` keeps its corner-cell moments here."""
    fields: Callable
    singularity: Optional[Singularity] = None
    _corner_moments: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)


# ---------------------------------------------------------------------------
# problem definitions
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    name: str
    initial_mesh: Mesh
    f: Optional[Callable]                    # load over (n, 2) points, or None
    bc_builder: Callable[[Mesh], BCSpec]
    exact: Optional[ExactSolution] = None


def zshape_mesh():
    """Five right isosceles triangles fanned around the reentrant corner
    of the polygon (0,0), (1,0), (1,1), (-1,1), (-1,-1)."""
    coords = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0),
              (-1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0)]
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6)]
    return mesh_from_arrays(coords, tris)


def builtin_square_problem():
    """Simply supported unit square, constant load."""
    return ProblemSpec(
        name="square",
        initial_mesh=unit_square_mesh(),
        f=lambda pts: np.ones(len(np.atleast_2d(pts))),
        bc_builder=simply_supported_bc,
        exact=ExactSolution(fourier_eval))


def builtin_zshape_problem():
    """Clamped plate with a reentrant corner, zero load, boundary data
    interpolated from the singular solution."""
    exact = ExactSolution(singular_eval,
                          Singularity((0.0, 0.0), 1.0 + SINGULAR_ALPHA))
    return ProblemSpec(
        name="zshape",
        initial_mesh=zshape_mesh(),
        f=None,
        bc_builder=partial(interpolate_uhat_bc, exact.fields),
        exact=exact)


# the built-in problems by name: the CLI's --problem choices
PROBLEMS = {"square": builtin_square_problem,
            "zshape": builtin_zshape_problem}


def builtin_problem(name):
    if name not in PROBLEMS:
        raise ConfigurationError(f"unknown problem {name!r}")
    return PROBLEMS[name]()


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def _subdivide(cells, levels):
    """Dyadic quadrisection of stacked triangles (m, 3, 2), ``levels``
    deep; the 4**levels children of cell i follow one another."""
    for _ in range(levels):
        p0, p1, p2 = cells[:, 0], cells[:, 1], cells[:, 2]
        m01, m12, m02 = 0.5 * (p0 + p1), 0.5 * (p1 + p2), 0.5 * (p0 + p2)
        cells = np.stack([np.stack(c, axis=1) for c in
                          ((p0, m01, m02), (m01, p1, m12), (m02, m12, p2),
                           (m01, m12, m02))], axis=1).reshape(-1, 3, 2)
    return cells


def _cell_values(cells, fields):
    """Quadrature weights (m, q) and the exact u (m, q) and moment
    components M_xx, M_xy, M_yy (m, q, 3), chunk by chunk of cells, with
    the slice of cells each chunk covers."""
    for lo in range(0, len(cells), L2_CHUNK):
        c = slice(lo, lo + L2_CHUNK)
        pts, w = ERROR_RULE.map_to(cells[c])          # (m, q, 2), (m, q)
        u, _, M = fields(pts.reshape(-1, 2))
        yield (c, w, np.reshape(u, w.shape),
               np.reshape(M, w.shape + (4,))[..., [0, 1, 3]])


def _frobenius_sq(M):
    """|M|^2 of symmetric tensors given as components (xx, xy, yy)."""
    return M[..., 0] ** 2 + 2.0 * M[..., 1] ** 2 + M[..., 2] ** 2


def _corner_moments(shapes, s, fields):
    """Seven moments ``sum w [1, u, u^2, M_xx, M_xy, M_yy, |M|^2]`` of the
    exact solution over the ``4**L2_SUBDIVISIONS`` dyadic cells of each
    shape ``s + shapes[i]``; returns (k, 7)."""
    cells = _subdivide(shapes + s, L2_SUBDIVISIONS)
    per_cell = np.concatenate([
        np.stack([w, w * u, w * u * u, *np.moveaxis(w[..., None] * M, -1, 0),
                  w * _frobenius_sq(M)], axis=-1).sum(axis=1)
        for _, w, u, M in _cell_values(cells, fields)])
    return per_cell.reshape(len(shapes), -1, 7).sum(axis=1)


def l2_errors(mesh, solution, exact):
    """L2 errors of the piecewise-constant fields against an exact
    solution.

    A triangle with a vertex at the singular point s of
    ``exact.singularity`` is integrated on ``4**L2_SUBDIVISIONS`` dyadic
    cells, once per similarity class: written as ``T = s + lam T'`` by
    :func:`~platedpg.mesh.dyadic_shape`, with lam a power of two and the
    vertices of T' in the order of T (the rule is not symmetric), its cell
    sums follow from seven moments of T' by the homogeneity degree.  The
    moments are computed the first time T' is seen and kept on ``exact``.
    """
    u_field = np.asarray(solution.u, dtype=float)
    M_field = np.asarray(solution.M, dtype=float)

    corner = np.zeros(mesh.num_triangles, dtype=bool)
    if exact.singularity is not None:
        s = np.asarray(exact.singularity.point, dtype=float)
        corner = (mesh.coords == s).all(axis=1)[mesh.tri_vertices].any(axis=1)
    regular, singular = np.nonzero(~corner)[0], np.nonzero(corner)[0]

    eu2 = em2 = 0.0
    for c, w, u, M in _cell_values(
            np.take(mesh.coords, mesh.tri_vertices[regular], axis=0),
            exact.fields):
        eu2 += np.sum(w * (u - u_field[regular[c], None]) ** 2)
        em2 += np.sum(w * _frobenius_sq(M - M_field[regular[c], None]))

    if singular.size:
        Q, e = dyadic_shape(
            np.take(mesh.coords, mesh.tri_vertices[singular], axis=0) - s)
        lam = np.ldexp(1.0, e)
        keys = [q.tobytes() for q in Q]
        cache = exact._corner_moments
        new = {k: q for k, q in zip(keys, Q) if k not in cache}
        if new:
            cache.update(zip(new, _corner_moments(
                np.array(list(new.values())), s, exact.fields)))
        m = np.array([cache[k] for k in keys])                   # (k, 7)
        mu = exact.singularity.degree
        a, b = lam ** mu, lam ** (mu - 2.0)
        # expanded squares: on a corner triangle u - c and M - C are as
        # large as u and M (u vanishes at s, M is unbounded), so the
        # expansion cancels no leading digits
        c, C = u_field[singular], M_field[singular]
        CM = np.sum(C * m[:, 3:6] * [1.0, 2.0, 1.0], axis=1)
        eu2 += np.sum(lam ** 2 * (a * a * m[:, 2] - 2.0 * a * c * m[:, 1]
                                  + c * c * m[:, 0]))
        em2 += np.sum(lam ** 2 * (b * b * m[:, 6] - 2.0 * b * CM
                                  + _frobenius_sq(C) * m[:, 0]))
    return float(np.sqrt(eu2)), float(np.sqrt(em2))
