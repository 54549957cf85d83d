"""Spans around the library's layers, recorded from outside the library.

The tracer replaces module attributes of ``platedpg`` with thin wrappers
for the duration of one traced unit and restores them afterwards, so the
library itself is never edited.  Spans live in memory until the unit
ends; ``run.py`` writes them out when the run ends.

A span is ``(level, depth, name, start, end, counts)``: ``level`` is the
refinement level (or refine round) that was running, ``depth`` the
nesting level (0 for the level span itself, 1 for a layer called by the
loop, 2 for a layer called by a layer), ``start`` and ``end`` seconds
since the unit started.
"""

import time

import numpy as np
import scipy.sparse.linalg as spla


class Tracer:
    def __init__(self):
        self.spans = []
        self.level = 0
        self._depth = 0
        self._t0 = None
        self._level_start = None
        self._patches = []
        # kept from the last level for numbers computed after the unit
        self.last_matrix = None       # assembled system, for LU fill
        self.last_grams = None        # stacked element Gram matrices

    # -- spans ---------------------------------------------------------

    def start_unit(self):
        self._t0 = self._level_start = time.perf_counter()

    def begin_level(self):
        self._level_start = time.perf_counter()

    def end_level(self, name):
        """Close the level span opened by :meth:`begin_level`, by
        :meth:`start_unit` or by the previous :meth:`end_level`."""
        now = time.perf_counter()
        self.spans.append((self.level, 0, name, self._level_start - self._t0,
                           now - self._t0, {}))
        self.level += 1
        self._level_start = now

    def call(self, name, fn, args, kwargs, count):
        self._depth += 1
        depth = self._depth
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._depth -= 1
        counts = count(args, out) if count else {}
        self.spans.append((self.level, depth, name, start - self._t0,
                           end - self._t0, counts))
        return out

    # -- patching ------------------------------------------------------

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def patch(self, owners, attr, name, count=None):
        """Replace ``owner.attr`` on every owner by one traced wrapper until
        :meth:`unpatch`.  Owners that imported the same function by name
        share the wrapper, so each call is recorded once."""
        traced = self.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, problem):
        """Wrap every public function the adaptive loop calls."""
        from platedpg import driver, dpg, mesh, spaces

        self.patch([mesh, driver], "nvb_refine", "mesh.nvb_refine",
                   _count_refine)
        self.patch([spaces, driver], "build_dofmap", "spaces.build_dofmap",
                   _count_dofmap)
        self.patch([problem], "bc_builder", "spaces.bc_builder")
        self.patch([dpg], "assemble", "dpg.assemble", self._count_assemble)
        self.patch([dpg], "build_element_systems",
                   "dpg.build_element_systems", self._count_kernels)
        self.patch([driver], "spd_solve", "linalg.spd_solve", _count_solve)
        self.patch([dpg], "estimate", "dpg.estimate", _count_estimate)
        self.patch([driver], "l2_errors", "problems.l2_errors")
        self.patch([driver], "dorfler_mark", "driver.dorfler_mark",
                   lambda args, out: {"marked": len(out)})

    # -- counts kept by the wrappers ------------------------------------

    def _count_assemble(self, args, system):
        self.last_matrix = system.A
        return {"nnz": int(system.A.nnz)}

    def _count_kernels(self, args, systems):
        # a copy as one array, so the unit's element systems are freed as
        # they would be untraced
        self.last_grams = np.stack([loc.G for loc in systems.locals])
        return {"elements": int(args[0].num_triangles)}


def _count_refine(args, out):
    mesh, marked = args[0], args[1]
    return {"marked": len(set(int(t) for t in marked)),
            "bisections": out.num_triangles - mesh.num_triangles}


def _count_dofmap(args, dofmap):
    return {"free_dofs": int(dofmap.free_dim),
            "full_dofs": int(dofmap.full_dim)}


def _count_solve(args, out):
    report = out[1]
    return {"cg_iters": int(report.iterations),
            "rel_residual": float(report.relative_residual)}


def _count_estimate(args, est):
    per = est.per_element
    return {"eta_max_over_mean": float(per.max() / per.mean())
            if per.size and per.mean() > 0 else 0.0}


def lu_fill(matrix):
    """nnz(L) + nnz(U) of the same SuperLU factorization ``spd_solve``
    computes (default column ordering)."""
    lu = spla.splu(matrix.tocsc())
    return int(lu.L.nnz + lu.U.nnz)


def gram_cond_max(grams):
    """Largest 2-norm condition number of stacked element Gram matrices."""
    return float(np.linalg.cond(grams).max())


def layer_metrics(spans):
    """Per-layer numbers of one traced unit from its spans.

    Times are summed over the unit's levels.  ``elements``, ``bisections``
    and ``marked`` are totals; ``nnz``, ``free_dofs`` and ``full_dofs``
    describe the last (largest) level.
    """
    time_in = {}
    total = {}
    last = {}
    maxima = {}
    for _, _, name, start, end, counts in spans:
        time_in[name] = time_in.get(name, 0.0) + (end - start)
        for key, value in counts.items():
            total[(name, key)] = total.get((name, key), 0) + value
            last[(name, key)] = value
            maxima[(name, key)] = max(maxima.get((name, key), value), value)

    def t(name):
        return time_in.get(name, 0.0)

    level_time = sum(e - s for _, d, _, s, e, _ in spans if d == 0)
    child_time = sum(e - s for _, d, _, s, e, _ in spans if d == 1)
    elements = total.get(("dpg.build_element_systems", "elements"), 0)
    bisections = total.get(("mesh.nvb_refine", "bisections"), 0)
    marked_refine = total.get(("mesh.nvb_refine", "marked"), 0)
    return {
        "dpg.kernels_s": t("dpg.build_element_systems"),
        "dpg.kernels_us_per_elem": (1e6 * t("dpg.build_element_systems")
                                    / elements if elements else 0.0),
        "dpg.elements": elements,
        "dpg.assemble_s": t("dpg.assemble") - t("dpg.build_element_systems"),
        "dpg.nnz": last.get(("dpg.assemble", "nnz"), 0),
        "linalg.solve_s": t("linalg.spd_solve"),
        "linalg.cg_iters": total.get(("linalg.spd_solve", "cg_iters"), 0),
        "linalg.rel_residual_max": maxima.get(
            ("linalg.spd_solve", "rel_residual"), 0.0),
        "dpg.estimate_s": t("dpg.estimate"),
        "dpg.eta_max_over_mean": last.get(
            ("dpg.estimate", "eta_max_over_mean"), 0.0),
        "problems.l2_s": t("problems.l2_errors"),
        "mesh.refine_s": t("mesh.nvb_refine"),
        "mesh.bisections": bisections,
        "mesh.marked_ratio": marked_refine / bisections if bisections else 0.0,
        "spaces.dofmap_s": t("spaces.bc_builder") + t("spaces.build_dofmap"),
        "spaces.free_dofs": last.get(("spaces.build_dofmap", "free_dofs"), 0),
        "spaces.full_dofs": last.get(("spaces.build_dofmap", "full_dofs"), 0),
        "driver.mark_s": t("driver.dorfler_mark"),
        "driver.marked": total.get(("driver.dorfler_mark", "marked"), 0),
        "driver.other_s": level_time - child_time,
    }
