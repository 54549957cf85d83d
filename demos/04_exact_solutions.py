"""The two reference solutions behind the benchmarks.

The square benchmark compares against a truncated double sine series for
the simply supported plate under unit load; the corner benchmark against
a closed-form r^(1+alpha) deflection whose moment field is singular at
the reentrant corner.  This script prints the numbers that validate both
evaluators.
"""

import numpy as np

from platedpg.problems import (SINGULAR_ALPHA, SINGULAR_C, ZSHAPE_OPENING,
                               fourier_eval, singular_eval)

# --- series solution on the square ---------------------------------------
u, grad, M = fourier_eval([0.5, 0.5])
print("simply supported square, unit load:")
print(f"  centre deflection u(1/2,1/2) = {u[0]:.6f}   "
      "(classical coefficient 0.00406)")
print(f"  centre curvature -u_xx = -u_yy = {M[0, 0, 0]:.6f}   "
      "(times 1 + nu gives the classical moment 0.0479 at nu = 0.3)")
edge = fourier_eval(np.column_stack([np.zeros(5), np.linspace(0, 1, 5)]))[0]
print(f"  max |u| on the edge x = 0:   {np.abs(edge).max():.1e}")

# --- corner singularity ----------------------------------------------------
print("\nreentrant corner (interior opening 5*pi/4):")
print(f"  exponent alpha = {SINGULAR_ALPHA}  amplitude C = {SINGULAR_C}")
res = abs(np.sin(SINGULAR_ALPHA * ZSHAPE_OPENING)
          + SINGULAR_ALPHA * np.sin(ZSHAPE_OPENING))
print(f"  clamped-corner characteristic equation residual: {res:.1e}")

radii = np.linspace(0.05, 1.0, 20)
u1, g1, _ = singular_eval(np.column_stack([radii, np.zeros_like(radii)]))
print(f"  max |u|, |du/dn| on the edge y = 0, x > 0:  "
      f"{np.abs(u1).max():.1e}, {np.abs(g1[:, 1]).max():.1e}")
xy = -radii / np.sqrt(2)
u2, g2, _ = singular_eval(np.column_stack([xy, xy]))
n = np.array([-1.0, 1.0]) / np.sqrt(2)
print(f"  max |u|, |du/dn| on the edge y = x, x < 0:  "
      f"{np.abs(u2).max():.1e}, {np.abs(g2 @ n).max():.1e}")

_, _, M = singular_eval([[0.1, 1e-4], [0.01, 1e-4], [0.001, 1e-4]])
print("  moment magnitude growth towards the corner "
      f"(r = 0.1, 0.01, 0.001): {[f'{np.abs(m).max():.1f}' for m in M]}")
