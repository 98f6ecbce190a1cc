"""Internal quadrature: complex path integrals along the segment [0, z]
inside the unit disk, which reconstruct f and f' of integral-defined
functions.

The integrands are analytic on the segment but their singularities sit on
the unit circle, and every panel is handled by a 16-point Gauss-Legendre
rule whose distance-to-singularity exceeds the panel length, which keeps
the rule at machine precision.  There are two routes:

- scattered points (``exp_path_integrals``, the only route for them): each
  point z is integrated on its own, over dyadically graded panels of [0, z]
  accumulating toward the endpoint.  Every ``value``, ``deriv`` and ``jet``
  query takes this route; f' alone is exp of its G output with
  ``need_outer=False``.
- rays (``ray_path_integrals``, F only): each ray is integrated once, over
  fixed graded panels, each at most half as long as the distance from its
  far end to the circle, and F at every radius is read off its panel's
  Legendre interpolant of exp(G) (dense output).  The polar-grid value hook
  (``_polar_value``) of the Schur-built members takes this route; its
  callers are ``univalence_bruteforce`` and the growth table of thm2.2.

Both routes evaluate the integrand over blocks of at most ``_BLOCK_NODES``
nodes (or one ray or panel that alone has more), so each complex temporary
is at most 128 KiB and stays in cache.  The ray route's blocks are whole
rays, so the grid's peak memory does not grow with gridsize**2; a ray's
values may differ in the last bits from one call over the whole grid,
since numpy multiplies into a temporary in place only from 256 KiB on,
which can swap the operands of a complex multiply.  The scattered route's
blocks are whole panels of all points, stacked panel-major, and G and F
accumulate panel by panel with the bits of one call per panel: elementwise
ufuncs do not depend on an element's position or the array's length, and
a block of several panels stays under 256 KiB.  A one-point query (a jet
at z != 0, a scalar ``value``) makes one call for all of its 6 to 9 panels.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial import legendre as _leg

_GL_N = 16
_GL_X, _GL_W = _leg.leggauss(_GL_N)

# Integrand nodes per block of either route: 128 KiB per complex temporary
_BLOCK_NODES = 8192

# Cumulative integration matrices on the Gauss-Legendre nodes: given values
# v_i = p(x_i), (_CUM @ v)_j approximates the antiderivative of p from -1 to
# x_j, and (legvander(x, _GL_N) @ _DENSE) @ v the same at any x in [-1, 1]
# (dense output; at the nodes those rows are _CUM).  Built by mapping node
# values to Legendre coefficients and integrating the basis exactly.
_coeff_from_vals = np.linalg.inv(_leg.legvander(_GL_X, _GL_N - 1))
_int_coeffs = np.stack([_leg.legint(e, lbnd=-1) for e in np.eye(_GL_N)], axis=1)
_CUM = _leg.legval(_GL_X, _int_coeffs).T @ _coeff_from_vals
_DENSE = _int_coeffs @ _coeff_from_vals
del _coeff_from_vals, _int_coeffs


def _panel_breaks(max_abs: float) -> np.ndarray:
    """Dyadic breakpoints of [0, 1] accumulating toward t = 1."""
    depth = max(6, int(np.ceil(np.log2(1.0 / max(1e-15, 1.0 - max_abs)))) + 2)
    breaks = [0.0] + [1.0 - 2.0 ** (-m) for m in range(1, depth)] + [1.0]
    return np.array(breaks)


def exp_path_integrals(
    p_func: Callable[[np.ndarray], np.ndarray],
    zs: np.ndarray,
    need_outer: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integrals (G, F) along [0, z] with G' = p, F' = exp(G).

    G is the continuous antiderivative of ``p_func`` vanishing at 0 (for a
    log-derivative p this avoids any branch-cut ambiguity), and
    F(z) = integral of exp(G) along the same segment.  When ``need_outer``
    is false the second entry is returned as zeros and exp(G) is never
    formed.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    g = np.zeros_like(flat)
    f = np.zeros_like(flat)
    if flat.size:
        breaks = _panel_breaks(float(np.max(np.abs(flat))))
        halves = 0.5 * np.diff(breaks)
        nodes = breaks[:-1, None] + halves[:, None] * (_GL_X + 1.0)  # (panel, node)
        step = max(1, _BLOCK_NODES // (flat.size * _GL_N))
        for lo in range(0, halves.size, step):
            # (panel, point, node): each panel is a contiguous (point, node) array
            pv_panels = p_func(flat[None, :, None] * nodes[lo : lo + step, None, :])
            for half, pv in zip(halves[lo : lo + step], pv_panels):
                scale = half * flat
                if need_outer:
                    g_nodes = g[:, None] + scale[:, None] * (pv @ _CUM.T)
                    f += scale * (np.exp(g_nodes) @ _GL_W)
                g = g + scale * (pv @ _GL_W)
    return g.reshape(zs.shape), f.reshape(zs.shape)


def _graded_breaks(r_max: float) -> np.ndarray:
    """Breaks b_0 = 0, b_{k+1} = min(r_max, (1 + 2 b_k)/3) of [0, r_max]: each
    panel is at most half as long as the distance from its far end to the
    circle (10 panels to 0.98, 12 to 0.99, 52 to 1 - 1e-9).  Near 1 the
    recurrence rounds to a fixed point (b = 1 - 3 * 2**-53); a break that does
    not move forward is replaced by r_max."""
    breaks = [0.0]
    while breaks[-1] < r_max:
        nxt = min(r_max, (1.0 + 2.0 * breaks[-1]) / 3.0)
        breaks.append(nxt if nxt > breaks[-1] else r_max)
    return np.array(breaks)


def ray_path_integrals(
    p_func: Callable[[np.ndarray], np.ndarray],
    radii: np.ndarray,
    thetas: np.ndarray,
) -> np.ndarray:
    """F of :func:`exp_path_integrals` at radii[k] * exp(i thetas[j]).

    ``radii`` must be increasing, positive and below 1.  Each ray is
    integrated once, over the graded panels of ``_graded_breaks(radii[-1])``,
    so ``p_func`` is evaluated 16 times per panel and ray, whatever the number
    of radii, over blocks of whole rays of at most ``_BLOCK_NODES`` nodes (one
    ray when a ray alone has more).  F at a radius is F at its panel's start
    plus the integral of the panel's interpolant of exp(G) up to the radius
    (dense output).  The output has shape (len(radii), len(thetas)).
    """
    radii = np.asarray(radii, dtype=float)
    dirs = np.exp(1j * np.asarray(thetas, dtype=float))
    breaks = _graded_breaks(float(radii[-1]))
    half = 0.5 * np.diff(breaks)
    nodes = breaks[:-1, None] + half[:, None] * (_GL_X + 1.0)  # (panel, node)
    panel = np.searchsorted(breaks, radii) - 1  # breaks[panel] < r <= breaks[panel + 1]
    dense = _leg.legvander((radii - breaks[panel]) / half[panel] - 1.0, _GL_N) @ _DENSE
    cuts = np.searchsorted(panel, np.arange(half.size + 1))  # radii of panel j: cuts[j]:cuts[j + 1]
    f = np.empty((radii.size, dirs.size), dtype=complex)
    step = max(1, _BLOCK_NODES // nodes.size)
    for lo in range(0, dirs.size, step):
        rays = slice(lo, lo + step)
        f[:, rays] = _ray_block(p_func, dirs[rays], nodes, half, dense, cuts)
    return f


def _ray_block(p_func, dirs, nodes, half, dense, cuts):
    """F at every radius of the rays ``dirs``, shape (radius, ray)."""
    w = dirs[:, None, None] * nodes[None, :, :]  # (ray, panel, node)
    pv = p_func(w)
    scale = dirs[:, None] * half[None, :]
    g = np.cumsum(scale * (pv @ _GL_W), axis=1)
    g_start = np.concatenate([np.zeros((dirs.size, 1)), g[:, :-1]], axis=1)
    fp = np.exp(g_start[:, :, None] + scale[:, :, None] * (pv @ _CUM.T))
    f_end = np.cumsum(scale * (fp @ _GL_W), axis=1)
    f = np.empty((cuts[-1], dirs.size), dtype=complex)
    f_start = 0.0
    # one small product per panel: one product over all radii at once is
    # large enough for OpenBLAS to run it on several threads
    for j in range(half.size):
        rows = slice(cuts[j], cuts[j + 1])
        f[rows] = f_start + scale[:, j] * (dense[rows] @ fp[:, j].T)
        f_start = f_end[:, j]
    return f


def richardson_limit(values: np.ndarray) -> float:
    """Limit of v(h) as h -> 0 from samples at h0, h0/2, h0/4, ...

    Neville elimination of the h, h^2, ... terms assuming a smooth
    expansion; ``values[k]`` is the sample at step ``h0 * 2**-k``.
    """
    t = [float(v) for v in values]
    n = len(t)
    for j in range(1, n):
        fac = 2.0**j
        for i in range(n - 1, j - 1, -1):
            t[i] = (fac * t[i] - t[i - 1]) / (fac - 1.0)
    return t[-1]
