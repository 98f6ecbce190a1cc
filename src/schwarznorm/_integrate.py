"""Internal quadrature helpers.

Two kinds of integrals show up:

* real integrals on [0, r] for growth bounds -- handled by a plain
  recursive adaptive Simpson rule with a hard depth cap;
* complex path integrals along the segment [0, z] inside the unit disk,
  for reconstructing f and f' of integral-defined functions.  The
  integrands are analytic on the segment but their singularities sit on
  the unit circle, and every panel is handled by a 16-point
  Gauss-Legendre rule whose distance-to-singularity exceeds the panel
  length, which keeps the rule at machine precision.  There are two
  routes:

  - scattered points (``exp_path_integrals``, the only route for them):
    each point z is integrated on its own, over dyadically graded panels
    of [0, z] accumulating toward the endpoint.  Every ``value``,
    ``deriv`` and ``jet`` query takes this route; f' alone is exp of its
    G output with ``need_outer=False``.
  - polar grids (``ray_path_integrals``, F only): each ray is integrated
    once, with one panel between neighbouring radii, and the values at all
    radii are cumulative sums of the panel integrals.  The polar-grid value
    hook (``_polar_value``) of the Schur-built members takes this route,
    and ``univalence_bruteforce`` is its caller.  A gap longer than the
    distance from the last radius to the circle is split into equal panels.

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

# Cumulative integration matrix on the Gauss-Legendre nodes: given values
# v_i = p(x_i), (CUM @ v)_j approximates the antiderivative of p from -1
# to x_j.  Built by mapping node values to Legendre coefficients and
# integrating the basis exactly.
_vander = _leg.legvander(_GL_X, _GL_N - 1)
_coeff_from_vals = np.linalg.inv(_vander)
_int_basis = np.empty((_GL_N, _GL_N))
for _k in range(_GL_N):
    _e = np.zeros(_GL_N)
    _e[_k] = 1.0
    _int_basis[:, _k] = _leg.legval(_GL_X, _leg.legint(_e, lbnd=-1))
_CUM = _int_basis @ _coeff_from_vals
del _vander, _coeff_from_vals, _int_basis, _e, _k


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


def ray_path_integrals(
    p_func: Callable[[np.ndarray], np.ndarray],
    radii: np.ndarray,
    thetas: np.ndarray,
) -> np.ndarray:
    """F of :func:`exp_path_integrals` at radii[k] * exp(i thetas[j]).

    ``radii`` must be increasing, positive and below 1.  Each ray is cut
    at 0 and at every radius, and each gap is split into the fewest equal
    panels no longer than the distance from the last radius to the circle.
    With radii that close together (0.98 * k/n for n >= 49) that is one
    panel per gap, and ``p_func`` is evaluated 16 times per grid node, over
    blocks of whole rays of at most ``_BLOCK_NODES`` nodes (one ray when a
    ray alone has more).  The output has shape (len(radii), len(thetas)).
    """
    radii = np.asarray(radii, dtype=float)
    dirs = np.exp(1j * np.asarray(thetas, dtype=float))
    breaks = np.concatenate([[0.0], radii])
    gaps = np.diff(breaks)
    m = max(1, int(np.ceil(gaps.max() / (1.0 - radii[-1]))))
    half = np.repeat(0.5 * gaps / m, m)
    starts = np.repeat(breaks[:-1], m) + 2.0 * half * np.tile(np.arange(m), radii.size)
    nodes = starts[:, None] + half[:, None] * (_GL_X + 1.0)
    f = np.empty((radii.size, dirs.size), dtype=complex)
    step = max(1, _BLOCK_NODES // nodes.size)
    for lo in range(0, dirs.size, step):
        rays = slice(lo, lo + step)
        f[:, rays] = _ray_block(p_func, dirs[rays], nodes, half)[:, m - 1 :: m].T
    return f


def _ray_block(p_func, dirs, nodes, half):
    """F at the end of every panel of the rays ``dirs``, shape (ray, panel)."""
    w = dirs[:, None, None] * nodes[None, :, :]  # (ray, panel, node)
    pv = p_func(w)
    scale = dirs[:, None] * half[None, :]
    g = np.cumsum(scale * (pv @ _GL_W), axis=1)
    g_start = np.concatenate([np.zeros((dirs.size, 1)), g[:, :-1]], axis=1)
    g_nodes = g_start[:, :, None] + scale[:, :, None] * (pv @ _CUM.T)
    return np.cumsum(scale * (np.exp(g_nodes) @ _GL_W), axis=1)


# Recursion depth cap of ``adaptive_simpson``
_SIMPSON_MAX_DEPTH = 30


def adaptive_simpson(
    func: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
) -> float:
    """Recursive adaptive Simpson rule with Richardson correction."""
    if a == b:
        return 0.0
    fa, fb = func(a), func(b)
    m = 0.5 * (a + b)
    fm = func(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(func, a, b, fa, fm, fb, whole, tol, _SIMPSON_MAX_DEPTH)


def _simpson_rec(func, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = func(lm)
    frm = func(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = (left + right - whole) / 15.0
    if depth <= 0 or abs(err) <= tol:
        return left + right + err
    return _simpson_rec(func, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_rec(
        func, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


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
