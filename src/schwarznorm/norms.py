"""Hyperbolic sup-norms on the unit disk.

The pre-Schwarzian norm is sup (1-|z|^2) |P_f(z)|, the Schwarzian norm is
sup (1-|z|^2)^2 |S_f(z)|; the weights are the reciprocal powers of the
Poincare density of the disk.  The suprema of the sharp examples are
typically attained only as r -> 1, so the search runs in three phases:

1. a polar grid with radii cosine-clustered toward the boundary,
   streamed in blocks of whole rows (``_grid_starts``),
2. derivative-free simplex refinement from the 8 best grid cells
   (``_top_cells`` per block: a partition, then a stable sort of only the
   cells above the k-th value; the blocks' cells merge by a stable sort, so
   ties break in (r, theta) order as in a stable argsort of the whole
   grid), by an in-module Nelder-Mead (``_nelder_mead``)
   that follows scipy.optimize's non-adaptive method step for step on floats,
3. Richardson extrapolation of the weighted modulus in (1 - r) along the
   best ray, to detect and quantify a boundary limit.

Every reported value is backed by ``certified_lower``, the largest actually
evaluated weighted modulus; the extrapolated limit is reported as the value
only when it exceeds that certified bound.  Each point is evaluated once
per search; a pole of P_f or S_f in the disk, hit on the grid or at a
refinement point, raises :class:`SearchUnreliable`.

The grid is never held whole: each block of at most ``_GRID_BLOCK_POINTS``
= 4,096 points (16 rows of a 256x256 grid) is evaluated, counted for
singular cells and reduced to its top 8, and only a running count and a
running top 8 are kept.  A block's complex temporaries are then 64 KiB,
under glibc's default 128 KiB mmap threshold, so the allocator reuses heap
pages for them, and a 256x256 search peaks under 1 MiB.  numpy multiplies
into a temporary in place only from 256 KiB on, so a block's weights may
differ in the last bits from a larger block's, but grid values reach the
estimate only through the set of start cells.

The argmax reduction is deterministic: ties break lexicographically in
(r, theta), so a rerun gives the same bits.  Because the search is
deterministic, estimates are memoized per function and search parameters
in ``_SEARCHES``, a weak-keyed dict: repeated searches share one result,
the function is never modified, and its entries go when it does.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._integrate import richardson_limit
from .errors import DivisionBySingular, DomainError, SearchUnreliable
from .functions import AnalyticFunction

R_CAP = 1.0 - 1e-6
# Nelder-Mead starts (the best grid cells) and iterations per start
_REFINE_STARTS = 8
_REFINE_MAXITER = 200
# Points per grid block, in whole rows: 64 KiB complex temporaries
_GRID_BLOCK_POINTS = 4096
_WHICH = ("pre_schwarzian", "schwarzian")
# Extrapolation nodes r = 1 - h0 * 2^-k, k = 0..3; the finest one sits on
# the grid cap.
_RICHARDSON_H0 = 8e-6
_BOUNDARY_MARGIN = 1e-9
_SEARCHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class NormEstimate:
    """Result of one hyperbolic sup-norm search."""

    value: float
    argmax: tuple[float, float]  # polar (r, theta) of the best sample
    boundary_attained: bool
    grid_resolution: tuple[int, int]
    refinement_iterations: int
    certified_lower: float
    extrapolated: float | None

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["argmax"], d["grid_resolution"] = list(self.argmax), list(self.grid_resolution)
        return d


def _check_which(which: str) -> int:
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}, got {which!r}")
    return 1 if which == "pre_schwarzian" else 2


def weighted_modulus(f: AnalyticFunction, z: complex, which: str) -> float:
    """(1-|z|^2)|P_f(z)| or (1-|z|^2)^2 |S_f(z)| at one point.

    The one scalar evaluation of the package: the search certifies every
    candidate through it.  It runs the kind's ``_preschwarzian`` or
    ``_schwarzian`` hook on a plain complex, with the checks of the public
    scalar query: |z| < 1, and :class:`DivisionBySingular` where the hook
    gives NaN (a zero of f').
    """
    power = _check_which(which)
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("weighted modulus requested outside the disk")
    val = complex(f._preschwarzian(z) if power == 1 else f._schwarzian(z))
    if val != val:  # nan
        raise DivisionBySingular(f"f' vanishes at {z}")
    return (1.0 - abs(z) ** 2) ** power * abs(val)


def _weighted_array(f: AnalyticFunction, zs: np.ndarray, power: int) -> np.ndarray:
    vals = f._preschwarzian(zs) if power == 1 else f._schwarzian(zs)
    return (1.0 - np.abs(zs) ** 2) ** power * np.abs(vals)


def _radial_grid(n: int) -> np.ndarray:
    i = np.arange(n)
    return R_CAP * np.sin(0.5 * np.pi * i / (n - 1))


def radial_profile(
    f: AnalyticFunction, theta: float, samples: int, which: str
) -> list[tuple[float, float]]:
    """Weighted modulus along a ray, on a cosine-clustered monotone r grid.

    Singular points are emitted as gaps (the pair is dropped).
    """
    power = _check_which(which)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    rs = _radial_grid(samples)
    zs = rs * cmath.exp(1j * theta)
    try:
        w = _weighted_array(f, zs, power)
    except DivisionBySingular:
        # a hook that raises at a singular point (a Moebius pole) does so for
        # the whole ray: the ray is evaluated point by point instead
        w = [_weighted_or_nan(f, z, which) for z in zs.tolist()]
    return [(float(r), float(v)) for r, v in zip(rs, w) if not math.isnan(v)]


def _weighted_or_nan(f: AnalyticFunction, z: complex, which: str) -> float:
    try:
        return weighted_modulus(f, z, which)
    except DivisionBySingular:
        return math.nan


def _top_cells(w: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k largest cells of ``w``, largest first, ties in
    index order: the first k of ``np.argsort(-w, axis=None, kind="stable")``."""
    neg = -w.ravel()
    k = min(k, neg.size)
    if k == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(neg, k - 1)[k - 1]
    above = np.flatnonzero(neg < kth)
    above = above[np.argsort(neg[above], kind="stable")]
    return np.concatenate([above, np.flatnonzero(neg == kth)[: k - above.size]])


def _grid_starts(
    f: AnalyticFunction, rs: np.ndarray, thetas: np.ndarray, power: int, which: str
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and weights of the ``_REFINE_STARTS`` best cells of the
    polar grid ``rs`` x ``thetas``, in the order of ``_top_cells`` on the
    whole grid, with singular (NaN) cells as -inf.

    The grid is streamed in blocks of whole rows, at most
    ``_GRID_BLOCK_POINTS`` points each (one row when a row is longer), and
    only a running singular count and a running top k are kept.  A block's
    top k joins the running one by a stable sort on the value: the running
    cells come first and have the smaller flat indices, so ties still break
    in index order, and the result is the first k of a stable argsort of
    the whole grid.
    """
    k, na = _REFINE_STARTS, thetas.size
    dirs = np.exp(1j * thetas)
    rows = max(1, _GRID_BLOCK_POINTS // na)
    top, top_w = np.empty(0, dtype=np.intp), np.empty(0)
    singular = 0
    for lo in range(0, rs.size, rows):
        try:
            w = _weighted_array(f, rs[lo:lo + rows, None] * dirs[None, :], power).ravel()
        except DivisionBySingular as exc:  # a kind that raises at a pole, not NaN
            raise SearchUnreliable(f"{which} is singular on the grid: {exc}") from exc
        nan = np.isnan(w)
        if nan.any():
            singular += int(nan.sum())
            w = np.where(nan, -np.inf, w)
        cells = _top_cells(w, k)
        cand = np.concatenate([top, cells + lo * na])
        cand_w = np.concatenate([top_w, w[cells]])
        keep = np.argsort(-cand_w, kind="stable")[:k]
        top, top_w = cand[keep], cand_w[keep]
    if singular > 0.01 * rs.size * na:
        raise SearchUnreliable(f"{singular} of {rs.size * na} grid points are singular")
    return top, top_w


def _nelder_mead(
    func: Callable[[tuple[float, float]], float],
    simplex: list[tuple[float, float]],
    maxiter: int,
    xatol: float,
    fatol: float,
) -> tuple[list[tuple[float, float]], list[float], int]:
    """Minimize ``func`` on the plane from a 3-vertex starting simplex.

    This is the non-adaptive method of Nelder & Mead (Comput. J. 7 (1965)
    308) exactly as ``scipy.optimize.minimize(method="Nelder-Mead")`` runs
    it with ``initial_simplex`` and without ``maxfev``: the same reflection,
    expansion, contraction and shrink arithmetic, the same branch order, a
    stable sort of the vertices after every iteration, the xatol/fatol test
    before each one, and the iteration count starting at 1.  It therefore
    evaluates the same points in the same order, without scipy's per-call
    array overhead.  ``func`` must not return NaN.

    Returns the final simplex and its values, best first, and the
    iteration count (scipy's ``nit``).
    """
    p0, p1, p2 = simplex
    f0, f1, f2 = func(p0), func(p1), func(p2)
    nit = 0
    while True:
        # stable insertion sort of the three vertices by value
        if f1 < f0:
            p0, p1, f0, f1 = p1, p0, f1, f0
        if f2 < f1:
            p1, p2, f1, f2 = p2, p1, f2, f1
            if f1 < f0:
                p0, p1, f0, f1 = p1, p0, f1, f0
        nit += 1
        if nit >= maxiter:
            break
        (x0, y0), (x1, y1), (x2, y2) = p0, p1, p2
        if (
            abs(x1 - x0) <= xatol and abs(y1 - y0) <= xatol
            and abs(x2 - x0) <= xatol and abs(y2 - y0) <= xatol
            and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol
        ):
            break
        xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
        xr = (2 * xb - x2, 2 * yb - y2)
        fxr = func(xr)
        if fxr < f0:
            xe = (3 * xb - 2 * x2, 3 * yb - 2 * y2)
            fxe = func(xe)
            p2, f2 = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < f1:
            p2, f2 = xr, fxr
        else:
            if fxr < f2:  # outside contraction
                xc = (1.5 * xb - 0.5 * x2, 1.5 * yb - 0.5 * y2)
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (0.5 * xb + 0.5 * x2, 0.5 * yb + 0.5 * y2)
                fxc = func(xc)
                accept = fxc < f2
            if accept:
                p2, f2 = xc, fxc
            else:  # shrink toward the best vertex
                p1 = (x0 + 0.5 * (x1 - x0), y0 + 0.5 * (y1 - y0))
                f1 = func(p1)
                p2 = (x0 + 0.5 * (x2 - x0), y0 + 0.5 * (y2 - y0))
                f2 = func(p2)
    return [p0, p1, p2], [f0, f1, f2], nit


def hyperbolic_norm(
    f: AnalyticFunction,
    which: str,
    grid: tuple[int, int] = (256, 256),
) -> NormEstimate:
    """Three-phase sup search for the hyperbolic norm of P_f or S_f.  A
    pole in the disk, as a :class:`DivisionBySingular` on the grid (a Moebius
    pole on a node) or a singular refinement point, raises
    :class:`SearchUnreliable` naming ``which``."""
    power = _check_which(which)
    memo = _SEARCHES.setdefault(f, {})
    key = (which, tuple(grid))
    if key in memo:
        return memo[key]
    nr, na = grid
    if nr < 2 or na < 1:
        raise ValueError("grid must have at least 2 radii and 1 angle")
    rs = _radial_grid(nr)
    thetas = 2.0 * np.pi * np.arange(na) / na
    cells, cell_w = _grid_starts(f, rs, thetas, power, which)

    # Every certified candidate is evaluated by weighted_modulus (looked up
    # at call time), so re-evaluating it at the reported argmax reproduces
    # certified_lower exactly.  Evaluated once per z: at r = 0 every theta is
    # z = 0.  NaN marks a singular point.
    seen: dict[complex, float] = {}
    best = [-math.inf, 0.0, 0.0]
    two_pi = 2.0 * math.pi

    def objective(x) -> float:
        """Minus the weighted modulus at polar (r, theta) = x, recorded in
        ``best``; r is clamped to the cap and theta taken mod 2 pi, where
        the grid angles live."""
        r = min(abs(x[0]), R_CAP)
        theta = x[1] % two_pi
        z = r * cmath.exp(1j * theta)
        val = seen.get(z)
        if val is None:
            try:
                val = weighted_modulus(f, z, which)
            except DivisionBySingular:
                val = math.nan
            seen[z] = val
        if val != val:  # a pole of P_f or S_f: the norm is infinite
            raise SearchUnreliable(f"{which} is singular at (r, theta) = ({r}, {theta})")
        if val > best[0] or (val == best[0] and (r, theta) < (best[1], best[2])):
            best[0], best[1], best[2] = val, r, theta
        return -val

    starts = [divmod(int(k), na) for k in cells]
    for i, j in starts:
        objective((float(rs[i]), float(thetas[j])))

    total_iters = 0
    dtheta = 2.0 * np.pi / na
    for (i, j), w in zip(starts, cell_w.tolist()):
        if not math.isfinite(w):
            continue
        r0, t0 = float(rs[i]), float(thetas[j])
        dr = float(rs[min(i + 1, nr - 1)] - rs[i]) or float(rs[i] - rs[i - 1])
        # starts pinned at the cap step inward, else the simplex degenerates
        r1 = r0 + dr if r0 + dr <= R_CAP else r0 - dr
        _, _, nit = _nelder_mead(
            objective,
            [(r0, t0), (r1, t0), (r0, t0 + dtheta)],
            maxiter=_REFINE_MAXITER,
            xatol=1e-10,
            fatol=1e-12,
        )
        total_iters += nit

    certified = best[0]
    arg_r, arg_theta = best[1], best[2]

    # Boundary detection: extrapolate the weighted modulus in h = 1 - r
    # along the best ray and compare the limit against the certified bound.
    extrapolated = None
    hs = _RICHARDSON_H0 * 0.5 ** np.arange(4)
    ray = cmath.exp(1j * arg_theta)
    ray_vals = []
    for h in hs:
        z = (1.0 - h) * ray
        if z not in seen:
            try:
                seen[z] = weighted_modulus(f, z, which)
            except DivisionBySingular:
                seen[z] = math.nan
        ray_vals.append(seen[z])
    if not any(math.isnan(v) for v in ray_vals):
        extrapolated = richardson_limit(np.array(ray_vals))
    boundary = (
        extrapolated is not None
        and extrapolated > certified + _BOUNDARY_MARGIN * max(1.0, abs(certified))
    )
    value = extrapolated if boundary else certified

    est = NormEstimate(
        value=float(value),
        argmax=(arg_r, arg_theta),
        boundary_attained=boundary,
        grid_resolution=(nr, na),
        refinement_iterations=total_iters,
        certified_lower=float(certified),
        extrapolated=None if extrapolated is None else float(extrapolated),
    )
    memo[key] = est
    return est
