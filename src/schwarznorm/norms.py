"""Hyperbolic sup-norms on the unit disk.

The pre-Schwarzian norm is sup (1-|z|^2) |P_f(z)|, the Schwarzian norm is
sup (1-|z|^2)^2 |S_f(z)|; the weights are the reciprocal powers of the
Poincare density of the disk.  The suprema of the sharp examples are
typically attained only as r -> 1, so the search runs in three phases:

1. a polar grid with radii cosine-clustered toward the boundary,
2. derivative-free simplex refinement from the best grid cells, by an
   in-module Nelder-Mead (``_nelder_mead``) that follows scipy.optimize's
   non-adaptive method step for step on Python floats,
3. Richardson extrapolation of the weighted modulus in (1 - r) along the
   best ray, to detect and quantify a boundary limit.

Every reported value is backed by ``certified_lower``, the largest actually
evaluated weighted modulus; the extrapolated limit is reported as the value
only when it exceeds that certified bound.  Grid evaluation is chunked
(optionally across a thread pool) with a deterministic argmax reduction:
ties break lexicographically in (r, theta), and results are bit-identical
for any worker count.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._integrate import richardson_limit
from .errors import DivisionBySingular, DomainError, SearchUnreliable
from .functions import AnalyticFunction

R_CAP = 1.0 - 1e-6
_WHICH = ("pre_schwarzian", "schwarzian")
# Extrapolation nodes r = 1 - h0 * 2^-k, k = 0..3; the finest one sits on
# the grid cap.
_RICHARDSON_H0 = 8e-6
_BOUNDARY_MARGIN = 1e-9


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
        return {
            "value": self.value,
            "argmax": [self.argmax[0], self.argmax[1]],
            "boundary_attained": self.boundary_attained,
            "grid_resolution": [self.grid_resolution[0], self.grid_resolution[1]],
            "refinement_iterations": self.refinement_iterations,
            "certified_lower": self.certified_lower,
            "extrapolated": self.extrapolated,
        }


def _check_which(which: str) -> int:
    if which not in _WHICH:
        raise ValueError(f"which must be one of {_WHICH}, got {which!r}")
    return 1 if which == "pre_schwarzian" else 2


def weighted_modulus(f: AnalyticFunction, z: complex, which: str) -> float:
    """(1-|z|^2)|P_f(z)| or (1-|z|^2)^2 |S_f(z)|."""
    power = _check_which(which)
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("weighted modulus requested outside the disk")
    val = f.preschwarzian(z) if power == 1 else f.schwarzian(z)
    return (1.0 - abs(z) ** 2) ** power * abs(val)


def _weighted_array(f: AnalyticFunction, zs: np.ndarray, power: int) -> np.ndarray:
    vals = f._preschwarzian(zs) if power == 1 else f._schwarzian(zs)
    return (1.0 - np.abs(zs) ** 2) ** power * np.abs(vals)


def _radial_grid(n: int, r_cap: float) -> np.ndarray:
    i = np.arange(n)
    return r_cap * np.sin(0.5 * np.pi * i / (n - 1))


def radial_profile(
    f: AnalyticFunction, theta: float, samples: int, which: str
) -> list[tuple[float, float]]:
    """Weighted modulus along a ray, on a cosine-clustered monotone r grid.

    Singular points are emitted as gaps (the pair is dropped).
    """
    power = _check_which(which)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rs = _radial_grid(samples, R_CAP)
    zs = rs * cmath.exp(1j * theta)
    w = _weighted_array(f, zs, power)
    return [(float(r), float(v)) for r, v in zip(rs, w) if not math.isnan(v)]


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
    sim = list(simplex)
    fsim = [func(p) for p in sim]

    def _sort():
        order = sorted(range(3), key=fsim.__getitem__)
        sim[:] = [sim[k] for k in order]
        fsim[:] = [fsim[k] for k in order]

    _sort()
    nit = 1
    while nit < maxiter:
        (x0, y0), (x1, y1), (x2, y2) = sim
        f0, f1, f2 = fsim
        if all(
            d <= xatol
            for d in (abs(x1 - x0), abs(y1 - y0), abs(x2 - x0), abs(y2 - y0))
        ) and abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol:
            break
        xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
        xr = (2 * xb - x2, 2 * yb - y2)
        fxr = func(xr)
        if fxr < f0:
            xe = (3 * xb - 2 * x2, 3 * yb - 2 * y2)
            fxe = func(xe)
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < f1:
            sim[2], fsim[2] = xr, fxr
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
                sim[2], fsim[2] = xc, fxc
            else:  # shrink toward the best vertex
                for j in (1, 2):
                    xj, yj = sim[j]
                    sim[j] = (x0 + 0.5 * (xj - x0), y0 + 0.5 * (yj - y0))
                    fsim[j] = func(sim[j])
        nit += 1
        _sort()
    return sim, fsim, nit


def hyperbolic_norm(
    f: AnalyticFunction,
    which: str,
    grid: tuple[int, int] = (256, 256),
    workers: int | None = None,
    r_cap: float = R_CAP,
    refine_starts: int = 8,
    refine_maxiter: int = 200,
) -> NormEstimate:
    """Three-phase sup search for the hyperbolic norm of P_f or S_f."""
    power = _check_which(which)
    # Searches are pure in everything but `workers` (which only chunks the
    # grid), so results are memoized per function instance.
    cache_key = (which, tuple(grid), r_cap, refine_starts, refine_maxiter)
    cache = getattr(f, "_norm_cache", None)
    if cache is None:
        cache = {}
        setattr(f, "_norm_cache", cache)
    if cache_key in cache:
        return cache[cache_key]
    nr, na = grid
    if nr < 2 or na < 1:
        raise ValueError("grid must have at least 2 radii and 1 angle")
    rs = _radial_grid(nr, r_cap)
    thetas = 2.0 * np.pi * np.arange(na) / na
    zgrid = rs[:, None] * np.exp(1j * thetas)[None, :]

    w = np.empty((nr, na))
    chunks = max(1, int(workers or 1) * 4)
    bounds = np.linspace(0, nr, chunks + 1, dtype=int)
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def _fill(span):
        lo, hi = span
        w[lo:hi] = _weighted_array(f, zgrid[lo:hi], power)

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_fill, spans))
    else:
        for span in spans:
            _fill(span)

    singular = np.isnan(w)
    if singular.sum() > 0.01 * w.size:
        raise SearchUnreliable(
            f"{int(singular.sum())} of {w.size} grid points are singular"
        )
    w_clean = np.where(singular, -np.inf, w)

    # Deterministic scalar evaluation used for every certified candidate,
    # so re-evaluating weighted_modulus at the reported argmax reproduces
    # certified_lower exactly.
    def _scalar(r: float, theta: float) -> float:
        z = r * cmath.exp(1j * theta)
        try:
            return weighted_modulus(f, z, which)
        except DivisionBySingular:
            return math.nan

    best = [-math.inf, 0.0, 0.0]

    def _record(r: float, theta: float) -> float:
        val = _scalar(r, theta)
        if math.isnan(val):
            return val
        if val > best[0] or (val == best[0] and (r, theta) < (best[1], best[2])):
            best[0], best[1], best[2] = val, r, theta
        return val

    # Top grid cells (first occurrence = lexicographic (r, theta) order).
    order = np.argsort(-w_clean, axis=None, kind="stable")
    starts = [np.unravel_index(k, w.shape) for k in order[:refine_starts]]
    for i, j in starts:
        _record(float(rs[i]), float(thetas[j]))

    total_iters = 0
    dtheta = 2.0 * np.pi / na
    for i, j in starts:
        if not math.isfinite(w_clean[i, j]):
            continue
        r0, t0 = float(rs[i]), float(thetas[j])
        dr = float(rs[min(i + 1, nr - 1)] - rs[i]) or float(rs[i] - rs[i - 1])
        # starts pinned at the cap step inward, else the simplex degenerates
        r1 = r0 + dr if r0 + dr <= r_cap else r0 - dr

        def objective(x):
            r = min(abs(x[0]), r_cap)
            theta = x[1] % (2.0 * math.pi)  # grid angles live in [0, 2*pi)
            val = _record(r, theta)
            return math.inf if math.isnan(val) else -val

        _, _, nit = _nelder_mead(
            objective,
            [(r0, t0), (r1, t0), (r0, t0 + dtheta)],
            maxiter=refine_maxiter,
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
    ray_vals = [_scalar(1.0 - h, arg_theta) for h in hs]
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
    cache[cache_key] = est
    return est
