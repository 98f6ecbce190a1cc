"""Verification operations for the convex-type classes F(c).

F(c) collects normalized analytic f with Re(1 + z f''/f') > 1 - c/2 on the
disk, 0 < c <= 3; F0(c) adds f''(0) = 0.  This module hosts:

* the membership decider and the two equivalent pointwise margin tests
  derived from the Schur datum phi = (f''/f') / (z f''/f' + c);
* sharp growth and distortion bounds for F0(c) with quadrature-backed
  growth integrals;
* the norm bounds ||P_f|| <= c and ||S_f|| <= c(4-c)/2 plus the
  gamma-weighted pointwise Schwarzian bound for F(c).  The two Schwarzian
  bounds are checked as stated, with the factor (1 - c/2); so stated they
  hold for c <= 2 and fail for c > 2 (f_c* has weighted Schwarzian
  modulus c at the origin, above c(4-c)/2).  The same Schwarz-Pick
  derivation, run with the triangle inequality, proves them on all of
  (0, 3] with |1 - c/2| in place of (1 - c/2);
* the Schwarz-Pick lemma margin and the Psi substitution identity used in
  the norm-bound derivations;
* univalence threshold predicates (Kraus-Nehari necessity at 6, Nehari
  sufficiency at 2, Becker at 1, the quasiconformal-extension coefficient
  k = ||S||/2) and a brute-force injectivity oracle.

Margins are signed with "bound minus quantity >= 0" meaning pass, so every
check reports how much slack survived instead of a bare boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._integrate import adaptive_simpson
from ._sampling import disk_samples
from .errors import (
    DivisionBySingular,
    DomainError,
    GammaDegenerate,
    SINGULAR_TOL,
)
from .functions import (
    AnalyticFunction,
    ClassSpec,
    QuadraticPerturbation,
    SchurFunction,
    SubordinationMember,
    jet_at,
    random_member,
)
from .norms import NormEstimate, hyperbolic_norm

MEMBERSHIP_RADIUS = 1.0 - 1e-4
# Radius used when sampling checks involve near-unimodular quantities whose
# float noise grows like 1/(1-r); keeps true equalities from dipping below
# the stated tolerances.
SCHUR_SAMPLE_RADIUS = 0.999
VALUE_SAMPLE_RADIUS = 0.99

THEOREM_IDS = (
    "thm2.1.ii",
    "thm2.1.iii",
    "thm2.2",
    "thm2.3",
    "thm2.4",
    "thm2.5",
    "lemmaA",
    "psi",
    "nehari",
    "becker",
    "ahlfors-weill",
)


@dataclass(frozen=True)
class MembershipVerdict:
    status: str  # member_by_construction | empirically_consistent | violated
    witness: complex | None
    margin: float

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": None
            if self.witness is None
            else [self.witness.real, self.witness.imag],
            "margin": self.margin,
        }


@dataclass(frozen=True)
class BoundReport:
    theorem_id: str
    samples: int
    worst_margin: float
    worst_point: complex | None
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "worst_point": None
            if self.worst_point is None
            else [self.worst_point.real, self.worst_point.imag],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GammaSpec:
    """gamma = |f''(0)| / c, the normalized second coefficient."""

    gamma: float

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma={self.gamma} outside [0, 1)")


def _report(theorem_id, samples, margins, points) -> BoundReport:
    """Fold margin arrays into a BoundReport (first-minimum tie-break)."""
    idx = int(np.argmin(margins))
    worst = float(margins[idx])
    return BoundReport(
        theorem_id=theorem_id,
        samples=samples,
        worst_margin=worst,
        worst_point=complex(points[idx]),
        passed=worst >= -1e-9,
    )


# ---------------------------------------------------------------------------
# Membership and the pointwise equivalents


def _p_values(f: AnalyticFunction, zs: np.ndarray) -> np.ndarray:
    return f._preschwarzian(zs)


def _membership_margins(zs, p, c):
    m = (1.0 + zs * p).real - (1.0 - c / 2.0)
    return np.where(np.isnan(m), -np.inf, m)


def membership_status(
    f: AnalyticFunction, c: float, samples: int = 1000
) -> MembershipVerdict:
    """Decide membership in F(c) from the defining real-part inequality.

    Functions assembled from subordination data are members by
    construction (for their own c and anything larger) and only get a
    smoke test; everything else is sampled on a low-discrepancy disk set
    with radii up to 1 - 1e-4.  A singular sample (f' = 0 there) is itself
    a violation witness, since f then fails local univalence.
    """
    if samples < 100:
        raise ValueError("membership sampling needs at least 100 points")
    if not f.is_class_a:
        raise ValueError("membership is defined for normalized (class A) functions")
    ClassSpec(c)
    zs = disk_samples(samples, MEMBERSHIP_RADIUS)
    margins = _membership_margins(zs, _p_values(f, zs), c)
    idx = int(np.argmin(margins))
    margin = float(margins[idx])
    if margin < -1e-10:
        return MembershipVerdict("violated", complex(zs[idx]), margin)
    by_construction = isinstance(f, SubordinationMember) and f.c <= c + 1e-12
    status = "member_by_construction" if by_construction else "empirically_consistent"
    return MembershipVerdict(status, None, margin)


def recover_phi(f: AnalyticFunction, c: float, z: complex) -> complex:
    """The subordination datum phi = (f''/f') / (z f''/f' + c).

    For members of F(c) this is the analytic self-map with
    f''/f' = c phi / (1 - z phi); |phi| <= 1 characterizes membership.
    """
    z = complex(z)
    p = f.preschwarzian(z)
    den = z * p + c
    if abs(den) <= SINGULAR_TOL:
        raise DivisionBySingular("vanishing denominator in phi recovery")
    return p / den


def thm21_ii_margin(f: AnalyticFunction, c: float, z: complex) -> float:
    """Signed margin of Re(1 + z f''/f') >= 1 - c/2 + (1-|z|^2)|f''/f'|^2/(2c).

    Expanding |phi| <= 1 with phi = (f''/f')/(z f''/f' + c) gives exactly
    this inequality (the squared term carries f''/f', not z f''/f'; only
    that form is equivalent to membership, and it is the one the extremal
    f_2 turns into an identity).
    """
    z = complex(z)
    p = f.preschwarzian(z)
    return (
        (1.0 + z * p).real
        - (1.0 - c / 2.0)
        - (1.0 - abs(z) ** 2) / (2.0 * c) * abs(p) ** 2
    )


def thm21_iii_margin(f: AnalyticFunction, c: float, z: complex) -> float:
    """Signed margin of |(1-|z|^2)(f''/f') - c conj(z)| <= c."""
    z = complex(z)
    p = f.preschwarzian(z)
    return c - abs((1.0 - abs(z) ** 2) * p - c * z.conjugate())


def _margins_ii_iii(zs, p, c):
    zp = zs * p
    ii = (
        (1.0 + zp).real
        - (1.0 - c / 2.0)
        - (1.0 - np.abs(zs) ** 2) / (2.0 * c) * np.abs(p) ** 2
    )
    iii = c - np.abs((1.0 - np.abs(zs) ** 2) * p - c * np.conj(zs))
    ii = np.where(np.isnan(ii), -np.inf, ii)
    iii = np.where(np.isnan(iii), -np.inf, iii)
    return ii, iii


def verify_thm21_margins(
    f: AnalyticFunction, c: float, samples: int = 1000
) -> tuple[BoundReport, BoundReport]:
    zs = disk_samples(samples, MEMBERSHIP_RADIUS)
    ii, iii = _margins_ii_iii(zs, _p_values(f, zs), c)
    return (
        _report("thm2.1.ii", samples, ii, zs),
        _report("thm2.1.iii", samples, iii, zs),
    )


# ---------------------------------------------------------------------------
# Growth and distortion


@dataclass(frozen=True)
class GrowthDistortionBounds:
    distortion_low: float
    distortion_high: float
    growth_low: float
    growth_high: float


def growth_distortion_bounds(c: float, r: float) -> GrowthDistortionBounds:
    """Sharp bounds for members of F0(c) at radius r.

    Distortion: (1+r^2)^(-c/2) <= |f'| <= (1-r^2)^(-c/2); growth integrates
    the same kernels from 0 to r by adaptive Simpson quadrature.
    """
    ClassSpec(c)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"radius {r} outside [0, 1)")
    half = c / 2.0
    return GrowthDistortionBounds(
        distortion_low=(1.0 + r * r) ** -half,
        distortion_high=(1.0 - r * r) ** -half,
        growth_low=adaptive_simpson(lambda t: (1.0 + t * t) ** -half, 0.0, r),
        growth_high=adaptive_simpson(lambda t: (1.0 - t * t) ** -half, 0.0, r),
    )


def _growth_tables(c: float, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative growth integrals at every radius (segment-wise Simpson)."""
    half = c / 2.0
    low = np.empty_like(radii)
    high = np.empty_like(radii)
    order = np.argsort(radii, kind="stable")
    acc_low = acc_high = 0.0
    prev = 0.0
    for idx in order:
        r = float(radii[idx])
        acc_low += adaptive_simpson(lambda t: (1.0 + t * t) ** -half, prev, r, tol=1e-13)
        acc_high += adaptive_simpson(lambda t: (1.0 - t * t) ** -half, prev, r, tol=1e-13)
        low[idx] = acc_low
        high[idx] = acc_high
        prev = r
    return low, high


def verify_growth_distortion(
    f: AnalyticFunction, c: float, samples: int = 200
) -> BoundReport:
    """Check all four growth/distortion bounds at sampled points.

    Sampling stays at radii <= 0.99: the bounds hold on the whole disk and
    the comfortable margin keeps path-integration noise irrelevant.
    """
    zs = disk_samples(samples, VALUE_SAMPLE_RADIUS)
    rs = np.abs(zs)
    bounds_low, bounds_high = _growth_tables(c, rs)
    half = c / 2.0
    fv, fp = f._value_and_deriv(zs)
    fv, fp = np.abs(fv), np.abs(fp)
    margins = np.stack(
        [
            fp - (1.0 + rs * rs) ** -half,
            (1.0 - rs * rs) ** -half - fp,
            fv - bounds_low,
            bounds_high - fv,
        ]
    )
    margins = np.where(np.isnan(margins), -np.inf, margins)
    idx = int(np.argmin(margins))
    return BoundReport(
        theorem_id="thm2.2",
        samples=samples,
        worst_margin=float(margins.ravel()[idx]),
        worst_point=complex(zs[idx % samples]),
        passed=float(margins.ravel()[idx]) >= -1e-9,
    )


# ---------------------------------------------------------------------------
# Norm bounds

# Norm-level assertions carry 1e-6 slack: the sup search certifies lower
# bounds at grid resolution, so equality cases land within this band.
NORM_TOL = 1e-6


def verify_thm23(f: AnalyticFunction, c: float, **norm_kwargs) -> BoundReport:
    """||P_f|| <= c for f in F0(c)."""
    est = hyperbolic_norm(f, "pre_schwarzian", **norm_kwargs)
    return _norm_report("thm2.3", c, est)


def schwarzian_norm_bound(c: float) -> float:
    """The stated bound c(4-c)/2 = c(1 + (1 - c/2)) on ||S_f|| over F0(c).

    It holds for c <= 2 and is false for c > 2, where ||S_{f_c*}|| = c.
    The derivation proves c(1 + |1 - c/2|) on all of (0, 3]; the exact
    norm of f_c* is c * max(1, (4-c)/2).
    """
    return c * (4.0 - c) / 2.0


def verify_thm24(f: AnalyticFunction, c: float, **norm_kwargs) -> BoundReport:
    """||S_f|| <= c(4-c)/2 for f in F0(c), checked as stated.

    Valid for c <= 2; for c > 2 the report correctly fails on f_c*, whose
    norm is c.  The bound proven on (0, 3] is c(1 + |1 - c/2|).
    """
    est = hyperbolic_norm(f, "schwarzian", **norm_kwargs)
    return _norm_report("thm2.4", schwarzian_norm_bound(c), est)


def _norm_report(theorem_id: str, bound: float, est: NormEstimate) -> BoundReport:
    r, theta = est.argmax
    margin = bound + NORM_TOL - est.value
    return BoundReport(
        theorem_id=theorem_id,
        samples=est.grid_resolution[0] * est.grid_resolution[1],
        worst_margin=margin,
        worst_point=complex(r * math.cos(theta), r * math.sin(theta)),
        passed=margin >= -1e-9,
    )


def gamma_of(f: AnalyticFunction, c: float) -> GammaSpec:
    fpp0 = 2.0 * jet_at(f, 0j, 2).coeffs[2]
    gamma = abs(fpp0) / c
    if gamma >= 1.0 - 1e-9:
        raise GammaDegenerate(
            f"gamma = {gamma}: the pointwise Schwarzian bound degenerates"
        )
    return GammaSpec(gamma)


def thm25_bound(c: float, gamma: GammaSpec) -> float:
    """The stated bound c(1 + (1 - c/2)(1+gamma)/(1-gamma)).

    It holds for c <= 2.  For c > 2 the factor 1 - c/2 is negative and
    the bound is false (negative once gamma > (4-c)/c); the derivation
    proves c(1 + |1 - c/2|(1+gamma)/(1-gamma)) on all of (0, 3].
    """
    g = gamma.gamma
    return c * (1.0 + (1.0 - c / 2.0) * (1.0 + g) / (1.0 - g))


def verify_thm25(
    f: AnalyticFunction, c: float, samples: int = 1000, **norm_kwargs
) -> BoundReport:
    """(1-|z|^2)^2 |S_f| <= c(1 + (1-c/2)(1+gamma)/(1-gamma)) for f in F(c).

    Checked at sampled points and at the argmax located by the norm
    search, so the sup itself is confronted with the bound.  The bound is
    checked as stated: it holds for c <= 2; for c > 2 it is false, and the
    report fails on members with large gamma.
    The form proven on (0, 3] carries |1 - c/2|; since the stated bound is
    constant per f, the largest weighted |S_f| checked is
    ``thm25_bound(c, gamma) - worst_margin``.
    """
    gamma = gamma_of(f, c)
    bound = thm25_bound(c, gamma)
    zs = disk_samples(samples, MEMBERSHIP_RADIUS)
    q = (1.0 - np.abs(zs) ** 2) ** 2 * np.abs(f._schwarzian(zs))
    est = hyperbolic_norm(f, "schwarzian", **norm_kwargs)
    r, theta = est.argmax
    z_arg = r * np.exp(1j * theta)
    zs_all = np.concatenate([zs, [z_arg]])
    q_all = np.concatenate([q, [est.certified_lower]])
    margins = np.where(np.isnan(q_all), -np.inf, bound - q_all)
    return _report("thm2.5", samples + 1, margins, zs_all)


# ---------------------------------------------------------------------------
# Lemma margins and the Psi identity


def lemmaA_margin(phi: SchurFunction, z: complex) -> float:
    """Margin of the Schwarz-Pick consequence
    |phi(z)|^2/(1-|phi(z)|^2) <= (|phi(0)|+|z|)^2 / ((1-|phi(0)|^2)(1-|z|^2)).

    Equality holds exactly for disk automorphisms; the denominator uses
    1 - |phi(0)|^2 (with phi(0) = 0 this is the plain Schwarz bound
    |z|^2/(1-|z|^2) used in the Schwarzian norm proof).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("lemma margin requested outside the disk")
    pz = complex(phi.value(z))
    if abs(pz) >= 1.0 - 1e-12:
        raise ValueError("|phi(z)| too close to 1 for the margin to be finite")
    p0 = abs(complex(phi.value(0j)))
    lhs = abs(pz) ** 2 / (1.0 - abs(pz) ** 2)
    rhs = (p0 + abs(z)) ** 2 / ((1.0 - p0 * p0) * (1.0 - abs(z) ** 2))
    return rhs - lhs


def psi_identity_residual(phi: SchurFunction, z: complex) -> float:
    """Residual of (1-|z|^2)^2/|1-z phi|^2
    = (1-|Psi|^2)(1-|z|^2)/(1-|phi|^2) with Psi = (conj(z)-phi)/(1-z phi)."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("identity residual requested outside the disk")
    pz = complex(phi.value(z))
    den = 1.0 - z * pz
    if abs(den) <= SINGULAR_TOL:
        raise DivisionBySingular("1 - z phi(z) vanished")
    if abs(pz) >= 1.0 - 1e-12:
        raise ValueError("|phi(z)| too close to 1")
    psi = (z.conjugate() - pz) / den
    lhs = (1.0 - abs(z) ** 2) ** 2 / abs(den) ** 2
    rhs = (1.0 - abs(psi) ** 2) * (1.0 - abs(z) ** 2) / (1.0 - abs(pz) ** 2)
    return abs(lhs - rhs)


def verify_lemmaA(phi: SchurFunction, samples: int = 1000) -> BoundReport:
    zs = disk_samples(samples, SCHUR_SAMPLE_RADIUS)
    margins = np.array([lemmaA_margin(phi, z) for z in zs])
    return _report("lemmaA", samples, margins, zs)


def verify_psi(phi: SchurFunction, samples: int = 1000) -> BoundReport:
    zs = disk_samples(samples, SCHUR_SAMPLE_RADIUS)
    resid = np.array([psi_identity_residual(phi, z) for z in zs])
    margins = 1e-10 - resid
    return _report("psi", samples, margins, zs)


# ---------------------------------------------------------------------------
# Univalence thresholds


@dataclass(frozen=True)
class UnivalencePredicates:
    nehari_necessary_ok: bool
    nehari_sufficient: bool
    becker_sufficient: bool
    ahlfors_weill_k: float | None
    schwarzian_norm: float
    preschwarzian_norm: float


def univalence_predicates(f: AnalyticFunction, **norm_kwargs) -> UnivalencePredicates:
    s = hyperbolic_norm(f, "schwarzian", **norm_kwargs).value
    p = hyperbolic_norm(f, "pre_schwarzian", **norm_kwargs).value
    return UnivalencePredicates(
        nehari_necessary_ok=s <= 6.0 + NORM_TOL,
        nehari_sufficient=s <= 2.0 + NORM_TOL,
        becker_sufficient=p <= 1.0 + NORM_TOL,
        # strict inequality required at the threshold ||S|| = 2
        ahlfors_weill_k=s / 2.0 if s < 2.0 * (1.0 - NORM_TOL) else None,
        schwarzian_norm=s,
        preschwarzian_norm=p,
    )


def univalence_bruteforce(f: AnalyticFunction, gridsize: int = 100) -> bool:
    """Pairwise injectivity of f over a polar grid of radius 0.98.

    f is evaluated at radii 0.98 * k/gridsize, k = 1..gridsize, on gridsize
    equally spaced rays, through the polar-grid hook ``_polar_value``.
    Returns False when a k-d tree query over all gridsize**2 image points
    finds two distinct nodes mapped within 1e-10 of each other.  Both the
    evaluation and the tree grow with gridsize**2, hence the gridsize cap.
    """
    if gridsize > 200:
        raise ValueError("gridsize capped at 200 (quadratic pair cost)")
    cache = getattr(f, "_uni_cache", None)
    if cache is None:
        cache = {}
        setattr(f, "_uni_cache", cache)
    if gridsize in cache:
        return cache[gridsize]
    radii = 0.98 * np.arange(1, gridsize + 1) / gridsize
    thetas = 2.0 * np.pi * np.arange(gridsize) / gridsize
    vals = f._polar_value(radii, thetas).ravel()
    pts = np.column_stack([vals.real, vals.imag])
    tree = cKDTree(pts)
    result = len(tree.query_pairs(1e-10)) == 0
    cache[gridsize] = result
    return result


# ---------------------------------------------------------------------------
# Random sweeps: members and manufactured non-members


def manufacture_nonmember(c: float, seed: int, samples: int = 1000):
    """A normalized function violating the F(c) inequality decisively.

    Takes a random member and scales its second Taylor coefficient
    (adding delta * z^2) with doubling factors until the sampled margins
    are clearly negative; this moves a zero of f' into the disk, so all
    equivalent membership tests must flag it.
    """
    base_seed = seed
    while True:
        base = random_member(ClassSpec(c), base_seed, degree=1 + base_seed % 3)
        if abs(complex(base.schur.value(0j))) >= 0.1:
            break
        base_seed += 10007
    a2 = c * complex(base.schur.value(0j)) / 2.0  # second Taylor coefficient
    zs = disk_samples(samples, MEMBERSHIP_RADIUS)
    kappa = 2.0
    while kappa <= 2.0**20:
        g = QuadraticPerturbation(base, (kappa - 1.0) * a2)
        p = g._preschwarzian(zs)
        member_m = _membership_margins(zs, p, c)
        ii, iii = _margins_ii_iii(zs, p, c)
        if member_m.min() < -1e-3 and ii.min() < -1e-3 and iii.min() < -1e-6:
            return g
        kappa *= 2.0
    raise RuntimeError("could not manufacture a decisive non-member")


def thm21_equivalence_sweep(
    c: float,
    n_members: int = 200,
    n_nonmembers: int = 200,
    seed0: int = 0,
    samples: int = 1000,
) -> dict:
    """Cross-check the three membership tests on members and non-members.

    Every function is judged by (a) membership_status, (b) the pointwise
    margin (ii) staying above -1e-9 on the sample set, (c) same for margin
    (iii); the sweep counts verdict disagreements, which must be zero.
    """
    zs = disk_samples(samples, MEMBERSHIP_RADIUS)
    funcs: list[tuple[str, AnalyticFunction]] = []
    for i in range(n_members):
        funcs.append(("member", random_member(ClassSpec(c), seed0 * 100000 + i, i % 9)))
    for i in range(n_nonmembers):
        funcs.append(
            ("nonmember", manufacture_nonmember(c, seed0 * 100000 + 50000 + i, samples))
        )
    disagreements = 0
    wrong_expectation = 0
    for label, f in funcs:
        verdicts = []
        verdicts.append(membership_status(f, c, samples).status != "violated")
        p = f._preschwarzian(zs)
        ii, iii = _margins_ii_iii(zs, p, c)
        verdicts.append(float(ii.min()) >= -1e-9)
        verdicts.append(float(iii.min()) >= -1e-9)
        if len(set(verdicts)) > 1:
            disagreements += 1
        if verdicts[0] != (label == "member"):
            wrong_expectation += 1
    return {
        "total": len(funcs),
        "disagreements": disagreements,
        "wrong_expectation": wrong_expectation,
    }
