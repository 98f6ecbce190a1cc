"""Analytic functions on the unit disk, queryable for jets at any point.

The zoo has three layers:

* a closed-form gallery (identity, Koebe, half-plane, general Moebius maps,
  polynomials) with exact derivative formulas;
* the extremal families ``f_c``, ``f_c*`` and ``f_{c,lambda}`` attached to
  the convex-type classes F(c): members of the normalized class A whose
  curvature quantity 1 + z f''/f' has real part above 1 - c/2;
* seeded random members of F(c) and F0(c) built from subordination data:
  a Schur function s turns into omega(z) = z*s(z) (or z^2*s(z) for the
  f''(0)=0 subclass), and f is reconstructed from
  f''/f' = c*phi/(1 - z*phi) with phi = omega/z.

Subordination members keep their Schur data, so f''/f' and the Schwarzian
are evaluated from exact rational expressions everywhere in the disk; f and
f' themselves are recovered by path integration along [0, z].  Values of
every function are vectorized over numpy arrays.

All values are immutable after construction; evaluation is pure and safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import exp_path_integrals, ray_path_integrals, segment_integral
from ._sampling import disk_samples
from .errors import DivisionBySingular, DomainError, SINGULAR_TOL
from .jets import (
    TaylorJet,
    jet_add,
    jet_constant,
    jet_compose,
    jet_div,
    jet_exp,
    jet_integrate,
    jet_linear,
    jet_log,
    jet_mul,
    jet_pow,
    jet_scale,
)

DEFAULT_JET_ORDER = 32
# Series-defined members cache their origin expansion at this order; the
# underlying functions have radius-1 singularities, so the tail decays like
# |z|^64 and the cached jet serves every origin-centered query.
_ORIGIN_ORDER = 64


def _prep(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=complex)
    if arr.size and np.max(np.abs(arr)) >= 1.0:
        raise DomainError("evaluation outside the open unit disk")
    return arr, arr.ndim == 0


def _id_jet(z: complex, order: int) -> TaylorJet:
    if order == 0:
        return TaylorJet(z, (complex(z),))
    return jet_linear(z, 1.0, center=z, order=order)


def _one_jet(z: complex, order: int) -> TaylorJet:
    return jet_constant(1.0, order, z)


# ---------------------------------------------------------------------------
# Class parameters and Schur functions


@dataclass(frozen=True)
class ClassSpec:
    """Parameters of the target class: F(c), or F0(c) when the second
    derivative is pinned to zero at the origin."""

    c: float
    zero_second_derivative: bool = False

    def __post_init__(self):
        if not (0.0 < self.c <= 3.0):
            raise ValueError(f"class parameter c={self.c} outside (0, 3]")


class SchurFunction:
    """Analytic self-map of the disk: a finite Blaschke product (possibly
    with zero factors, i.e. a unimodular rotation) or a constant of modulus
    at most one."""

    def __init__(self, kind: str, zeros=(), rotation: complex = 1.0, value: complex = 0.0):
        if kind not in ("constant", "blaschke"):
            raise ValueError(f"unknown Schur kind {kind!r}")
        self.kind = kind
        if kind == "constant":
            value = complex(value)
            if abs(value) > 1.0 + 1e-12:
                raise ValueError("constant Schur value must have modulus <= 1")
            self.constant = value
            self.zeros: tuple[complex, ...] = ()
            self.rotation = 1.0 + 0j
        else:
            zeros = tuple(complex(a) for a in zeros)
            if any(abs(a) >= 1.0 for a in zeros):
                raise ValueError("Blaschke zeros must lie inside the disk")
            rotation = complex(rotation)
            if abs(abs(rotation) - 1.0) > 1e-12:
                raise ValueError("rotation factor must be unimodular")
            self.constant = None
            self.zeros = zeros
            self.rotation = rotation / abs(rotation)
        self._self_map_check()

    def _self_map_check(self, count: int = 1000):
        pts = disk_samples(count, 0.999)
        if np.max(np.abs(self.value(pts))) > 1.0 + 1e-12:
            raise ValueError("Schur function exceeds modulus 1 on the disk")

    @staticmethod
    def constant_map(value: complex) -> "SchurFunction":
        return SchurFunction("constant", value=value)

    @staticmethod
    def blaschke(zeros, rotation: complex = 1.0) -> "SchurFunction":
        return SchurFunction("blaschke", zeros=zeros, rotation=rotation)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def _is_scalar(self, z) -> bool:
        return not (isinstance(z, np.ndarray) and z.ndim)

    def value(self, z):
        if self._is_scalar(z):  # plain arithmetic: the norm-search hot path
            zc = complex(z)
            if self.kind == "constant":
                return self.constant
            out = self.rotation
            for a in self.zeros:
                out = out * (zc - a) / (1.0 - a.conjugate() * zc)
            return out
        zs = np.asarray(z, dtype=complex)
        if self.kind == "constant":
            return np.full_like(zs, self.constant)
        out = np.full_like(zs, self.rotation)
        for a in self.zeros:
            out = out * (zs - a) / (1.0 - np.conj(a) * zs)
        return out

    def deriv(self, z):
        if self._is_scalar(z):
            zc = complex(z)
            if self.kind == "constant" or not self.zeros:
                return 0j
            factors = [(zc - a) / (1.0 - a.conjugate() * zc) for a in self.zeros]
            total = 0j
            for i, a in enumerate(self.zeros):
                term = (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * zc) ** 2
                for j, fj in enumerate(factors):
                    if j != i:
                        term *= fj
                total += term
            return self.rotation * total
        zs = np.asarray(z, dtype=complex)
        if self.kind == "constant" or not self.zeros:
            return np.zeros_like(zs)
        factors = np.stack([(zs - a) / (1.0 - np.conj(a) * zs) for a in self.zeros])
        dfactors = np.stack(
            [(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * zs) ** 2 for a in self.zeros]
        )
        ones = np.ones_like(zs)[None]
        prefix = np.concatenate([ones, np.cumprod(factors, axis=0)], axis=0)
        suffix = np.concatenate(
            [ones, np.cumprod(factors[::-1], axis=0)], axis=0
        )[::-1]
        return self.rotation * np.sum(dfactors * prefix[:-1] * suffix[1:], axis=0)

    def jet(self, center: complex, order: int) -> TaylorJet:
        if self.kind == "constant":
            return jet_constant(self.constant, order, center)
        out = jet_constant(self.rotation, order, center)
        for a in self.zeros:
            num = jet_linear(center - a, 1.0, center, order)
            den = jet_linear(1.0 - np.conj(a) * center, -np.conj(a), center, order)
            out = jet_mul(out, jet_div(num, den))
        return out

    def descriptor(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": _pair(self.constant)}
        return {
            "kind": "blaschke",
            "zeros": [_pair(a) for a in self.zeros],
            "rotation": _pair(self.rotation),
        }

    @staticmethod
    def from_descriptor(d: dict) -> "SchurFunction":
        if d["kind"] == "constant":
            return SchurFunction.constant_map(_unpair(d["value"]))
        return SchurFunction.blaschke(
            [_unpair(a) for a in d["zeros"]], _unpair(d["rotation"])
        )


def _pair(c: complex) -> list[float]:
    c = complex(c)
    return [c.real, c.imag]


def _unpair(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


# ---------------------------------------------------------------------------
# Function hierarchy


class AnalyticFunction:
    """Evaluable analytic map on the open unit disk.

    Subclasses implement the array-level hooks ``_value``, ``_deriv``,
    ``_preschwarzian``, ``_schwarzian`` (the latter two returning NaN at
    points where f' vanishes) and ``jet``; path-integrated kinds also
    override ``_polar_value`` and ``_value_and_deriv``.  The public
    accessors accept scalars or arrays, enforce |z| < 1 and raise
    :class:`DivisionBySingular` for scalar queries at singular points.
    """

    kind = "abstract"
    is_mobius = False
    is_class_a = False
    # maps defined beyond the closed disk (rational/entire) set this False,
    # which lets compositions feed them values from anywhere
    domain_is_disk = True

    # -- array hooks -------------------------------------------------------
    def _value(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _deriv(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _preschwarzian(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _schwarzian(self, zs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _polar_value(self, radii: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """f at radii[k] * exp(i thetas[j]), shape (len(radii), len(thetas)),
        for increasing radii in (0, 1)."""
        return self._value(radii[:, None] * np.exp(1j * thetas)[None, :])

    def _value_and_deriv(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, f') at the same points."""
        return self._value(zs), self._deriv(zs)

    # -- public surface ----------------------------------------------------
    def value(self, z):
        arr, scalar = _prep(z)
        out = self._value(arr)
        return complex(out[()]) if scalar else out

    def deriv(self, z):
        arr, scalar = _prep(z)
        out = self._deriv(arr)
        return complex(out[()]) if scalar else out

    def preschwarzian(self, z):
        if not (isinstance(z, np.ndarray) and z.ndim):
            zc = complex(z)
            if abs(zc) >= 1.0:
                raise DomainError("evaluation outside the open unit disk")
            val = self._p_scalar(zc)
            if val != val:  # nan
                raise DivisionBySingular(f"f' vanishes at {z}")
            return val
        arr, _ = _prep(z)
        return self._preschwarzian(arr)

    def schwarzian(self, z):
        if not (isinstance(z, np.ndarray) and z.ndim):
            zc = complex(z)
            if abs(zc) >= 1.0:
                raise DomainError("evaluation outside the open unit disk")
            val = self._s_scalar(zc)
            if val != val:
                raise DivisionBySingular(f"f' vanishes at {z}")
            return val
        arr, _ = _prep(z)
        return self._schwarzian(arr)

    # scalar hooks; subclasses on the norm-search hot path override these
    # with plain complex arithmetic
    def _p_scalar(self, z: complex) -> complex:
        return complex(self._preschwarzian(np.asarray(z, dtype=complex))[()])

    def _s_scalar(self, z: complex) -> complex:
        return complex(self._schwarzian(np.asarray(z, dtype=complex))[()])

    def jet(self, z: complex, order: int) -> TaylorJet:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class Identity(AnalyticFunction):
    kind = "identity"
    is_mobius = True
    is_class_a = True

    def _value(self, zs):
        return zs.copy()

    def _deriv(self, zs):
        return np.ones_like(zs)

    def _preschwarzian(self, zs):
        return np.zeros_like(zs)

    _schwarzian = _preschwarzian

    def _p_scalar(self, z):
        return 0j

    _s_scalar = _p_scalar

    def jet(self, z, order):
        return _id_jet(complex(z), order)

    def descriptor(self):
        return {"kind": "identity"}


class Koebe(AnalyticFunction):
    """z / (1-z)^2, the extremal map of the univalence bounds."""

    kind = "koebe"
    is_class_a = True

    def _value(self, zs):
        return zs / (1.0 - zs) ** 2

    def _deriv(self, zs):
        return (1.0 + zs) / (1.0 - zs) ** 3

    def _preschwarzian(self, zs):
        return (4.0 + 2.0 * zs) / (1.0 - zs * zs)

    def _schwarzian(self, zs):
        return -6.0 / (1.0 - zs * zs) ** 2

    def _p_scalar(self, z):
        return (4.0 + 2.0 * z) / (1.0 - z * z)

    def _s_scalar(self, z):
        return -6.0 / (1.0 - z * z) ** 2

    def jet(self, z, order):
        z = complex(z)
        m = jet_linear(1.0 - z, -1.0, z, order)
        return jet_div(_id_jet(z, order), jet_mul(m, m))

    def descriptor(self):
        return {"kind": "koebe"}


class Mobius(AnalyticFunction):
    """(a z + b) / (c z + d) with ad - bc != 0.

    A pole on or inside the unit circle is allowed at construction (the
    half-plane map has one at z = 1); evaluation guards against hitting it.
    """

    kind = "mobius"
    domain_is_disk = False

    def __init__(self, a, b, c, d, _kind=None):
        a, b, c, d = (complex(v) for v in (a, b, c, d))
        det = a * d - b * c
        if abs(det) <= SINGULAR_TOL:
            raise ValueError("degenerate Moebius coefficients: ad - bc = 0")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.det = det
        if _kind:
            self.kind = _kind
        self.is_mobius = True
        if abs(d) > SINGULAR_TOL:
            self.is_class_a = (
                abs(b / d) < 1e-12 and abs(det / (d * d) - 1.0) < 1e-12
            )

    def _den(self, zs):
        den = self.c * zs + self.d
        if np.any(np.abs(den) <= SINGULAR_TOL):
            raise DivisionBySingular("Moebius pole hit inside the disk")
        return den

    def _value(self, zs):
        return (self.a * zs + self.b) / self._den(zs)

    def _deriv(self, zs):
        return self.det / self._den(zs) ** 2

    def _preschwarzian(self, zs):
        return -2.0 * self.c / self._den(zs)

    def _schwarzian(self, zs):
        return np.zeros_like(zs)

    def _p_scalar(self, z):
        den = self.c * z + self.d
        if abs(den) <= SINGULAR_TOL:
            raise DivisionBySingular("Moebius pole hit inside the disk")
        return -2.0 * self.c / den

    def _s_scalar(self, z):
        return 0j

    def jet(self, z, order):
        z = complex(z)
        num = jet_linear(self.a * z + self.b, self.a, z, order)
        den = jet_linear(self.c * z + self.d, self.c, z, order)
        return jet_div(num, den)

    def descriptor(self):
        if self.kind == "half_plane":
            return {"kind": "half_plane"}
        return {
            "kind": "mobius",
            "params": {k: _pair(getattr(self, k)) for k in "abcd"},
        }


def half_plane() -> Mobius:
    """(1+z)/(1-z): the disk onto the right half-plane."""
    return Mobius(1.0, 1.0, -1.0, 1.0, _kind="half_plane")


class Polynomial(AnalyticFunction):
    kind = "polynomial"
    domain_is_disk = False

    def __init__(self, coeffs):
        coeffs = [complex(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.is_class_a = (
            len(coeffs) >= 2 and coeffs[0] == 0 and coeffs[1] == 1
        )

    def _horner(self, zs, coeffs):
        acc = np.zeros_like(zs)
        for c in reversed(coeffs):
            acc = acc * zs + c
        return acc

    def _dcoeffs(self, k):
        out = self.coeffs
        for _ in range(k):
            out = tuple((i + 1) * c for i, c in enumerate(out[1:])) or (0j,)
        return out

    def _value(self, zs):
        return self._horner(zs, self.coeffs)

    def _deriv(self, zs):
        return self._horner(zs, self._dcoeffs(1))

    def _preschwarzian(self, zs):
        fp = self._horner(zs, self._dcoeffs(1))
        out = np.where(np.abs(fp) <= SINGULAR_TOL, np.nan + 0j, fp)
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._horner(zs, self._dcoeffs(2)) / out

    def _schwarzian(self, zs):
        fp = self._horner(zs, self._dcoeffs(1))
        bad = np.abs(fp) <= SINGULAR_TOL
        fp = np.where(bad, np.nan + 0j, fp)
        with np.errstate(invalid="ignore", divide="ignore"):
            p = self._horner(zs, self._dcoeffs(2)) / fp
            return self._horner(zs, self._dcoeffs(3)) / fp - 1.5 * p * p

    def jet(self, z, order):
        z = complex(z)
        shifted = list(self.coeffs)
        n = len(shifted)
        for k in range(n):  # Horner-style Taylor shift
            for j in range(n - 2, k - 1, -1):
                shifted[j] += z * shifted[j + 1]
        shifted = shifted + [0j] * (order + 1 - len(shifted))
        return TaylorJet(z, tuple(shifted[: order + 1]))

    def descriptor(self):
        return {"kind": "polynomial", "coeffs": [_pair(c) for c in self.coeffs]}


class ExtremalFc(AnalyticFunction):
    """f_c(z) = ((1-z)^(1-c) - 1)/(c - 1), the boundary-sharp member of
    F(c); degenerates to -log(1-z) at c = 1 (removable in the parameter)."""

    kind = "extremal_fc"

    def __init__(self, c: float):
        if not (0.0 < c <= 3.0):
            raise ValueError(f"c={c} outside (0, 3]")
        self.c = float(c)
        self._log_limit = abs(self.c - 1.0) < 1e-8
        self.is_class_a = True
        self.is_mobius = abs(self.c - 2.0) <= 1e-12

    def _value(self, zs):
        if self._log_limit:
            return -np.log(1.0 - zs)
        return ((1.0 - zs) ** (1.0 - self.c) - 1.0) / (self.c - 1.0)

    def _deriv(self, zs):
        return (1.0 - zs) ** (-self.c)

    def _preschwarzian(self, zs):
        return self.c / (1.0 - zs)

    def _schwarzian(self, zs):
        return (self.c * (2.0 - self.c) / 2.0) / (1.0 - zs) ** 2

    def _p_scalar(self, z):
        return self.c / (1.0 - z)

    def _s_scalar(self, z):
        return (self.c * (2.0 - self.c) / 2.0) / (1.0 - z) ** 2

    def jet(self, z, order):
        z = complex(z)
        base = jet_linear(1.0 - z, -1.0, z, order)
        if self._log_limit:
            return jet_scale(jet_log(base), -1.0)
        pw = jet_pow(base, 1.0 - self.c)
        shift = jet_constant(-1.0, order, z)
        return jet_scale(jet_add(pw, shift), 1.0 / (self.c - 1.0))

    def descriptor(self):
        return {"kind": "extremal_fc", "params": {"c": self.c}}


class ExtremalFcLambda(AnalyticFunction):
    """Analytic map with f'(z) = (1 - lambda z^2)^(-c/2), |lambda| = 1.

    Its modulus along rays realizes the sharp growth/distortion bounds of
    F0(c); lambda = 1 gives the odd extremal f_c*.
    """

    kind = "extremal_fc_lambda"

    def __init__(self, c: float, lam: complex):
        if not (0.0 < c <= 3.0):
            raise ValueError(f"c={c} outside (0, 3]")
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("lambda must be unimodular")
        self.c = float(c)
        self.lam = lam / abs(lam)
        self.is_class_a = True

    def _value(self, zs):
        return segment_integral(self._deriv, zs)

    def _polar_value(self, radii, thetas):
        f, _ = ray_path_integrals(self._deriv, radii, thetas, need_outer=False)
        return f

    def _deriv(self, zs):
        return (1.0 - self.lam * zs * zs) ** (-self.c / 2.0)

    def _preschwarzian(self, zs):
        return self.c * self.lam * zs / (1.0 - self.lam * zs * zs)

    def _schwarzian(self, zs):
        lzz = self.lam * zs * zs
        return self.c * self.lam * (1.0 + (1.0 - self.c / 2.0) * lzz) / (1.0 - lzz) ** 2

    def _p_scalar(self, z):
        return self.c * self.lam * z / (1.0 - self.lam * z * z)

    def _s_scalar(self, z):
        lzz = self.lam * z * z
        return self.c * self.lam * (1.0 + (1.0 - self.c / 2.0) * lzz) / (1.0 - lzz) ** 2

    def _deriv_jet(self, z, order):
        quad = TaylorJet(
            z, (1.0 - self.lam * z * z, -2.0 * self.lam * z, -self.lam)
        ).padded(order)
        return jet_pow(quad.truncated(order), -self.c / 2.0)

    def jet(self, z, order):
        z = complex(z)
        if order == 0:
            return TaylorJet(z, (self.value(z),))
        fp = self._deriv_jet(z, order - 1)
        coeffs = [self.value(z)] + [fp.coeffs[k] / (k + 1) for k in range(order)]
        return TaylorJet(z, tuple(coeffs))

    def descriptor(self):
        return {
            "kind": "extremal_fc_lambda",
            "params": {"c": self.c, "lam": _pair(self.lam)},
        }


class ExtremalFcStar(ExtremalFcLambda):
    """f_c*(z): antiderivative of (1 - z^2)^(-c/2); the odd, f''(0) = 0
    norm extremal of F0(c)."""

    kind = "extremal_fc_star"

    def __init__(self, c: float):
        super().__init__(c, 1.0)

    def descriptor(self):
        return {"kind": "extremal_fc_star", "params": {"c": self.c}}


class SubordinationMember(AnalyticFunction):
    """Member of F(c) (or F0(c)) reconstructed from Schur data.

    With phi = s (variant "F") or phi(z) = z*s(z) (variant "F0"), the
    defining relation f''/f' = c*phi/(1 - z*phi) pins down exact rational
    formulas for f''/f' and the Schwarzian; f' = exp(G) with
    G = integral of f''/f' along [0, z], and f integrates f'.  Membership
    holds by construction since omega = z*phi maps into the disk with
    omega(0) = 0.
    """

    kind = "subordination"
    is_class_a = True

    def __init__(self, c: float, schur: SchurFunction, variant: str = "F", seed=None):
        if not (0.0 < c <= 3.0):
            raise ValueError(f"c={c} outside (0, 3]")
        if variant not in ("F", "F0"):
            raise ValueError("variant must be 'F' or 'F0'")
        self.c = float(c)
        self.schur = schur
        self.variant = variant
        self.seed = seed
        self._origin: TaylorJet | None = None

    @property
    def class_spec(self) -> ClassSpec:
        return ClassSpec(self.c, self.variant == "F0")

    def _phi(self, zs):
        s = self.schur.value(zs)
        return zs * s if self.variant == "F0" else s

    def _phi_deriv(self, zs):
        s = self.schur.value(zs)
        ds = self.schur.deriv(zs)
        return s + zs * ds if self.variant == "F0" else ds

    def _preschwarzian(self, zs):
        phi = self._phi(zs)
        return self.c * phi / (1.0 - zs * phi)

    def _schwarzian(self, zs):
        phi = self._phi(zs)
        dphi = self._phi_deriv(zs)
        return (
            self.c
            * (dphi + (1.0 - self.c / 2.0) * phi * phi)
            / (1.0 - zs * phi) ** 2
        )

    def _p_scalar(self, z):
        s = self.schur.value(z)
        phi = z * s if self.variant == "F0" else s
        return self.c * phi / (1.0 - z * phi)

    def _s_scalar(self, z):
        s = self.schur.value(z)
        ds = self.schur.deriv(z)
        if self.variant == "F0":
            phi, dphi = z * s, s + z * ds
        else:
            phi, dphi = s, ds
        return (
            self.c
            * (dphi + (1.0 - self.c / 2.0) * phi * phi)
            / (1.0 - z * phi) ** 2
        )

    def _value(self, zs):
        _, f = exp_path_integrals(self._preschwarzian, zs)
        return f

    def _polar_value(self, radii, thetas):
        _, f = ray_path_integrals(self._preschwarzian, radii, thetas)
        return f

    def _deriv(self, zs):
        g, _ = exp_path_integrals(self._preschwarzian, zs, need_outer=False)
        return np.exp(g)

    def _value_and_deriv(self, zs):
        # one integration pass: G does not depend on need_outer
        g, f = exp_path_integrals(self._preschwarzian, zs)
        return f, np.exp(g)

    def origin_jet(self, order: int = _ORIGIN_ORDER) -> TaylorJet:
        if self._origin is None or self._origin.order < order:
            work = max(order, _ORIGIN_ORDER)
            sj = self.schur.jet(0j, work)
            phi = jet_mul(_id_jet(0j, work), sj) if self.variant == "F0" else sj
            one_minus = jet_add(
                _one_jet(0j, work), jet_scale(jet_mul(_id_jet(0j, work), phi), -1.0)
            )
            p = jet_scale(jet_div(phi, one_minus), self.c)
            fp = jet_exp(jet_integrate(p).truncated(work))
            self._origin = jet_integrate(fp).truncated(work)
        return self._origin.truncated(order)

    def _phi_jet(self, z: complex, order: int) -> TaylorJet:
        sj = self.schur.jet(z, order)
        return jet_mul(_id_jet(z, order), sj) if self.variant == "F0" else sj

    def jet(self, z, order):
        z = complex(z)
        if z == 0:
            return self.origin_jet(order)
        if order == 0:
            return TaylorJet(z, (self.value(z),))
        phi = self._phi_jet(z, order)
        one_minus = jet_add(
            _one_jet(z, order), jet_scale(jet_mul(_id_jet(z, order), phi), -1.0)
        )
        p = jet_scale(jet_div(phi, one_minus), self.c)
        g, f0 = exp_path_integrals(self._preschwarzian, np.array([z]))
        u = [np.exp(complex(g[0]))]  # f' and its derivatives via u' = p u
        for m in range(order - 1):
            acc = sum(p.coeffs[i] * u[m - i] for i in range(m + 1))
            u.append(acc / (m + 1))
        coeffs = [complex(f0[0])] + [u[k] / (k + 1) for k in range(order)]
        return TaylorJet(z, tuple(coeffs))

    def descriptor(self):
        d = {
            "kind": "subordination",
            "params": {
                "c": self.c,
                "variant": self.variant,
                "schur": self.schur.descriptor(),
            },
        }
        if self.seed is not None:
            d["params"]["seed"] = int(self.seed)
        return d


class Composition(AnalyticFunction):
    """outer(inner(z)); inner must map the disk into itself where used."""

    kind = "composition"

    def __init__(self, outer: AnalyticFunction, inner: AnalyticFunction):
        self.outer = outer
        self.inner = inner
        self.domain_is_disk = outer.domain_is_disk or inner.domain_is_disk
        self.is_mobius = outer.is_mobius and inner.is_mobius
        try:
            self.is_class_a = (
                abs(self.value(0j)) < 1e-12 and abs(self.deriv(0j) - 1.0) < 1e-12
            )
        except (DomainError, DivisionBySingular):
            self.is_class_a = False

    def _inner_vals(self, zs):
        iv = self.inner._value(zs)
        if (
            self.outer.domain_is_disk
            and iv.size
            and np.max(np.abs(iv)) >= 1.0
        ):
            raise DomainError("inner values left the outer function's disk domain")
        return iv

    def _value(self, zs):
        return self.outer._value(self._inner_vals(zs))

    def _deriv(self, zs):
        iv = self._inner_vals(zs)
        return self.outer._deriv(iv) * self.inner._deriv(zs)

    def _preschwarzian(self, zs):
        iv = self._inner_vals(zs)
        return self.outer._preschwarzian(iv) * self.inner._deriv(
            zs
        ) + self.inner._preschwarzian(zs)

    def _schwarzian(self, zs):
        iv = self._inner_vals(zs)
        return self.outer._schwarzian(iv) * self.inner._deriv(
            zs
        ) ** 2 + self.inner._schwarzian(zs)

    def jet(self, z, order):
        ij = self.inner.jet(complex(z), order)
        oj = self.outer.jet(ij.coeffs[0], order)
        return jet_compose(oj, ij)

    def descriptor(self):
        return {
            "kind": "composition",
            "params": {
                "outer": self.outer.descriptor(),
                "inner": self.inner.descriptor(),
            },
        }


class QuadraticPerturbation(AnalyticFunction):
    """base(z) + delta * z^2: shifts the second Taylor coefficient only.

    Scaling delta far enough manufactures certified non-members of F(c)
    while staying in the normalized class A.
    """

    kind = "perturbed"

    def __init__(self, base: AnalyticFunction, delta: complex):
        self.base = base
        self.delta = complex(delta)
        self.is_class_a = base.is_class_a

    def _value(self, zs):
        return self.base._value(zs) + self.delta * zs * zs

    def _deriv(self, zs):
        return self.base._deriv(zs) + 2.0 * self.delta * zs

    def _parts(self, zs):
        fp = self.base._deriv(zs)
        pb = self.base._preschwarzian(zs)
        gp = fp + 2.0 * self.delta * zs
        gp = np.where(np.abs(gp) <= SINGULAR_TOL, np.nan + 0j, gp)
        return fp, pb, gp

    def _preschwarzian(self, zs):
        fp, pb, gp = self._parts(zs)
        with np.errstate(invalid="ignore", divide="ignore"):
            return (pb * fp + 2.0 * self.delta) / gp

    def _schwarzian(self, zs):
        fp, pb, gp = self._parts(zs)
        sb = self.base._schwarzian(zs)
        gpp = pb * fp + 2.0 * self.delta
        gppp = fp * (sb + 1.5 * pb * pb)  # f''' of the base
        with np.errstate(invalid="ignore", divide="ignore"):
            return gppp / gp - 1.5 * (gpp / gp) ** 2

    def jet(self, z, order):
        z = complex(z)
        quad = TaylorJet(
            z, (self.delta * z * z, 2.0 * self.delta * z, self.delta)
        ).padded(order).truncated(order)
        return jet_add(self.base.jet(z, order), quad)

    def descriptor(self):
        return {
            "kind": "perturbed",
            "params": {
                "base": self.base.descriptor(),
                "delta": _pair(self.delta),
            },
        }


# ---------------------------------------------------------------------------
# Constructors and serialization


def make_extremal_fc(c: float) -> ExtremalFc:
    return ExtremalFc(c)


def make_extremal_fc_star(c: float) -> ExtremalFcStar:
    return ExtremalFcStar(c)


def make_extremal_fc_lambda(c: float, lam: complex) -> ExtremalFcLambda:
    return ExtremalFcLambda(c, lam)


def make_gallery(name: str, **params) -> AnalyticFunction:
    if name == "identity":
        return Identity()
    if name == "koebe":
        return Koebe()
    if name == "half_plane":
        return half_plane()
    if name == "mobius":
        return Mobius(params["a"], params["b"], params["c"], params["d"])
    raise ValueError(f"unknown gallery member {name!r}")


def random_schur(seed: int, degree: int) -> SchurFunction:
    """Seed-deterministic Blaschke product: zeros uniform in the disk of
    radius 0.95 (keeps series well-conditioned while still exercising
    near-boundary behavior), uniform unimodular rotation; degree 0 is a
    pure rotation."""
    if not (0 <= degree <= 8):
        raise ValueError("degree must be in [0, 8]")
    rng = np.random.default_rng(seed)
    zeros = []
    for _ in range(degree):
        r = 0.95 * math.sqrt(rng.uniform())
        theta = 2.0 * math.pi * rng.uniform()
        zeros.append(r * np.exp(1j * theta))
    rotation = np.exp(2j * np.pi * rng.uniform())
    return SchurFunction.blaschke(zeros, rotation)


def random_member(spec: ClassSpec, seed: int, degree: int) -> SubordinationMember:
    """Seed-deterministic member of F(c) or F0(c), certified by
    construction from a random Schur datum (see :func:`random_schur`)."""
    schur = random_schur(seed, degree)
    variant = "F0" if spec.zero_second_derivative else "F"
    return SubordinationMember(spec.c, schur, variant, seed=seed)


def jet_at(f: AnalyticFunction, z: complex, order: int) -> TaylorJet:
    """Jet of f at an interior point; the recentering service for all
    pointwise derivative formulas."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError(f"jet requested at |z| >= 1: {z}")
    if order < 0:
        raise ValueError("order must be non-negative")
    return f.jet(z, order)


def from_descriptor(d: dict) -> AnalyticFunction:
    kind = d.get("kind")
    params = d.get("params", {})
    if kind == "identity":
        return Identity()
    if kind == "koebe":
        return Koebe()
    if kind == "half_plane":
        return half_plane()
    if kind == "mobius":
        return Mobius(*(_unpair(params[k]) for k in "abcd"))
    if kind == "polynomial":
        coeffs = d.get("coeffs", params.get("coeffs"))
        return Polynomial([_unpair(c) for c in coeffs])
    if kind == "extremal_fc":
        return ExtremalFc(params["c"])
    if kind == "extremal_fc_star":
        return ExtremalFcStar(params["c"])
    if kind == "extremal_fc_lambda":
        return ExtremalFcLambda(params["c"], _unpair(params["lam"]))
    if kind == "subordination":
        return SubordinationMember(
            params["c"],
            SchurFunction.from_descriptor(params["schur"]),
            params.get("variant", "F"),
            seed=params.get("seed"),
        )
    if kind == "composition":
        return Composition(
            from_descriptor(params["outer"]), from_descriptor(params["inner"])
        )
    if kind == "perturbed":
        return QuadraticPerturbation(
            from_descriptor(params["base"]), _unpair(params["delta"])
        )
    raise ValueError(f"unknown function descriptor kind {kind!r}")
