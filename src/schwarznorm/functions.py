"""Analytic functions on the unit disk, queryable for jets at any point.

The zoo has two layers:

* a closed-form gallery (identity, Koebe, half-plane, general Moebius maps,
  polynomials) with exact derivative formulas;
* members of the convex-type classes F(c) and F0(c) (maps of the
  normalized class A whose curvature quantity 1 + z f''/f' has real part
  above 1 - c/2), built from subordination data: a Schur function s turns
  into omega(z) = z*s(z) (or z^2*s(z) for the f''(0)=0 subclass), and f is
  reconstructed from f''/f' = c*phi/(1 - z*phi) with phi = omega/z.  The
  extremal maps are the members with a unimodular constant s: ``f_c``
  (s == 1) and ``f_c*``, ``f_{c,lambda}`` (F0 with s == lambda).  Seeded
  random members draw s from finite Blaschke products.

Subordination members keep their Schur data, so f''/f' and the Schwarzian
are evaluated from exact rational expressions everywhere in the disk; f and
f' themselves are recovered by path integration along [0, z].  Values of
every function are vectorized over numpy arrays.

Each kind has one hook per quantity, and the P_f and S_f hooks take an
ndarray or a plain complex: a scalar query runs the same formula on the
scalar.  Kinds built from numpy operations (polynomials, compositions,
perturbations) promote a scalar to a 0-d array first, which keeps numpy's
complex arithmetic and so its last bits.

All values are immutable after construction; evaluation is pure and safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import exp_path_integrals, ray_path_integrals
from ._sampling import disk_samples
from .errors import DivisionBySingular, DomainError, SINGULAR_TOL
from .jets import (
    TaylorJet,
    jet_add,
    jet_constant,
    jet_compose,
    jet_div,
    jet_exp,
    jet_identity,
    jet_integrate,
    jet_linear,
    jet_mul,
    jet_scale,
)

DEFAULT_JET_ORDER = 32


def _prep(z) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=complex)
    if arr.size and np.max(np.abs(arr)) >= 1.0:
        raise DomainError("evaluation outside the open unit disk")
    return arr, arr.ndim == 0


def _scalar_query(hook, z) -> complex:
    """``hook`` at one point given as a scalar, as a plain complex; NaN, the
    hooks' mark of a zero of f', raises :class:`DivisionBySingular`."""
    zc = complex(z)
    if abs(zc) >= 1.0:
        raise DomainError("evaluation outside the open unit disk")
    val = complex(hook(zc))
    if val != val:  # nan
        raise DivisionBySingular(f"f' vanishes at {z}")
    return val


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
    at most one.  s and s' come from one pass over the factors
    (``value_and_deriv``), s' by the product rule; an ndarray and a plain
    complex run the same operations."""

    def __init__(self, kind: str, zeros=(), rotation: complex = 1.0, value: complex = 0.0):
        if kind not in ("constant", "blaschke"):
            raise ValueError(f"unknown Schur kind {kind!r}")
        self.kind = kind
        if kind == "constant":
            value = complex(value)
            if not abs(value) <= 1.0 + 1e-12:
                raise ValueError("constant Schur value must have modulus <= 1")
            # s and every jet of it start from one leading factor: this
            # constant, or a Blaschke product's rotation
            self.constant = self._lead = value
            self.zeros: tuple[complex, ...] = ()
            self.rotation = 1.0 + 0j
        else:
            zeros = tuple(complex(a) for a in zeros)
            if not all(abs(a) < 1.0 for a in zeros):
                raise ValueError("Blaschke zeros must lie inside the disk")
            rotation = complex(rotation)
            if not abs(abs(rotation) - 1.0) <= 1e-12:
                raise ValueError("rotation factor must be unimodular")
            self.constant = None
            self.zeros = zeros
            self.rotation = self._lead = rotation / abs(rotation)
        # (a, conj(a), 1 - |a|^2) per zero, formed once for every evaluation
        self._factors = tuple((a, a.conjugate(), 1.0 - abs(a) ** 2) for a in self.zeros)
        if np.max(np.abs(self.value(disk_samples(1000, 0.999)))) > 1.0 + 1e-12:
            raise ValueError("Schur function exceeds modulus 1 on the disk")

    @staticmethod
    def constant_map(value: complex) -> "SchurFunction":
        return SchurFunction("constant", value=value)

    @staticmethod
    def blaschke(zeros, rotation: complex = 1.0) -> "SchurFunction":
        return SchurFunction("blaschke", zeros=zeros, rotation=rotation)

    def _start(self, z):
        """z as a complex ndarray of positive rank or else a plain complex,
        with s and s' of no factors in the same form."""
        # a plain complex, the norm refinement's query, skips both checks
        if type(z) is not complex:
            if isinstance(z, np.ndarray) and z.ndim:
                z = np.asarray(z, dtype=complex)
                return z, np.full_like(z, self._lead), np.zeros_like(z)
            z = complex(z)
        return z, self._lead, 0j

    def value(self, z):
        z, out, _ = self._start(z)
        # (z - a) stays an unnamed temporary: from 256 KiB on, numpy
        # multiplies into it in place, and naming it would swap the operands
        # of a complex multiply that is not bitwise commutative
        for a, ca, _ in self._factors:
            out = out * (z - a) / (1.0 - ca * z)
        return out

    def deriv(self, z):
        return self.value_and_deriv(z)[1]

    def value_and_deriv(self, z):
        """(s(z), s'(z)) from one pass over the Blaschke factors
        b_j = (z-a_j)/(1-conj(a_j) z): s by the operations of ``value``, and
        s' by the product rule, using s of the factors before this one."""
        z, out, d = self._start(z)
        for a, ca, mass in self._factors:
            den = 1.0 - ca * z
            # den * den, not den ** 2: the same bits, where CPython's integer
            # power on a plain complex takes 2.5 times as long
            d = d * ((z - a) / den) + out * (mass / (den * den))
            out = out * (z - a) / den
        return out, d

    def jet(self, center: complex, order: int) -> TaylorJet:
        out = jet_constant(self._lead, order, center)
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
    override ``_polar_value`` and ``_value_and_deriv``.  ``_preschwarzian``
    and ``_schwarzian`` take an ndarray or a plain complex, and serve scalar
    queries too; kinds built from numpy operations promote a plain complex
    to a 0-d array on entry, to keep numpy's bits.  The public accessors
    accept scalars or arrays, enforce |z| < 1 and raise
    :class:`DivisionBySingular` for scalar queries at singular points.
    """

    kind = "abstract"
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
        if isinstance(z, np.ndarray) and z.ndim:
            return self._preschwarzian(_prep(z)[0])
        return _scalar_query(self._preschwarzian, z)

    def schwarzian(self, z):
        if isinstance(z, np.ndarray) and z.ndim:
            return self._schwarzian(_prep(z)[0])
        return _scalar_query(self._schwarzian, z)

    def jet(self, z: complex, order: int) -> TaylorJet:
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class Identity(AnalyticFunction):
    kind = "identity"
    is_class_a = True

    def _value(self, zs):
        return zs.copy()

    def _deriv(self, zs):
        return np.ones_like(zs)

    def _preschwarzian(self, zs):
        return 0j if type(zs) is complex else np.zeros_like(zs)

    _schwarzian = _preschwarzian

    def jet(self, z, order):
        return jet_identity(complex(z), order)

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

    def jet(self, z, order):
        z = complex(z)
        m = jet_linear(1.0 - z, -1.0, z, order)
        return jet_div(jet_identity(z, order), jet_mul(m, m))

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
        if not np.all(np.isfinite([a, b, c, d])):
            raise ValueError("Moebius coefficients must be finite")
        det = a * d - b * c
        if abs(det) <= SINGULAR_TOL:
            raise ValueError("degenerate Moebius coefficients: ad - bc = 0")
        self.a, self.b, self.c, self.d = a, b, c, d
        self.det = det
        if _kind:
            self.kind = _kind
        if abs(d) > SINGULAR_TOL:
            self.is_class_a = (
                abs(b / d) < 1e-12 and abs(det / (d * d) - 1.0) < 1e-12
            )

    def _den(self, zs):
        den = self.c * zs + self.d
        if (abs(den) <= SINGULAR_TOL if type(den) is complex
                else np.any(np.abs(den) <= SINGULAR_TOL)):
            raise DivisionBySingular("Moebius pole hit inside the disk")
        return den

    def _value(self, zs):
        return (self.a * zs + self.b) / self._den(zs)

    def _deriv(self, zs):
        return self.det / self._den(zs) ** 2

    def _preschwarzian(self, zs):
        return -2.0 * self.c / self._den(zs)

    def _schwarzian(self, zs):
        self._den(zs)  # a pole inside the disk raises, as it does for P_f
        return 0j if type(zs) is complex else np.zeros_like(zs)

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
        zs = np.asarray(zs, dtype=complex)
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

    def _masked_deriv(self, zs):
        """f', with NaN where it vanishes."""
        fp = self._horner(zs, self._dcoeffs(1))
        return np.where(np.abs(fp) <= SINGULAR_TOL, np.nan + 0j, fp)

    def _preschwarzian(self, zs):
        fp = self._masked_deriv(zs)
        with np.errstate(invalid="ignore", divide="ignore"):
            return self._horner(zs, self._dcoeffs(2)) / fp

    def _schwarzian(self, zs):
        fp = self._masked_deriv(zs)
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


class SubordinationMember(AnalyticFunction):
    """Member of F(c) (or F0(c)) reconstructed from Schur data.

    With phi = s (variant "F") or phi(z) = z*s(z) (variant "F0"), the
    defining relation f''/f' = c*phi/(1 - z*phi) pins down exact rational
    formulas for f''/f' and the Schwarzian, the latter from one
    ``SchurFunction.value_and_deriv`` pass for s and s'; f' = exp(G) with
    G = integral of f''/f' along [0, z], and f integrates f'.  Membership
    holds by construction since omega = z*phi maps into the disk with
    omega(0) = 0.
    """

    kind = "subordination"
    is_class_a = True

    def __init__(self, c: float, schur: SchurFunction, variant: str = "F", seed=None):
        self.c = float(ClassSpec(c).c)
        if variant not in ("F", "F0"):
            raise ValueError("variant must be 'F' or 'F0'")
        self.schur = schur
        self.variant = variant
        self.seed = seed

    # A plain complex stays a plain complex in the hooks below, as it does
    # in the Schur pass.
    def _preschwarzian(self, zs):
        s = self.schur.value(zs)
        phi = zs * s if self.variant == "F0" else s
        return self.c * phi / (1.0 - zs * phi)

    def _schwarzian(self, zs):
        s, ds = self.schur.value_and_deriv(zs)
        phi, dphi = (zs * s, s + zs * ds) if self.variant == "F0" else (s, ds)
        return (
            self.c
            * (dphi + (1.0 - self.c / 2.0) * phi * phi)
            / (1.0 - zs * phi) ** 2
        )

    def _value(self, zs):
        _, f = exp_path_integrals(self._preschwarzian, zs)
        return f

    def _polar_value(self, radii, thetas):
        return ray_path_integrals(self._preschwarzian, radii, thetas)

    def _deriv(self, zs):
        g, _ = exp_path_integrals(self._preschwarzian, zs, need_outer=False)
        return np.exp(g)

    def _value_and_deriv(self, zs):
        # one integration pass: G does not depend on need_outer
        g, f = exp_path_integrals(self._preschwarzian, zs)
        return f, np.exp(g)

    def origin_jet(self, order: int) -> TaylorJet:
        """Jet of f at 0: f' = exp(integral of f''/f'), f = integral of f'."""
        fp = jet_exp(jet_integrate(self._p_jet(0j, order)).truncated(order))
        return jet_integrate(fp).truncated(order)

    def _p_jet(self, z: complex, order: int) -> TaylorJet:
        """Jet of f''/f' = c*phi/(1 - z*phi) at z."""
        zj, phi = jet_identity(z, order), self.schur.jet(z, order)
        if self.variant == "F0":
            phi = jet_mul(zj, phi)
        one_minus = jet_add(jet_constant(1.0, order, z), jet_scale(jet_mul(zj, phi), -1.0))
        return jet_scale(jet_div(phi, one_minus), self.c)

    def jet(self, z, order):
        z = complex(z)
        if z == 0:
            return self.origin_jet(order)
        if order == 0:
            return TaylorJet(z, (self.value(z),))
        p = self._p_jet(z, order)
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
        zs = np.asarray(zs, dtype=complex)
        iv = self._inner_vals(zs)
        return self.outer._preschwarzian(iv) * self.inner._deriv(
            zs
        ) + self.inner._preschwarzian(zs)

    def _schwarzian(self, zs):
        zs = np.asarray(zs, dtype=complex)
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
        zs = np.asarray(zs, dtype=complex)
        fp, pb, gp = self._parts(zs)
        with np.errstate(invalid="ignore", divide="ignore"):
            return (pb * fp + 2.0 * self.delta) / gp

    def _schwarzian(self, zs):
        zs = np.asarray(zs, dtype=complex)
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


def ExtremalFc(c: float) -> SubordinationMember:
    """f_c(z) = ((1-z)^(1-c) - 1)/(c - 1), -log(1-z) at c = 1: the
    boundary-sharp member of F(c), with s == 1 and f' = (1-z)^(-c)."""
    return SubordinationMember(c, SchurFunction.blaschke((), 1.0), "F")


def ExtremalFcLambda(c: float, lam: complex) -> SubordinationMember:
    """The member of F0(c) with s == lambda, |lambda| = 1, and so
    f'(z) = (1 - lambda z^2)^(-c/2); its modulus along rays realizes the
    sharp growth/distortion bounds of F0(c)."""
    return SubordinationMember(c, SchurFunction.blaschke((), lam), "F0")


def ExtremalFcStar(c: float) -> SubordinationMember:
    """f_c*, the antiderivative of (1 - z^2)^(-c/2): the odd, f''(0) = 0
    norm extremal of F0(c)."""
    return ExtremalFcLambda(c, 1.0)


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
