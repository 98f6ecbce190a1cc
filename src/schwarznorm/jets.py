"""Truncated complex power series ("jets") at a point of the unit disk.

A :class:`TaylorJet` stores the coefficients ``c[k] = f^(k)(z0)/k!`` of an
analytic function around a center ``z0`` with ``|z0| < 1``, up to a finite
order ``N``.  Jets are the evaluation currency for everything built from
derivatives here: sums, Cauchy products, quotients, exp/log/pow via the
standard coefficient recurrences, termwise integration/differentiation and
Horner-style composition.  Binary operations require a shared center and
truncate to the smaller order; all operations return fresh jets, inputs are
never mutated.

Division, log and pow reject a leading coefficient smaller than
``SINGULAR_TOL`` in modulus: for the quotients f''/f' used downstream this
is exactly a zero of f', i.e. loss of local univalence, and must surface as
:class:`DivisionBySingular` instead of producing large garbage values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import CenterMismatchError, DivisionBySingular, SINGULAR_TOL

# Centers may only differ by roundoff to count as aligned.
_ALIGN_TOL = 1e-12


@dataclass(frozen=True)
class TaylorJet:
    """Truncated Taylor expansion: ``sum coeffs[k] * (w - center)**k``."""

    center: complex
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a jet needs at least the constant coefficient")
        if not cmath.isfinite(complex(self.center)):
            raise ValueError("non-finite jet center")
        # Centers outside the disk are allowed at the container level:
        # expanding a Moebius or polynomial factor around an image point
        # f(z) needs them.  Disk membership is enforced where analytic
        # functions are queried (jet_at and the evaluation accessors).
        object.__setattr__(self, "center", complex(self.center))
        coeffs = tuple(map(complex, self.coeffs))
        if not all(map(cmath.isfinite, coeffs)):
            raise ValueError("non-finite jet coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, w: complex) -> complex:
        """Evaluate the truncated series at ``w`` by Horner's rule."""
        dw = complex(w) - self.center
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * dw + c
        return acc

    def truncated(self, order: int) -> "TaylorJet":
        if order < 0:
            raise ValueError("order must be non-negative")
        if order >= self.order:
            return self
        return TaylorJet(self.center, self.coeffs[: order + 1])

    def padded(self, order: int) -> "TaylorJet":
        """Extend with zero coefficients up to ``order`` (no-op if shorter)."""
        if order <= self.order:
            return self
        return TaylorJet(self.center, self.coeffs + (0j,) * (order - self.order))


def jet_constant(value: complex, order: int = 0, center: complex = 0j) -> TaylorJet:
    return TaylorJet(center, (complex(value),) + (0j,) * order)


def jet_identity(center: complex = 0j, order: int = 1) -> TaylorJet:
    """Jet of the function w -> w around ``center``; order 0 keeps only its
    value."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return TaylorJet(center, ((complex(center), 1.0 + 0j) + (0j,) * order)[: order + 1])


def jet_linear(a: complex, b: complex, center: complex = 0j, order: int = 1) -> TaylorJet:
    """Jet of w -> a + b*(w - center) to ``order``; order 0 keeps a alone."""
    return TaylorJet(center, (complex(a), complex(b))[: order + 1] + (0j,) * (order - 1))


def jet_scale(a: TaylorJet, s: complex) -> TaylorJet:
    return TaylorJet(a.center, tuple(s * c for c in a.coeffs))


def _check_centers(a: TaylorJet, b: TaylorJet) -> None:
    if abs(a.center - b.center) > _ALIGN_TOL:
        raise CenterMismatchError(
            f"jet centers differ: {a.center} vs {b.center}"
        )


def jet_add(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    _check_centers(a, b)
    n = min(a.order, b.order)
    return TaylorJet(a.center, tuple(a.coeffs[k] + b.coeffs[k] for k in range(n + 1)))


def jet_mul(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """Cauchy product truncated to the smaller order."""
    _check_centers(a, b)
    n = min(a.order, b.order)
    out = [0j] * (n + 1)
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return TaylorJet(a.center, tuple(out))


def jet_div(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """Quotient q with q*b == a through the shared order.

    The terms of b's zero coefficients are skipped with the bits kept: an
    accumulator that starts without a -0 part never gets one, and then
    subtracting a zero leaves it as it is.  So only a sparse b skips, and
    only when no coefficient of a has a -0 part."""
    _check_centers(a, b)
    if abs(b.coeffs[0]) <= SINGULAR_TOL:
        raise DivisionBySingular(
            f"leading denominator coefficient {b.coeffs[0]!r} below {SINGULAR_TOL}"
        )
    n = min(a.order, b.order)
    b0 = b.coeffs[0]
    keep_all = all(b.coeffs[1 : n + 1]) or any(map(_negative_zero_part, a.coeffs[: n + 1]))
    terms = []  # (j, b_j) of the terms of q_k, in the full loop's order
    q = []
    for k in range(n + 1):
        if k and (keep_all or b.coeffs[k]):
            terms.insert(0, (k, b.coeffs[k]))
        acc = a.coeffs[k]
        for j, bj in terms:
            acc -= q[k - j] * bj
        q.append(acc / b0)
    return TaylorJet(a.center, tuple(q))


def _negative_zero_part(c: complex) -> bool:
    return (c.real == 0.0 and math.copysign(1.0, c.real) < 0.0) or (
        c.imag == 0.0 and math.copysign(1.0, c.imag) < 0.0
    )


def jet_exp(a: TaylorJet) -> TaylorJet:
    """Exponential via the recurrence (exp a)' = a' * exp a."""
    n = a.order
    e = [0j] * (n + 1)
    e[0] = cmath.exp(a.coeffs[0])
    for k in range(n):
        acc = 0j
        for j in range(k + 1):
            acc += (j + 1) * a.coeffs[j + 1] * e[k - j]
        e[k + 1] = acc / (k + 1)
    return TaylorJet(a.center, tuple(e))


def jet_log(a: TaylorJet) -> TaylorJet:
    """Principal-branch logarithm; requires a nonzero constant term."""
    if abs(a.coeffs[0]) <= SINGULAR_TOL:
        raise DivisionBySingular("log of a jet with (near-)zero constant term")
    n = a.order
    out = [0j] * (n + 1)
    out[0] = cmath.log(a.coeffs[0])
    a0 = a.coeffs[0]
    # a' = a * (log a)'  solved coefficientwise for (log a)'.
    for k in range(n):
        acc = (k + 1) * a.coeffs[k + 1]
        for j in range(k):
            acc -= (j + 1) * out[j + 1] * a.coeffs[k - j]
        out[k + 1] = acc / ((k + 1) * a0)
    return TaylorJet(a.center, tuple(out))


def jet_pow(a: TaylorJet, exponent: float) -> TaylorJet:
    """Principal-branch power a**exponent = exp(exponent * log a)."""
    return jet_exp(jet_scale(jet_log(a), exponent))


def jet_integrate(a: TaylorJet) -> TaylorJet:
    """Antiderivative vanishing at 0; only defined for jets centered at 0.

    Recentering is the caller's job for other points, so that the
    normalization "value 0 at the origin" stays unambiguous.
    """
    if a.center != 0:
        raise ValueError("jet_integrate is defined at center 0 only")
    out = [0j] + [a.coeffs[k] / (k + 1) for k in range(a.order + 1)]
    return TaylorJet(0j, tuple(out))


def jet_differentiate(a: TaylorJet) -> TaylorJet:
    if a.order < 1:
        raise ValueError("cannot differentiate an order-0 jet; pad it first")
    return TaylorJet(
        a.center, tuple((k + 1) * a.coeffs[k + 1] for k in range(a.order))
    )


def jet_compose(outer: TaylorJet, inner: TaylorJet) -> TaylorJet:
    """Jet of outer(inner(.)) around inner's center, truncated to min order.

    ``inner.coeffs[0]`` must equal ``outer.center`` so that the expansions
    line up; the result is a jet around ``inner.center``.
    """
    if abs(inner.coeffs[0] - outer.center) > _ALIGN_TOL:
        raise CenterMismatchError(
            "composition misaligned: inner value "
            f"{inner.coeffs[0]} != outer center {outer.center}"
        )
    n = min(outer.order, inner.order)
    # g = inner - outer.center has zero constant term after alignment.
    g = TaylorJet(inner.center, (0j,) + inner.coeffs[1 : n + 1]).padded(n)
    acc = jet_constant(outer.coeffs[n], n, inner.center)
    for k in range(n - 1, -1, -1):
        acc = jet_mul(acc, g)
        acc = jet_add(acc, jet_constant(outer.coeffs[k], n, inner.center))
    return acc
