"""Pointwise pre-Schwarzian and Schwarzian derivatives plus the structural
identities they satisfy (chain rule, Moebius invariance, the linear-ODE
relation), exposed as residual-checkable operations.

Definitions: P_f = f''/f' and S_f = P_f' - P_f^2 / 2.  Everything here goes
through jets, so the formulas hold uniformly for gallery maps and the
path-integrated Schur-built members; closed forms, where a function carries
them, serve as independent cross-checks in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivisionBySingular, DomainError, SINGULAR_TOL
from .functions import AnalyticFunction, Composition, jet_at
from .jets import jet_differentiate, jet_div, jet_pow


@dataclass(frozen=True)
class DerivativePoint:
    """P_f and S_f at a point; values are absent (None) when f' vanishes
    there, never fabricated."""

    z: complex
    pre_schwarzian: complex | None
    schwarzian: complex | None
    local_univalence_ok: bool


def preschwarzian_at(f: AnalyticFunction, z: complex) -> complex:
    """f''(z)/f'(z) from the order-2 jet of f at z."""
    j = jet_at(f, z, 2)
    fp = j.coeffs[1]
    if abs(fp) <= SINGULAR_TOL:
        raise DivisionBySingular(f"f' vanishes at {z}")
    return 2.0 * j.coeffs[2] / fp


def schwarzian_at(f: AnalyticFunction, z: complex) -> complex:
    """S_f(z) = P_f'(z) - P_f(z)^2 / 2 from the order-3 jet of f at z."""
    fpj = jet_differentiate(jet_at(f, z, 3))
    if abs(fpj.coeffs[0]) <= SINGULAR_TOL:
        raise DivisionBySingular(f"f' vanishes at {z}")
    pj = jet_div(jet_differentiate(fpj), fpj)
    return pj.coeffs[1] - 0.5 * pj.coeffs[0] ** 2


def derivative_point(f: AnalyticFunction, z: complex) -> DerivativePoint:
    try:
        return DerivativePoint(z, preschwarzian_at(f, z), schwarzian_at(f, z), True)
    except DivisionBySingular:
        return DerivativePoint(z, None, None, False)


def composition_rule_residual(
    f: AnalyticFunction, phi: AnalyticFunction, z: complex
) -> float:
    """|S_{f o phi}(z) - [S_f(phi(z)) * phi'(z)^2 + S_phi(z)]|.

    The left side is evaluated through jets of the composed function, the
    right side from the components, so the chain rule (with the square on
    phi') is checked between two independent evaluation routes.
    """
    w = phi.value(z)
    if abs(w) >= 1.0:
        raise DomainError("phi(z) outside the unit disk")
    lhs = schwarzian_at(Composition(f, phi), z)
    rhs = schwarzian_at(f, w) * phi.deriv(z) ** 2 + schwarzian_at(phi, z)
    return abs(lhs - rhs)


def ode_residual(f: AnalyticFunction, z: complex) -> float:
    """|u''(z) + (S_f(z)/2) u(z)| for u = (f')^(-1/2).

    Vanishes identically for analytic locally univalent f; the residual
    measures the joint consistency of the jet algebra and schwarzian_at.
    """
    fj = jet_at(f, z, 3)
    fpj = jet_differentiate(fj)
    u = jet_pow(fpj, -0.5)
    u_pp = 2.0 * u.coeffs[2]
    s = schwarzian_at(f, z)
    return abs(u_pp + 0.5 * s * u.coeffs[0])
