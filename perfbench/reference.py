"""Reference values computed apart from schwarznorm.

Nothing here imports the package under test.  Members of F(c) and F0(c)
are described by their subordination data: the class parameter c, the
variant ("F": phi = s, "F0": phi = z s) and the zeros and unimodular
rotation of the Blaschke product s.  Closed-form extremal maps fit the same
description with s constant: f_c is variant F with s = 1 and f_{c,lambda}
(f_c* for lambda = 1) is variant F0 with s = lambda.

* ``boundary_oracle`` gives the exact radial limits of the weighted moduli
  of P_f and S_f at the boundary points where omega = z^k s equals 1; the
  largest of them is a lower bound for the hyperbolic norm.
* ``ode_values`` integrates f'' / f' = c phi / (1 - z phi) along [0, z]
  with an adaptive Runge-Kutta solver to give f and f'.
* The remaining helpers are closed forms: proven class bounds and the exact
  norms of the gallery maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


@dataclass(frozen=True)
class SchurData:
    """f''/f' = c phi / (1 - z phi) with phi = s (F) or z s (F0)."""

    c: float
    variant: str
    zeros: tuple[complex, ...]
    rotation: complex

    @property
    def k(self) -> int:
        """Power of z in omega = z^k s."""
        return 2 if self.variant == "F0" else 1

    def blaschke(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full_like(z, self.rotation)
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    def blaschke_logderiv(self, z):
        """s'/s = sum (1 - |a|^2) / ((z - a)(1 - conj(a) z))."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for a in self.zeros:
            out = out + (1.0 - abs(a) ** 2) / ((z - a) * (1.0 - np.conj(a) * z))
        return out

    def phi(self, z):
        z = np.asarray(z, dtype=complex)
        s = self.blaschke(z)
        return z * s if self.variant == "F0" else s

    def p(self, z):
        """f''/f' at z."""
        z = np.asarray(z, dtype=complex)
        ph = self.phi(z)
        return self.c * ph / (1.0 - z * ph)

    def schwarzian(self, z):
        """S_f = c (phi' + (1 - c/2) phi^2) / (1 - z phi)^2."""
        z = np.asarray(z, dtype=complex)
        s = self.blaschke(z)
        ds = s * self.blaschke_logderiv(z) if self.zeros else np.zeros_like(z)
        if self.variant == "F0":
            ph, dph = z * s, s + z * ds
        else:
            ph, dph = s, ds
        return self.c * (dph + (1.0 - self.c / 2.0) * ph * ph) / (1.0 - z * ph) ** 2


def _omega_roots(data: SchurData) -> np.ndarray:
    """The n + k points of the unit circle where omega = z^k s equals 1.

    omega = 1 is the polynomial equation
    rotation z^k prod (z - a) = prod (1 - conj(a) z); a Blaschke product of
    degree n + k takes the value 1 exactly n + k times, all on the circle.
    """
    lhs = np.array([complex(data.rotation)])
    rhs = np.array([1.0 + 0j])
    for a in data.zeros:
        lhs = np.convolve(lhs, [1.0, -a])
        rhs = np.convolve(rhs, [-np.conj(a), 1.0])
    lhs = np.concatenate([lhs, np.zeros(data.k, dtype=complex)])
    poly = lhs.copy()
    poly[len(poly) - len(rhs):] -= rhs
    roots = np.roots(poly)
    # Newton steps on log omega = 0 from the unit-circle projection; the
    # log-derivative k/z + s'/s has modulus >= k on the circle.
    z = roots / np.abs(roots)
    for _ in range(4):
        z = z - np.log(z ** data.k * data.blaschke(z)) / (
            data.k / z + data.blaschke_logderiv(z)
        )
        z = z / np.abs(z)
    return z


@dataclass(frozen=True)
class Oracle:
    pre_schwarzian: float
    schwarzian: float
    roots: tuple[complex, ...]

    def value(self, which: str) -> float:
        return getattr(self, which)


def boundary_oracle(data: SchurData) -> Oracle:
    """Largest radial boundary limits of (1-|z|^2)|P_f| and (1-|z|^2)^2|S_f|.

    At a root zeta of omega = 1 the angular derivative is
    |omega'(zeta)| = k + sum (1 - |a|^2) / |zeta - a|^2 (Julia-Caratheodory),
    and the limits are 2c / |omega'| and
    4c |phi' + (1 - c/2) phi^2| / |omega'|^2 with phi = omega / z.
    Away from the roots both weighted moduli tend to 0.
    """
    roots = _omega_roots(data)
    best_p = best_s = 0.0
    for zeta in roots:
        ang = data.k + sum((1.0 - abs(a) ** 2) / abs(zeta - a) ** 2 for a in data.zeros)
        domega = ang * np.conj(zeta)  # omega'(zeta) = |omega'| conj(zeta) when omega = 1
        phi = 1.0 / zeta
        dphi = domega / zeta - 1.0 / zeta ** 2
        best_p = max(best_p, 2.0 * data.c / ang)
        best_s = max(
            best_s,
            4.0 * data.c * abs(dphi + (1.0 - data.c / 2.0) * phi * phi) / ang ** 2,
        )
    return Oracle(float(best_p), float(best_s), tuple(complex(z) for z in roots))


def ode_values(data: SchurData, zs) -> tuple[np.ndarray, np.ndarray]:
    """f(z) and f'(z) by integrating G' = z p(t z), F' = z exp(G) over t in
    [0, 1] for all points at once (DOP853, rtol 1e-12)."""
    zs = np.asarray(zs, dtype=complex).ravel()
    n = zs.size

    def rhs(t, y):
        g = y[:n] + 1j * y[n:2 * n]
        dg = zs * data.p(t * zs)
        df = zs * np.exp(g)
        return np.concatenate([dg.real, dg.imag, df.real, df.imag])

    sol = solve_ivp(rhs, (0.0, 1.0), np.zeros(4 * n), method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"reference ODE solve failed: {sol.message}")
    y = sol.y[:, -1]
    g = y[:n] + 1j * y[n:2 * n]
    f = y[2 * n:3 * n] + 1j * y[3 * n:]
    return f, np.exp(g)


def fc_star_closed_form(c: float, zs) -> tuple[np.ndarray, np.ndarray]:
    """f_c*(z) = z 2F1(1/2, c/2; 3/2; z^2) and f_c*'(z) = (1 - z^2)^(-c/2)."""
    from scipy.special import hyp2f1

    zs = np.asarray(zs, dtype=complex)
    return zs * hyp2f1(0.5, c / 2.0, 1.5, zs * zs), (1.0 - zs * zs) ** (-c / 2.0)


# ---------------------------------------------------------------------------
# Closed-form bounds and norms


def proven_upper_bounds(c: float, variant: str) -> dict[str, float]:
    """||P|| <= c on F0(c) (Thm 2.3), ||P|| <= 2c on F(c), and
    ||S|| <= c(1 + |1 - c/2|) on F0(c) (Schwarz-Pick with Lemma A)."""
    if variant == "F0":
        return {"pre_schwarzian": c, "schwarzian": c * (1.0 + abs(1.0 - c / 2.0))}
    return {"pre_schwarzian": 2.0 * c}


def gallery_norms(kind: str, c: float | None = None) -> dict[str, float]:
    """Exact hyperbolic norms of the gallery maps.

    Koebe: P = (4 + 2z)/(1 - z^2), S = -6/(1 - z^2)^2, both norms 6.
    f_c: P = c/(1 - z) and (1-|z|^2)/|1 - z| < 2 with limit 2 at z -> 1, so
    ||P|| = 2c and ||S|| = 4 |c(2 - c)/2| = 2c|2 - c|.
    f_c*: ||P|| = c and ||S|| = c max(1, (4 - c)/2).
    """
    if kind == "koebe":
        return {"pre_schwarzian": 6.0, "schwarzian": 6.0}
    if kind == "fc":
        return {"pre_schwarzian": 2.0 * c, "schwarzian": 2.0 * c * abs(2.0 - c)}
    if kind == "fc_star":
        return {"pre_schwarzian": c, "schwarzian": c * max(1.0, (4.0 - c) / 2.0)}
    raise ValueError(f"no closed-form norms for {kind!r}")


def distortion_bounds(c: float, r) -> tuple[np.ndarray, np.ndarray]:
    """(1 + r^2)^(-c/2) <= |f'| <= (1 - r^2)^(-c/2) on F0(c) (Thm 2.2)."""
    r = np.asarray(r, dtype=float)
    return (1.0 + r * r) ** (-c / 2.0), (1.0 - r * r) ** (-c / 2.0)


def tolerance(x: float, rel: float) -> float:
    return rel * max(1.0, abs(x))
