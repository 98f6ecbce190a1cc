"""The Taylor coefficients of P_f = f''/f' at z != 0 that the member jets
read off the Clark atoms, against a 40-digit series of the Blaschke form.

The reference multiplies the exact series of each factor
b(z + w) = (z + w - a)/(1 - conj(a)(z + w)) at z: b_0 = (z - a)/d and
b_k = (1 - |a|^2) conj(a)^(k-1)/d^(k+1) with d = 1 - conj(a) z, and divides
c phi by 1 - (z + w) phi, all in mpmath.  The pole sum for coefficient k
loses up to about (k + 1) eps/(1 - |z|) relative to the size of its terms,
c * sum_j mu_j |zeta_j - z|^-(k+1): the test allows 16 times that.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from schwarznorm.functions import ClassSpec, random_member

EPS = np.finfo(float).eps
ORDER = 32
RADII = (0.3, 0.6, 0.9, 0.99, 1.0 - 1e-4)
C_SET = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
# 24 members: degrees 0 to 8, F and F0 alternating, c running over C_SET
MEMBERS = [(C_SET[i % 6], i % 2 == 1, 500 + i, i % 9) for i in range(24)]


def series_mul(a, b):
    return [mpmath.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def series_div(a, b):
    out = []
    for k in range(len(a)):
        out.append((a[k] - mpmath.fsum(b[i] * out[k - i] for i in range(1, k + 1))) / b[0])
    return out


def reference_p(f, z, count):
    """The first ``count`` Taylor coefficients of c phi/(1 - z phi) at z."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        s = [mpmath.mpc(f.schur.rotation)] + [mpmath.mpc(0)] * (count - 1)
        for a in f.schur.zeros:
            a = mpmath.mpc(a)
            ca, d = mpmath.conj(a), 1 - mpmath.conj(a) * z
            mass = 1 - abs(a) ** 2
            s = series_mul(s, [(z - a) / d] + [mass * ca ** (k - 1) / d ** (k + 1)
                                               for k in range(1, count)])
        ident = [z, mpmath.mpc(1)] + [mpmath.mpc(0)] * (count - 2)
        phi = series_mul(ident, s) if f.variant == "F0" else s
        zphi = series_mul(ident, phi)
        p = series_div(phi, [1 - zphi[0]] + [-t for t in zphi[1:]])
        return [complex(mpmath.mpf(f.c) * t) for t in p]


@pytest.mark.parametrize("c, f0, seed, degree", MEMBERS)
def test_pole_sums_match_mpmath(c, f0, seed, degree):
    f = random_member(ClassSpec(c, f0), seed, degree)
    zeta, mu = f.clark_atoms()
    heavy = zeta[np.argmax(mu)]
    rng = np.random.default_rng(seed)
    for j, r in enumerate(RADII):
        # every other point lies on the ray to the heaviest atom
        angle = cmath.phase(heavy) if (seed + j) % 2 == 0 else 2.0 * math.pi * rng.uniform()
        z = r * cmath.exp(1j * angle)
        got, want = f._p_coeffs(z, ORDER), reference_p(f, z, ORDER)
        for k in range(ORDER):
            scale = c * np.sum(mu * np.abs(zeta - z) ** -(k + 1))
            assert abs(got[k] - want[k]) <= 16 * (k + 1) * EPS / (1.0 - r) * scale, (z, k)
