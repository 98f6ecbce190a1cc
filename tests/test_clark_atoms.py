"""Clark atoms of the Schur-built members: the poles and masses of
P_f(z) = c * sum_j mu_j / (zeta_j - z), and the jets at z != 0 built on them.

For inner s the atoms are the n + k roots of omega = z^k s = 1 on the circle
(k = 1 for F, 2 for F0), with masses 1/|omega'| summing to 1; for a constant
s = sigma with |sigma| < 1 they are the k roots of sigma z^k = 1.
"""

import numpy as np
import pytest

from schwarznorm.functions import (
    ClassSpec,
    SchurFunction,
    SubordinationMember,
    jet_at,
    random_member,
)
from schwarznorm.jets import TaylorJet, jet_div, jet_linear
from schwarznorm.schwarzian import preschwarzian_at, schwarzian_at

EPS = np.finfo(float).eps
C_SET = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
SEEDS = range(16)


@pytest.mark.parametrize("variant", ["F", "F0"])
@pytest.mark.parametrize("degree", range(9))
def test_inner_data(degree, variant):
    # 16 members per case, 288 in all, c running over C_SET; degree 0 is
    # f_{c,lambda} (F0) and its F twin, with k atoms of mass 1/k
    for seed in SEEDS:
        c = C_SET[seed % len(C_SET)]
        f = random_member(ClassSpec(c, variant == "F0"), 1000 * degree + seed, degree)
        zeta, mu = f.clark_atoms()
        k = 2 if variant == "F0" else 1
        assert zeta.shape == mu.shape == (degree + k,), seed
        assert np.max(np.abs(np.abs(zeta) - 1.0)) <= 1e-14, seed
        assert np.max(np.abs(zeta**k * f.schur.value(zeta) - 1.0)) <= 1e-13, seed
        assert np.all(mu > 0), seed
        assert abs(np.sum(mu) - 1.0) <= 1e-14, seed
        # Julia-Caratheodory: |omega'| = k + sum (1 - |a|^2)/|zeta - a|^2
        angular = k + sum((1.0 - abs(a) ** 2) / np.abs(zeta - a) ** 2 for a in f.schur.zeros)
        assert np.max(np.abs(mu * angular - 1.0)) <= 1e-13, seed


def constant_p_series(c, sigma, variant, z, count):
    """Taylor coefficients at z of c sigma/(1 - sigma z) (F) and
    c sigma z/(1 - sigma z^2) (F0), by the jet algebra."""
    order = count - 1
    if variant == "F":
        num = jet_linear(c * sigma, 0.0, z, order)
        den = jet_linear(1.0 - sigma * z, -sigma, z, order)
    else:
        num = jet_linear(c * sigma * z, c * sigma, z, order)
        den = TaylorJet(z, (1.0 - sigma * z * z, -2.0 * sigma * z, -sigma)).padded(order)
    return jet_div(num, den).coeffs


@pytest.mark.parametrize("variant", ["F", "F0"])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.3 + 0.4j])
def test_constant_data(sigma, variant):
    c, k = 2.5, 2 if variant == "F0" else 1
    f = SubordinationMember(c, SchurFunction.constant_map(sigma), variant)
    zeta, mu = f.clark_atoms()
    if sigma == 0:
        assert zeta.size == mu.size == 0
    else:
        assert zeta.size == k
        assert np.all(np.abs(zeta) > 1.0)
        assert np.max(np.abs(sigma * zeta**k - 1.0)) <= 1e-15
        assert np.max(np.abs(mu - 1.0 / k)) <= 1e-15
    for z in (0.3 - 0.2j, -0.6j, 0.9):
        got = f._p_coeffs(z, 16)
        want = constant_p_series(c, sigma, variant, z, 16)
        for n, (a, b) in enumerate(zip(got, want)):
            # the size of the terms, which may cancel in the F0 sum
            scale = c * np.sum(mu * np.abs(zeta - z) ** -(n + 1))
            assert abs(a - b) <= 16 * (n + 1) * EPS * scale, (z, n)


def test_jets_away_from_the_origin_use_no_schur_jets(monkeypatch):
    def refuse(self, center, order):
        raise AssertionError("SchurFunction.jet called")

    members = [random_member(ClassSpec(2.0, f0), 7, d) for f0 in (False, True) for d in (0, 3, 8)]
    members.append(SubordinationMember(2.5, SchurFunction.constant_map(0.3 + 0.4j), "F0"))
    monkeypatch.setattr(SchurFunction, "jet", refuse)
    for f in members:
        for z in (0.3 - 0.2j, -0.9j):
            for order in (1, 2, 3, 32):
                assert jet_at(f, z, order).order == order
            preschwarzian_at(f, z)
            schwarzian_at(f, z)
