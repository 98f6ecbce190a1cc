"""Tests of the benchmark's reference code, independent of schwarznorm.

Run with ``python3 -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import reference as ref

H = 1e-6  # 1 - r of the dense sampling circle


def _schur(seed: int, degree: int, c: float, variant: str) -> ref.SchurData:
    rng = np.random.default_rng(seed)
    zeros = tuple(0.95 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
                  for _ in range(degree))
    return ref.SchurData(c, variant, zeros, complex(np.exp(2j * math.pi * rng.uniform())))


def _dense_max(data: ref.SchurData, oracle: ref.Oracle):
    """Largest weighted moduli on |z| = 1 - H: a uniform angular grid plus
    grids of step H/50 across every root, where the peaks are ~H wide."""
    r = 1.0 - H
    thetas = [np.linspace(0.0, 2.0 * np.pi, 100_000, endpoint=False)]
    thetas += [np.angle(z) + np.linspace(-20 * H, 20 * H, 2001) for z in oracle.roots]
    zs = r * np.exp(1j * np.concatenate(thetas))
    w = 1.0 - r * r
    return (float(np.max(w * np.abs(data.p(zs)))),
            float(np.max(w * w * np.abs(data.schwarzian(zs)))))


CASES = [(seed, degree, c, variant)
         for seed, degree in ((8, 8), (1, 1), (3, 5), (17, 2), (4, 0))
         for c in (1.0, 2.0, 3.0) for variant in ("F", "F0")]


@pytest.mark.parametrize("seed,degree,c,variant", CASES)
def test_oracle_matches_dense_sampling_near_the_circle(seed, degree, c, variant):
    data = _schur(seed, degree, c, variant)
    oracle = ref.boundary_oracle(data)
    assert len(oracle.roots) == degree + data.k
    roots = np.array(oracle.roots)
    np.testing.assert_allclose(np.abs(roots), 1.0, atol=1e-14)
    np.testing.assert_allclose(roots ** data.k * data.blaschke(roots), 1.0, atol=1e-12)
    p_max, s_max = _dense_max(data, oracle)
    # The radial limits are approached at rate O(1 - r) and nothing on the
    # circle beats them.
    assert p_max == pytest.approx(oracle.pre_schwarzian, rel=1e-4)
    assert s_max == pytest.approx(oracle.schwarzian, rel=1e-4)


def test_oracle_of_the_known_under_reported_member():
    # Zeros and rotation of random_member(ClassSpec(2.0), seed=8, degree=8),
    # redrawn here with the same numpy generator stream.
    data = _schur(8, 8, 2.0, "F")
    assert ref.boundary_oracle(data).pre_schwarzian == pytest.approx(0.6846379, abs=1e-7)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 2.5, 3.0])
def test_oracle_of_the_extremal_maps(c):
    # f_c is variant F with s = 1 and f_c* variant F0 with s = 1; their P
    # norms are boundary limits, as is the S norm of f_c* for c <= 2.
    fc = ref.boundary_oracle(ref.SchurData(c, "F", (), 1.0))
    fc_star = ref.boundary_oracle(ref.SchurData(c, "F0", (), 1.0))
    assert fc.pre_schwarzian == pytest.approx(ref.gallery_norms("fc", c)["pre_schwarzian"])
    assert fc.schwarzian == pytest.approx(ref.gallery_norms("fc", c)["schwarzian"], abs=1e-12)
    assert fc_star.pre_schwarzian == pytest.approx(c)
    assert fc_star.schwarzian == pytest.approx(c * (4.0 - c) / 2.0)
    assert fc_star.schwarzian <= ref.gallery_norms("fc_star", c)["schwarzian"] + 1e-12


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_ode_reference_matches_the_closed_form_of_fc_star(c):
    zs = np.array([0.3, 0.5j, -0.7 + 0.2j, 0.6 - 0.6j, 0.95 * np.exp(0.4j), -0.95, 0.99j])
    f, fp = ref.ode_values(ref.SchurData(c, "F0", (), 1.0), zs)
    f_exact, fp_exact = ref.fc_star_closed_form(c, zs)
    np.testing.assert_allclose(fp, fp_exact, rtol=1e-10)
    np.testing.assert_allclose(f, f_exact, rtol=1e-10)


def test_ode_reference_matches_the_closed_form_of_fc():
    # f_c(z) = ((1 - z)^(1 - c) - 1)/(c - 1), f_c'(z) = (1 - z)^(-c)
    c = 1.7
    zs = np.array([0.2 + 0.1j, -0.8j, 0.9, -0.5 + 0.5j])
    f, fp = ref.ode_values(ref.SchurData(c, "F", (), 1.0), zs)
    np.testing.assert_allclose(fp, (1.0 - zs) ** (-c), rtol=1e-10)
    np.testing.assert_allclose(f, ((1.0 - zs) ** (1.0 - c) - 1.0) / (c - 1.0), rtol=1e-10)


def test_schwarzian_formula_matches_finite_differences_of_p():
    data = _schur(3, 5, 1.5, "F0")
    z, h = 0.4 - 0.3j, 1e-5
    dp = (data.p(z + h) - data.p(z - h)) / (2 * h)
    s = dp - 0.5 * data.p(z) ** 2
    assert complex(data.schwarzian(z)) == pytest.approx(complex(s), rel=1e-8)
