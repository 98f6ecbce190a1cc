"""Pointwise derivative operators and the structural identities."""

import numpy as np
import pytest

from schwarznorm.errors import DivisionBySingular
from schwarznorm.functions import (
    ClassSpec,
    Composition,
    ExtremalFc,
    ExtremalFcStar,
    Identity,
    Koebe,
    Mobius,
    Polynomial,
    half_plane,
    random_member,
)
from schwarznorm.schwarzian import (
    composition_rule_residual,
    derivative_point,
    ode_residual,
    preschwarzian_at,
    schwarzian_at,
)


def random_disk_points(rng, n, r_max=0.8):
    return r_max * np.sqrt(rng.uniform(size=n)) * np.exp(
        2j * np.pi * rng.uniform(size=n)
    )


def random_outer_mobius(rng):
    """Moebius map with pole well outside the closed disk."""
    while True:
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        c = 0.4 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        d = 1.0
        if abs(a * d - b * c) > 0.1:
            return Mobius(a, b, c, d)


class TestPreschwarzian:
    def test_identity_is_zero(self):
        f = Identity()
        for z in (0j, 0.5, -0.3 + 0.2j):
            assert preschwarzian_at(f, z) == 0

    def test_origin_value_is_twice_a2(self):
        # for normalized f = z + a2 z^2 + ..., P(0) = f''(0) = 2 a2
        f = Polynomial([0, 1, 0.3 - 0.2j, 0.1])
        assert abs(preschwarzian_at(f, 0j) - 2 * (0.3 - 0.2j)) < 1e-14

    def test_fc_star_closed_form(self):
        # f''/f' = c z / (1 - z^2)
        for c in (1.0, 2.0, 3.0):
            f = ExtremalFcStar(c)
            for r in (0.1, 0.5, 0.9):
                assert abs(preschwarzian_at(f, r) - c * r / (1 - r * r)) < 1e-11

    def test_singular_point_raises(self):
        f = Polynomial([0, 1, 1])  # f' vanishes at -1/2
        with pytest.raises(DivisionBySingular):
            preschwarzian_at(f, -0.5)

    def test_derivative_point_reports_singularity(self):
        pt = derivative_point(Polynomial([0, 1, 1]), -0.5)
        assert not pt.local_univalence_ok
        assert pt.pre_schwarzian is None and pt.schwarzian is None


class TestSchwarzian:
    def test_mobius_maps_vanish(self):
        rng = np.random.default_rng(10)
        for f in (half_plane(), Identity(), random_outer_mobius(rng)):
            for z in random_disk_points(rng, 20):
                assert abs(schwarzian_at(f, complex(z))) < 1e-10

    def test_fc_star_at_origin(self):
        # hand oracle: P = cz/(1-z^2), so S(0) = P'(0) = c
        for c in (0.5, 1.0, 2.0, 3.0):
            assert abs(schwarzian_at(ExtremalFcStar(c), 0j) - c) < 1e-11

    def test_koebe_closed_form(self):
        f = Koebe()
        assert abs(schwarzian_at(f, 0j) + 6.0) < 1e-12
        rng = np.random.default_rng(11)
        for z in random_disk_points(rng, 20):
            z = complex(z)
            assert abs(schwarzian_at(f, z) + 6.0 / (1 - z * z) ** 2) < 1e-9

    def test_jet_route_agrees_with_closed_forms(self):
        rng = np.random.default_rng(12)
        funcs = [
            Koebe(),
            ExtremalFc(1.3),
            ExtremalFcStar(2.2),
            random_member(ClassSpec(2.0), 17, 5),
        ]
        for f in funcs:
            for z in random_disk_points(rng, 10):
                z = complex(z)
                s_jet, s_closed = schwarzian_at(f, z), f.schwarzian(z)
                assert abs(s_jet - s_closed) <= 1e-9 * max(1.0, abs(s_closed))
                p_jet, p_closed = preschwarzian_at(f, z), f.preschwarzian(z)
                assert abs(p_jet - p_closed) <= 1e-9 * max(1.0, abs(p_closed))

    def test_fc_star_weighted_identity(self):
        # S(z) * (1 - z^2)^2 = c (1 + (1 - c/2) z^2)
        rng = np.random.default_rng(13)
        for c in (0.5, 1.5, 2.5):
            f = ExtremalFcStar(c)
            for z in random_disk_points(rng, 35):
                z = complex(z)
                lhs = schwarzian_at(f, z) * (1 - z * z) ** 2
                rhs = c * (1 + (1 - c / 2) * z * z)
                assert abs(lhs - rhs) < 1e-9

    def test_zero_schwarzian_characterizes_mobius(self):
        rng = np.random.default_rng(14)
        pts = random_disk_points(rng, 100)
        mobius = [Identity(), half_plane(), ExtremalFc(2.0)]
        others = [
            Koebe(),
            ExtremalFc(1.5),
            ExtremalFcStar(2.0),
            random_member(ClassSpec(2.0), 23, 3),
        ]
        for f in mobius:
            assert max(abs(schwarzian_at(f, complex(z))) for z in pts) < 1e-9
        for f in others:
            assert max(abs(schwarzian_at(f, complex(z))) for z in pts) > 1e-3


class TestCompositionRule:
    def test_identity_inner(self):
        f = Koebe()
        assert composition_rule_residual(f, Identity(), 0.3) < 1e-12

    def test_random_gallery_pairs(self):
        rng = np.random.default_rng(15)
        outers = [Koebe(), ExtremalFc(1.2), half_plane()]
        inners = [Mobius(0.5, 0, 0, 1), Mobius(0.6, 0.1, 0.1, 1.0)]
        for f in outers:
            for phi in inners:
                for z in random_disk_points(rng, 10):
                    assert composition_rule_residual(f, phi, complex(z)) < 1e-8

    def test_mobius_outer_leaves_schwarzian(self):
        rng = np.random.default_rng(16)
        t = random_outer_mobius(rng)
        f = Koebe()
        for z in random_disk_points(rng, 10):
            z = complex(z)
            lhs = schwarzian_at(Composition(t, f), z)
            assert abs(lhs - schwarzian_at(f, z)) < 1e-10


class TestMobiusInvariance:
    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(17)
        gallery = [
            Koebe(),
            ExtremalFc(1.5),
            ExtremalFcStar(2.0),
        ]
        for k in range(100):
            t = random_outer_mobius(rng)
            f = gallery[k % len(gallery)]
            z = complex(random_disk_points(rng, 1)[0])
            lhs = schwarzian_at(Composition(t, f), z)
            rhs = schwarzian_at(f, z)
            assert abs(lhs - rhs) < 1e-9


class TestOdeRelation:
    def test_identity(self):
        assert ode_residual(Identity(), 0.2 + 0.1j) == 0

    def test_extremals(self):
        rng = np.random.default_rng(18)
        for c in (1.0, 2.0, 3.0):
            f = ExtremalFcStar(c)
            for z in random_disk_points(rng, 10):
                assert ode_residual(f, complex(z)) < 1e-8

    def test_koebe_point(self):
        assert ode_residual(Koebe(), 0.4 + 0.2j) < 1e-8

    def test_random_members(self):
        rng = np.random.default_rng(19)
        for seed in (1, 2):
            f = random_member(ClassSpec(2.0), seed, 4)
            for z in random_disk_points(rng, 5):
                assert ode_residual(f, complex(z)) < 1e-8
