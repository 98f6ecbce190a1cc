"""Function zoo: gallery values, extremal families, random members, jets."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from schwarznorm.errors import DomainError
from schwarznorm.functions import (
    ClassSpec,
    Composition,
    ExtremalFc,
    ExtremalFcLambda,
    ExtremalFcStar,
    Identity,
    Koebe,
    Mobius,
    Polynomial,
    QuadraticPerturbation,
    SchurFunction,
    SubordinationMember,
    from_descriptor,
    half_plane,
    jet_at,
    make_extremal_fc,
    make_extremal_fc_lambda,
    make_extremal_fc_star,
    make_gallery,
    random_member,
    random_schur,
)
from schwarznorm._sampling import disk_samples
from schwarznorm.theorems import (
    VALUE_SAMPLE_RADIUS,
    membership_status,
    univalence_bruteforce,
    verify_growth_distortion,
)


def cauchy_coefficients(f, z, order, rho=0.05, nodes=64):
    """Divided-difference oracle: Taylor coefficients from direct
    evaluations on a small circle (trapezoidal Cauchy integral)."""
    ws = z + rho * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = f.value(ws)
    return [
        complex(np.mean(vals * np.exp(-2j * np.pi * k * np.arange(nodes) / nodes)))
        / rho**k
        for k in range(order + 1)
    ]


class TestGallery:
    def test_identity(self):
        f = make_gallery("identity")
        assert f.value(0.3 + 0.1j) == 0.3 + 0.1j
        assert jet_at(f, 0.3, 2).coeffs == (0.3, 1, 0)

    def test_koebe_value(self):
        assert abs(make_gallery("koebe").value(0.5) - 2.0) < 1e-15

    def test_koebe_origin_jet(self):
        j = jet_at(make_gallery("koebe"), 0j, 2)
        assert max(abs(g - w) for g, w in zip(j.coeffs, (0, 1, 2))) < 1e-14

    def test_half_plane(self):
        f = make_gallery("half_plane")
        assert abs(f.value(0j) - 1.0) < 1e-15
        assert f.is_mobius and not f.is_class_a

    def test_mobius_identity_detection(self):
        assert Mobius(1, 0, 0, 1).is_class_a
        assert not Mobius(1, 1, -1, 1).is_class_a

    def test_mobius_degenerate(self):
        with pytest.raises(ValueError):
            Mobius(1, 2, 2, 4)

    def test_unknown_gallery(self):
        with pytest.raises(ValueError):
            make_gallery("lune")

    def test_domain_rejection(self):
        f = make_gallery("koebe")
        with pytest.raises(DomainError):
            f.value(1.0)
        with pytest.raises(DomainError):
            jet_at(f, 1.2, 2)


class TestExtremalFc:
    def test_c2_is_geometric(self):
        j = jet_at(make_extremal_fc(2.0), 0j, 5)
        assert max(abs(g - w) for g, w in zip(j.coeffs, (0, 1, 1, 1, 1, 1))) < 1e-12

    def test_c2_is_mobius(self):
        assert make_extremal_fc(2.0).is_mobius

    def test_c1_log_series(self):
        j = jet_at(make_extremal_fc(1.0), 0j, 4)
        want = (0, 1, 0.5, 1 / 3, 0.25)
        assert max(abs(g - w) for g, w in zip(j.coeffs, want)) < 1e-12

    def test_c1_limit_is_continuous(self):
        near = jet_at(make_extremal_fc(1.0 + 5e-9), 0j, 4).coeffs
        limit = jet_at(make_extremal_fc(1.0), 0j, 4).coeffs
        assert max(abs(a - b) for a, b in zip(near, limit)) < 1e-7

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.7, 2.0, 3.0])
    def test_normalization(self, c):
        j = jet_at(make_extremal_fc(c), 0j, 1)
        assert abs(j.coeffs[0]) < 1e-12 and abs(j.coeffs[1] - 1) < 1e-12

    def test_c_range(self):
        with pytest.raises(ValueError):
            make_extremal_fc(0.0)
        with pytest.raises(ValueError):
            make_extremal_fc(3.5)

    def test_curvature_closed_form(self):
        # 1 + z f''/f' = (1 + (c-1) z)/(1 - z)
        f = make_extremal_fc(1.4)
        for z in (0.5, -0.8, 0.3 + 0.4j):
            got = 1 + z * f.preschwarzian(z)
            want = (1 + 0.4 * z) / (1 - z)
            assert abs(got - want) < 1e-12

    def test_boundary_margin_vanishes(self):
        # the class inequality becomes tight along the negative real axis
        c = 1.7
        f = make_extremal_fc(c)
        z = -(1 - 1e-6)
        margin = (1 + z * f.preschwarzian(z)).real - (1 - c / 2)
        assert 0 < margin < 1e-6


class TestExtremalFcStar:
    def test_c2_origin_jet(self):
        j = jet_at(make_extremal_fc_star(2.0), 0j, 3)
        assert max(abs(g - w) for g, w in zip(j.coeffs, (0, 1, 0, 1 / 3))) < 1e-12

    def test_c2_value_is_atanh(self):
        f = make_extremal_fc_star(2.0)
        rng = np.random.default_rng(0)
        zs = 0.8 * np.sqrt(rng.uniform(size=20)) * np.exp(
            2j * np.pi * rng.uniform(size=20)
        )
        assert np.max(np.abs(f.value(zs) - np.arctanh(zs))) < 1e-12

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_second_derivative_vanishes(self, c):
        j = jet_at(make_extremal_fc_star(c), 0j, 2)
        assert abs(j.coeffs[2]) < 1e-12

    def test_c3_deriv_jet(self):
        # binomial series: (1-z^2)^(-3/2) = 1 + (3/2) z^2 + ...
        f = make_extremal_fc_star(3.0)
        j = jet_at(f, 0j, 3)
        fp = (j.coeffs[1], 2 * j.coeffs[2], 3 * j.coeffs[3])
        assert max(abs(g - w) for g, w in zip(fp, (1, 0, 1.5))) < 1e-12


class TestExtremalFcLambda:
    def test_lambda_one_collapses_to_star(self):
        f1 = make_extremal_fc_lambda(1.5, 1.0)
        f2 = make_extremal_fc_star(1.5)
        zs = np.array([0.2, -0.5 + 0.3j, 0.7j])
        assert np.max(np.abs(f1.value(zs) - f2.value(zs))) < 1e-13
        j1, j2 = jet_at(f1, 0.3j, 4), jet_at(f2, 0.3j, 4)
        assert max(abs(a - b) for a, b in zip(j1.coeffs, j2.coeffs)) < 1e-13

    def test_lambda_minus_one_lower_distortion(self):
        f = make_extremal_fc_lambda(2.0, -1.0)
        for r in np.linspace(0.05, 0.95, 10):
            assert abs(abs(f.deriv(r)) - 1.0 / (1.0 + r * r)) < 1e-12

    def test_second_derivative_vanishes(self):
        lam = np.exp(0.7j)
        j = jet_at(make_extremal_fc_lambda(2.5, lam), 0j, 2)
        assert abs(j.coeffs[2]) < 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            make_extremal_fc_lambda(2.0, 0.5)


class TestSchurFunction:
    def test_constant_bounds(self):
        SchurFunction.constant_map(0.5)
        with pytest.raises(ValueError):
            SchurFunction.constant_map(1.5)

    def test_blaschke_validation(self):
        with pytest.raises(ValueError):
            SchurFunction.blaschke([1.2])
        with pytest.raises(ValueError):
            SchurFunction.blaschke([0.3], rotation=2.0)

    def test_self_map_sampled(self):
        s = random_schur(11, 5)
        zs = 0.98 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert np.max(np.abs(s.value(zs))) <= 1.0 + 1e-12

    def test_deriv_against_finite_differences(self):
        s = random_schur(7, 4)
        h = 1e-6
        for z in (0.1 + 0.2j, -0.4, 0.6j):
            fd = (s.value(z + h) - s.value(z - h)) / (2 * h)
            assert abs(s.deriv(np.array(z)) - fd) < 1e-8

    def test_jet_matches_values(self):
        s = random_schur(5, 3)
        j = s.jet(0.2 - 0.1j, 6)
        for w in (0.01, 0.02j, -0.015 + 0.01j):
            assert abs(j(0.2 - 0.1j + w) - complex(s.value(0.2 - 0.1j + w))) < 1e-10


class TestRandomMember:
    def test_zero_schur_gives_identity(self):
        m = SubordinationMember(2.0, SchurFunction.constant_map(0.0), "F")
        zs = np.array([0.3, -0.2 + 0.4j, 0.8j])
        assert np.max(np.abs(m.value(zs) - zs)) < 1e-13

    def test_unit_schur_gives_extremal(self):
        # s == 1 makes f''/f' = c/(1-z), i.e. f' = (1-z)^(-c)
        for c in (1.0, 2.0, 2.7):
            m = SubordinationMember(c, SchurFunction.constant_map(1.0), "F")
            fc = make_extremal_fc(c)
            zs = np.array([0.5, -0.6, 0.2 + 0.7j])
            assert np.max(np.abs(m.value(zs) - fc.value(zs))) < 1e-11
            assert np.max(np.abs(m.deriv(zs) - (1 - zs) ** -c)) < 1e-11

    def test_membership_smoke(self):
        m = random_member(ClassSpec(2.0), seed=5, degree=4)
        verdict = membership_status(m, 2.0, 1000)
        assert verdict.status == "member_by_construction"
        assert verdict.margin > -1e-10

    def test_f0_variant_kills_second_coefficient(self):
        m = random_member(ClassSpec(1.5, True), seed=9, degree=3)
        j = jet_at(m, 0j, 2)
        assert abs(j.coeffs[2]) < 1e-14

    def test_seed_determinism(self):
        a = random_member(ClassSpec(2.0), seed=42, degree=5)
        b = random_member(ClassSpec(2.0), seed=42, degree=5)
        assert a.origin_jet(32).coeffs == b.origin_jet(32).coeffs

    def test_degree_range(self):
        with pytest.raises(ValueError):
            random_member(ClassSpec(2.0), 0, 9)

    def test_interior_jet_matches_cauchy_oracle(self):
        m = random_member(ClassSpec(1.5), seed=3, degree=4)
        z = 0.4 - 0.2j
        j = jet_at(m, z, 3)
        oracle = cauchy_coefficients(m, z, 3)
        for got, want in zip(j.coeffs, oracle):
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_membership_sweep(self):
        # every generated member passes the membership decider
        for c in (0.5, 1.0, 2.0, 3.0):
            for seed in range(200):
                m = random_member(ClassSpec(c), seed, seed % 9)
                assert membership_status(m, c, 400).status == "member_by_construction"


class TestRecentering:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: make_gallery("koebe"),
            lambda: make_gallery("half_plane"),
            lambda: make_extremal_fc(1.3),
            lambda: make_extremal_fc_star(2.4),
            lambda: Mobius(1.0, 0.2, 0.3, 1.0),
        ],
    )
    def test_jets_match_divided_differences(self, builder):
        f = builder()
        for z in (0.3 + 0.2j, -0.5, 0.1 - 0.6j):
            j = jet_at(f, z, 4)
            oracle = cauchy_coefficients(f, z, 4, rho=0.04)
            for got, want in zip(j.coeffs, oracle):
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def polar_grid(gridsize):
    """The nodes of ``univalence_bruteforce``: radii and angles."""
    radii = 0.98 * np.arange(1, gridsize + 1) / gridsize
    return radii, 2.0 * np.pi * np.arange(gridsize) / gridsize


def schur_panel(variant, c):
    return [
        random_member(ClassSpec(c, variant == "F0"), 100 + degree, degree)
        for degree in range(9)
    ]


# Kinds without a ray route; their hook evaluates ``_value`` on the grid.
DEFAULT_HOOK_KINDS = [
    lambda: make_gallery("koebe"),
    lambda: make_extremal_fc(1.3),
    lambda: QuadraticPerturbation(random_member(ClassSpec(2.0), 5, 3), 0.2 - 0.1j),
]


class TestPolarValue:
    """The polar-grid hook (one path integration per ray for path-integrated
    kinds) against ``value``, which integrates every point on its own."""

    def assert_matches_value(self, f, gridsize):
        radii, thetas = polar_grid(gridsize)
        got = f._polar_value(radii, thetas)
        assert got.shape == (gridsize, gridsize)
        rays = np.arange(0, gridsize, max(1, gridsize // 6))  # at most 7 rays
        want = f.value(radii[:, None] * np.exp(1j * thetas[rays])[None, :])
        rel = np.max(np.abs(got[:, rays] - want) / np.abs(want))
        assert rel <= 1e-12, (f, gridsize, rel)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_schur_members(self, variant, c):
        for f in schur_panel(variant, c):
            for gridsize in (50, 100, 200):
                self.assert_matches_value(f, gridsize)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: make_extremal_fc_star(0.5),
            lambda: make_extremal_fc_star(3.0),
            lambda: make_extremal_fc_lambda(2.5, np.exp(0.7j)),
            lambda: make_extremal_fc_lambda(1.0, -1j),
            *DEFAULT_HOOK_KINDS,
        ],
    )
    def test_closed_form_and_default_kinds(self, builder):
        f = builder()
        for gridsize in (5, 50, 100, 200):  # at 5 the gaps are split into panels
            self.assert_matches_value(f, gridsize)

    def test_one_integration_pass_per_ray(self):
        # 16 integrand values per grid node; value() takes 8 panels of 16
        cases = [
            (random_member(ClassSpec(2.0, True), 3, 4), "_preschwarzian"),
            (make_extremal_fc_lambda(2.5, np.exp(0.7j)), "_deriv"),
        ]
        for f, integrand in cases:
            sizes = []
            hook = getattr(f, integrand)
            setattr(f, integrand, lambda zs, hook=hook: sizes.append(zs.size) or hook(zs))
            f._polar_value(*polar_grid(50))
            assert sum(sizes) == 50 * 50 * 16, (f, sizes)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_bruteforce_verdicts(self, c):
        square = Polynomial([0, 0, 1])
        others = [
            make_extremal_fc_star(c),
            make_extremal_fc_lambda(c, np.exp(0.7j)),
            *(builder() for builder in DEFAULT_HOOK_KINDS),
            square,
        ]
        radii, thetas = polar_grid(50)
        zs = (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
        for f in schur_panel("F", c) + schur_panel("F0", c) + others:
            vals = f.value(zs)
            pairs = cKDTree(np.column_stack([vals.real, vals.imag])).query_pairs(1e-10)
            assert univalence_bruteforce(f, 50) == (not pairs), f
        assert not univalence_bruteforce(square, 50)

    @pytest.mark.parametrize("c, closed_form", [(1.0, np.arcsin), (2.0, np.arctanh)])
    def test_fc_star_closed_forms(self, c, closed_form):
        f = make_extremal_fc_star(c)
        for gridsize in (5, 50, 100, 200):
            radii, thetas = polar_grid(gridsize)
            want = closed_form(radii[:, None] * np.exp(1j * thetas)[None, :])
            rel = np.abs(f._polar_value(radii, thetas) - want) / np.abs(want)
            assert np.max(rel) <= 1e-12


class TestValueAndDeriv:
    """The fused hook: f and f' of path-integrated members from one
    integration pass, bit for bit what ``value`` and ``deriv`` give."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_schur_members(self, variant, c):
        zs = disk_samples(200, VALUE_SAMPLE_RADIUS)
        for f in schur_panel(variant, c):
            fv, fp = f._value_and_deriv(zs)
            assert np.array_equal(fv, f.value(zs)), f
            assert np.array_equal(fp, f.deriv(zs)), f

    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_growth_distortion_integrates_once(self, variant):
        for f in schur_panel(variant, 2.0):
            sizes = []
            hook = f._preschwarzian
            f._preschwarzian = lambda zs, hook=hook: sizes.append(zs.size) or hook(zs)
            fused = verify_growth_distortion(f, 2.0)
            fused_evals, sizes[:] = sum(sizes), []
            # the two-pass route: f' and f integrated separately
            f._value_and_deriv = lambda zs, f=f: (f._value(zs), f._deriv(zs))
            assert verify_growth_distortion(f, 2.0) == fused
            assert sum(sizes) == 2 * fused_evals > 0


class TestComposition:
    def test_values_and_jets(self):
        outer = make_gallery("koebe")
        inner = Mobius(0.5, 0.0, 0.0, 1.0)  # z/2
        comp = Composition(outer, inner)
        z = 0.4 + 0.3j
        assert abs(comp.value(z) - outer.value(inner.value(z))) < 1e-14
        j = jet_at(comp, z, 3)
        oracle = cauchy_coefficients(comp, z, 3, rho=0.03)
        for got, want in zip(j.coeffs, oracle):
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_mobius_composition_stays_mobius(self):
        comp = Composition(half_plane(), Mobius(0.5, 0, 0, 1))
        assert comp.is_mobius


class TestDescriptors:
    @pytest.mark.parametrize(
        "f",
        [
            Identity(),
            Koebe(),
            half_plane(),
            Mobius(1.0, 0.1j, 0.2, 1.0),
            Polynomial([0, 1, 0.5 + 0.25j]),
            ExtremalFc(1.5),
            ExtremalFcStar(2.5),
            ExtremalFcLambda(2.0, np.exp(1.1j)),
            random_member(ClassSpec(2.0), 3, 4),
            random_member(ClassSpec(1.0, True), 4, 2),
            Composition(Koebe(), Mobius(0.5, 0, 0, 1)),
        ],
    )
    def test_round_trip(self, f):
        g = from_descriptor(f.descriptor())
        assert g.descriptor() == f.descriptor()
        zs = np.array([0.3, -0.2 + 0.4j, 0.55j])
        assert np.max(np.abs(g.value(zs) - f.value(zs))) < 1e-12

    def test_plain_real_coeff_parse(self):
        f = from_descriptor({"kind": "polynomial", "coeffs": [0, 1, 1]})
        assert abs(f.value(0.2) - (0.2 + 0.04)) < 1e-15

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_descriptor({"kind": "zeta"})


class TestClassSpec:
    def test_validation(self):
        ClassSpec(3.0)
        with pytest.raises(ValueError):
            ClassSpec(0.0)
        with pytest.raises(ValueError):
            ClassSpec(3.2)

    def test_class_a_flags(self):
        assert Identity().is_class_a
        assert Koebe().is_class_a
        assert Polynomial([0, 1, 1]).is_class_a
        assert not Polynomial([1, 1]).is_class_a
        assert not half_plane().is_class_a
