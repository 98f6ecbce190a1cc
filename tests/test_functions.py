"""Function zoo: gallery values, extremal families, random members, jets."""

import cmath
import json
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from schwarznorm.errors import SINGULAR_TOL, DivisionBySingular, DomainError
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
    random_member,
    random_schur,
)
from schwarznorm._integrate import (
    _BLOCK_NODES,
    _CUM,
    _GL_N,
    _GL_W,
    _GL_X,
    _graded_breaks,
    _panel_breaks,
)
from schwarznorm._sampling import disk_samples
from schwarznorm.jets import jet_exp, jet_integrate
from schwarznorm.norms import weighted_modulus
from schwarznorm.schwarzian import schwarzian_at
from schwarznorm.theorems import (
    VALUE_SAMPLE_RADIUS,
    gamma_of,
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
        f = Identity()
        assert f.value(0.3 + 0.1j) == 0.3 + 0.1j
        assert jet_at(f, 0.3, 2).coeffs == (0.3, 1, 0)

    def test_koebe_value(self):
        assert abs(Koebe().value(0.5) - 2.0) < 1e-15

    def test_koebe_origin_jet(self):
        j = jet_at(Koebe(), 0j, 2)
        assert max(abs(g - w) for g, w in zip(j.coeffs, (0, 1, 2))) < 1e-14

    def test_half_plane(self):
        f = half_plane()
        assert abs(f.value(0j) - 1.0) < 1e-15
        assert not f.is_class_a

    def test_mobius_identity_detection(self):
        assert Mobius(1, 0, 0, 1).is_class_a
        assert not Mobius(1, 1, -1, 1).is_class_a

    def test_mobius_degenerate(self):
        with pytest.raises(ValueError):
            Mobius(1, 2, 2, 4)

    def test_domain_rejection(self):
        f = Koebe()
        with pytest.raises(DomainError):
            f.value(1.0)
        with pytest.raises(DomainError):
            jet_at(f, 1.2, 2)


class TestExtremalFc:
    def test_c2_is_geometric(self):
        j = jet_at(ExtremalFc(2.0), 0j, 5)
        assert max(abs(g - w) for g, w in zip(j.coeffs, (0, 1, 1, 1, 1, 1))) < 1e-12

    def test_c2_is_mobius(self):
        # f_2 = z/(1-z): S_f vanishes identically, on the array and scalar routes
        f = ExtremalFc(2.0)
        zs = bit_points(200)
        assert not np.any(f.schwarzian(zs))
        assert all(f.schwarzian(z) == 0 for z in zs[:20].tolist())

    def test_c1_log_series(self):
        j = jet_at(ExtremalFc(1.0), 0j, 4)
        want = (0, 1, 0.5, 1 / 3, 0.25)
        assert max(abs(g - w) for g, w in zip(j.coeffs, want)) < 1e-12

    def test_c1_limit_is_continuous(self):
        near = jet_at(ExtremalFc(1.0 + 5e-9), 0j, 4).coeffs
        limit = jet_at(ExtremalFc(1.0), 0j, 4).coeffs
        assert max(abs(a - b) for a, b in zip(near, limit)) < 1e-7

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.7, 2.0, 3.0])
    def test_normalization(self, c):
        j = jet_at(ExtremalFc(c), 0j, 1)
        assert abs(j.coeffs[0]) < 1e-12 and abs(j.coeffs[1] - 1) < 1e-12

    def test_c_range(self):
        with pytest.raises(ValueError):
            ExtremalFc(0.0)
        with pytest.raises(ValueError):
            ExtremalFc(3.5)

    def test_curvature_closed_form(self):
        # 1 + z f''/f' = (1 + (c-1) z)/(1 - z)
        f = ExtremalFc(1.4)
        for z in (0.5, -0.8, 0.3 + 0.4j):
            got = 1 + z * f.preschwarzian(z)
            want = (1 + 0.4 * z) / (1 - z)
            assert abs(got - want) < 1e-12

    def test_boundary_margin_vanishes(self):
        # the class inequality becomes tight along the negative real axis
        c = 1.7
        f = ExtremalFc(c)
        z = -(1 - 1e-6)
        margin = (1 + z * f.preschwarzian(z)).real - (1 - c / 2)
        assert 0 < margin < 1e-6


class TestExtremalFcStar:
    def test_c2_origin_jet(self):
        j = jet_at(ExtremalFcStar(2.0), 0j, 3)
        assert max(abs(g - w) for g, w in zip(j.coeffs, (0, 1, 0, 1 / 3))) < 1e-12

    def test_c2_value_is_atanh(self):
        f = ExtremalFcStar(2.0)
        rng = np.random.default_rng(0)
        zs = 0.8 * np.sqrt(rng.uniform(size=20)) * np.exp(
            2j * np.pi * rng.uniform(size=20)
        )
        assert np.max(np.abs(f.value(zs) - np.arctanh(zs))) < 1e-12

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_second_derivative_vanishes(self, c):
        j = jet_at(ExtremalFcStar(c), 0j, 2)
        assert abs(j.coeffs[2]) < 1e-12

    def test_c3_deriv_jet(self):
        # binomial series: (1-z^2)^(-3/2) = 1 + (3/2) z^2 + ...
        f = ExtremalFcStar(3.0)
        j = jet_at(f, 0j, 3)
        fp = (j.coeffs[1], 2 * j.coeffs[2], 3 * j.coeffs[3])
        assert max(abs(g - w) for g, w in zip(fp, (1, 0, 1.5))) < 1e-12


class TestExtremalFcLambda:
    def test_lambda_one_collapses_to_star(self):
        f1 = ExtremalFcLambda(1.5, 1.0)
        f2 = ExtremalFcStar(1.5)
        zs = np.array([0.2, -0.5 + 0.3j, 0.7j])
        assert np.max(np.abs(f1.value(zs) - f2.value(zs))) < 1e-13
        j1, j2 = jet_at(f1, 0.3j, 4), jet_at(f2, 0.3j, 4)
        assert max(abs(a - b) for a, b in zip(j1.coeffs, j2.coeffs)) < 1e-13

    def test_lambda_minus_one_lower_distortion(self):
        f = ExtremalFcLambda(2.0, -1.0)
        for r in np.linspace(0.05, 0.95, 10):
            assert abs(abs(f.deriv(r)) - 1.0 / (1.0 + r * r)) < 1e-12

    def test_second_derivative_vanishes(self):
        lam = np.exp(0.7j)
        j = jet_at(ExtremalFcLambda(2.5, lam), 0j, 2)
        assert abs(j.coeffs[2]) < 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            ExtremalFcLambda(2.0, 0.5)


# The closed forms by which f_c, f_c* and f_{c,lambda} were evaluated before
# they were Schur-built members, kept verbatim as the oracle: f and f' in
# numpy on arrays, P_f and S_f on arrays and plain complexes alike.
def former_fc(c):
    """(f, f', P_f, S_f) of the former f_c, with its log branch at c = 1."""

    def value(zs):
        if abs(c - 1.0) < 1e-8:
            return -np.log(1.0 - zs)
        return ((1.0 - zs) ** (1.0 - c) - 1.0) / (c - 1.0)

    return (value,
            lambda zs: (1.0 - zs) ** (-c),
            lambda zs: c / (1.0 - zs),
            lambda zs: (c * (2.0 - c) / 2.0) / (1.0 - zs) ** 2)


def former_fc_lambda(c, lam):
    """(f, f', P_f, S_f) of the former f_{c,lambda}: its f integrated its
    closed-form f' by the segment rule kept below."""
    lam = complex(lam) / abs(lam)

    def deriv(zs):
        return (1.0 - lam * zs * zs) ** (-c / 2.0)

    def schwarzian(zs):
        lzz = lam * zs * zs
        return c * lam * (1.0 + (1.0 - c / 2.0) * lzz) / (1.0 - lzz) ** 2

    return (lambda zs: reference_segment_integral(deriv, zs),
            deriv,
            lambda zs: c * lam * zs / (1.0 - lam * zs * zs),
            schwarzian)


def former_oracle_points(lam):
    """Halton points up to |z| = 0.999, and radii up to 0.999 toward the
    singularities of f_c (z = 1, lam = 1) and of f_{c,lambda}
    (lambda z^2 = 1)."""
    half = -cmath.phase(lam) / 2
    angles = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, half, half + np.pi])
    radii = np.array([0.3, 0.9, 0.99, 0.999])
    rays = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.concatenate([disk_samples(500, 0.999), rays])


@pytest.mark.parametrize("c", (0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
@pytest.mark.parametrize("kind, lam", [
    ("fc", 1.0), ("fc_star", 1.0),
    *(("fc_lambda", lam) for lam in (1.0, -1.0, 1j, np.exp(0.7j))),
], ids=["fc", "fc_star", "fc_lambda_1", "fc_lambda_-1", "fc_lambda_1j", "fc_lambda_exp0.7j"])
def test_extremals_match_the_former_closed_forms(kind, lam, c):
    # c = 1 is the former log branch of f_c; the bits of P_f and S_f of f_c
    # and of P_f of f_c* are pinned, which keeps the norm-sweep corpus's
    # entries for these maps where they are
    if kind == "fc":
        f, former, pinned = ExtremalFc(c), former_fc(c), (2, 3)
    elif kind == "fc_star":
        f, former, pinned = ExtremalFcStar(c), former_fc_lambda(c, 1.0), (2,)
    else:
        f, former, pinned = ExtremalFcLambda(c, lam), former_fc_lambda(c, lam), ()
    zs = former_oracle_points(lam)
    queries = (f.value, f.deriv, f.preschwarzian, f.schwarzian)
    for i, (query, oracle) in enumerate(zip(queries, former)):
        got, want = query(zs), oracle(zs)
        # equal values pass where both vanish (S_f of f_2, P_f at 0)
        err = np.abs(got - want)
        assert np.all((err == 0) | (err <= 1e-13 * np.abs(want))), i
        if i in pinned:
            assert same_bits(got, want), i
            for z in zs[::7].tolist():
                assert same_bits(query(z), oracle(z)), (i, z)

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


@pytest.mark.parametrize("build", [
    lambda: ExtremalFcLambda(2.0, cmath.nan),
    lambda: SchurFunction.constant_map(cmath.nan),
    lambda: SchurFunction.blaschke([cmath.nanj]),
    lambda: SchurFunction.blaschke([0.3], rotation=cmath.nan),
    lambda: Mobius(1, 0, cmath.nan, 1),
    lambda: Mobius(1, 0, 0, cmath.inf),
], ids=["lam", "schur_constant", "blaschke_zero", "blaschke_rotation",
        "mobius_nan", "mobius_inf"])
def test_non_finite_parameters_are_refused(build):
    # every comparison with NaN is false: a check written as "bad if x > bound"
    # passes NaN, so each one must fail unless the parameter is in range
    with pytest.raises(ValueError):
        build()


class TestRandomMember:
    def test_zero_schur_gives_identity(self):
        m = SubordinationMember(2.0, SchurFunction.constant_map(0.0), "F")
        zs = np.array([0.3, -0.2 + 0.4j, 0.8j])
        assert np.max(np.abs(m.value(zs) - zs)) < 1e-13

    def test_unit_schur_gives_extremal(self):
        # s == 1 makes f''/f' = c/(1-z), i.e. f' = (1-z)^(-c)
        for c in (1.0, 2.0, 2.7):
            m = SubordinationMember(c, SchurFunction.constant_map(1.0), "F")
            fc = ExtremalFc(c)
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
            lambda: Koebe(),
            lambda: half_plane(),
            lambda: ExtremalFc(1.3),
            lambda: ExtremalFcStar(2.4),
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


# The Schur and Schwarzian formulas from before s and s' shared one pass,
# kept verbatim as the reference, but for s', which is the product rule on
# plain complexes too: the pass must reproduce every bit.
def reference_schur_value(s, z):
    if not (isinstance(z, np.ndarray) and z.ndim):
        zc = complex(z)
        if s.kind == "constant":
            return s.constant
        out = s.rotation
        for a in s.zeros:
            out = out * (zc - a) / (1.0 - a.conjugate() * zc)
        return out
    zs = np.asarray(z, dtype=complex)
    if s.kind == "constant":
        return np.full_like(zs, s.constant)
    out = np.full_like(zs, s.rotation)
    for a in s.zeros:
        out = out * (zs - a) / (1.0 - np.conj(a) * zs)
    return out


def reference_schur_deriv(s, z):
    # the product rule, one factor at a time, as the pass runs it on a plain
    # complex and on an array alike, with den ** 2 where the pass now
    # multiplies den * den
    if not (isinstance(z, np.ndarray) and z.ndim):
        zs, out, d = complex(z), s.rotation, 0j
    else:
        zs = np.asarray(z, dtype=complex)
        out, d = np.full_like(zs, s.rotation), np.zeros_like(zs)
    for a in s.zeros:
        den = 1.0 - a.conjugate() * zs
        d = d * ((zs - a) / den) + out * ((1.0 - abs(a) ** 2) / den ** 2)
        out = out * (zs - a) / den
    return d


# s' from before the product rule: every leave-one-out product, on a plain
# complex one product at a time, on an array from prefix and suffix
# cumulative products.  Kept as a cross-check of the product rule, which
# sums in another order.
def former_schur_deriv(s, zs):
    scalar = not (isinstance(zs, np.ndarray) and zs.ndim)
    if s.kind == "constant" or not s.zeros:
        return 0j if scalar else np.zeros_like(np.asarray(zs, dtype=complex))
    if scalar:
        zc = complex(zs)
        factors = [(zc - a) / (1.0 - a.conjugate() * zc) for a in s.zeros]
        total = 0j
        for i, a in enumerate(s.zeros):
            term = (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * zc) ** 2
            for j, fj in enumerate(factors):
                if j != i:
                    term *= fj
            total += term
        return s.rotation * total
    zs = np.asarray(zs, dtype=complex)
    factors = np.stack([(zs - a) / (1.0 - np.conj(a) * zs) for a in s.zeros])
    dfactors = np.stack(
        [(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * zs) ** 2 for a in s.zeros]
    )
    ones = np.ones_like(zs)[None]
    prefix = np.concatenate([ones, np.cumprod(factors, axis=0)], axis=0)
    suffix = np.concatenate(
        [ones, np.cumprod(factors[::-1], axis=0)], axis=0
    )[::-1]
    return s.rotation * np.sum(dfactors * prefix[:-1] * suffix[1:], axis=0)


def reference_schwarzian(f, zs, schur_deriv=None):
    s = reference_schur_value(f.schur, zs)
    phi = zs * s if f.variant == "F0" else s
    ds = (schur_deriv or reference_schur_deriv)(f.schur, zs)
    dphi = s + zs * ds if f.variant == "F0" else ds
    return f.c * (dphi + (1.0 - f.c / 2.0) * phi * phi) / (1.0 - zs * phi) ** 2


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


BIT_SCHURS = {
    "constant_zero": lambda: SchurFunction.constant_map(0.0),
    "constant": lambda: SchurFunction.constant_map(0.4 - 0.7j),
    "constant_unimodular": lambda: SchurFunction.constant_map(1j),
    "rotation_only": lambda: SchurFunction.blaschke([], rotation=np.exp(0.7j)),
    "zero_at_origin": lambda: SchurFunction.blaschke([0j, 0.5 - 0.2j], rotation=-1.0),
    **{f"degree_{d}": (lambda d=d: random_schur(300 + d, d)) for d in range(1, 9)},
}


def bit_points(count, seed=3):
    rng = np.random.default_rng(seed)
    radii, angles = 0.995 * np.sqrt(rng.uniform(size=count)), rng.uniform(size=count)
    return radii * np.exp(2j * np.pi * angles)


class TestOnePassBitIdentity:
    """``value_and_deriv``, ``value`` and ``deriv`` give the bits of the
    separate loops, below, at and above numpy's 256 KiB temporary-elision
    size (1, 1,000, 16,384 and 20,000 points), and so do the Schwarzian
    hooks.  The pass squares den by ``den * den`` where the reference takes
    ``den ** 2``; the two give the same bits on arrays and plain complexes."""

    @pytest.mark.parametrize("name", sorted(BIT_SCHURS))
    def test_scalars(self, name):
        s = BIT_SCHURS[name]()
        for z in [0j, 0.3, -0.2j, *bit_points(200).tolist()]:
            v, d = s.value_and_deriv(z)
            want_v, want_d = reference_schur_value(s, z), reference_schur_deriv(s, z)
            assert type(v) is complex and type(d) is complex
            assert same_bits(v, want_v) and same_bits(d, want_d), z
            assert same_bits(s.value(z), want_v) and same_bits(s.deriv(z), want_d)

    @pytest.mark.parametrize("count", [1, 1000, 16384, 20000])
    @pytest.mark.parametrize("name", sorted(BIT_SCHURS))
    def test_arrays(self, name, count):
        s = BIT_SCHURS[name]()
        zs = bit_points(count)
        v, d = s.value_and_deriv(zs)
        want_v, want_d = reference_schur_value(s, zs), reference_schur_deriv(s, zs)
        assert same_bits(v, want_v) and same_bits(d, want_d)
        assert same_bits(s.value(zs), want_v) and same_bits(s.deriv(zs), want_d)

    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_schwarzian_hooks_on_the_search_grid(self, variant):
        from schwarznorm.norms import _radial_grid

        zs = _radial_grid(256)[:, None] * np.exp(2j * np.pi * np.arange(256) / 256)
        for degree in range(9):
            f = random_member(ClassSpec(1.5, variant == "F0"), degree, degree)
            assert same_bits(f._schwarzian(zs), reference_schwarzian(f, zs)), degree
            for z in zs[::37, ::41].ravel().tolist():
                assert same_bits(f.schwarzian(z), reference_schwarzian(f, z)), (degree, z)


def assert_close(got, want, rel=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rel * np.maximum(1.0, np.abs(want)))


def near_circle_points(s):
    """Plain complexes at 1 - r in {1e-1, ..., 1e-6}, on the angles of the
    zeros of s and halfway between neighbouring ones."""
    angles = sorted(cmath.phase(a) for a in s.zeros) or [0.7]
    between = [(t + u) / 2 for t, u in zip(angles, angles[1:] + [angles[0] + 2 * np.pi])]
    return [(1.0 - 10.0 ** -k) * cmath.exp(1j * t)
            for k in range(1, 7) for t in angles + between]


class TestProductRuleAgainstFormer:
    """s' by the product rule sums in another order than the former
    leave-one-out products, on arrays and on plain complexes; the two agree
    to rounding, up to the circle."""

    @pytest.mark.parametrize("name", sorted(BIT_SCHURS))
    def test_schur_deriv_at_scalars(self, name):
        s = BIT_SCHURS[name]()
        for z in [*near_circle_points(s), *bit_points(200).tolist()]:
            got = s.deriv(z)
            assert type(got) is complex
            assert_close(got, former_schur_deriv(s, z))

    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_weighted_schwarzian_at_scalars(self, variant):
        for degree in range(9):
            f = random_member(ClassSpec(1.5, variant == "F0"), degree, degree)
            for z in near_circle_points(f.schur):
                former = (1.0 - abs(z) ** 2) ** 2 * abs(
                    reference_schwarzian(f, z, former_schur_deriv)
                )
                assert_close(weighted_modulus(f, z, "schwarzian"), former)

    @pytest.mark.parametrize("count", [1000, 20000])
    @pytest.mark.parametrize("name", sorted(BIT_SCHURS))
    def test_schur_deriv(self, name, count):
        s = BIT_SCHURS[name]()
        zs = bit_points(count)
        assert_close(s.deriv(zs), former_schur_deriv(s, zs))

    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_weighted_schwarzian_on_the_search_grid(self, variant):
        from schwarznorm.norms import _radial_grid, _weighted_array

        zs = _radial_grid(256)[:, None] * np.exp(2j * np.pi * np.arange(256) / 256)
        for degree in range(9):
            f = random_member(ClassSpec(1.5, variant == "F0"), degree, degree)
            former = (1.0 - np.abs(zs) ** 2) ** 2 * np.abs(
                reference_schwarzian(f, zs, former_schur_deriv)
            )
            assert_close(_weighted_array(f, zs, 2), former)


# The former origin jet: memoized at order max(order, 64), then truncated
# to the order asked for.
def former_origin_jet(f, order):
    work = max(order, 64)
    fp = jet_exp(jet_integrate(f._p_jet(0j, work)).truncated(work))
    return jet_integrate(fp).truncated(work).truncated(order)


ORIGIN_ORDERS = [*range(13), 32, 64, 70]


class TestOriginJet:
    """Jet coefficients are prefix-stable, so the origin jet built at the
    requested order has the bits of the former order-64 one, truncated."""

    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("variant", ["F", "F0"])
    @pytest.mark.parametrize("name", sorted(BIT_SCHURS))
    def test_matches_the_former_memo(self, name, variant, c):
        f = SubordinationMember(c, BIT_SCHURS[name](), variant)
        for k in ORIGIN_ORDERS:
            assert f.origin_jet(k).coeffs == former_origin_jet(f, k).coeffs, k

    @pytest.mark.parametrize("variant", ["F", "F0"])
    def test_origin_queries_leave_the_function_unchanged(self, variant):
        f = random_member(ClassSpec(2.0, variant == "F0"), 11, 5)
        before = dict(vars(f))
        gamma_of(f, 2.0)
        jet_at(f, 0j, 3)
        schwarzian_at(f, 0j)
        assert vars(f) == before


def integrand_sizes():
    """A member of degree 4 and one of degree 0 (f_{c,lambda}), with the node
    count of every call of the integrand, f''/f', recorded into a list."""
    for f in (random_member(ClassSpec(2.0, True), 3, 4), ExtremalFcLambda(2.5, np.exp(0.7j))):
        sizes = []
        hook = f._preschwarzian
        f._preschwarzian = lambda zs, hook=hook: sizes.append(zs.size) or hook(zs)
        yield f, sizes


# The scattered-point integral by which f_{c,lambda} was the integral of its
# closed-form f' before it was a Schur-built member, kept verbatim as the
# oracle of its f.
def reference_segment_integral(func, zs):
    """Integral of ``func`` along [0, z] for every z in ``zs``."""
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    out = np.zeros_like(flat)
    if flat.size:
        breaks = _panel_breaks(float(np.max(np.abs(flat))))
        for ta, tb in zip(breaks[:-1], breaks[1:]):
            half = 0.5 * (tb - ta)
            nodes = ta + half * (_GL_X + 1.0)
            w = flat[:, None] * nodes[None, :]
            out += (half * flat) * (func(w) @ _GL_W)
    return out.reshape(zs.shape)


# The scattered-point loop from before its integrand calls took blocks of
# panels, one call per panel, kept verbatim as the reference.
def reference_exp_path_integrals(p_func, zs, need_outer=True):
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    g = np.zeros_like(flat)
    f = np.zeros_like(flat)
    if flat.size:
        breaks = _panel_breaks(float(np.max(np.abs(flat))))
        for ta, tb in zip(breaks[:-1], breaks[1:]):
            half = 0.5 * (tb - ta)
            nodes = ta + half * (_GL_X + 1.0)
            w = flat[:, None] * nodes[None, :]
            pv = p_func(w)
            scale = half * flat
            if need_outer:
                g_nodes = g[:, None] + scale[:, None] * (pv @ _CUM.T)
                f += scale * (np.exp(g_nodes) @ _GL_W)
            g = g + scale * (pv @ _GL_W)
    return g.reshape(zs.shape), f.reshape(zs.shape)


SEGMENT_POINTS = {
    "0-d": lambda: np.asarray(0.3 - 0.4j),
    "0-d_origin": lambda: np.asarray(0j),
    "empty": lambda: np.empty(0, dtype=complex),
    "2-D": lambda: bit_points(60, seed=5).reshape(6, 10),
    "1000_at_0.99": lambda: disk_samples(1000, 0.99),
    "200_at_0.999": lambda: disk_samples(200, 0.999),
    # every panel in one call (1 and 4 points), one panel a call at the
    # bound (512), and panels of more than _BLOCK_NODES nodes (513 and up)
    **{f"{n}_points": (lambda n=n: bit_points(n, seed=n)) for n in (1, 4, 512, 513, 1024, 1100)},
}

SEGMENT_MEMBERS = {
    "degree_0": lambda: random_member(ClassSpec(2.0), 7, 0),
    "F_degree_4": lambda: random_member(ClassSpec(2.0), 4, 4),
    "F0_degree_8": lambda: random_member(ClassSpec(3.0, True), 9, 8),
}


def assert_member_integrals(f, zs):
    """f, f' and the fused hook of a Schur-built member have the bits of
    the one-call-per-panel reference loop."""
    g, want_v = reference_exp_path_integrals(f._preschwarzian, zs)
    want_d = np.exp(g)
    assert same_bits(f.value(zs), want_v)
    assert same_bits(f.deriv(zs), want_d)
    fv, fp = f._value_and_deriv(zs)
    assert same_bits(fv, want_v) and same_bits(fp, want_d)


class TestSegmentIntegralBitIdentity:
    """f and f' of Schur-built members, f_{c,lambda} among them, from
    ``exp_path_integrals`` have the bits of the former one-call-per-panel
    loops, for every point-set shape."""

    @pytest.mark.parametrize("points", sorted(SEGMENT_POINTS))
    @pytest.mark.parametrize("lam", [1.0, -1j, np.exp(0.7j)])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 2.5, 3.0])
    def test_fc_lambda_values(self, c, lam, points):
        assert_member_integrals(ExtremalFcLambda(c, lam), SEGMENT_POINTS[points]())

    @pytest.mark.parametrize("points", sorted(SEGMENT_POINTS))
    @pytest.mark.parametrize("name", sorted(SEGMENT_MEMBERS))
    def test_member_values_and_derivatives(self, name, points):
        assert_member_integrals(SEGMENT_MEMBERS[name](), SEGMENT_POINTS[points]())

    @pytest.mark.parametrize("count", [1, 4, 200, 512, 513, 1100])
    def test_panel_blocks_stay_within_the_block_bound(self, count):
        # blocks of whole panels: a call of several panels stays within
        # _BLOCK_NODES nodes (128 KiB), a larger panel is a call of its own,
        # and together they take 16 nodes per point and panel
        zs = disk_samples(count, VALUE_SAMPLE_RADIUS)
        panels = _panel_breaks(float(np.max(np.abs(zs)))).size - 1
        panel_nodes = count * _GL_N
        per_call = max(1, _BLOCK_NODES // panel_nodes)
        for f, sizes in integrand_sizes():
            f.value(zs)
            assert all(size % panel_nodes == 0 for size in sizes), (f, sizes)
            assert max(sizes) <= max(_BLOCK_NODES, panel_nodes), (f, count, max(sizes))
            assert len(sizes) == -(-panels // per_call), (f, count, sizes)
            assert sum(sizes) == panels * panel_nodes, (f, count, sum(sizes))


# The per-kind scalar formulas from before the P_f and S_f hooks served
# scalar queries, kept verbatim as the reference; kinds without a copy went
# through their hook on a 0-d array.
def reference_p_scalar(f, z):
    if isinstance(f, Identity):
        return 0j
    if isinstance(f, Koebe):
        return (4.0 + 2.0 * z) / (1.0 - z * z)
    if isinstance(f, Mobius):
        den = f.c * z + f.d
        if abs(den) <= SINGULAR_TOL:
            raise DivisionBySingular("Moebius pole hit inside the disk")
        return -2.0 * f.c / den
    if isinstance(f, SubordinationMember):
        s = reference_schur_value(f.schur, z)
        phi = z * s if f.variant == "F0" else s
        return f.c * phi / (1.0 - z * phi)
    return complex(f._preschwarzian(np.asarray(z, dtype=complex))[()])


def reference_s_scalar(f, z):
    if isinstance(f, (Identity, Mobius)):
        return 0j
    if isinstance(f, Koebe):
        return -6.0 / (1.0 - z * z) ** 2
    if isinstance(f, SubordinationMember):
        return reference_schwarzian(f, z)
    return complex(f._schwarzian(np.asarray(z, dtype=complex))[()])


def reference_query(formula, f, z):
    """The former public scalar route around a reference formula."""
    val = formula(f, complex(z))
    if val != val:
        raise DivisionBySingular(f"f' vanishes at {z}")
    return val


SCALAR_KINDS = {
    "identity": Identity,
    "koebe": Koebe,
    "half_plane": half_plane,
    "mobius": lambda: Mobius(1.0, 0.3, 0.5j, 1.0),
    "polynomial": lambda: Polynomial([0, 1, 0.4 - 0.1j, 0.2j]),
    "fc_log_limit": lambda: ExtremalFc(1.0),
    "fc": lambda: ExtremalFc(2.5),
    "fc_lambda": lambda: ExtremalFcLambda(2.2, 1j),
    "fc_star": lambda: ExtremalFcStar(3.0),
    "member_F": lambda: random_member(ClassSpec(2.0), 4, 4),
    "member_F0": lambda: random_member(ClassSpec(1.5, True), 6, 6),
    # a pure rotation, one factor and the top degree run the Schur loops on
    # a plain complex 0, 1 and 8 times; a --spec member may carry a constant s
    "member_degree_0": lambda: random_member(ClassSpec(2.0), 7, 0),
    "member_degree_1": lambda: random_member(ClassSpec(1.5, True), 8, 1),
    "member_degree_8": lambda: random_member(ClassSpec(3.0), 9, 8),
    "member_constant_spec": lambda: from_descriptor(json.loads(
        '{"kind": "subordination", "params": {"c": 2.5, "variant": "F0", '
        '"schur": {"kind": "constant", "value": [0.3, -0.4]}}}')),
    "composition_koebe": lambda: Composition(Koebe(), Mobius(0.5, 0.0, 0.0, 1.0)),
    "composition_polynomial": lambda: Composition(Polynomial([0, 1, 0.3]), ExtremalFc(1.2)),
    "composition_member": lambda: Composition(half_plane(), random_member(ClassSpec(1.0), 3, 2)),
    "perturbed_fc": lambda: QuadraticPerturbation(ExtremalFc(1.3), 0.2 - 0.1j),
    "perturbed_koebe": lambda: QuadraticPerturbation(Koebe(), 0.5),
    "perturbed_member": lambda: QuadraticPerturbation(random_member(ClassSpec(2.0), 5, 3), 0.2 - 0.1j),
}


@pytest.mark.parametrize("name", sorted(SCALAR_KINDS))
def test_jet_has_the_requested_order(name):
    # order 0 included: a linear factor's jet keeps only its constant term
    f = SCALAR_KINDS[name]()
    for z in (0j, 0.3 - 0.2j):
        for order in range(6):
            assert jet_at(f, z, order).order == order, (name, z, order)


class TestScalarRoute:
    """A scalar query of P_f or S_f runs the kind's one hook on a plain
    complex and gives the bits of the former scalar formulas."""

    @pytest.mark.parametrize("name", sorted(SCALAR_KINDS))
    def test_same_bits_as_the_scalar_formulas(self, name):
        f = SCALAR_KINDS[name]()
        for z in [0j, 0.3, -0.5, -0.2j, *bit_points(300).tolist()]:
            for got, want in ((f.preschwarzian(z), reference_query(reference_p_scalar, f, z)),
                              (f.schwarzian(z), reference_query(reference_s_scalar, f, z))):
                assert type(got) is complex
                assert same_bits(got, want), (name, z)

    @pytest.mark.parametrize(
        "f, z, quantities",
        [
            (Mobius(1.0, 0.0, 2.0, 1.0), -0.5, ["p"]),  # pole; the former S_f formula gave 0
            (Polynomial([0, 0, 1]), 0j, ["p", "s"]),  # f' = 2z vanishes
        ],
    )
    def test_singular_points_raise(self, f, z, quantities):
        routes = {"p": (f.preschwarzian, reference_p_scalar),
                  "s": (f.schwarzian, reference_s_scalar)}
        for q in quantities:
            query, formula = routes[q]
            with pytest.raises(DivisionBySingular):
                reference_query(formula, f, z)
            with pytest.raises(DivisionBySingular):
                query(z)

    @pytest.mark.parametrize("z", [-0.5, np.array([0.1, -0.5, 0.3j])])
    @pytest.mark.parametrize("quantity", ["preschwarzian", "schwarzian"])
    def test_mobius_pole_raises(self, quantity, z):
        # S_f = 0 off the pole, but at it f is not analytic, for P_f and S_f alike
        with pytest.raises(DivisionBySingular):
            getattr(Mobius(1.0, 0.0, 2.0, 1.0), quantity)(z)


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
    lambda: Koebe(),
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
            lambda: ExtremalFcStar(0.5),
            lambda: ExtremalFcStar(3.0),
            lambda: ExtremalFcLambda(2.5, np.exp(0.7j)),
            lambda: ExtremalFcLambda(1.0, -1j),
            lambda: ExtremalFc(1.3),
            *DEFAULT_HOOK_KINDS,
        ],
    )
    def test_closed_form_and_default_kinds(self, builder):
        f = builder()
        for gridsize in (5, 50, 100, 200):  # from empty panels (5) to 68 radii in one (200)
            self.assert_matches_value(f, gridsize)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_near_the_circle(self, c):
        # one ray integration reaches 1 - 1e-6 over 35 graded panels; the
        # values keep to 1e-15/(1 - r) of value()'s
        radii = 1.0 - np.logspace(-1, -6, 11)
        thetas = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
        want_at = radii[:, None] * np.exp(1j * thetas)[None, :]
        for f in schur_panel("F", c) + schur_panel("F0", c) + [ExtremalFcStar(c), ExtremalFc(c)]:
            got, want = f._polar_value(radii, thetas), f.value(want_at)
            rel = np.abs(got - want) / np.abs(want)
            assert np.all(rel <= 1e-15 / (1.0 - radii[:, None])), (f, np.max(rel * (1.0 - radii[:, None])))

    def test_one_integration_pass_per_ray(self):
        # 16 integrand values per graded panel (10 to 0.98) and ray, whatever
        # the number of radii; value() takes 8 panels of 16 per point
        for f, sizes in integrand_sizes():
            f._polar_value(*polar_grid(50))
            assert sum(sizes) == 50 * 10 * 16, (f, sizes)

    @pytest.mark.parametrize("gridsize", [50, 200])
    def test_ray_blocks_stay_within_the_block_bound(self, gridsize):
        # blocks of whole rays: no integrand call exceeds _BLOCK_NODES nodes,
        # and together they still take 16 nodes per graded panel and ray
        for f, sizes in integrand_sizes():
            f._polar_value(*polar_grid(gridsize))
            assert max(sizes) <= _BLOCK_NODES, (f, gridsize, max(sizes))
            assert sum(sizes) == gridsize * 10 * 16, (f, gridsize, sum(sizes))

    def test_graded_panels(self):
        # each panel is at most half as long as its far end's distance to the
        # circle, up to one rounding of a number near 1; the recurrence stalls
        # below 1 - 2**-52, so the two largest radii below 1 must still end
        largest = [math.nextafter(1.0, 0.0), 1.0 - 2.0**-52]
        for r_max in [*np.linspace(0.01, 0.999, 100), *(1.0 - np.logspace(-3, -12, 40)), *largest]:
            breaks = _graded_breaks(float(r_max))
            assert breaks[0] == 0.0 and breaks[-1] == r_max
            assert np.all(np.diff(breaks) > 0.0), r_max
            assert np.all(np.diff(breaks) <= 0.5 * (1.0 - breaks[1:]) + np.spacing(1.0)), r_max
        assert [_graded_breaks(r).size - 1 for r in (0.98, 0.99, 1.0 - 1e-9)] == [10, 12, 52]

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0])
    def test_bruteforce_verdicts(self, c):
        square = Polynomial([0, 0, 1])
        others = [
            ExtremalFcStar(c),
            ExtremalFcLambda(c, np.exp(0.7j)),
            ExtremalFc(1.3),
            *(builder() for builder in DEFAULT_HOOK_KINDS),
            square,
        ]
        for gridsize in (2, 5, 50, 100):
            radii, thetas = polar_grid(gridsize)
            zs = (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
            for f in schur_panel("F", c) + schur_panel("F0", c) + others:
                vals = f.value(zs)
                pairs = cKDTree(np.column_stack([vals.real, vals.imag])).query_pairs(1e-10)
                assert univalence_bruteforce(f, gridsize) == (not pairs), (f, gridsize)
        assert not univalence_bruteforce(square, 50)

    @pytest.mark.parametrize("c, closed_form", [(1.0, np.arcsin), (2.0, np.arctanh)])
    def test_fc_star_closed_forms(self, c, closed_form):
        f = ExtremalFcStar(c)
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
        outer = Koebe()
        inner = Mobius(0.5, 0.0, 0.0, 1.0)  # z/2
        comp = Composition(outer, inner)
        z = 0.4 + 0.3j
        assert abs(comp.value(z) - outer.value(inner.value(z))) < 1e-14
        j = jet_at(comp, z, 3)
        oracle = cauchy_coefficients(comp, z, 3, rho=0.03)
        for got, want in zip(j.coeffs, oracle):
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_mobius_composition_stays_mobius(self):
        # S_f of a Moebius map of a Moebius map vanishes by the chain rule
        comp = Composition(half_plane(), Mobius(0.5, 0, 0, 1))
        assert not np.any(comp.schwarzian(bit_points(200)))


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
