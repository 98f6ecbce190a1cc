"""Membership, bound verifiers, lemma margins, univalence predicates."""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.spatial import cKDTree

from schwarznorm import theorems
from schwarznorm._sampling import disk_samples
from schwarznorm.errors import DivisionBySingular, DomainError, GammaDegenerate
from schwarznorm.functions import (
    AnalyticFunction,
    ClassSpec,
    ExtremalFc,
    ExtremalFcLambda,
    ExtremalFcStar,
    Identity,
    Koebe,
    Mobius,
    Polynomial,
    QuadraticPerturbation,
    SchurFunction,
    half_plane,
    random_member,
    random_schur,
)
from schwarznorm.norms import NormEstimate, hyperbolic_norm
from schwarznorm.theorems import (
    VALUE_SAMPLE_RADIUS,
    BoundReport,
    GammaSpec,
    MembershipVerdict,
    _bound_table,
    gamma_of,
    growth_distortion_bounds,
    lemmaA_margin,
    manufacture_nonmember,
    membership_status,
    psi_identity_residual,
    recover_phi,
    thm21_equivalence_sweep,
    thm21_ii_margin,
    thm21_iii_margin,
    thm25_bound,
    univalence_bruteforce,
    univalence_predicates,
    verify_growth_distortion,
    verify_lemmaA,
    verify_psi,
    verify_thm23,
    verify_thm24,
    verify_thm25,
)

F2 = ExtremalFc(2.0)


class TestMembership:
    def test_f2_is_member(self):
        verdict = membership_status(F2, 2.0, 1000)
        assert verdict.status == "member_by_construction"
        assert verdict.margin > 0
        assert verdict.witness is None

    def test_identity_margin(self):
        for c in (0.5, 2.0):
            verdict = membership_status(Identity(), c, 500)
            assert abs(verdict.margin - c / 2) < 1e-12

    def test_polynomial_violation(self):
        verdict = membership_status(Polynomial([0, 1, 1]), 2.0, 1000)
        assert verdict.status == "violated"
        assert verdict.witness is not None
        # the margin blows down next to the zero of f' at -1/2
        assert abs(verdict.witness - (-0.5)) < 0.15

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            membership_status(F2, 2.0, 50)

    def test_requires_class_a(self):
        with pytest.raises(ValueError):
            membership_status(half_plane(), 2.0, 500)

    def test_nesting(self):
        # members of F(c1) belong to F(c2) for c2 > c1
        for seed in range(10):
            m = random_member(ClassSpec(1.0), seed, seed % 9)
            assert membership_status(m, 2.5, 400).status != "violated"


class TestRecoverPhi:
    def test_f2_recovers_constant_one(self):
        for z in (0.1, -0.7, 0.3 + 0.4j, 0.9j):
            assert abs(recover_phi(F2, 2.0, z) - 1.0) < 1e-12

    def test_identity_recovers_zero(self):
        assert recover_phi(Identity(), 2.0, 0.5) == 0

    def test_f0_member_matches_generating_data(self):
        m = random_member(ClassSpec(2.0, True), seed=12, degree=3)
        assert abs(recover_phi(m, 2.0, 0j)) < 1e-13
        rng = np.random.default_rng(2)
        zs = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(
            2j * np.pi * rng.uniform(size=100)
        )
        for z in zs:
            z = complex(z)
            want = z * complex(m.schur.value(z))  # phi = z s(z) for F0
            got = recover_phi(m, 2.0, z)
            assert abs(got - want) < 1e-9
            assert abs(got) <= 1.0 + 1e-12

    def test_vanishing_denominator(self):
        # z P + c = 0 at z = -c/(2+2c) for f = z + z^2
        with pytest.raises(DivisionBySingular):
            recover_phi(Polynomial([0, 1, 1]), 2.0, -1.0 / 3.0)


class TestThm21Margins:
    def test_identity_margins(self):
        for c in (1.0, 2.0):
            assert abs(thm21_ii_margin(Identity(), c, 0j) - c / 2) < 1e-14
            for z in (0.3, 0.5j):
                want = c * (1 - abs(z))
                assert abs(thm21_iii_margin(Identity(), c, z) - want) < 1e-14

    def test_f2_equality_cases(self):
        # the extremal f_2 = 1/(1-z) - 1 saturates both inequalities
        for r in np.arange(0.1, 0.95, 0.1):
            assert abs(thm21_ii_margin(F2, 2.0, r)) < 1e-10
            assert abs(thm21_iii_margin(F2, 2.0, r)) < 1e-10

    def test_f2_iii_explicit_value(self):
        # |(1-r^2) * 2/(1-r) - 2r| = |2 + 2r - 2r| = 2
        for r in np.arange(0.1, 0.95, 0.1):
            p = F2.preschwarzian(r)
            assert abs(abs((1 - r * r) * p - 2 * r) - 2.0) < 1e-12

    def test_random_members_nonnegative(self):
        rng = np.random.default_rng(3)
        zs = 0.97 * np.sqrt(rng.uniform(size=300)) * np.exp(
            2j * np.pi * rng.uniform(size=300)
        )
        for seed in (0, 1, 2):
            m = random_member(ClassSpec(1.5), seed, 2 + seed)
            for z in zs[:100]:
                assert thm21_ii_margin(m, 1.5, complex(z)) >= -1e-9
                assert thm21_iii_margin(m, 1.5, complex(z)) >= -1e-9

    def test_scalar_margins_match_the_former_formulas(self):
        # the scalar margins run the array formula on one point, so only
        # their last bits may differ from the former scalar expressions
        zs = disk_samples(200, 0.99).tolist()
        for f, c in ((F2, 2.0), (ExtremalFcStar(2.5), 2.5),
                     (random_member(ClassSpec(1.5), 4, 4), 1.5), (Koebe(), 1.0)):
            for z in zs:
                p = f.preschwarzian(z)
                ii = (1.0 + z * p).real - (1.0 - c / 2.0) \
                    - (1.0 - abs(z) ** 2) / (2.0 * c) * abs(p) ** 2
                iii = c - abs((1.0 - abs(z) ** 2) * p - c * z.conjugate())
                for got, want in ((thm21_ii_margin(f, c, z), ii),
                                  (thm21_iii_margin(f, c, z), iii)):
                    assert type(got) is float
                    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (f, z)


# the growth integrals (low, high) of (1 +- t^2)^(-c/2) from 0 to r
GROWTH_CLOSED_FORMS = {
    1.0: (np.arcsinh, np.arcsin),
    2.0: (np.arctan, np.arctanh),
    3.0: (lambda r: r / np.sqrt(1.0 + r * r), lambda r: r / np.sqrt(1.0 - r * r)),
}


# the c values of the acceptance suite
C_SET = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def mp_bound_rows(c, r):
    """The four rows of ``_bound_table`` at r in 40-digit mpmath: the growth
    integrals of (1 +- t^2)^(-c/2) from 0 to r are r 2F1(c/2, 1/2; 3/2; -+r^2)."""
    with mpmath.workdps(40):
        a, r = mpmath.mpf(c) / 2, mpmath.mpf(r)
        rows = [(1 + r * r) ** -a, (1 - r * r) ** -a,
                r * mpmath.hyp2f1(a, 0.5, 1.5, -r * r), r * mpmath.hyp2f1(a, 0.5, 1.5, r * r)]
        return [float(v) for v in rows]


class TestGrowthDistortion:
    def test_r_zero(self):
        b = growth_distortion_bounds(1.5, 0.0)
        assert (b.distortion_low, b.distortion_high) == (1.0, 1.0)
        assert (b.growth_low, b.growth_high) == (0.0, 0.0)

    @pytest.mark.parametrize("c", sorted(GROWTH_CLOSED_FORMS))
    def test_growth_closed_forms(self, c):
        # the table at unsorted radii, and each radius alone
        rs = np.random.default_rng(3).permutation(np.linspace(0.0, 0.95, 50))
        want = np.array([form(rs) for form in GROWTH_CLOSED_FORMS[c]])
        single = [growth_distortion_bounds(c, float(r)) for r in rs]
        for got in (_bound_table(c, rs)[2:],
                    np.array([[b.growth_low for b in single], [b.growth_high for b in single]])):
            assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("c", C_SET)
    def test_rows_match_mpmath(self, c):
        rs = np.linspace(0.0, 0.99, 10)
        got = _bound_table(c, rs)
        want = np.array([mp_bound_rows(c, r) for r in rs]).T
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), np.max(np.abs(got - want) / want)

    @pytest.mark.parametrize("c", C_SET)
    def test_growth_high_near_the_circle(self, c):
        # rounding errors in r and along the ray are amplified like 1/(1 - r)
        for k in range(3, 10):
            r = 1.0 - 10.0**-k
            got = growth_distortion_bounds(c, r).growth_high
            want = mp_bound_rows(c, r)[3]
            assert abs(got - want) <= 1e-16 / (1.0 - r) * want, (k, got / want - 1.0)

    @pytest.mark.parametrize("c", C_SET)
    def test_largest_radii_below_one(self, c):
        for r in (math.nextafter(1.0, 0.0), 1.0 - 2.0**-52):
            b = growth_distortion_bounds(c, r)
            want = mp_bound_rows(c, r)
            got = [b.distortion_low, b.distortion_high, b.growth_low]
            assert np.all(np.abs(np.subtract(got, want[:3])) <= 1e-14 * np.abs(want[:3])), (r, got)
            assert abs(b.growth_high - want[3]) <= 1e-16 / (1.0 - r) * want[3], (r, b.growth_high)

    def test_growth_low_near_boundary(self):
        b = growth_distortion_bounds(2.0, 1 - 1e-9)
        assert abs(b.growth_low - math.pi / 4) < 1e-6

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            growth_distortion_bounds(2.0, 1.0)
        with pytest.raises(ValueError):
            growth_distortion_bounds(0.0, 0.5)

    def test_lambda_extremals_attain_equality(self):
        rs = np.linspace(0.05, 0.99, 25)
        for c in (1.0, 2.0, 3.0):
            upper = ExtremalFcLambda(c, 1.0)
            lower = ExtremalFcLambda(c, -1.0)
            for r in rs:
                assert abs(abs(upper.deriv(r)) - (1 - r * r) ** (-c / 2)) < 1e-8
                assert abs(abs(lower.deriv(r)) - (1 + r * r) ** (-c / 2)) < 1e-8

    def test_identity_passes_with_interior_margin(self):
        rep = verify_growth_distortion(Identity(), 1.5, 150)
        assert rep.passed
        assert rep.worst_margin > 0

    def test_random_members_pass(self):
        for seed in (0, 5):
            m = random_member(ClassSpec(2.0, True), seed, 1 + seed % 5)
            rep = verify_growth_distortion(m, 2.0, 150)
            assert rep.passed, rep

    def test_extremal_is_boundary_case(self):
        # equality only holds on the real axis, so disk samples leave a
        # small but strictly positive margin
        rep = verify_growth_distortion(ExtremalFcStar(2.0), 2.0, 150)
        assert rep.passed
        assert 0 <= rep.worst_margin < 1e-3

    def test_tables_are_kept_for_the_last_c_and_sample_count(self, monkeypatch):
        f = random_member(ClassSpec(2.0, True), 4, 4)
        for c, samples in ((2.0, 200), (1.5, 200), (2.0, 200), (2.0, 150)):
            got = verify_growth_distortion(f, c, samples)
            want = reference_verify_growth_distortion(f, c, samples)  # tables afresh
            assert got == want
            assert same_json(got.to_json_dict(), reference_bound_report_dict(want))
        calls = []
        monkeypatch.setattr(theorems, "_bound_table",
                            lambda c, radii: calls.append(radii.size) or _bound_table(c, radii))
        assert verify_growth_distortion(f, 2.0, 150) == want
        assert calls == []
        verify_growth_distortion(f, 2.0, 200)
        assert calls == [200]  # one table over the 200 sample radii


# The growth/distortion fold and the literal report dicts from before
# ``verify_growth_distortion`` folded through ``_report`` and ``to_json_dict``
# started from ``dataclasses.asdict``, kept verbatim as the reference.
def reference_verify_growth_distortion(f, c, samples=200):
    zs = disk_samples(samples, VALUE_SAMPLE_RADIUS)
    rs = np.abs(zs)
    bounds_low, bounds_high = _bound_table(c, rs)[2:]
    half = c / 2.0
    fv, fp = f._value_and_deriv(zs)
    fv, fp = np.abs(fv), np.abs(fp)
    margins = np.stack(
        [
            fp - (1.0 + rs * rs) ** -half,
            (1.0 - rs * rs) ** -half - fp,
            fv - bounds_low,
            bounds_high - fv,
        ]
    )
    margins = np.where(np.isnan(margins), -np.inf, margins)
    idx = int(np.argmin(margins))
    return BoundReport(
        theorem_id="thm2.2",
        samples=samples,
        worst_margin=float(margins.ravel()[idx]),
        worst_point=complex(zs[idx % samples]),
        passed=float(margins.ravel()[idx]) >= -1e-9,
    )


def reference_norm_estimate_dict(est):
    return {
        "value": est.value,
        "argmax": [est.argmax[0], est.argmax[1]],
        "boundary_attained": est.boundary_attained,
        "grid_resolution": [est.grid_resolution[0], est.grid_resolution[1]],
        "refinement_iterations": est.refinement_iterations,
        "certified_lower": est.certified_lower,
        "extrapolated": est.extrapolated,
    }


def reference_bound_report_dict(rep):
    return {
        "theorem_id": rep.theorem_id,
        "samples": rep.samples,
        "worst_margin": rep.worst_margin,
        "worst_point": None
        if rep.worst_point is None
        else [rep.worst_point.real, rep.worst_point.imag],
        "passed": rep.passed,
    }


def reference_membership_dict(verdict):
    return {
        "status": verdict.status,
        "witness": None
        if verdict.witness is None
        else [verdict.witness.real, verdict.witness.imag],
        "margin": verdict.margin,
    }


class Planted(AnalyticFunction):
    """f and f' planted at the growth samples, NaN at chosen indices."""

    def __init__(self, nan_f=(), nan_fp=()):
        zs = disk_samples(200, VALUE_SAMPLE_RADIUS)
        self.fv, self.fp = zs.copy(), np.ones_like(zs)
        self.fv[list(nan_f)] = np.nan
        self.fp[list(nan_fp)] = np.nan

    def _value_and_deriv(self, zs):
        return self.fv, self.fp


GROWTH_CASES = {
    "identity": lambda: (Identity(), 1.5),
    "koebe": lambda: (Koebe(), 2.0),  # fails: worst margin negative
    "fc_star": lambda: (ExtremalFcStar(2.0), 2.0),
    "fc_lambda": lambda: (ExtremalFcLambda(2.5, -1.0), 2.5),
    **{f"member_F0_{c}_{d}": (lambda c=c, d=d: (random_member(ClassSpec(c, True), d, d), c))
       for c in (1.0, 2.0, 3.0) for d in (0, 3, 8)},
    "perturbed": lambda: (QuadraticPerturbation(random_member(ClassSpec(2.0), 5, 3), 0.4), 2.0),
    "nan_in_f": lambda: (Planted(nan_f=(40, 17)), 2.0),  # ties at -inf in rows 2 and 3
    "nan_in_f_and_fp": lambda: (Planted(nan_f=(17,), nan_fp=(90,)), 2.0),
}


def same_json(got, want):
    return got == want and json.dumps(got) == json.dumps(want)


class TestReportFolds:
    """The consolidated fold and report dicts give the former reports and
    the same JSON bytes."""

    @pytest.mark.parametrize("name", sorted(GROWTH_CASES))
    def test_growth_distortion_fold(self, name):
        f, c = GROWTH_CASES[name]()
        got, want = verify_growth_distortion(f, c), reference_verify_growth_distortion(f, c)
        assert got == want
        assert same_json(got.to_json_dict(), reference_bound_report_dict(want))

    def test_bound_report_dicts(self):
        reports = [
            BoundReport("thm2.3", 4, 0.5, None, True),
            BoundReport("thm2.2", 200, -math.inf, 0.25 - 0.5j, False),
            verify_thm23(ExtremalFcStar(1.5), 1.5, grid=(16, 16)),
            verify_growth_distortion(Koebe(), 2.0),
        ]
        for rep in reports:
            assert same_json(rep.to_json_dict(), reference_bound_report_dict(rep))

    def test_membership_dicts(self):
        verdicts = [
            MembershipVerdict("empirically_consistent", None, 0.5),
            membership_status(F2, 2.0, 200),
            membership_status(manufacture_nonmember(2.0, seed=4), 2.0, 200),
        ]
        assert [v.witness is None for v in verdicts] == [True, True, False]
        for v in verdicts:
            assert same_json(v.to_json_dict(), reference_membership_dict(v))

    def test_norm_estimate_dicts(self):
        estimates = [
            NormEstimate(1.5, (0.5, 0.25), False, (8, 8), 12, 1.5, None),
            hyperbolic_norm(ExtremalFcStar(1.5), "schwarzian", grid=(16, 16)),
            # pole at -2, outside the disk: an interior peak, extrapolated set
            hyperbolic_norm(Mobius(1.0, 0.0, 0.5, 1.0), "pre_schwarzian", grid=(16, 16)),
        ]
        assert estimates[0].extrapolated is None
        for est in estimates:
            assert same_json(est.to_json_dict(), reference_norm_estimate_dict(est))


class TestNormBounds:
    def test_thm23_extremal_sharp(self):
        est = hyperbolic_norm(ExtremalFcStar(1.5), "pre_schwarzian")
        assert abs(est.value - 1.5) < 1e-4
        rep = verify_thm23(ExtremalFcStar(1.5), 1.5)
        assert rep.passed

    def test_thm23_identity(self):
        est = hyperbolic_norm(Identity(), "pre_schwarzian")
        assert est.value == 0.0
        assert verify_thm23(Identity(), 2.0).passed

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_thm23_random_members(self, c):
        for seed in range(6):
            m = random_member(ClassSpec(c, True), seed, seed % 9)
            assert verify_thm23(m, c).passed

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_thm24_random_members_small_c(self, c):
        for seed in range(6):
            m = random_member(ClassSpec(c, True), seed, seed % 9)
            assert verify_thm24(m, c).passed

    def test_thm24_extremal_fails_for_large_c(self):
        # S(0) = c exceeds c(4-c)/2 once c > 2, so the verifier must
        # honestly report the stated bound as violated at c = 3
        rep = verify_thm24(ExtremalFcStar(3.0), 3.0)
        assert not rep.passed
        assert rep.worst_margin < -1.0


class TestThm25:
    def test_gamma_of_f0_member_is_zero(self):
        g = gamma_of(random_member(ClassSpec(2.0, True), 3, 3), 2.0)
        assert g.gamma < 1e-13

    def test_bound_reduces_to_schwarzian_bound(self):
        for c in (1.0, 2.0, 3.0):
            assert abs(thm25_bound(c, GammaSpec(0.0)) - c * (4 - c) / 2) < 1e-14

    def test_f2_is_degenerate(self):
        with pytest.raises(GammaDegenerate):
            verify_thm25(F2, 2.0, 200)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_random_members_pass(self, c):
        for seed in range(5):
            m = random_member(ClassSpec(c), seed, 1 + seed % 8)
            rep = verify_thm25(m, c, 400)
            assert rep.passed, rep

    def test_gamma_spec_validation(self):
        with pytest.raises(ValueError):
            GammaSpec(1.0)


class TestLemmaA:
    def test_zero_schur(self):
        phi = SchurFunction.constant_map(0.0)
        for z in (0.3, 0.6j):
            want = abs(z) ** 2 / (1 - abs(z) ** 2)
            assert abs(lemmaA_margin(phi, z) - want) < 1e-14

    def test_identity_schur_equality(self):
        phi = SchurFunction.blaschke([0.0])  # phi(z) = z up to rotation
        for z in (0.2, 0.5 + 0.3j, -0.8j):
            assert abs(lemmaA_margin(phi, z)) < 1e-12

    def test_random_blaschke_with_zero_at_origin(self):
        rng = np.random.default_rng(5)
        zs = 0.97 * np.sqrt(rng.uniform(size=1000)) * np.exp(
            2j * np.pi * rng.uniform(size=1000)
        )
        for seed in (0, 1):
            base = random_schur(seed, 3)
            phi = SchurFunction.blaschke((0j,) + base.zeros, base.rotation)
            for z in zs[:300]:
                assert lemmaA_margin(phi, complex(z)) >= -1e-10

    def test_general_blaschke_fuzz(self):
        for seed in range(4):
            phi = random_schur(seed, 1 + seed % 4)
            rep = verify_lemmaA(phi, 500)
            assert rep.passed
            assert rep.worst_margin >= -1e-10

    def test_near_unimodular_rejected(self):
        with pytest.raises(ValueError):
            lemmaA_margin(SchurFunction.constant_map(1.0), 0.3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SchurFunction.constant_map(0.0),
            lambda: SchurFunction.constant_map(0.4 - 0.7j),
            lambda: SchurFunction.blaschke([0j]),
            *(lambda d=d: random_schur(20 + d, d) for d in (1, 3, 8)),
        ],
        ids=["zero", "constant", "identity", "degree_1", "degree_3", "degree_8"],
    )
    def test_report_margins_are_the_pointwise_margins(self, monkeypatch, build):
        # verify_lemmaA takes |phi(0)| once per check; every margin it folds
        # has the bits of lemmaA_margin at that sample
        phi, folded = build(), []
        fold = theorems._report
        monkeypatch.setattr(theorems, "_report",
                            lambda *args: folded.append(args) or fold(*args))
        rep = verify_lemmaA(phi, 400)
        [(_, samples, margins, points)] = folded
        want = np.array([lemmaA_margin(phi, z) for z in points])
        assert samples == 400 and margins.tobytes() == want.tobytes()
        assert rep == fold("lemmaA", 400, want, points)


class TestPsiIdentity:
    def test_zero_schur(self):
        assert psi_identity_residual(SchurFunction.constant_map(0.0), 0.4 + 0.2j) == 0.0

    def test_random_blaschke(self):
        rng = np.random.default_rng(6)
        zs = 0.97 * np.sqrt(rng.uniform(size=1000)) * np.exp(
            2j * np.pi * rng.uniform(size=1000)
        )
        for seed in (0, 3):
            phi = random_schur(seed, 2 + seed % 5)
            for z in zs[:300]:
                assert psi_identity_residual(phi, complex(z)) < 1e-10

    def test_psi_stays_inside_disk(self):
        phi = random_schur(9, 4)
        rng = np.random.default_rng(7)
        for z in 0.99 * np.sqrt(rng.uniform(size=200)) * np.exp(
            2j * np.pi * rng.uniform(size=200)
        ):
            z = complex(z)
            pz = complex(phi.value(z))
            psi = (z.conjugate() - pz) / (1 - z * pz)
            assert abs(psi) < 1.0

    def test_verify_psi_report(self):
        assert verify_psi(random_schur(2, 3), 400).passed


class TestUnivalence:
    def test_mobius_all_predicates(self):
        preds = univalence_predicates(Mobius(1.0, 0.1, 0.2, 1.0))
        assert preds.nehari_necessary_ok and preds.nehari_sufficient
        assert preds.becker_sufficient
        assert preds.ahlfors_weill_k == 0.0

    def test_koebe_threshold(self):
        preds = univalence_predicates(Koebe())
        assert preds.nehari_necessary_ok
        assert abs(preds.schwarzian_norm - 6.0) < 1e-4
        assert not preds.nehari_sufficient
        assert preds.ahlfors_weill_k is None

    def test_fc_star_2_exactly_at_nehari_threshold(self):
        preds = univalence_predicates(ExtremalFcStar(2.0))
        assert preds.nehari_sufficient
        assert abs(preds.schwarzian_norm - 2.0) < 1e-4
        assert preds.ahlfors_weill_k is None  # strict inequality required

    def test_bruteforce_basics(self):
        assert univalence_bruteforce(Identity(), 60)
        assert univalence_bruteforce(Koebe(), 60)
        assert not univalence_bruteforce(Polynomial([0, 0, 1]), 60)

    def test_bruteforce_grid_cap(self):
        with pytest.raises(ValueError):
            univalence_bruteforce(Identity(), 300)

    @pytest.mark.parametrize("gridsize", [-1, 0, 1])
    def test_bruteforce_grid_floor(self, gridsize):
        # below two radii and two rays no pair is compared: a vacuous verdict
        for f in (
            Koebe(),
            Polynomial([0, 0, 1]),
            random_member(ClassSpec(2.0, True), 3, 4),
        ):
            with pytest.raises(ValueError):
                univalence_bruteforce(f, gridsize)

    def test_bruteforce_smallest_grid(self):
        assert univalence_bruteforce(Koebe(), 2)
        assert univalence_bruteforce(random_member(ClassSpec(2.0, True), 3, 4), 2)

    def test_bruteforce_leaves_function_unmodified(self):
        f = random_member(ClassSpec(2.0, True), 5, 4)
        before = dict(vars(f))
        assert univalence_bruteforce(f, 40)
        assert univalence_bruteforce(f, 40)
        assert vars(f) == before


class PlantedImages(AnalyticFunction):
    """Images planted on the brute-force grid: the given points, then filler
    1,000 apart on the real axis, gridsize**2 images in all."""

    def __init__(self, points, gridsize):
        points = np.asarray(points, dtype=complex)
        filler = 1e3 * np.arange(1, gridsize * gridsize - points.size + 1)
        self.images = np.concatenate([points, filler])

    def _polar_value(self, radii, thetas):
        return self.images.reshape(radii.size, thetas.size)


def tree_verdict(images):
    """The former verdict: scipy's k-d tree finds no pair within 1e-10."""
    return not cKDTree(np.column_stack([images.real, images.imag])).query_pairs(1e-10)


class TestBruteforceSweep:
    """The sorted sweep of ``univalence_bruteforce`` against the k-d tree it
    replaced, on planted images at and around the 1e-10 threshold."""

    def assert_verdict(self, points, gridsize, want):
        f = PlantedImages(points, gridsize)
        assert tree_verdict(f.images) is want
        assert univalence_bruteforce(f, gridsize) is want

    @pytest.mark.parametrize("distance, want", [
        (0.5e-10, False), (0.999e-10, False), (1.001e-10, True), (1e-9, True),
    ])
    @pytest.mark.parametrize("angle", [0.0, 0.3, np.pi / 2, 2.0, np.pi, 4.0])
    def test_pair_at_distance(self, distance, want, angle):
        a = 0.3 + 0.2j
        self.assert_verdict([a, -0.5 + 0.1j, a + distance * np.exp(1j * angle), 0.7j], 3, want)

    @pytest.mark.parametrize("gap, want", [
        (0.9e-10, False), (0.99e-10, False), (1e-10, False),
        (np.nextafter(1e-10, 1.0), True), (1.01e-10, True), (1.1e-10, True),
    ])
    def test_equal_real_parts(self, gap, want):
        # from 0 the imaginary difference is the gap itself, bit for bit
        self.assert_verdict([0.25 + 0.5j, 0.25 + 0.5j + 1e-4, 0.25, complex(0.25, gap)], 2, want)

    @pytest.mark.parametrize("gap, want", [(1e-10, False), (np.nextafter(1e-10, 1.0), True)])
    def test_real_gap_at_the_threshold(self, gap, want):
        # the sweep stops on real gaps above 1e-10: a gap of exactly 1e-10 is
        # still compared, the next float up is not
        self.assert_verdict([0.0, gap, 0.5j, 0.5j + 1e-3], 2, want)

    def test_many_offsets(self):
        # 300 real parts within 1e-10 of each other: no offset up to 299
        # has a real gap above 1e-10, and only the imaginary parts separate
        rng = np.random.default_rng(0)
        points = 0.5 + 0.99e-10 * rng.random(300) + 1e-3j * rng.permutation(300)
        self.assert_verdict(points, 18, True)
        # the smallest and the largest real part, 299 apart in sorted order
        lo, hi = np.argmin(points.real), np.argmax(points.real)
        points[hi] = complex(points[hi].real, points[lo].imag)
        self.assert_verdict(points, 18, False)

    @pytest.mark.parametrize("bad", [
        complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf),
    ])
    def test_non_finite_image_raises(self, bad):
        f = PlantedImages([0.1, 0.2j, bad], 2)
        with pytest.raises(ValueError):
            cKDTree(np.column_stack([f.images.real, f.images.imag]))
        with pytest.raises(ValueError):
            univalence_bruteforce(f, 2)


class TestEquivalenceSweep:
    def test_small_sweep_agrees(self):
        out = thm21_equivalence_sweep(2.0, n_members=20, n_nonmembers=20, seed0=3, samples=500)
        assert out["disagreements"] == 0
        assert out["wrong_expectation"] == 0

    def test_manufactured_nonmember_is_violated(self):
        g = manufacture_nonmember(2.0, seed=4)
        verdict = membership_status(g, 2.0, 1000)
        assert verdict.status == "violated"
        assert g.is_class_a
