"""Jet arithmetic: frozen examples, independent oracles, ring axioms."""

import cmath

import numpy as np
import pytest

from schwarznorm.errors import CenterMismatchError, DivisionBySingular
from schwarznorm.jets import (
    TaylorJet,
    jet_add,
    jet_compose,
    jet_constant,
    jet_differentiate,
    jet_div,
    jet_exp,
    jet_identity,
    jet_integrate,
    jet_linear,
    jet_log,
    jet_mul,
    jet_pow,
    jet_scale,
)


def J(*coeffs, center=0j):
    return TaylorJet(center, tuple(complex(c) for c in coeffs))


def assert_coeffs(jet, expected, tol=1e-12):
    assert jet.order == len(expected) - 1
    for got, want in zip(jet.coeffs, expected):
        assert abs(got - complex(want)) <= tol, (jet.coeffs, expected)


def random_jet(rng, order=6, center=0j, lead_range=(0.1, 10.0)):
    # tail coefficients scale with the lead so that exp/log/pow chains stay
    # well-conditioned; the lead modulus spans [0.1, 10]
    lead = rng.uniform(*lead_range) * cmath.exp(2j * cmath.pi * rng.uniform())
    tail = 0.3 * abs(lead) * (
        rng.standard_normal(order) + 1j * rng.standard_normal(order)
    )
    return TaylorJet(center, (lead,) + tuple(tail))


class TestAdd:
    def test_basic(self):
        assert_coeffs(jet_add(J(1, 0), J(0, 1)), [1, 1])

    def test_zero_identity(self):
        a = J(2, 3, 4)
        assert_coeffs(jet_add(a, jet_constant(0, 2)), a.coeffs)

    def test_truncates_to_min_order(self):
        assert_coeffs(jet_add(J(1, 2), J(3, 4, 5)), [4, 6])

    def test_center_mismatch(self):
        with pytest.raises(CenterMismatchError):
            jet_add(J(1, 2), J(1, 2, center=0.5))


class TestMul:
    def test_difference_of_squares(self):
        a = J(1, 1, 0)
        b = J(1, -1, 0)
        assert_coeffs(jet_mul(a, b), [1, 0, -1])

    def test_one_identity(self):
        a = J(2, -1, 0.5)
        assert_coeffs(jet_mul(a, jet_constant(1, 2)), a.coeffs)

    def test_z_times_z(self):
        assert_coeffs(jet_mul(J(0, 1, 0), J(0, 1, 0)), [0, 0, 1])


class TestDiv:
    def test_geometric(self):
        assert_coeffs(jet_div(jet_constant(1, 3), J(1, -1, 0, 0)), [1, 1, 1, 1])

    def test_self_division(self):
        a = J(2, 1, -3, 0.5)
        assert_coeffs(jet_div(a, a), [1, 0, 0, 0])

    def test_two_z_over_one_minus_z_squared(self):
        # oracle: 2z * (1 + z^2 + ...) multiplied out by hand
        q = jet_div(J(0, 2, 0, 0), J(1, 0, -1, 0))
        assert_coeffs(q, [0, 2, 0, 2])

    def test_mul_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = random_jet(rng), random_jet(rng)
            q = jet_div(a, b)
            back = jet_mul(q, b)
            scale = max(abs(c) for c in a.coeffs)
            for g, w in zip(back.coeffs, a.coeffs):
                assert abs(g - w) <= 1e-12 * max(1.0, scale)

    def test_singular_leading_coefficient(self):
        with pytest.raises(DivisionBySingular):
            jet_div(J(1, 1), J(1e-14, 1))


# The quotient recurrence from before it skipped b's zero coefficients,
# kept verbatim as the reference.
def former_jet_div(a, b):
    n = min(a.order, b.order)
    q = [0j] * (n + 1)
    b0 = b.coeffs[0]
    for k in range(n + 1):
        acc = a.coeffs[k]
        for i in range(k):
            acc -= q[i] * b.coeffs[k - i]
        q[k] = acc / b0
    return TaylorJet(a.center, tuple(q))


def coeff_bits(jet):
    return np.array(jet.coeffs, dtype=complex).tobytes()


# every sign of zero in each part, next to values that are not zero
SIGNED_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5)
SIGNED_VALUES = [complex(x, y) for x in SIGNED_PARTS for y in SIGNED_PARTS]
SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]


class TestDivSkipsZeroTerms:
    """``jet_div`` skips the terms of b's zero coefficients and keeps the bits
    of the full recurrence."""

    def assert_former_bits(self, a, b):
        assert coeff_bits(jet_div(a, b)) == coeff_bits(former_jet_div(a, b)), (a, b)

    def test_dense_jets(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            self.assert_former_bits(random_jet(rng, order=12), random_jet(rng, order=12))

    @pytest.mark.parametrize("order", [0, 1, 2, 8, 32])
    def test_linear_denominators(self, order):
        # the Blaschke factor quotients of SchurFunction.jet
        rng = np.random.default_rng(order)
        for _ in range(20):
            a, center = complex(*rng.uniform(-0.9, 0.9, 2)), complex(*rng.uniform(-0.5, 0.5, 2))
            num = jet_linear(center - a, 1.0, center, order)
            den = jet_linear(1.0 - a.conjugate() * center, -a.conjugate(), center, order)
            self.assert_former_bits(num, den)
            self.assert_former_bits(random_jet(rng, order, center), den)

    def test_interior_zero_coefficients(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_jet(rng, order=10), random_jet(rng, order=10)
            holes = rng.uniform(size=10) < 0.5
            b = TaylorJet(b.center, (b.coeffs[0],) + tuple(
                0j if hole else c for hole, c in zip(holes, b.coeffs[1:])))
            self.assert_former_bits(a, b)

    def test_signed_zero_components(self):
        # zeros of either sign in a, in b's zero coefficients and in the
        # quotients: -1 / 1 gives q_0 = -1 + 0j, whose product with a zero
        # b_1 is -0 + 0j, and that turns a -0 accumulator to +0
        self.assert_former_bits(J(-1, complex(-0.0, 0.0)), J(1, 0))
        rng = np.random.default_rng(6)
        leads = [1, -1, 1j, -1j, complex(-1, -0.0), complex(0.5, -0.0)]
        for _ in range(3000):
            a = J(*rng.choice(SIGNED_VALUES, 5))
            b = J(rng.choice(leads), *rng.choice(SIGNED_ZEROS * 4 + SIGNED_VALUES, 4))
            self.assert_former_bits(a, b)


class TestExpLog:
    def test_exp_zero(self):
        assert_coeffs(jet_exp(jet_constant(0, 3)), [1, 0, 0, 0])

    def test_exp_series(self):
        assert_coeffs(jet_exp(J(0, 1, 0, 0)), [1, 1, 0.5, 1 / 6])

    def test_log_one(self):
        assert_coeffs(jet_log(jet_constant(1, 3)), [0, 0, 0, 0])

    def test_log_mercator(self):
        assert_coeffs(jet_log(J(1, -1, 0, 0)), [0, -1, -0.5, -1 / 3])

    def test_exp_log_one_minus_z(self):
        a = J(1, -1, 0, 0, 0, 0)
        assert_coeffs(jet_exp(jet_log(a)), a.coeffs, tol=1e-14)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_jet(rng)
            back = jet_log(jet_exp(a))
            # principal branch may shift the constant term by 2*pi*i
            shift = round((a.coeffs[0] - back.coeffs[0]).imag / (2 * cmath.pi))
            assert abs(back.coeffs[0] + 2j * cmath.pi * shift - a.coeffs[0]) < 1e-10
            for g, w in zip(back.coeffs[1:], a.coeffs[1:]):
                assert abs(g - w) <= 1e-10 * max(1.0, abs(w))

    def test_log_rejects_zero_constant(self):
        with pytest.raises(DivisionBySingular):
            jet_log(J(0, 1))


class TestPow:
    def test_exponent_one(self):
        a = J(2, 1, -1)
        assert_coeffs(jet_pow(a, 1.0), a.coeffs, tol=1e-14)

    def test_geometric(self):
        assert_coeffs(jet_pow(J(1, -1, 0, 0), -1.0), [1, 1, 1, 1], tol=1e-14)

    def test_geometric_in_z_squared(self):
        # oracle: geometric series in z^2
        assert_coeffs(jet_pow(J(1, 0, -1, 0, 0), -1.0), [1, 0, 1, 0, 1], tol=1e-13)

    def test_inverse_round_trip(self):
        # leads stay near the positive real axis so p*Arg(a0) cannot cross
        # the principal branch cut
        rng = np.random.default_rng(3)
        for p in (0.5, -1.5, 2.0, 3.7):
            lead = rng.uniform(0.1, 10.0) * cmath.exp(1j * rng.uniform(-0.3, 0.3))
            tail = 0.3 * abs(lead) * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
            a = TaylorJet(0j, (lead,) + tuple(tail))
            back = jet_pow(jet_pow(a, p), 1.0 / p)
            for g, w in zip(back.coeffs, a.coeffs):
                assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


class TestCalculus:
    def test_integrate_constant(self):
        assert_coeffs(jet_integrate(jet_constant(1, 0)), [0, 1])

    def test_integrate_power_rule(self):
        assert_coeffs(jet_integrate(J(1, 0, 1)), [0, 1, 0, 1 / 3])

    def test_integrate_differentiate_round_trip(self):
        a = J(2, -1, 0.25, 5)
        assert_coeffs(jet_differentiate(jet_integrate(a)), a.coeffs)

    def test_integrate_requires_origin(self):
        with pytest.raises(ValueError):
            jet_integrate(J(1, 1, center=0.2))

    def test_differentiate(self):
        assert_coeffs(jet_differentiate(J(0, 1)), [1])
        assert_coeffs(jet_differentiate(J(1, 1, 1, 1)), [1, 2, 3])

    def test_differentiate_order_zero(self):
        with pytest.raises(ValueError):
            jet_differentiate(J(5))


class TestCompose:
    def test_identity_inner(self):
        outer = J(1, 2, 3, center=0.3)
        inner = jet_identity(0.3, 2)
        assert_coeffs(jet_compose(outer, inner), outer.coeffs, tol=1e-14)

    def test_geometric_at_half_z(self):
        outer = J(1, 1, 1)  # 1/(1-w) truncated
        inner = J(0, 0.5, 0)
        assert_coeffs(jet_compose(outer, inner), [1, 0.5, 0.25])

    def test_against_pointwise_evaluation(self):
        rng = np.random.default_rng(4)
        n = 32
        oc = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        ic = 0.5 * (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        ic[0] = 0.1
        outer = TaylorJet(complex(ic[0]), tuple(oc))
        inner = TaylorJet(0j, tuple(ic))
        comp = jet_compose(outer, inner)
        for _ in range(10):
            w = 0.05 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            assert abs(comp(w) - outer(inner(w))) < 1e-9

    def test_alignment_error(self):
        with pytest.raises(CenterMismatchError):
            jet_compose(J(1, 1, center=0.5), J(0, 1))


class TestInvariantsAndValidation:
    def test_ring_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = (random_jet(rng, 5) for _ in range(3))
            lhs = jet_add(jet_add(a, b), c)
            rhs = jet_add(a, jet_add(b, c))
            for g, w in zip(lhs.coeffs, rhs.coeffs):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
            ab, ba = jet_mul(a, b), jet_mul(b, a)
            for g, w in zip(ab.coeffs, ba.coeffs):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))
            lhs = jet_mul(a, jet_add(b, c))
            rhs = jet_add(jet_mul(a, b), jet_mul(a, c))
            for g, w in zip(lhs.coeffs, rhs.coeffs):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w))

    def test_truncation_consistency(self):
        rng = np.random.default_rng(6)
        a, b = random_jet(rng, 10), random_jet(rng, 10)
        full = jet_mul(a, b).truncated(4)
        short = jet_mul(a.truncated(4), b.truncated(4))
        assert full.coeffs == short.coeffs
        assert jet_exp(a).truncated(4).coeffs == jet_exp(a.truncated(4)).coeffs

    def test_immutability(self):
        a = J(1, 2)
        with pytest.raises(AttributeError):
            a.coeffs = (0j,)

    def test_constructor_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TaylorJet(0j, (complex("nan"),))
        with pytest.raises(ValueError):
            TaylorJet(0j, (float("inf"),))
        with pytest.raises(ValueError):
            TaylorJet(complex("nan"), (1,))
        with pytest.raises(ValueError):
            TaylorJet(0j, ())

    def test_scale_and_eval(self):
        a = J(1, 2, 3)
        assert jet_scale(a, 2.0).coeffs == (2, 4, 6)
        assert abs(a(0.1) - (1 + 0.2 + 0.03)) < 1e-15

    def test_identity_every_order(self):
        assert jet_identity(0.3 - 0.1j, 0).coeffs == (0.3 - 0.1j,)
        assert jet_identity(0.3 - 0.1j, 1).coeffs == (0.3 - 0.1j, 1)
        assert jet_identity(0.3 - 0.1j, 3).coeffs == (0.3 - 0.1j, 1, 0, 0)
        with pytest.raises(ValueError):
            jet_identity(0j, -1)
