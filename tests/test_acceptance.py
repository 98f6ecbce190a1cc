"""Acceptance suite: one check per stated criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 2 and 3 concern the Schwarzian bounds.  As stated, with the
factor (1 - c/2), the bounds ||S_f|| <= c(4-c)/2 on F0(c) and the
gamma-weighted pointwise bound on F(c) hold for c <= 2 and are false for
c > 2: the extremal f_c* has weighted Schwarzian modulus c at the origin,
and the gamma-weighted bound turns negative once gamma > (4-c)/c.  The
checks therefore assert what is true on all of (0, 3]:

* criterion 2 compares ||S_{f_c*}|| with its exact value
  c * max(1, (4-c)/2), derived in closed form in
  ``fc_star_schwarzian_norm``;
* criterion 3 compares random members with the bounds carrying
  |1 - c/2| in place of 1 - c/2, which the Schwarz-Pick derivation of
  the stated bounds proves on all of (0, 3] (see
  ``proven_schwarzian_bound``).

On (0, 2] both targets coincide with the stated ones.  Each report still
prints the margin against the stated bound next to the asserted one.  For
c > 2 the norm check also prints max ||S_f|| - c over the F0(c) members,
a probe of the conjecture that c * max(1, (4-c)/2) bounds all of F0(c);
that probe is printed, never asserted.  The verifiers in
``schwarznorm.theorems`` keep checking the bounds as stated and report
them violated at c > 2.
"""

import math

import numpy as np
import pytest

from schwarznorm.cli import main
from schwarznorm.functions import (
    ClassSpec,
    Composition,
    ExtremalFc,
    ExtremalFcLambda,
    ExtremalFcStar,
    Identity,
    Koebe,
    Mobius,
    half_plane,
    random_member,
    random_schur,
)
from schwarznorm.norms import hyperbolic_norm
from schwarznorm.schwarzian import (
    composition_rule_residual,
    ode_residual,
    schwarzian_at,
)
from schwarznorm.theorems import (
    gamma_of,
    growth_distortion_bounds,
    psi_identity_residual,
    recover_phi,
    schwarzian_norm_bound,
    thm21_equivalence_sweep,
    thm25_bound,
    univalence_bruteforce,
    univalence_predicates,
    verify_growth_distortion,
    verify_thm25,
)

C_SET = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
RANDOM_C_SET = (1.0, 2.0, 3.0)
N_RANDOM = 50


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def fc_star_schwarzian_norm(c: float) -> float:
    """Exact ||S_{f_c*}|| = c * max(1, (4-c)/2) for c in (0, 3].

    f_c* has f''/f' = c z/(1-z^2), so S(z) = c(1 + b z^2)/(1-z^2)^2 with
    b = 1 - c/2.  Put w = z^2, t = |w| = |z|^2 and x = cos arg w; the
    weighted modulus is c(1-t)^2 |1 + b w| / |1 - w|^2.

    * c <= 2 (b >= 0): |1 + b w| <= 1 + b t and (1-t)^2 <= |1 - w|^2, so
      the modulus is at most c(1 + b t) < c(1 + b) = c(4-c)/2, and the
      real axis (x = 1) approaches that value as t -> 1.
    * 2 <= c <= 3 (-1/2 <= b <= 0): the modulus is at most c exactly when
      D(x) = (1 + t^2 - 2tx)^2 - (1-t)^4 (1 + 2btx + b^2 t^2) >= 0.  D is
      a convex quadratic in x with
      D'(1) = 2t(1-t)^2 (|b|(1-t)^2 - 2) <= 0, so it decreases on [-1, 1]
      and its minimum is D(1) = (1-t)^4 (1 - (1 + b t)^2) >= 0 because
      0 < 1 + b t <= 1.  Hence ||S|| = c, the value at z = 0; for c > 2,
      D(1) > 0 whenever t > 0, so the origin is the only maximiser.
    """
    return c * max(1.0, (4 - c) / 2)


def proven_schwarzian_bound(c: float, gamma: float = 0.0) -> float:
    """c(1 + |1 - c/2| (1+gamma)/(1-gamma)), a bound on (1-|z|^2)^2 |S_f|
    for f in F(c), 0 < c <= 3, gamma = |f''(0)|/c (gamma = 0 on F0(c)).

    Proof sketch.  Write f''/f' = c phi/(1 - z phi) with phi a Schur
    function, phi(0) = f''(0)/c; then
    S_f = c(phi' + (1 - c/2) phi^2)/(1 - z phi)^2.  By the triangle
    inequality and Schwarz-Pick, |phi'| <= (1-|phi|^2)/(1-|z|^2),
        (1-|z|^2)^2 |S_f| <= c(1-|z|^2)(1-|phi|^2)/|1 - z phi|^2
                             + c|1 - c/2| (1-|z|^2)^2 |phi|^2/|1 - z phi|^2.
    The Psi identity (``psi_identity_residual``) turns both weights into
    multiples of 1 - |Psi|^2 <= 1, and Lemma A (``lemmaA_margin``) bounds
    |phi|^2/(1-|phi|^2) by (gamma + |z|)^2/((1-gamma^2)(1-|z|^2)):
        (1-|z|^2)^2 |S_f|
            <= c(1 - |Psi|^2)(1 + |1 - c/2| (gamma + |z|)^2/(1 - gamma^2)),
    and |z| < 1 gives the bound.  For c <= 2 it is the stated bound
    ``thm25_bound``; for c > 2 the stated factor 1 - c/2 is negative and
    only this form survives.
    """
    return c * (1 + abs(1 - c / 2) * (1 + gamma) / (1 - gamma))


@pytest.fixture(scope="module")
def f0_members():
    return {
        c: [random_member(ClassSpec(c, True), i, i % 9) for i in range(N_RANDOM)]
        for c in RANDOM_C_SET
    }


@pytest.fixture(scope="module")
def f_members():
    # gamma < 1 requires degree >= 1
    return {
        c: [random_member(ClassSpec(c), i, max(1, i % 9)) for i in range(N_RANDOM)]
        for c in RANDOM_C_SET
    }


@pytest.mark.parametrize("c", C_SET)
def test_criterion_1_preschwarzian_norm_sharp(c):
    est = hyperbolic_norm(ExtremalFcStar(c), "pre_schwarzian")
    ok = abs(est.value - c) <= 1e-4 and est.boundary_attained
    report(
        f"criterion 1, c={c}",
        ok,
        f"|P| norm = {est.value:.8f} (target {c}), boundary={est.boundary_attained}",
    )


@pytest.mark.parametrize("c", C_SET)
def test_criterion_2_schwarzian_norm_sharp(c):
    target = fc_star_schwarzian_norm(c)
    est = hyperbolic_norm(ExtremalFcStar(c), "schwarzian")
    ok = abs(est.value - target) <= 1e-4
    # Where the sup sits: only at the origin for c > 2, only in the
    # boundary limit for c < 2 (at c = 2 the whole real diameter attains it).
    if c > 2:
        ok = ok and est.argmax[0] < 1e-6
    elif c < 2:
        ok = ok and est.boundary_attained
    report(
        f"criterion 2, c={c}",
        ok,
        f"|S| norm = {est.value:.8f} (exact target {target}), "
        f"stated margin c(4-c)/2-|S| = {schwarzian_norm_bound(c) - est.value:.3e}, "
        f"argmax r = {est.argmax[0]:.6g}, boundary={est.boundary_attained}",
    )


@pytest.mark.parametrize("c", RANDOM_C_SET)
def test_criterion_3_random_member_norm_bounds(c, f0_members):
    max_p = max_s = -math.inf
    for m in f0_members[c]:
        max_p = max(max_p, hyperbolic_norm(m, "pre_schwarzian").value)
        max_s = max(max_s, hyperbolic_norm(m, "schwarzian").value)
    proven = proven_schwarzian_bound(c)
    ok = max_p - c <= 1e-6 and max_s - proven <= 1e-6
    # c * max(1, (4-c)/2) bounds F0(c) only conjecturally: printed, not asserted
    probe = f", conjecture probe max |S|-c = {max_s - c:.3e}" if c > 2 else ""
    report(
        f"criterion 3 (norms), c={c}",
        ok,
        f"max |P|-c = {max_p - c:.3e}, "
        f"stated margin c(4-c)/2-max|S| = {schwarzian_norm_bound(c) - max_s:.3e}, "
        f"proven margin = {proven - max_s:.3e}{probe} over {N_RANDOM} members",
    )


@pytest.mark.parametrize("c", RANDOM_C_SET)
def test_criterion_3_random_member_pointwise_bound(c, f_members):
    worst_stated = worst = math.inf
    for m in f_members[c]:
        gamma = gamma_of(m, c)
        rep = verify_thm25(m, c, 1000)
        # the report's margin is the stated bound minus the largest
        # weighted |S_f| among the samples and the searched argmax
        q_max = thm25_bound(c, gamma) - rep.worst_margin
        worst_stated = min(worst_stated, rep.worst_margin)
        worst = min(worst, proven_schwarzian_bound(c, gamma.gamma) - q_max)
    ok = worst >= -1e-9
    report(
        f"criterion 3 (gamma bound), c={c}",
        ok,
        f"worst stated margin = {worst_stated:.3e}, "
        f"worst proven margin = {worst:.3e} over {N_RANDOM} members",
    )


def test_criterion_4_equivalence_sweep():
    out = thm21_equivalence_sweep(2.0, n_members=200, n_nonmembers=200, seed0=1)
    ok = out["disagreements"] == 0 and out["wrong_expectation"] == 0
    report(
        "criterion 4",
        ok,
        f"{out['total']} functions, {out['disagreements']} disagreements",
    )


def test_criterion_5_f2_sharpness_witnesses():
    f2 = ExtremalFc(2.0)
    worst_iii = 0.0
    for r in np.arange(0.1, 0.95, 0.1):
        p = f2.preschwarzian(float(r))
        worst_iii = max(worst_iii, abs(abs((1 - r * r) * p - 2 * r) - 2.0))
    worst_phi = max(
        abs(recover_phi(f2, 2.0, z) - 1.0)
        for z in (0.1, 0.5, 0.9, 0.3 + 0.4j, -0.6 + 0.2j)
    )
    ok = worst_iii <= 1e-10 and worst_phi <= 1e-10
    report(
        "criterion 5",
        ok,
        f"| |(1-r^2)2/(1-r) - 2r| - 2 | <= {worst_iii:.2e}, |phi-1| <= {worst_phi:.2e}",
    )


@pytest.mark.parametrize("c", RANDOM_C_SET)
def test_criterion_6_growth_distortion(c, f0_members):
    rs = np.linspace(0.05, 0.99, 40)
    upper = ExtremalFcLambda(c, 1.0)
    lower = ExtremalFcLambda(c, -1.0)
    eq_up = max(abs(abs(upper.deriv(float(r))) - (1 - r * r) ** (-c / 2)) for r in rs)
    eq_lo = max(abs(abs(lower.deriv(float(r))) - (1 + r * r) ** (-c / 2)) for r in rs)
    quad = 0.0
    if c == 2.0:
        for r in np.arange(0.1, 0.95, 0.1):
            b = growth_distortion_bounds(2.0, float(r))
            quad = max(quad, abs(b.growth_low - math.atan(r)))
            quad = max(quad, abs(b.growth_high - math.atanh(r)))
    worst = min(verify_growth_distortion(m, c, 200).worst_margin for m in f0_members[c])
    ok = eq_up <= 1e-8 and eq_lo <= 1e-8 and quad <= 1e-10 and worst >= -1e-9
    report(
        f"criterion 6, c={c}",
        ok,
        f"distortion equalities <= {max(eq_up, eq_lo):.2e}, quadrature err <= {quad:.2e}, "
        f"worst member margin = {worst:.3e}",
    )


def test_criterion_7_structural_identities():
    rng = np.random.default_rng(77)

    def rand_z(r_max=0.8):
        return complex(
            r_max * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        )

    gallery = [
        Koebe(),
        ExtremalFc(1.5),
        ExtremalFcStar(2.0),
        ExtremalFcStar(1.0),
    ]
    worst_inv = 0.0
    for k in range(100):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        cc = 0.3 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if abs(a - b * cc) < 0.1:
            continue
        t = Mobius(a, b, cc, 1.0)
        f = gallery[k % len(gallery)]
        z = rand_z()
        worst_inv = max(
            worst_inv, abs(schwarzian_at(Composition(t, f), z) - schwarzian_at(f, z))
        )

    inners = [Mobius(0.5, 0, 0, 1), Mobius(0.6, 0.1, 0.1, 1.0)]
    worst_chain = 0.0
    for f in gallery:
        for phi in inners:
            for _ in range(10):
                worst_chain = max(worst_chain, composition_rule_residual(f, phi, rand_z()))

    funcs = gallery + [
        half_plane(),
        Identity(),
        ExtremalFc(0.5),
        ExtremalFcStar(3.0),
        random_member(ClassSpec(2.0), 5, 3),
        random_member(ClassSpec(1.0, True), 6, 4),
    ]
    worst_ode = max(
        ode_residual(f, rand_z()) for f in funcs for _ in range(10)
    )

    zs = 0.97 * np.sqrt(rng.uniform(size=1000)) * np.exp(
        2j * np.pi * rng.uniform(size=1000)
    )
    phi = random_schur(11, 4)
    worst_psi = max(psi_identity_residual(phi, complex(z)) for z in zs)

    ok = (
        worst_inv < 1e-9
        and worst_chain < 1e-8
        and worst_ode < 1e-8
        and worst_psi < 1e-10
    )
    report(
        "criterion 7",
        ok,
        f"mobius inv {worst_inv:.2e}, chain {worst_chain:.2e}, "
        f"ode {worst_ode:.2e}, psi {worst_psi:.2e}",
    )


def test_criterion_8_thresholds():
    koebe = hyperbolic_norm(Koebe(), "schwarzian").value
    fstar = hyperbolic_norm(ExtremalFcStar(2.0), "schwarzian").value
    mob = hyperbolic_norm(Mobius(1.0, 0.1, 0.2, 1.0), "schwarzian").value
    ok = abs(koebe - 6.0) <= 1e-4 and abs(fstar - 2.0) <= 1e-4 and mob == 0.0
    report(
        "criterion 8",
        ok,
        f"koebe {koebe:.8f}, fc_star(2) {fstar:.8f}, mobius {mob}",
    )


def test_criterion_9_oracle_agreement():
    gallery = [
        Identity(),
        Koebe(),
        half_plane(),
        Mobius(1.0, 0.0, 0.3, 1.0),
        ExtremalFcStar(2.0),
        ExtremalFcStar(1.0),
        ExtremalFc(1.0),
        ExtremalFc(2.0),
    ]
    checked = 0
    ok = True
    for f in gallery:
        preds = univalence_predicates(f)
        if preds.nehari_sufficient:
            checked += 1
            if not univalence_bruteforce(f, 100):
                ok = False
    report("criterion 9", ok, f"{checked} nehari-sufficient members all injective")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    argv = ["verify", "all", "--c", "2", "--random", str(N_RANDOM), "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    ok = out1 == out2 and code1 == code2 == 0
    report(
        "criterion 10",
        ok,
        f"bytes equal: {out1 == out2}, exit codes {code1}/{code2}, "
        f"{len(out1)} bytes",
    )
