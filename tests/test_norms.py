"""Hyperbolic norm search: sharp values, soundness, determinism."""

import cmath
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from schwarznorm import norms
from schwarznorm.errors import DivisionBySingular, SearchUnreliable
from schwarznorm.functions import (
    ClassSpec,
    Composition,
    Koebe,
    Mobius,
    Polynomial,
    make_extremal_fc_star,
    make_gallery,
    random_member,
)
from schwarznorm.norms import (
    R_CAP,
    _nelder_mead,
    _radial_grid,
    hyperbolic_norm,
    radial_profile,
    weighted_modulus,
)


class TestWeightedModulus:
    def test_identity_vanishes(self):
        f = make_gallery("identity")
        for which in ("pre_schwarzian", "schwarzian"):
            assert weighted_modulus(f, 0.4 + 0.3j, which) == 0.0

    def test_fc_star_pre_on_axis(self):
        # (1-r^2) * 2r/(1-r^2) = 2r
        f = make_extremal_fc_star(2.0)
        for r in (0.1, 0.5, 0.9):
            assert abs(weighted_modulus(f, r, "pre_schwarzian") - 2 * r) < 1e-12

    def test_koebe_schwarzian_at_origin(self):
        assert abs(weighted_modulus(make_gallery("koebe"), 0j, "schwarzian") - 6.0) < 1e-12

    def test_which_validation(self):
        with pytest.raises(ValueError):
            weighted_modulus(make_gallery("identity"), 0j, "third_order")


class TestHyperbolicNorm:
    def test_mobius_schwarzian_is_zero(self):
        est = hyperbolic_norm(Mobius(1.0, 0.1, 0.2, 1.0), "schwarzian")
        assert est.value == 0.0
        assert not est.boundary_attained

    def test_fc_star_preschwarzian_is_sharp(self):
        est = hyperbolic_norm(make_extremal_fc_star(2.0), "pre_schwarzian")
        assert abs(est.value - 2.0) < 1e-4
        assert est.boundary_attained
        assert est.extrapolated is not None

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0])
    def test_fc_star_schwarzian_small_c(self, c):
        est = hyperbolic_norm(make_extremal_fc_star(c), "schwarzian")
        assert abs(est.value - c * (4 - c) / 2) < 1e-4

    @pytest.mark.parametrize("c", [2.5, 3.0])
    def test_fc_star_schwarzian_large_c(self, c):
        # for c > 2 the weighted Schwarzian modulus peaks at the origin,
        # where it equals S(0) = c; the sup is c, attained in the interior
        est = hyperbolic_norm(make_extremal_fc_star(c), "schwarzian")
        assert abs(est.value - c) < 1e-8
        assert not est.boundary_attained
        assert est.argmax[0] < 1e-6

    def test_certified_lower_reproducible(self):
        for f, which in [
            (make_extremal_fc_star(1.5), "schwarzian"),
            (make_gallery("koebe"), "schwarzian"),
            (random_member(ClassSpec(2.0), 8, 4), "pre_schwarzian"),
        ]:
            est = hyperbolic_norm(f, which)
            r, theta = est.argmax
            z = r * cmath.exp(1j * theta)
            assert abs(weighted_modulus(f, z, which) - est.certified_lower) <= 1e-12
            assert est.certified_lower <= est.value + 1e-15

    def test_monotone_under_grid_doubling(self):
        for f in (make_gallery("koebe"), make_extremal_fc_star(1.5)):
            coarse = hyperbolic_norm(f, "schwarzian", grid=(128, 128))
            fine = hyperbolic_norm(f, "schwarzian", grid=(256, 256))
            assert fine.certified_lower >= coarse.certified_lower - 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(21)
        for f in (make_gallery("koebe"), make_extremal_fc_star(1.5)):
            base = hyperbolic_norm(f, "schwarzian").value
            alpha = float(rng.uniform(0, 2 * np.pi))
            rot = Mobius(cmath.exp(1j * alpha), 0, 0, 1.0)
            unrot = Mobius(cmath.exp(-1j * alpha), 0, 0, 1.0)
            g = Composition(unrot, Composition(f, rot))
            assert abs(hyperbolic_norm(g, "schwarzian").value - base) < 1e-8

    def test_worker_count_does_not_change_results(self):
        # distinct instances so the memo cache cannot short-circuit
        a = hyperbolic_norm(make_extremal_fc_star(1.5), "schwarzian", workers=1)
        b = hyperbolic_norm(make_extremal_fc_star(1.5), "schwarzian", workers=4)
        assert a == b

    def test_repeated_search_is_deterministic(self):
        f = random_member(ClassSpec(2.0), 31, 6)
        a = hyperbolic_norm(f, "pre_schwarzian")
        g = random_member(ClassSpec(2.0), 31, 6)
        b = hyperbolic_norm(g, "pre_schwarzian")
        assert a == b

    def test_search_unreliable_on_constant(self):
        with pytest.raises(SearchUnreliable):
            hyperbolic_norm(Polynomial([5.0]), "pre_schwarzian")

    def test_univalent_gallery_respects_kraus_nehari(self):
        # necessity of ||S|| <= 6 at desk scale; koebe attains it
        univalent = [
            make_gallery("identity"),
            make_gallery("koebe"),
            make_gallery("half_plane"),
            Mobius(1.0, 0.0, 0.3, 1.0),
            make_extremal_fc_star(1.0),
            make_extremal_fc_star(2.0),
            make_extremal_fc_star(3.0),
        ]
        for f in univalent:
            assert hyperbolic_norm(f, "schwarzian").value <= 6.0 + 1e-6


class TestRadialProfile:
    def test_identity_all_zero(self):
        prof = radial_profile(make_gallery("identity"), 0.0, 64, "schwarzian")
        assert len(prof) == 64
        assert all(v == 0.0 for _, v in prof)

    def test_fc_star_pre_profile(self):
        prof = radial_profile(make_extremal_fc_star(2.0), 0.0, 128, "pre_schwarzian")
        for r, v in prof:
            assert abs(v - 2 * r) < 1e-10

    def test_fc_star_schwarzian_profile_increases(self):
        # c < 2: the profile c(1 + (1-c/2) r^2) climbs toward c(4-c)/2
        prof = radial_profile(make_extremal_fc_star(1.0), 0.0, 64, "schwarzian")
        values = [v for _, v in prof]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.5) < 1e-5
        for r, v in prof:
            assert abs(v - (1 + r * r / 2)) < 1e-9

    def test_monotone_radii_and_gaps(self):
        prof = radial_profile(Polynomial([0, 1, 1]), 0.0, 64, "pre_schwarzian")
        rs = [r for r, _ in prof]
        assert rs == sorted(rs)
        assert all(math.isfinite(v) for _, v in prof)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            radial_profile(make_gallery("identity"), 0.0, 1, "schwarzian")


def scipy_nelder_mead(func, simplex, maxiter, xatol, fatol):
    """The reference: scipy's Nelder-Mead with the options of the search."""
    res = minimize(
        func,
        np.array(simplex[0]),
        method="Nelder-Mead",
        options={
            "maxiter": maxiter,
            "xatol": xatol,
            "fatol": fatol,
            "initial_simplex": np.array(simplex),
        },
    )
    sim, fsim = res.final_simplex
    return list(sim), list(fsim), int(res.nit)


def traced(nelder_mead, func, simplex, **options):
    """Run ``nelder_mead``; return the points it evaluated, in order, with
    its final simplex, the values there, and its iteration count."""
    points = []

    def recorded(x):
        points.append((float(x[0]), float(x[1])))
        return func(x)

    sim, fsim, nit = nelder_mead(recorded, simplex, **options)
    sim = [(float(x), float(y)) for x, y in sim]
    return points, sim, [float(v) for v in fsim], nit


def refinement_objective(f, which):
    """The objective ``hyperbolic_norm`` refines, without its bookkeeping."""

    def objective(x):
        r = min(abs(x[0]), R_CAP)
        z = r * cmath.exp(1j * (x[1] % (2.0 * math.pi)))
        try:
            return -weighted_modulus(f, z, which)
        except DivisionBySingular:
            return math.inf

    return objective


def _capped_objective(x):
    # +inf beyond the line x + y = 1.1, where the unconstrained minimum sits
    if x[0] + x[1] > 1.1:
        return math.inf
    dx, dy = x[0] - 0.9, x[1] - 0.4
    return dx * dx + 3.0 * dy * dy


def _terraced_objective(x):
    # a bowl cut into flat terraces: exact ties between distinct vertices
    return float(math.floor(8.0 * (x[0] * x[0] + x[1] * x[1])))


class TestNelderMeadPort:
    """``_nelder_mead`` evaluates exactly the points scipy's Nelder-Mead
    evaluates, in the same order, and ends on the same simplex."""

    OPTIONS = {"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12}

    def assert_same_run(self, func, simplex):
        ours = traced(_nelder_mead, func, simplex, **self.OPTIONS)
        ref = traced(scipy_nelder_mead, func, simplex, **self.OPTIONS)
        assert ours[0] == ref[0]  # evaluated points
        assert ours[1:] == ref[1:]  # final simplex, its values, nit
        return ours

    # scipy's own convergence test meets inf - inf on the all-infinite start
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "simplex",
        [
            [(0.0, 0.0), (0.2, 0.0), (0.0, 0.2)],
            [(0.7, 0.7), (0.1, 0.0), (0.0, 0.1)],  # one vertex at +inf
            [(2.0, 2.0), (2.5, 2.0), (2.0, 2.5)],  # all at +inf: runs to maxiter
        ],
    )
    def test_objective_infinite_on_part_of_the_plane(self, simplex):
        points, _, _, nit = self.assert_same_run(_capped_objective, simplex)
        assert any(_capped_objective(p) == math.inf for p in points)
        if all(_capped_objective(v) == math.inf for v in simplex):
            assert nit == self.OPTIONS["maxiter"]  # inf - inf fails fatol

    @pytest.mark.parametrize(
        "simplex",
        [
            [(0.1, 0.1), (0.2, 0.1), (0.1, 0.2)],  # all three on one terrace
            [(0.9, 0.3), (-0.4, 0.8), (0.5, -0.6)],
            [(0.9, 0.3), (1.2, 0.3), (0.9, 0.6)],  # an expansion ties its reflection
        ],
    )
    def test_exact_ties(self, simplex):
        _, _, fsim, _ = self.assert_same_run(_terraced_objective, simplex)
        assert fsim[0] == fsim[1]

    def test_start_pinned_at_the_cap(self):
        # the objective is flat in r beyond the cap, and this search
        # wanders there until maxiter
        rs = _radial_grid(256, R_CAP)
        r0, r1 = float(rs[-1]), float(rs[-2])
        f = random_member(ClassSpec(2.0), 8, 8)
        objective = refinement_objective(f, "pre_schwarzian")
        simplex = [(r0, 0.0), (r1, 0.0), (r0, 2.0 * math.pi / 256)]
        _, sim, _, nit = self.assert_same_run(objective, simplex)
        assert nit == self.OPTIONS["maxiter"]
        assert max(r for r, _ in sim) > R_CAP

    @pytest.mark.parametrize("which", ["pre_schwarzian", "schwarzian"])
    @pytest.mark.parametrize(
        "build",
        [lambda: random_member(ClassSpec(2.0), 8, 8), Koebe],
        ids=["degree8", "koebe"],
    )
    def test_norm_search_runs_as_with_scipy(self, monkeypatch, build, which):
        # every refinement start of a real search, objective and bookkeeping
        # included, then the whole estimate
        runs, estimates = {}, {}
        for name, nelder_mead in (("ours", _nelder_mead), ("scipy", scipy_nelder_mead)):
            log = runs[name] = []

            def logged(func, simplex, nelder_mead=nelder_mead, log=log, **options):
                points, sim, fsim, nit = traced(nelder_mead, func, simplex, **options)
                log.append((points, sim, fsim, nit))
                return sim, fsim, nit

            monkeypatch.setattr(norms, "_nelder_mead", logged)
            estimates[name] = hyperbolic_norm(build(), which)
        assert len(runs["ours"]) == 8
        assert runs["ours"] == runs["scipy"]
        assert estimates["ours"].to_json_dict() == estimates["scipy"].to_json_dict()
