"""Hyperbolic norm search: sharp values, soundness, determinism."""

import cmath
import gc
import json
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from schwarznorm import norms
from schwarznorm.errors import DivisionBySingular, DomainError, SearchUnreliable
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
from schwarznorm.norms import (
    _GRID_BLOCK_POINTS,
    R_CAP,
    _nelder_mead,
    _radial_grid,
    _top_cells,
    _weighted_array,
    hyperbolic_norm,
    radial_profile,
    weighted_modulus,
)


class TestWeightedModulus:
    def test_identity_vanishes(self):
        f = Identity()
        for which in ("pre_schwarzian", "schwarzian"):
            assert weighted_modulus(f, 0.4 + 0.3j, which) == 0.0

    def test_fc_star_pre_on_axis(self):
        # (1-r^2) * 2r/(1-r^2) = 2r
        f = ExtremalFcStar(2.0)
        for r in (0.1, 0.5, 0.9):
            assert abs(weighted_modulus(f, r, "pre_schwarzian") - 2 * r) < 1e-12

    def test_koebe_schwarzian_at_origin(self):
        assert abs(weighted_modulus(Koebe(), 0j, "schwarzian") - 6.0) < 1e-12

    def test_which_validation(self):
        with pytest.raises(ValueError):
            weighted_modulus(Identity(), 0j, "third_order")

    @pytest.mark.parametrize(
        "build",
        [lambda: Identity(), Koebe, lambda: Mobius(1.0, 0.3, 0.5j, 1.0),
         lambda: Polynomial([0, 1, 0.4 - 0.1j, 0.2j]), lambda: ExtremalFcStar(2.5),
         lambda: random_member(ClassSpec(2.0), 4, 0), lambda: random_member(ClassSpec(1.5, True), 6, 6),
         lambda: Composition(Koebe(), Mobius(0.5, 0.0, 0.0, 1.0))],
        ids=["identity", "koebe", "mobius", "polynomial", "fc_star", "member_0", "member_6",
             "composition"],
    )
    def test_hook_route_gives_the_public_query_bits(self, build):
        # weighted_modulus runs the kind's hook itself; the public scalar
        # query runs the same hook behind the same checks
        f = build()
        rng = np.random.default_rng(8)
        zs = 0.999 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
        for z in [0j, 0.5, *zs.tolist()]:
            w = 1.0 - abs(z) ** 2
            for which, query, power in (("pre_schwarzian", f.preschwarzian, 1),
                                        ("schwarzian", f.schwarzian, 2)):
                want = w ** power * abs(query(z))
                assert weighted_modulus(f, z, which).hex() == want.hex(), (which, z)

    @pytest.mark.parametrize(
        "f, z, which",
        [(Polynomial([0, 0, 1]), 0j, "pre_schwarzian"),  # f' = 2z vanishes
         (Polynomial([0, 0, 1]), 0j, "schwarzian"),
         (Mobius(1.0, 0.0, 2.0, 1.0), -0.5, "pre_schwarzian"),  # pole
         (Mobius(1.0, 0.0, 2.0, 1.0), -0.5, "schwarzian")],
    )
    def test_singular_points_raise(self, f, z, which):
        with pytest.raises(DivisionBySingular):
            weighted_modulus(f, z, which)

    def test_outside_the_disk_raises(self):
        with pytest.raises(DomainError):
            weighted_modulus(Koebe(), 1.0, "pre_schwarzian")


class TestHyperbolicNorm:
    def test_mobius_schwarzian_is_zero(self):
        est = hyperbolic_norm(Mobius(1.0, 0.1, 0.2, 1.0), "schwarzian")
        assert est.value == 0.0
        assert not est.boundary_attained

    def test_fc_star_preschwarzian_is_sharp(self):
        est = hyperbolic_norm(ExtremalFcStar(2.0), "pre_schwarzian")
        assert abs(est.value - 2.0) < 1e-4
        assert est.boundary_attained
        assert est.extrapolated is not None

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 2.0])
    def test_fc_star_schwarzian_small_c(self, c):
        est = hyperbolic_norm(ExtremalFcStar(c), "schwarzian")
        assert abs(est.value - c * (4 - c) / 2) < 1e-4

    @pytest.mark.parametrize("c", [2.5, 3.0])
    def test_fc_star_schwarzian_large_c(self, c):
        # for c > 2 the weighted Schwarzian modulus peaks at the origin,
        # where it equals S(0) = c; the sup is c, attained in the interior
        est = hyperbolic_norm(ExtremalFcStar(c), "schwarzian")
        assert abs(est.value - c) < 1e-8
        assert not est.boundary_attained
        assert est.argmax[0] < 1e-6

    def test_certified_lower_reproducible(self):
        for f, which in [
            (ExtremalFcStar(1.5), "schwarzian"),
            (Koebe(), "schwarzian"),
            (random_member(ClassSpec(2.0), 8, 4), "pre_schwarzian"),
        ]:
            est = hyperbolic_norm(f, which)
            r, theta = est.argmax
            z = r * cmath.exp(1j * theta)
            assert abs(weighted_modulus(f, z, which) - est.certified_lower) <= 1e-12
            assert est.certified_lower <= est.value + 1e-15

    def test_monotone_under_grid_doubling(self):
        for f in (Koebe(), ExtremalFcStar(1.5)):
            coarse = hyperbolic_norm(f, "schwarzian", grid=(128, 128))
            fine = hyperbolic_norm(f, "schwarzian", grid=(256, 256))
            assert fine.certified_lower >= coarse.certified_lower - 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(21)
        for f in (Koebe(), ExtremalFcStar(1.5)):
            base = hyperbolic_norm(f, "schwarzian").value
            alpha = float(rng.uniform(0, 2 * np.pi))
            rot = Mobius(cmath.exp(1j * alpha), 0, 0, 1.0)
            unrot = Mobius(cmath.exp(-1j * alpha), 0, 0, 1.0)
            g = Composition(unrot, Composition(f, rot))
            assert abs(hyperbolic_norm(g, "schwarzian").value - base) < 1e-8

    def test_repeated_search_is_deterministic(self):
        f = random_member(ClassSpec(2.0), 31, 6)
        a = hyperbolic_norm(f, "pre_schwarzian")
        g = random_member(ClassSpec(2.0), 31, 6)
        b = hyperbolic_norm(g, "pre_schwarzian")
        assert a == b

    def test_memo_returns_the_same_estimate(self):
        # theorem ids that search the same function share one search
        f = random_member(ClassSpec(2.0, True), 11, 5)
        before = dict(vars(f))
        a = hyperbolic_norm(f, "schwarzian", grid=(64, 64))
        assert hyperbolic_norm(f, "schwarzian", grid=(64, 64)) is a
        assert hyperbolic_norm(f, "schwarzian", grid=(32, 32)) is not a
        assert hyperbolic_norm(f, "pre_schwarzian", grid=(64, 64)) is not a
        assert vars(f) == before

    def test_memo_does_not_keep_functions_alive(self):
        f = ExtremalFcStar(1.5)
        hyperbolic_norm(f, "pre_schwarzian", grid=(32, 32))
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_concurrent_searches(self):
        cs = (0.5, 1.0, 1.5, 2.0, 2.5)
        expected = [hyperbolic_norm(ExtremalFcStar(c), "schwarzian", grid=(24, 24))
                    for c in cs]
        fs = [ExtremalFcStar(c) for c in cs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(hyperbolic_norm, f, "schwarzian", grid=(24, 24))
                           for f in fs * 4]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == expected * 4
        for f, est in zip(fs, expected):
            again = hyperbolic_norm(f, "schwarzian", grid=(24, 24))
            assert again == est
            assert any(again is r for r in results)

    def test_search_unreliable_on_constant(self):
        with pytest.raises(SearchUnreliable):
            hyperbolic_norm(Polynomial([5.0]), "pre_schwarzian")

    @pytest.mark.parametrize(
        "f",
        [Mobius(1.0, 0.0, 2.0, 1.0), Polynomial([0.0, 1.0, 1.0])],
        ids=["mobius_pole", "critical_point"],
    )
    def test_pole_of_p_inside_the_disk_is_an_infinite_norm(self, f):
        # P_f has a pole at -0.5 (a pole of f, or a zero of f'); the grid
        # misses it, and the refinement closes in on it until the singular
        # tolerance cuts in, so the largest value it saw is no supremum
        with pytest.raises(SearchUnreliable, match=r"singular at \(r, theta\) = \(0\.4"):
            hyperbolic_norm(f, "pre_schwarzian")

    @pytest.mark.parametrize("which", ["pre_schwarzian", "schwarzian"])
    @pytest.mark.parametrize(
        "build",
        [lambda: random_member(ClassSpec(2.0), 8, 8), Koebe, lambda: ExtremalFcStar(3.0)],
        ids=["degree8", "koebe", "fc_star_3"],
    )
    def test_each_point_is_evaluated_once(self, monkeypatch, build, which):
        # the simplex revisits points, and f_3*'s S search sits at z = 0,
        # reached from many angles
        points = []

        def counted(f, z, which):
            points.append(z)
            return weighted_modulus(f, z, which)

        monkeypatch.setattr(norms, "weighted_modulus", counted)
        est = hyperbolic_norm(build(), which)
        monkeypatch.undo()
        assert points and len(set(points)) == len(points)
        assert est == hyperbolic_norm(build(), which)

    def test_univalent_gallery_respects_kraus_nehari(self):
        # necessity of ||S|| <= 6 at desk scale; koebe attains it
        univalent = [
            Identity(),
            Koebe(),
            half_plane(),
            Mobius(1.0, 0.0, 0.3, 1.0),
            ExtremalFcStar(1.0),
            ExtremalFcStar(2.0),
            ExtremalFcStar(3.0),
        ]
        for f in univalent:
            assert hyperbolic_norm(f, "schwarzian").value <= 6.0 + 1e-6


def argsort_starts(w, k):
    """The reference selection: the first k of a stable argsort of -w."""
    return np.argsort(-w, axis=None, kind="stable")[:k]


def tied_grids():
    rng = np.random.default_rng(17)
    ties = rng.integers(0, 4, size=(16, 12)).astype(float)  # exact ties everywhere
    infinities = ties.copy()
    infinities[3, 4] = infinities[0, 0] = infinities[9, 2] = np.inf
    infinities[1] = -np.inf  # singular cells, as the search masks them
    infinities[:, 7] = -np.inf
    signed_zeros = np.where(rng.random((16, 12)) < 0.5, 0.0, -0.0)
    column = rng.normal(size=(64, 64))
    column[:, 5] = column.max()  # a tied column holds the top 64 cells
    f = random_member(ClassSpec(2.0, True), 44, 8)
    zs = _radial_grid(64)[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
    search = np.nan_to_num(_weighted_array(f, zs, 2), nan=-np.inf)
    return {"ties": ties, "infinities": infinities, "signed_zeros": signed_zeros,
            "column": column, "search": search}


class TestRefineStarts:
    @pytest.mark.parametrize("name", sorted(tied_grids()))
    def test_partition_equals_stable_argsort(self, name):
        w = tied_grids()[name]
        for k in (0, 1, 8, w.size, w.size + 5):
            got = _top_cells(w, k)
            assert got.dtype == np.intp
            assert got.tolist() == argsort_starts(w, k).tolist(), k

    def test_one_iteration_per_start(self, monkeypatch):
        monkeypatch.setattr(norms, "_REFINE_STARTS", 3)
        monkeypatch.setattr(norms, "_REFINE_MAXITER", 1)
        est = hyperbolic_norm(ExtremalFcStar(1.5), "schwarzian", grid=(8, 8))
        assert est.refinement_iterations == 3


def grid_nodes(nr, na):
    """The whole polar grid in one array: r down the rows, theta across."""
    return _radial_grid(nr)[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(na) / na))[None, :]


class GridBlocks:
    """Stands in for ``norms._weighted_array`` and records each call's points
    and weights.  Given ``grid``, a call returns the grid's next rows instead
    of the weights of f, so the stream must ask for its rows in order."""

    def __init__(self, grid=None):
        self.grid, self.zs, self.ws = grid, [], []

    def __call__(self, f, zs, power):
        if self.grid is None:
            w = _weighted_array(f, zs, power)
        else:
            lo = sum(z.shape[0] for z in self.zs)
            w = self.grid[lo:lo + zs.shape[0]]
        self.zs.append(zs)
        self.ws.append(w)
        return w

    def assembled(self):
        return np.vstack(self.zs), np.vstack(self.ws)


def streamed_grids():
    rng = np.random.default_rng(23)
    ties = rng.integers(0, 4, size=(40, 300)).astype(float)  # 13 rows a block
    singular_rows = rng.normal(size=(200, 64))  # 64 rows a block
    singular_rows[3] = -np.inf
    singular_rows[150] = np.nan  # 64 singular cells: 0.5% of the grid
    singular_rows[7, 5] = singular_rows[190, 60] = np.inf
    wide = rng.integers(0, 3, size=(4, 5000)).astype(float)  # one row a block
    few_finite = np.full((3, 2000), -np.inf)  # -inf cells fill the top 8
    few_finite[2, [9, 3, 1500]] = [1.0, 2.0, 1.0]
    # a block that is singular but for 3 cells, which lead the grid; the
    # 4,997 singular cells are under 1% of it
    nan_block = rng.random((101, 5000))
    nan_block[50] = np.nan
    nan_block[50, [7, 4000, 4999]] = 2.0
    return {"ties": ties, "singular_rows": singular_rows, "wide": wide,
            "few_finite": few_finite, "nan_block": nan_block, "search": None}


class TestGridStream:
    @pytest.mark.parametrize("grid", [(256, 256), (50, 100), (37, 300), (3, 5000)])
    def test_blocks_stay_within_the_block_bound(self, monkeypatch, grid):
        # whole-row blocks of at most _GRID_BLOCK_POINTS points (one row when
        # a row is longer) that together hold the grid's nodes, bit for bit
        nr, na = grid
        blocks = GridBlocks()
        monkeypatch.setattr(norms, "_weighted_array", blocks)
        hyperbolic_norm(random_member(ClassSpec(2.0, True), 4, 4), "schwarzian", grid=grid)
        sizes = [z.size for z in blocks.zs]
        if na <= _GRID_BLOCK_POINTS:
            assert max(sizes) <= _GRID_BLOCK_POINTS, (grid, max(sizes))
        else:
            assert {z.shape[0] for z in blocks.zs} == {1}, grid
        assert sum(sizes) == nr * na, (grid, sum(sizes))
        assert np.array_equal(blocks.assembled()[0], grid_nodes(nr, na))

    @pytest.mark.parametrize("name", sorted(streamed_grids()))
    def test_starts_equal_a_stable_argsort_of_the_grid(self, monkeypatch, name):
        # the running top 8 gives the first 8 of a stable argsort of the
        # grid assembled from the same blocks, singular cells as -inf
        grid = streamed_grids()[name]
        nr, na = (256, 256) if grid is None else grid.shape
        blocks = GridBlocks(grid)
        monkeypatch.setattr(norms, "_weighted_array", blocks)
        f = random_member(ClassSpec(2.0, True), 44, 8)
        rs, thetas = _radial_grid(nr), 2.0 * np.pi * np.arange(na) / na
        cells, cell_w = norms._grid_starts(f, rs, thetas, 2, "schwarzian")
        _, w = blocks.assembled()
        if grid is not None:
            assert np.array_equal(w, grid, equal_nan=True)
        w = np.where(np.isnan(w), -np.inf, w)
        want = argsort_starts(w, norms._REFINE_STARTS)
        assert cells.tolist() == want.tolist()
        assert np.array_equal(cell_w, w.ravel()[want])

    def test_a_node_pole_in_a_later_block_is_singular_on_the_grid(self, monkeypatch):
        # 1/(z - r_200): the pole sits on row 200, in the 13th block of 16
        f = Mobius(1.0, 0.0, 1.0, -float(_radial_grid(256)[200]))
        blocks = GridBlocks()
        monkeypatch.setattr(norms, "_weighted_array", blocks)
        with pytest.raises(SearchUnreliable,
                           match="^schwarzian is singular on the grid: Moebius pole hit"):
            hyperbolic_norm(f, "schwarzian")
        assert len(blocks.zs) == 200 // (_GRID_BLOCK_POINTS // 256)

    def test_more_than_one_percent_singular_fails(self, monkeypatch):
        # 1% of a 40 x 300 grid, 120 cells, may be singular, and no more
        rs, thetas = _radial_grid(40), 2.0 * np.pi * np.arange(300) / 300
        cells = np.random.default_rng(5).choice(12000, 121, replace=False)

        def starts(count):
            grid = np.ones((40, 300))
            grid.ravel()[cells[:count]] = np.nan
            monkeypatch.setattr(norms, "_weighted_array", GridBlocks(grid))
            return norms._grid_starts(Identity(), rs, thetas, 1, "pre_schwarzian")

        starts(120)
        with pytest.raises(SearchUnreliable) as exc:
            starts(121)
        assert str(exc.value) == "121 of 12000 grid points are singular"

    def test_a_search_peaks_under_one_mebibyte(self):
        # no grid-sized array: the z values of a 256 x 256 grid alone take
        # 1 MiB
        f = random_member(ClassSpec(2.0, True), 8, 8)
        tracemalloc.start()
        try:
            hyperbolic_norm(f, "schwarzian")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class TestRadialProfile:
    def test_identity_all_zero(self):
        prof = radial_profile(Identity(), 0.0, 64, "schwarzian")
        assert len(prof) == 64
        assert all(v == 0.0 for _, v in prof)

    def test_fc_star_pre_profile(self):
        prof = radial_profile(ExtremalFcStar(2.0), 0.0, 128, "pre_schwarzian")
        for r, v in prof:
            assert abs(v - 2 * r) < 1e-10

    def test_fc_star_schwarzian_profile_increases(self):
        # c < 2: the profile c(1 + (1-c/2) r^2) climbs toward c(4-c)/2
        prof = radial_profile(ExtremalFcStar(1.0), 0.0, 64, "schwarzian")
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
            radial_profile(Identity(), 0.0, 1, "schwarzian")


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
        rs = _radial_grid(256)
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


NORM_SWEEP_CORPUS = Path(__file__).parent / "data" / "norm_sweep_estimates.json"


def norm_sweep_panel():
    """The 122 searches of the benchmark's norm-sweep panel: for c in {1, 2, 3},
    F and F0, the members random_member(spec, d, d) for d = 0..8; then Koebe,
    f_c and f_c*; P and S for each."""
    maps = [(f"random_member(ClassSpec({c}, {f0}), {d}, {d})", random_member(ClassSpec(c, f0), d, d))
            for c in (1.0, 2.0, 3.0) for f0 in (False, True) for d in range(9)]
    maps.append(("Koebe()", Koebe()))
    for c in (1.0, 2.0, 3.0):
        maps += [(f"ExtremalFc({c})", ExtremalFc(c)), (f"ExtremalFcStar({c})", ExtremalFcStar(c))]
    return [(label, f, which) for label, f in maps for which in ("pre_schwarzian", "schwarzian")]


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def estimate_moves(got, want) -> list:
    """The fields of a NormEstimate dict that moved beyond what a change in
    the last bits of one evaluation moves.  Such a change (s' by the product
    rule in the scalar hook, tried on this panel) moved values by 2.0e-15
    relative, argmaxes by 9.5e-9, interior extrapolations by 4.5e-7 and
    refinement_iterations by up to 13, and flipped no boundary flag; so
    interior extrapolations count only as present or absent, and iteration
    counts not at all."""
    if set(got) != set(want):
        return [f"keys {sorted(got)}"]
    moves = [k for k in ("value", "certified_lower") if not _close(got[k], want[k])]
    moves += [k for k in ("boundary_attained", "grid_resolution") if got[k] != want[k]]
    ext, want_ext = got["extrapolated"], want["extrapolated"]
    if (ext is None) != (want_ext is None) or (
            want["boundary_attained"] and want_ext is not None and not _close(ext, want_ext)):
        moves.append("extrapolated")
    if any(abs(g - w) > 1e-6 for g, w in zip(got["argmax"], want["argmax"], strict=True)):
        moves.append("argmax")
    return [f"{k}: {got.get(k)!r}, corpus {want.get(k)!r}" for k in moves]


def test_norm_sweep_matches_the_corpus():
    # committed estimates, compared by value so that the test holds across
    # machines; the file is json.dump of [{"target", "which", "estimate":
    # hyperbolic_norm(f, which).to_json_dict()}] over norm_sweep_panel()
    want = json.loads(NORM_SWEEP_CORPUS.read_text())
    panel = norm_sweep_panel()
    assert [(e["target"], e["which"]) for e in want] == [(t, w) for t, _, w in panel]
    moved = [f"{target} {which}: {move}"
             for (target, f, which), entry in zip(panel, want)
             for move in estimate_moves(hyperbolic_norm(f, which).to_json_dict(),
                                        entry["estimate"])]
    assert not moved, moved
