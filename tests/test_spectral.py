import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from hardykit import spectral
from hardykit.errors import DomainError, ParameterError
from hardykit.geometry import ModelGeometry
from hardykit.specfun import bessel_zero
from hardykit.spectral import _pencil, spectral_lambda1
from oracles import ref_pencil, ref_smallest_eigenvalue_mp


class TestFlatBalls:
    def test_unit_disk(self):
        res = spectral_lambda1(ModelGeometry(0.0, 2, 2.0), 1.0, 1000)
        exact = bessel_zero(0.0, 1) ** 2
        assert res.lambda1 == pytest.approx(exact, rel=2e-3)
        assert res.lambda1 == pytest.approx(exact, rel=1e-8)  # far better in practice

    def test_four_dimensional_ball(self):
        res = spectral_lambda1(ModelGeometry(0.0, 4, 2.0), 1.0, 1000)
        assert res.lambda1 == pytest.approx(bessel_zero(1.0, 1) ** 2, rel=1e-8)

    def test_scaling_in_radius(self):
        res = spectral_lambda1(ModelGeometry(0.0, 3, 2.0), 2.0, 800)
        assert res.lambda1 == pytest.approx(math.pi**2 / 4.0, rel=1e-8)


class TestHyperbolicBalls:
    def test_large_ball_approaches_quarter(self):
        res = spectral_lambda1(ModelGeometry(-1.0, 2, 2.0), 40.0, 2000)
        assert 0.25 <= res.lambda1 <= 0.26

    def test_ordering_against_flat(self):
        for n in (2, 3):
            for R in (1.0, 2.0):
                hyp = spectral_lambda1(ModelGeometry(-1.0, n, 2.0), R, 600)
                flat = spectral_lambda1(ModelGeometry(0.0, n, 2.0), R, 600)
                err = abs(hyp.lambda1_raw - hyp.lambda1_coarse) \
                    + abs(flat.lambda1_raw - flat.lambda1_coarse)
                assert hyp.lambda1 - flat.lambda1 > 3.0 * err


class TestNumericalBehavior:
    def test_second_order_convergence(self):
        geo = ModelGeometry(0.0, 2, 2.0)
        lams = {N: spectral_lambda1(geo, 1.0, N).lambda1_raw
                for N in (250, 500, 1000)}
        d1 = abs(lams[250] - lams[500])
        d2 = abs(lams[500] - lams[1000])
        assert d1 / d2 >= 3.5

    @pytest.mark.xfail(strict=True, reason="FOUND: where N is too small for the ball, "
                       "spectral_lambda1 returns an eigenvalue below McKean's bound and "
                       "nothing in the result flags it")
    def test_never_below_mckean_bound(self):
        # every ball of H^n(kappa) has lambda1 > (n - 1)^2 |kappa| / 4 = 35.77
        # here; N = 201 gives 35.539
        res = spectral_lambda1(ModelGeometry(-2.92, 8, 2.0), 28.8, 201)
        assert res.lambda1 > 7.0**2 * 2.92 / 4.0

    def test_richardson_improves(self):
        geo = ModelGeometry(0.0, 2, 2.0)
        exact = bessel_zero(0.0, 1) ** 2
        res = spectral_lambda1(geo, 1.0, 500)
        assert abs(res.lambda1 - exact) < abs(res.lambda1_raw - exact)

    def test_validation(self):
        with pytest.raises(ParameterError):
            spectral_lambda1(ModelGeometry(0.0, 2, 2.5), 1.0, 400)
        with pytest.raises(ParameterError):
            spectral_lambda1(ModelGeometry(0.0, 2, 2.0), -1.0, 400)
        with pytest.raises(ParameterError):
            spectral_lambda1(ModelGeometry(0.0, 2, 2.0), 1.0, 100)

    # R = nan or inf returned lambda1 = nan (or a numpy warning); a float N
    # raised an untyped TypeError
    @pytest.mark.parametrize("R,N", [(math.nan, 400), (math.inf, 400), (1.0, 400.0),
                                     (1.0, 400.5)])
    def test_rejects_non_finite_radius_and_non_integer_resolution(self, R, N):
        with pytest.raises(ParameterError):
            spectral_lambda1(ModelGeometry(0.0, 2, 2.0), R, N)

    # densities s_kappa^(n-1) beyond float range raised an untyped
    # OverflowError; a mesh width too small or too large to square returned
    # garbage (lambda1 = 0.0 at R = 1e300)
    @pytest.mark.parametrize("kappa,n,R", [(-1.0, 3, 400.0), (-1.0, 9, 100.0),
                                           (-1.0, 2, 800.0), (0.0, 2, 1e-200),
                                           (0.0, 2, 1e300)])
    def test_pencil_beyond_float_range_is_a_domain_error(self, kappa, n, R):
        with pytest.raises(DomainError, match="leaves float range"):
            spectral_lambda1(ModelGeometry(kappa, n, 2.0), R, 400)

    # the bracket and Newton's stop were absolute below 1, so lambda1 R^2
    # read 30.5 at R = 1e8 and 1.66e8 at R = 1e150.  1.3e154 is about the
    # largest R whose square is a float; lambda1 is 3.4e-308 there
    @pytest.mark.parametrize("R", [1e-3, 1e3, 1e8, 1.3e154])
    def test_small_eigenvalue_keeps_its_relative_accuracy(self, R):
        # lambda1 R^2 is scale invariant on a flat ball
        geo = ModelGeometry(0.0, 2, 2.0)
        unit = spectral_lambda1(geo, 1.0, 400).lambda1
        assert spectral_lambda1(geo, R, 400).lambda1 * R * R == pytest.approx(unit, rel=1e-10)


def _count_passes(pencil):
    """The points of every newton and count_below pass on pencil, as a list
    that grows as they are taken."""
    passes = []

    def counting(f):
        def one_pass(sigma):
            passes.append(sigma)
            return f(sigma)
        return one_pass

    for name in ("newton", "count_below"):
        setattr(pencil, name, counting(getattr(pencil, name)))
    return passes


def _matrices(pencil):
    """The diagonals of A and B and the off-diagonal of A, from the pencil's rows."""
    diag, b, o2 = (np.asarray(x) for x in zip(*pencil._rows))
    return diag, -np.sqrt(o2[1:]), b


def _symmetrized(pencil):
    """B^{-1/2} A B^{-1/2} as a dense matrix."""
    diag, off, b = _matrices(pencil)
    s = 1.0 / np.sqrt(b)
    off = off * s[:-1] * s[1:]
    return np.diag(diag * s * s) + np.diag(off, 1) + np.diag(off, -1)


def _pencil_balls():
    """Seeded flat and hyperbolic balls at the sizes spectral_lambda1 builds
    (N, N/2, N/16, N/32), n = 2..9 in turn, and balls whose pencil leaves
    float range: densities that overflow, a mesh width whose square does."""
    rng = random.Random(31)
    balls = []
    for i in range(24):
        kappa = 0.0 if i % 3 == 0 else -rng.uniform(0.25, 3.0)
        N = rng.randrange(200, 4000)
        balls.append((kappa, 2 + i % 8, rng.uniform(0.3, 25.0), N // (1, 2, 16, 32)[i % 4]))
    return balls + [(-1.0, 3, 400.0, 2000), (-3.0, 9, 120.0, 125), (0.0, 2, 1e160, 6),
                    (0.0, 9, 1e300, 4000)]


class TestPencilBuild:
    @pytest.mark.parametrize("kappa,n,R,N", _pencil_balls())
    def test_rows_and_bound_match_the_point_by_point_build(self, kappa, n, R, N):
        geo = ModelGeometry(kappa, n, 2.0)
        try:
            rows, top = ref_pencil(geo, R, N)
        except DomainError:
            with pytest.raises(DomainError):
                _pencil(geo, R, N)
            return
        pencil = _pencil(geo, R, N)
        assert pencil._rows == rows
        assert pencil.top == top


# flat, hyperbolic, and large hyperbolic balls whose low modes cluster
# within a few percent of lambda_1 (kappa = -2, R = 20)
SOLVER_CASES = [(k, n, R, N) for k, n, R in ((0.0, 2, 1.0), (0.0, 4, 1.0), (-1.0, 3, 2.0),
                                             (-1.0, 2, 5.0), (-2.0, 2, 20.0), (-2.0, 4, 20.0))
                for N in (200, 400)]


class TestEigenSolver:
    @pytest.mark.parametrize("kappa,n,R,N", SOLVER_CASES)
    def test_matches_dense_eigensolver(self, kappa, n, R, N):
        pencil = _pencil(ModelGeometry(kappa, n, 2.0), R, N)
        lam = pencil.smallest_eigenvalue()
        T = _symmetrized(pencil)
        # taken on the inverse, where lambda_1 is the largest eigenvalue and a
        # dense solver's absolute error (a few eps * norm) is a relative one
        inv = np.linalg.inv(T)
        ref = 1.0 / np.linalg.eigvalsh(0.5 * (inv + inv.T))[-1]
        assert lam == pytest.approx(ref, rel=1e-12)
        # the smallest eigenvalue, not a neighbour of the cluster
        assert lam == pytest.approx(np.linalg.eigvalsh(T)[0], rel=1e-9)

    @pytest.mark.parametrize("kappa,n,R,N", SOLVER_CASES)
    def test_inertia_certifies_the_eigenvalue(self, kappa, n, R, N):
        pencil = _pencil(ModelGeometry(kappa, n, 2.0), R, N)
        lam = pencil.smallest_eigenvalue()
        assert pencil.count_below(lam * (1.0 - 1e-12)) == 0
        assert pencil.count_below(lam * (1.0 + 1e-12)) >= 1

    # the float count is exact only for a pencil perturbed by about N eps, so
    # the bracket stops at width N eps lambda.  Against a 40-digit bisection
    # of the same float pencil's count, the error in units of N eps with the
    # former bracket (width 1e-14 max(1, lambda), from the mixed-row bound)
    # and with this one: 0.99 and 1.07 (flat), 0.022 and 0.062 (kappa = -2),
    # 0.20 and 0.28 (lambda1 = 0.256)
    @pytest.mark.parametrize("kappa,n,R,N", [(0.0, 3, 2.0, 800), (-2.0, 4, 20.0, 400),
                                             (-1.0, 2, 40.0, 400)])
    def test_within_the_count_resolution_of_a_40_digit_count(self, kappa, n, R, N):
        pencil = _pencil(ModelGeometry(kappa, n, 2.0), R, N)
        lam = pencil.smallest_eigenvalue()
        ref = ref_smallest_eigenvalue_mp(pencil._rows, lam)
        assert abs(lam - ref) <= 2.0 * N * sys.float_info.epsilon * ref, (lam, ref)

    @pytest.mark.parametrize("kappa,n,R", [(0.0, 2, 1.0), (-2.0, 4, 20.0)])
    def test_guesses_give_the_same_eigenvalue(self, kappa, n, R):
        pencil = _pencil(ModelGeometry(kappa, n, 2.0), R, 400)
        passes = _count_passes(pencil)
        lam = pencil.smallest_eigenvalue()
        free = len(passes)
        # a guess below lambda_1 starts Newton; one above it costs one pass,
        # and Newton starts again from 0
        for factor, budget in ((0.9, free), (1.02, free + 1), (3.0, free + 1)):
            passes.clear()
            assert pencil.smallest_eigenvalue(guess=factor * lam) == lam
            assert len(passes) <= budget, (factor, len(passes), free)

    def test_newton_leaps_where_it_crawls(self, monkeypatch):
        # a stiff pencil whose low eigenvalues cluster: each Newton step from 0
        # covers about 1% of the distance, and 100 of them stop short
        pencil = _pencil(ModelGeometry(-2.9, 8, 2.0), 26.7, 136)
        passes = _count_passes(pencil)
        lam = pencil.smallest_eigenvalue()
        with_leaps = len(passes)
        monkeypatch.setattr(spectral, "_LEAP", 0.0)
        newton = []
        counted = pencil.newton
        pencil.newton = lambda sigma: newton.append(sigma) or counted(sigma)
        assert pencil.smallest_eigenvalue() == lam
        assert with_leaps <= 30 and len(newton) == spectral._NEWTON_MAX_ITER == 100, \
            (with_leaps, len(newton))

    def test_newton_stopped_short_gives_no_estimate(self, monkeypatch):
        # without leaps Newton stops at _NEWTON_MAX_ITER at 0.885 lambda on the
        # stiff pencil.  Its last iterate steers nothing: the bisection counts
        # every open midpoint from Newton's counted points, 52 counts, where
        # following that iterate up to lambda took 90
        pencil = _pencil(ModelGeometry(-2.9, 8, 2.0), 26.7, 136)
        lam = pencil.smallest_eigenvalue()
        monkeypatch.setattr(spectral, "_LEAP", 0.0)
        below, above, x = pencil.newton_from(0.0)
        assert x == 0.0 and 0.88 < below / lam < 0.89
        counts = []
        counted = pencil.count_below
        pencil.count_below = lambda sigma: counts.append(sigma) or counted(sigma)
        plain = pencil._bisect(below, above, 0.0)
        n_plain = len(counts)
        counts.clear()
        assert pencil.smallest_eigenvalue() == lam == 0.5 * sum(plain)
        assert len(counts) <= n_plain == 52, (len(counts), n_plain)

    # the N/32 pencil stops short too, and its prediction reads Newton's last
    # lower point: 359040 cells in all passes (443360 following the last
    # iterate everywhere, 989536 predicting from 0), and the solver's bits
    def test_predictions_from_newton_stopped_short(self, monkeypatch):
        geo = ModelGeometry(-2.9, 8, 2.0)
        res = spectral_lambda1(geo, 26.7, 136 * 32)
        monkeypatch.setattr(spectral, "_LEAP", 0.0)
        assert _pencil(geo, 26.7, 136).newton_from(0.0)[2] == 0.0
        cells = [0]

        def counting(f):
            def one_pass(self, sigma):
                cells[0] += len(self._rows)
                return f(self, sigma)
            return one_pass

        for name in ("newton", "count_below"):
            monkeypatch.setattr(spectral._Pencil, name, counting(getattr(spectral._Pencil, name)))
        assert spectral_lambda1(geo, 26.7, 136 * 32) == res
        assert cells[0] <= 359040, cells

    @pytest.mark.parametrize("kappa,n,R", [(0.0, 2, 1.0), (-2.0, 2, 20.0), (-2.0, 4, 20.0)])
    def test_newton_saves_most_passes(self, kappa, n, R, monkeypatch):
        pencil = _pencil(ModelGeometry(kappa, n, 2.0), R, 400)
        passes = _count_passes(pencil)
        lam = pencil.smallest_eigenvalue()
        with_newton = len(passes)
        passes.clear()
        # without Newton the bisection takes every count itself, and agrees
        monkeypatch.setattr(spectral, "_NEWTON_MAX_ITER", 0)
        assert pencil.smallest_eigenvalue() == pytest.approx(lam, rel=1e-13)
        # bisection alone from the row-wise Gershgorin bound (1605 to 6.4e5
        # here) takes 54-61 counts to the count's resolution, Newton and the
        # two ends of the cell its estimate leads to 8-17 passes
        assert with_newton <= len(passes) / 3, (with_newton, len(passes))

    # A - sigma B with a zero pivot: d_0 = 3 - 2 = 1, then d_1 = 2 - 2 * 0.5 - 1
    # = 0 exactly.  The pass counts it as negative, which is the count just
    # above sigma, the same here: no eigenvalue lies near 2
    def test_zero_pivot_counts_like_the_dense_pencil(self):
        pencil = spectral._Pencil([(3.0, 1.0, 0.0), (2.0, 0.5, 1.0), (5.0, 2.0, 1.0)], 20.0)
        lams = np.linalg.eigvalsh(_symmetrized(pencil))
        below_two = int(np.sum(lams < 2.0))
        assert below_two == 1 and np.min(np.abs(lams - 2.0)) > 0.1, lams
        assert pencil.newton(2.0) == (below_two, 0.0)     # no step once it counts
        assert pencil.count_below(2.0) == below_two
        # below every eigenvalue, the step is 1 / sum(1 / (lambda_i - sigma))
        count, step = pencil.newton(0.5)
        assert count == 0
        assert step == pytest.approx(1.0 / np.sum(1.0 / (lams - 0.5)), rel=1e-14)

    # Newton's estimate only steers which midpoints are counted.  Outside
    # Newton's counted points it is dropped, and the search costs what the
    # bisection without it costs.  Inside them (x / 1000 with 0 as the lower
    # point, or 1000 x under the Gershgorin bound as the upper one) it moves
    # by doubling cell widths: about log2 of its distance in cells more, not
    # a walk cell by cell (some 1e13 counts)
    @pytest.mark.parametrize("kappa,n,R,N", [(0.0, 2, 1.0, 400), (-2.0, 4, 20.0, 400),
                                             (-1.0, 3, 2.0, 2000)])
    def test_a_far_estimate_changes_only_which_points_are_counted(self, kappa, n, R, N,
                                                                   monkeypatch):
        pencil = _pencil(ModelGeometry(kappa, n, 2.0), R, N)
        below, above, x = pencil.newton_from(0.0)
        passes = _count_passes(pencil)
        # the bisection counting every open midpoint, without and with
        # Newton's counted points: every bracket below must be its
        blind = pencil._bisect(0.0, pencil.top, 0.0)
        n_blind = len(passes)
        passes.clear()
        assert pencil._bisect(below, above, 0.0) == blind
        n_plain = len(passes)
        for estimate, budget in (((below, above, 1e-3 * x), n_plain + 2),
                                 ((0.0, above, 1e-3 * x), 2 * n_blind),
                                 ((below, above, 1e3 * x), 2 * n_blind)):
            assert estimate[2] < pencil.top
            monkeypatch.setattr(pencil, "newton_from", lambda guess: estimate)
            passes.clear()
            assert pencil.smallest_eigenvalue() == 0.5 * sum(blind)
            assert len(passes) <= budget, (estimate[2] / x, len(passes), n_plain, n_blind)


# The spectral balls of tools/digest_outputs.py, then a grid of small N at
# large hyperbolic R (random.Random(29): -kappa in [0.25, 3], n = 2..9 in turn,
# R in [5, 30], N in [200, 300)), where the pencil is stiff and its low
# eigenvalues cluster.  Each row: kappa, n, R, N, then the newton and
# count_below cells and the lambda1, lambda1_raw and lambda1_coarse of one
# spectral_lambda1 call of the solver that started Newton from 0 at N/2 and
# 1% below the N/2 eigenvalue at N.  The cells pin that solver's figures:
# they are never regenerated from the current one.  The three lambdas were
# re-pinned once, when the bisection came to stop at the count's resolution
# (width N float epsilons relative to lambda, not 1e-14 max(1, lambda)) and
# the Gershgorin bound became the row-wise one: that moves every bisection
# point, and each lambda by at most 0.56 N float epsilons relative.
PASS_BUDGET = json.loads((Path(__file__).parent / "golden" / "spectral_passes.json").read_text())
PASS_BUDGET_CELLS = 2394273


class TestPassBudget:
    def test_starts_save_passes_and_keep_every_bit(self, monkeypatch):
        cells = []

        def counting(f):
            def one_pass(self, sigma):
                cells[-1] += len(self._rows)
                return f(self, sigma)
            return one_pass

        for name in ("newton", "count_below"):
            monkeypatch.setattr(spectral._Pencil, name, counting(getattr(spectral._Pencil, name)))
        assert sum(row[4] for row in PASS_BUDGET) == PASS_BUDGET_CELLS
        for kappa, n, R, N, before, *result in PASS_BUDGET:
            cells.append(0)
            res = spectral_lambda1(ModelGeometry(kappa, n, 2.0), R, N)
            assert [res.lambda1, res.lambda1_raw, res.lambda1_coarse] == result, (kappa, n, R, N)
            assert cells[-1] <= 1.1 * before, (kappa, n, R, N, cells[-1], before)
        assert sum(cells) <= 0.32 * PASS_BUDGET_CELLS, sum(cells) / PASS_BUDGET_CELLS

    # count_below passes for the 112 eigenvalues of these balls: 256 (2.29
    # each), 362 (3.23) before the bisection followed Newton's estimate.  A
    # pin, never to be loosened: a search that counts more shows here first
    def test_count_passes_per_eigenvalue(self, monkeypatch):
        counts = {"count_below": 0, "smallest_eigenvalue": 0}

        def counting(f):
            def counted(self, *args):
                counts[f.__name__] += 1
                return f(self, *args)
            return counted

        for name in counts:
            monkeypatch.setattr(spectral._Pencil, name, counting(getattr(spectral._Pencil, name)))
        for kappa, n, R, N, *_ in PASS_BUDGET:
            spectral_lambda1(ModelGeometry(kappa, n, 2.0), R, N)
        assert counts["smallest_eigenvalue"] == 2 * len(PASS_BUDGET)
        assert counts["count_below"] <= 256, counts

    # the bound was max(diag/b) + 2 max|off| / min(b), 5e49 here
    def test_gershgorin_bound_is_near_the_row_wise_one(self):
        pencil = _pencil(ModelGeometry(-2.0, 4, 2.0), 20.0, 8000)
        diag, off, b = _matrices(pencil)
        off = [0.0] + [abs(o) for o in off] + [0.0]
        row_wise = max((c + o_left + o_right) / bj for c, bj, o_left, o_right
                       in zip(diag, b, off, off[1:]))
        assert pencil.top <= 10.0 * row_wise, (pencil.top, row_wise)
