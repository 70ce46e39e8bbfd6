import json
import math
from pathlib import Path

import numpy as np
import pytest

from hardykit import spectral
from hardykit.errors import DomainError, ParameterError
from hardykit.geometry import ModelGeometry
from hardykit.specfun import bessel_zero
from hardykit.spectral import _pencil, spectral_lambda1


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

    @pytest.mark.xfail(strict=True, reason="the pencil's bracket and Newton stops are "
                       "absolute below 1, so a small eigenvalue loses its digits")
    def test_small_eigenvalue_keeps_its_relative_accuracy(self):
        # lambda1 R^2 is scale invariant on a flat ball; at R = 1e8 it reads
        # 30.5 against 5.78
        geo = ModelGeometry(0.0, 2, 2.0)
        unit = spectral_lambda1(geo, 1.0, 400).lambda1
        assert spectral_lambda1(geo, 1e8, 400).lambda1 * 1e16 == pytest.approx(unit, rel=1e-6)


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


def _symmetrized(pencil):
    """B^{-1/2} A B^{-1/2} as a dense matrix."""
    diag, off, b = (np.asarray(x) for x in (pencil.diag, pencil.off, pencil.b))
    s = 1.0 / np.sqrt(b)
    off = off * s[:-1] * s[1:]
    return np.diag(diag * s * s) + np.diag(off, 1) + np.diag(off, -1)


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
        passes.clear()
        monkeypatch.setattr(spectral, "_LEAP", 0.0)
        assert pencil.smallest_eigenvalue() == lam
        assert with_leaps <= 30 and len(passes) >= 150, (with_leaps, len(passes))

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
        # Gershgorin bounds reach 1e48 here: bisection alone takes 72-188 counts
        assert with_newton <= len(passes) / 3, (with_newton, len(passes))


# The spectral balls of tools/digest_outputs.py, then a grid of small N at
# large hyperbolic R (random.Random(29): -kappa in [0.25, 3], n = 2..9 in turn,
# R in [5, 30], N in [200, 300)), where the pencil is stiff and its low
# eigenvalues cluster.  Each row: kappa, n, R, N, then the newton and
# count_below cells and the lambda1, lambda1_raw and lambda1_coarse of one
# spectral_lambda1 call of the solver that started Newton from 0 at N/2 and
# 1% below the N/2 eigenvalue at N.  The rows pin that solver's figures:
# they are never regenerated from the current one.
PASS_BUDGET = json.loads((Path(__file__).parent / "golden" / "spectral_passes.json").read_text())
PASS_BUDGET_CELLS = 2394273


class TestPassBudget:
    def test_starts_save_passes_and_keep_every_bit(self, monkeypatch):
        cells = []

        def counting(f):
            def one_pass(self, sigma):
                cells[-1] += len(self.diag)
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
        assert sum(cells) <= 0.8 * PASS_BUDGET_CELLS, sum(cells) / PASS_BUDGET_CELLS

    @pytest.mark.xfail(strict=True, reason="the Gershgorin bound mixes rows: max(diag/b) "
                       "+ 2 max|off| / min(b); a row-wise bound moves every bisection point")
    def test_gershgorin_bound_is_near_the_row_wise_one(self):
        pencil = _pencil(ModelGeometry(-2.0, 4, 2.0), 20.0, 8000)
        off = [0.0] + [abs(o) for o in pencil.off] + [0.0]
        row_wise = max((c + o_left + o_right) / bj for c, bj, o_left, o_right
                       in zip(pencil.diag, pencil.b, off, off[1:]))
        assert pencil.top <= 10.0 * row_wise, (pencil.top, row_wise)
