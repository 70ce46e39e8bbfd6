import math

import pytest

from hardykit.catalog import instantiate
from hardykit.errors import DomainError, HypothesisError, ParameterError
from hardykit.exprdsl import parse
from hardykit.geometry import ModelGeometry, ct_value, deficit_value, s_value, unit_ball_volume
from hardykit.verifier import radial_integral
from oracles import coth_exp, simpson, sinh_series

E2 = ModelGeometry(0.0, 2, 2.0)
E3 = ModelGeometry(0.0, 3, 2.0)
H1_2 = ModelGeometry(-1.0, 2, 2.0)
H1_3 = ModelGeometry(-1.0, 3, 2.0)
H1_4 = ModelGeometry(-1.0, 4, 2.0)


def log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


class TestModelGeometry:
    def test_rejects_positive_curvature(self):
        with pytest.raises(ParameterError):
            ModelGeometry(0.5, 3, 2.0)

    def test_rejects_bad_dimension_and_exponent(self):
        with pytest.raises(ParameterError):
            ModelGeometry(0.0, 1, 2.0)
        with pytest.raises(ParameterError):
            ModelGeometry(0.0, 3, 1.0)

    @pytest.mark.parametrize("kappa, n, p", [
        (math.nan, 3, 2.0), (-math.inf, 3, 2.0), (0.0, math.nan, 2.0), (0.0, math.inf, 2.0),
        (0.0, 3, math.inf), (0.0, 3, math.nan)])
    def test_rejects_a_geometry_that_is_not_a_finite_number(self, kappa, n, p):
        # kappa = nan and p = inf (p' = nan) were accepted; n = nan raised a ValueError
        with pytest.raises(ParameterError, match="is not a finite number"):
            ModelGeometry(kappa, n, p)

    @pytest.mark.parametrize("kappa, n, p, field", [
        ("x", 3, 2.0, "kappa"), (0.0, "3", 2.0, "n"), (0.0, 3, None, "p"),
        (0.0, 3, 2j, "p")])
    def test_rejects_a_field_that_is_not_a_real_number(self, kappa, n, p, field):
        # each raised an untyped TypeError
        with pytest.raises(ParameterError, match=f"^{field}=.* is not a finite number"):
            ModelGeometry(kappa, n, p)

    def test_conjugate_exponent(self):
        geo = ModelGeometry(0.0, 3, 3.0)
        assert geo.p_conj == pytest.approx(1.5)


class TestCt:
    def test_flat_branch(self):
        assert ct_value(E3.kappa, 2.0) == 0.5

    def test_coth_limit_at_infinity(self):
        v = ct_value(H1_2.kappa, 50.0)
        assert 1.0 <= v <= 1.0 + 1e-12

    def test_against_exponential_oracle(self):
        # oracle: coth(1) = (e^2+1)/(e^2-1) = 1.3130352854993312
        assert ct_value(H1_2.kappa, 1.0) == pytest.approx(coth_exp(1.0), abs=1e-14)
        assert coth_exp(1.0) == pytest.approx(1.3130352855, abs=1e-10)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(DomainError):
            ct_value(E3.kappa, 0.0)
        with pytest.raises(DomainError):
            ct_value(H1_2.kappa, -1.0)

    def test_strictly_decreasing(self):
        # strict monotonicity until coth saturates at its asymptote within
        # float resolution (sqrt(-kappa) t ~ 17.5); non-increasing beyond
        for geo in (E3, H1_2, ModelGeometry(-2.0, 3, 2.0)):
            t_strict = 1e3 if geo.kappa == 0.0 else 17.5 / math.sqrt(-geo.kappa)
            grid = log_grid(1e-6, t_strict, 150)
            vals = [ct_value(geo.kappa, t) for t in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            tail = [ct_value(geo.kappa, t) for t in log_grid(t_strict, 1e3, 60)]
            assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_taylor_window_smooth(self):
        # values straddling the series/direct switch agree to full precision
        for t in (0.9e-4, 1.0e-4, 1.1e-4):
            direct = math.sqrt(1.0) / math.tanh(t)  # kappa = -1
            assert ct_value(H1_2.kappa, t) == pytest.approx(direct, rel=1e-12)


class TestS:
    def test_flat_branch(self):
        assert s_value(E3.kappa, 3.0) == 3.0

    def test_zero(self):
        assert s_value(H1_2.kappa, 0.0) == 0.0

    def test_against_series_oracle(self):
        assert s_value(H1_2.kappa, 1.0) == pytest.approx(sinh_series(1.0), rel=1e-14)
        assert sinh_series(1.0) == pytest.approx(1.1752011936, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            s_value(H1_2.kappa, -0.1)

    def test_strictly_increasing(self):
        for geo in (E3, H1_2):
            grid = log_grid(1e-6, 1e2, 200)
            vals = [s_value(geo.kappa, t) for t in grid]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDeficit:
    def test_zero_at_origin(self):
        for geo in (E3, H1_2, ModelGeometry(-2.0, 2, 2.0)):
            assert deficit_value(geo.kappa, 0.0) == 0.0

    def test_flat_is_identically_zero(self):
        assert deficit_value(E3.kappa, 7.0) == 0.0

    def test_against_ct_oracle(self):
        assert deficit_value(H1_2.kappa, 1.0) == pytest.approx(coth_exp(1.0) - 1.0, abs=1e-13)

    def test_nonnegative_on_log_grids(self):
        for kappa in (0.0, -0.5, -1.0, -2.0):
            geo = ModelGeometry(kappa, 2, 2.0)
            for t in log_grid(1e-6, 1e3, 400):
                assert deficit_value(geo.kappa, t) >= 0.0

    def test_small_t_taylor_accuracy(self):
        # D ~ (-kappa) t^2/3; direct evaluation would cancel catastrophically
        for kappa in (-1.0, -2.0):
            geo = ModelGeometry(kappa, 2, 2.0)
            for t in (1e-8, 1e-6, 5e-5):
                expected = -kappa * t * t / 3.0
                assert deficit_value(geo.kappa, t) == pytest.approx(expected, rel=1e-8)


class TestVolumes:
    def test_density_examples(self):
        # s_kappa(t)^(n-1), the radial density the spectral pencil weights
        assert s_value(E3.kappa, 2.0) ** (E3.n - 1) == 4.0
        assert s_value(E2.kappa, 5.0) ** (E2.n - 1) == 5.0
        assert s_value(H1_2.kappa, 1.0) ** (H1_2.n - 1) == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_omega_n(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_matches_quadrature_of_density(self):
        # the ball volume under the radial measure n*omega_n*s^(n-1) dt, as the
        # verifier integrates it, against composite Simpson on the density
        for geo, R in ((E3, 1.7), (H1_2, 2.3), (H1_4, 1.1),
                       (ModelGeometry(-0.3, 5, 2.0), 0.9),
                       (ModelGeometry(-1e-7, 3, 2.0), 1.0)):
            quad = geo.n * unit_ball_volume(geo.n) * simpson(
                lambda t: s_value(geo.kappa, t) ** (geo.n - 1), 0.0, R, 8192)
            assert radial_integral(geo, lambda t: 1.0, R)[0] == pytest.approx(quad, rel=1e-10)


class TestComparisonL:
    """The Laplacian comparison bounds L of the catalog: (n-1)*ct(t) and
    (n-1)*sqrt(-kappa) as expressions, and greene_wu_psi's (n-1) psi'/psi."""

    CURVATURE, FLOOR = parse("(n-1)*ct(t)"), parse("(n-1)*sqrt(-kappa)")

    @staticmethod
    def _psi_L(geo, psi, t_hi=50.0):
        return instantiate("greene_wu_psi", geo, {"psi": psi, "t_hi": t_hi}).spec.L

    def test_flat_curvature_kind(self):
        assert self.CURVATURE.eval(1.0, E3.binding()) == 2.0

    def test_floor_value(self):
        assert self.FLOOR.eval(123.0, H1_4.binding()) == 3.0

    def test_floor_rejected_for_flat(self):
        # McKean's entry, the one with the floor, refuses kappa = 0
        with pytest.raises(HypothesisError, match="kappa < 0"):
            instantiate("mckean", E3)

    def test_psi_kind_matches_curvature_kind(self):
        for kappa in (0.0, -1.0, -2.0):
            geo = ModelGeometry(kappa, 3, 2.0)
            L = self._psi_L(geo, "s(t)")
            for t in (0.3, 1.0, 4.0):
                assert L.eval(t) == pytest.approx(self.CURVATURE.eval(t, geo.binding()),
                                                  rel=1e-12)

    def test_psi_sinh_explicit(self):
        L = self._psi_L(H1_3, "sinh(t)")
        assert L.eval(1.0) == pytest.approx(2.0 * coth_exp(1.0), rel=1e-13)

    def test_psi_nonpositive_rejected(self):
        # psi = t - t^2/100 is admissible on the probes of (0, 10), and
        # negative past t = 100
        L = self._psi_L(H1_3, "t - t^2/100", t_hi=10.0)
        with pytest.raises(DomainError, match=r"psi\(150.0\) = .* <= 0"):
            L.eval(150.0)

    def test_curvature_dominates_floor(self):
        b = ModelGeometry(-1.5, 4, 2.0).binding()
        for t in log_grid(1e-3, 50.0, 50):
            assert self.CURVATURE.eval(t, b) >= self.FLOOR.eval(t, b)

    def test_comparison_object_round_trip(self):
        assert self.CURVATURE.eval(1.0, H1_2.binding()) == pytest.approx(coth_exp(1.0),
                                                                         rel=1e-13)