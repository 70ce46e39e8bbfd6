import math

import pytest

from hardykit import quadrature
from hardykit.errors import QuadratureError
from hardykit.quadrature import _graded_edges, integrate, integrate_panels, kronrod_panel


class TestKronrodPanel:
    def test_polynomial_exactness_degree_22(self):
        # the 15-point rule integrates degree <= 22 exactly on [-1, 1]
        for m in range(0, 23):
            val, _ = kronrod_panel(lambda x, m=m: x**m, -1.0, 1.0)
            exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
            assert val == pytest.approx(exact, abs=2e-15)

    def test_degree_24_not_exact(self):
        val, _ = kronrod_panel(lambda x: x**24, -1.0, 1.0)
        assert abs(val - 2.0 / 25.0) > 1e-10

    def test_embedded_error_estimate_is_conservative(self):
        val, err = kronrod_panel(math.exp, 0.0, 1.0)
        assert abs(val - (math.e - 1.0)) <= max(err, 1e-15)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            kronrod_panel(lambda x: math.inf if x == 0.5 else 1.0, 0.0, 1.0)


def _power_at_zero(expo):
    """(integral of t^expo over [0, 1], Kronrod panels it took), the value
    the same as integrate's."""
    asked = []

    def panel(a, b):
        asked.append((a, b))
        return kronrod_panel(lambda x: x**expo, a, b)

    val, err = integrate_panels(panel, 0.0, 1.0)
    assert integrate(lambda x: x**expo, 0.0, 1.0) == (val, err)
    return val, len(asked)


class TestAdaptiveIntegrate:
    def test_smooth(self):
        val, err = integrate(math.exp, 0.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, rel=1e-14)

    # an integrable power singularity at 0 needs no hint: the worst panel,
    # the one at 0, is halved until the tolerance is met.  The panel counts
    # are pinned; a geometric tail of eight decades toward 0 took 115 and 609
    def test_inverse_square_root_singularity(self):
        assert _power_at_zero(-0.5) == (pytest.approx(2.0, rel=1e-9), 115)

    def test_inverse_power_nine_tenths_singularity(self):
        assert _power_at_zero(-0.9) == (pytest.approx(10.0, rel=1e-9), 607)

    def test_near_critical_power_over_many_decades(self):
        # t^(-0.998) from 1e-250: mass (1 - 1e-250^0.002)/0.002
        lo = 1e-250
        exact = (1.0 - lo**0.002) / 0.002
        val, err = integrate(lambda x: x**-0.998, lo, 1.0, rel_tol=1e-11)
        assert val == pytest.approx(exact, rel=1e-9)

    def test_breakpoints_resolve_kinks(self):
        def f(x):
            return 1.0 if x < 0.3333333 else 2.0

        val, err = integrate(f, 0.0, 1.0, breakpoints=(0.3333333,), rel_tol=1e-13)
        exact = 0.3333333 + 2.0 * (1.0 - 0.3333333)
        assert val == pytest.approx(exact, rel=1e-13)

    def test_oscillatory(self):
        val, _ = integrate(lambda x: math.sin(10.0 * x), 0.0, 1.0, rel_tol=1e-12)
        assert val == pytest.approx((1.0 - math.cos(10.0)) / 10.0, rel=1e-12)

    def test_subdivision_budget_error(self, monkeypatch):
        # interior algebraic singularity: integrable but far too slow for a
        # five-subdivision budget at this tolerance
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 5)
        with pytest.raises(QuadratureError):
            integrate(lambda x: abs(x - 1.0 / math.pi) ** -0.9, 0.0, 1.0, rel_tol=1e-13)

    def test_success_at_the_last_allowed_subdivision(self, monkeypatch):
        # sqrt on [0, 1] takes k subdivisions at 1e-14: with a budget of k the
        # loop ends on its last subdivision and returns what an unbounded
        # run returns; with k - 1 it raises
        asked = []

        def panel(a, b):
            asked.append((a, b))
            return kronrod_panel(math.sqrt, a, b)

        val, err = integrate_panels(panel, 0.0, 1.0, rel_tol=1e-14)
        k = (len(asked) - 1) // 2
        assert k > 1 and val == pytest.approx(2.0 / 3.0, rel=1e-14)
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", k)
        assert integrate(math.sqrt, 0.0, 1.0, rel_tol=1e-14) == (val, err)
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", k - 1)
        with pytest.raises(QuadratureError, match=f"not reached after {k - 1} subdivisions"):
            integrate(math.sqrt, 0.0, 1.0, rel_tol=1e-14)

    def test_panel_at_float_resolution_is_not_split(self, monkeypatch):
        # the integrand 1 on [0, 1] with an error estimate of 1e-12 on the
        # panel holding 1/pi, whatever its width: that panel is halved down
        # to adjacent floats and then kept, never asked for again
        c = 1.0 / math.pi
        asked = []

        def panel(a, b):
            asked.append((a, b))
            return b - a, 1e-12 if a <= c < b else 0.0

        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 100)
        with pytest.raises(QuadratureError,
                           match=r"after 100 subdivisions \(value 1\.0, error estimate 1e-12\)"):
            integrate_panels(panel, 0.0, 1.0, rel_tol=1e-13)
        # 54 halvings; the other 46 subdivisions kept the last panel
        assert len(set(asked)) == len(asked) == 1 + 2 * 54
        assert asked[-1] == (c, math.nextafter(c, 2.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(QuadratureError):
            integrate(math.exp, 1.0, 1.0)

    def test_error_estimate_scale(self):
        val, err = integrate(lambda x: math.cos(3.0 * x), 0.0, 2.0, rel_tol=1e-12)
        assert abs(val - math.sin(6.0) / 3.0) <= 10.0 * max(err, 1e-15)

    def test_subnormal_edges(self):
        # b/a = inf raised OverflowError in the decade count
        edges = _graded_edges(5e-324, 100.0, ())
        assert edges == sorted(set(edges)) and len(edges) == 327
        assert edges[-2] == 5e-324 * 1e308 * 1e17 and edges[-1] == 100.0
