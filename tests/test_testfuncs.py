import math

import pytest

from hardykit.testfuncs import gaussian_type, power_cutoff, talenti


class TestPowerCutoffCuts:
    """power_cutoff's logarithmic cut (n + alpha = p) and linear cut
    (n + alpha < p): u is continuous at the cut start rc and 0 at R, u' is
    the closed-form derivative of each piece, and the log evaluators are
    log|u| and log|u'| wherever those are finite."""

    # (n, p, alpha): n + alpha - p = 0 for the logarithmic cut, < 0 for the linear one
    CUTS = {
        "log n=2 p=2": (2, 2.0, 0.0),
        "log n=3 p=2 alpha=-1": (3, 2.0, -1.0),
        "linear n=2 p=3": (2, 3.0, 0.0),
        "linear n=1 p=2 alpha=0.5": (1, 2.0, 0.5),
    }

    @staticmethod
    def _closed_form(n, p, alpha, eps, r0, rc, R):
        """(u, u') on (0, R] in closed form: plateau, power, then the cut."""
        expo = -(n + alpha - p) / p + eps
        u_rc = rc**expo
        log_cut = n + alpha == p

        def u(t):
            if t >= R:
                return 0.0
            if t > rc:
                return u_rc * (math.log(R / t) / math.log(R / rc) if log_cut
                               else (R - t) / (R - rc))
            return max(t, r0) ** expo

        def du(t):
            if t <= r0 or t >= R:
                return 0.0
            if t > rc:
                return -u_rc / (t * math.log(R / rc)) if log_cut else -u_rc / (R - rc)
            return expo * t ** (expo - 1.0)

        return u, du

    @pytest.mark.parametrize("name", list(CUTS))
    def test_cut_profile(self, name):
        n, p, alpha = self.CUTS[name]
        eps, r0, R = 0.1, 1e-3, 10.0
        f = power_cutoff(eps, r0, R, n, p, alpha=alpha)
        rc = R * 0.01
        assert f.breakpoints == (r0, rc)
        u_ref, du_ref = self._closed_form(n, p, alpha, eps, r0, rc, R)
        # continuous at rc, 0 at R and beyond
        below, above = f.u(rc), f.u(rc * (1.0 + 1e-13))
        assert above == pytest.approx(below, rel=1e-11)
        assert f.u(R) == 0.0 and f.u(2.0 * R) == 0.0 and f.du(R) == 0.0
        assert f.log_abs_u(R) == -math.inf and f.log_abs_du(R) == -math.inf
        ts = [r0 * 0.5, r0 * 2.0, 0.05, rc * 0.999, rc * 1.001, 0.5, 3.0, 9.0, R * (1.0 - 1e-9)]
        for t in ts:
            u, du = f.u(t), f.du(t)
            assert u == pytest.approx(u_ref(t), rel=1e-12), (name, t)
            assert du == pytest.approx(du_ref(t), rel=1e-12, abs=0.0), (name, t)
            assert f.log_abs_u(t) == pytest.approx(math.log(abs(u)), rel=1e-12, abs=1e-12)
            if du != 0.0:
                assert f.log_abs_du(t) == pytest.approx(math.log(abs(du)), rel=1e-12, abs=1e-12)
            else:
                assert f.log_abs_du(t) == -math.inf
        # u' is u's derivative inside each piece: central differences
        for t in (2.0 * r0, 0.05, 0.5, 3.0, 9.0):
            h = 1e-6 * t
            assert (f.u(t + h) - f.u(t - h)) / (2.0 * h) == pytest.approx(f.du(t), rel=1e-6)

    @pytest.mark.parametrize("name", list(CUTS))
    def test_short_power_region_cuts_from_the_midpoint(self, name):
        # rc = R / 100 would not exceed r0: the cut starts at sqrt(r0 R)
        n, p, alpha = self.CUTS[name]
        r0, R = 0.5, 10.0
        f = power_cutoff(0.1, r0, R, n, p, alpha=alpha)
        rc = math.sqrt(r0 * R)
        assert f.breakpoints == (r0, rc)
        assert f.u(rc * (1.0 + 1e-13)) == pytest.approx(f.u(rc), rel=1e-11)
        assert f.u(R) == 0.0


class TestDerivativeAtZeroAndTails:
    """u'(0) of gaussian_type and of talenti's core against the closed-form
    limit of u'(t) as t -> 0 at gamma = 1 + alpha/(p-1) above, at and below
    1, and talenti's zero tail at t >= R."""

    # p = 2.5, scale = 1.7: alpha = 0.75, 0 and -0.75 give gamma = 1.5, 1 and
    # 0.5.  gaussian_type: u' = -(gamma/p) s (s t)^(gamma-1) u tends to 0,
    # -s/p and -inf; talenti (r = 4, exponent (p-1)/(p-r) = -1): u' = -(1 +
    # (s t)^gamma)^-2 gamma s (s t)^(gamma-1) tends to 0, -s and -inf
    @pytest.mark.parametrize("alpha, gauss, tal", [(0.75, 0.0, 0.0), (0.0, -1.7 / 2.5, -1.7),
                                                   (-0.75, -math.inf, -math.inf)])
    def test_derivative_at_zero(self, alpha, gauss, tal):
        g, t = gaussian_type(alpha, 2.5, scale=1.7), talenti(alpha, 2.5, 4.0, scale=1.7)
        assert g.du(0.0) == gauss and t.du(0.0) == tal
        # the limit of the values just above 0
        for u, want in ((g, gauss), (t, tal)):
            near = u.du(1e-200)
            if math.isinf(want):
                assert near < -1e90
            else:
                assert near == pytest.approx(want, rel=1e-15, abs=1e-99)

    def test_talenti_is_zero_from_R_on(self):
        # the linear taper u(200/s) (R - t)/(R - 200/s) ends at R = 400/s
        u = talenti(1.0, 2.0, 3.0, scale=2.0)
        R = u.support_hi
        assert R == 200.0
        taper = u.u(100.0) * (R - 150.0) / (R - 100.0)
        assert u.u(150.0) == pytest.approx(taper, rel=1e-15)
        assert u.du(150.0) == pytest.approx(-u.u(100.0) / (R - 100.0), rel=1e-15)
        for t in (R, 2.0 * R, 1e300):
            assert u.u(t) == 0.0 and u.du(t) == 0.0
