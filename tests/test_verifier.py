import dataclasses
import math
import random
from collections import Counter

import pytest

from hardykit import exprdsl, verifier
from hardykit.catalog import instantiate
from hardykit.errors import (DomainError, HardykitError, HypothesisError, ParameterError,
                             QuadratureError)
from hardykit.exprdsl import parse
from hardykit.geometry import ModelGeometry, deficit_value, unit_ball_volume
from hardykit.quadrature import kronrod_panel
from hardykit.riccati import FuncEval, RiccatiPairSpec
from hardykit.testfuncs import (RadialTestFunction, compact_bump, from_expr, gaussian_type,
                                power_cutoff, random_bumps, talenti)
from hardykit.verifier import (additive_margin, ckn_margin, extremal_identity_check,
                               gm_positivity_study, hardy_default_family,
                               margin_violated, multiplicative_margin, radial_integral,
                               sc_margin, scaled_family, sharpness_sweep, up_margin)
from oracles import (bump_margin_terms_mp, power_cutoff_masses_mp, reference_log_mass, simpson,
                     unshared_additive_terms, unshared_integrands, with_density)

E2 = ModelGeometry(0.0, 2, 2.0)
E3 = ModelGeometry(0.0, 3, 2.0)
H2 = ModelGeometry(-1.0, 2, 2.0)
H3 = ModelGeometry(-1.0, 3, 2.0)
H4 = ModelGeometry(-1.0, 4, 2.0)
E4 = ModelGeometry(0.0, 4, 2.0)


def young_holds(extras, tol=1e-9):
    """J^(1-p) |I|^p >= p I - (p-1) J, the additive-from-multiplicative bridge."""
    i, j, p = extras["i_term"], extras["j_term"], extras["p"]
    scale = max(abs(i), abs(j), 1.0)
    return j ** (1.0 - p) * abs(i) ** p >= p * i - (p - 1.0) * j - 1e-9 * scale


class TestCompactBump:
    def test_derivative_is_the_chain_rule_of_u(self):
        # du takes exp(1 - 1/g) itself, bitwise the u(t) it stands for
        rng = random.Random(75)
        for _ in range(40):
            width = rng.uniform(0.01, 5.0)
            center = width + rng.uniform(1e-6, 10.0)
            bump = compact_bump(center, width)
            for _ in range(50):
                t = rng.uniform(center - 1.1 * width, center + 1.1 * width)
                x = (t - center) / width
                g = 1.0 - x * x
                expected = bump.u(t) * (-2.0 * x / (g * g)) / width if abs(x) < 1.0 else 0.0
                assert bump.du(t) == expected, (center, width, t)

    def test_breakpoints_are_the_ends_centre_and_dyadic_marks(self):
        assert compact_bump(2.0, 1.0).breakpoints == (
            1.0, 1.0625, 1.125, 1.25, 1.5, 2.0, 2.5, 2.75, 2.875, 2.9375, 3.0)

    # the mark at x = -15/16 lies more than a decade above center - width
    # once width > 0.9931 center, and _log_mass runs in ln t from there;
    # below, no segment between breakpoints spans a decade, and it runs in t
    @pytest.mark.parametrize("width, in_log", [(0.995, True), (0.99, False), (0.95, False)])
    def test_log_mass_runs_in_ln_t_where_the_first_mark_is_a_decade_up(
            self, monkeypatch, width, in_log):
        u = compact_bump(1.0, width)
        spans = []
        real = verifier.integrate_panels

        def spy(panel, lo, hi, *a, **kw):
            spans.append((lo, hi))
            return real(panel, lo, hi, *a, **kw)

        monkeypatch.setattr(verifier, "integrate_panels", spy)
        got = verifier._log_mass(E3, u, upow=2.0, use_du=True)
        lo, hi = u.support_lo, u.support_hi
        assert spans == [(math.log(lo), math.log(hi)) if in_log else (lo, hi)]
        assert got == reference_log_mass(E3, u, upow=2.0, use_du=True)


class TestRadialIntegral:
    def test_flat_disk_linear_weight(self):
        val, err = radial_integral(E2, lambda t: t, 1.0)
        assert val == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)

    def test_matches_ball_volume(self):
        # the flat ball of radius 2 in R^3 has volume (4 pi / 3) 2^3
        val, _ = radial_integral(E3, lambda t: 1.0, 2.0)
        assert val == pytest.approx(32.0 * math.pi / 3.0, rel=1e-12)

    def test_hyperbolic_disk(self):
        val, _ = radial_integral(H2, lambda t: 1.0, 1.0)
        assert val == pytest.approx(2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-12)

    @pytest.mark.parametrize("expo", [-0.5, -2.5])
    def test_power_singularity_at_zero(self, expo):
        # integral of t^expo against the 3-d density t^2, declared nowhere
        val, _ = radial_integral(E3, lambda t: t**expo, 1.0)
        exact = 3.0 * unit_ball_volume(3) / (expo + 3.0)
        assert val == pytest.approx(exact, rel=1e-9)

    def test_density_overflow_is_a_domain_error(self):
        # s_kappa^8 leaves float range beyond t = 89 at kappa = -1: an untyped
        # OverflowError escaped, also where f vanishes
        H9 = ModelGeometry(-1.0, 9, 2.0)
        val, _ = radial_integral(H9, lambda t: 0.0 if t > 50.0 else 1.0, 200.0)
        assert val == pytest.approx(radial_integral(H9, lambda t: 1.0, 50.0)[0], rel=1e-9)
        with pytest.raises(DomainError, match="integrand overflow at t="):
            radial_integral(H9, lambda t: 1.0, 200.0)
        with pytest.raises(DomainError, match="integrand overflow at t="):
            radial_integral(H3, lambda t: 1.0, 800.0)  # s_kappa itself is inf

    @pytest.mark.parametrize("breakpoints", [(0.01, 0.1, 1.0), (1e-3, 1.0)])
    def test_signed_integrand_with_breakpoints_over_decades(self, breakpoints):
        # 4 pi int_0^10 t^2 cos t dt < 0; (1e-3, 1) spans three decades, so
        # the integral runs in x = ln t from 1e-3
        val, err = radial_integral(E3, math.cos, 10.0, breakpoints=breakpoints)
        exact = 4.0 * math.pi * (98.0 * math.sin(10.0) + 20.0 * math.cos(10.0))
        assert val == pytest.approx(exact, rel=1e-13)
        assert abs(val - exact) <= err

    @pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, R):
        with pytest.raises(DomainError, match="needs a finite R > 0"):
            radial_integral(E3, lambda t: 1.0, R)


class TestAdditiveMargin:
    def test_hardy_entry_power_cutoff(self):
        inst = instantiate("hardy", E3, {"alpha": 0.0, "C": 2.0})
        u = power_cutoff(0.1, 0.01, 1.0, 3, 2.0)
        m = additive_margin(None, inst, u)
        assert m.margin >= -1e-6
        assert young_holds(m.extras)

    def test_hardy_entry_agrees_with_its_sweep(self):
        # the margin's energy runs in t at _TOL, the sweep's through
        # _log_mass in ln t at _TOL_FINE; eps = 0.002 raised a bare
        # OverflowError in |u'|^p
        inst = instantiate("hardy", E3, {"alpha": 0.0})
        sweep = sharpness_sweep("hardy", E3, {"alpha": 0.0})
        margins = []
        for u, row in zip(hardy_default_family(E3), sweep.rows):
            try:
                m = additive_margin(None, inst, u)
            except HardykitError:
                continue
            assert m.lhs == pytest.approx(row.lhs, rel=1e-13, abs=0.0), u
            assert not margin_violated(m)
            margins.append(m.margin)
        assert len(margins) >= 5
        assert margins == sorted(margins, reverse=True)

    def test_zero_candidate_rhs_vanishes(self):
        # H(s) = s^2/2 with G == 0: both right-side integrals vanish
        u = compact_bump(1.0, 0.5)
        H = parse("s^2/2", var="s")
        m = additive_margin(E3, parse("0*t"), u, H=H)
        assert m.rhs == 0.0
        assert m.lhs > 0.0

    @pytest.mark.parametrize("margin", [additive_margin, multiplicative_margin])
    def test_plain_G_needs_a_geometry(self, margin):
        # an AttributeError on None was raised from the target's resolution
        with pytest.raises(ParameterError, match="a plain G needs a geometry"):
            margin(None, parse("0.5/t"), compact_bump(1.0, 0.5))

    def test_mckean_rayleigh_quotient(self):
        inst = instantiate("mckean", H2, {})
        u = compact_bump(5.0, 3.0)
        m = additive_margin(None, inst, u)
        assert m.margin >= -1e-6
        num, _ = radial_integral(H2, lambda t: u.u(t) ** 2, u.support_hi)
        energy, _ = radial_integral(H2, lambda t: u.du(t) ** 2, u.support_hi)
        assert energy / num >= 0.25

    def test_certified_entries_with_random_bumps(self):
        # a 50-member family for the unbounded-interval flagship entry, a
        # lighter family for the rest
        inst = instantiate("hardy", E3, {"alpha": 0.0, "C": 2.0})
        for u in random_bumps(50, seed=31):
            m = additive_margin(None, inst, u)
            assert m.margin >= -1e-6, u
            assert young_holds(m.extras), u
        cases = [
            ("mckean", H2, {}),
            ("mckean_improved", H2, {}),
            ("interpolation", H4, {"lam": 2.0}),
            ("akutagawa_kumura", H4, {"R": 0.5}),
        ]
        for name, geo, params in cases:
            inst = instantiate(name, geo, params)
            lo = inst.spec.t_lo
            for u in random_bumps(12, seed=31, lo=lo):
                m = additive_margin(None, inst, u)
                assert m.margin >= -1e-6, (name, u)
                assert young_holds(m.extras), (name, u)

    def test_spec_pair_target_matches_catalog_instance(self):
        inst = instantiate("hardy", E3, {"alpha": 1.5, "C": 2.0})
        for u in random_bumps(4, seed=9):
            for margin in (additive_margin, multiplicative_margin):
                assert margin(None, (inst.spec, inst.G), u) == margin(None, inst, u)

    def test_support_outside_interval_rejected(self):
        inst = instantiate("acr", E3, {"D": 1.0})
        with pytest.raises(HypothesisError):
            additive_margin(None, inst, compact_bump(2.0, 0.5))

    def test_boundary_distance_entry_rejected(self):
        inst = instantiate("caccioppoli", E3, {"alpha": 0.0, "R": 1.0})
        with pytest.raises(Exception):
            additive_margin(None, inst, compact_bump(0.5, 0.3))

    def test_bad_H_contract(self):
        u = compact_bump(1.0, 0.5)
        with pytest.raises(HypothesisError):
            additive_margin(E3, parse("1/(2*t)"), u, H=parse("s + 1", var="s"))
        with pytest.raises(HypothesisError):
            additive_margin(E3, parse("1/(2*t)"), u, H=parse("s", var="s"))

    def test_bv_and_faber_krahn_margins_agree_at_top_order(self):
        nu = (E3.n - 2.0) / 2.0
        bv = instantiate("brezis_vazquez", E3, {"nu": nu, "D": 1.0})
        fk = instantiate("faber_krahn", E3, {"R": 1.0})
        u = compact_bump(0.5, 0.3)
        m1 = additive_margin(None, bv, u)
        m2 = additive_margin(None, fk, u)
        tol = 10.0 * (m1.quadrature_error_estimate + m2.quadrature_error_estimate + 1e-13)
        assert abs(m1.lhs - m2.lhs) <= tol
        assert abs(m1.rhs - m2.rhs) <= tol


class TestMultiplicativeMargin:
    def test_generic_power_H_mckean_route(self):
        # G == 1, H = |s|^p/p on negative curvature rederives the spectral
        # floor through the quotient
        u = compact_bump(4.0, 2.5)
        m = multiplicative_margin(H2, parse("1 + 0*t"), u)
        assert m.margin >= -1e-9
        assert young_holds(m.extras)

    def test_degenerate_J_rejected(self):
        u = compact_bump(1.0, 0.5)
        with pytest.raises(DomainError):
            multiplicative_margin(E3, parse("0*t"), u)

    def test_up_equality_for_gaussian(self):
        m = up_margin(E3, gaussian_type(1.0, 2.0), 1.0)
        assert abs(m.margin) <= 1e-6

    def test_up_factors_match_gamma_integrals(self):
        # closed-form oracle for u = exp(-t^2/2), n=3, alpha=1:
        # energy = mass2 = 4 pi Gamma(5/2)/2 and the deficit-free right
        # integral is 4 pi Gamma(3/2)/2; the sharp constant 3/2 ties them
        m = up_margin(E3, gaussian_type(1.0, 2.0), 1.0)
        gamma52 = math.gamma(2.5)
        gamma32 = math.gamma(1.5)
        assert m.extras["energy"] == pytest.approx(2.0 * math.pi * gamma52, rel=1e-9)
        assert m.extras["mass2"] == pytest.approx(2.0 * math.pi * gamma52, rel=1e-9)
        assert m.extras["deficit_integral"] == pytest.approx(
            2.0 * math.pi * gamma32, rel=1e-9)
        assert m.lhs == pytest.approx(3.0 * math.pi * gamma32, rel=1e-9)

    def test_up_margin_positive_for_bumps(self):
        for u in random_bumps(8, seed=5):
            m = up_margin(E3, u, 0.5)
            assert m.margin >= -1e-9
            assert young_holds(m.extras)

    def test_up_hypothesis_window(self):
        with pytest.raises(HypothesisError):
            up_margin(E2, gaussian_type(1.0, 2.0), 1.0)  # n = p
        with pytest.raises(HypothesisError):
            up_margin(E3, gaussian_type(1.0, 2.0), 1.5)  # alpha > 1

    def test_ckn_margin_nonnegative(self):
        m = ckn_margin(E3, talenti(1.0, 2.0, 3.0), 1.0, 3.0)
        assert m.margin >= -1e-7

    def test_sc_margin_c_zero_reduces_to_spectral_floor(self):
        # s_0(2u)^2 = 4 u^2 makes the bound ((n-1)^2 |kappa| / 4) int u^2
        for u in random_bumps(20, seed=11):
            m = sc_margin(H2, u, 0.0)
            assert m.margin >= -1e-9
            assert young_holds(m.extras)

    def test_sc_margin_oscillatory_profile(self):
        for c in (1.0, -1.0, 4.0):
            m = sc_margin(H2, compact_bump(3.0, 2.0), c)
            assert m.margin >= -1e-9

    @pytest.mark.parametrize("c", [0.0, 1.0, -1.0])
    def test_sc_density_overflow_is_a_domain_error(self, c):
        # s_kappa^8 leaves float range beyond t = 89 at kappa = -1, where
        # s_c(u)^2 is about e^-320: the energy is finite, the s_c integrals are not
        H9 = ModelGeometry(-1.0, 9, 2.0)
        with pytest.raises(DomainError, match="integrand overflow at t="):
            sc_margin(H9, gaussian_type(1.0, 2.0, scale=0.2), c)

    def test_sc_zero_profile_is_a_domain_error(self):
        # u = 0: every integral is 0, and the right side 0 * 0 / 0 is refused
        zero = RadialTestFunction("zero", lambda t: 0.0, lambda t: 0.0, 0.5, 1.5)
        with pytest.raises(DomainError, match="denominator integral indistinguishable"):
            sc_margin(H3, zero, 1.0)

    def test_sc_requires_negative_curvature(self):
        with pytest.raises(HypothesisError):
            sc_margin(E3, compact_bump(1.0, 0.5), 0.0)


class TestExtremalIdentity:
    def test_flat_case(self):
        res = extremal_identity_check(E3, 1.0)
        assert res.discrepancy <= 1e-9

    def test_hyperbolic_case(self):
        res = extremal_identity_check(H2, 1.0)
        assert res.discrepancy <= 1e-8

    def test_fractional_alpha(self):
        res = extremal_identity_check(E3, 0.3)
        assert res.discrepancy <= 1e-9

    def test_integrability_rejection(self):
        with pytest.raises(HypothesisError):
            extremal_identity_check(H2, 0.0)  # gamma = 1 under negative curvature

    def test_alpha_beyond_float_range_is_a_parameter_error(self):
        # R^gamma raised an untyped OverflowError, and alpha = inf returned nan
        with pytest.raises(ParameterError, match="R\\^gamma leaves float range"):
            extremal_identity_check(E3, 1e308)
        with pytest.raises(ParameterError, match=r"gamma = .* leaves float range \(alpha=inf\)"):
            extremal_identity_check(E3, math.inf)
        with pytest.raises(ParameterError, match="gamma = .* leaves float range"):
            extremal_identity_check(ModelGeometry(0.0, 3, 1.0 + 1e-10), 1e300)

    @pytest.mark.xfail(strict=True, raises=DomainError, reason="_log_mass takes "
                       "log(s_value(kappa, t)) where s_value overflows to inf")
    def test_identity_where_the_density_overflows(self):
        # one of margins_mix's extremal draws; with log s taken without
        # overflow the discrepancy is 3.9e-16
        res = extremal_identity_check(ModelGeometry(-1.470658545052082, 2, 2.5466385401436398),
                                      0.20068103046217056)
        assert res.discrepancy <= 1e-8


def _panels(monkeypatch, run, *args):
    """(the Kronrod panels run(*args) asks for, its result), the panels
    counted on the panel functions the verifier hands integrate_panels."""
    panels = []
    real = verifier.integrate_panels

    def counting(panel, *a, **kw):
        return real(lambda lo, hi: panels.append((lo, hi)) or panel(lo, hi), *a, **kw)

    monkeypatch.setattr(verifier, "integrate_panels", counting)
    result = run(*args)
    return len(panels), result


class TestSweeps:
    @pytest.mark.parametrize("mode, params, u", [
        ("ckn", {"alpha": 1.0, "r": 3.0}, talenti(1.0, 2.0, 3.0, scale=1e300)),
        ("hardy", {"alpha": 10.0}, compact_bump(1e-40, 1e-41))])
    def test_member_whose_right_side_underflows_is_skipped(self, mode, params, u):
        # the achieved constant divided by the 0 right side: ZeroDivisionError
        sw = sharpness_sweep(mode, E3, params, [u])
        assert sw.rows[0].note == "skipped: right side underflows to 0"
        assert math.isnan(sw.rows[0].ratio) and math.isnan(sw.achieved_extremum)

    def test_hardy_family_shape(self):
        fam = hardy_default_family(E3)
        assert len(fam) == 7
        sw = sharpness_sweep("hardy", E3, {"alpha": 0.0})
        ratios = [r.ratio for r in sw.rows]
        assert all(r >= 0.25 - 1e-6 for r in ratios)
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert sw.achieved_extremum <= 0.2510
        assert sw.sharp_constant == 0.25

    def test_hardy_sweep_panel_count(self, monkeypatch):
        # the plateau's mass in closed form, the power region [e^-660, 1] and
        # the cut [1, 100] in x = ln t: 36 Kronrod panels for the 14 integrals
        # (162 with the plateau in t, 9310 one panel per decade in t)
        panels, sw = _panels(monkeypatch, sharpness_sweep, "hardy", E3, {"alpha": 0.0})
        assert panels == 36
        assert sw.achieved_extremum == pytest.approx(0.2509403426359339, rel=1e-12)

    # at kappa = -1 the plateau (0, r0], where u is constant and the mass a
    # plain power of t, is integrated in t at eps = 0.1 and 0.05: 410 and 340
    # panels (442 and 372 with a geometric tail of eight decades toward 0)
    @pytest.mark.parametrize("n, p, alpha, want", [(4, 2.5, 0.5, 410), (5, 2.0, 0.0, 340)])
    def test_hyperbolic_hardy_sweep_panel_count(self, monkeypatch, n, p, alpha, want):
        geo = ModelGeometry(-1.0, n, p)
        panels, sw = _panels(monkeypatch, sharpness_sweep, "hardy", geo, {"alpha": alpha})
        assert panels == want
        assert not any(r.note for r in sw.rows)

    # meshes seeded at the scale marks: 232 panels (228 from one panel over
    # the support, which is short at gamma = 2) and 180 (352)
    @pytest.mark.parametrize("mode, params, want", [("up", {"alpha": 1.0}, 232),
                                                    ("ckn", {"alpha": 1.0, "r": 3.0}, 180)])
    def test_scaled_sweep_panel_count(self, monkeypatch, mode, params, want):
        assert _panels(monkeypatch, sharpness_sweep, mode, E3, params)[0] == want

    # r0 = 5e-324 is inside power_cutoff's domain: the plateau's geometric
    # tail underflowed to t = 0, where _log_mass took log 0 (ValueError);
    # at kappa = -0.01 r*t underflows too, and log s_kappa took log 0; and
    # at kappa = -0.01, r0 = 1e-320 the plateau's t-panels, where r*t is
    # subnormal, never reached the tolerance (QuadratureError)
    @pytest.mark.parametrize("kappa", [0.0, -0.01])
    @pytest.mark.parametrize("r0", [5e-324, 1e-320, 1e-310])
    def test_subnormal_plateau_radius(self, kappa, r0):
        geo = ModelGeometry(kappa, 3, 2.0)

        def ratio(r0):
            family = [power_cutoff(0.1, r0, 100.0, 3, 2.0)]
            return sharpness_sweep("hardy", geo, {"alpha": 0.0}, family).rows[0].ratio

        got = ratio(r0)
        assert got == pytest.approx(ratio(1e-300), rel=1e-9)
        if kappa == 0.0:
            assert got == pytest.approx(0.30543894764880963, rel=1e-9)

    # sigma = (n + alpha - p)/p > 0 is the whole hypothesis; the plateau
    # value r0^(-sigma+eps) overflowed a float for 660 sigma > 690
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_hardy_sweep_every_sigma(self, p, sigma):
        for n in range(3, 11):
            geo = ModelGeometry(0.0, n, p)
            sw = sharpness_sweep("hardy", geo, {"alpha": p * sigma + p - n})
            sharp = sw.sharp_constant
            assert sharp == pytest.approx(sigma**p, rel=1e-12)
            finite = [r.ratio for r in sw.rows if math.isfinite(r.ratio)]
            assert all(r >= sharp - 1e-6 for r in finite)
            # the eps = 0.001 member within 5e-2 of sharp (4.96e-2 at p = 3,
            # sigma = 0.2); at p = 1.5, sigma = 0.2 that member was skipped:
            # its plateau integrand e^197 t^-0.7 overflowed at a subnormal t
            assert len(finite) == 7 and not any(r.note for r in sw.rows)
            assert finite[-1] == sw.achieved_extremum <= sharp * (1.0 + 5e-2)

    @pytest.mark.parametrize("n, want, tol", [(5, 2.2525916, 5e-8), (8, 9.0052, 5e-5)])
    def test_hardy_sweep_above_old_overflow(self, n, want, tol):
        sw = sharpness_sweep("hardy", ModelGeometry(0.0, n, 2.0), {"alpha": 0.0})
        assert sw.sharp_constant == ((n - 2.0) / 2.0) ** 2
        assert sw.achieved_extremum == pytest.approx(want, abs=tol)

    # sigma = 0.5, 1.5, 0.5 flat and 0.8, 1.5 hyperbolic
    @pytest.mark.parametrize("kappa, n, p, alpha", [(0.0, 3, 2.0, 0.0), (0.0, 5, 2.0, 0.0),
                                                    (0.0, 4, 3.0, 0.5), (-1.0, 4, 2.5, 0.5),
                                                    (-1.0, 5, 2.0, 0.0)])
    def test_hardy_sweep_against_mpmath(self, kappa, n, p, alpha):
        geo = ModelGeometry(kappa, n, p)
        sw = sharpness_sweep("hardy", geo, {"alpha": alpha})
        for u, row in zip(hardy_default_family(geo, alpha=alpha), sw.rows):
            energy, mass = power_cutoff_masses_mp(u, geo, alpha)
            assert row.lhs == pytest.approx(energy, rel=1e-12)
            assert row.rhs / sw.sharp_constant == pytest.approx(mass, rel=1e-12)

    # the plateau rule: on (0, r0] a power_cutoff's mass is exp(p log|u| +
    # q log r0 - log q), q = tpow + n, and its energy 0, where s_kappa(t)^(n-1)
    # is t^(n-1) to float precision up to r0; else the plateau runs in t
    @pytest.mark.parametrize("kappa, eps, r0, closed", [
        (0.0, 0.1, None, True), (0.0, 0.001, None, True), (-1.0, 0.001, None, True),
        (-0.01, 0.1, 1e-320, True), (-1.0, 0.1, None, False)])
    def test_plateau_mass_in_closed_form(self, monkeypatch, kappa, eps, r0, closed):
        geo = ModelGeometry(kappa, 3, 2.0)
        u = power_cutoff(eps, r0 or math.exp(max(-0.7 / eps, -660.0)), 100.0, 3, 2.0)
        starts = []
        real = verifier.integrate_panels

        def spy(panel, lo, *args, **kwargs):
            starts.append(lo)
            return real(panel, lo, *args, **kwargs)

        monkeypatch.setattr(verifier, "integrate_panels", spy)
        energy, _ = verifier._log_mass(geo, u, 2.0, 0.0, use_du=True)
        mass, _ = verifier._log_mass(geo, u, 2.0, -2.0)
        assert (0.0 in starts) == (not closed)
        want_energy, want_mass = power_cutoff_masses_mp(u, geo, 0.0)
        assert energy == pytest.approx(want_energy, rel=1e-12)
        assert mass == pytest.approx(want_mass, rel=1e-12)

    def test_power_cutoff_log_derivative_where_the_cut_underflows(self):
        # |dcut(t)| = 161 t^(-162) on the cut: t^(-162) rounds to 0 above
        # t ~ 99.2, and log_abs_du raised an untyped ValueError at t = 99.9
        u = power_cutoff(0.1, 1e-3, 100.0, 3, 2.0, alpha=160.0)
        for t in (99.5, 99.9, 99.999):
            assert u.du(t) == 0.0
            assert u.log_abs_du(t) == pytest.approx(math.log(161.0) - 162.0 * math.log(t),
                                                    rel=1e-14)
        # where the product is finite, its log is taken as before
        for t in (2.0, 50.0, 99.0):
            assert u.log_abs_du(t) == math.log(abs(u.du(t)))

    def test_up_scaling_invariance(self):
        sw = sharpness_sweep("up", E3, {"alpha": 1.0})
        ratios = [r.ratio for r in sw.rows]
        assert max(ratios) - min(ratios) <= 1e-8 * max(ratios)
        assert sw.sharp_constant == pytest.approx(1.5)

    def test_ckn_reaches_sharp_constant(self):
        sw = sharpness_sweep("ckn", E3, {"alpha": 1.0, "r": 3.0})
        assert sw.sharp_constant == pytest.approx(1.0)
        assert abs(sw.achieved_extremum - 1.0) <= 1e-4

    def test_ckn_factors_match_beta_integrals(self):
        # closed-form oracle for u = (1+t^2)^(-1), n=3, p=2, r=3, alpha=1:
        # energy = 8 pi B(5/2,3/2), mass2 = 2 pi B(5/2,3/2),
        # rhs integral = 2 pi B(3/2,3/2); the achieved ratio is exactly 1
        # because Gamma(5/2) = (3/2) Gamma(3/2)
        m = ckn_margin(E3, talenti(1.0, 2.0, 3.0), 1.0, 3.0)
        beta1 = math.gamma(2.5) * math.gamma(1.5) / math.gamma(4.0)
        beta2 = math.gamma(1.5) ** 2 / math.gamma(3.0)
        assert m.extras["energy"] == pytest.approx(8.0 * math.pi * beta1, rel=1e-5)
        assert m.extras["mass2"] == pytest.approx(2.0 * math.pi * beta1, rel=1e-5)
        assert m.extras["rhs_integral"] == pytest.approx(2.0 * math.pi * beta2,
                                                         rel=1e-5)
        assert 2.0 * beta1 / beta2 == pytest.approx(1.0, rel=1e-14)

    def test_inadmissible_member_skipped(self):
        # the two narrowest talenti members overflow the integrand on H^4: each
        # is recorded as skipped, not raised, and the wider two still count
        sw = sharpness_sweep("ckn", H4, {"alpha": 0.8, "r": 2.5})
        assert [r.family_param for r in sw.rows] == [0.5, 1.0, 2.0, 4.0]
        for r in sw.rows[:2]:
            assert r.note.startswith("skipped: integrand overflow")
            assert math.isnan(r.ratio)
        assert all(r.note == "" and math.isfinite(r.ratio) for r in sw.rows[2:])
        assert sw.achieved_extremum == min(r.ratio for r in sw.rows[2:])

    # hardy reported the sharp constant ((n + alpha - p)/p)^p = 0 and 0.0625
    @pytest.mark.parametrize("mode, params", [("up", {"alpha": 5.0}),
                                              ("ckn", {"alpha": 1.0, "r": 7.0}),
                                              ("hardy", {"alpha": -1.0}),
                                              ("hardy", {"alpha": -1.5})])
    def test_hypothesis_violation_raises(self, mode, params):
        with pytest.raises(HypothesisError):
            sharpness_sweep(mode, E3, params)

    def test_unknown_mode(self):
        with pytest.raises(Exception):
            sharpness_sweep("nonsense", E3, {})

    # a key the mode does not read would leave its default in place
    @pytest.mark.parametrize("mode, params, unknown", [
        ("hardy", {"aplha": 0.5}, "'aplha'"),
        ("up", {"alpha": 1.0, "r": 3.0}, "'r'"),
        ("ckn", {"alpha": 1.0, "r": 3.0, "scale": 2.0, "eps": 0.1}, "'scale', 'eps'")])
    def test_unknown_key_raises(self, mode, params, unknown):
        takes = "alpha, r" if mode == "ckn" else "alpha"
        message = rf"^{mode} params beside the geometry \(kappa, n, p\): " \
                  f"unknown key {unknown.replace(', ', '; unknown key ')}; it takes {takes}$"
        with pytest.raises(ParameterError, match=message):
            sharpness_sweep(mode, E3, params)
        if mode != "hardy":
            with pytest.raises(ParameterError, match=message):
                scaled_family(mode, E3, params)

    # a text alpha raised TypeError; an infinite one a QuadratureError at
    # "t=-3.4999999999999996", which is x = ln t
    @pytest.mark.parametrize("mode, params, message", [
        ("up", {"alpha": "0.5"}, "alpha='0.5' is not a finite number"),
        ("hardy", {"alpha": math.inf}, "alpha=inf is not a finite number"),
        ("ckn", {"alpha": 1.0, "r": math.nan}, "r=nan is not a finite number")])
    def test_value_that_is_not_a_finite_number_raises(self, mode, params, message):
        with pytest.raises(ParameterError, match=message):
            sharpness_sweep(mode, E3, params)

    def test_sharp_constant_beyond_float_range_raises(self):
        # ((n + alpha - p)/p)^p raised an untyped OverflowError
        with pytest.raises(ParameterError, match="sharp constant .* leaves float range"):
            sharpness_sweep("hardy", E3, {"alpha": 1e300})

    @pytest.mark.parametrize("alpha", [1e3, 1e20])
    def test_huge_alpha_gives_true_ratios_or_raises(self, alpha):
        # Hardy's inequality puts every ratio at or above the sharp constant
        try:
            result = sharpness_sweep("hardy", E3, {"alpha": alpha})
        except HardykitError:
            return
        assert all(row.ratio >= result.sharp_constant - 1e-6 for row in result.rows)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="the default hardy "
                       "family's cut at R = 100 dominates both integrals under exponential "
                       "volume growth")
    def test_hyperbolic_hardy_sweep_approaches_the_sharp_constant(self):
        # every row reads 450530.2182288185 against a sharp constant of 0.5724
        result = sharpness_sweep("hardy", ModelGeometry(-1.0, 4, 2.5), {"alpha": 0.5})
        assert len({row.ratio for row in result.rows}) > 1
        assert result.achieved_extremum < 2.0 * result.sharp_constant

    def test_talenti_overflow_is_a_parameter_error(self):
        # (200)^gamma leaves float range at the taper start
        with pytest.raises(ParameterError, match="overflows"):
            talenti(1e308, 2.0, 3.0)
        assert talenti(130.0, 2.0, 3.0).u(1.0) == 0.5
        # a NaN gamma, p = 1, and a scale putting the taper at 0, inf or nan
        for args, scale in (((math.nan, 2.0, 3.0), 1.0), ((1.0, 1.0, 3.0), 1.0),
                            ((1.0, 2.0, 3.0), 0.0), ((1.0, 2.0, 3.0), 1e-310),
                            ((1.0, 2.0, 3.0), math.inf), ((1.0, 2.0, 3.0), math.nan)):
            with pytest.raises(ParameterError):
                talenti(*args, scale=scale)


class TestMarginPolicy:
    def test_noise_never_counts_as_violation(self):
        inst = instantiate("hardy", E3, {"alpha": 0.0, "C": 2.0})
        u = compact_bump(1.0, 0.6)
        m = additive_margin(None, inst, u)
        assert not margin_violated(m)


class TestGmPositivityStudy:
    def test_grid_positivity(self):
        rows = gm_positivity_study(t_points=60)
        assert len(rows) == 216
        in_region = [r for r in rows if r.in_region]
        assert in_region, "grid must include proven-positivity points"
        for r in in_region:
            assert r.min_G > 0.0, r
        outside_failures = [r for r in rows if not r.in_region and r.min_G <= 0.0]
        # observations only; the expectation is that none occur
        assert not outside_failures


class TestQuadratureConsistencyAcrossModules:
    def test_energy_against_simpson(self):
        u = compact_bump(1.0, 0.5)
        val, _ = radial_integral(E3, lambda t: u.du(t) ** 2, u.support_hi)
        ref = 3.0 * unit_ball_volume(3) * simpson(
            lambda t: u.du(t) ** 2 * t * t, 0.5, 1.5, 4096)
        assert val == pytest.approx(ref, rel=1e-7)

    def test_from_expr_wrapper(self):
        u = from_expr(parse("t*(2 - t)"), 2.0)
        assert u.u(1.0) == 1.0
        assert u.du(1.0) == 0.0
        val, _ = radial_integral(E2, lambda t: u.u(t), 2.0)
        ref = 2.0 * math.pi * simpson(lambda t: t * (2 - t) * t, 0.0, 2.0, 2048)
        assert val == pytest.approx(ref, rel=1e-9)


# one instance of each of the 12 radial catalog entries
RADIAL_CASES = [
    ("hardy", E3, {"alpha": 0.0, "C": 2.0}),
    ("hardy_log", ModelGeometry(0.0, 4, 3.0), {"alpha": 1.2}),
    ("acr", E3, {"D": 1.0}),
    ("brezis_vazquez", H4, {"nu": 0.7, "D": 2.0}),
    ("faber_krahn", E3, {"R": 1.0}),
    ("mckean", H2, {}),
    ("mckean_improved", ModelGeometry(-1.0, 3, 2.0), {}),
    ("interpolation", H4, {"lam": 2.0}),
    ("akutagawa_kumura", ModelGeometry(-1.5, 2, 2.0), {"R": 0.5}),
    ("greene_wu_psi", ModelGeometry(-1.0, 3, 2.0), {"psi": "s(t)", "t_hi": 50.0}),
    ("ghoussoub_moradifam", ModelGeometry(-1.0, 5, 2.0),
     {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4}),
    ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.5), {"a": 1.3, "b": 0.8}),
]


def _bumps(inst, count, seed):
    lo, hi = inst.spec.t_lo, inst.spec.t_hi
    return random_bumps(count, seed, lo=lo, hi=hi,
                        span=min(10.0, hi - lo) if math.isfinite(hi) else 10.0)


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class _CountingG:
    """A G evaluable that records the nodes of its value and dual calls."""

    def __init__(self, G):
        self.G, self.values, self.duals = G, [], []

    def eval(self, t, binding=None):
        self.values.append(t)
        return self.G.eval(t, binding)

    def eval_d(self, t, binding=None):
        self.duals.append(t)
        return self.G.eval_d(t, binding)


class TestEvaluatorsResolvedOnce:
    """A margin resolves G, w and H to their evaluators once, and the
    positivity study each instance's G once: no expression is looked up in
    its compile cache again for the same mode and binding within one call."""

    @staticmethod
    def _lookups(monkeypatch, call):
        from hardykit.exprdsl import ScalarExpr

        seen = []
        compiled = ScalarExpr._compiled

        def counted(self, binding, mode):
            seen.append((self.source, mode, repr(sorted(binding.items()))))
            return compiled(self, binding, mode)

        monkeypatch.setattr(ScalarExpr, "_compiled", counted)
        call()
        monkeypatch.setattr(ScalarExpr, "_compiled", compiled)
        return seen

    def test_gm_margins(self, monkeypatch):
        inst = instantiate("ghoussoub_moradifam", E4,
                           {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3})
        u = _bumps(inst, 1, seed=19)[0]
        for margin in (additive_margin, multiplicative_margin):
            seen = self._lookups(monkeypatch, lambda: margin(None, inst, u))
            # G and w, each in value and dual mode
            assert len(seen) == len(set(seen)) == 4

    def test_plain_G_with_H(self, monkeypatch):
        G, H = parse("(n-2)/2/t"), parse("s^2/2 + s^4", var="s")
        u = random_bumps(1, seed=17)[0]
        seen = self._lookups(monkeypatch,
                             lambda: additive_margin(E3, G, u, H=H, binding={"n": 3.0}))
        # G, H and the weight 1, each in value and dual mode
        assert len(seen) == len(set(seen)) == 6

    def test_gm_positivity_study(self, monkeypatch):
        seen = self._lookups(monkeypatch, lambda: gm_positivity_study(t_points=10))
        assert len(seen) == len(set(seen)) == 216

    def test_psi_comparison_certify(self, monkeypatch):
        # psi is resolved once per instance, when greene_wu_psi builds G, L
        # and W over it: a certify looks up no psi in its compile cache
        from hardykit.riccati import certify

        inst = instantiate("greene_wu_psi", ModelGeometry(-1.0, 3, 2.0),
                           {"psi": "s(t) + 0.1*t^3", "t_hi": 20.0})
        seen = self._lookups(monkeypatch, lambda: certify(inst.spec, inst.G, n_points=1024))
        # the weight w = 1 alone, in dual mode
        assert len(seen) == len(set(seen)) == 1


def _constant_u(value, lo, hi):
    """u = value on (lo, hi) with du = 0: no energy, and I_H and J_H read
    the density and H at one u."""
    return RadialTestFunction("constant", lambda t: value, lambda t: 0.0, lo, hi)


class TestSharedNodeValues:
    """The three integrals of one additive or multiplicative margin share
    their node values; every result, and every error, must equal to the last
    bit that of three independent integrals."""

    @staticmethod
    def _outcomes():
        out = []
        for name, geo, params in RADIAL_CASES:
            inst = instantiate(name, geo, params)
            for i, u in enumerate(_bumps(inst, 3, seed=41)):
                for margin in (additive_margin, multiplicative_margin):
                    out.append((name, i, margin.__name__, _outcome(margin, None, inst, u)))
            u = _bumps(inst, 1, seed=43)[0]
            out.append((name, "pair", _outcome(additive_margin, None, (inst.spec, inst.G), u)))
        G, H = parse("(n-2)/2/t"), parse("s^2/2 + s^4", var="s")
        for geo in (E3, H3):
            for u in random_bumps(2, seed=17):
                for margin in (additive_margin, multiplicative_margin):
                    out.append(("plain G", _outcome(margin, geo, G, u, H=H, binding={"n": 3.0})))
        # failing cases: a G without derivative, a J functional at its error,
        # and an energy integral that fails as I_H fails with another error
        u = compact_bump(1.0, 0.5)
        no_dual = FuncEval(lambda t: 0.5 / t)
        out.append(("no G'", _outcome(additive_margin, E3, no_dual, u)))
        out.append(("J = 0", _outcome(multiplicative_margin, E3, parse("0*t"), u)))
        hardy = instantiate("hardy", E3, {}).spec
        spec = dataclasses.replace(hardy, w=parse("log(t - 5)"))
        out.append(("bad w", _outcome(additive_margin, None, (spec, no_dual), u)))
        # kappa < 0: s_kappa overflows to inf beyond t = 710.5, where the
        # energy fails first, or I_H where u' = 0; s_kappa^2 exceeds e^700
        # beyond t = 350.7: each an integrand overflow (an OverflowError
        # escaped there, and the float density made the others non-finite)
        one = parse("1 + 0*t")
        out.append(("inf density", _outcome(additive_margin, H2, one, compact_bump(705.0, 10.0))))
        out.append(("inf density, I_H",
                    _outcome(additive_margin, H2, one, _constant_u(0.5, 700.0, 720.0))))
        out.append(("density overflow",
                    _outcome(additive_margin, H3, one, _constant_u(0.5, 400.0, 420.0))))
        # only J_H fails: a non-finite node (w = 1e10 times e^690.8), and
        # |G|^p' above e^700 (an OverflowError escaped there)
        spec = dataclasses.replace(hardy, w=parse("1e10 + 0*t"))
        out.append(("J non-finite", _outcome(additive_margin, None, (spec, parse("1e150 + 0*t")), u)))
        out.append(("J overflow", _outcome(multiplicative_margin, E3, parse("1e200 + 0*t"), u)))
        # |u|^2 s^2 lies below e^-700, so I_H's nodes are 0, where J_H's
        # |G|^2 |u|^2 s^2 does not
        tiny = _constant_u(2.2250738585072014e-162, 0.5, 1.5)
        out.append(("I_H below e^-700", _outcome(additive_margin, E3, parse("1e10 + 0*t"), tiny)))
        return out

    def test_margins_equal_independent_integrals(self, monkeypatch):
        shared = self._outcomes()
        monkeypatch.setattr(verifier, "_additive_terms", unshared_additive_terms)
        reference = self._outcomes()
        assert len(shared) == len(reference) == 12 * 7 + 8 + 3 + 6
        for got, want in zip(shared, reference):
            assert got == want
        failed = {o[0]: o[-1].partition(":")[0] for o in shared if "Error" in o[-1]}
        assert failed == {"no G'": "UnsupportedDerivativeError", "J = 0": "DomainError",
                          "bad w": "EvalError", "inf density": "DomainError",
                          "inf density, I_H": "DomainError",
                          "density overflow": "DomainError",
                          "J non-finite": "QuadratureError", "J overflow": "DomainError"}
        assert "'i_term': 0.0, 'j_term': 0.0" not in shared[-1][-1]

    def test_j_term_reads_g_from_the_i_term(self, monkeypatch):
        inst = instantiate("ghoussoub_moradifam", E4,
                           {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3})
        u = _bumps(inst, 1, seed=19)[0]
        expected = repr(additive_margin(None, inst, u))
        runs = []
        for terms in (verifier._additive_terms, unshared_additive_terms):
            monkeypatch.setattr(verifier, "_additive_terms", terms)
            G = _CountingG(inst.G)
            runs.append((repr(additive_margin(None, (inst.spec, G), u)), G))
        (shared, G), (reference, G_ref) = runs
        assert shared == reference == expected
        # G's dual runs once at each node of I_H where h(u) is not 0, and J_H
        # reads G there: G's value mode never runs
        assert sorted(G.duals) == sorted(G_ref.duals)
        assert len(set(G.duals)) == len(G.duals) > 0
        assert G.values == [] and len(G_ref.values) > 0


class TestBumpMesh:
    """Catalog margins on compact_bump meshes seeded at the dyadic marks."""

    def test_catalog_margin_panel_count(self, monkeypatch):
        # additive and multiplicative margins of a Bessel entry, GM at
        # kappa = -1, McKean and a p = 2.5 entry, 4 bumps each: 1324 panels
        # (1900 with the bump's ends and centre alone)
        cases = [("brezis_vazquez", H4, {"nu": 0.7, "D": 2.0}),
                 ("ghoussoub_moradifam", ModelGeometry(-1.0, 5, 2.0),
                  {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4}),
                 ("mckean", H2, {}),
                 ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.5), {"a": 1.3, "b": 0.8})]

        def margins():
            for name, geo, params in cases:
                inst = instantiate(name, geo, params)
                for u in _bumps(inst, 4, seed=31):
                    additive_margin(None, inst, u)
                    multiplicative_margin(None, inst, u)

        assert _panels(monkeypatch, margins)[0] == 1324

    # p = 2 (a Bessel entry and McKean), p = 2.5, and the margin of the
    # seed-9191 benchmark stream whose energy moved most with the marks
    @pytest.mark.parametrize("name, geo, params, seed, count", [
        ("brezis_vazquez", H4, {"nu": 0.7, "D": 2.0}, 31, 1),
        ("mckean", H2, {}, 31, 1),
        ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.5), {"a": 1.3, "b": 0.8}, 31, 2),
        ("carvalho_cavalcante", ModelGeometry(-1.8426469865961792, 5, 2.9588249691299495),
         {"a": 1.8404228279760844, "b": 1.8844231933871924}, 604164, 1)])
    def test_terms_against_mpmath(self, name, geo, params, seed, count):
        inst = instantiate(name, geo, params)
        for u in _bumps(inst, count, seed):
            _, e, _, i, _, j, _ = verifier._additive_terms(None, inst, u, None, None)
            ref = bump_margin_terms_mp(inst, u)
            for got, want in zip((e, i, j), ref):
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (u, ref)


class TestMarginPanel:
    """The radial panel's margin parts are kronrod_panel over the log-space
    integrands of independent integrals, to the bit, errors included."""

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    @pytest.mark.parametrize("H", [None, "s^2/2 + s^4"])
    def test_panel_equals_kronrod_panel(self, kappa, H):
        geo = ModelGeometry(kappa, 3, 2.0)
        spec = RiccatiPairSpec(geo, 0.0, math.inf, w=parse("1 + t^2/4"), L=parse("0"),
                               W=parse("1"))
        # G is inf beyond t = 26.6, and s_kappa^2 (kappa < 0) exceeds e^700
        # beyond t = 350.7 and s_kappa leaves float range beyond 710.5
        target = (spec, parse("(n-2)/2/t + 0.3*sin(t) + 1e-300*exp(t^2)"))
        H = None if H is None else parse(H, var="s")
        rng = random.Random(2026)
        errors = Counter()
        for _ in range(40):
            center = math.exp(rng.uniform(math.log(0.5), math.log(800.0)))
            u = compact_bump(center, center * rng.uniform(0.05, 0.9))
            _, G, w, binding = verifier._resolve_target(None, target, u, None)
            panel = verifier._radial_panel(geo, u, G=G, w=w, H=H, binding=binding)
            integrands = unshared_integrands(None, target, u, H, None)[1:]
            for _ in range(4):
                a = rng.uniform(u.support_lo, u.support_hi)
                b = rng.uniform(a, u.support_hi)
                want = [_outcome(kronrod_panel, with_density(geo, f), a, b) for f in integrands]
                store = {}
                got = [_outcome(panel, part, store, a, b) for part in (0, 2, 3)]
                # J_H read from I_H's panel, and alone
                assert got + [_outcome(panel, 3, {}, a, b)] == want + want[2:]
                errors.update(o.partition(":")[0] for o in want if "Error" in o)
                # the energy's only factor that can overflow there is the density
                if want[0].startswith("DomainError: integrand overflow"):
                    assert float(want[0].rpartition("t=")[2]) > 300.0
                    errors["density overflow"] += 1
        # G = inf: I_H's drift is not finite, and |G|^2 overflows in J_H
        assert errors["QuadratureError"] > 0 and errors["DomainError"] > 0
        assert (errors["density overflow"] > 0) == (kappa != 0.0)

    @pytest.mark.parametrize("eps, r0", [(0.1, 0.01), (0.002, 1e-30)])
    def test_log_evaluators_equal_kronrod_panel(self, eps, r0):
        # power_cutoff's u and u' are read through its log evaluators, in nats
        inst = instantiate("hardy", E3, {"alpha": 0.0})
        u = power_cutoff(eps, r0, 100.0, 3, 2.0)
        _, G, w, binding = verifier._resolve_target(None, inst, u, None)
        panel = verifier._radial_panel(E3, u, G=G, w=w, binding=binding)
        integrands = unshared_integrands(None, inst, u, None, None)[1:]
        for a, b in [(0.5 * r0, 2.0 * r0), (1e-3, 0.1), (0.5, 1.5), (20.0, 99.0)]:
            want = [_outcome(kronrod_panel, with_density(E3, f), a, b) for f in integrands]
            got = [_outcome(panel, part, {}, a, b) for part in (0, 2, 3)]
            assert got == want and "Error" not in "".join(got)

    def test_nan_profile_is_not_finite(self):
        # a profile value that is nan is no zero: the node is not finite
        def u(t):
            return math.nan if 1.2 < t < 1.3 else 1.0 - (t - 1.0) ** 2

        prof = RadialTestFunction("nan", u, lambda t: -2.0 * (t - 1.0), 0.0, 2.0)
        for run in (lambda: additive_margin(E3, parse("1 + 0*t"), prof),
                    lambda: verifier._log_mass(E3, prof, 2.0)):
            with pytest.raises(QuadratureError, match="integrand non-finite at t=1.2"):
                run()

    def test_second_pass_compiles_no_template(self):
        def run():
            for name, geo, params in RADIAL_CASES:
                inst = instantiate(name, geo, params)
                for margin in (additive_margin, multiplicative_margin):
                    _outcome(margin, None, inst, _bumps(inst, 1, seed=5)[0])
            _outcome(additive_margin, E3, parse("(n-2)/2/t"), random_bumps(1, seed=5)[0],
                     H=parse("s^2/2 + s^4", var="s"), binding={"n": 3.0})

        run()
        misses = exprdsl._template_code.cache_info().misses
        run()
        assert exprdsl._template_code.cache_info().misses == misses


def _log_mass_cases(kappa: float, seed: int):
    """Seeded (geo, u, kwargs, reference kwargs) cases of _log_mass."""
    rng = random.Random(seed)
    cases = []
    for _ in range(6):
        # power_cutoff: log evaluators, a plateau in t and the ln t segment
        n, p = rng.choice([3, 4, 6, 10]), rng.choice([1.5, 2.0, 3.0])
        alpha = p * rng.uniform(0.2, 2.0) + p - n
        eps = rng.choice([0.1, 0.02, 0.001])
        u = power_cutoff(eps, math.exp(max(-0.7 / eps, -660.0)), 100.0, n, p, alpha=alpha)
        geo = ModelGeometry(kappa, n, p)
        cases += [(geo, u, {"upow": p, "tpow": alpha, "use_du": True}),
                  (geo, u, {"upow": p, "tpow": alpha - p})]
    for _ in range(4):
        n, p = rng.choice([2, 3, 5]), rng.uniform(1.3, 3.0)
        geo = ModelGeometry(kappa, n, p)
        alpha, scale = rng.uniform(0.1, 1.5), math.exp(rng.uniform(-1.0, 2.0))
        for u in (gaussian_type(alpha, p, scale=scale),
                  talenti(alpha, p, p + rng.uniform(0.5, 2.0), scale=scale),
                  compact_bump(rng.uniform(1.0, 5.0), rng.uniform(0.1, 0.9))):
            for use_du in (False, True):
                cases.append((geo, u, {"upow": p, "use_du": use_du,
                                       "tpow": rng.choice([0.0, rng.uniform(-1.0, 2.0)])}))
        u = gaussian_type(alpha, p, scale=scale)
        span = (0.0, u.support_hi, u.breakpoints)
        c = rng.uniform(9.0, 30.0)
        cases += [
            # the oscillatory margin's signed s_c profile, read in floats
            (geo, None, {"extra": lambda t, u=u, c=c: verifier._osc_profile(c, 3.0 * u.u(t)),
                         "span": span}),
            (geo, u, {"upow": p, "extra": lambda t: math.cos(3.0 * t)}),
            # an extra that raises ValueError beyond t = 1.5
            (geo, u, {"upow": p, "extra": lambda t: math.sqrt(1.5 - t)})]
    # one of margins_mix's extremal draws: log s_kappa overflows at kappa < 0
    geo = ModelGeometry(-1.470658545052082 if kappa else 0.0, 2, 2.5466385401436398)
    u = gaussian_type(0.20068103046217056, geo.p)
    cases.append((geo, u, {"upow": geo.p, "use_du": True}))
    return [(geo, u, kw, kw) for geo, u, kw in cases]


class TestLogMassPanel:
    """_log_mass's panel is its former per-node integrand run through
    quadrature.integrate, to the bit: the same value and error, or the
    same exception with the same message."""

    @pytest.mark.parametrize("kappa", [0.0, -1.0])
    def test_panel_equals_reference(self, kappa):
        outcomes = Counter()
        cases = _log_mass_cases(kappa, seed=36)
        if kappa == 0.0:
            # the up/ckn deficit factor, exactly 1.0 at kappa = 0, where
            # _scaled_margin passes extra=None
            u = gaussian_type(1.0, 2.0)
            cases.append((E3, u, {"upow": 2.0},
                          {"upow": 2.0, "extra": lambda t: 1.0 + 0.5 * deficit_value(0.0, t)}))
        for geo, u, kw, ref_kw in cases:
            got = _outcome(verifier._log_mass, geo, u, **kw)
            assert got == _outcome(reference_log_mass, geo, u, **ref_kw), (geo, u, kw)
            outcomes[got.partition(":")[0] if "Error" in got else "value"] += 1
        assert outcomes["value"] > 30 and outcomes["ValueError"] > 0
        assert (outcomes["DomainError"] > 0) == (kappa != 0.0)

    def test_plateau_mass_beyond_float_range(self):
        # the closed form's exp would raise OverflowError: the plateau runs in
        # t, where its integrand's overflow is a DomainError
        u = power_cutoff(0.1, 1e-300, 100.0, 3, 2.0, alpha=50.0)
        got = _outcome(verifier._log_mass, E3, u, 2.0, 2.0)
        assert got.startswith("DomainError: integrand overflow at t=")
        assert got == _outcome(reference_log_mass, E3, u, 2.0, 2.0)

    @pytest.mark.parametrize("run", [
        lambda: sharpness_sweep("hardy", E3, {"alpha": 0.0}),
        lambda: sharpness_sweep("up", H3, {"alpha": 1.0}),
        lambda: sharpness_sweep("ckn", E3, {"alpha": 0.5, "r": 3.0}),
        lambda: sc_margin(H3, gaussian_type(1.0, 2.0), 4.0),
        lambda: extremal_identity_check(ModelGeometry(-1.470658545052082, 2, 2.5466385401436398),
                                        0.20068103046217056),
        lambda: radial_integral(H2, lambda t: math.sin(t), 3.0, breakpoints=(1.0,))])
    def test_callers_equal_reference(self, run, monkeypatch):
        got = _outcome(run)
        monkeypatch.setattr(verifier, "_log_mass", reference_log_mass)
        assert got == _outcome(run)
