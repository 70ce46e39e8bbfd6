import dataclasses
import math
import random

import pytest

from hardykit.errors import (ConvergenceError, DomainError, ParameterError,
                             UnsupportedDerivativeError)
from hardykit.exprdsl import parse
from hardykit.geometry import ModelGeometry
from hardykit.riccati import (FuncEval, RiccatiPairSpec, bessel_to_riccati,
                              certification_grid, certify, residual,
                              residual_parts, riccati_to_bessel, solve_ivp)

E3 = ModelGeometry(0.0, 3, 2.0)
H2 = ModelGeometry(-1.0, 2, 2.0)


def hardy_spec():
    # n=3, p=2, alpha=0: w = 1, L = 2/t, W = 1/(4 t^2); G = 1/(2t) is exact
    return RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=math.inf, w=parse("1"),
                           L=parse("2/t"), W=parse("1/(4*t^2)"),
                           homogeneity_hint=-2.0)


def mckean_spec():
    return RiccatiPairSpec(geo=H2, t_lo=0.0, t_hi=math.inf, w=parse("1"),
                           L=parse("(n-1)*sqrt(-kappa)"), W=parse("0.25 + 0*t"))


class TestResidual:
    def test_hardy_exact_candidate(self):
        # hand expansion at t=1: -1/2 + 2*(1/2) - 1/4 - 1/4 = 0
        spec = hardy_spec()
        G = parse("1/(2*t)")
        assert residual(spec, G, 1.0) == pytest.approx(0.0, abs=1e-12)
        for t in (0.01, 0.5, 3.0, 100.0):
            assert abs(residual(spec, G, t)) <= 1e-12 * (1.0 + 1.0 / (4 * t * t))

    def test_mckean_constants(self):
        # 0 + 1*(1/2) - 1/4 - 1/4 = 0
        spec = mckean_spec()
        assert residual(spec, parse("0.5 + 0*t"), 3.0) == 0.0

    def test_zero_candidate_gives_minus_W(self):
        spec = hardy_spec()
        assert residual(spec, parse("0*t"), 2.0) == pytest.approx(-1.0 / 16.0, rel=1e-15)

    def test_scaled_candidate_hand_value(self):
        # 1.5 G at t=1: -0.75 + 1.5 - 0.5625 - 0.25 = -0.0625
        spec = hardy_spec()
        assert residual(spec, parse("1.5/(2*t)"), 1.0) == pytest.approx(-0.0625,
                                                                        rel=1e-13)

    def test_nonpositive_weight_rejected(self):
        spec = RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=2.0, w=parse("t - 1"),
                               L=parse("2/t"), W=parse("1/(4*t^2)"))
        with pytest.raises(DomainError):
            residual(spec, parse("1/(2*t)"), 0.5)


class TestConvexityIdentity:
    def test_scaling_identity_at_random_points(self):
        # residual(lam*G) = lam*(G' + (w'/w + L) G) - (p-1) lam^(p') |G|^(p') - W
        rng = random.Random(4242)
        spec = hardy_spec()
        G = parse("1/(2*t)")
        pc = spec.geo.p_conj
        p = spec.geo.p
        for _ in range(100):
            t = rng.uniform(0.05, 20.0)
            lam = rng.uniform(0.05, 3.0)
            parts = residual_parts(spec, G, t)
            scaled = parse(f"{lam!r}/(2*t)")
            lhs = residual(spec, scaled, t)
            rhs = lam * (parts.dg + parts.drift * parts.g) \
                - (p - 1.0) * lam**pc * abs(parts.g) ** pc - parts.w_target
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestCertificationGrid:
    def test_log_grid_size_and_interior(self):
        grid = certification_grid(0.0, 1.0)
        assert len(grid) >= 512
        assert all(0.0 < t < 1.0 for t in grid)
        assert grid == sorted(grid)

    def test_infinite_interval_mapped(self):
        grid = certification_grid(0.0, math.inf)
        assert grid[-1] > 100.0
        assert grid[0] < 1e-6

    def test_positive_left_endpoint_refinement(self):
        grid = certification_grid(1.0, math.inf)
        near = [t for t in grid if t <= 1.001]
        assert len(near) >= 16

    def test_uniform_policy(self):
        grid = certification_grid(0.0, 2.0, policy="uniform")
        gaps = [b - a for a, b in zip(grid, grid[1:])]
        # uniform spacing away from the refinement cluster
        assert max(gaps) / min(g for g in gaps if g > 1e-5) < 1.2

    def test_unknown_policy(self):
        with pytest.raises(ParameterError):
            certification_grid(0.0, 1.0, policy="banana")

    @pytest.mark.parametrize("t_lo, t_hi", [(-1.0, math.inf), (-1.0, 1.0), (2.0, 1.0),
                                            (1.0, 1.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_invalid_interval_is_a_parameter_error(self, t_lo, t_hi):
        # (-1, inf) divided by 1 + t_lo = 0 in the compactification
        with pytest.raises(ParameterError, match="invalid interval"):
            certification_grid(t_lo, t_hi)


class TestCertify:
    def test_hardy_certifies(self):
        rep = certify(hardy_spec(), parse("1/(2*t)"))
        assert rep.verdict == "certified"
        assert rep.max_abs_residual <= 1e-12

    def test_overscaled_candidate_fails_with_witness(self):
        rep = certify(hardy_spec(), parse("1.5/(2*t)"))
        assert rep.verdict == "failed"
        assert rep.witness_t is not None
        assert rep.min_residual < -1e-8

    def test_sign_condition_enforced(self):
        # G = -1/(2t) solves nothing but is also negative; for a spec
        # requiring G >= 0 the verdict reports the sign violation
        spec = hardy_spec()
        rep = certify(spec, parse("-1/(2*t)"))
        assert rep.verdict == "failed"

    def test_negative_sign_requirement(self):
        spec = RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=1.0, w=parse("1"),
                               L=parse("0"), W=parse("0.25*t^(-2)"),
                               g_sign_required=-1, homogeneity_hint=-2.0)
        rep = certify(spec, parse("-1/(2*t)"))
        assert rep.verdict == "certified"
        assert rep.max_G <= 0.0

    def test_sign_witness_is_where_G_breaks_the_sign(self):
        # the residual 2/t^2 is least at the right end, G = -1/t at the left
        spec = RiccatiPairSpec(geo=E3, t_lo=1.0, t_hi=10.0, w=parse("1"), L=parse("-3/t"),
                               W=parse("1/t^2"))
        rep = certify(spec, parse("-1/t"))
        assert rep.verdict == "failed" and "min G = -1 " in rep.reason
        assert rep.argmin_t > 9.9
        assert rep.witness_t == rep.grid[0] and parse("-1/t").eval(rep.witness_t) == rep.min_G
        # G = t <= 0 is required; the normalized residual 1/2 is least at the
        # first node it is computed at, G is greatest at the right end
        spec = RiccatiPairSpec(geo=E3, t_lo=1.0, t_hi=10.0, w=parse("1"), L=parse("t + 1/t"),
                               W=parse("1"), g_sign_required=-1)
        rep = certify(spec, parse("t"))
        assert rep.verdict == "failed" and "max G = " in rep.reason
        assert rep.witness_t == rep.grid[-1] == rep.max_G != rep.argmin_t

    def test_evaluation_failure_is_inconclusive(self):
        spec = RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=2.0, w=parse("1"),
                               L=parse("2/t"), W=parse("1/(4*t^2)"))
        rep = certify(spec, parse("log(t - 1)"))  # domain error for t < 1
        assert rep.verdict == "inconclusive"
        assert rep.witness_t is not None
        assert "failed" in rep.reason

    def test_tolerance_recorded(self):
        rep = certify(hardy_spec(), parse("1/(2*t)"), tol=1e-10)
        assert rep.tolerance_used == 1e-10

    def test_residuals_are_the_pointwise_residuals(self):
        # certify builds the binding once for its grid; each residual is
        # bitwise the one residual_parts builds its own binding for
        from hardykit.catalog import instantiate

        inst = instantiate("ghoussoub_moradifam", ModelGeometry(0.0, 5, 2.0),
                           {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4})
        spec, G = inst.spec, inst.G
        rep = certify(spec, G, n_points=64)
        for t, r in zip(rep.grid, rep.residuals, strict=True):
            parts = residual_parts(spec, G, t)
            assert parts == residual_parts(spec, G, t, spec.binding())
            scale = t ** (-spec.homogeneity_hint)
            assert r == (parts.value * scale) / (1.0 + abs(parts.w_target * scale))


class TestSolveIvp:
    def test_hardy_fundamental_solution(self):
        spec = hardy_spec()
        samples = [0.1 * (10.0 / 0.1) ** (i / 79) for i in range(80)]
        fwd = solve_ivp(spec, 1.0, 0.5, "forward", [t for t in samples if t >= 1.0])
        bwd = solve_ivp(spec, 1.0, 0.5, "backward", [t for t in samples if t < 1.0])
        assert not fwd.blew_up and not bwd.blew_up
        for t, g in zip(fwd.ts + bwd.ts, fwd.gs + bwd.gs):
            assert g == pytest.approx(1.0 / (2.0 * t), abs=1e-8)

    def test_log_improvement_closed_form(self):
        # p=2 fundamental solution with the log remainder on (0, 1):
        # G(t) = (n-2)/(2t) + 1/(2 t log(e/t))  for C = 1/4, D = 1
        n = 3
        spec = RiccatiPairSpec(
            geo=E3, t_lo=0.0, t_hi=1.0, w=parse("1"), L=parse("2/t"),
            W=parse("1/(4*t^2) + 1/(4*t^2*log(exp(1)/t)^2)"),
            homogeneity_hint=-2.0)
        closed = parse("1/(2*t) + 1/(2*t*log(exp(1)/t))")

        t0 = 0.5
        g0 = closed.eval(t0)
        samples = [0.05 + (0.95 - 0.05) * i / 40 for i in range(41)]
        fwd = solve_ivp(spec, t0, g0, "forward", [t for t in samples if t >= t0])
        bwd = solve_ivp(spec, t0, g0, "backward", [t for t in samples if t < t0])
        for t, g in zip(fwd.ts + bwd.ts, fwd.gs + bwd.gs):
            assert g == pytest.approx(closed.eval(t), abs=1e-7)

    def test_supercritical_constant_blows_up(self):
        # Dirichlet-style spectral constant slightly above the admissible
        # supremum j_{0,1}^2 on the unit interval: forward blow-up before 1
        from hardykit.specfun import bessel_zero

        geo2 = ModelGeometry(0.0, 2, 2.0)
        C = bessel_zero(0.0, 1) ** 2 * 1.05
        spec = RiccatiPairSpec(geo=geo2, t_lo=0.0, t_hi=1.5, w=parse("1"),
                               L=parse("1/t"), W=parse(f"{C!r} + 0*t"))
        from hardykit.specfun import bessel_ratio
        sC = math.sqrt(C)
        g0 = sC * bessel_ratio(0.0, sC * 0.1)
        samples = [0.1 + i * 0.9 / 63 for i in range(64)]
        traj = solve_ivp(spec, 0.1, g0, "forward", samples)
        assert traj.blew_up
        assert traj.blow_up_t is not None and traj.blow_up_t < 1.0

    def test_direction_validation(self):
        with pytest.raises(ParameterError):
            solve_ivp(hardy_spec(), 1.0, 0.5, "sideways", [2.0])
        with pytest.raises(ConvergenceError):
            solve_ivp(hardy_spec(), 1.0, 0.5, "forward", [0.5])

    def test_direction_and_samples_are_required(self):
        # the default samples, a window [t0/10, 10 t0] around t0, lay on both
        # sides of t0 and so raised ConvergenceError in either direction
        with pytest.raises(TypeError, match="direction.*sample_ts"):
            solve_ivp(hardy_spec(), 1.0, 0.5)
        with pytest.raises(TypeError, match="sample_ts"):
            solve_ivp(hardy_spec(), 1.0, 0.5, "forward")


class TestBesselRiccatiBridge:
    def test_inverse_square_root_profile(self):
        g = bessel_to_riccati(parse("t^(-0.5)"), 2.0)
        for t in (0.3, 1.0, 4.0):
            assert g.eval(t) == pytest.approx(1.0 / (2.0 * t), rel=1e-12)

    def test_inverse_square_root_profile_certifies_down_to_zero(self):
        # the stencil of y'' stepped below t = 0 for t < ~1e-6: the log grid
        # from 1e-12 was inconclusive at its first node ("negative base")
        g = bessel_to_riccati(parse("t^(-0.5)"), 2.0)
        for t in (1e-12, 1e-9, 3e-6, 1e-3):
            assert g.eval_d(t)[1] == pytest.approx(-0.5 / t**2, rel=1e-9)
        for policy in ("log", "uniform"):
            assert certify(hardy_spec(), g, grid_policy=policy).verdict == "certified"

    def test_hyperbolic_profile(self):
        # y = s(t)^(-1/2) at kappa=-1, n=3: G = (1/2) coth(t)
        g = bessel_to_riccati(parse("s(t)^(-0.5)"), 2.0, binding={"kappa": -1.0})
        for t in (0.5, 1.0, 2.0):
            assert g.eval(t) == pytest.approx(0.5 / math.tanh(t), rel=1e-10)

    def test_constant_profile_gives_zero(self):
        g = bessel_to_riccati(parse("1 + 0*t"), 2.0)
        assert g.eval(1.0) == 0.0

    def test_nonpositive_profile_rejected(self):
        g = bessel_to_riccati(parse("t - 2"), 2.0)
        with pytest.raises(DomainError):
            g.eval(1.0)

    def test_profile_power_out_of_float_range_is_a_domain_error(self):
        # y^(p-1) of y = exp(-800 t) underflows to 0 where y is still
        # positive, and |y'|^(p-1) of y = exp(800 t) overflows
        from hardykit.catalog import instantiate

        inst = instantiate("hardy", ModelGeometry(0.0, 3, 3.0), {"alpha": 0.5, "C": 2.0})
        spec = dataclasses.replace(inst.spec, t_lo=0.0, t_hi=2.0)
        g = bessel_to_riccati(parse("exp(-800*t)"), 3.0)
        rep = certify(spec, g)
        assert rep.verdict == "inconclusive" and "is not finite" in rep.reason
        for evaluate in (lambda t: residual(spec, g, t), g.eval, g.eval_d,
                         bessel_to_riccati(parse("exp(800*t)"), 3.0).eval):
            with pytest.raises(DomainError, match="is not finite"):
                evaluate(0.8)

    def test_riccati_to_bessel_closed_form(self):
        y = riccati_to_bessel(parse("1/(2*t)"), 2.0, 1.0)
        for t in (0.25, 0.5, 2.0, 4.0):
            assert y.eval(t) == pytest.approx(t**-0.5, rel=1e-9)

    def test_riccati_to_bessel_does_not_depend_on_call_order(self):
        G = parse("1/(2*t) + 0.3*sin(t)")
        ts = [0.5 + 5.5 * i / 99 for i in range(100)]
        fresh = [riccati_to_bessel(G, 2.0, 1.0).eval(t) for t in ts]
        for order in (ts, ts[::-1]):
            y = riccati_to_bessel(G, 2.0, 1.0)
            assert {t: y.eval(t) for t in order} == dict(zip(ts, fresh))

    def test_zero_candidate_gives_constant_profile(self):
        y = riccati_to_bessel(parse("0*t"), 2.0, 1.0)
        assert y.eval(3.0) == 1.0

    def test_round_trip_mckean_constant(self):
        G = parse("0.5 + 0*t")
        y = riccati_to_bessel(G, 2.0, 1.0)
        gback = bessel_to_riccati(y, 2.0)
        for i in range(50):
            t = 0.2 + i * (5.0 - 0.2) / 49
            assert gback.eval(t) == pytest.approx(0.5, abs=1e-7)

    def test_round_trip_residual_annihilation(self):
        # converting the positive profile of the exact Hardy pair back to G
        # reproduces a residual at the level of the second-difference noise
        spec = hardy_spec()
        g = bessel_to_riccati(parse("t^(-0.5)"), 2.0)
        for t in (0.5, 1.0, 2.0):
            assert abs(residual(spec, g, t)) < 1e-6


class TestBlowUpLocatesAssociatedZero:
    def test_blow_up_abscissa_matches_bessel_zero(self):
        # the equality ODE with constant target C and L = 1/t is solved by
        # G = sqrt(C) J_1(sqrt(C) t)/J_0(sqrt(C) t); its blow-up is exactly
        # the first zero of the associated positive profile, j01/sqrt(C)
        from hardykit.specfun import bessel_ratio, bessel_zero

        geo2 = ModelGeometry(0.0, 2, 2.0)
        j01 = bessel_zero(0.0, 1)
        C = j01**2 * 1.05
        spec = RiccatiPairSpec(geo=geo2, t_lo=0.0, t_hi=1.5, w=parse("1"),
                               L=parse("1/t"), W=parse(f"{C!r} + 0*t"))
        sC = math.sqrt(C)
        g0 = sC * bessel_ratio(0.0, sC * 0.1)
        samples = [0.1 + i * 0.9 / 255 for i in range(256)]
        traj = solve_ivp(spec, 0.1, g0, "forward", samples)
        assert traj.blew_up
        assert traj.blow_up_t == pytest.approx(j01 / sC, abs=1e-9)


class TestUniformPolicyOnCatalogEntry:
    def test_uniform_grid_certifies_bounded_entry(self):
        from hardykit.catalog import instantiate

        inst = instantiate("acr", E3, {"D": 1.0})
        rep = certify(inst.spec, inst.G, grid_policy="uniform")
        assert rep.verdict == "certified"
        assert rep.max_abs_residual <= 1e-10


class TestFuncEval:
    def test_eval_d_without_derivative_raises(self):
        f = FuncEval(lambda t: t * t, name="sq")
        assert f.eval(3.0) == 9.0
        with pytest.raises(UnsupportedDerivativeError):
            f.eval_d(3.0)
        assert FuncEval(lambda t: t * t, lambda t: (t * t, 2.0 * t)).eval_d(3.0) == (9.0, 6.0)

    def test_greene_wu_weight_has_no_derivative(self):
        from hardykit.catalog import instantiate

        inst = instantiate("greene_wu_psi", ModelGeometry(-1.0, 3, 2.0), {"psi": "s(t)"})
        with pytest.raises(UnsupportedDerivativeError):
            inst.spec.W.eval_d(1.0)
        assert inst.G.eval_d(1.0)[1] == inst.G.dual(1.0)[1]

    def test_greene_wu_G_evaluates_psi_once_per_point(self, monkeypatch):
        # G and G' share psi at t; psi'' adds t + h and t - h; psi is
        # resolved once, so its evaluations are counted at its evaluator
        from hardykit import catalog

        geo = ModelGeometry(-1.0, 3, 2.0)
        psi = parse("s(t) + 0.1*t^3")
        b = geo.binding()
        seen = []
        evaluator = catalog.evaluator

        def counted_evaluator(e, binding=None, dual=False):
            fn = evaluator(e, binding, dual)

            def counted(t):
                seen.append(t)
                return fn(t)

            return counted if e.source == psi.source else fn

        monkeypatch.setattr(catalog, "evaluator", counted_evaluator)
        inst = catalog.instantiate("greene_wu_psi", geo,
                                   {"psi": "s(t) + 0.1*t^3", "t_hi": 20.0})
        for t in (0.3, 1.3, 7.0):
            seen.clear()
            g, dg = inst.G.eval_d(t)
            h = min(1e-5 * (1.0 + t), 0.5 * t)
            assert seen == [t, t + h, t - h]
            # bitwise the separate value and derivative formulas
            v, d = psi.eval_d(t, b)
            r = d / v
            ypp = (psi.eval_d(t + h, b)[1] - psi.eval_d(t - h, b)[1]) / (2.0 * h)
            assert g == -0.5 / t + 1.0 * d / v == inst.G.eval(t)
            assert dg == 0.5 / (t * t) + 1.0 * (ypp / v - r * r)
