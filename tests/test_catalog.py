import math

import pytest

from hardykit.errors import HypothesisError, ParameterError
from hardykit.geometry import ModelGeometry
from hardykit.catalog import entry_names, gm_region_condition, instantiate, list_catalog
from hardykit.riccati import bessel_to_riccati, certify, residual, riccati_to_bessel
from hardykit.specfun import bessel_zero

E3 = ModelGeometry(0.0, 3, 2.0)
E4 = ModelGeometry(0.0, 4, 2.0)
H2 = ModelGeometry(-1.0, 2, 2.0)
H3 = ModelGeometry(-1.0, 3, 2.0)
H4 = ModelGeometry(-1.0, 4, 2.0)

ALL_NAMES = [
    "caccioppoli", "caccioppoli_improved", "hardy", "hardy_log", "acr",
    "brezis_vazquez", "faber_krahn", "mckean", "mckean_improved",
    "interpolation", "akutagawa_kumura", "greene_wu_psi",
    "ghoussoub_moradifam", "carvalho_cavalcante",
]

# one representative instantiation per entry for the regression suite
REGRESSION_CASES = [
    ("caccioppoli", E3, {"alpha": 0.0, "R": 1.0}),
    ("caccioppoli", ModelGeometry(0.0, 2, 3.0), {"alpha": -1.5, "R": 2.0}),
    ("caccioppoli_improved", ModelGeometry(0.0, 3, 1.5), {"R": 2.0}),
    ("caccioppoli_improved", E3, {"R": 0.7}),
    ("hardy", E3, {"alpha": 0.0, "C": 2.0}),
    ("hardy", ModelGeometry(-1.0, 4, 2.5), {"alpha": 1.0, "C": 3.0}),
    ("hardy_log", E3, {"alpha": 0.0}),
    ("hardy_log", ModelGeometry(0.0, 4, 3.0), {"alpha": 1.2}),
    ("acr", E3, {"D": 1.0}),
    ("acr", H4, {"D": 2.5}),
    ("brezis_vazquez", E3, {"nu": 0.0, "D": 1.0}),
    ("brezis_vazquez", H4, {"nu": 0.7, "D": 2.0}),
    ("faber_krahn", ModelGeometry(0.0, 2, 2.0), {"R": 1.0}),
    ("faber_krahn", E4, {"R": 3.0}),
    ("mckean", H2, {}),
    ("mckean", ModelGeometry(-2.0, 4, 3.0), {}),
    ("mckean_improved", H3, {}),
    ("mckean_improved", ModelGeometry(-0.5, 2, 1.5), {}),
    ("interpolation", H4, {"lam": 2.0}),
    ("interpolation", H3, {"lam": 1.0}),
    ("akutagawa_kumura", H3, {"R": 1.0}),
    ("akutagawa_kumura", ModelGeometry(-1.5, 2, 2.0), {"R": 0.5}),
    ("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": 50.0}),
    ("greene_wu_psi", ModelGeometry(0.0, 4, 2.0), {"psi": "t + 0.1*t^3", "t_hi": 10.0}),
    ("ghoussoub_moradifam", E4, {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3}),
    ("ghoussoub_moradifam", ModelGeometry(0.0, 5, 2.0),
     {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4}),
    ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.5), {"a": 1.3, "b": 0.8}),
    ("carvalho_cavalcante", H2, {"a": 1.0, "b": 2.0}),
]


class TestListing:
    def test_exactly_the_fourteen_names(self):
        assert entry_names() == ALL_NAMES
        assert len(list_catalog()) == 14

    def test_summaries_carry_citations(self):
        for summary in list_catalog():
            assert summary["citation"].strip()
            assert summary["requires"].strip()

    def test_unknown_entry(self):
        with pytest.raises(ParameterError):
            instantiate("unknown", E3, {})

    def test_unknown_parameter_names_the_schema(self):
        with pytest.raises(ParameterError, match=r"'hardy': unknown parameter 'bogus'; "
                                                 r"it takes alpha, C$"):
            instantiate("hardy", E3, {"alpha": 0.0, "bogus": 1.0})
        with pytest.raises(ParameterError, match="'mckean'.*it takes no parameters"):
            instantiate("mckean", H2, {"R": 1.0})

    def test_missing_required_parameter(self):
        with pytest.raises(ParameterError, match=r"'greene_wu_psi': missing parameter 'psi'; "
                                                 r"it takes psi \(required\), t_hi$"):
            instantiate("greene_wu_psi", H3, {"t_hi": 10.0})

    def test_non_numeric_value_of_numeric_parameter(self):
        with pytest.raises(ParameterError, match=r"'hardy': alpha='abc' is not a finite "
                                                 r"number; it takes alpha, C$"):
            instantiate("hardy", E3, {"alpha": "abc"})
        with pytest.raises(ParameterError, match=r"'greene_wu_psi': t_hi='x' is not a "
                                                 r"finite number"):
            instantiate("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": "x"})
        # psi is an expression; None is the default of hardy's C
        assert instantiate("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": 10}).name == \
            "greene_wu_psi"
        assert instantiate("hardy", E3, {"C": None}).spec.params["C"] == 2.0


    @pytest.mark.parametrize("name, params", [
        # caccioppoli certified with sharp constant 0.25 on a ball of radius inf
        ("caccioppoli", {"R": math.inf}),
        # brezis_vazquez reported a sharp constant of 0.0
        ("brezis_vazquez", {"D": math.inf}),
        ("hardy", {"alpha": math.nan}),
        ("hardy", {"C": -math.inf}),
    ], ids=["caccioppoli-R", "brezis-vazquez-D", "hardy-alpha-nan", "hardy-C-minus-inf"])
    def test_non_finite_value_is_refused(self, name, params):
        ((key, value),) = params.items()
        with pytest.raises(ParameterError, match=f"{key}={value!r} is not a finite number"):
            instantiate(name, E3, params)

    def test_constant_beyond_float_range_is_a_parameter_error(self):
        # ((C + 1 + alpha - p)/p)^p raised an untyped OverflowError
        with pytest.raises(ParameterError, match="leaves float range"):
            instantiate("hardy", E3, {"alpha": 1e308})


class TestEqualityRegression:
    @pytest.mark.parametrize("name,geo,params", REGRESSION_CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(REGRESSION_CASES)])
    def test_certifies_with_tiny_residual(self, name, geo, params):
        inst = instantiate(name, geo, params)
        rep = certify(inst.spec, inst.G)
        assert rep.verdict == "certified", rep.reason
        assert rep.max_abs_residual <= 1e-8


class TestSharpConstants:
    def test_hardy_example(self):
        inst = instantiate("hardy", E3, {"alpha": 0.0, "C": 2.0})
        assert inst.sharp_constant == pytest.approx(0.25)
        assert inst.spec.W.eval(1.0, inst.spec.binding()) == pytest.approx(0.25)
        assert inst.spec.W.eval(2.0, inst.spec.binding()) == pytest.approx(1.0 / 16.0)

    def test_mckean_quarter(self):
        inst = instantiate("mckean", H2, {})
        assert inst.sharp_constant == pytest.approx(0.25)
        assert inst.spec.W.eval(17.0, inst.spec.binding()) == pytest.approx(0.25)

    def test_brezis_vazquez_spectral_constant(self):
        inst = instantiate("brezis_vazquez", E3, {"nu": 0.0, "D": 1.0})
        assert inst.sharp_constant == pytest.approx(5.7832, abs=2e-4)
        assert inst.sharp_constant == pytest.approx(bessel_zero(0.0, 1) ** 2, rel=1e-12)

    def test_caccioppoli_constant(self):
        inst = instantiate("caccioppoli", ModelGeometry(0.0, 3, 3.0), {"alpha": 0.5, "R": 1.0})
        assert inst.sharp_constant == pytest.approx(((3.0 - 1.0 - 0.5) / 3.0) ** 3)

    def test_carvalho_cavalcante_constant(self):
        p = 2.5
        a, b = 1.3, 0.8
        inst = instantiate("carvalho_cavalcante", ModelGeometry(0.0, 3, p), {"a": a, "b": b})
        assert inst.sharp_constant == pytest.approx(b**p / (p**p * a ** (p * (p - 1))),
                                                    rel=1e-13)


class TestHypothesisRejections:
    def test_hardy_needs_positive_q(self):
        with pytest.raises(HypothesisError, match="C \\+ 1 \\+ alpha > p"):
            instantiate("hardy", E3, {"alpha": 0.0, "C": 1.0})

    def test_hardy_log_exponent_window(self):
        with pytest.raises(HypothesisError):
            instantiate("hardy_log", E3, {"alpha": 1.5})
        with pytest.raises(HypothesisError):  # p > n
            instantiate("hardy_log", ModelGeometry(0.0, 2, 2.5), {"alpha": 0.0})

    def test_acr_needs_three_dimensions(self):
        with pytest.raises(HypothesisError, match="n >= 3"):
            instantiate("acr", ModelGeometry(0.0, 2, 2.0), {"D": 1.0})

    def test_p_equals_two_entries(self):
        with pytest.raises(HypothesisError, match="p = 2"):
            instantiate("brezis_vazquez", ModelGeometry(0.0, 3, 2.5), {"nu": 0.0, "D": 1.0})

    def test_bv_order_range(self):
        with pytest.raises(HypothesisError):
            instantiate("brezis_vazquez", E3, {"nu": 0.8, "D": 1.0})
        with pytest.raises(HypothesisError):
            instantiate("brezis_vazquez", E3, {"nu": -0.1, "D": 1.0})

    def test_mckean_needs_negative_curvature(self):
        with pytest.raises(HypothesisError, match="kappa < 0"):
            instantiate("mckean", E3, {})

    def test_interpolation_lambda_window(self):
        with pytest.raises(HypothesisError):
            instantiate("interpolation", H4, {"lam": 0.5})
        with pytest.raises(HypothesisError):
            instantiate("interpolation", H4, {"lam": 2.5})

    def test_caccioppoli_sign_window(self):
        with pytest.raises(HypothesisError, match="alpha < p - 1"):
            instantiate("caccioppoli", E3, {"alpha": 1.0, "R": 1.0})

    def test_caccioppoli_improved_p_window(self):
        with pytest.raises(HypothesisError, match="1 < p <= 2"):
            instantiate("caccioppoli_improved", ModelGeometry(0.0, 3, 2.5), {"R": 1.0})

    def test_gm_degenerate_constant(self):
        with pytest.raises(HypothesisError, match="m < "):
            instantiate("ghoussoub_moradifam", E4,
                        {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 1.0})

    def test_gm_sign_condition(self):
        with pytest.raises(HypothesisError):
            instantiate("ghoussoub_moradifam", E4,
                        {"a": 1.0, "b": 1.0, "alpha": -0.5, "beta": 0.5, "m": 0.3})

    def test_greene_wu_profile_conditions(self):
        # psi(0) != 0
        with pytest.raises(HypothesisError):
            instantiate("greene_wu_psi", H3, {"psi": "1 + t", "t_hi": 10.0})
        # the two probe failures name the first failing probe point and value
        with pytest.raises(HypothesisError) as err:
            instantiate("greene_wu_psi", H3, {"psi": "t/(1 - 0.2*t)", "t_hi": 10.0})
        assert str(err.value) == "hypothesis violated: psi > 0 (psi(5.078125) = -325.0)"
        # violates (n-2) psi' + (n-1) t psi'' >= 0 (psi'' << 0)
        with pytest.raises(HypothesisError) as err:
            instantiate("greene_wu_psi", H3, {"psi": "t - 0.4*t^3 + 0.001*t^5",
                                              "t_hi": 10.0})
        assert str(err.value) == ("hypothesis violated: (n-2) psi' + (n-1) t psi'' >= 0"
                                  " (value -0.7904086038451843 at t=0.546875)")


class TestStructuralInvariants:
    def test_bv_at_top_order_equals_faber_krahn(self):
        nu = (E4.n - 2.0) / 2.0
        bv = instantiate("brezis_vazquez", E4, {"nu": nu, "D": 1.5})
        fk = instantiate("faber_krahn", E4, {"R": 1.5})
        b = bv.spec.binding()
        bf = fk.spec.binding()
        for t in (0.1, 0.5, 1.0, 1.4):
            assert bv.G.eval(t, b) == pytest.approx(fk.G.eval(t, bf), rel=1e-12)
            assert bv.spec.W.eval(t, b) == pytest.approx(fk.spec.W.eval(t, bf), rel=1e-12)

    def test_interpolation_upper_endpoint_kills_deficit_term(self):
        lam = (H4.n - 1.0) ** 2 / 4.0
        inst = instantiate("interpolation", H4, {"lam": lam})
        assert inst.metadata["gamma_n"] == 0.0
        assert inst.metadata["h_n"] == 0.5
        assert inst.metadata["h_n"] * inst.metadata["gamma_n"] == 0.0

    def test_interpolation_lower_endpoint_coefficients(self):
        n = H4.n
        inst = instantiate("interpolation", H4, {"lam": float(n - 2)})
        assert inst.metadata["gamma_n"] == pytest.approx(n - 3.0)
        # deficit coefficient h*gamma = (n-2)(n-3)/2
        h, g = inst.metadata["h_n"], inst.metadata["gamma_n"]
        assert h * g == pytest.approx((n - 2.0) * (n - 3.0) / 2.0)

    def test_hardy_shift_invariance(self):
        # (alpha, C) -> (alpha + d, C - d) preserves q, hence G and W
        a = instantiate("hardy", E3, {"alpha": 0.0, "C": 2.0})
        b = instantiate("hardy", E3, {"alpha": 0.5, "C": 1.5})
        ba, bb = a.spec.binding(), b.spec.binding()
        for t in (0.2, 1.0, 7.0):
            assert a.G.eval(t, ba) == pytest.approx(b.G.eval(t, bb), rel=1e-14)
            assert a.spec.W.eval(t, ba) == pytest.approx(b.spec.W.eval(t, bb), rel=1e-14)

    def test_gm_beta_zero_collapses_to_hardy(self):
        m = 0.3
        gm = instantiate("ghoussoub_moradifam", E4,
                         {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.0, "m": m})
        hd = instantiate("hardy", E4, {"alpha": -2.0 * m, "C": 3.0})
        bg, bh = gm.spec.binding(), hd.spec.binding()
        for t in (0.1, 1.0, 10.0):
            assert gm.G.eval(t, bg) == pytest.approx(hd.G.eval(t, bh), rel=1e-10)
            assert gm.spec.W.eval(t, bg) == pytest.approx(hd.spec.W.eval(t, bh),
                                                          rel=1e-10)

    def test_gm_region_condition(self):
        assert gm_region_condition(0.5, 0.5, 1.4)
        assert not gm_region_condition(2.0, 2.0, 1.4)
        assert not gm_region_condition(-0.5, -0.5, 1.4)

    def test_gm_in_region_requires_nonneg_G(self):
        inst = instantiate("ghoussoub_moradifam", E4,
                           {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3})
        assert inst.metadata["in_thm422_region"]
        assert inst.spec.g_sign_required == 1
        out = instantiate("ghoussoub_moradifam", E4,
                          {"a": 1.0, "b": 1.0, "alpha": 2.0, "beta": 2.0, "m": 0.3})
        assert not out.metadata["in_thm422_region"]
        assert out.metadata["positivity_unproven"]
        assert out.spec.g_sign_required == 0

    def test_model_exact_entries_drop_sign_requirement(self):
        for name, geo, params in (("mckean_improved", H3, {}),
                                  ("interpolation", H4, {"lam": 2.0}),
                                  ("akutagawa_kumura", H3, {"R": 1.0})):
            inst = instantiate(name, geo, params)
            assert inst.spec.g_sign_required == 0

    def test_caccioppoli_requires_nonpositive_G(self):
        inst = instantiate("caccioppoli", E3, {"alpha": 0.0, "R": 1.0})
        assert inst.spec.g_sign_required == -1
        assert inst.spec.rho_kind == "boundary_distance"


class TestRoundTripWithBesselBridge:
    @pytest.mark.parametrize("name,geo,params,window", [
        ("caccioppoli", E3, {"alpha": 0.0, "R": 1.0}, (0.2, 0.9)),
        ("caccioppoli_improved", E3, {"R": 1.0}, (0.2, 0.9)),
        ("hardy", E3, {"alpha": 0.0, "C": 2.0}, (0.5, 3.0)),
        ("hardy_log", E3, {"alpha": 0.0}, (0.15, 0.7)),
        ("acr", E3, {"D": 1.0}, (0.1, 0.8)),
        ("brezis_vazquez", E3, {"nu": 0.0, "D": 1.0}, (0.1, 0.8)),
        ("faber_krahn", E3, {"R": 1.0}, (0.1, 0.8)),
        ("mckean", H2, {}, (0.5, 4.0)),
        ("mckean_improved", H3, {}, (0.5, 4.0)),
        ("interpolation", H4, {"lam": 2.0}, (0.5, 4.0)),
        ("akutagawa_kumura", H3, {"R": 1.0}, (1.2, 5.0)),
        ("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": 50.0}, (0.5, 4.0)),
        ("ghoussoub_moradifam", E4,
         {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3}, (0.3, 2.0)),
        ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.0), {"a": 1.0, "b": 1.0},
         (0.5, 4.0)),
    ])
    def test_bessel_riccati_round_trip(self, name, geo, params, window):
        inst = instantiate(name, geo, params)
        binding = inst.spec.binding()

        class BoundG:
            def eval(self, t, b=None):
                return inst.G.eval(t, binding)

        lo, hi = window
        anchor = 0.5 * (lo + hi)
        y = riccati_to_bessel(BoundG(), 2.0, anchor)
        gback = bessel_to_riccati(y, 2.0)
        for i in range(50):
            t = lo + (hi - lo) * i / 49.0
            direct = inst.G.eval(t, binding)
            assert gback.eval(t) == pytest.approx(direct, rel=1e-7, abs=1e-7)


class TestResidualSpotChecks:
    def test_brezis_vazquez_residual_small_everywhere(self):
        inst = instantiate("brezis_vazquez", E3, {"nu": 0.0, "D": 1.0})
        for t in (0.01, 0.3, 0.9, 0.999):
            r = residual(inst.spec, inst.G, t)
            w = inst.spec.W.eval(t, inst.spec.binding())
            assert abs(r) <= 1e-8 * (1.0 + abs(w))

    def test_greene_wu_sinh_profile_matches_interpolation_geometry(self):
        inst = instantiate("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": 50.0})
        interp = instantiate("interpolation", H3, {"lam": 1.0})
        b = interp.spec.binding()
        for t in (0.5, 2.0, 7.0):
            assert inst.G.eval(t) == pytest.approx(interp.G.eval(t, b), rel=1e-9)


class TestNegativeControls:
    """The certification machinery must reject wrong mathematics, not just
    accept right mathematics."""

    def test_inflated_target_fails(self):
        inst = instantiate("hardy", E3, {"alpha": 0.0, "C": 2.0})
        from hardykit.exprdsl import parse
        from hardykit.riccati import RiccatiPairSpec

        bad = RiccatiPairSpec(
            geo=inst.spec.geo, t_lo=inst.spec.t_lo, t_hi=inst.spec.t_hi,
            w=inst.spec.w, L=inst.spec.L, W=parse("1.01*Ws*t^(-p)"),
            params=inst.spec.params, g_sign_required=inst.spec.g_sign_required,
            homogeneity_hint=inst.spec.homogeneity_hint)
        rep = certify(bad, inst.G)
        assert rep.verdict == "failed"

    def test_gauss_ratio_normalization_is_arbitrated_by_residual(self):
        # halving the hypergeometric ratio term (the effect of an extra
        # 1/Gamma(1+s) factor with s in {1, 2}) no longer annihilates the
        # residual: the implemented normalization is the one solving the
        # equality ODE.  (The halved candidate happens to leave a strictly
        # positive residual, i.e. it is a weaker admissible certificate, so
        # annihilation, not the verdict, is the discriminating signal.)
        from hardykit.exprdsl import parse

        inst = instantiate("ghoussoub_moradifam", E4,
                           {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3})
        good = certify(inst.spec, inst.G)
        assert good.verdict == "certified"
        assert good.max_abs_residual <= 1e-10
        halved = parse(
            "K0h/t * (1 - 0.5*beta*(b/a)*t^alpha"
            " * hyp2f1(oA - oB + 1, oA + oB + 1, 2, -(b/a)*t^alpha)"
            " / hyp2f1(oA - oB, oA + oB, 1, -(b/a)*t^alpha))")
        bad = certify(inst.spec, halved)
        assert bad.max_abs_residual > 1e-3

    def test_wrong_bessel_order_fails(self):
        inst = instantiate("brezis_vazquez", E3, {"nu": 0.0, "D": 1.0})
        from hardykit.exprdsl import parse

        wrong = parse("(n - 2 - 2*nu)/(2*t) + sqrtC*besselratio(nu + 1, sqrtC*t)")
        rep = certify(inst.spec, wrong)
        assert rep.verdict == "failed"

    def test_report_invariant_on_all_regressions(self):
        # certified => min normalized residual >= -tol and the sign
        # condition holds at the same tolerance
        for name, geo, params in REGRESSION_CASES:
            inst = instantiate(name, geo, params)
            rep = certify(inst.spec, inst.G)
            assert rep.verdict == "certified"
            assert rep.min_residual >= -rep.tolerance_used
            if inst.spec.g_sign_required == 1:
                assert rep.min_G >= -rep.tolerance_used
            elif inst.spec.g_sign_required == -1:
                assert rep.max_G <= rep.tolerance_used


class TestIndependentPipelineCrossCheck:
    def test_gm_candidate_against_mpmath_stack(self):
        # evaluate the two-power-weight candidate and its derivative with an
        # independent high-precision stack (mpmath hyp2f1 + high-precision
        # finite differences) and compare the full dual-number pipeline
        import mpmath

        inst = instantiate("ghoussoub_moradifam", E4,
                           {"a": 1.3, "b": 0.9, "alpha": 0.6, "beta": 0.8, "m": 0.2})
        binding = inst.spec.binding()
        A, B = inst.metadata["A"], inst.metadata["B"]
        k0 = inst.metadata["K0"]
        a, b, alpha, beta = 1.3, 0.9, 0.6, 0.8

        def g_mp(t):
            t = mpmath.mpf(t)
            z = -(mpmath.mpf(b) / a) * t**alpha
            num = mpmath.hyp2f1(1 + A - B, 1 + A + B, 2, z)
            den = mpmath.hyp2f1(A - B, A + B, 1, z)
            return (k0 / (2 * t)) * (1 - beta * (mpmath.mpf(b) / a) * t**alpha
                                     * num / den)

        with mpmath.workdps(40):
            for t in (0.05, 0.7, 3.0, 40.0):
                ref = float(g_mp(t))
                h = mpmath.mpf("1e-12") * (1 + t)
                ref_d = float((g_mp(mpmath.mpf(t) + h) - g_mp(mpmath.mpf(t) - h))
                              / (2 * h))
                v, d = inst.G.eval_d(t, binding)
                assert v == pytest.approx(ref, rel=1e-11)
                assert d == pytest.approx(ref_d, rel=1e-9, abs=1e-12)


class TestGMWorkCount:
    def test_one_series_pass_per_grid_node(self, monkeypatch):
        # G's contiguous ratio comes from one kernel evaluation per grid node
        # (1040 at 1024 points): one continued fraction inside its band, one
        # pass of the denominator's series outside it
        from hardykit import specfun

        inst = instantiate("ghoussoub_moradifam", E4,
                           {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3})
        calls = []
        fraction, pair = specfun._contiguous_fraction, specfun._hyp2f1_pair
        monkeypatch.setattr(specfun, "_contiguous_fraction",
                            lambda *args: calls.append(args[-1]) or fraction(*args))
        monkeypatch.setattr(specfun, "_hyp2f1_pair",
                            lambda *args: calls.append(args[3]) or pair(*args))
        rep = certify(inst.spec, inst.G, n_points=1024)
        assert rep.verdict == "certified"
        assert len(calls) == len(set(calls)) == 1040
