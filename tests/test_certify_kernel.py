"""certify's one generated loop: residuals, errors, grid and code caches.

certify and residual_parts run the same generated function (riccati's loop
template with G, w, L and W filled in by exprdsl.fill_template); these
tests pin that the two agree to the bit, that the loop reports the errors
certify has always reported, that grids and code objects are reused without
leaking state, and that degenerate intervals and overflows are typed.
"""

import math

import pytest

from hardykit import exprdsl
from hardykit.catalog import instantiate
from hardykit.cli import main
from hardykit.config import parse_config
from hardykit.errors import DomainError, ParameterError
from hardykit.exprdsl import ScalarExpr, parse
from hardykit.geometry import ModelGeometry
from hardykit.riccati import (RiccatiPairSpec, certification_grid, certify, residual,
                              residual_parts)
from test_certify_reference import ENTRY_CASES

E3 = ModelGeometry(0.0, 3, 2.0)


def _spec(w="1", L="2/t", W="1/(4*t^2)", t_hi=2.0, **kw):
    return RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=t_hi, w=parse(w), L=parse(L), W=parse(W),
                           **kw)


@pytest.mark.parametrize("name,geo,params", ENTRY_CASES, ids=[c[0] for c in ENTRY_CASES])
def test_residuals_are_residual_parts_normalized(name, geo, params):
    inst = instantiate(name, geo, params)
    spec, G = inst.spec, inst.G
    hint = spec.homogeneity_hint
    for policy in ("log", "uniform"):
        rep = certify(spec, G, grid_policy=policy, n_points=64)
        assert rep.verdict == "certified"
        for t, r in zip(rep.grid, rep.residuals, strict=True):
            parts = residual_parts(spec, G, t)
            if hint is not None and hint < 0.0:
                scale = t ** (-hint)
                expected = (parts.value * scale) / (1.0 + abs(parts.w_target * scale))
            else:
                expected = parts.value / (1.0 + abs(parts.w_target))
            assert repr(r) == repr(expected), (name, policy, t)


# (spec, G) -> (witness_t, reason, residuals before the failure), as certify
# reported them before the loop was generated
ERROR_CASES = {
    "w-nonpositive": (
        _spec(w="1.5 - t"), "1/(2*t)", 1.5524313165936616,
        "evaluation failed at t=1.5524313165936616: weight w(1.5524313165936616) = "
        "-0.052431316593661625 is not positive", 520),
    "W-nonpositive": (
        _spec(W="1/(4*t^2) - 1"), "1/(2*t)", 0.5078270829590014,
        "evaluation failed at t=0.5078270829590014: target W(0.5078270829590014) = "
        "-0.03058822278436424 is not positive", 489),
    "non-finite": (
        _spec(W="1/(4*t^2) + exp(1000*t)"), "1/(2*t)", 0.7282208820691177,
        "evaluation failed at t=0.7282208820691177: non-finite residual", 499),
    "besselratio": (
        _spec(), "1/(2*t) + 0*besselratio(0, 1.5 - t)", 1.5524313165936616,
        "evaluation failed at t=1.5524313165936616: bessel_ratio needs x > 0, got "
        "-0.052431316593661625 in 'besselratio(0, 1.5 - t)'", 520),
    "unbound": (
        _spec(), "a/(2*t)", 2e-12, "evaluation failed at t=2e-12: unbound parameter 'a'", 0),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_are_reported_as_before(case):
    spec, G, witness, reason, count = ERROR_CASES[case]
    rep = certify(spec, parse(G))
    assert (rep.verdict, rep.witness_t, rep.reason) == ("inconclusive", witness, reason)
    assert len(rep.residuals) == count


def test_mutating_a_grid_leaves_the_next_one_alone():
    first = certification_grid(0.0, math.inf)
    kept = list(first)
    first[0] = -1.0
    first.append(7.0)
    assert certification_grid(0.0, math.inf) == kept
    rep = certify(_spec(t_hi=math.inf, homogeneity_hint=-2.0), parse("1/(2*t)"))
    rep.grid.clear()
    assert certify(_spec(t_hi=math.inf, homogeneity_hint=-2.0),
                   parse("1/(2*t)")).grid == kept


@pytest.mark.parametrize("name,geo,first,second", [
    ("hardy", ModelGeometry(0.0, 4, 2.5), {"alpha": 1.0, "C": 3.0}, {"alpha": 0.5, "C": 2.5}),
    ("ghoussoub_moradifam", ModelGeometry(0.0, 5, 2.0),
     {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4},
     {"a": 1.5, "b": 0.5, "alpha": 0.9, "beta": 0.7, "m": 0.2}),
])
def test_new_parameter_values_compile_no_code(name, geo, first, second):
    inst = instantiate(name, geo, first)
    certify(inst.spec, inst.G)
    before = exprdsl._template_code.cache_info().misses
    inst = instantiate(name, geo, second)
    assert certify(inst.spec, inst.G).verdict == "certified"
    assert exprdsl._template_code.cache_info().misses == before


@pytest.mark.parametrize("t_lo,t_hi", [(1.0, math.nextafter(1.0, 2.0)), (0.0, 5e-324)])
def test_interval_without_grid_nodes_is_a_parameter_error(t_lo, t_hi):
    for policy in ("log", "uniform"):
        with pytest.raises(ParameterError, match=rf"no {policy} grid node lies inside "
                                                 rf"\({t_lo!r}, {t_hi!r}\)"):
            certification_grid(t_lo, t_hi, policy=policy)
    spec = RiccatiPairSpec(geo=E3, t_lo=t_lo, t_hi=t_hi, w=parse("1"), L=parse("2/t"),
                           W=parse("1/(4*t^2)"))
    with pytest.raises(ParameterError, match="no log grid node"):
        certify(spec, parse("1/(2*t)"))


@pytest.mark.parametrize("G", ["1e200*t", "1e200 + 0*t"])
def test_convex_term_overflow_is_inconclusive(G):
    spec, G = _spec(), parse(G)
    rep = certify(spec, G)
    assert (rep.verdict, rep.witness_t) == ("inconclusive", 2e-12)
    assert rep.reason == "evaluation failed at t=2e-12: the residual overflows a float"
    for terms in (residual_parts, residual):
        with pytest.raises(DomainError, match="the residual overflows a float"):
            terms(spec, G, 1.0)


def test_hint_scale_overflow_is_inconclusive(tmp_path):
    text = """
[geometry]
kappa = 0
n = 3
p = 2

[interval]
lo = 0
hi = 1e300

[expressions]
w = 1
L = 2/t
W = 1/(4*t^2)
G = 1/(2*t)

[flags]
homogeneity_hint = -2
"""
    spec, G = parse_config(text)
    rep = certify(spec, G)
    assert (rep.verdict, rep.witness_t) == ("inconclusive", rep.grid[0])
    assert rep.reason == (f"evaluation failed at t={rep.grid[0]!r}: "
                          "the residual overflows a float")
    assert residual(spec, G, 1.0) == 0.0  # the terms themselves are finite
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text)
    assert main(["certify", "--spec", str(cfg)]) == 3


def test_greene_wu_psi_evaluates_psi_three_times_per_node(monkeypatch):
    # G, L and W share psi, psi' and the psi'' stencil at t (3 evaluations)
    source = "s(t)"
    count = [0]
    compiled = ScalarExpr._compiled

    def counted(self, binding, mode):
        fn = compiled(self, binding, mode)
        if self.source != source:
            return fn

        def evaluate(t):
            count[0] += 1
            return fn(t)

        return evaluate

    monkeypatch.setattr(ScalarExpr, "_compiled", counted)
    inst = instantiate("greene_wu_psi", ModelGeometry(-1.0, 3, 2.0),
                       {"psi": source, "t_hi": 50.0})
    count[0] = 0
    rep = certify(inst.spec, inst.G, n_points=512)
    assert rep.verdict == "certified"
    assert len(rep.grid) == 528
    assert count[0] == 3 * 528
