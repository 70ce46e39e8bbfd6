"""certify and solve_ivp against their per-point reference forms.

certify resolves the evaluators of G, w, L and W once per call; the
reference (oracles.reference_certify) calls each object's eval/eval_d at
every grid point.  The two reports must be repr-equal, failing and
inconclusive ones included, and solve_ivp's trajectories must be those of
the right-hand side written through eval/eval_d.
"""

import math

import pytest

from hardykit.catalog import instantiate
from hardykit.exprdsl import parse
from hardykit.geometry import ModelGeometry
from hardykit.riccati import (FuncEval, RiccatiPairSpec, bessel_to_riccati, certify,
                              riccati_to_bessel, solve_ivp)
from hardykit.rk45 import integrate_to_samples
from oracles import reference_certify, reference_riccati_rhs

E3 = ModelGeometry(0.0, 3, 2.0)
E4 = ModelGeometry(0.0, 4, 2.0)
H2 = ModelGeometry(-1.0, 2, 2.0)
H3 = ModelGeometry(-1.0, 3, 2.0)
H4 = ModelGeometry(-1.0, 4, 2.0)

# one instance of every catalog entry
ENTRY_CASES = [
    ("caccioppoli", ModelGeometry(0.0, 2, 3.0), {"alpha": -1.5, "R": 2.0}),
    ("caccioppoli_improved", ModelGeometry(0.0, 3, 1.5), {"R": 2.0}),
    ("hardy", ModelGeometry(-1.0, 4, 2.5), {"alpha": 1.0, "C": 3.0}),
    ("hardy_log", ModelGeometry(0.0, 4, 3.0), {"alpha": 1.2}),
    ("acr", H4, {"D": 2.5}),
    ("brezis_vazquez", H4, {"nu": 0.7, "D": 2.0}),
    ("faber_krahn", E4, {"R": 3.0}),
    ("mckean", ModelGeometry(-2.0, 4, 3.0), {}),
    ("mckean_improved", H3, {}),
    ("interpolation", H4, {"lam": 2.0}),
    ("akutagawa_kumura", ModelGeometry(-1.5, 2, 2.0), {"R": 0.5}),
    ("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": 50.0}),
    ("ghoussoub_moradifam", ModelGeometry(0.0, 5, 2.0),
     {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4}),
    ("carvalho_cavalcante", H2, {"a": 1.0, "b": 2.0}),
]


def _spec(w="1", L="2/t", W="1/(4*t^2)", t_hi=2.0, **kw):
    return RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=t_hi, w=parse(w), L=parse(L), W=parse(W),
                           **kw)


# (spec, G, expected verdict, a fragment of the reason)
CANDIDATES = {
    # the errors arise past t = 1.5, halfway along the grid
    "G-error": (_spec(), parse("1/(2*t) + 0*log(1.5 - t)"), "inconclusive",
                "log of nonpositive"),
    "w-error": (_spec(w="1 + 0*sqrt(1.5 - t)"), parse("1/(2*t)"), "inconclusive", "sqrt"),
    "L-error": (_spec(L="2/t + 0*log(1.5 - t)"), parse("1/(2*t)"), "inconclusive", "log"),
    "W-error": (_spec(W="1/(4*t^2) + 0*log(1.5 - t)"), parse("1/(2*t)"), "inconclusive",
                "log"),
    # at one t, the first of G, w, L and W to fail is reported
    "G-and-w-error": (_spec(w="1 + 0*sqrt(1.5 - t)"), parse("1/(2*t) + 0*log(1.5 - t)"),
                      "inconclusive", "log"),
    "L-and-W-error": (_spec(L="2/t + 0*log(1.5 - t)", W="1/(4*t^2) + 0*sqrt(1.5 - t)"),
                      parse("1/(2*t)"), "inconclusive", "log"),
    # w <= 0 is reported before L is evaluated
    "w-nonpositive-and-L-error": (_spec(w="1.5 - t", L="2/t + 0*log(1.5 - t)"),
                                  parse("1/(2*t)"), "inconclusive", "weight w("),
    "W-nonpositive": (_spec(W="1/(4*t^2) - 1"), parse("1/(2*t)"), "inconclusive",
                      "target W("),
    # exp saturates to inf past t = 0.709...
    "non-finite": (_spec(W="1/(4*t^2) + exp(1000*t)"), parse("1/(2*t)"), "inconclusive",
                   "non-finite residual"),
    "residual-below-tol": (_spec(t_hi=math.inf, homogeneity_hint=-2.0), parse("1.5/(2*t)"),
                           "failed", "below -tol"),
    "sign-plus": (_spec(L="0", t_hi=1.0, homogeneity_hint=-2.0), parse("-1/(2*t)"),
                  "failed", "min G"),
    "sign-minus": (_spec(t_hi=math.inf, g_sign_required=-1, homogeneity_hint=-2.0),
                   parse("1/(2*t)"), "failed", "max G"),
    "unbound-G": (_spec(), parse("c/t"), "inconclusive", "'c'"),
    "unbound-W": (_spec(W="c/t^2"), parse("1/(2*t)"), "inconclusive", "'c'"),
    "no-derivative": (_spec(), FuncEval(lambda t: 0.5 / t, name="half"), "inconclusive",
                      "no derivative"),
    "comparison-L": (RiccatiPairSpec(geo=H2, t_lo=0.0, t_hi=math.inf, w=parse("1"),
                                     L=parse("(n-1)*sqrt(-kappa)"),
                                     W=parse("0.25 + 0*t")),
                     parse("0.5 + 0*t"), "certified", ""),
}


def _same(spec, G, **kw):
    rep = certify(spec, G, **kw)
    assert repr(rep) == repr(reference_certify(spec, G, **kw))
    return rep


@pytest.mark.parametrize("name,geo,params", ENTRY_CASES, ids=[c[0] for c in ENTRY_CASES])
def test_catalog_entries_match_reference(name, geo, params):
    inst = instantiate(name, geo, params)
    for policy in ("log", "uniform"):
        for n in (256, 1024):
            rep = _same(inst.spec, inst.G, grid_policy=policy, n_points=n)
            assert rep.verdict == "certified"


def test_entries_with_homogeneity_hint_are_covered():
    hinted = [name for name, geo, params in ENTRY_CASES
              if instantiate(name, geo, params).spec.homogeneity_hint is not None]
    assert "hardy" in hinted and "caccioppoli" in hinted


@pytest.mark.parametrize("case", sorted(CANDIDATES))
def test_failing_and_inconclusive_candidates_match_reference(case):
    spec, G, verdict, fragment = CANDIDATES[case]
    rep = _same(spec, G)
    assert rep.verdict == verdict
    assert fragment in rep.reason


def test_profile_candidates_match_reference():
    spec = _spec(t_hi=math.inf, homogeneity_hint=-2.0)
    _same(spec, bessel_to_riccati(parse("t^(-0.5)"), 2.0), n_points=128)
    y = riccati_to_bessel(parse("1/(2*t)"), 2.0, 1.0)
    _same(spec, bessel_to_riccati(y, 2.0), n_points=64)


def test_power_overflow_is_inconclusive_as_in_reference():
    # (p-1)|G|^p' overflows a float at the first grid point
    spec, G = _spec(), parse("1e200 + t")
    rep = _same(spec, G)
    assert rep.verdict == "inconclusive" and rep.witness_t == rep.grid[0]
    assert rep.reason.endswith("the residual overflows a float")


ODE_CASES = [c for c in ENTRY_CASES if c[0] not in
             ("caccioppoli", "caccioppoli_improved", "greene_wu_psi")]


@pytest.mark.parametrize("name,geo,params", ODE_CASES, ids=[c[0] for c in ODE_CASES])
def test_solve_ivp_matches_reference_rhs(name, geo, params):
    inst = instantiate(name, geo, params)
    spec = inst.spec
    lo, hi = spec.t_lo, spec.t_hi
    a, b = (lo + 1.0, lo + 4.0) if math.isinf(hi) else (lo + 0.25 * (hi - lo),
                                                         lo + 0.85 * (hi - lo))
    t0 = 0.5 * (a + b)
    g0 = inst.G.eval(t0, spec.binding())
    fwd = [t0 + (b - t0) * (i + 1) / 8.0 for i in range(8)]
    bwd = [a + (t0 - a) * i / 8.0 for i in range(8)]
    for direction, samples in (("forward", fwd), ("backward", bwd)):
        traj = solve_ivp(spec, t0, g0, direction, samples)
        ordered = sorted(samples, reverse=(direction == "backward"))
        ref = integrate_to_samples(reference_riccati_rhs(spec), t0, g0, ordered)
        ts, gs = (ref.ts, ref.ys) if direction == "forward" else (ref.ts[::-1], ref.ys[::-1])
        assert (traj.ts, traj.gs, traj.blew_up, traj.blow_up_t, traj.reason) == \
            (ts, gs, ref.blew_up, ref.blow_up_t, ref.reason)
        assert len(traj.ts) == 8


def test_solve_ivp_blow_up_matches_reference_rhs():
    spec = RiccatiPairSpec(geo=ModelGeometry(0.0, 2, 2.0), t_lo=0.0, t_hi=1.5, w=parse("1"),
                           L=parse("1/t"), W=parse("7 + 0*t"))
    samples = [0.1 + i * 0.9 / 63 for i in range(64)]
    traj = solve_ivp(spec, 0.1, 0.3, "forward", samples)
    ref = integrate_to_samples(reference_riccati_rhs(spec), 0.1, 0.3, samples)
    assert traj.blew_up
    assert (traj.ts, traj.gs, traj.blow_up_t, traj.reason) == \
        (ref.ts, ref.ys, ref.blow_up_t, ref.reason)
