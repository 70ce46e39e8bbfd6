"""Print a digest of hardykit's numeric outputs for a bitwise comparison.

Run it in two checkouts and diff the two outputs; a refactor that promises
identical results must leave the digest unchanged:

    PYTHONPATH=src python tools/digest_outputs.py > digest.txt

Covered: the residual list of ``certify`` for two instances of every
catalog entry (log and uniform grids, 512 and 1024 points);
``radial_integral`` with and without a singular hint; additive,
multiplicative (also with an H expression; Ghoussoub-Moradifam on a flat
and a hyperbolic geometry), uncertainty,
interpolation-exponent and oscillatory margins on seeded families;
hardy sharpness sweeps from sigma = 0.5 to 3 and the up and ckn sweeps,
and extremal-identity checks; value and derivative of 2000 seeded random
expressions, with the type and message of every error raised; exit code,
stdout, stderr and file artifacts of every command in the README, of
``catalog list`` and of generic ``verify`` on three emitted specs;
``spectral_lambda1`` (extrapolated, raw and
coarse eigenvalue) on 32 balls, ``bessel_zero`` on a (nu, k) grid,
``bessel_j`` at x > 10 (x < nu included),
``hyp2f1`` on both sides of
|z| = 40, integer b - a included, and ``hyp2f1`` and dF/dz
(``hyp2f1_with_dz``, labelled ``hyp2f1_dz``) on both sides of |z| = 3 for
non-integer and near-integer b - a; then a 2000-term sum and an
overflowing literal; last, additive and multiplicative margins of the
radial entries the margin section leaves out, so that all 12 radial
entries are covered; then ``certify`` on failing and inconclusive
candidates (an evaluation error in each of G, w, L and W, w <= 0 beside an
error in L, W <= 0, a non-finite residual, a residual below -tol, both sign
conditions, unbound parameters, a power overflow) with each report's
reason, witness and max |residual|; then forward and backward
``solve_ivp`` trajectories for every radial entry a config file can hold,
and one that blows up; last, ``hyp2f1ratio`` and ``hyp2f1ratio_with_dz``
on Ghoussoub-Moradifam-shaped parameters on every branch of ``hyp2f1``;
last, ``bessel_j`` and ``bessel_ratio`` at x <= 10 for eight orders, the
ratio on mpmath where the first zero lies above 10, and
points where a J is subnormal or zero; last, ``hyp2f1`` and
``hyp2f1ratio_with_dz`` for b - a within 1e-3 of an integer and -z in
{50, 1e4, 1e8} on the float limit of the 1/z formula, and one point it leaves
to mpmath; last, ``bessel_j`` and J' at j_(0,3) and on both sides of the
tiny-x guard of the recurrence.  Floats are printed with ``repr``; long
lists are hashed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys
import tempfile

from hardykit import cli
from hardykit.catalog import instantiate
from hardykit.exprdsl import parse
from hardykit.geometry import ModelGeometry
from hardykit.riccati import FuncEval, RiccatiPairSpec, certify, solve_ivp
from hardykit.specfun import (_bessel_j_with_dx, bessel_j, bessel_ratio, bessel_zero, hyp2f1,
                              hyp2f1_with_dz, hyp2f1ratio, hyp2f1ratio_with_dz)
from hardykit.spectral import spectral_lambda1
from hardykit.testfuncs import gaussian_type, random_bumps, talenti
from hardykit.verifier import (additive_margin, ckn_margin, extremal_identity_check,
                               multiplicative_margin, radial_integral, sc_margin,
                               sharpness_sweep, up_margin)

E3 = ModelGeometry(0.0, 3, 2.0)
E4 = ModelGeometry(0.0, 4, 2.0)
H2 = ModelGeometry(-1.0, 2, 2.0)
H3 = ModelGeometry(-1.0, 3, 2.0)
H4 = ModelGeometry(-1.0, 4, 2.0)

CATALOG_CASES = [
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
    ("greene_wu_psi", E4, {"psi": "t + 0.1*t^3", "t_hi": 10.0}),
    ("ghoussoub_moradifam", E4, {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3}),
    ("ghoussoub_moradifam", ModelGeometry(0.0, 5, 2.0),
     {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4}),
    ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.5), {"a": 1.3, "b": 0.8}),
    ("carvalho_cavalcante", H2, {"a": 1.0, "b": 2.0}),
]

README_COMMANDS = [
    "certify --catalog hardy --params n=3,p=2,alpha=0,C=2",
    "catalog show brezis_vazquez --params n=3,p=2,nu=0,D=1 > bv.cfg",
    "certify --spec bv.cfg --grid log --points 512 --tol 1e-8",
    "solve-riccati --spec bv.cfg --t0 0.5 --g0 1.2 --samples 0.05 0.95 40",
    "verify --inequality up --params kappa=0,n=3,p=2,alpha=1 --out up.json",
    "verify --inequality mckean --params kappa=-1,n=2,p=2 --family bumps:count=20,seed=7",
    "sweep --inequality hardy --params kappa=0,n=3,p=2,alpha=0 --out sweep.json",
    "spectrum --kappa 0 --n 2 --R 1 --N 4000",
    "bessel-zeros --nu 0 --count 5",
    "gm-positivity --out gm.csv",
    # the remaining default-family and JSON paths of verify/sweep/certify
    "verify --inequality ckn --params kappa=-1,n=3,p=2,alpha=1,r=3 --out ckn.json",
    "verify --inequality hardy --params n=3,p=2,alpha=0,C=2 --out hardy.json",
    "sweep --inequality up --params kappa=-1,n=3,p=2,alpha=1 --out sweep_up.json",
    "sweep --inequality ckn --params kappa=0,n=3,p=2,alpha=1,r=3 --out sweep_ckn.json",
    "certify --catalog mckean --params kappa=-1,n=2,p=2 --json mckean.json",
]

# generic verify on a w = 1 spec, a weighted spec and a boundary-distance spec
SPEC_COMMANDS = [
    "catalog list",
    "catalog show mckean --params kappa=-1,n=2,p=2 > mckean.cfg",
    "verify --inequality generic --spec mckean.cfg --out mckean_generic.json",
    "verify --inequality generic --spec mckean.cfg --H s^2/2+s^4 --family bumps:count=5,seed=3",
    "catalog show hardy --params n=3,p=2,alpha=1.5 > hardy.cfg",
    "verify --inequality generic --spec hardy.cfg --out hardy_generic.json",
    "verify --inequality hardy --params n=3,p=2,alpha=1.5 --out hardy_catalog.json",
    "catalog show caccioppoli --params n=3,p=2 > cacc.cfg",
    "verify --inequality generic --spec cacc.cfg --out cacc_generic.json",
]


def _h(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def hyp2f1_dz(a: float, b: float, c: float, z: float) -> float:
    """dF/dz, under the name its digest lines have always carried."""
    return hyp2f1_with_dz(a, b, c, z)[1]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the digest records every error as data
        return f"{type(exc).__name__}: {exc}"


def digest_certify():
    for name, geo, params in CATALOG_CASES:
        inst = instantiate(name, geo, params)
        for grid in ("log", "uniform"):
            for n in (512, 1024):
                rep = _outcome(certify, inst.spec, inst.G, grid_policy=grid, n_points=n)
                if isinstance(rep, str):
                    print("certify", name, grid, n, rep)
                    continue
                print("certify", name, grid, n, rep.verdict, repr(rep.min_residual),
                      repr(rep.argmin_t), repr(rep.min_G), repr(rep.max_G),
                      _h(rep.grid), _h(rep.residuals))


def _margin_line(label, m):
    if isinstance(m, str):
        return f"{label} {m}"
    extras = sorted((k, repr(v)) for k, v in m.extras.items())
    return (f"{label} {m.lhs!r} {m.rhs!r} {m.margin!r} {m.quadrature_error_estimate!r} "
            f"{extras}")


def digest_catalog_margins(name, geo, params, seed):
    inst = instantiate(name, geo, params)
    hi = inst.spec.t_hi
    fam = random_bumps(6, seed=seed, lo=inst.spec.t_lo, hi=hi,
                       span=min(10.0, hi - inst.spec.t_lo) if math.isfinite(hi) else 10.0)
    for i, u in enumerate(fam):
        print(_margin_line(f"additive {name} {i}", _outcome(additive_margin, None, inst, u)))
        print(_margin_line(f"multiplicative {name} {i}",
                           _outcome(multiplicative_margin, None, inst, u)))


def digest_margins():
    for geo, label, f, R, hint in ((E3, "t", lambda t: t, 1.0, None),
                                   (H2, "cos", math.cos, 1.5, None),
                                   (E3, "t^-0.5", lambda t: t**-0.5, 1.0, -0.5),
                                   (H3, "t^-0.9", lambda t: t**-0.9, 2.0, -0.9)):
        print("radial_integral", geo, label, R, hint,
              _outcome(radial_integral, geo, f, R, singular_exponent_hint=hint))
    for name, geo, params, seed in (("hardy", E3, {"alpha": 0.0, "C": 2.0}, 3),
                                    ("mckean", H2, {}, 5),
                                    ("interpolation", H3, {"lam": 1.0}, 11),
                                    ("acr", E3, {"D": 1.0}, 13),
                                    ("ghoussoub_moradifam", E4,
                                     {"a": 1.0, "b": 1.0, "alpha": 0.5, "beta": 0.5, "m": 0.3}, 19),
                                    ("ghoussoub_moradifam", ModelGeometry(-1.0, 5, 2.0),
                                     {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4},
                                     23)):
        digest_catalog_margins(name, geo, params, seed)
    G = parse("(n-2)/2/t")
    H = parse("s^2/2 + s^4", var="s")
    for i, u in enumerate(random_bumps(4, seed=17)):
        print(_margin_line(f"additive-generic {i}",
                           _outcome(additive_margin, E3, G, u, H=H, binding={"n": 3.0})))
        print(_margin_line(f"multiplicative-generic {i}",
                           _outcome(multiplicative_margin, E3, G, u, H=H, binding={"n": 3.0})))
    for geo in (E3, H3, ModelGeometry(-0.5, 4, 2.5)):
        for alpha in (1.0, 0.3, -0.4):
            for lam in (0.5, 1.0, 2.0, 4.0):
                u = gaussian_type(alpha, geo.p, scale=lam)
                print(_margin_line(f"up {geo} {alpha} {lam}", _outcome(up_margin, geo, u, alpha)))
                for r in (3.0, 2.6):
                    u = talenti(alpha, geo.p, r, scale=lam)
                    print(_margin_line(f"ckn {geo} {alpha} {r} {lam}",
                                       _outcome(ckn_margin, geo, u, alpha, r)))
    for c in (0.0, 1.0, -1.0):
        u = gaussian_type(1.0, 2.0, scale=1.5)
        print(_margin_line(f"sc {c}", _outcome(sc_margin, H3, u, c)))
    for geo, alpha in ((E3, 1.0), (H3, 1.0), (E4, 0.5)):
        res = _outcome(extremal_identity_check, geo, alpha)
        print("extremal", geo, alpha, res)


def digest_sweeps():
    up_h3 = [gaussian_type(0.5, H3.p, scale=lam) for lam in (0.7, 1.3)]
    for mode, geo, params, family in (("hardy", E3, {"alpha": 0.0}, None),
                                      ("hardy", ModelGeometry(-1.0, 4, 2.5), {"alpha": 0.5}, None),
                                      ("hardy", E3, {"alpha": 2.0}, None),  # sigma = 1.5
                                      ("hardy", ModelGeometry(0.0, 8, 2.0), {"alpha": 0.0}, None),
                                      ("hardy", ModelGeometry(0.0, 4, 3.0), {"alpha": 0.5}, None),
                                      ("up", E3, {"alpha": 1.0}, None),
                                      ("up", H3, {"alpha": 0.5}, up_h3),
                                      ("ckn", E3, {"alpha": 1.0, "r": 3.0}, None),
                                      ("ckn", H4, {"alpha": 0.8, "r": 2.5}, None)):
        sw = _outcome(sharpness_sweep, mode, geo, params, family)
        if isinstance(sw, str):
            print("sweep", mode, geo, sw)
            continue
        print("sweep", mode, geo, repr(sw.sharp_constant), repr(sw.achieved_extremum),
              repr(sw.min_margin))
        for r in sw.rows:
            print("  row", repr(r.family_param), repr(r.lhs), repr(r.rhs), repr(r.margin),
                  repr(r.quad_error), repr(r.ratio), r.note)


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        return rng.choice(["t", "t", "a", "b", "q", f"{rng.uniform(-1.0, 2.5):.4f}"])
    kind = rng.randrange(10)
    if kind < 4:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if kind == 4:
        return f"-{_random_expr(rng, depth - 1)}"
    if kind < 8:
        fn = rng.choice(["exp", "log", "sinh", "cosh", "coth", "sqrt", "abs", "sin", "cos",
                         "tanh", "ct", "s", "D", "gamma"])
        return f"{fn}({_random_expr(rng, depth - 1)})"
    if kind == 8:
        return f"besselj({rng.choice(['0', '1', '2.5', 't'])}, {_random_expr(rng, depth - 1)})"
    return rng.choice([f"besselratio(1, {_random_expr(rng, depth - 1)})",
                       f"hyp2f1(0.5, 1, 1.5, -{_random_expr(rng, depth - 1)})",
                       f"pow({_random_expr(rng, depth - 1)}, {_random_expr(rng, depth - 1)})"])


def digest_expressions():
    rng = random.Random(4242)
    bindings = ({"a": 1.3, "b": 0.6, "q": -0.7, "kappa": -1.0},
                {"a": 2.0, "b": -0.5, "q": 0.0, "kappa": 0.0},
                {"a": 1.3, "b": 0.6})
    lines = []
    for _ in range(2000):
        src = _random_expr(rng, rng.choice([1, 2, 3, 4]))
        e = parse(src)
        for binding in bindings:
            for t in (rng.uniform(-1.0, 3.0), 0.0, 1.0):
                lines.append(f"{src} {t!r} {_outcome(e.eval, t, binding)!r} "
                             f"{_outcome(e.eval_d, t, binding)!r}")
    errors = [ln for ln in lines if "Error:" in ln]
    print("expressions", len(lines), "lines", len(errors), "with errors", _h(lines))
    for ln in errors[:: max(1, len(errors) // 60)]:
        print("  ", ln)
    for src, t, binding in (("1 + log(1 - t)", 2.0, None), ("a*t", 1.0, {}),
                            ("1/(t-1)", 1.0, None), ("ct(t)", 1.0, {}),
                            ("exp(t) + s(t)", 1.0, None), ("gamma(t)", 2.5, None),
                            ("besselj(t, 1)", 0.5, None), ("(t^0.5)*2", -1.0, None),
                            ("sqrt(t)", 0.0, None), ("besselratio(0, t)", 3.0, None)):
        e = parse(src)
        print("error-case", src, _outcome(e.eval, t, binding), "|",
              _outcome(e.eval_d, t, binding))


def digest_commands(commands):
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for line in commands:
                argv, _, redirect = line.partition(" > ")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv.split())
                if redirect:
                    with open(redirect, "w") as fh:
                        fh.write(out.getvalue())
                print("command", line, "rc", rc)
                print("  stdout", hashlib.sha256(out.getvalue().encode()).hexdigest()[:16],
                      out.getvalue().splitlines()[:1])
                print("  stderr", err.getvalue().strip())
                for name in sorted(os.listdir(tmp)):
                    with open(name, "rb") as fh:
                        data = fh.read()
                    print("  file", name, hashlib.sha256(data).hexdigest()[:16], len(data))
        finally:
            os.chdir(cwd)


def _spectral_cases():
    """Six fixed balls (at kappa = -2, n = 4, R = 20, N = 8000 the Gershgorin
    bound caps the bisection), 22 seeded draws over the benchmark's box
    (flat R in [0.5, 3] or hyperbolic -kappa in [0.25, 2] and R in [0.5, 20],
    n = 2..4, N log-uniform in [400, 8000]), the ball where the Sturm
    count turns 1.8e-11 relative away from the pencil's exact eigenvalue,
    and three at small N: two stiff hyperbolic balls where the small
    pencil's estimate lies above the N/2 eigenvalue, so that Newton starts
    again from 0, and a flat n = 9 ball."""
    cases = [(0.0, 2, 1.0, 4000), (-1.0, 2, 40.0, 8000), (0.0, 3, 2.0, 800),
             (-1.0, 3, 20.0, 4000), (-0.5, 4, 5.0, 1200), (-2.0, 4, 20.0, 8000)]
    rng = random.Random(2020)
    for i in range(22):
        kappa = 0.0 if i % 2 == 0 else -(0.25 + 1.75 * rng.random())
        R = 0.5 + (2.5 if kappa == 0.0 else 19.5) * rng.random()
        cases.append((kappa, 2 + i // 2 % 3, R, round(400.0 * 20.0 ** rng.random())))
    return cases + [(0.0, 2, 2.98, 4693), (-2.92, 8, 28.8, 201), (-0.91, 7, 14.0, 200),
                    (0.0, 9, 1.2, 201)]


def digest_constants():
    for kappa, n, R, N in _spectral_cases():
        res = spectral_lambda1(ModelGeometry(kappa, n, 2.0), R, N)
        print("spectral", kappa, n, R, N, repr(res.lambda1), repr(res.lambda1_raw),
              repr(res.lambda1_coarse))
    for nu in (0.0, 0.5, 1.0, 2.5, 8.0, 17.5, 25.0, 42.0, 50.0):
        print("bessel_zero", nu, [repr(bessel_zero(nu, k)) for k in (1, 2, 3, 5, 10, 20)])
    for nu in (0.0, 0.5, 1.0, 7.3, 25.0, 50.0):
        print("bessel_j", nu, [repr(bessel_j(nu, x)) for x in (10.5, 37.0, 99.9, 150.0, 200.0)])
    # where x < nu, and J falls monotonically toward x = 10
    print("bessel_j monotone", [repr(bessel_j(nu, x)) for nu, x in
                                ((50.0, 20.0), (50.0, 10.5), (33.0, 25.0), (17.5, 12.0))])
    for a, b, c in ((1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 2.0), (2.7, 5.7, 0.3),
                    (0.3, 1.7, 1.0), (0.25, 1.85, 1.3), (-2.0, 1.4, 2.2)):
        print("hyp2f1", a, b, c, [repr(_outcome(hyp2f1, a, b, c, z))
                                  for z in (-0.5, -30.0, -41.0, -1e3, -1e5)])
    # the 1/z formula's range below |z| = 40, then gaps 2e-8 to 5e-4 from an
    # integer, where that formula's Gamma coefficients cancel
    for a, b, c in ((0.3, 1.7, 1.0), (0.25, 1.85, 1.3), (-0.4, 1.1, 2.0), (-0.9, 1.4, 1.0),
                    (0.6, 2.1, 2.0), (1.6, 3.1, 3.0)):
        for f in (hyp2f1, hyp2f1_dz):
            print(f.__name__, a, b, c, [repr(_outcome(f, a, b, c, z))
                                        for z in (-2.0, -3.5, -10.0, -39.0)])
    for a, b, c in ((1.0, 3.0 + 2e-8, 1.0), (0.5, 1.5 + 1e-6, 2.0), (0.25, 1.25 + 1e-4, 1.3),
                    (-0.5, 1.5 - 5e-4, 1.0)):
        for f in (hyp2f1, hyp2f1_dz):
            print(f.__name__, a, b, c, [repr(_outcome(f, a, b, c, z))
                                        for z in (-2.0, -3.5, -10.0, -39.0, -50.0, -1e3, -1e5)])


def digest_long_and_overflowing_expressions():
    # appended after the lines above, which stay as they were
    long_sum = parse(" + ".join(["t"] * 2000))
    print("sum of 2000 t", repr(long_sum.eval(1.0)), repr(long_sum.eval_d(1.0)))
    print("literal 1e999", _outcome(parse, "1e999*t + 2"))


def digest_more_catalog_margins():
    # appended after the lines above: the radial entries the margin section
    # leaves out, so that every radial entry has margin lines
    for name, geo, params, seed in (
            ("greene_wu_psi", H3, {"psi": "s(t)", "t_hi": 50.0}, 29),
            ("greene_wu_psi", E4, {"psi": "t + 0.1*t^3", "t_hi": 10.0}, 31),
            ("brezis_vazquez", H4, {"nu": 0.7, "D": 2.0}, 37),
            ("faber_krahn", E4, {"R": 3.0}, 41),
            ("hardy_log", ModelGeometry(0.0, 4, 3.0), {"alpha": 1.2}, 43),
            ("mckean_improved", H3, {}, 47),
            ("akutagawa_kumura", ModelGeometry(-1.5, 2, 2.0), {"R": 0.5}, 53),
            ("carvalho_cavalcante", ModelGeometry(0.0, 3, 2.5), {"a": 1.3, "b": 0.8}, 59)):
        digest_catalog_margins(name, geo, params, seed)


def _pair(w="1", L="2/t", W="1/(4*t^2)", t_hi=2.0, **kw):
    return RiccatiPairSpec(geo=E3, t_lo=0.0, t_hi=t_hi, w=parse(w), L=parse(L), W=parse(W),
                           **kw)


def digest_certify_failures():
    # appended after the lines above: reports that are not "certified"
    for label, spec, G in (
            ("G-error", _pair(), parse("1/(2*t) + 0*log(1.5 - t)")),
            ("w-error", _pair(w="1 + 0*sqrt(1.5 - t)"), parse("1/(2*t)")),
            ("L-error", _pair(L="2/t + 0*log(1.5 - t)"), parse("1/(2*t)")),
            ("W-error", _pair(W="1/(4*t^2) + 0*log(1.5 - t)"), parse("1/(2*t)")),
            ("G-and-w-error", _pair(w="1 + 0*sqrt(1.5 - t)"),
             parse("1/(2*t) + 0*log(1.5 - t)")),
            ("L-and-W-error", _pair(L="2/t + 0*log(1.5 - t)",
                                    W="1/(4*t^2) + 0*sqrt(1.5 - t)"), parse("1/(2*t)")),
            ("w-nonpositive-and-L-error", _pair(w="1.5 - t", L="2/t + 0*log(1.5 - t)"),
             parse("1/(2*t)")),
            ("first-point-error", _pair(), parse("log(t - 1)")),
            ("W-nonpositive", _pair(W="1/(4*t^2) - 1"), parse("1/(2*t)")),
            ("non-finite", _pair(W="1/(4*t^2) + exp(1000*t)"), parse("1/(2*t)")),
            ("below-tol", _pair(t_hi=math.inf, homogeneity_hint=-2.0), parse("1.5/(2*t)")),
            ("below-tol-unhinted", _pair(), parse("1.5/(2*t)")),
            ("sign-plus", _pair(L="0", t_hi=1.0, homogeneity_hint=-2.0), parse("-1/(2*t)")),
            ("sign-minus", _pair(t_hi=math.inf, g_sign_required=-1, homogeneity_hint=-2.0),
             parse("1/(2*t)")),
            ("unbound-G", _pair(), parse("c/t")),
            ("unbound-L", _pair(L="c/t"), parse("1/(2*t)")),
            ("no-derivative", _pair(), FuncEval(lambda t: 0.5 / t, name="half")),
            ("power-overflow", _pair(), parse("1e200 + t"))):
        for grid in ("log", "uniform"):
            rep = _outcome(certify, spec, G, grid_policy=grid, n_points=256)
            if isinstance(rep, str):
                print("certify-failure", label, grid, rep)
                continue
            print("certify-failure", label, grid, rep.verdict, repr(rep.reason),
                  repr(rep.witness_t), repr(rep.max_abs_residual), repr(rep.min_residual),
                  repr(rep.argmin_t), repr(rep.min_G), repr(rep.max_G), len(rep.residuals),
                  _h(rep.residuals))


def digest_trajectories():
    # appended after the lines above: the equality ODE from a point of G,
    # both ways, on the interior window the perfbench solves use
    for name, geo, params in CATALOG_CASES:
        if name.startswith("caccioppoli") or name == "greene_wu_psi":
            continue
        inst = instantiate(name, geo, params)
        lo, hi = inst.spec.t_lo, inst.spec.t_hi
        a, b = (lo + 1.0, lo + 4.0) if math.isinf(hi) else (lo + 0.25 * (hi - lo),
                                                             lo + 0.85 * (hi - lo))
        t0 = a + 0.4 * (b - a)
        g0 = inst.G.eval(t0, inst.spec.binding())
        for direction, samples in (("forward", [t0 + (b - t0) * (i + 1) / 8.0 for i in range(8)]),
                                   ("backward", [a + (t0 - a) * i / 8.0 for i in range(8)])):
            tr = _outcome(solve_ivp, inst.spec, t0, g0, direction, samples)
            if isinstance(tr, str):
                print("trajectory", name, geo, direction, tr)
                continue
            print("trajectory", name, geo, direction, len(tr.ts), tr.blew_up,
                  repr(tr.blow_up_t), repr(tr.reason), [repr(g) for g in tr.gs])
    spec = RiccatiPairSpec(geo=ModelGeometry(0.0, 2, 2.0), t_lo=0.0, t_hi=1.5, w=parse("1"),
                           L=parse("1/t"), W=parse("7 + 0*t"))
    tr = solve_ivp(spec, 0.1, 0.3, "forward", [0.1 + i * 0.9 / 63 for i in range(64)])
    print("trajectory blow-up", len(tr.ts), tr.blew_up, repr(tr.blow_up_t), repr(tr.reason),
          _h(tr.ts), _h(tr.gs))


def digest_hyp2f1ratio():
    # appended after the lines above: the contiguous ratio and its derivative
    # on Ghoussoub-Moradifam-shaped parameters a = A - B, b = A + B, c = 1:
    # the mapped series up to -z = 3 and the 1/z formula beyond; b - a near
    # an integer on the mapped series up to -z = 40 and mpmath beyond; then
    # a b = 0, where the denominator is 1, and a zero denominator
    for a, b, c in ((-0.25, 1.05, 1.0), (0.65, 1.35, 1.0), (-1.1, 1.7, 1.0),
                    (-0.5 - 5e-5, 0.5 + 5e-5, 1.0), (-0.2 - 1e-6, 1.8 + 1e-6, 1.0),
                    (0.0, 1.3, 1.0)):
        for f in (hyp2f1ratio, hyp2f1ratio_with_dz):
            print(f.__name__, a, b, c, [repr(_outcome(f, a, b, c, z)) for z in
                                        (0.0, -1e-3, -0.5, -2.0, -3.5, -10.0, -39.0, -50.0,
                                         -1e3, -1e5)])
    print("hyp2f1ratio -1 -1 2", [_outcome(f, -1.0, -1.0, 2.0, -2.0)
                                  for f in (hyp2f1ratio, hyp2f1ratio_with_dz)])


def digest_bessel_ratio():
    # appended after the lines above: bessel_j and bessel_ratio at x <= 10
    # and, for orders whose first zero lies above 10, the ratio on mpmath;
    # then points where a J is subnormal or zero
    for nu in (0.0, 0.5, 1.0, 2.5, 7.3, 17.5, 33.0, 50.0):
        print("bessel_j", nu, [repr(bessel_j(nu, x)) for x in (1e-3, 0.5, 2.0, 5.3, 8.65, 10.0)])
        j1 = bessel_zero(nu, 1)
        print("bessel_ratio", nu, [repr(_outcome(bessel_ratio, nu, f * min(j1, 10.0)))
                                   for f in (1e-3, 0.1, 0.37, 0.5, 0.83, 0.99, 1.0)]
              + [repr(_outcome(bessel_ratio, nu, f * j1)) for f in (0.6, 0.999)])
    for nu, x in ((0.5, 1e-300), (1.0, 1e-200), (50.0, 1e-5), (50.0, 3e-5), (20.0, 1e-15),
                  (2.5, 1e-150), (0.0, 5e-324), (0.5, 5e-324), (1.0, 5e-324), (50.0, 1e-7)):
        print("bessel_ratio subnormal", nu, x, repr(bessel_ratio(nu, x)),
              repr(bessel_j(nu, x)), repr(_outcome(bessel_j, nu + 1.0, x)))


def digest_near_integer_hyp2f1():
    # appended after the lines above: b - a = m + eps within 1e-3 of an
    # integer and -z > 40, on the float limit of the 1/z formula (constants-
    # shaped F, Ghoussoub-Moradifam-shaped ratio), then at c - a = 2, which
    # that limit leaves to mpmath
    for eps in (0.0, 1e-10, -5e-4):
        print("hyp2f1 near-integer", eps, [repr(_outcome(hyp2f1, 0.3, 2.3 + eps, 4.1, z))
                                           for z in (-50.0, -1e4, -1e8)])
        a, b = 0.65 - (1.0 + eps) / 2.0, 0.65 + (1.0 + eps) / 2.0
        print("hyp2f1ratio_with_dz near-integer", eps,
              [repr(_outcome(hyp2f1ratio_with_dz, a, b, 1.0, z)) for z in (-50.0, -1e4, -1e8)])
    print("hyp2f1 near-integer mpmath", [repr(_outcome(f, 0.5, 1.5, 2.5, -1e4))
                                         for f in (hyp2f1, hyp2f1ratio_with_dz)])


def digest_bessel_j_kernel():
    # appended after the lines above: J and J' = (nu/x) J_nu - J_(nu+1) at
    # j_(0,3), where the ascending series was 3e-14 off, and at x 0.1%
    # below and above the guard x^2 = 4e-17 (nu + 1), where the first term
    # of the ascending series gives way to the recurrence
    points = [(0.0, 8.653727912911013)]
    for nu in (0.0, 0.5, 2.5, 17.5, 31.3):
        edge = math.sqrt(4e-17 * (nu + 1.0))
        points += [(nu, 0.999 * edge), (nu, 1.001 * edge)]
    for nu, x in points:
        print("bessel_j kernel", nu, repr(x), repr(bessel_j(nu, x)),
              repr(_bessel_j_with_dx(nu, x)[1]))


def main() -> int:
    digest_certify()
    digest_margins()
    digest_sweeps()
    digest_expressions()
    digest_commands(README_COMMANDS)
    digest_commands(SPEC_COMMANDS)
    digest_constants()
    digest_long_and_overflowing_expressions()
    digest_more_catalog_margins()
    digest_certify_failures()
    digest_trajectories()
    digest_hyp2f1ratio()
    digest_bessel_ratio()
    digest_near_integer_hyp2f1()
    digest_bessel_j_kernel()
    return 0


if __name__ == "__main__":
    sys.exit(main())
