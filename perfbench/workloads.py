"""Seeded operation streams for the three benchmark workloads.

A workload is an endless sequence of cycles; a cycle is a fixed list of
operation kinds whose inputs are drawn from the seed.  Every op calls the
public hardykit API (or ``hardykit.cli.main`` for the README commands) and
carries an oracle that is evaluated outside the timed region.

Inputs come from per-kind low-discrepancy streams (the R_d Kronecker
sequence) rather than independent uniform draws, and the seed moves each
stream's offset by up to SEED_SPREAD of its range: any prefix of a stream
covers its parameter box evenly, and every seed visits the same cost strata
while still producing different inputs.  Per-op costs span four orders of
magnitude (a cold ``bessel_zero(50, 20)`` scan against one small-x
``bessel_j``; a 1024-point Ghoussoub-Moradifam certify against a 256-point
McKean one), and a run holds only tens of the heavy ops, which independent
draws would turn into run-to-run noise in the throughput and the tail.

Workloads
---------
certify_mix  catalog instantiate + certify for all 14 entries per cycle,
             config round trips, equality-ODE solves in both directions and
             the README certify-side commands.  Exercises exprdsl, riccati,
             catalog, config, rk45 and specfun's float paths; no quadrature.
margins_mix  additive / multiplicative margins of radial catalog entries
             against seeded bumps, up / ckn / sc margins, extremal identity
             checks, sharpness sweeps and the README verify / sweep
             commands.  Exercises quadrature, verifier, testfuncs and the
             geometry densities, with exprdsl at adaptive nodes.
constants    spectral lambda_1, cold Bessel-zero requests, bessel_j over
             its whole box, hyp2f1 for z <= 0 (half with integer b - a) and
             the README spectrum / bessel-zeros commands.  Exercises
             spectral and specfun's slow paths; no exprdsl.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import mpmath

from hardykit import catalog, cli, config, riccati, specfun, spectral, testfuncs, verifier
from hardykit.geometry import ModelGeometry

CERTIFY_TOL = 1e-8          # verdict tolerance and max |normalized residual|
ODE_REL_TOL = 1e-8          # solve_ivp against the closed-form G
EXTREMAL_TOL = 1e-8         # extremal identity discrepancy
SWEEP_SLACK = 1e-6          # sweep ratios may undershoot the sharp constant by this
SPECTRAL_REL_TOL = 1e-4     # closed-form lambda_1 (kappa = 0, or n = 3)
# special-function tolerances are the accuracy the package states: the
# bessel_zero docstring, the box bound of tests/test_specfun.py for bessel_j,
# and for hyp2f1 the tolerances its tests assert on each evaluation path
# (closed forms up to |z| = 30, path agreement at |z| in [50, 2000])
BESSEL_ZERO_ABS_TOL = 1e-10
BESSEL_J_ABS_TOL = 1e-11
HYP2F1_REL_TOL = 1e-11
HYP2F1_BIGZ_REL_TOL = 1e-9      # -z > 40 with non-integer b - a: the connection formula
# an output that misses its tolerance is a failed op; one that misses it by
# more than this factor (or a round trip that changes the report) is wrong
GROSS = 1e3


class Wrong(str):
    """Check result for an output that is wrong, not merely inaccurate."""

    wrong = True


def _miss(err: float, tol: float, what: str) -> str | None:
    """None if err <= tol, else the reason; a Wrong one beyond GROSS * tol."""
    if err <= tol:
        return None
    return (Wrong if not err <= GROSS * tol else str)(what)


@dataclass
class Op:
    """One timed call and its untimed oracle.

    ``run`` returns the program's output; ``check`` returns None when the
    output is correct and a short reason otherwise: a ``Wrong`` reason for an
    output that is wrong, a plain one for an output that misses the accuracy
    or verdict the op asks for (a failed op).
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# seeded low-discrepancy draws


def _rd_alphas(dims: int) -> list[float]:
    # generalized golden ratio: the positive root of x^(d+1) = x + 1
    x = 2.0
    for _ in range(80):
        x = (1.0 + x) ** (1.0 / (dims + 1))
    return [(1.0 / x ** (i + 1)) % 1.0 for i in range(dims)]


SEED_SPREAD = 0.1


class Stream:
    """R_d sequence in [0, 1)^dims whose offset the seed moves by up to
    SEED_SPREAD from a fixed per-stream base."""

    def __init__(self, seed: int | str, name: str, dims: int):
        base = random.Random(name)
        rng = random.Random(f"{seed}:{name}")
        self.offset = [(base.random() + SEED_SPREAD * rng.random()) % 1.0
                       for _ in range(dims)]
        self.alpha = _rd_alphas(dims)
        self.j = 0

    def next(self) -> list[float]:
        self.j += 1
        return [(o + self.j * a) % 1.0 for o, a in zip(self.offset, self.alpha)]


class Draws:
    def __init__(self, seed: int | str):
        self.seed = seed
        self.streams: dict[str, Stream] = {}
        self.rng = random.Random(f"{seed}:order")

    def u(self, name: str, dims: int) -> list[float]:
        s = self.streams.get(name)
        if s is None:
            s = self.streams[name] = Stream(self.seed, name, dims)
        return s.next()


def _lerp(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _pick(u: float, seq):
    return seq[min(int(u * len(seq)), len(seq) - 1)]


def _kappa(u: float) -> float:
    """Half flat, half hyperbolic with -kappa in [0.25, 2]."""
    return 0.0 if u < 0.5 else -_lerp(2.0 * u - 1.0, 0.25, 2.0)


# ---------------------------------------------------------------------------
# catalog parameter draws, each inside the entry's documented hypotheses

ENTRY_DIMS = 7


def _n_any(u: float) -> int:
    return 2 + min(int(u * 4), 3)       # 2..5


def _n_ge3(u: float) -> int:
    return 3 + min(int(u * 3), 2)       # 3..5


_PSI_PROFILES = ("s(t)", "t + {c}*t^3", "t*exp({c}*t)", "t*cosh({c}*t)")


def draw_entry(name: str, u: list[float]) -> tuple[ModelGeometry, dict]:
    k = _kappa(u[0])
    if name == "caccioppoli":
        p = _lerp(u[2], 1.5, 3.0)
        return ModelGeometry(k, _n_any(u[1]), p), {
            "alpha": _lerp(u[3], -1.5, p - 1.2), "R": _lerp(u[4], 0.5, 3.0)}
    if name == "caccioppoli_improved":
        return ModelGeometry(k, _n_any(u[1]), _lerp(u[2], 1.3, 2.0)), {
            "R": _lerp(u[3], 0.5, 2.5)}
    if name == "hardy":
        p = _lerp(u[2], 1.5, 3.0)
        C = _lerp(u[3], 0.5, 4.0)
        return ModelGeometry(k, _n_any(u[1]), p), {
            "alpha": p - C - 1.0 + _lerp(u[4], 0.2, 3.0), "C": C}
    if name == "hardy_log":
        p = _lerp(u[2], 1.5, 3.0)
        return ModelGeometry(k, _n_ge3(u[1]), p), {"alpha": _lerp(u[3], -1.0, p - 1.2)}
    if name == "acr":
        return ModelGeometry(k, _n_ge3(u[1]), 2.0), {"D": _lerp(u[3], 0.5, 3.0)}
    if name == "brezis_vazquez":
        n = _n_ge3(u[1])
        return ModelGeometry(k, n, 2.0), {
            "nu": _lerp(u[3], 0.0, (n - 2.0) / 2.0), "D": _lerp(u[4], 0.5, 3.0)}
    if name == "faber_krahn":
        return ModelGeometry(k, _n_any(u[1]), 2.0), {"R": _lerp(u[3], 0.5, 3.0)}
    if name in ("mckean", "mckean_improved"):
        return ModelGeometry(-_lerp(u[0], 0.25, 2.0), _n_any(u[1]),
                             _lerp(u[2], 1.5, 3.0)), {}
    if name == "interpolation":
        n = _n_ge3(u[1])
        return ModelGeometry(-_lerp(u[0], 0.25, 2.0), n, 2.0), {
            "lam": _lerp(u[3], n - 2.0, (n - 1.0) ** 2 / 4.0)}
    if name == "akutagawa_kumura":
        return ModelGeometry(-_lerp(u[0], 0.25, 2.0), _n_any(u[1]), 2.0), {
            "R": _lerp(u[3], 0.5, 3.0)}
    if name == "greene_wu_psi":
        psi = _pick(u[3], _PSI_PROFILES).format(c=f"{_lerp(u[4], 0.01, 0.2):.6f}")
        return ModelGeometry(k, _n_ge3(u[1]), 2.0), {
            "psi": psi, "t_hi": _lerp(u[5], 10.0, 50.0)}
    if name == "ghoussoub_moradifam":
        n = _n_ge3(u[1])
        return ModelGeometry(k, n, 2.0), {
            "a": _lerp(u[2], 0.5, 2.0), "b": _lerp(u[3], 0.5, 2.0),
            "alpha": _lerp(u[4], 0.3, 2.0), "beta": _lerp(u[5], 0.3, 2.6),
            "m": (n - 2.0) / 2.0 - _lerp(u[6], 0.1, 1.2)}
    if name == "carvalho_cavalcante":
        return ModelGeometry(k, _n_any(u[1]), _lerp(u[2], 1.5, 3.0)), {
            "a": _lerp(u[3], 0.5, 2.0), "b": _lerp(u[4], 0.5, 2.5)}
    raise KeyError(name)


ENTRIES = tuple(catalog.entry_names())
# greene_wu_psi carries callable W and G, which the config format cannot hold
EMITTABLE = tuple(n for n in ENTRIES if n != "greene_wu_psi")
# entries built on rho = distance to the boundary have no radial quadrature
RADIAL = tuple(n for n in ENTRIES if not n.startswith("caccioppoli"))
# radial entries with an expression-backed G: the equality ODE is solved
# from a point on it and checked against it
ODE_ENTRIES = tuple(n for n in RADIAL if n in EMITTABLE)


def _certify_check(rep) -> str | None:
    miss = _miss(rep.max_abs_residual, CERTIFY_TOL,
                 f"max |residual| {rep.max_abs_residual!r} > {CERTIFY_TOL}")
    if miss is not None:
        return miss
    if rep.verdict != "certified":
        return f"verdict {rep.verdict}: {rep.reason}"
    return None


def _report_fields(rep) -> tuple:
    return (rep.verdict, rep.min_residual, rep.argmin_t, rep.max_abs_residual,
            rep.min_G, rep.max_G, len(rep.grid))


# ---------------------------------------------------------------------------
# README commands, run in-process with captured output


def _exit_ok(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}"


class CliRunner:
    """Runs ``hardykit.cli.main`` with stdout/stderr captured and every
    output file placed in ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.bv_cfg = workdir / "bv.cfg"

    def call(self, argv: list[str], stdout_to: Path | None = None) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        if stdout_to is not None:
            stdout_to.write_text(out.getvalue())
        return code

    def op(self, name: str, argv: list[str], stdout_to: Path | None = None) -> Op:
        return Op(f"cli:{name}", lambda: self.call(argv, stdout_to), _exit_ok)

    def readme_ops(self, workload: str) -> list[Op]:
        d = self.workdir
        if workload == "certify_mix":
            return [
                self.op("certify", ["certify", "--catalog", "hardy",
                                    "--params", "n=3,p=2,alpha=0,C=2"]),
                self.op("catalog_show", ["catalog", "show", "brezis_vazquez",
                                         "--params", "n=3,p=2,nu=0,D=1"], self.bv_cfg),
                self.op("certify_spec", ["certify", "--spec", str(self.bv_cfg), "--grid",
                                         "log", "--points", "512", "--tol", "1e-8"]),
                self.op("solve_riccati", ["solve-riccati", "--spec", str(self.bv_cfg),
                                          "--t0", "0.5", "--g0", "1.2",
                                          "--samples", "0.05", "0.95", "40"]),
                self.op("catalog_list", ["catalog", "list"]),
                self.op("gm_positivity", ["gm-positivity", "--out", str(d / "gm.csv")]),
            ]
        if workload == "margins_mix":
            return [
                self.op("verify_up", ["verify", "--inequality", "up", "--params",
                                      "kappa=0,n=3,p=2,alpha=1", "--out", str(d / "up.json")]),
                self.op("verify_mckean", ["verify", "--inequality", "mckean", "--params",
                                          "kappa=-1,n=2,p=2",
                                          "--family", "bumps:count=20,seed=7"]),
                self.op("sweep_hardy", ["sweep", "--inequality", "hardy", "--params",
                                        "kappa=0,n=3,p=2,alpha=0",
                                        "--out", str(d / "sweep.json")]),
            ]
        if workload == "constants":
            def bessel_zeros_cold():
                # a fresh CLI process starts with an empty zero cache
                specfun.bessel_zero.cache_clear()
                return self.call(["bessel-zeros", "--nu", "0", "--count", "5"])
            return [
                self.op("spectrum", ["spectrum", "--kappa", "0", "--n", "2", "--R", "1",
                                     "--N", "4000"]),
                Op("cli:bessel_zeros", bessel_zeros_cold, _exit_ok),
            ]
        raise KeyError(workload)


# ---------------------------------------------------------------------------
# certify_mix


GRID_POINTS = (256, 512, 1024)


def _certify_op(draws: Draws, name: str, slot: int) -> Op:
    # grid size and policy rotate through their six pairs instead of being
    # drawn: a 1024-point certify costs 4x a 256-point one, and drawn sizes
    # let the share of heavy ops, and so the tail, differ from seed to seed.
    # The half of the kappa range (flat or hyperbolic for most entries)
    # rotates too, after the six pairs: a hyperbolic Ghoussoub-Moradifam
    # certify costs about 2.5x a flat one and sets the tail.
    u = draws.u(f"certify.{name}", ENTRY_DIMS)
    u[0] = 0.5 * (u[0] + slot // 6 % 2)
    geo, params = draw_entry(name, u)
    n_points = GRID_POINTS[slot % 3]
    policy = ("log", "uniform")[slot // 3 % 2]

    def run():
        inst = catalog.instantiate(name, geo, params)
        return riccati.certify(inst.spec, inst.G, grid_policy=policy, n_points=n_points)

    return Op("certify", run, _certify_check)


def _round_trip_op(draws: Draws, slot: int) -> Op:
    u = draws.u("round_trip", ENTRY_DIMS + 1)
    name = _pick(u[ENTRY_DIMS], EMITTABLE)
    geo, params = draw_entry(name, u)
    n_points = GRID_POINTS[slot % 3]

    def run():
        inst = catalog.instantiate(name, geo, params)
        spec, G = config.parse_config(config.emit_config(inst.spec, inst.G))
        return riccati.certify(spec, G, n_points=n_points)

    def check(rep):
        inst = catalog.instantiate(name, geo, params)
        direct = riccati.certify(inst.spec, inst.G, n_points=n_points)
        if _report_fields(rep) != _report_fields(direct):
            return Wrong(f"round trip of {name} differs from the direct certify")
        return _certify_check(rep)

    return Op("round_trip", run, check)


def _ode_window(spec) -> tuple[float, float]:
    """The window the equality-ODE ops solve on.

    A limit of this workload: it measures solves on the interior of the
    interval only.  Towards a singular left end the backward solve amplifies
    its local error past the 1e-8 tracking check (2e-8 for
    Ghoussoub-Moradifam on [lo + 0.5, lo + 5]), and such solves are not part
    of the mix."""
    lo, hi = spec.t_lo, spec.t_hi
    if math.isinf(hi):
        return lo + 1.0, lo + 4.0
    return lo + 0.25 * (hi - lo), lo + 0.85 * (hi - lo)


def _solve_ivp_op(draws: Draws) -> Op:
    u = draws.u("solve_ivp", ENTRY_DIMS + 2)
    name = _pick(u[ENTRY_DIMS], ODE_ENTRIES)
    geo, params = draw_entry(name, u)
    frac = _lerp(u[ENTRY_DIMS + 1], 0.3, 0.7)

    def run():
        inst = catalog.instantiate(name, geo, params)
        a, b = _ode_window(inst.spec)
        t0 = a + frac * (b - a)
        g0 = inst.G.eval(t0, inst.spec.binding())
        fwd = [t0 + (b - t0) * (i + 1) / 8.0 for i in range(8)]
        bwd = [a + (t0 - a) * i / 8.0 for i in range(8)]
        return (inst,
                riccati.solve_ivp(inst.spec, t0, g0, "forward", fwd),
                riccati.solve_ivp(inst.spec, t0, g0, "backward", bwd))

    def check(out):
        inst, *trajs = out
        binding = inst.spec.binding()
        for traj in trajs:
            if traj.blew_up or len(traj.ts) != 8:
                return f"{name}: trajectory stopped early ({traj.reason})"
            for t, g in zip(traj.ts, traj.gs):
                exact = inst.G.eval(t, binding)
                miss = _miss(abs(g - exact) / abs(exact), ODE_REL_TOL,
                             f"{name}: G({t!r}) = {g!r}, closed form {exact!r}")
                if miss is not None:
                    return miss
        return None

    return Op("solve_ivp", run, check)


def certify_cycle(draws: Draws, cli_runner: CliRunner, index: int) -> list[Op]:
    # one certify per catalog entry, plus one op of each other kind.  Certify
    # ops take over 90% of the time at any such fraction, so they alone set
    # the per-layer shares (exprdsl about 54%, riccati 29%, specfun 12%).
    ops = [_certify_op(draws, name, index + i) for i, name in enumerate(ENTRIES)]
    ops += [_round_trip_op(draws, index), _solve_ivp_op(draws)]
    return ops


# ---------------------------------------------------------------------------
# margins_mix


def _not_violated(m) -> str | None:
    if verifier.margin_violated(m):
        what = f"margin {m.margin!r} violated (error estimate {m.quadrature_error_estimate!r})"
        return Wrong(what) if m.margin < -GROSS * CERTIFY_TOL else what
    return None


# Catalog margins per cycle, next to one up, ckn, sc and extremal op and a
# sweep every third cycle.  Catalog margins hold all of the workload's
# exprdsl and specfun time; the other kinds are verifier and quadrature
# work.  The more time catalog margins take, the closer the per-layer
# self-time shares come to the indicative exprdsl 37%, specfun 15%,
# verifier 15%, quadrature 7% (least squares).  No mix reaches them: a
# catalog margin alone spends about exprdsl 34%, specfun 29%, verifier 22%.
# At 24 per cycle catalog margins take about 80% of the op time (traced
# shares without the README commands: exprdsl 28%, specfun 28%, verifier
# 26%, quadrature 10%) while every other kind still runs tens of times a run.
CATALOG_MARGINS = 24


def _catalog_margin_op(draws: Draws, multiplicative: bool) -> Op:
    kind = "multiplicative_margin" if multiplicative else "additive_margin"
    u = draws.u(kind, ENTRY_DIMS + 2)
    name = _pick(u[ENTRY_DIMS], RADIAL)
    geo, params = draw_entry(name, u)
    bump_seed = int(u[ENTRY_DIMS + 1] * 1_000_000)

    def run():
        inst = catalog.instantiate(name, geo, params)
        lo, hi = inst.spec.t_lo, inst.spec.t_hi
        span = min(10.0, hi - lo) if math.isfinite(hi) else 10.0
        (bump,) = testfuncs.random_bumps(1, bump_seed, lo=lo, hi=hi, span=span)
        fn = verifier.multiplicative_margin if multiplicative else verifier.additive_margin
        return fn(None, inst, bump)

    return Op(kind, run, _not_violated)


def _up_op(draws: Draws) -> Op:
    u = draws.u("up_margin", 5)
    k = _kappa(u[0])
    n = _n_ge3(u[1])
    p = _lerp(u[2], 1.5, min(2.5, n - 0.5))
    alpha = _lerp(u[3], 0.5, 1.0) if k < 0.0 else _lerp(u[3], 1.2 - p, 1.0)
    scale = _lerp(u[4], 1.0, 4.0)

    def run():
        geo = ModelGeometry(k, n, p)
        return verifier.up_margin(geo, testfuncs.gaussian_type(alpha, p, scale=scale), alpha)

    return Op("up_margin", run, _not_violated)


def _ckn_op(draws: Draws) -> Op:
    u = draws.u("ckn_margin", 6)
    k = _kappa(u[0])
    n = _n_ge3(u[1])
    p = _lerp(u[2], 1.5, min(2.5, n - 0.5))
    alpha = _lerp(u[3], 0.5, 1.0)
    r_hi = min(p * (n + alpha - 1.0) / (n - p), 3.0 * p)
    r = _lerp(u[4], p + 0.1 * (r_hi - p), r_hi - 0.1 * (r_hi - p))
    scale = _lerp(u[5], 1.0, 4.0)

    def run():
        geo = ModelGeometry(k, n, p)
        if k < 0.0:   # algebraic tails cannot beat exponential volume growth
            prof = testfuncs.gaussian_type(alpha, p, scale=scale)
        else:
            prof = testfuncs.talenti(alpha, p, r, scale=scale)
        return verifier.ckn_margin(geo, prof, alpha, r)

    return Op("ckn_margin", run, _not_violated)


def _sc_op(draws: Draws) -> Op:
    u = draws.u("sc_margin", 5)
    k = -_lerp(u[0], 0.25, 2.0)
    n = _n_any(u[1])
    c = _lerp(u[2], -1.0, 2.0)
    alpha = _lerp(u[3], 0.5, 1.0)
    scale = _lerp(u[4], 1.0, 4.0)

    def run():
        return verifier.sc_margin(ModelGeometry(k, n, 2.0),
                                  testfuncs.gaussian_type(alpha, 2.0, scale=scale), c)

    return Op("sc_margin", run, _not_violated)


def _extremal_op(draws: Draws) -> Op:
    u = draws.u("extremal", 4)
    k = _kappa(u[0])
    n = _n_any(u[1])
    p = _lerp(u[2], 1.5, 3.0)
    alpha = _lerp(u[3], 0.2, 1.5) if k < 0.0 else _lerp(u[3], -0.5 * (p - 1.0), 1.5)

    def run():
        return verifier.extremal_identity_check(ModelGeometry(k, n, p), alpha)

    def check(res):
        return _miss(res.discrepancy, EXTREMAL_TOL, f"extremal discrepancy {res.discrepancy!r}")

    return Op("extremal_identity", run, check)


def _sweep_op(draws: Draws, index: int) -> Op:
    mode = ("hardy", "up", "ckn")[index % 3]
    u = draws.u(f"sweep.{mode}", 4)
    n = _n_ge3(u[0])
    p = _lerp(u[1], 1.5, min(2.5, n - 0.5))
    if mode == "hardy":
        # sigma = (n + alpha - p)/p > 0 is the hypothesis; sigma in [0.2, 2]
        params = {"alpha": p * _lerp(u[2], 0.2, 2.0) + p - n}
    elif mode == "up":
        params = {"alpha": _lerp(u[2], 1.2 - p, 1.0)}
    else:
        alpha = _lerp(u[2], 0.5, 1.0)
        r_hi = min(p * (n + alpha - 1.0) / (n - p), 3.0 * p)
        params = {"alpha": alpha, "r": _lerp(u[3], p + 0.1 * (r_hi - p), r_hi - 0.1 * (r_hi - p))}

    def run():
        return verifier.sharpness_sweep(mode, ModelGeometry(0.0, n, p), params)

    def check(sw):
        ratios = [r.ratio for r in sw.rows if math.isfinite(r.ratio)]
        if not ratios:
            return f"{mode} sweep: every member skipped"
        return _miss(sw.sharp_constant - min(ratios), SWEEP_SLACK,
                     f"{mode} sweep: ratio {min(ratios)!r} below sharp {sw.sharp_constant!r}")

    return Op(f"sweep_{mode}", run, check)


def margins_cycle(draws: Draws, cli_runner: CliRunner, index: int) -> list[Op]:
    # catalog margins carry the exprdsl and specfun work of this workload,
    # the other kinds mostly verifier and quadrature time (see CATALOG_MARGINS)
    ops = [_catalog_margin_op(draws, multiplicative=(i % 2 == 1))
           for i in range(CATALOG_MARGINS)]
    ops += [_up_op(draws), _ckn_op(draws), _sc_op(draws), _extremal_op(draws)]
    if index % 3 == 0:
        ops.append(_sweep_op(draws, index // 3))
    return ops


# ---------------------------------------------------------------------------
# constants


def _bessel_j1_sq(n: int) -> float:
    return float(mpmath.besseljzero((n - 2) / 2.0, 1)) ** 2


# A cold zero scan grows with K and steeply with nu (zeros above x = 10 take
# the mpmath path), from 0.3 ms to 5 s over the box, and a run holds only a
# few scans, so drawn (K, nu) would make the run's total work differ from
# seed to seed.  The scans rotate through fixed strata instead, and the seed
# moves nu by at most 0.5 around each stratum's centre.  The cheapest stratum
# comes first, so the warm-up (one op of each kind from a first cycle) stays
# short.
ZERO_STRATA = ((2, 42.0), (8, 25.0), (20, 8.0))         # (K, nu at the centre)


def _spectral_op(draws: Draws, slot: int) -> Op:
    # n and the flat or hyperbolic half of kappa rotate through their six
    # pairs, one cycle's worth: a hyperbolic n = 4 solve at large R costs
    # about 2x a flat one at the same N
    u = draws.u("spectral", 3)
    k = _kappa(0.5 * (u[0] + slot // 3 % 2))
    n = 2 + slot % 3                                    # 2..4
    R = _lerp(u[1], 0.5, 3.0) if k == 0.0 else _lerp(u[1], 0.5, 20.0)
    # log-uniform: the cost grows in proportion to N
    N = round(400.0 * 20.0 ** u[2])                     # [400, 8000]

    def run():
        return spectral.spectral_lambda1(ModelGeometry(k, n, 2.0), R, N)

    def check(res):
        lam = res.lambda1
        flat = _bessel_j1_sq(n) / (R * R)
        if k == 0.0 or n == 3:
            exact = flat if k == 0.0 else -k + math.pi ** 2 / (R * R)
            return _miss(abs(lam - exact) / exact, SPECTRAL_REL_TOL,
                         f"lambda1 {lam!r} vs closed form {exact!r} (n={n}, R={R}, N={N})")
        # Cheng comparison with the flat ball and McKean's bound, to within
        # the extrapolation's own error estimate
        err = abs(res.lambda1_raw - res.lambda1_coarse)
        bound = max(flat, (n - 1.0) ** 2 * (-k) / 4.0)
        if not lam + err >= bound:
            return Wrong(f"lambda1 {lam!r} below the Cheng/McKean bound {bound!r}")
        return None

    return Op("spectral_lambda1", run, check)


def _bessel_zeros_op(draws: Draws, slot: int) -> Op:
    count, nu_mid = ZERO_STRATA[slot % len(ZERO_STRATA)]
    # a stream per stratum, so that a run's few scans of one stratum spread
    # evenly over its nu window
    nu = nu_mid + draws.u(f"bessel_zeros.{count}", 1)[0] - 0.5

    def run():
        specfun.bessel_zero.cache_clear()
        return [specfun.bessel_zero(nu, k) for k in range(1, count + 1)]

    def check(zeros):
        for k, z in enumerate(zeros, 1):
            ref = float(mpmath.besseljzero(nu, k))
            miss = _miss(abs(z - ref), BESSEL_ZERO_ABS_TOL, f"j_({nu},{k}) = {z!r}, mpmath {ref!r}")
            if miss is not None:
                return miss
        return None

    return Op("bessel_zeros", run, check)


def _bessel_j_op(draws: Draws) -> Op:
    u = draws.u("bessel_j", 2)
    nu, x = _lerp(u[0], 0.0, 50.0), _lerp(u[1], 0.0, 200.0)

    def check(v):
        ref = float(mpmath.besselj(nu, x))
        return _miss(abs(v - ref), BESSEL_J_ABS_TOL, f"J_{nu}({x}) = {v!r}, mpmath {ref!r}")

    return Op("bessel_j", lambda: specfun.bessel_j(nu, x), check)


def _hyp2f1_op(draws: Draws, integer_gap: bool) -> Op:
    u = draws.u("hyp2f1.int" if integer_gap else "hyp2f1", 4)
    a = _lerp(u[0], 0.1, 3.0)
    b = a + (min(int(u[1] * 4), 3) if integer_gap else _lerp(u[1], 0.05, 3.0))
    c = _lerp(u[2], 0.3, 5.0)
    z = -(10.0 ** _lerp(u[3], -3.0, 6.0))

    # the looser tolerance only where the tests assert it: the connection
    # formula, taken for -z > 40 when b - a is not an integer
    tol = HYP2F1_BIGZ_REL_TOL if -z > 40.0 and not integer_gap else HYP2F1_REL_TOL

    def check(v):
        ref = float(mpmath.hyp2f1(a, b, c, z))
        return _miss(abs(v - ref) / abs(ref), tol, f"2F1({a}, {b}; {c}; {z}) = {v!r}, mpmath {ref!r}")

    return Op("hyp2f1", lambda: specfun.hyp2f1(a, b, c, z), check)


def constants_cycle(draws: Draws, cli_runner: CliRunner, index: int) -> list[Op]:
    # six spectral solves against one cold zero scan put spectral at about
    # 60% of the self time and specfun at 40%, near the indicative 49% : 35%
    # (58% : 42% of the two).  bessel_j and hyp2f1 run in equal numbers; at
    # 16 each they take about 5% of the time and give op_p50_ms, which falls
    # inside the bessel_j costs, 128 samples a run
    ops = [_spectral_op(draws, i) for i in range(6)]
    ops.append(_bessel_zeros_op(draws, index))
    ops += [_bessel_j_op(draws) for _ in range(16)]
    ops += [_hyp2f1_op(draws, integer_gap=(i % 2 == 0)) for i in range(16)]
    return ops


CYCLES = {
    "certify_mix": certify_cycle,
    "margins_mix": margins_cycle,
    "constants": constants_cycle,
}


def cycles(workload: str, seed: int | str, cli_runner: CliRunner) -> Iterator[list[Op]]:
    """Endless seeded cycles, each shuffled.  The first one starts with the
    workload's README commands, once each and in a fixed order (catalog show
    writes the config file the later commands read)."""
    draws = Draws(seed)
    make = CYCLES[workload]
    index = 0
    while True:
        ops = make(draws, cli_runner, index)
        draws.rng.shuffle(ops)
        yield (cli_runner.readme_ops(workload) if index == 0 else []) + ops
        index += 1
