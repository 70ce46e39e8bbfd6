"""Riccati-pair residuals, grid certification, and the Bessel-pair bridge.

A weight triple (w, L, W) on an interval, together with a candidate G,
satisfies the first-order differential inequality

    G'(t) + (w'(t)/w(t) + L(t)) G(t) - (p-1) |G(t)|^(p') >= W(t)

when the pair is admissible; the residual is the left side minus W.
Certification samples the residual on a dense grid (512 log-spaced points
plus endpoint refinement; a pure function of the interval, size and policy,
kept in a small cache, and mapped from fractions cached per size and
policy), normalizes by 1 + |W| so the verdict is relative near singular
endpoints and absolute elsewhere, and checks the sign condition on G
required when L is a strict Laplacian lower bound.  Each
call runs one generated function over the grid: this module's loop
template, whose G, w, L and W slots exprdsl.fill_template fills for the
spec's binding (an expression's statements inline, any other evaluable a
call to its evaluator).  residual_parts runs the same function on the grid
(t,), so certify's residuals are its values to the bit.

The equality case of the inequality is a Riccati ODE; solve_ivp integrates
it with blow-up detection (a blow-up abscissa approximates a zero of the
associated second-order positive solution).  bessel_to_riccati and
riccati_to_bessel convert between G and that positive solution y via
G = -|y'|^(p-2) y' / y^(p-1); each returns a FuncEval.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import quadrature
from .errors import (ConvergenceError, DomainError, HardykitError, ParameterError,
                     UnsupportedDerivativeError)
from .exprdsl import evaluator, fill_template
from .geometry import ModelGeometry
from .rk45 import IntegrationOutcome, integrate_to_samples

__all__ = [
    "RiccatiPairSpec",
    "CertificationReport",
    "ResidualParts",
    "FuncEval",
    "certification_grid",
    "residual",
    "residual_parts",
    "certify",
    "solve_ivp",
    "RiccatiTrajectory",
    "bessel_to_riccati",
    "riccati_to_bessel",
]


class FuncEval:
    """Adapter presenting plain Python callables as expression-like objects:
    fn(t) is the value, dual(t) the pair (value, derivative), whose value
    must be fn(t) to the bit."""

    def __init__(self, fn: Callable[[float], float],
                 dual: Callable[[float], tuple[float, float]] | None = None,
                 name: str = "<function>"):
        self.fn = fn
        self.dual = dual
        self.name = name

    def eval(self, t: float, binding: dict | None = None) -> float:
        return self.fn(t)

    def eval_d(self, t: float, binding: dict | None = None) -> tuple[float, float]:
        if self.dual is None:
            raise UnsupportedDerivativeError(f"{self.name} has no derivative")
        return self.dual(t)

    def _evaluator(self, binding: dict, dual: bool) -> Callable:
        # exprdsl.evaluator's function of t; without a dual, eval_d raises at the call
        return (self.dual or self.eval_d) if dual else self.fn

    def __repr__(self):
        return f"FuncEval({self.name})"


@dataclass
class RiccatiPairSpec:
    """The data of one weighted Riccati-pair certification problem.

    w, L and W are each a ScalarExpr or another evaluable exprdsl.evaluator
    takes (greene_wu_psi's are FuncEvals).  L bounds the Laplacian of the
    distance from below: (n-1)*ct(t) exactly, (n-1)*sqrt(-kappa) as a floor.

    g_sign_required encodes the sign condition on admissible G: +1 requires
    G >= 0 (the default; mandatory whenever L is a strict lower bound for
    the Laplacian of the distance function), -1 requires G <= 0 (triples
    built on a superharmonic distance-to-boundary), and 0 means no sign
    restriction (L is the exact model Laplacian, where the comparison step
    is an identity).
    """

    geo: ModelGeometry
    t_lo: float
    t_hi: float
    w: object
    L: object
    W: object
    params: dict = field(default_factory=dict)
    g_sign_required: int = 1
    homogeneity_hint: float | None = None
    rho_kind: str = "radial_distance"

    def __post_init__(self):
        if not (0.0 <= self.t_lo < self.t_hi):
            raise ParameterError(f"invalid interval ({self.t_lo!r}, {self.t_hi!r})")
        if self.g_sign_required not in (-1, 0, 1):
            raise ParameterError("g_sign_required must be -1, 0 or +1")
        if self.rho_kind not in ("radial_distance", "boundary_distance"):
            raise ParameterError(f"rho_kind={self.rho_kind!r} is neither radial_distance "
                                 "nor boundary_distance")

    def binding(self) -> dict:
        b = self.geo.binding()
        b.update(self.params)
        return b


@dataclass(frozen=True)
class ResidualParts:
    g: float
    dg: float
    drift: float        # w'/w + L
    convex_term: float  # (p-1)|G|^{p'}
    w_target: float     # W(t)
    value: float        # dg + drift g - convex_term - w_target


# certify's loop; exprdsl.fill_template fills its lines `... = G(t)` and so
# on.  It returns the normalized residuals, the values of G and (t, error)
# or None; with first_terms, the terms at grid[0], raising their errors.
_KERNEL = """\
def certify_kernel(grid, first_terms):
    residuals, gs = [], []
    for t in grid:
        try:
            gv, gd = G(t)
            wv, wd = w(t)
            if not wv > 0.0:
                raise DomainError(f"weight w({t!r}) = {wv!r} is not positive")
            lv = L(t)
            wt = W(t)
            try:
                convex = pm1 * abs(gv) ** pc
                drift = wd / wv + lv
                r = gd + drift * gv - convex - wt
                if first_terms:
                    return gv, gd, drift, convex, wt, r
                scale = t ** nhint
                rn = (r * scale) / (1.0 + abs(wt * scale))
            except OverflowError:
                raise DomainError("the residual overflows a float") from None
            if not (isfinite(rn) and isfinite(gv)):
                raise DomainError("non-finite residual")
            if not wt > 0.0:
                raise DomainError(f"target W({t!r}) = {wt!r} is not positive")
        except HardykitError as exc:
            if first_terms:
                raise
            return residuals, gs, (t, exc)
        residuals.append(rn)
        gs.append(gv)
    return residuals, gs, None
"""


def _kernel(spec: RiccatiPairSpec, G, binding: dict) -> Callable:
    """_KERNEL over G, w (both dual), L and W for `binding`; the residual is
    scaled by t^(-hint) for a negative hint (else by t^0 = 1, exactly)."""
    hint = spec.homogeneity_hint
    env = {"pm1": spec.geo.p - 1.0, "pc": spec.geo.p_conj,
           "nhint": -hint if hint is not None and hint < 0.0 else 0.0,
           "isfinite": math.isfinite, "DomainError": DomainError, "HardykitError": HardykitError}
    slots = {"G": (G, True), "w": (spec.w, True), "L": (spec.L, False), "W": (spec.W, False)}
    return fill_template(_KERNEL, slots, binding, env)


def residual_parts(spec: RiccatiPairSpec, G, t: float,
                   binding: dict | None = None) -> ResidualParts:
    """The terms of the residual at t, from certify's loop over the grid
    (t,); `binding` is spec.binding(), built here when not given."""
    b = spec.binding() if binding is None else binding
    return ResidualParts(*_kernel(spec, G, b)((t,), True))


def residual(spec: RiccatiPairSpec, G, t: float) -> float:
    """G' + (w'/w + L) G - (p-1)|G|^{p'} - W at one abscissa."""
    return residual_parts(spec, G, t).value


def certification_grid(
    t_lo: float,
    t_hi: float,
    n: int = 512,
    policy: str = "log",
) -> list[float]:
    """Interior sample grid of (t_lo, t_hi), which needs 0 <= t_lo < t_hi
    (ParameterError otherwise); an infinite right endpoint is handled through
    the compactification u = t/(1+t).  Log policy concentrates points at the
    left endpoint; 16 extra points probe the immediate endpoint neighborhood.
    """
    return list(_grid(t_lo, t_hi, n, policy))


@functools.lru_cache(maxsize=32, typed=True)
def _grid(t_lo: float, t_hi: float, n: int, policy: str) -> tuple[float, ...]:
    if not (0.0 <= t_lo < t_hi):
        raise ParameterError(f"invalid interval ({t_lo!r}, {t_hi!r})")
    if n < 2:
        raise ParameterError("grid needs at least 2 points")

    infinite = math.isinf(t_hi)
    a = t_lo / (1.0 + t_lo) if infinite else t_lo
    b = 1.0 if infinite else t_hi
    span = b - a

    ts = [u / (1.0 - u) if infinite else u for u in (a + span * s for s in _fractions(n, policy))]
    if t_lo > 0.0:
        ts.extend(t_lo * (1.0 + k * 1e-3 / 16.0) for k in range(1, 17))
    else:
        deep = (a + span * 1e-12 * (1e4 ** (k / 15.0)) for k in range(16))
        ts.extend(u / (1.0 - u) if infinite else u for u in deep)
    grid = tuple(t for t in sorted(set(ts)) if t_lo < t < t_hi)
    if not grid:
        raise ParameterError(f"no {policy} grid node lies inside ({t_lo!r}, {t_hi!r})")
    return grid


@functools.lru_cache(maxsize=8)
def _fractions(n: int, policy: str) -> tuple[float, ...]:
    """The grid's n fractions of the (compactified) interval."""
    if policy == "log":
        s_lo, s_hi = 1e-8, 1.0 - 1e-3
        lg_lo, lg_hi = math.log(s_lo), math.log(s_hi)
        return tuple(math.exp(lg_lo + (lg_hi - lg_lo) * i / (n - 1)) for i in range(n))
    if policy == "uniform":
        s_lo, s_hi = 1e-6, 1.0 - 1e-3
        return tuple(s_lo + (s_hi - s_lo) * i / (n - 1) for i in range(n))
    raise ParameterError(f"unknown grid policy {policy!r}")


@dataclass
class CertificationReport:
    grid: list[float]
    residuals: list[float]          # normalized: residual / (1 + |W|)
    min_residual: float
    argmin_t: float
    max_abs_residual: float
    min_G: float
    max_G: float
    verdict: str                    # "certified" | "failed" | "inconclusive"
    witness_t: float | None
    reason: str
    tolerance_used: float
    g_sign_required: int


def certify(
    spec: RiccatiPairSpec,
    G,
    grid_policy: str = "log",
    tol: float = 1e-8,
    n_points: int = 512,
) -> CertificationReport:
    """Grid certification of the Riccati-pair inequality for candidate G.

    Certified means the normalized residual stays above -tol at every grid
    point and the sign condition on G holds to the same tolerance.  The
    tolerance is an artifact policy (the inequality itself is pointwise);
    it is recorded in the report.
    """
    grid = certification_grid(spec.t_lo, spec.t_hi, n=n_points, policy=grid_policy)
    residuals, gs, failure = _kernel(spec, G, spec.binding())(grid, False)
    min_r = min(residuals, default=math.inf)
    argmin = grid[residuals.index(min_r)] if residuals else grid[0]
    min_g, max_g = min(gs, default=math.inf), max(gs, default=-math.inf)
    verdict, witness, reason = "failed", None, ""
    if failure is not None:
        verdict, (witness, exc) = "inconclusive", failure
        reason = f"evaluation failed at t={witness!r}: {exc}"
    elif not min_r >= -tol:
        witness, reason = argmin, f"residual {min_r:.6g} below -tol at t={argmin:.6g}"
    elif spec.g_sign_required == 1 and min_g < -tol:
        witness = grid[gs.index(min_g)]
        reason = f"sign condition violated: min G = {min_g:.6g} < -tol"
    elif spec.g_sign_required == -1 and max_g > tol:
        witness = grid[gs.index(max_g)]
        reason = f"sign condition violated: max G = {max_g:.6g} > tol"
    else:
        verdict = "certified"
    return CertificationReport(
        grid=grid, residuals=residuals, min_residual=min_r, argmin_t=argmin,
        max_abs_residual=max(map(abs, residuals), default=0.0), min_G=min_g, max_G=max_g,
        verdict=verdict, witness_t=witness, reason=reason, tolerance_used=tol,
        g_sign_required=spec.g_sign_required)


@dataclass
class RiccatiTrajectory:
    ts: list[float]
    gs: list[float]
    blew_up: bool
    blow_up_t: float | None
    reason: str = ""


def solve_ivp(
    spec: RiccatiPairSpec,
    t0: float,
    G0: float,
    direction: str,
    sample_ts: Sequence[float],
) -> RiccatiTrajectory:
    """Integrate the equality ODE G' = W + (p-1)|G|^{p'} - (w'/w + L) G
    from (t0, G0) in direction "forward" or "backward", reporting G at
    sample_ts, which must lie that way of t0; w, L and W are resolved to
    their evaluators once per call.

    A reported blow-up abscissa approximates a zero of the positive solution
    of the associated second-order equation.
    """
    if direction not in ("forward", "backward"):
        raise ParameterError(f"direction must be forward or backward, got {direction!r}")
    b = spec.binding()
    w_d = evaluator(spec.w, b, dual=True)
    l_v = evaluator(spec.L, b)
    w_v = evaluator(spec.W, b)
    pm1, pp = spec.geo.p - 1.0, spec.geo.p_conj

    def f(t: float, g: float) -> float:
        wv, wd = w_d(t)
        lv = l_v(t)
        wt = w_v(t)
        return wt + pm1 * abs(g) ** pp - (wd / wv + lv) * g

    samples = sorted(sample_ts, reverse=(direction == "backward"))
    if samples:
        ahead = samples[-1] >= t0 if direction == "forward" else samples[-1] <= t0
        behind_start = samples[0] < t0 if direction == "forward" else samples[0] > t0
        if behind_start or not ahead:
            raise ConvergenceError(
                f"samples must lie {direction} of t0={t0!r}")
    out: IntegrationOutcome = integrate_to_samples(f, t0, G0, samples)
    ts, gs = out.ts, out.ys
    if direction == "backward":
        ts, gs = ts[::-1], gs[::-1]
    return RiccatiTrajectory(ts=ts, gs=gs, blew_up=out.blew_up,
                             blow_up_t=out.blow_up_t, reason=out.reason)


def bessel_to_riccati(y, p: float, binding: dict | None = None) -> FuncEval:
    """Riccati candidate G = -|y'|^(p-2) y' / y^(p-1) from a positive
    second-order profile y.

    The derivative path needs y''; it is estimated by a central difference
    of the exact first derivative, O((h/t)^2) for a power law, with
    h = min(1e-6 (1+t), 1e-5 t): the stencil stays inside t > 0, and its
    error stays near 1e-10 relative as t falls to 0.
    """
    y_d = evaluator(y, binding, dual=True)

    def positive(t: float) -> tuple[float, float]:
        yv, yd = y_d(t)
        if not yv > 0.0:
            raise DomainError(f"profile y({t!r}) = {yv!r} is not positive")
        return yv, yd

    def g(t: float) -> float:
        yv, yd = positive(t)
        try:
            return -math.copysign(abs(yd) ** (p - 1.0), yd) / yv ** (p - 1.0)
        except ArithmeticError:  # a power of y underflows to 0, or one of y' overflows
            raise DomainError(f"G is not finite at t={t!r}, y = {yv!r}") from None

    def g_d(t: float) -> tuple[float, float]:
        yv, yd = positive(t)
        h = min(1e-6 * (1.0 + abs(t)), 1e-5 * abs(t)) or 1e-6   # t = 0: the full step
        ydp = y_d(t + h)[1]
        ydm = y_d(t - h)[1]
        ypp = (ydp - ydm) / (2.0 * h)
        try:
            gv = -math.copysign(abs(yd) ** (p - 1.0), yd) / yv ** (p - 1.0)
            if yd == 0.0:
                if p < 2.0:
                    raise DomainError("G' singular where y' = 0 for p < 2")
                dg = 0.0 if p > 2.0 else -(p - 1.0) * ypp / yv
            else:
                dg = -(p - 1.0) * abs(yd) ** (p - 2.0) * (ypp * yv - yd * yd) / yv**p
        except ArithmeticError:
            raise DomainError(f"G or G' is not finite at t={t!r}, y = {yv!r}") from None
        return gv, dg

    return FuncEval(g, g_d, "bessel_to_riccati")


def riccati_to_bessel(G, p: float, t_anchor: float, binding: dict | None = None) -> FuncEval:
    """Inverse of bessel_to_riccati, normalized to y(t_anchor) = 1: the
    positive profile y(t) = exp(-integral_anchor^t sgn(G)|G|^(1/(p-1))).

    Each call integrates from the anchor, so y(t) does not depend on what
    was evaluated before.  Divergence of the integral is boundary behavior
    (y tends to 0 or inf), not a failure.
    """
    g_v = evaluator(G, binding)

    def rate(s: float) -> float:  # -y'/y
        g = g_v(s)
        return math.copysign(abs(g) ** (1.0 / (p - 1.0)), g)

    def y(t: float) -> float:
        total = 0.0
        if t != t_anchor:
            lo, hi = (t_anchor, t) if t > t_anchor else (t, t_anchor)
            val, _ = quadrature.integrate(rate, lo, hi, rel_tol=1e-11)
            total = val if t > t_anchor else -val
        try:
            return math.exp(-total)
        except OverflowError:
            return math.inf

    def y_d(t: float) -> tuple[float, float]:
        # y' = -sgn(G)|G|^(1/(p-1)) y exactly, by construction
        yv = y(t)
        return yv, -rate(t) * yv

    return FuncEval(y, y_d, "riccati_to_bessel")
