"""Radial test functions for quadrature-based inequality checks.

All profiles are piecewise C^1 with u and u' evaluable at quadrature nodes,
vanishing (exactly, or below 1e-300) at the outer support boundary.  Their
breakpoints are where an adaptive mesh starts: kink abscissae; for
gaussian_type and talenti, the scale marks (0.25, 1, 4)/scale near their
mass; for compact_bump, the dyadic marks (1/2, 3/4, 7/8, 15/16) of the
half-width toward both ends of its support, where |u'| is steepest.
power_cutoff declares its plateau, whose mass has a closed form.

power_cutoff is the near-extremal Hardy profile: an inner plateau on
(0, r0], the power t^(-sigma+eps) up to the cut start, then a p-capacitor
cut to 0 at R (the p-harmonic radial profile; for n = p a logarithmic cut,
for n < p a linear one).  The capacitor cut matters: its energy stays O(1)
per member while a linear cut in t costs enough to keep the achieved Hardy
quotient above 0.2524 for every float-representable r0, blocking the
documented 0.2510 sweep target.  Its plateau value r0^(-sigma+eps) reaches
e^(660 sigma) at the float floor r0 = e^-660, beyond float range once sigma
exceeds about 1.05; it is never stored, and quadrature reads the profile
through log_abs_u and log_abs_du, so every sigma > 0 is admissible where
the cut's derivative stays above the float floor at R (for p = 2 and R = 100,
n + alpha - p up to 161); beyond, power_cutoff raises ParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ParameterError
from .exprdsl import ScalarExpr, evaluator

__all__ = [
    "RadialTestFunction",
    "compact_bump",
    "power_cutoff",
    "gaussian_type",
    "talenti",
    "from_expr",
]

# log of the smallest positive float: a value whose log lies below it underflows to 0
_LOG_FLOAT_FLOOR = math.log(5e-324)


def _scale_marks(scale: float, end: float) -> tuple[float, ...]:
    """The scale marks (0.25, 1, 4)/scale that lie inside (0, end)."""
    return tuple(b for b in (0.25 / scale, 1.0 / scale, 4.0 / scale) if 0.0 < b < end)


@dataclass
class RadialTestFunction:
    """u and du on [support_lo, support_hi]; breakpoints are kinks, scale
    marks and a bump's dyadic marks, where adaptive meshes start, and all a
    profile tells the mesh (a singular end is found by bisection); plateau
    is (r0, log|u|) where u is that constant on (0, r0]."""

    kind: str
    u: Callable[[float], float]
    du: Callable[[float], float]
    support_lo: float
    support_hi: float
    breakpoints: tuple[float, ...] = ()
    params: dict = field(default_factory=dict)
    # log-magnitude evaluators (-inf where the value is 0); near-extremal
    # profiles span magnitudes far beyond float range, so integrands must be
    # assembled in log space without ever materializing u or u'
    log_abs_u: Callable[[float], float] | None = None
    log_abs_du: Callable[[float], float] | None = None
    plateau: tuple[float, float] | None = None

    def __repr__(self):
        ps = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"RadialTestFunction({self.kind}: {ps})"


def compact_bump(center: float, width: float) -> RadialTestFunction:
    """Smooth bump exp(1 - 1/(1-x^2)), x = (t-center)/width, on
    (center-width, center+width), with breakpoints at x = 0, +-1 and the
    dyadic marks +-(1/2, 3/4, 7/8, 15/16), toward the ends, where |u'| is
    steepest.  Where width > 0.9931*center the mark at x = -15/16 lies more
    than a decade above center-width, and log-space integrals run in ln t
    from center-width."""
    if not (0.0 < width < center):
        raise ParameterError(f"need 0 < width < center, got center={center!r}, width={width!r}")

    def u(t: float) -> float:
        x = (t - center) / width
        if abs(x) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - x * x))

    def du(t: float) -> float:
        x = (t - center) / width
        if abs(x) >= 1.0:
            return 0.0
        g = 1.0 - x * x
        return math.exp(1.0 - 1.0 / g) * (-2.0 * x / (g * g)) / width

    return RadialTestFunction(
        "compact_bump", u, du, center - width, center + width,
        breakpoints=tuple(center + x * width for x in (-1.0, -0.9375, -0.875, -0.75, -0.5,
                                                       0.0, 0.5, 0.75, 0.875, 0.9375, 1.0)),
        params={"center": center, "width": width})


def power_cutoff(eps: float, r0: float, R: float, n: int, p: float,
                 alpha: float = 0.0) -> RadialTestFunction:
    """Near-extremal Hardy profile for the weight t^alpha in dimension n.

    Plateau on (0, r0], power law t^(-sigma+eps) with sigma = (n+alpha-p)/p
    on [r0, 0.01*R], capacitor cut to 0 at R.
    """
    sigma = (n + alpha - p) / p
    if not (r0 > 0.0 and R > r0):
        raise ParameterError(f"need 0 < r0 < R, got r0={r0!r}, R={R!r}")
    rc = R * 0.01
    if rc <= r0:
        rc = math.sqrt(r0 * R)  # short power region: cut from the geometric midpoint
    if not (r0 < rc < R):
        raise ParameterError(f"cut start {rc!r} must lie inside (r0, R)")
    expo = -sigma + eps
    u_rc = rc**expo

    exp_np = n + alpha - p
    if exp_np > 0.0:
        ecut = -exp_np / (p - 1.0)
        denom = rc**ecut - R**ecut

        def cut(t: float) -> float:
            return u_rc * (t**ecut - R**ecut) / denom

        def dcut(t: float) -> float:
            return u_rc * ecut * t ** (ecut - 1.0) / denom

        def log_abs_dcut_closed(t: float) -> float:
            return expo * math.log(rc) + math.log(-ecut) + (ecut - 1.0) * math.log(t) \
                - math.log(denom)

        # |dcut| falls toward R; where it underflows to 0 its log does not
        # exist, and logs taken from the formula give ratios below the sharp
        # constant (the masses fail there too)
        if denom > 0.0 and log_abs_dcut_closed(R) < _LOG_FLOAT_FLOOR:
            raise ParameterError(f"the cut's derivative underflows to 0 before R={R!r} "
                                 f"(n + alpha - p = {exp_np!r})")
    elif exp_np == 0.0:
        lnr = math.log(R / rc)

        def cut(t: float) -> float:
            return u_rc * math.log(R / t) / lnr

        def dcut(t: float) -> float:
            return -u_rc / (t * lnr)
    else:
        span = R - rc

        def cut(t: float) -> float:
            return u_rc * (R - t) / span

        def dcut(t: float) -> float:
            return -u_rc / span

    log_r0 = math.log(r0)

    def log_abs_u(t: float) -> float:
        if t <= r0:
            return expo * log_r0
        if t <= rc:
            return expo * math.log(t)
        if t < R:
            v = cut(t)
            return math.log(v) if v > 0.0 else -math.inf
        return -math.inf

    def log_abs_du(t: float) -> float:
        if t <= r0 or t >= R:
            return -math.inf
        if t <= rc:
            return math.log(abs(expo)) + (expo - 1.0) * math.log(t)
        v = dcut(t)
        if v == 0.0 and exp_np > 0.0:
            # t^(ecut - 1) underflows before the product does
            return log_abs_dcut_closed(t)
        return math.log(abs(v))

    def u(t: float) -> float:
        lg = log_abs_u(t)
        if lg == -math.inf:
            return 0.0
        return math.exp(lg) if lg < 700.0 else math.inf

    def du(t: float) -> float:
        if t <= r0 or t >= R:
            return 0.0
        if t <= rc:
            lg = log_abs_du(t)
            v = math.exp(lg) if lg < 700.0 else math.inf
            return math.copysign(v, expo)
        return dcut(t)

    return RadialTestFunction(
        "power_cutoff", u, du, 0.0, R,
        breakpoints=(r0, rc),
        params={"eps": eps, "r0": r0, "R": R, "sigma": sigma},
        log_abs_u=log_abs_u, log_abs_du=log_abs_du, plateau=(r0, expo * log_r0))


def gaussian_type(alpha: float, p: float, scale: float = 1.0) -> RadialTestFunction:
    """u(t) = exp(-(scale*t)^gamma / p), gamma = 1 + alpha/(p-1)."""
    gamma = 1.0 + alpha / (p - 1.0)
    if gamma <= 0.0:
        raise ParameterError(f"need gamma = 1 + alpha/(p-1) > 0, got {gamma!r}")
    if scale <= 0.0:
        raise ParameterError(f"need scale > 0, got {scale!r}")
    R = (700.0 * p) ** (1.0 / gamma) / scale

    def u(t: float) -> float:
        return math.exp(-((scale * t) ** gamma) / p)

    def du(t: float) -> float:
        if t == 0.0:
            return 0.0 if gamma > 1.0 else -scale / p if gamma == 1.0 else -math.inf
        return -(gamma / p) * scale * (scale * t) ** (gamma - 1.0) * u(t)

    return RadialTestFunction(
        "gaussian_type", u, du, 0.0, R, breakpoints=_scale_marks(scale, R),
        params={"alpha": alpha, "p": p, "scale": scale, "gamma": gamma})


def talenti(alpha: float, p: float, r: float, scale: float = 1.0) -> RadialTestFunction:
    """u(t) = (1 + (scale*t)^gamma)^((p-1)/(p-r)) with a linear outer taper.

    The taper runs from 200/scale to 400/scale, where the algebraic tail is
    ~1e-5 of the peak, so its contribution to every integral is far below
    sweep tolerances.
    """
    if not r > p > 1.0:
        raise ParameterError(f"talenti profile needs r > p > 1, got r={r!r}, p={p!r}")
    gamma = 1.0 + alpha / (p - 1.0)
    if not gamma > 0.0:
        raise ParameterError(f"need gamma > 0, got {gamma!r}")
    if not (scale > 0.0 and 0.0 < 200.0 / scale < math.inf):
        raise ParameterError(f"need scale > 0 with 200/scale finite and positive, got {scale!r}")
    ex = (p - 1.0) / (p - r)  # negative
    taper_start = 200.0 / scale
    R = 2.0 * taper_start

    def core(t: float) -> float:
        return (1.0 + (scale * t) ** gamma) ** ex

    def dcore(t: float) -> float:
        if t == 0.0:
            return 0.0 if gamma > 1.0 else ex * scale if gamma == 1.0 else -math.inf
        base = 1.0 + (scale * t) ** gamma
        return ex * base ** (ex - 1.0) * gamma * scale * (scale * t) ** (gamma - 1.0)

    try:
        u_ts = core(taper_start)
    except OverflowError:  # (scale*t)^gamma is largest there, at 200^gamma
        raise ParameterError(f"talenti profile with gamma={gamma!r} overflows a float "
                             f"at t={taper_start!r}") from None
    span = R - taper_start

    def u(t: float) -> float:
        if t <= taper_start:
            return core(t)
        if t < R:
            return u_ts * (R - t) / span
        return 0.0

    def du(t: float) -> float:
        if t <= taper_start:
            return dcore(t)
        if t < R:
            return -u_ts / span
        return 0.0

    return RadialTestFunction(
        "talenti", u, du, 0.0, R,
        breakpoints=(*_scale_marks(scale, taper_start), taper_start),
        params={"alpha": alpha, "p": p, "r": r, "scale": scale, "gamma": gamma})


def random_bumps(count: int, seed: int, lo: float = 0.0, hi: float = math.inf,
                 span: float = 10.0) -> list[RadialTestFunction]:
    """Deterministic family of smooth bumps inside (lo, hi)."""
    import random

    rng = random.Random(seed)
    hi_eff = min(hi, (lo if lo > 0.0 else 0.0) + span)
    out = []
    for _ in range(count):
        center = rng.uniform(lo + 0.15 * (hi_eff - lo), lo + 0.85 * (hi_eff - lo))
        max_w = min(center - lo, hi_eff - center)
        width = rng.uniform(0.2, 0.9) * max_w
        out.append(compact_bump(center, width))
    return out


def from_expr(expr: ScalarExpr, R: float, binding: dict | None = None) -> RadialTestFunction:
    """Wrap a parsed expression of t as a test function on (0, R]."""
    value, dual = evaluator(expr, binding), evaluator(expr, binding, dual=True)

    def u(t: float) -> float:
        return value(t) if t < R else 0.0

    def du(t: float) -> float:
        return dual(t)[1] if t < R else 0.0

    return RadialTestFunction("dsl", u, du, 0.0, R, params={"source": expr.source})
