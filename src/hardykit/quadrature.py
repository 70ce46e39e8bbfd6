"""Adaptive Gauss-Kronrod (7-15) quadrature with graded meshes.

The integrands this package meets are smooth away from the interval ends but
may carry integrable power singularities at an end and spread their mass
over hundreds of decades (near-extremal Hardy test functions).  Plain
bisection-adaptivity cannot find the decades, so the initial panel list is
graded: any panel spanning more than a decade is split geometrically.
Caller supplied breakpoints (kinks of piecewise test functions) are honored
exactly.  After seeding, standard worst-panel-first refinement runs until
the summed Kronrod-vs-Gauss error estimate meets the tolerance, within
_MAX_SUBDIVISIONS subdivisions; it halves its way into a singular end.
integrate_panels is that loop over any panel function, (a, b) -> (value,
error estimate); integrate runs it over kronrod_panel of a plain
integrand, and the verifier's one radial panel loops over the same
nodes in the same order and sums its node values with kronrod_panel's
code.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable, Iterable

from .errors import DomainError, QuadratureError

__all__ = ["integrate", "integrate_panels", "kronrod_panel"]

# the error estimate below which any integral is accepted, whatever its value
_ABS_TOL = 1e-300
# the refinements integrate_panels takes before it gives up
_MAX_SUBDIVISIONS = 2000

# 15-point Kronrod abscissae (positive half) with weights, and the embedded
# 7-point Gauss weights on the shared nodes.  Values generated from the
# defining orthogonality conditions in exact/50-digit arithmetic and checked
# for degree-22 (resp. degree-13) polynomial exactness.
_XGK = (
    0.0,
    0.2077849550078984676007,
    0.4058451513773971669066,
    0.5860872354676911302941,
    0.7415311855993944398639,
    0.8648644233597690727897,
    0.9491079123427585245262,
    0.9914553711208126392069,
)
_WGK = (
    0.2094821410847278280130,
    0.2044329400752988924142,
    0.1903505780647854099133,
    0.1690047266392679028266,
    0.1406532597155259187452,
    0.1047900103222501838399,
    0.0630920926299785532907,
    0.0229353220105292249637,
)
# Gauss weights for nodes 0, +-x2, +-x4, +-x6 (even Kronrod indices)
_WG = (
    0.4179591836734693877551,
    0.3818300505051189449504,
    0.2797053914892766679015,
    0.1294849661688696932706,
)


# kronrod_panel's node order: the midpoint, then mid - dx and mid + dx with
# dx = half * x_i for i = 1..7; node t is mid + half * _NODES[k], bitwise
_NODES = (0.0,) + tuple(s * x for x in _XGK[1:] for s in (-1.0, 1.0))
# per pair i = 1..7: the index of its first node, its Kronrod weight, and
# its Gauss weight (even i) or None
_PAIRS = tuple((2 * i - 1, _WGK[i], _WG[i // 2] if i % 2 == 0 else None) for i in range(1, 8))


def kronrod_panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(Kronrod 15 estimate, |K15 - G7| error estimate) on [a, b]; a
    non-finite value of f raises QuadratureError naming its t."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fs: list[float] = []
    try:
        for x in _NODES:
            fs.append(f(mid + half * x))
    except Exception as exc:  # re-raised unless a value before it was not finite
        return _panel_sums(fs, mid, half, exc)
    return _panel_sums(fs, mid, half)


def _panel_sums(fs: list[float], mid: float, half: float,
                exc: Exception | None = None) -> tuple[float, float]:
    """kronrod_panel's result from its node values fs, in _NODES order.

    fs ends where exc, if given, was raised.  The midpoint's value, then
    each pair's once both are in, must be finite: the first that is not
    raises QuadratureError naming its t; else exc, or DomainError: the sum overflowed."""
    if exc is None and len(fs) == 15:
        sk = _WGK[0] * fs[0]
        sg = _WG[0] * fs[0]
        for k, wk, wg in _PAIRS:
            pair = fs[k] + fs[k + 1]
            sk += wk * pair
            if wg is not None:
                sg += wg * pair
        if math.isfinite(sk * half):  # every value is finite, and so is the sum
            return sk * half, abs(sk - sg) * abs(half)
    for k in range(0, len(fs), 2):
        for i in (k - 1, k) if k else (0,):
            if not math.isfinite(fs[i]):
                raise QuadratureError(f"integrand non-finite at t={mid + half * _NODES[i]!r}")
    if exc is not None:
        raise exc
    raise DomainError(f"panel sum overflows on [{mid - half!r}, {mid + half!r}]")


def _graded_edges(lo: float, hi: float, breakpoints: Iterable[float]) -> list[float]:
    edges = {lo, hi}
    for b in breakpoints:
        if lo < b < hi:
            edges.add(b)
    base = sorted(edges)
    out = [base[0]]
    for a, b in zip(base, base[1:]):
        if a > 0.0 and b / a > 10.0:
            # geometric subdivision, one panel per decade (b/a, 10^k overflow at a subnormal a)
            decades = math.log10(b / a) if b / a < math.inf else math.log10(b) - math.log10(a)
            for k in range(1, int(math.ceil(decades))):
                e = a * 10.0**k if k <= 308 else a * 1e308 * 10.0**(k - 308)
                if e < b:
                    out.append(e)
        out.append(b)
    return out


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float]:
    """Adaptive integral of f over [lo, hi]; returns (value, error estimate).

    Raises QuadratureError if the tolerance is not met within
    _MAX_SUBDIVISIONS refinements.  It is integrate_panels over
    kronrod_panel of f.
    """
    return integrate_panels(functools.partial(kronrod_panel, f), lo, hi, rel_tol, breakpoints)


def integrate_panels(
    panel: Callable[[float, float], tuple[float, float]],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    breakpoints: Iterable[float] = (),
) -> tuple[float, float]:
    """integrate's adaptive loop over a panel function: panel(a, b) is the
    (value, error estimate) of the integral on [a, b], as kronrod_panel
    gives it for a plain integrand.  Each panel is asked for once."""
    if hi <= lo:
        raise QuadratureError(f"empty integration interval [{lo!r}, {hi!r}]")
    edges = _graded_edges(lo, hi, breakpoints)
    heap: list[tuple[float, float, float, float]] = []  # (-err, a, b, value)
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges, edges[1:]):
        val, err = panel(a, b)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, a, b, val))

    for _ in range(_MAX_SUBDIVISIONS):
        if total_err <= max(_ABS_TOL, rel_tol * abs(total)):
            break
        neg_err, a, b, val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval exhausted at float resolution
            heapq.heappush(heap, (neg_err * (1.0 - 1e-6), a, b, val))
            continue
        v1, e1 = panel(a, mid)
        v2, e2 = panel(mid, b)
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err  # neg_err = -old error
        heapq.heappush(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))

    if not math.isfinite(total):
        raise DomainError(f"integral overflows from finite panel sums on [{lo!r}, {hi!r}]")
    if total_err <= max(_ABS_TOL, rel_tol * abs(total)):
        return total, total_err
    raise QuadratureError(
        f"tolerance not reached after {_MAX_SUBDIVISIONS} subdivisions "
        f"(value {total!r}, error estimate {total_err!r})"
    )
