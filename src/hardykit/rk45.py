"""Embedded Dormand-Prince 5(4) integrator for scalar first-order ODEs.

Tailored to Riccati equations: the right-hand side can have a finite-time
blow-up, so the stepper reports divergence (value beyond a cap, or the step
collapsing under 1e-14 of the current abscissa) as a structured outcome
instead of an error.  Steps are clamped so requested sample abscissae are
hit exactly; no interpolation error enters at the reported points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConvergenceError

__all__ = ["IntegrationOutcome", "integrate_to_samples"]

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

BLOWUP_CAP = 1e12
_MIN_STEP_FRACTION = 1e-14
_MAX_STEPS = 1_000_000
# a step is accepted when |y5 - y4| <= _ABS_TOL + _REL_TOL * max(|y|, |y5|)
_REL_TOL, _ABS_TOL = 1e-10, 1e-12


@dataclass
class IntegrationOutcome:
    ts: list[float]
    ys: list[float]
    blew_up: bool
    blow_up_t: float | None
    reason: str = ""


def integrate_to_samples(
    f: Callable[[float, float], float],
    t0: float,
    y0: float,
    sample_ts: Sequence[float],
) -> IntegrationOutcome:
    """Integrate y' = f(t, y) from (t0, y0), landing on each sample abscissa.

    sample_ts must be sorted away from t0 (ascending for forward integration,
    descending for backward).  Returns the samples reached; if the solution
    blows up, integration stops there and the outcome records the location.
    """
    samples = list(sample_ts)
    if not samples:
        return IntegrationOutcome([], [], False, None)
    forward = samples[-1] >= t0
    sgn = 1.0 if forward else -1.0
    for a, b in zip(samples, samples[1:]):
        if (b - a) * sgn <= 0.0:
            raise ConvergenceError("sample grid must be strictly monotone in the integration direction")
    if (samples[0] - t0) * sgn < -(abs(t0) + 1.0) * 1e-15:
        raise ConvergenceError(
            f"sample {samples[0]!r} lies behind the start t0={t0!r} for this direction")

    out_t: list[float] = []
    out_y: list[float] = []
    t, y = t0, y0
    k1 = f(t, y)
    h = sgn * min(abs(samples[-1] - t0) / 100.0, 0.1 * (abs(t0) + 1.0))
    idx = 0
    # emit any samples that coincide with the start
    while idx < len(samples) and samples[idx] == t0:
        out_t.append(t0)
        out_y.append(y0)
        idx += 1

    for _ in range(_MAX_STEPS):
        if idx >= len(samples):
            return IntegrationOutcome(out_t, out_y, False, None)
        target = samples[idx]
        if (target - t) * sgn <= (abs(t) + 1.0) * 1e-16:
            out_t.append(target)
            out_y.append(y)
            idx += 1
            continue
        if abs(h) > abs(target - t):
            h = target - t
        ks = [k1]
        failed = False
        for stage in range(1, 7):
            ts = t + h * (0.0, _C2, _C3, _C4, _C5, 1.0, 1.0)[stage]
            ys = y + h * sum(a * k for a, k in zip(_A[stage], ks))
            try:
                ks.append(f(ts, ys))
            except (ArithmeticError, ValueError):
                failed = True
                break
            if not math.isfinite(ks[-1]):
                failed = True
                break
        if not failed:
            y5 = y + h * sum(b * k for b, k in zip(_B5, ks))
            y4 = y + h * sum(b * k for b, k in zip(_B4, ks))
            err = abs(y5 - y4)
            scale = _ABS_TOL + _REL_TOL * max(abs(y), abs(y5))
        if failed or not math.isfinite(y5):
            h *= 0.5
            if abs(h) < _MIN_STEP_FRACTION * max(abs(t), 1e-30):
                return IntegrationOutcome(out_t, out_y, True, t, "step collapsed at evaluation failure")
            continue
        if err <= scale:
            t = t + h
            y = y5
            k1 = ks[6]  # FSAL
            if abs(y) > BLOWUP_CAP:
                return IntegrationOutcome(out_t, out_y, True, t, f"|G| exceeded {BLOWUP_CAP:g}")
            if t == target:
                out_t.append(t)
                out_y.append(y)
                idx += 1
            grow = 0.9 * (scale / err) ** 0.2 if err > 0.0 else 5.0
            h *= min(5.0, max(0.2, grow))
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
        if abs(h) < _MIN_STEP_FRACTION * max(abs(t), 1e-30):
            return IntegrationOutcome(out_t, out_y, True, t, "step size underflow (blow-up)")
    raise ConvergenceError("step budget exhausted in ODE integration")  # pragma: no cover
