"""Closed-form radial kernel of the model space forms with curvature <= 0.

All quantities are functions of the distance t from a base point: the
curvature-trig functions ct_kappa and s_kappa (the radial measure is
n*omega_n*s_kappa(t)^(n-1) dt, with omega_n = unit_ball_volume(n)), the
comparison deficit D_kappa(t) = t*ct_kappa(t) - 1, and the unit-ball
volume.  The Laplacian comparison bounds that serve as the lower-bound
function L of a Riccati pair are expressions over these: (n-1)*ct(t) is the
exact model-space Laplacian and (n-1)*sqrt(-kappa) its large-t floor.

Positive curvature is rejected throughout: every certified inequality in
this toolkit lives on the kappa <= 0 range, and supporting spheres would
drag in cut-locus bookkeeping for no benefit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError, is_finite_number
from .specfun import gamma

__all__ = [
    "ModelGeometry",
    "unit_ball_volume",
]

# Below sqrt(-kappa)*t = 1e-4 the direct t*coth - 1 form of the deficit loses
# every significant digit; both ct and the deficit switch to 5-term Taylor
# expansions there.
_TAYLOR_CUT = 1e-4


@dataclass(frozen=True)
class ModelGeometry:
    """Finite curvature bound kappa <= 0, dimension n >= 2, exponent p > 1."""

    kappa: float
    n: int
    p: float

    def __post_init__(self):
        for name in ("kappa", "n", "p"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ParameterError(f"{name}={value!r} is not a finite number")
        if self.kappa > 0.0:
            raise ParameterError(f"kappa={self.kappa!r} > 0 rejected (model range is kappa <= 0)")
        if self.n < 2 or int(self.n) != self.n:
            raise ParameterError(f"dimension n={self.n!r} must be an integer >= 2")
        if not self.p > 1.0:
            raise ParameterError(f"exponent p={self.p!r} must be > 1")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    def binding(self) -> dict[str, float]:
        """Geometry parameters in the form expression bindings expect."""
        return {"kappa": self.kappa, "n": float(self.n), "p": self.p}


def _coth(x: float) -> float:
    # stable on (0, inf): Taylor below, 1 + 2/(e^{2x}-1) in the middle, 1 at top
    if x < _TAYLOR_CUT:
        x2 = x * x
        return 1.0 / x + x / 3.0 - x * x2 / 45.0 + 2.0 * x2 * x2 * x / 945.0
    if x > 350.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * x)


def ct_value(kappa: float, t: float) -> float:
    """ct_kappa(t): 1/t for kappa = 0, sqrt(-kappa) coth(sqrt(-kappa) t) below."""
    if t <= 0.0:
        raise DomainError(f"ct requires t > 0, got {t!r}")
    if kappa == 0.0:
        return 1.0 / t
    r = math.sqrt(-kappa)
    return r * _coth(r * t)


def s_value(kappa: float, t: float) -> float:
    """s_kappa(t): t for kappa = 0, sinh(sqrt(-kappa) t)/sqrt(-kappa) below."""
    if t < 0.0:
        raise DomainError(f"s requires t >= 0, got {t!r}")
    if kappa == 0.0:
        return t
    r = math.sqrt(-kappa)
    x = r * t
    try:
        return math.sinh(x) / r
    except OverflowError:
        return math.inf


def s_value_dt(kappa: float, t: float) -> float:
    """d/dt s_kappa(t) = cosh(sqrt(-kappa) t) (equals 1 at kappa=0)."""
    if kappa == 0.0:
        return 1.0
    try:
        return math.cosh(math.sqrt(-kappa) * t)
    except OverflowError:
        return math.inf


def deficit_value(kappa: float, t: float) -> float:
    """D_kappa(t) = t*ct_kappa(t) - 1 >= 0, continuous with value 0 at t=0."""
    if t < 0.0:
        raise DomainError(f"deficit requires t >= 0, got {t!r}")
    if t == 0.0 or kappa == 0.0:
        return 0.0
    m = -kappa
    x = math.sqrt(m) * t
    if x < _TAYLOR_CUT:
        # t*ct - 1 with ct from its own Taylor series cancels catastrophically
        t2 = t * t
        return m * t2 / 3.0 * (1.0 - m * t2 / 15.0 + 2.0 * m * m * t2 * t2 / 315.0)
    return t * ct_value(kappa, t) - 1.0


def deficit_value_dt(kappa: float, t: float) -> float:
    """d/dt D_kappa(t) = ct + t*(-kappa - ct^2)."""
    if kappa == 0.0:
        return 0.0
    m = -kappa
    x = math.sqrt(m) * t
    if x < _TAYLOR_CUT:
        t2 = t * t
        return 2.0 * m * t / 3.0 - 4.0 * m * m * t * t2 / 45.0 + 12.0 * m**3 * t2 * t2 * t / 945.0
    c = ct_value(kappa, t)
    return c + t * (-kappa - c * c)


def unit_ball_volume(n: int) -> float:
    """omega_n = pi^(n/2) / Gamma(1 + n/2)."""
    return math.pi ** (n / 2.0) / gamma(1.0 + n / 2.0)

