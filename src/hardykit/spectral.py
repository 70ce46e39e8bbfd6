"""First Dirichlet eigenvalue of radial balls on model space forms (p = 2).

The continuous problem is the self-adjoint Sturm-Liouville form

    (s_kappa^{n-1}(t) v'(t))' + lambda s_kappa^{n-1}(t) v(t) = 0,  t in (0, R),

with v bounded at 0 (the density vanishes there, a natural boundary) and
v(R) = 0.  Discretization is a cell-centered finite-volume scheme on the
shifted grid t_j = (j + 1/2) h: the flux coefficient at the leftmost face
sits exactly at t = 0 where the density vanishes, so the natural boundary
needs no special casing and the scheme stays O(h^2).

The smallest eigenvalue of the pencil (A, B) is found by Newton's method on
log det(A - sigma B), evaluated by the LDL^T pivot recurrence with the pivot
derivative carried alongside.  The pencil's eigenvalues are real, so Newton
started below the smallest one rises monotonically towards it, and the
inertia count of each iterate (its negative pivots) must be 0: every iterate
is a certified lower bound.  Counts at doubling distances from Newton's
estimate then find where the count turns, and bisection of [0, Gershgorin
bound] pins that to a Sturm-count bracket of relative width 1e-14, taking
only the counts that the points counted so far leave open, a handful once
Newton has converged.  The counts are float64 pivot signs: the bracket
certifies where the computed count turns, which can lie up to ~2e-11
relative from the exact eigenvalue of the same pencil (1.8e-11 at kappa = 0,
n = 2, R = 2.98, N = 4693, against a 40-digit Newton on the pencil).  The
N/2 eigenvalue starts Newton at N, and the returned estimate is the
Richardson extrapolation of the N/2 and N eigenvalues.

The pencil is held in plain float lists, and each pass forms the diagonal
of A - sigma B inside its loop.  A ball whose pencil leaves float range
(densities s_kappa^{n-1} that overflow, or a mesh width whose square
overflows or underflows) raises DomainError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .geometry import ModelGeometry, _s_powers

__all__ = ["SpectralResult", "spectral_lambda1"]

# bracket width of the certified eigenvalue, relative to max(1, lambda)
_BRACKET_REL = 1e-14
# Newton stops when its step is this small relative to max(1, sigma): it
# converges quadratically, so the point reached is at rounding level
_NEWTON_REL = 1e-9
_NEWTON_MAX_ITER = 100
# first distance of the count search around Newton's estimate, relative to
# max(1, lambda): about the width over which rounding blurs the count
_GALLOP_REL = 1e-13
# the N/2 eigenvalue lowered by this fraction starts Newton at N
_GUESS_MARGIN = 1e-2


@dataclass
class SpectralResult:
    lambda1: float          # Richardson-extrapolated estimate
    lambda1_raw: float      # plain estimate at resolution N
    lambda1_coarse: float   # estimate at resolution N/2
    N: int


class _Pencil:
    """A - sigma B, with A symmetric tridiagonal (diag, off) and B positive
    diagonal, each a list of floats."""

    def __init__(self, diag: list[float], off: list[float], b: list[float]):
        self.diag, self.off, self.b = diag, off, b
        # squared couplings, with a leading 0 so the recurrence starts at d_0.
        # ** is libm pow, which can differ from x*x by an ulp; near the
        # eigenvalue an ulp moves the count, so the choice fixes the digits
        # of the result (pinned by tools/digest_outputs.py)
        self._off2 = [0.0] + [o ** 2 for o in off]
        # Gershgorin bound of B^{-1} A
        self.top = max(map(operator.truediv, diag, b)) + 2.0 * max(map(abs, off)) / min(b)

    def count_below(self, sigma: float) -> int:
        """Eigenvalues strictly below sigma: the negative pivots of LDL^T."""
        count = 0
        d = 1.0
        for c, bj, o2 in zip(self.diag, self.b, self._off2):
            d = c - sigma * bj - o2 / d
            if d <= 0.0:
                if d == 0.0:
                    d = -1e-300
                count += 1
        return count

    def newton(self, sigma: float) -> tuple[int, float]:
        """count_below(sigma), and the Newton step -1 / (d/dsigma log det)
        when that count is 0 (else 0.0).

        With e_j = o_{j-1}^2 / d_{j-1}, the pivots are d_j = c_j - e_j and
        their derivatives d'_j = -b_j + e_j d'_{j-1} / d_{j-1}; the ratios
        r_j = d'_j / d_j sum to the derivative of log det(A - sigma B).
        """
        count = 0
        d = 1.0
        r = 0.0
        g = 0.0
        for c, bj, o2 in zip(self.diag, self.b, self._off2):
            e = o2 / d
            d = c - sigma * bj - e
            if d <= 0.0:
                if d == 0.0:
                    d = -1e-300
                count += 1
            r = (e * r - bj) / d
            g += r
        # all pivots positive makes every r_j negative, so g < 0
        return count, (-1.0 / g if count == 0 else 0.0)

    def smallest_eigenvalue(self, guess: float = 0.0) -> float:
        """Smallest eigenvalue, certified by inertia: the midpoint of a bracket
        [lo, hi] of width <= 1e-14 max(1, hi) holding a counted point with no
        eigenvalue below it and one with at least one.  The counts are taken
        in float64, so the bracket holds the computed count's turning point,
        not the exact eigenvalue of the pencil to 1e-14: the two can differ
        by up to ~2e-11 relative.

        Newton runs from guess if 0 < guess < Gershgorin bound, else from 0;
        a count search around its estimate (or around a guess that has
        eigenvalues below it) leaves the bisection of [0, Gershgorin bound]
        only the last few counts to take.
        """
        top = self.top
        below, above = 0.0, top     # counted points: 0 below / >= 1 below
        sigma = x = guess if 0.0 < guess < top else 0.0
        for _ in range(_NEWTON_MAX_ITER):
            count, step = self.newton(sigma)
            if count:                   # rounding once converged, or a bad guess
                above = x = sigma
                break
            below = sigma
            x = sigma + step
            if not (step > _NEWTON_REL * max(1.0, sigma) and x < above):
                break
            sigma = x
        if below < x <= above:
            below, above = self._gallop(x, below, above)
        lo, hi = self._bisect(top, below, above)
        return 0.5 * (lo + hi)

    def _gallop(self, x: float, below: float, above: float) -> tuple[float, float]:
        """Narrow the counted points (below, above) around an estimate x of
        the eigenvalue: count at x, then at doubling distances from x on the
        side the eigenvalue lies, until the count turns."""
        up = self.count_below(x) == 0
        if up:
            below = x
        else:
            above = x
        dist = _GALLOP_REL * max(1.0, x)
        while True:
            p = x + dist if up else x - dist
            if not below < p < above:
                return below, above
            if self.count_below(p):
                above = p
                if up:
                    return below, above
            else:
                below = p
                if not up:
                    return below, above
            dist *= 2.0

    def _bisect(self, top: float, below: float, above: float) -> tuple[float, float]:
        """Bisection of [0, top] to width 1e-14 max(1, hi), taking counts only
        strictly between below (read as 0) and above (read as >= 1)."""
        lo, hi = 0.0, top
        while hi - lo > _BRACKET_REL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if mid <= below:
                lo = mid
            elif mid >= above:
                hi = mid
            elif self.count_below(mid):
                hi = above = mid
            else:
                lo = below = mid
        return lo, hi


def _pencil(geo: ModelGeometry, R: float, N: int) -> _Pencil:
    """The finite-volume pencil at resolution N."""
    h = R / (N + 0.5)
    h2 = h * h
    try:
        # the t = 0 face carries zero density
        a_face = _s_powers(geo.kappa, [j * h for j in range(N + 1)], geo.n - 1)
        a_cell = _s_powers(geo.kappa, [(j + 0.5) * h for j in range(N)], geo.n - 1)
        pencil = _Pencil([(a + a_next) / h2 for a, a_next in zip(a_face, a_face[1:])],
                         [-a / h2 for a in a_face[1:N]], a_cell)
        if 0.0 < pencil.top < math.inf:
            return pencil
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"the pencil of the ball R={R!r} (kappa={geo.kappa!r}, n={geo.n!r}) "
                      f"leaves float range at N={N}")


def spectral_lambda1(geo: ModelGeometry, R: float, N: int = 2000) -> SpectralResult:
    """Smallest Dirichlet eigenvalue of the radial ball of radius R.

    Solves at N/2 and N and Richardson-extrapolates the O(1/N^2) error.
    The N/2 eigenvalue, lowered by 1%, starts Newton at N.
    """
    if geo.p != 2.0:
        raise ParameterError(f"spectral solver supports p = 2 only, got p={geo.p!r}")
    if not 0.0 < R < math.inf:
        raise ParameterError(f"need finite R > 0, got {R!r}")
    try:
        N = operator.index(N)
    except TypeError:
        raise ParameterError(f"need an integer N, got {N!r}") from None
    if N < 200:
        raise ParameterError(f"need N >= 200, got {N!r}")
    lam_coarse = _pencil(geo, R, N // 2).smallest_eigenvalue()
    lam_fine = _pencil(geo, R, N).smallest_eigenvalue((1.0 - _GUESS_MARGIN) * lam_coarse)
    lam_extrap = lam_fine + (lam_fine - lam_coarse) / 3.0
    return SpectralResult(lambda1=lam_extrap, lambda1_raw=lam_fine,
                          lambda1_coarse=lam_coarse, N=N)
