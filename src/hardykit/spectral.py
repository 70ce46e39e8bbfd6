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
is a certified lower bound.  Where m eigenvalues lie about as far away as
the smallest, each step covers only 1/m of the distance (a stiff pencil at
large hyperbolic R, whose low eigenvalues cluster); there Newton leaps
towards the limit of its geometric steps, and a leap past the eigenvalue
counts >= 1 and is only an upper point.  Bisection of [0, 2 max(c_j / b_j)]
(the row-wise Gershgorin bound: each row's off-diagonals sum to at most c_j)
then pins the eigenvalue to a bracket of relative width N eps.  That is the
count's own resolution: float64 pivot signs are exact only for a pencil
perturbed by about N eps (Kahan 1966; Demmel, Dhillon and Ren 1995), and the
computed count turns about that far from the pencil's exact eigenvalue
(1.4e-12 relative, N eps = 1.0e-12, at kappa = 0, n = 2, R = 2.98, N = 4693,
against a 40-digit bisection of its count).  The bisection follows Newton's
estimate (none where Newton stops at _NEWTON_MAX_ITER unconverged):
midpoints between the points counted so far go its way uncounted, and the
two ends of the cell reached are counted; where one disagrees, the estimate
moves 1/2, 1, 2, ... cell widths past it and the descent repeats, and once
it leaves the counted points, or without an estimate, every open midpoint
is counted.  The count is monotone in sigma and the bisection's points are
fixed, so where Newton starts and where its estimate lies change which
points are counted and how many, never the bracket.

Each eigenvalue is taken coarse to fine.  Newton's uncertified estimates on
N/32 and N/16 cells (the second started 5% below the first; where Newton
stops unconverged, its last lower point) predict the N/2 eigenvalue by the
O(h^2) error model, and the N/16 estimate and the N/2 eigenvalue predict
the one at N; each prediction, lowered by a quarter of its distance from
the eigenvalue before, starts Newton.  A start with an eigenvalue below it
(the small pencils of a stiff ball overestimate) costs one pass, and Newton
runs again from 0.  The returned estimate is the Richardson extrapolation
of the N/2 and N eigenvalues.

The pencil is held as the rows of its pivot recurrence, built from one
sweep over the multiples of h/2 (faces at the even ones, cells at the odd
ones), and each pass forms the diagonal of A - sigma B inside its loop.  A
ball whose pencil leaves float range (densities s_kappa^{n-1} that overflow,
or a mesh width whose square overflows or underflows) raises DomainError.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .geometry import ModelGeometry

__all__ = ["SpectralResult", "spectral_lambda1"]

# Newton stops when its step is this small relative to sigma: it converges
# quadratically, so the point reached is at rounding level
_NEWTON_REL = 1e-9
_NEWTON_MAX_ITER = 100
# where Newton crawls, the next iterate goes this fraction of the way to
# the limit of its geometric steps
_LEAP = 0.3
# the count's resolution per cell, relative to lambda: a float64 count is
# exact only for a pencil perturbed by about N eps, so the bisection stops at
# a bracket this wide per cell
_BRACKET_REL = sys.float_info.epsilon
# the small pencils have N / 32 and N / 16 cells; Newton's estimate on the
# first, lowered by this fraction, starts Newton on the second
_SMALL_DIV = 16
_SMALL_MARGIN = 0.05
# the Richardson prediction of the eigenvalue at N/2 or N, lowered by this
# fraction of its distance from the eigenvalue before, starts Newton there
_PREDICTION_MARGIN = 0.25


@dataclass
class SpectralResult:
    lambda1: float          # Richardson-extrapolated estimate
    lambda1_raw: float      # plain estimate at resolution N
    lambda1_coarse: float   # estimate at resolution N/2
    N: int


class _Pencil:
    """A - sigma B, with A symmetric tridiagonal and B positive diagonal, as
    the rows (c_j, b_j, o_{j-1}^2) of the pivot recurrence (o_{-1} = 0, so
    that it starts at d_0), and top, the row-wise Gershgorin bound of B^-1 A."""

    def __init__(self, rows: list[tuple[float, float, float]], top: float):
        self._rows, self.top = rows, top

    def count_below(self, sigma: float) -> int:
        """Eigenvalues strictly below sigma: the negative pivots of LDL^T."""
        count = 0
        d = 1.0
        for c, bj, o2 in self._rows:
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
        for c, bj, o2 in self._rows:
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
        [lo, hi] of width <= N eps hi (or one float apart) holding a counted
        point with no eigenvalue below it and one with at least one.  The
        counts are taken in float64, so the bracket holds the computed
        count's turning point, about N eps relative from the exact eigenvalue
        of the pencil (1.4e-12 at N = 4693): a narrower one resolves rounding.

        Newton runs from guess if 0 < guess < Gershgorin bound, else from 0,
        and again from 0 if the guess has an eigenvalue below it; the
        bisection of [0, Gershgorin bound] follows its estimate and counts
        the two ends of the cell it reaches.  Which points are counted does
        not change the result: the bisection's points are fixed, and the
        count is monotone in sigma.
        """
        lo, hi = self._bisect(*self.newton_from(guess))
        return 0.5 * (lo + hi)

    def newton_from(self, guess: float) -> tuple[float, float, float]:
        """_newton from guess if 0 < guess < top, else from 0, and again from
        0 if the guess counts >= 1; its third entry is Newton's estimate."""
        sigma = guess if 0.0 < guess < self.top else 0.0
        below, above, x = self._newton(sigma, self.top)
        if below < sigma:               # the guess counted >= 1
            below, above, x = self._newton(0.0, above)
        return below, above, x

    def _newton(self, sigma: float, above: float) -> tuple[float, float, float]:
        """Newton from sigma: (below, above, x), the last iterate counted 0
        (else 0.0), the last counted >= 1 (else the given above), and the
        estimate x, 0.0 where Newton stops at _NEWTON_MAX_ITER unconverged.

        Started below the smallest eigenvalue, Newton rises towards it, but
        only by a fraction 1/m of the distance while m eigenvalues lie about
        as far; there its steps shrink geometrically, and where a step is
        more than 1 - _LEAP of the one before, the next iterate moves _LEAP
        of the way to the steps' limit (their sum, which lies beyond the
        eigenvalue).  An iterate that counts >= 1 ends the search, unless it
        was such a leap: then it becomes the upper point and Newton goes on
        from its own iterate.
        """
        below = prev = 0.0
        x = sigma
        for _ in range(_NEWTON_MAX_ITER):
            count, step = self.newton(sigma)
            if count:
                if sigma == x:          # rounding once converged, or a bad guess
                    return below, sigma, sigma
                above, sigma = sigma, x
                continue
            below = sigma
            x = sigma + step
            if not (step > _NEWTON_REL * sigma and x < above):
                break
            sigma = x
            if step < prev:
                leap = below + _LEAP * step * prev / (prev - step)
                if x < leap < above:
                    sigma = leap
                    step = 0.0          # the next step starts a new ratio
            prev = step
        else:                           # crawled to the end: no estimate
            x = 0.0
        return below, above, x

    def _bisect(self, below: float, above: float, x: float) -> tuple[float, float]:
        """Bisection of [0, top] to width N eps hi, or until the midpoint is an
        end, taking counts only strictly between below (read as 0) and above
        (read as >= 1).  While 0 < x and below <= x <= above, those go x's
        way uncounted and the ends of the cell reached are counted, the one
        nearer the last disagreement first; an end that disagrees becomes
        below or above, x moves 1/2, 1, 2, ... cell widths past it, and the
        descent repeats.  So a far x costs the doublings that take it out of
        (below, above), not a walk cell by cell."""
        past, up = 0.5, False
        while True:
            guided = 0.0 < x and below <= x <= above
            lo, hi = 0.0, self.top
            while hi - lo > _BRACKET_REL * len(self._rows) * hi and lo < (mid := 0.5 * (lo + hi)) < hi:
                if mid <= below:
                    lo = mid
                elif mid >= above:
                    hi = mid
                elif guided:
                    lo, hi = (mid, hi) if mid < x else (lo, mid)
                elif self.count_below(mid):
                    hi = above = mid
                else:
                    lo = below = mid
            if not guided:
                return lo, hi
            for end in (hi, lo) if up else (lo, hi):
                if below < end < above:
                    if self.count_below(end):
                        above = end
                    else:
                        below = end
            up = below == hi
            if not up and above != lo:
                return lo, hi
            x = hi + past * (hi - lo) if up else lo - past * (hi - lo)
            past *= 2.0


def _pencil(geo: ModelGeometry, R: float, N: int) -> _Pencil:
    """The finite-volume pencil at resolution N."""
    h = R / (N + 0.5)
    h2 = h * h
    half = 0.5 * h
    k = geo.n - 1
    try:
        # s_kappa(t)^k by geometry.s_value's float operations at the
        # multiples t of h/2, which are j h and (j + 1/2) h exactly: faces at
        # even multiples (the t = 0 face carries zero density), cells at odd.
        # x ** 1 is x, bit for bit
        if geo.kappa == 0.0:
            dens = [(j * half) ** k for j in range(2 * N + 1)]
        else:
            r = math.sqrt(-geo.kappa)
            sinh = math.sinh
            dens = [(sinh(r * (j * half)) / r) ** k for j in range(2 * N + 1)]
        faces, b = dens[0::2], dens[1::2]
        diag = [(a + a_next) / h2 for a, a_next in zip(faces, faces[1:])]
        # o_{j-1} = -a_j / h2 (0 at the t = 0 face).  ** is libm pow, which
        # can differ from x*x by an ulp; near the eigenvalue an ulp moves the
        # count, so the choice fixes the digits of the result (pinned by
        # tools/digest_outputs.py).  Row j's off-diagonals sum to at most c_j,
        # so the row-wise Gershgorin bound is 2 max(c_j / b_j)
        pencil = _Pencil([(c, bj, (a / h2) ** 2) for c, bj, a in zip(diag, b, faces)],
                         2.0 * max(map(operator.truediv, diag, b)))
        if 0.0 < pencil.top < math.inf:
            return pencil
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"the pencil of the ball R={R!r} (kappa={geo.kappa!r}, n={geo.n!r}) "
                      f"leaves float range at N={N}")


def _predict(m0: int, lam0: float, m1: int, lam1: float, m2: int) -> float:
    """lambda(m2) of lambda(M) = lambda + C / (M + 1/2)^2 through lambda(m0) =
    lam0 and lambda(m1) = lam1, lowered by _PREDICTION_MARGIN of its shift."""
    q0, q1, q2 = ((m + 0.5) ** -2 for m in (m0, m1, m2))
    shift = (lam1 - lam0) * (q2 - q1) / (q1 - q0)
    return lam1 + shift - _PREDICTION_MARGIN * abs(shift)


def spectral_lambda1(geo: ModelGeometry, R: float, N: int = 2000) -> SpectralResult:
    """Smallest Dirichlet eigenvalue of the radial ball of radius R.

    Solves at N/2 and N and Richardson-extrapolates the O(1/N^2) error.
    Newton's estimates on pencils of N/32 and N/16 cells (the second
    started from the first) predict by the O(1/N^2) error model where to
    start Newton at N/2, and the N/16 estimate and the N/2 eigenvalue
    predict where to start it at N.  Where Newton starts changes how many
    passes a solve takes, never a bit of the result.
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
    tiny, small = N // (2 * _SMALL_DIV), N // _SMALL_DIV
    lam_tiny = lam_small = 0.0

    def estimate(pencil: _Pencil, guess: float) -> float:
        """Newton's estimate, or its last lower point where it has none."""
        below, _, x = pencil.newton_from(guess)
        return x or below

    try:
        lam_tiny = estimate(_pencil(geo, R, tiny), 0.0)
        lam_small = estimate(_pencil(geo, R, small), (1.0 - _SMALL_MARGIN) * lam_tiny)
    except DomainError:     # a mesh width whose square overflows: start from 0
        pass
    lam_coarse = _pencil(geo, R, N // 2).smallest_eigenvalue(
        _predict(tiny, lam_tiny, small, lam_small, N // 2))
    lam_fine = _pencil(geo, R, N).smallest_eigenvalue(
        _predict(small, lam_small, N // 2, lam_coarse, N))
    lam_extrap = lam_fine + (lam_fine - lam_coarse) / 3.0
    return SpectralResult(lambda1=lam_extrap, lambda1_raw=lam_fine,
                          lambda1_coarse=lam_coarse, N=N)
