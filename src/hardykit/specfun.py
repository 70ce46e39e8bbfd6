"""Special-function core: Gamma, Bessel J of real order, Bessel zeros and
ratios, and the Gauss hypergeometric function for nonpositive argument.

Everything here is scalar and deterministic.  J_nu and J_(nu+1) come from
one pass of Miller's backward recurrence (Gautschi, SIAM Rev. 9 (1967)
24-82), except at tiny x, where the ascending series' first term alone
serves, and at x >= 20 where also x >= nu: there Hankel's expansion (DLMF
10.17.3) gives the two orders below 2, and the forward recurrence, stable
for orders below x (Gautschi, ibid.), takes them up to nu.  The ratio
J_(nu+1)/J_nu is Gauss's continued
fraction up to x = 10, summed by the modified Lentz method with no state
kept between calls, and the quotient of two mpmath.besselj values above,
where near the first zero the fraction falls far behind mpmath.  Bessel
zeros come from Newton's method on J and J', seeded by asymptotic
forms (McMahon's for k >= 2) and safeguarded by bisection in a bracket that
holds only the wanted zero.  The Gauss function is evaluated through the
Pfaff map w = z/(z-1), which turns z <= 0 into w in [0, 1), up to -z = 3
and by the connection formula in 1/z beyond; where b - a is near an
integer, and that formula cancels, the Pfaff map serves up to -z = 40 and
above it the formula's limit as b - a tends to the integer, in floats: each
term of one series paired with its partner in the other, and their
difference carried as Gamma-function differences that stay finite at the
integer (DLMF 15.8.8; Forrey, J. Comput. Phys. 137 (1997) 79-100).  Where
that limit's own error estimate is too large, as for c - a near an integer,
mpmath.hyp2f1 serves.
Where c - b is near a negative integer and the Pfaff series in a would sum
to a small remainder, the other Pfaff form, the series in b, is summed.
hyp2f1_with_dz returns dF/dz beside F from one series pass: the loop that
sums F also sums k times each term, for a few terms more once F has
converged, and a closed form turns that into the derivative; for hyp2f1
alone the pass sums F only.
hyp2f1ratio and hyp2f1ratio_with_dz give the contiguous ratio
r = F(a+1, b+1; c+1; z) / F(a, b; c; z) = (c / ab) F'/F (DLMF 15.5.1) and
its z-derivative: for c > 0 and 0 < -z <= 12 (40 for b - a near an integer)
from Gauss's continued fraction (DLMF 15.7), by the modified Lentz method;
else from one series pass of the denominator that also sums k (k-1) times
each term, for d2F/dz2, only when a caller asks, so hyp2f1 keeps its cost.
mpmath is imported on first use, by the two mpmath branches, so a process
that stays on the float paths never loads it.

Certificates and margins call these kernels at every node with the same
parameters, so what depends on them alone is kept in one small cache,
filled on first use: a plan per parameter set (_Plan), with the decisions
the contiguous ratio takes from (a, b, c) alone, the continued fraction's
partial numerators, and the 1/z formula's Gamma coefficients and first
term ratios of its two series, so that a ratio call checks only z.  A plan
never changes once formed, so threads share it.  The float operations and
their order are the same with or without the plans, so every value is
bitwise the same.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    UnsupportedRangeError,
)

__all__ = [
    "gamma",
    "rgamma",
    "bessel_j",
    "bessel_zero",
    "bessel_ratio",
    "bessel_ratio_dx",
    "hyp2f1",
    "hyp2f1_with_dz",
    "hyp2f1ratio",
    "hyp2f1ratio_with_dz",
]

BESSEL_NU_MAX = 50.0
BESSEL_X_MAX = 200.0

# Up to this argument bessel_ratio sums Gauss's continued fraction.  Near
# the first zero, which lies above 10 for nu > 7.2, the fraction's error
# follows the condition number x r'/r ~ 1/gap (gap = 1 - x/j_(nu,1)): at
# nu = 7.3 to 50 it is 2e-14 to 9e-13 off at gap 1e-4 and up to 1e-10 at
# 1e-6, where mpmath's quotient is within 2e-16; so above it bessel_ratio
# takes that quotient.
_RATIO_FRACTION_XMAX = 10.0
# working precision of mpmath.besselj and mpmath.hyp2f1, a few digits above double
_MP_DPS = 20

# Above -z = _HYP_CONNECT the 1/z connection formula (terms shrinking by
# 1/|z|) costs less than the Pfaff series (ratio z/(z-1) -> 1).  Near an
# integer b - a its two Gamma-weighted terms cancel: on Ghoussoub-Moradifam
# parameters it is within 4e-14 of mpmath at 1e-3 from an integer, but off
# by 1e-9 and more at 2e-8.  Gaps within _HYP_GAP_GUARD keep the Pfaff series
# up to -z = _HYP_BIGZ, past which it needs thousands of terms, and the
# formula's logarithmic limit above it (_hyp2f1_bigz_log), where its own
# error estimate is at most _HYP_LOG_COND units of 2^-53 (7e-15), within
# _HYP_LOG_TERMS terms; mpmath.hyp2f1 elsewhere.
_HYP_CONNECT = 3.0
_HYP_BIGZ = 40.0
_HYP_GAP_GUARD = 1e-3
_HYP_LOG_COND = 64.0
_HYP_LOG_TERMS = 60
# Stirling's series for lnGamma(y) on y >= _STIRLING_Y, B_2k / (2k (2k - 1))
# for k = 1..6: the next term's derivative is below 1e-16 there
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_Y = 12.0
# Where c - a is within this of an integer, and c - b near a negative one,
# the Pfaff series in b is summed rather than the one in a (_hyp2f1_pair)
_HYP_SWAP_GAP = 1e-2
_HYP_MAX_TERMS = 200_000
# mpmath.hyp2f1's cost there grows with |a|, |b| and log(-z), and without
# bound as c falls to 0 and below ((1.5, 0.5; -2.5; -1e100) ran over 4 s on a
# 2 vCPU x86 host); in this box no call took 0.2 s
_HYP_MP_AB = 20.0
_HYP_MP_CMIN, _HYP_MP_CMAX = 1e-3, 1e3
_HYP_MP_ZMAX = 1e8
# For c > 0 and 0 < -z <= _FRAC_ZHI (_HYP_BIGZ for b - a within
# _HYP_GAP_GUARD of an integer) the contiguous ratio is Gauss's continued
# fraction: 17 steps at -z = 0.5, 53 at 8, 140 at 40, past 12 the 1/z
# formula costs less.  The series serves for c <= 0 (c + k near 0: 1.9e-12
# off, the series 2.2e-13), past _FRAC_MAX_STEPS, and where r's numerator
# cancels more than _FRAC_CANCEL-fold (r near 0, as for c near 0: 1e-5 off
# at c = 1e-11; Ghoussoub-Moradifam draws cancel at most 6.2-fold, 16 of
# 3000 general ones more).
_FRAC_ZHI = 12.0
_FRAC_MAX_STEPS = 200
_FRAC_CANCEL = 16.0
# Below this z^2, the smallest normal float, the series' d2F/dz2 = E / z^2
# underflows; r = 1 + O(z) rounds to 1 there, and r' to its value at 0
_TINY_Z2 = 2.0 ** -1022
# At most this many least recently used parameter sets keep a plan (a
# Ghoussoub-Moradifam certify uses one), with the first _HYP_CONNECT_ROWS
# term ratios of each of the 1/z formula's two series: the passes of plans
# met again read at most 24 (perfbench's certify_mix and margins_mix), and
# more rows would cost fresh parameters more to build than they save.
_HYP_PLANS = 8
_HYP_CONNECT_ROWS = 24
# The Bessel continued fraction takes at most this many terms; the
# modified Lentz method stops where a step moves the value by at most
# _LENTZ_EPS relative, and puts _LENTZ_TINY for a zero partial quotient.
_BESSEL_MAX_TERMS = 10_000
_LENTZ_EPS = 2.2e-16
_LENTZ_TINY = 1e-300
# From this argument on, where also x >= nu, _bessel_pair takes J_m and
# J_(m+1) (m = nu - floor(nu)) from Hankel's expansion.  There its terms for
# orders below 2 fall below 1e-17 within 27 terms, before they start to grow
# near k = 2x; at x = 15 the smallest of them is 1.5e-14, so the expansion
# alone cannot serve below.  At x = 20 the terms grow again past k = 40.
_HANKEL_XMIN = 20.0
_HANKEL_MAX_TERMS = 40


def _is_nonpositive_integer(x: float, tol: float = 1e-12) -> bool:
    return x <= tol and abs(x - round(x)) <= tol


def _gamma_arg(name: str, x: float) -> None:
    if x != x or x == -math.inf:  # no pole, and Gamma has no limit there
        raise UnsupportedRangeError(f"{name} needs x other than NaN and -inf, got {x!r}")


def gamma(x: float) -> float:
    """Gamma function on the real line, poles excluded: math.gamma's
    ValueError at a non-positive integer is a PoleError, an overflow (x =
    inf included) a DomainError, NaN and -inf an UnsupportedRangeError.

    Relative error is at libm level (well below 1e-12 on [0.5, 170]).
    """
    _gamma_arg("gamma", x)
    try:
        g = math.gamma(x)
    except ValueError as exc:
        raise PoleError(f"gamma pole at x={x!r}") from exc
    except OverflowError:
        g = math.inf
    if g == math.inf:
        raise DomainError(f"gamma({x!r}) overflows double precision")
    return g


def rgamma(x: float) -> float:
    """Reciprocal Gamma, with the natural value 0 at the poles and where
    Gamma overflows (x > 171.6, x = inf included).  Off the integers below
    about -171, where Gamma is subnormal or underflows to 0 and so 1/Gamma
    leaves float range, a DomainError; NaN and -inf raise
    UnsupportedRangeError, as in gamma."""
    _gamma_arg("rgamma", x)
    try:
        g = math.gamma(x)
    except (ValueError, OverflowError):
        return 0.0
    r = 1.0 / g if g else math.inf
    if math.isinf(r):
        raise DomainError(f"1/gamma({x!r}) overflows double precision")
    return r


def _bessel_mp(nu: float, x: float) -> float:
    import mpmath
    with mpmath.workdps(_MP_DPS):
        return float(mpmath.besselj(nu, x))


def _miller_start(nu: float, x: float) -> int:
    """Start N of the backward recurrence, far enough above nu and x to be forgotten."""
    top = max(nu, x)
    return int(top + 20.0 + 16.0 * top ** (1.0 / 3.0)) + 2


def _hankel_sums(mu: float, x: float) -> tuple[float, float]:
    """(P, Q) of Hankel's expansion J_m(x) = sqrt(2 / (pi x)) (P cos w - Q sin w),
    w = x - (m/2 + 1/4) pi, for mu = 4 m^2 (DLMF 10.17.3): P and Q sum
    (-1)^floor(k/2) a_k(m) / x^k over even and odd k, with a_0 = 1 and
    a_k / a_(k-1) = (mu - (2k - 1)^2) / (8k), until a term is below 1e-17."""
    p, q, t = 1.0, 0.0, 1.0
    eight_x = 8.0 * x
    for k in range(1, _HANKEL_MAX_TERMS, 2):
        t *= (mu - (2 * k - 1) ** 2) / (k * eight_x)
        q += t
        t *= ((2 * k + 1) ** 2 - mu) / ((k + 1) * eight_x)
        p += t
        if abs(t) <= 1e-17:
            return p, q
    raise ConvergenceError(f"Hankel's expansion did not settle at mu={mu!r}, x={x!r}")


def _bessel_pair(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), J_(nu+1)(x)) for x >= 0, with m = nu - floor(nu).

    Where x >= 20 and x >= nu, J_m and J_(m+1) come from Hankel's expansion
    (_hankel_sums), its phase formed from cos x and sin x by angle addition,
    and the forward recurrence J_(k+1) = (2k / x) J_k - J_(k-1), k = m + 1,
    m + 2, ..., takes them up to nu.  On a 2 vCPU x86 host that costs 6 to
    12 us a value, falling with x, where the backward recurrence, whose
    length grows with x, cost 19 to 25 us at x in [20, 30] and 49 to 53 us
    at [120, 200].

    Elsewhere, at 17 to 20 us a value, by Miller's backward recurrence
    f_(j-1) = ((m + j) / (x/2)) f_j - f_(j+1), from f_N = 1 and f_(N+1) = 0,
    normalized by the Neumann series (x/2)^m = sum_k (m + 2k) Gamma(m + k) /
    k! J_(m+2k)(x) (DLMF 10.23.E2).  Its weights over Gamma(m + 1) are summed
    by Horner's rule on the way down, with the k = 0 weight m Gamma(m) taken
    as Gamma(m + 1), so no integer nu meets Gamma's pole.

    Where x^2 < 4e-17 (nu + 1), the ascending series' second term is below
    1e-17 of its first, (x/2)^nu / Gamma(nu + 1), so that term alone is J_nu,
    and the same for J_(nu+1).  They are taken as products from order m,
    since math.gamma(nu + 1) is up to 1.3e-14 off near nu = 30.  Below
    x = 1e-250 or so the recurrence's first step factor would leave float
    range."""
    n = int(nu)
    m = nu - n
    half = 0.5 * x
    if x >= _HANKEL_XMIN and x >= nu:
        # cos w and sin w by angle addition, so that w is never rounded
        cx, sx = math.cos(x), math.sin(x)
        phi = (0.5 * m + 0.25) * math.pi
        cp, sp = math.cos(phi), math.sin(phi)
        cw, sw = cx * cp + sx * sp, sx * cp - cx * sp
        amp = math.sqrt(2.0 / (math.pi * x))
        p, q = _hankel_sums(4.0 * m * m, x)
        p1, q1 = _hankel_sums(4.0 * (m + 1.0) ** 2, x)
        # J_(m+1) has phase w - pi/2
        jn, jn1 = amp * (p * cw - q * sw), amp * (p1 * sw + q1 * cw)
        for k in range(1, n + 1):
            jn, jn1 = jn1, ((m + k) / half) * jn1 - jn
        return jn, jn1
    if x * x < 4e-17 * (nu + 1.0):
        term = half**m / math.gamma(m + 1.0)
        for k in range(1, n + 2):
            jn, term = term, term * half / (m + k)
        return jn, term
    up, f, tail = 0.0, 1.0, 0.0  # f_(j+1), f_j and the Horner sum over k >= 1
    jn = jn1 = 0.0
    for j in range(_miller_start(nu, x), 0, -1):
        if j % 2 == 0:
            tail = (m + j) * f + tail * ((m + j // 2) / (j // 2 + 1))
        if j == n:
            jn, jn1 = f, up
        up, f = f, ((m + j) / half) * f - up
        if abs(f) > 1e250:  # rescale all before the f_j leave float range
            f, up, tail, jn, jn1 = (v * 1e-250 for v in (f, up, tail, jn, jn1))
    if n == 0:
        jn, jn1 = f, up
    scale = half**m / (math.gamma(m + 1.0) * (f + tail))
    return jn * scale, jn1 * scale


def _bessel_box(nu: float, x: float) -> None:
    if not (0.0 <= nu <= BESSEL_NU_MAX):
        raise UnsupportedRangeError(f"bessel_j order nu={nu!r} outside [0, {BESSEL_NU_MAX}]")
    if not (0.0 <= x <= BESSEL_X_MAX):
        raise UnsupportedRangeError(f"bessel_j argument x={x!r} outside [0, {BESSEL_X_MAX}]")


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x) on 0<=nu<=50, 0<=x<=200.
    Within 3e-16 of 40-digit mpmath on 3000 seeded draws with x log-uniform
    in [1e-9, 10].  On 3000 with x in [10, 200], within 1.6e-16 where
    x >= 20 and x >= nu (Hankel's expansion; at most 4.0e-16 on the tests'
    points, near x = nu, where the backward recurrence was up to 8.1e-16
    off) and 2.8e-16 elsewhere; within 4e-15 relative where x < nu and
    |J| > 1e-290.  A value costs 6 to 12 us where x >= 20 and x >= nu, and
    17 to 20 us elsewhere (2 vCPU x86 host)."""
    _bessel_box(nu, x)
    return _bessel_pair(nu, x)[0]


def _bessel_j_with_dx(nu: float, x: float) -> tuple[float, float]:
    """(bessel_j(nu, x), dJ_nu/dx) for x > 0, both from one _bessel_pair
    pass: J' = (nu/x) J_nu - J_(nu+1).  Where nu/x overflows (x below
    nu / 1.8e308), J' is the series' first term (x/2)^(nu-1) / (2 Gamma(nu)),
    formed without x/2, which rounds to 0 at the smallest subnormal."""
    _bessel_box(nu, x)
    j, j1 = _bessel_pair(nu, x)
    if nu / x == math.inf:
        first = 0.5 * 2.0 ** (1.0 - nu) / math.gamma(nu)
        # x^(nu-1) as x^nu / x below nu = 1/2, where nu - 1 rounds
        return j, first * x ** nu / x if nu < 0.5 else first * x ** (nu - 1.0)
    return j, (nu / x) * j - j1


def _first_zero_estimate(nu: float) -> float:
    """j_{nu,1} to within 0.06 on 0 <= nu <= 50."""
    if nu < 1.0:
        beta = (0.75 + nu / 2.0) * math.pi
        return beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)
    # large-order expansion of the first zero
    c = nu ** (1.0 / 3.0)
    return nu + 1.8557571 * c + 1.033150 / c - 0.00397 / nu


def _mcmahon(nu: float, k: int) -> float:
    """McMahon's expansion of j_{nu,k}, accurate for k large against nu."""
    mu = 4.0 * nu * nu
    b8 = 8.0 * (k + nu / 2.0 - 0.25) * math.pi
    return b8 / 8.0 - (mu - 1.0) / b8 - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8 ** 3)


@lru_cache(maxsize=4096)
def bessel_zero(nu: float, k: int) -> float:
    """k-th positive zero of J_nu, correctly rounded.

    Newton from an asymptotic first guess (the large-order expansion for
    k = 1, McMahon's for k >= 2), safeguarded by bisection inside a bracket
    that holds the k-th zero and no other, on _bessel_pair in float and,
    for its last step, on the backward recurrence in 34-digit decimals.
    Each of 800 seeded (nu, k) zeros was 40-digit mpmath's, rounded.
    Supported for nu <= 50, k <= 20.
    """
    if not (0.0 <= nu <= BESSEL_NU_MAX):
        raise UnsupportedRangeError(f"bessel_zero order nu={nu!r} outside [0, {BESSEL_NU_MAX}]")
    if not (1 <= k <= 20):
        raise UnsupportedRangeError(f"bessel_zero index k={k!r} outside [1, 20]")

    # On the box consecutive zeros are less than 5.7 apart (the widest gap is
    # j_{50,1} to j_{50,2}) and more than 3.1, so (j_{k-1}, j_{k-1} + 6) holds
    # j_k and no other zero, and the sign of J places each of its points: J
    # has the sign of (-1)^(k-1) below j_k.  For k = 1 the guess is within
    # 0.06 of j_1, so (guess - 2.5, guess + 2.5) holds j_1 alone.
    if k == 1:
        x = _first_zero_estimate(nu)
        lo, hi = max(0.0, x - 2.5), x + 2.5
    else:
        lo = bessel_zero(nu, k - 1)
        hi = lo + 6.0
        x = min(max(_mcmahon(nu, k), lo + 0.1), hi - 0.1)
    positive_below = k % 2 == 1
    for _ in range(80):
        # J and J' = (nu/x) J - J_(nu+1) from one _bessel_pair pass
        fx, fx1 = _bessel_pair(nu, x)
        if (fx > 0.0) == positive_below:
            lo = x
        else:
            hi = x
        step = fx / ((nu / x) * fx - fx1)
        x -= step
        # Newton's error after a step s is about s^2 / (2 x) here (J'' = -J'/x
        # at a zero), below 5e-11 x once |s| <= 1e-5 x; that last step is
        # taken even if it lands on a bracket end
        if abs(step) <= 1e-5 * x:
            break
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    # Float J near its zero is some 1e-16 off, enough to move the zero by an
    # ulp; one more step with q = J_nu / J_(nu+1) from the same recurrence in
    # 34-digit decimals leaves about 1e-21 x, since J_nu' / J_(nu+1) = (nu/x) q - 1
    from decimal import Context, Decimal, localcontext  # imported on first use
    n = int(nu)
    with localcontext(Context(prec=34)):
        xd = Decimal(x)
        m, half = Decimal(nu) - n, xd / 2
        up, f = Decimal(0), Decimal(1)
        for j in range(_miller_start(nu, x), n, -1):
            up, f = f, (m + j) / half * f - up
        q = f / up
        return float(xd - q / (Decimal(nu) / xd * q - 1))


def bessel_ratio(nu: float, x: float) -> float:
    """J_{nu+1}(x) / J_nu(x) on 0 < x < j_{nu,1}; strictly positive there,
    and at least 5e-324 (the nearest positive float).

    Up to x = 10 it is Gauss's continued fraction (DLMF 10.10.1)
    1 / (b_1 - 1 / (b_2 - ...)) with b_k = (nu + k) / (x / 2), evaluated
    forward by the modified Lentz method; a b_k formed with a rounded 2 / x
    would raise the error near the first zero 1.6 to 2 times.  It is within
    2e-14 relative where gap = 1 - x / j_{nu,1} >= 1e-2, and its error grows
    like 1 / gap nearer the zero (6e-13 at gap 1e-4).  Below x = 1e-150,
    where b_1 would soon overflow, it is the first convergent x / (2 nu + 2).
    Above x = 10, mpmath.besselj's quotient."""
    if not (0.0 <= nu <= BESSEL_NU_MAX):
        raise UnsupportedRangeError(f"bessel_ratio order nu={nu!r} outside [0, {BESSEL_NU_MAX}]")
    if not (x > 0.0):
        raise DomainError(f"bessel_ratio needs x > 0, got {x!r}")
    j1 = bessel_zero(nu, 1)
    if x >= j1:
        raise DomainError(
            f"bessel_ratio needs x < first zero j_({nu},1) = {j1:.12g}, got {x!r}"
        )
    if x > _RATIO_FRACTION_XMAX:
        return _bessel_mp(nu + 1.0, x) / _bessel_mp(nu, x)
    if x < 1e-150:  # the fraction's value to 1e-300 relative
        return max(x / (2.0 * nu + 2.0), 5e-324)
    half = 0.5 * x
    f = c = (nu + 1.0) / half
    d = 0.0
    for k in range(2, _BESSEL_MAX_TERMS):
        b = (nu + k) / half
        d = b - d
        c = b - 1.0 / c
        if d == 0.0:
            d = _LENTZ_TINY
        if c == 0.0:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _LENTZ_EPS:
            return 1.0 / f
    raise ConvergenceError(f"bessel_ratio fraction stalled at nu={nu}, x={x}")


def bessel_ratio_dx(nu: float, x: float, ratio: float | None = None) -> float:
    """d/dx of J_{nu+1}/J_nu, in closed form from the recurrences:
    r' = 1 - (2 nu + 1) r / x + r^2.
    """
    r = bessel_ratio(nu, x) if ratio is None else ratio
    return 1.0 - (2.0 * nu + 1.0) * r / x + r * r


def _series_2f1(a: float, b: float, c: float, x: float, order: int,
                ratios: tuple[float, ...] = ()) -> tuple[float, float, float]:
    """Plain ascending Gauss series at argument x, |x| < 1: its sum S and,
    up to derivative ``order`` (0, 1 or 2), D = sum k term_k = x dS/dx and
    E = sum k (k-1) term_k = x^2 d2S/dx2, all from the same terms; those not
    asked for are 0.0, and what is asked for does not depend on the rest.
    The term ratios (a + k)(b + k) / ((c + k)(k + 1)) are read from
    ``ratios`` as far as it goes, and formed inline past its end, with the
    same float operations."""
    n = len(ratios)
    second = order == 2
    total = term = 1.0
    comp = dsum = esum = 0.0
    k = 0.0  # a float counter: k + 1.0 is formed once, for the term and for D
    small = 0
    for i in range(_HYP_MAX_TERMS):
        k1 = k + 1.0
        term *= (ratios[i] if i < n else (a + k) * (b + k) / ((c + k) * k1)) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if order:
            dsum += k1 * term
            if second:
                esum += k * k1 * term
        if term == 0.0:
            return total, dsum, esum
        if abs(term) <= 1e-17 * (abs(total) + 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        k = k1
    else:
        raise ConvergenceError(
            f"hypergeometric series did not converge at x={x!r} "
            f"(parameters {a!r}, {b!r}, {c!r})"
        )
    if not order:
        return total, dsum, esum
    # D's terms are k times S's, so D's tail outlasts S's stopping rule; past
    # it the terms shrink geometrically, and the first one below 1e-17 of D
    # ends D's sum.  E's terms are k - 1 times D's, so E's tail goes on the
    # same way past D's.
    d_open = abs(k1 * term) > 1e-17 * (abs(dsum) + 1e-300)
    while d_open or second and abs(k * k1 * term) > 1e-17 * (abs(esum) + 1e-300):
        i += 1
        k = k1
        k1 = k + 1.0
        term *= (ratios[i] if i < n else (a + k) * (b + k) / ((c + k) * k1)) * x
        if d_open:
            dsum += k1 * term
            d_open = abs(k1 * term) > 1e-17 * (abs(dsum) + 1e-300)
        if second:
            esum += k * k1 * term
    return total, dsum, esum


class _Plan:
    """What the contiguous ratio takes from one parameter set (a, b, c),
    a <= b, alone, so that a call checks only z: whether the set is refused
    (a non-finite parameter, or c a pole), whether a b = 0 (F = 1), and the
    continued fraction's band, band <= z < 0 (empty, band = inf, where the
    fraction never serves; up to -z = 40 where b - a is within
    _HYP_GAP_GUARD of an integer); and, formed on first use, what the
    fraction reads and what the 1/z formula reads (connection).  Nothing
    changes once formed (two threads may both form a part, with the same
    values), so threads share a plan.  0.0 and -0.0 share one too: no part
    depends on a zero's sign, and where one reaches a value, the kernels
    take it from the call.

    _hyp2f1_pair keeps its own per-call checks: a plan met once costs a call
    more than they do (the lru entry, the object and, with caches cold, the
    memory they touch), and reading them from one put 9 to 14% on the median
    op of perfbench's constants workload, whose hyp2f1 calls all take fresh
    parameters."""

    __slots__ = ("a", "b", "c", "refused", "unit", "band", "_fraction", "_connection")

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = a, b, c
        self._fraction = self._connection = None
        self.unit = a * b == 0.0
        self.band = math.inf
        # 0 a b c is 0 when all three are finite, as round() needs them
        self.refused = not 0.0 * a * b * c == 0.0 or _is_nonpositive_integer(c)
        if self.refused:
            return
        if c > 0.0 and not self.unit:
            near = abs((b - a) - round(b - a)) <= _HYP_GAP_GUARD
            self.band = -(_HYP_BIGZ if near else _FRAC_ZHI)

    def fraction(self) -> tuple:
        """(p, c - p, a + b + 1, a b / c, d_1, (d_2, ..., d_200)) for the
        continued fraction, formed on the first call: p the one of a, b
        larger in magnitude, ties broken by sign, so that r is symmetric in
        a, b, and s the other."""
        if self._fraction is None:
            a, b, c = self.a, self.b, self.c
            p, s = (a, b) if abs(a) > abs(b) or abs(a) == abs(b) and a > b else (b, a)
            cs, cp = c - s, c - p
            table = []
            for k in range(1, _FRAC_MAX_STEPS):
                h, ck = float(k // 2), c + k
                num = (p + h) * (cs + h) if k % 2 == 0 else (s + h + 1.0) * (cp + h + 1.0)
                table.append(num / (ck * (ck + 1.0)))
            self._fraction = (p, cp, a + b + 1.0, a * b / c, p * cs / (c * (c + 1.0)),
                              tuple(table))
        return self._fraction

    def connection(self, gamma=gamma, rgamma=rgamma) -> tuple:
        """The 1/z formula's two Gamma coefficients (DLMF 15.8.2) and the
        first _HYP_CONNECT_ROWS term ratios of each of its two series, formed
        on the first call; gamma and rgamma are bound here, so the public
        calls made do not depend on caching."""
        if self._connection is None:
            a, b, c = self.a, self.b, self.c
            coefs = (gamma(c) * gamma(b - a) * rgamma(b) * rgamma(c - a),
                     gamma(c) * gamma(a - b) * rgamma(a) * rgamma(c - b))
            # the series' parameters as _hyp2f1_bigz forms them
            self._connection = coefs + tuple(
                tuple([(p + k) * (q + k) / ((r + k) * (k + 1.0))
                       for k in map(float, range(_HYP_CONNECT_ROWS))])
                for p, q, r in ((a, a - c + 1.0, a - b + 1.0), (b, b - c + 1.0, b - a + 1.0)))
        return self._connection


_plan = lru_cache(maxsize=_HYP_PLANS)(_Plan)


def _hyp2f1_bigz(a: float, b: float, c: float, z: float,
                 order: int) -> tuple[float, float, float]:
    """Connection formula in 1/z for z -> -inf, and its derivatives up to
    ``order`` (0.0 above it); needs a <= b, b - a non-integer, and reads its
    coefficients and term ratios from the (a, b, c) plan.  Each term
    C (-z)^(-a_i) S_i(1/z) has derivative C (-z)^(-a_i) (-a_i S_i - D_i) / z
    and second derivative
    C (-z)^(-a_i) (a_i (a_i+1) S_i + 2 (a_i+1) D_i + E_i) / z^2."""
    inv = 1.0 / z
    coef_a, coef_b, rows_a, rows_b = _plan(a, b, c).connection()
    out = dout = ddout = 0.0
    for ai, other, coef, rows in ((a, b, coef_a, rows_a), (b, a, coef_b, rows_b)):
        if coef != 0.0:
            scale = coef * (-z) ** (-ai)
            s, d, e = _series_2f1(ai, ai - c + 1.0, ai - other + 1.0, inv, order, rows)
            out += scale * s
            dout += scale * (-ai * s - d)
            if order == 2:
                ddout += scale * (ai * (ai + 1.0) * s + 2.0 * (ai + 1.0) * d + e)
    if not order:
        return out, 0.0, 0.0
    return out, inv * dout, inv * inv * ddout


def _diff_error(x: float, y: float) -> float:
    """|(x - y) - fl(x - y)|, exactly (Knuth's TwoSum)."""
    s = x - y
    xs = s + y
    return abs((x - xs) + (-y - (s - xs)))


def _log1p_over(x: float) -> float:
    """log1p(x) / x, and its limit 1 at x = 0."""
    return math.log1p(x) / x if x else 1.0


def _log_step(y: float, e: float, dy: float, de: float) -> tuple[float, float]:
    """(h, bound) for h = (ln(y + e) - ln(y)) / e, 1/y at e = 0: the step of
    (lnGamma(y + e) - lnGamma(y)) / e from y to y + 1.  Its error is about
    bound units of 2^-53, with y off by dy units and e by de units; the
    rounding of e / y alone moves h by 1 / |y + e| units."""
    h = _log1p_over(e / y) / y
    ye = y + e
    return h, abs(h) + (1.0 + dy / abs(y)) / abs(ye) + de / (2.0 * ye * ye)


def _lgamma_slope(k: float, x: float, e: float, dx: float, de: float) -> tuple[float, float]:
    """(lnGamma(y + e) - lnGamma(y)) / e at y = k + x, psi(y) at e = 0, and the
    bound of _log_step.  Below y = _STIRLING_Y it steps down from Stirling's
    series at y + s; each (k + i) + x is one rounding, so exact near a pole."""
    val = bound = 0.0
    while k + x < _STIRLING_Y:
        h, hb = _log_step(k + x, e, dx, de)
        val -= h
        bound += hb
        k += 1.0
    y = k + x
    # (y - 1/2) ln(y) - y + sum_k c_k y^(1 - 2k) differenced: with u = 1/(y + e)
    # and v = 1/y, (u^n - v^n) / e = -u v p_n, p_(n+1) = u p_n + v^n, p_1 = 1
    u, v = 1.0 / (y + e), 1.0 / y
    p, vn, series = 1.0, v, 0.0
    for ck in _STIRLING:
        series += ck * p
        p = u * p + vn
        vn *= v
        p = u * p + vn
        vn *= v
    series *= -u * v
    lead = (y - 0.5) * v * _log1p_over(e * v)
    ln = math.log(y + e)
    return (val + lead + ln - 1.0 + series,
            bound + abs(lead) + abs(ln) + 1.0 + abs(series))


def _hyp2f1_bigz_log(a: float, b: float, c: float, z: float) -> float | None:
    """F(a, b; c; z) for a <= b, b - a = m + eps with m = round(b - a) and
    |eps| <= 1e-3, and 40 < -z < inf: the limit eps -> 0 of the 1/z formula
    (DLMF 15.8.2, and 15.8.8 at eps = 0; R. C. Forrey, J. Comput. Phys. 137
    (1997) 79-100).  None where its error estimate exceeds _HYP_LOG_COND
    units of 2^-53 or its terms do not settle in _HYP_LOG_TERMS.

    With d = c - a, P = Gamma(c) / (Gamma(b) Gamma(d)) and (x)_n Pochhammer's,
    F / (P (-z)^(-a)) = sum_(n<m) Gamma(m - n + eps) (a)_n (1-d)_n / n! (-z)^(-n)
    + (-z)^(-m) pi eps / sin(pi eps) sum_j V_j z^(-j) S_j, where
    V_j = (a)_(m+j) (1-d)_(m+j) / (Gamma(1 + j - eps) (m + j)!) pairs the first
    series' term m + j with the second's term j, S_j = -expm1(eps (lam_j -
    ln(-z))) / eps (ln(-z) - lam_j at eps = 0) and lam_j = g(a + m + j, eps)
    + g(1 - d + m + j, eps) - g(m + j + 1, eps) - g(1 + j, -eps) +
    ln(sin(pi (d - eps)) / sin(pi d)) / eps, g(y, e) = (lnGamma(y + e) -
    lnGamma(y)) / e, all finite at eps = 0.  The estimate bounds the error
    of every part of each term against the sum, in units of 2^-53, the
    exact roundings of d and of b - a included: near a pole of Gamma or of
    cot(pi d) they move lam_j most.  A pole or an overflow on the way raises
    ArithmeticError or ValueError."""
    m = round(b - a)
    mf = float(m)
    eps = (b - a) - mf
    d = c - a
    r = d - round(d)  # exact: cot(pi d) = cot(pi r) with no rounding of pi d
    sr = math.sin(math.pi * r)
    cot = math.cos(math.pi * r) / sr
    # the roundings of d and of b - a, exact, in units of 2^-53
    ad, de = _diff_error(c, a) * 2.0 ** 53, _diff_error(b, a) * 2.0 ** 53
    if eps == 0.0:
        pe, lrho = 1.0, -math.pi * cot
        lrho_bound = abs(lrho) + (ad + de) * (math.pi / sr) ** 2
    else:
        pe = math.pi * eps / math.sin(math.pi * eps)
        half = math.sin(0.5 * math.pi * eps)
        cs = cot * math.sin(math.pi * eps)
        rho1 = -2.0 * half * half - cs  # rho - 1, rho = sin(pi (d - eps)) / sin(pi d)
        lrho = rho1 / eps * _log1p_over(rho1)
        rho = abs(1.0 + rho1)
        lrho_bound = (abs(lrho) + (2.0 * half * half + abs(cs)) / (rho * abs(eps))
                      + (ad + de) * (math.pi / (sr * min(rho, 1.0))) ** 2)
    ln = math.log(-z)
    lam = lam_bound = 0.0
    for k, x, e, dx, sign in ((mf, a, eps, 0.0, 1.0), (1.0 + mf, -d, eps, ad, 1.0),
                              (1.0 + mf, 0.0, eps, 0.0, -1.0), (1.0, 0.0, -eps, 0.0, -1.0)):
        g, gb = _lgamma_slope(k, x, e, dx, de)
        lam += sign * g
        lam_bound += gb
    lam += lrho
    lam_bound += lrho_bound
    # the m finite terms, and p = (a)_m (1-d)_m / m! for V_0
    q = -1.0 / z
    head = head_bound = 0.0
    p = qn = 1.0
    for n in range(m):
        nf = float(n)
        t = math.gamma(mf - nf + eps) * p * qn
        head += t
        head_bound += abs(t)
        p *= (a + nf) * ((1.0 + nf) - d) / (nf + 1.0)
        qn *= q
    v = p / math.gamma(1.0 - eps)
    inv = 1.0 / z
    tail = tail_bound = 0.0
    small = 0
    for j in range(_HYP_LOG_TERMS):
        u = eps * (lam - ln)
        eu = math.expm1(u)
        s = (ln - lam) * (eu / u if u else 1.0)
        tail += v * s
        # dS/dlam = -exp(u), and V_j carries about 4 j roundings
        tb = abs(v) * (abs(s) * (1.0 + 4.0 * j) + (ln + lam_bound) * (1.0 + abs(eu)))
        tail_bound += tb
        small = small + 1 if tb <= 1e-17 * abs(tail) else 0
        if small == 2:
            break
        jf = float(j)
        y1, y2, y3, y4 = (mf + jf) + a, (1.0 + mf + jf) - d, mf + jf + 1.0, 1.0 + jf
        h1, b1 = _log_step(y1, eps, 0.0, de)
        h2, b2 = _log_step(y2, eps, ad, de)
        h3, b3 = _log_step(y3, eps, 0.0, de)
        h4, b4 = _log_step(y4, -eps, 0.0, de)
        lam += h1 + h2 - h3 - h4
        lam_bound += b1 + b2 + b3 + b4
        v *= y1 * y2 * inv / ((y4 - eps) * y3)
    else:
        return None
    scale = (-z) ** -mf * pe
    total = head + scale * tail
    # d's rounding moves 1/Gamma(d) and the factors 1 - d + i by up to ad / |r|
    # units relative near their zeros
    if not (head_bound + abs(scale) * tail_bound) / abs(total) + ad / abs(r) <= _HYP_LOG_COND:
        return None
    return math.gamma(c) / (math.gamma(b) * math.gamma(d)) * (-z) ** -a * total


def _hyp2f1_args(a: float, b: float, c: float, z: float) -> None:
    """Raises the error for arguments the kernels refuse: a non-finite a, b
    or c or a pole c (what a plan marks refused), or a NaN or positive z."""
    if not 0.0 * a * b * c == 0.0 or z != z:  # 0 a b c is 0 when all three are finite
        raise UnsupportedRangeError(
            f"hyp2f1 needs finite a, b, c and a z that is not NaN, got {a!r}, {b!r}, {c!r}, {z!r}")
    if _is_nonpositive_integer(c):
        raise PoleError(f"hyp2f1 third parameter c={c!r} is a nonpositive integer")
    if z > 0.0:
        raise UnsupportedRangeError(f"hyp2f1 argument z={z!r} > 0 unsupported")


def _hyp2f1_pair(a: float, b: float, c: float, z: float,
                 order: int = 0) -> tuple[float, float, float]:
    """F, dF/dz and d2F/dz2 up to derivative ``order`` (0, 1 or 2), the
    derivatives from the same series pass as F; d2F/dz2 is 0.0 below order
    2 and dF/dz 0.0 at order 0, the order hyp2f1 asks for, on every branch.
    Where b - a is near an integer and -z > 40, the derivatives asked for
    come from the contiguous relations dF/dz = (a b / c) F(a+1, b+1; c+1; z)
    and its repetition, at one more evaluation each."""
    _hyp2f1_args(a, b, c, z)
    second = order == 2
    if z == 0.0:
        slope = a * b / c if order else 0.0
        return 1.0, slope, slope * ((a + 1.0) * (b + 1.0) / (c + 1.0)) if second else 0.0
    if a > b:
        a, b = b, a  # series symmetry; keeps f(a,b,...) == f(b,a,...) bitwise
    if -z > _HYP_CONNECT:
        if abs((b - a) - round(b - a)) > _HYP_GAP_GUARD:
            return _hyp2f1_bigz(a, b, c, z, order)
        if -z > _HYP_BIGZ:
            if (abs(a) > _HYP_MP_AB or abs(b) > _HYP_MP_AB or not _HYP_MP_CMIN <= c <= _HYP_MP_CMAX
                    or _HYP_MP_ZMAX < -z < math.inf):
                raise UnsupportedRangeError(
                    f"hyp2f1({a!r}, {b!r}, {c!r}, {z!r}) with b - a near an integer needs "
                    "|a|, |b| <= 20, 1e-3 <= c <= 1e3 and -z <= 1e8")
            f = None
            if -z < math.inf:
                try:
                    f = _hyp2f1_bigz_log(a, b, c, z)
                except (ArithmeticError, ValueError):  # a pole or an overflow on the way
                    pass
            if f is None:
                import mpmath
                try:
                    with mpmath.workdps(_MP_DPS):
                        f = float(mpmath.hyp2f1(a, b, c, z))
                except (ValueError, mpmath.libmp.NoConvergence) as exc:
                    raise ConvergenceError(
                        f"mpmath.hyp2f1({a!r}, {b!r}, {c!r}, {z!r}): {exc}") from exc
            if order == 0:
                return f, 0.0, 0.0
            slope = a * b / c
            f2 = 0.0
            if second:
                f2 = (slope * ((a + 1.0) * (b + 1.0) / (c + 1.0))
                      * hyp2f1(a + 2.0, b + 2.0, c + 2.0, z))
            return f, slope * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z), f2
    # Where c - b is near a negative integer -m, the mapped series
    # F(a, c-b; c; w) tends to (c-a)_m / (c)_m as w -> 1 (Chu-Vandermonde),
    # a small remainder of O(1) terms if c - a is near one of 0, -1, ...,
    # 1-m.  The other Pfaff form, (1-z)^(-b) F(c-a, b; c; w), has no such
    # remainder there, so it is summed instead; elsewhere the first form
    # stays, since the second's dF/dz cancels to about eps b/a for small a.
    cb, ca = c - b, c - a
    if (cb <= _HYP_GAP_GUARD - 1.0 and abs(cb - round(cb)) <= _HYP_GAP_GUARD
            and round(cb) < round(ca) <= 0 and abs(ca - round(ca)) <= _HYP_SWAP_GAP):
        a, b = b, a
    # F = q^(-a) S(w) with q = 1 - z, w = z/(z-1) and dw/dz = -1/q^2, so
    # dF/dz = q^(-a-1) (a S + D/z) with D = w dS/dw, and
    # d2F/dz2 = q^(-a-2) (a (a+1) S + 2 (a+1) D/z + E/z^2) with E = w^2 d2S/dw2
    q = 1.0 - z
    qa = q ** (-a)
    s, d, e = _series_2f1(a, c - b, c, z / (z - 1.0), order)
    if not order:
        return qa * s, 0.0, 0.0
    dz = qa / q * (a * s + d / z)
    if not second:
        return qa * s, dz, 0.0
    return qa * s, dz, qa / (q * q) * (a * (a + 1.0) * s + 2.0 * (a + 1.0) * d / z + e / (z * z))


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Standard Gauss function F(a,b;c;z) for z <= 0.

    For -z <= 3, evaluated as (1-z)^(-a) F(a, c-b; c; z/(z-1)) with the
    series at the mapped argument.  Beyond that, where the mapped series
    slows down, the 1/z connection formula (DLMF 15.8.2) takes over.  For
    b-a within 1e-3 of an integer, where that formula degenerates into its
    logarithmic form, the mapped series serves up to -z = 40; above it, for
    |a|, |b| <= 20, 1e-3 <= c <= 1e3 and -z <= 1e8 or z = -inf only (else
    UnsupportedRangeError), the formula's limit in floats, about 35 us a
    call, where its own error estimate is at most 7e-15 (seeded draws were
    within 1.4e-14 of 50-digit mpmath), and mpmath.hyp2f1 elsewhere, at 1 to
    4 ms a call: at z = -inf, and where the estimate is larger, as at or near
    an integer c - a (ConvergenceError where mpmath fails).
    All four hyp2f1 entry points raise UnsupportedRangeError for a NaN
    argument or an infinite a, b or c.
    """
    return _hyp2f1_pair(a, b, c, z)[0]


def hyp2f1_with_dz(a: float, b: float, c: float, z: float) -> tuple[float, float]:
    """(F(a,b;c;z), dF/dz) for z <= 0, both from one series pass.

    F is bitwise hyp2f1(a, b, c, z).  On the mapped and the 1/z series the
    derivative is summed from the same terms as F (D = sum k term_k), so it
    costs no second evaluation; for b - a near an integer and -z > 40 it is
    the contiguous relation dF/dz = (a b / c) F(a+1, b+1; c+1; z).
    """
    return _hyp2f1_pair(a, b, c, z, 1)[:2]


def _contiguous_fraction(d1: float, table: tuple[float, ...], z: float) -> float | None:
    """(q - 1) / z = d_1 / (1/S - d_1 z) for q = F(p, s+1; c+1; z) / F(p, s;
    c; z) = 1 / (1 - d_1 z S), S = 1 / (1 - d_2 z / (1 - d_3 z / ...)), by
    Gauss's continued fraction (DLMF 15.7; A. Cuyt et al., Handbook of
    Continued Fractions for Special Functions, 2008, ch. 15), with
      d_(2k+1) = (p + k)(c - s + k) / ((c + 2k)(c + 2k + 1)),
      d_(2k+2) = (s + k + 1)(c - p + k + 1) / ((c + 2k + 1)(c + 2k + 2)),
    d_2 ... d_200 in ``table``, and 1/S by the modified Lentz method.  None
    at a zero denominator or past _FRAC_MAX_STEPS steps."""
    f = cc = 1.0
    dd = 0.0
    try:
        for d in table:
            t = d * z
            dd = 1.0 / (1.0 - t * dd)
            cc = 1.0 - t / cc  # a zero cc raises at the next step
            delta = cc * dd
            f *= delta
            if abs(delta - 1.0) <= _LENTZ_EPS:
                f -= d1 * z
                return d1 / f
    except ZeroDivisionError:
        pass
    return None


def _hyp2f1ratio(a: float, b: float, c: float, z: float,
                 with_dz: bool) -> tuple[float, float | None]:
    """r = F(a+1, b+1; c+1; z) / F(a, b; c; z) and, when ``with_dz``,
    dr/dz (else None), from one continued fraction or one series pass of
    the denominator."""
    plan = _plan(a, b, c) if a <= b else _plan(b, a, c)
    if plan.unit:  # F(a, b; c; z) = 1: r is the numerator itself
        if with_dz:
            return hyp2f1_with_dz(a + 1.0, b + 1.0, c + 1.0, z)
        return hyp2f1(a + 1.0, b + 1.0, c + 1.0, z), None
    if plan.band <= z < 0.0:
        p, cp, sum1, slope, d1, table = plan.fraction()
        w = _contiguous_fraction(d1, table, z)
        # p (1 - z) F(p+1, s+1; c+1) = c F - (c - p) F(p, s+1; c+1), so with
        # q = 1 + z w, r = (c - (c - p) q) / (p (1 - z)) = (p - t) / (p (1 - z));
        # where r cancels (_FRAC_CANCEL) the series serves
        if w is not None:
            t = cp * z * w
            if not _FRAC_CANCEL * abs(p - t) < abs(p) + abs(t):
                den = p * (1.0 - z)
                r = (p - t) / den
                if not with_dz:
                    return r, None
                # F''/F from the hypergeometric equation; c (1 - r) / z from
                # w, as c / z - c r / z would cancel like 1/|z|
                one_r = (cp * w - p) / den
                return r, (c * one_r + sum1 * r) / (1.0 - z) - slope * r * r
    if z < 0.0 and z * z < _TINY_Z2 and not plan.refused:  # r = 1 + O(z), r' = r'(0) + O(z)
        return 1.0, (a + 1.0) * (b + 1.0) / (c + 1.0) - a * b / c if with_dz else None
    f, f1, f2 = _hyp2f1_pair(a, b, c, z, 2 if with_dz else 1)
    if f == 0.0:
        raise DomainError(f"hyp2f1ratio denominator F({a!r}, {b!r}; {c!r}; {z!r}) is zero")
    slope = a * b / c  # dF/dz at z = 0, and F' / F(a+1, b+1; c+1; z)
    g = f1 / f
    if not with_dz:
        return g / slope, None
    return g / slope, (f2 / f - g * g) / slope


def hyp2f1ratio(a: float, b: float, c: float, z: float) -> float:
    """The contiguous ratio r = F(a+1, b+1; c+1; z) / F(a, b; c; z) for z <= 0.

    For c > 0 and 0 < -z <= 12 (40 for b - a within 1e-3 of an integer),
    r = (c - (c - p) q) / (p (1 - z)), with p the one of a, b larger in
    magnitude, s the other and q = F(p, s+1; c+1; z) / F(p, s; c; z) from
    Gauss's continued fraction, its partial numerators read from a table
    built once per parameter set: on Ghoussoub-Moradifam parameters 1.2 to
    10 us a call for -z from 1e-6 to 12, 23 us at -z = 35 near an integer
    gap, where the series took 3 to 31 us (263 us) (2 vCPU x86 host).
    Elsewhere the numerator is (c / (a b)) dF/dz of the denominator (DLMF
    15.5.1), both from the denominator's one series pass, except where b - a
    is near an integer and -z > 40, where the numerator is evaluated itself;
    and where z^2 is subnormal or underflows to 0 (0 < -z < 1.5e-154), r = 1,
    to which r = 1 + O(z) rounds.  For a b = 0 the denominator is 1 and the
    numerator is returned.  A zero denominator raises DomainError.
    """
    return _hyp2f1ratio(a, b, c, z, False)[0]


def hyp2f1ratio_with_dz(a: float, b: float, c: float, z: float) -> tuple[float, float]:
    """(r, dr/dz) for r = hyp2f1ratio(a, b, c, z), both from one continued
    fraction or one series pass; r is bitwise hyp2f1ratio(a, b, c, z).

    dr/dz = (c / ab) (F''/F - (F'/F)^2) with F'/F = (ab / c) r.  F''/F comes
    from the hypergeometric equation where r comes from the fraction (within
    2.6e-15 of 40-digit mpmath on Ghoussoub-Moradifam parameters; 1.4 to 10 us
    a call for -z from 1e-6 to 12, 16 us at -z = 35 near an integer gap), and
    from a third accumulator of the series pass elsewhere, except where z^2
    is subnormal or underflows to 0: there the series' d2F/dz2 = E / z^2
    fails, and dr/dz is its value at 0, (a+1)(b+1)/(c+1) - ab/c.
    """
    return _hyp2f1ratio(a, b, c, z, True)
