"""Independent oracles for the test suite.

Everything here is deliberately primitive (exponentials, bisection, direct
partial sums, central differences) and shares no code with the
implementations it checks.  The expression reference calls the geometry
and specfun kernels for the builtins that need them; those kernels are
checked against mpmath in their own tests.
"""

from __future__ import annotations

import math

from hardykit import geometry, specfun
from hardykit.errors import (ConvergenceError, DomainError, EvalError, HardykitError,
                             UnboundParameterError, UnsupportedDerivativeError)
from hardykit.specfun import _HYP_MAX_TERMS

_LN2 = math.log(2.0)


def coth_exp(x: float) -> float:
    """coth via the exponential, valid away from 0 and overflow."""
    e2 = math.exp(2.0 * x)
    return (e2 + 1.0) / (e2 - 1.0)


def sinh_series(x: float, terms: int = 30) -> float:
    total = 0.0
    term = x
    for k in range(terms):
        total += term
        term *= x * x / ((2 * k + 2) * (2 * k + 3))
    return total


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    assert flo * f(hi) < 0.0, "bisection bracket must straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def bessel_series_direct(nu: float, x: float, terms: int = 200) -> float:
    """Plain float series; adequate as an oracle for x up to ~10."""
    half = 0.5 * x
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (nu + k))
        total += term
    return total


def mcmahon_zero(nu: float, k: int) -> float:
    beta = (k + nu / 2.0 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu - 1.0) / (8.0 * beta)


def trigamma_asymptotic(z: float) -> float:
    """psi'(z) for large z: 1/z + 1/(2z^2) + 1/(6z^3) - 1/(30z^5) + 1/(42z^7)."""
    zi = 1.0 / z
    z2 = zi * zi
    return zi + 0.5 * z2 + z2 * zi / 6.0 - z2 * z2 * zi / 30.0 + z2 * z2 * z2 * zi / 42.0


def mittag_leffler_ratio(nu: float, x: float, computed_zeros, K: int = 20,
                         far: int = 4000) -> float:
    """sum 2x/(j_k^2 - x^2) with K computed zeros, a McMahon midrange, and an
    asymptotic trigamma tail; independent of any Bessel evaluation."""
    total = 0.0
    for k in range(1, K + 1):
        j = computed_zeros[k - 1]
        total += 2.0 * x / (j * j - x * x)
    for k in range(K + 1, far + 1):
        j = mcmahon_zero(nu, k)
        total += 2.0 * x / (j * j - x * x)
    # tail: 2x sum_{k>far} 1/j_k^2 with j_k ~ (k + nu/2 - 1/4) pi
    shift = nu / 2.0 - 0.25
    total += 2.0 * x / (math.pi * math.pi) * trigamma_asymptotic(far + 1 + shift)
    return total


def log_series(z: float, terms: int = 60) -> float:
    """-log(1-z)/z via its series, |z| < 1; equals F(1,1;2;z)."""
    total = 0.0
    for k in range(terms):
        total += z**k / (k + 1.0)
    return total


def gauss_series_direct(a: float, b: float, c: float, z: float,
                        terms: int = 400) -> float:
    """Direct Gauss series, usable as oracle for |z| < 1."""
    total = 1.0
    term = 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
    return total


def simpson(f, lo: float, hi: float, n: int = 4096) -> float:
    """Composite Simpson rule (n even)."""
    h = (hi - lo) / n
    total = f(lo) + f(hi)
    for i in range(1, n):
        total += f(lo + i * h) * (4.0 if i % 2 else 2.0)
    return total * h / 3.0


# ---------------------------------------------------------------------------
# reference evaluator for the expression language: a plain recursive walk of
# the parsed AST (read through its attributes, by class name), with the
# documented semantics: division by zero, log of a nonpositive value, sqrt
# of a negative one and the undefined powers raise EvalError naming the
# fragment of the source; exp, sinh and cosh overflow to inf; d/dt follows
# the chain rule through every node.  It covers + - * / ^, unary minus, pow
# and every builtin: the elementary ones below, and those that call the
# geometry and specfun kernels (ct, s and D take kappa, the parameter the
# parser adds as their last argument; the order of besselj and besselratio,
# a, b, c of hyp2f1 and hyp2f1ratio and the argument of gamma admit no
# derivative).


def _ref_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ref_sinh(x):
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _ref_cosh(x):
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _ref_log(x):
    if x <= 0.0:
        raise EvalError(f"log of nonpositive value {x!r}")
    return math.log(x)


def _ref_sqrt(x):
    if x < 0.0:
        raise EvalError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _ref_sqrt_dx(x, v):
    if x == 0.0:
        raise EvalError("derivative of sqrt is unbounded at 0")
    return 0.5 / v


# name -> (f(x), f'(x) given x and f(x))
REFERENCE_UNARY = {
    "abs": (abs, lambda x, v: math.copysign(1.0, x) if x != 0.0 else 0.0),
    "sqrt": (_ref_sqrt, _ref_sqrt_dx),
    "exp": (_ref_exp, lambda x, v: v),
    "log": (_ref_log, lambda x, v: 1.0 / x),
    "sin": (math.sin, lambda x, v: math.cos(x)),
    "cos": (math.cos, lambda x, v: -math.sin(x)),
    "sinh": (_ref_sinh, lambda x, v: _ref_cosh(x)),
    "cosh": (_ref_cosh, lambda x, v: _ref_sinh(x)),
    "tanh": (math.tanh, lambda x, v: 1.0 - v * v),
}


def _ref_pow(x, y):
    if x > 0.0:
        try:
            return x**y
        except OverflowError:
            return math.inf
    if x == 0.0:
        if y > 0.0:
            return 0.0
        raise EvalError(f"0.0 raised to nonpositive power {y!r}")
    if y != round(y):
        raise EvalError(f"negative base {x!r} with non-integer exponent {y!r}")
    try:
        return x**y
    except (OverflowError, ZeroDivisionError):
        raise EvalError(f"power overflow at {x!r}^{y!r}")


def _ref_coth(x):
    if x == 0.0:
        raise EvalError("coth(0) undefined")
    return geometry._coth(x) if x > 0.0 else -geometry._coth(-x)


def _ref_constant(d, what):
    if d != 0.0:
        raise UnsupportedDerivativeError(f"no derivative rule through the {what} argument")


def _ref_besselj(args, dual):
    (nu, nud), (x, xd) = args
    if dual:
        _ref_constant(nud, "besselj order")
    v = specfun.bessel_j(nu, x)
    if not dual or xd == 0.0:
        return v, 0.0
    if x != 0.0:
        return v, specfun._bessel_j_with_dx(nu, x)[1] * xd
    # at x = 0: J_1' = 1/2, J_0' = J_nu' = 0 for nu > 1, unbounded otherwise
    if nu == 1.0:
        return v, 0.5 * xd
    if nu == 0.0 or nu > 1.0:
        return v, 0.0
    raise EvalError(f"besselj({nu}, x) has unbounded derivative at x=0")


def _ref_besselratio(args, dual):
    (nu, nud), (x, xd) = args
    if dual:
        _ref_constant(nud, "besselratio order")
    r = specfun.bessel_ratio(nu, x)
    return r, specfun.bessel_ratio_dx(nu, x, r) * xd if dual else 0.0


def _ref_hyp2f1(args, dual):
    (a, ad), (b, bd), (c, cd), (z, zd) = args
    if dual:
        for d in (ad, bd, cd):
            _ref_constant(d, "hyp2f1 parameter")
    if not dual or zd == 0.0:
        return specfun.hyp2f1(a, b, c, z), 0.0
    v, dz = specfun.hyp2f1_with_dz(a, b, c, z)
    return v, dz * zd


def _ref_hyp2f1ratio(args, dual):
    (a, ad), (b, bd), (c, cd), (z, zd) = args
    if dual:
        for d in (ad, bd, cd):
            _ref_constant(d, "hyp2f1ratio parameter")
    if not dual or zd == 0.0:
        return specfun.hyp2f1ratio(a, b, c, z), 0.0
    v, dz = specfun.hyp2f1ratio_with_dz(a, b, c, z)
    return v, dz * zd


def _ref_gamma(args, dual):
    (x, xd), = args
    if dual and xd != 0.0:
        raise UnsupportedDerivativeError("gamma is excluded from differentiation paths")
    return specfun.gamma(x), 0.0


_REFERENCE_ALL_UNARY = {**REFERENCE_UNARY, "coth": (_ref_coth, lambda x, v: 1.0 - v * v)}

_REFERENCE_SPECIAL = {"besselj": _ref_besselj, "besselratio": _ref_besselratio,
                      "hyp2f1": _ref_hyp2f1, "hyp2f1ratio": _ref_hyp2f1ratio,
                      "gamma": _ref_gamma}

# name -> (f(kappa, x), f'(kappa, x) given f(x)) of the builtins whose last
# argument is kappa
_REFERENCE_KAPPA_UNARY = {
    "ct": (geometry.ct_value, lambda k, x, v: -k - v * v),
    "s": (geometry.s_value, lambda k, x, v: geometry.s_value_dt(k, x)),
    "D": (geometry.deficit_value, lambda k, x, v: geometry.deficit_value_dt(k, x)),
}


def _ref_op(op, args, dual):
    """(value, derivative) of one operator or builtin; the derivative is 0.0
    and unchecked in value mode."""
    if op in _REFERENCE_SPECIAL:
        return _REFERENCE_SPECIAL[op](args, dual)
    (av, ad) = args[0]
    if op in _REFERENCE_KAPPA_UNARY:
        kappa = args[1][0]
        f, df = _REFERENCE_KAPPA_UNARY[op]
        v = f(kappa, av)
        return v, (df(kappa, av, v) * ad if ad != 0.0 else 0.0) if dual else 0.0
    if op in _REFERENCE_ALL_UNARY:
        f, df = _REFERENCE_ALL_UNARY[op]
        v = f(av)
        return v, (df(av, v) * ad if ad != 0.0 else 0.0) if dual else 0.0
    (bv, bd) = args[1]
    if op == "+":
        return av + bv, ad + bd if dual else 0.0
    if op == "-":
        return av - bv, ad - bd if dual else 0.0
    if op == "*":
        return av * bv, ad * bv + av * bd if dual else 0.0
    if op == "/":
        if bv == 0.0:
            raise EvalError("division by zero")
        v = av / bv
        return v, (ad - v * bd) / bv if dual else 0.0
    assert op in ("^", "pow"), op
    v = _ref_pow(av, bv)
    d = 0.0
    if dual and ad != 0.0:
        if av == 0.0:
            if bv < 1.0:
                raise EvalError(f"derivative of 0^{bv!r} is unbounded")
            d += 0.0 if bv > 1.0 else ad
        else:
            d += bv * _ref_pow(av, bv - 1.0) * ad
    if dual and bd != 0.0:
        if av <= 0.0:
            raise EvalError(f"derivative through exponent needs positive base, got {av!r}")
        d += v * math.log(av) * bd
    return v, d


def _ref_walk(node, source, t, binding, dual):
    kind = type(node).__name__
    if kind == "Num":
        return node.value, 0.0
    if kind == "Var":
        return t, 1.0
    if kind == "Param":
        if node.name not in binding:
            raise UnboundParameterError(f"unbound parameter {node.name!r}")
        return binding[node.name], 0.0
    if kind == "Neg":
        v, d = _ref_walk(node.operand, source, t, binding, dual)
        return -v, -d
    children = (node.left, node.right) if kind == "Bin" else node.args
    args = [_ref_walk(c, source, t, binding, dual) for c in children]
    try:
        return _ref_op(node.op if kind == "Bin" else node.name, args, dual)
    except (HardykitError, ArithmeticError) as exc:
        if isinstance(exc, EvalError) and exc.fragment:
            raise
        kind = type(exc) if isinstance(exc, EvalError) else EvalError
        raise kind(str(exc), source[node.span[0]:node.span[1]]) from None


def reference_eval(expr, t, binding):
    """Value of a parsed expression by a recursive walk of its AST."""
    return _ref_walk(expr.ast, expr.source, t, binding, False)[0]


def reference_eval_d(expr, t, binding):
    """(value, d/dt) of a parsed expression by a recursive walk of its AST."""
    return _ref_walk(expr.ast, expr.source, t, binding, True)


# ---------------------------------------------------------------------------
# the additive terms as three independent integrals, in their former order:
# the energy, I_H and J_H evaluate u, G, w and the volume density at every
# node of their own, each through its own object's eval/eval_d, and sum the
# logs of their power factors per node as the verifier's radial panel does.
# The quadrature, the target resolution and H's contract check are the
# verifier's.  Left out are the sharing of node values between the
# integrals and the evaluators resolved once; and a plain G keeps its former
# drift without w, where the verifier multiplies by the weight 1.  A margin
# computed with this in place of verifier._additive_terms must agree with
# the verifier's to the last bit.


def unshared_integrands(geo, target, u, H, binding):
    """(geo, f_e, f_i, f_j): the resolved geometry and the energy, I_H and
    J_H integrands without the volume density, each a function of t giving
    (lg, v): the sum of its power factors in logs, in nats, and its plain
    or signed factor, as with_density takes them.  A profile's log
    evaluators give nats; every other c log x is (c ln 2) log2 x, as the
    verifier's margins take it."""
    from hardykit.catalog import CatalogInstance
    from hardykit.geometry import ct_value
    from hardykit.verifier import _nonlinearity, _resolve_target

    # a plain G is neither an entry nor a (spec, G) pair; it has weight 1 and
    # the drift G' + G (n-1) ct, without the w and w' products
    plain = not isinstance(target, (CatalogInstance, tuple))
    geo, G, w, binding = _resolve_target(geo, target, u, binding)
    n, kappa, p = geo.n, geo.kappa, geo.p
    pc = geo.p_conj
    _, h_d = _nonlinearity(H, binding)

    def log_abs(value):
        return math.log2(abs(value)) if value != 0.0 else -math.inf

    def log2_abs(value, log_value, t):  # a profile's log evaluators give nats
        if log_value is not None:
            return log_value(t) * (1.0 / _LN2)
        return log_abs(value(t))

    def p_log_u(t):
        return p * _LN2 * log2_abs(u.u, u.log_abs_u, t)

    def f_e(t):
        lb = log2_abs(u.du, u.log_abs_du, t)
        if lb == -math.inf:
            return -math.inf, 0.0
        return p * _LN2 * lb, 1.0 if plain else w.eval(t, binding)

    def f_i(t):
        if H is None:  # |u|^p in logs, 1/p plain
            lg = p_log_u(t)
            hval = 1.0 / p if lg != -math.inf else 0.0
        else:
            lg, hval = 0.0, H.eval(u.u(t), binding)
        if hval == 0.0:
            return lg, 0.0
        gv, gd = G.eval_d(t, binding)
        if plain:
            drift = gd + gv * (n - 1) * ct_value(kappa, t)
        else:
            wv, wd = w.eval_d(t, binding)
            drift = (gd * wv + gv * wd) + gv * wv * (n - 1) * ct_value(kappa, t)
        return lg, drift * hval

    def f_j(t):
        if H is None:
            lg = p_log_u(t)
        else:
            lg = pc * _LN2 * log_abs(h_d(u.u(t))[1])
        if lg == -math.inf:
            return lg, 0.0
        gv = G.eval(t, binding)
        wv = 1.0 if plain else w.eval(t, binding)
        if gv == 0.0:
            return -math.inf, 0.0
        return lg + pc * _LN2 * math.log2(abs(gv)), wv

    return geo, f_e, f_i, f_j


def with_density(geo, f):
    """A margin panel's integrand: exp(lg + (n-1) ln s_kappa(t)) v for f's
    (lg, v), 0 where v is 0 (the density skipped) or the sum is below -700,
    a DomainError where it is above 700."""
    def g(t):
        lg, v = f(t)
        if v == 0.0:
            return 0.0
        lg = lg + (geo.n - 1) * _LN2 * math.log2(geometry.s_value(geo.kappa, t))
        if lg > 700.0:
            raise DomainError(f"integrand overflow at t={t!r}")
        return 0.0 if lg < -700.0 else math.exp(lg) * v
    return g


def unshared_additive_terms(geo, target, u, H, binding):
    from hardykit.quadrature import integrate
    from hardykit.verifier import _TOL

    geo, f_e, f_i, f_j = unshared_integrands(geo, target, u, H, binding)
    lo, hi = max(u.support_lo, 0.0), u.support_hi
    scale = geo.n * geometry.unit_ball_volume(geo.n)
    (e, e_err), (i, i_err), (j, j_err) = (
        integrate(with_density(geo, f), lo, hi, rel_tol=_TOL, breakpoints=u.breakpoints)
        for f in (f_e, f_i, f_j))
    return geo.p, scale * e, scale * e_err, scale * i, scale * i_err, scale * j, scale * j_err


# verifier._log_mass as a per-node integrand run through quadrature.integrate,
# in its former form: the t part calls f(t) at each node, the ln t part
# f(e^x, x) through a lambda; every node re-reads u, extra and kappa and
# takes log s_kappa from geometry.s_value.  Logs are math.log2 with the
# exponents scaled by ln 2 (a log evaluator's nats times 1 / ln 2), as in
# the verifier's panel, so the exponent of each node is in nats.  The mesh, the tolerance and the
# split at the first segment spanning more than a decade are the verifier's,
# so verifier._log_mass must give the same value and error to the last bit,
# or raise the same exception with the same message.  So is the plateau
# rule: a power_cutoff's mass on (0, r0], where u is constant, in closed
# form (its energy there is 0) wherever extra is None and s_kappa(t)^(n-1)
# is t^(n-1) to float precision up to r0.


def reference_log_mass(geo, u, upow=0.0, tpow=0.0, use_du=False, extra=None, span=None,
                       tol=None):
    from hardykit.quadrature import integrate
    from hardykit.verifier import _TOL_FINE

    tol = _TOL_FINE if tol is None else tol
    n, kappa = geo.n, geo.kappa
    ln2 = math.log(2.0)
    if u is not None:
        log_base_fn = u.log_abs_du if use_du else u.log_abs_u

    def f(t, log_jac=0.0):
        if u is None:
            lg = 0.0
        else:
            if log_base_fn is not None:
                lb = log_base_fn(t) * (1.0 / ln2)
            else:
                base = abs(u.du(t)) if use_du else abs(u.u(t))
                lb = math.log2(base) if base > 0.0 else -math.inf
            if lb == -math.inf:
                return 0.0
            lg = (upow * ln2) * lb + (tpow * ln2) * math.log2(t)
        v = extra(t) if extra is not None else 1.0
        if v == 0.0:
            return 0.0
        lg = lg + ((n - 1) * ln2) * math.log2(geometry.s_value(kappa, t)) + log_jac
        if lg < -700.0:
            return 0.0
        if lg > 700.0:
            raise DomainError(f"integrand overflow at t={t!r}")
        return math.exp(lg) * v

    lo, hi, breakpoints = span or (max(u.support_lo, 0.0), u.support_hi, u.breakpoints)
    scale = n * geometry.unit_ball_volume(n)
    val, err = 0.0, 0.0
    if extra is None and lo == 0.0 and u is not None and u.plateau is not None:
        r0, log_u = u.plateau
        q = tpow + n
        s_is_t = kappa == 0.0 or (n - 1) * (math.sqrt(-kappa) * r0) ** 2 / 6.0 < 2.0 ** -53
        if r0 < hi and q > 0.0 and s_is_t:
            log_mass = upow * log_u + q * math.log(r0) - math.log(q)
            if use_du:
                lo, val = r0, 0.0
            elif log_mass <= 700.0:
                lo, val = r0, scale * math.exp(log_mass)
    edges = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    wide = next((a for a, b in zip(edges, edges[1:]) if a > 0.0 and b / a > 10.0), hi)
    if wide > lo:
        tv, te = integrate(f, lo, wide, rel_tol=tol, breakpoints=breakpoints)
        val, err = val + scale * tv, scale * te
    if wide < hi:
        xv, xe = integrate(lambda x: f(math.exp(x), x), math.log(wide), math.log(hi),
                           rel_tol=tol, breakpoints=[math.log(b) for b in edges if wide < b < hi])
        val, err = val + scale * xv, err + scale * xe
    return val, err

# certify as a per-point loop over residual terms built from each object's
# own eval/eval_d at every t, in their former order: G' and G, w' and w (w > 0
# checked first), L, W; the residual G' + (w'/w + L) G - (p-1)|G|^{p'} - W,
# a DomainError where it or the hint's scale overflows a float.
# The grid, the checks, their messages and the report are certify's, so
# riccati.certify must return a report repr-equal to this one.


def reference_certify(spec, G, grid_policy="log", tol=1e-8, n_points=512):
    from hardykit.errors import DomainError
    from hardykit.riccati import CertificationReport, certification_grid

    def terms(t, b):
        gv, gd = G.eval_d(t, b)
        wv, wd = spec.w.eval_d(t, b)
        if not wv > 0.0:
            raise DomainError(f"weight w({t!r}) = {wv!r} is not positive")
        lv = spec.L.eval(t, b)
        wtarget = spec.W.eval(t, b)
        p = spec.geo.p
        try:
            convex = (p - 1.0) * abs(gv) ** spec.geo.p_conj
        except OverflowError:
            raise DomainError("the residual overflows a float") from None
        drift = wd / wv + lv
        return gv, gd + drift * gv - convex - wtarget, wtarget

    grid = certification_grid(spec.t_lo, spec.t_hi, n=n_points, policy=grid_policy)
    residuals = []
    min_r, argmin, max_abs = math.inf, grid[0], 0.0
    min_g, max_g, t_min_g, t_max_g = math.inf, -math.inf, None, None
    hint = spec.homogeneity_hint
    binding = spec.binding()
    for t in grid:
        try:
            g, r, wt = terms(t, binding)
            if hint is not None and hint < 0.0:
                try:
                    scale = t ** (-hint)
                except OverflowError:
                    raise DomainError("the residual overflows a float") from None
                rn = (r * scale) / (1.0 + abs(wt * scale))
            else:
                rn = r / (1.0 + abs(wt))
            if not (math.isfinite(rn) and math.isfinite(g)):
                raise DomainError("non-finite residual")
            if not wt > 0.0:
                raise DomainError(f"target W({t!r}) = {wt!r} is not positive")
        except HardykitError as exc:
            return CertificationReport(
                grid=grid, residuals=residuals, min_residual=min_r, argmin_t=argmin,
                max_abs_residual=max_abs, min_G=min_g, max_G=max_g,
                verdict="inconclusive", witness_t=t,
                reason=f"evaluation failed at t={t!r}: {exc}", tolerance_used=tol,
                g_sign_required=spec.g_sign_required)
        residuals.append(rn)
        if rn < min_r:
            min_r, argmin = rn, t
        max_abs = max(max_abs, abs(rn))
        if g < min_g:
            min_g, t_min_g = g, t
        if g > max_g:
            max_g, t_max_g = g, t

    ok = min_r >= -tol
    reason, witness = "", None
    if not ok:
        witness = argmin
        reason = f"residual {min_r:.6g} below -tol at t={argmin:.6g}"
    if ok and spec.g_sign_required == 1 and min_g < -tol:
        ok, witness = False, t_min_g
        reason = f"sign condition violated: min G = {min_g:.6g} < -tol"
    if ok and spec.g_sign_required == -1 and max_g > tol:
        ok, witness = False, t_max_g
        reason = f"sign condition violated: max G = {max_g:.6g} > tol"
    return CertificationReport(
        grid=grid, residuals=residuals, min_residual=min_r, argmin_t=argmin,
        max_abs_residual=max_abs, min_G=min_g, max_G=max_g,
        verdict="certified" if ok else "failed", witness_t=witness, reason=reason,
        tolerance_used=tol, g_sign_required=spec.g_sign_required)


def reference_riccati_rhs(spec):
    """The equality ODE's right-hand side with every term through eval/eval_d."""
    b = spec.binding()
    p = spec.geo.p
    pp = spec.geo.p_conj

    def f(t, g):
        wv, wd = spec.w.eval_d(t, b)
        lv = spec.L.eval(t, b)
        wt = spec.W.eval(t, b)
        return wt + (p - 1.0) * abs(g) ** pp - (wd / wv + lv) * g

    return f


# energy and mass of a power_cutoff profile at 30 digits: mpmath.quad in
# x = ln t over the plateau, the power region and the capacitor cut, from
# the profile's own formulas and float breakpoints; mpmath's exponent range
# holds plateau values far beyond float range


def power_cutoff_masses_mp(u, geo, alpha):
    """(n*omega_n * int |u'|^p t^alpha s^(n-1) dt, n*omega_n * int |u|^p
    t^(alpha-p) s^(n-1) dt) for u = testfuncs.power_cutoff(...)."""
    import mpmath as mp

    with mp.workdps(30):
        n, p, kappa = geo.n, geo.p, geo.kappa
        # the exponents as the profile rounds them: the power region's
        # 660 e-folds amplify their last bit to ~1e-13 of the integrals
        expo_f = -(n + alpha - p) / p + u.params["eps"]
        ecut_f = -(n + alpha - p) / (p - 1.0)
        expo, expo_d = mp.mpf(expo_f), mp.mpf(expo_f - 1.0)
        ecut, ecut_d = mp.mpf(ecut_f), mp.mpf(ecut_f - 1.0)
        alpha, R = mp.mpf(alpha), mp.mpf(u.params["R"])
        r0, rc = (mp.mpf(b) for b in u.breakpoints)
        scale = rc**expo / (rc**ecut - R**ecut)

        def s(t):
            return t if kappa == 0 else mp.sinh(mp.sqrt(-kappa) * t) / mp.sqrt(-kappa)

        def u_abs(t):
            if t <= r0:
                return r0**expo
            return t**expo if t <= rc else scale * (t**ecut - R**ecut)

        def du_abs(t):
            if t <= r0:
                return mp.mpf(0)
            return -expo * t**expo_d if t <= rc else -scale * ecut * t**ecut_d

        def quad(f):
            def g(x):
                t = mp.exp(x)
                return f(t) * s(t) ** (n - 1) * t

            return mp.quad(g, [-mp.inf, mp.log(r0), mp.log(rc), mp.log(R)])

        energy = quad(lambda t: du_abs(t) ** p * t**alpha)
        mass = quad(lambda t: u_abs(t) ** p * t ** (alpha - p))
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return float(area * energy), float(area * mass)


# the energy, I_H and J_H of a catalog margin (H = |s|^p/p) on a compact_bump
# at 30 digits: mpmath.quad over the bump's support split at its
# breakpoints, with the bump, the volume density and ct in mpmath; G, G', w
# and w' are the entry's float evaluators, read at the float nearest each
# node, so the reference integrates the same functions as the verifier


def bump_margin_terms_mp(inst, u):
    """(energy, I_H, J_H) of additive_margin(None, inst, u) for u =
    testfuncs.compact_bump(...)."""
    import mpmath as mp

    geo, G, w, binding = inst.spec.geo, inst.G, inst.spec.w, inst.spec.binding()
    with mp.workdps(30):
        n, p, pc = geo.n, mp.mpf(geo.p), mp.mpf(geo.p_conj)
        r = mp.sqrt(-mp.mpf(geo.kappa))
        c, half = mp.mpf(u.params["center"]), mp.mpf(u.params["width"])

        def bump(t):  # 0 past c +- half, where the float breakpoints may reach
            x = (t - c) / half
            g = 1 - x * x
            if g <= 0:
                return mp.mpf(0), mp.mpf(0)
            v = mp.exp(1 - 1 / g)
            return v, v * (-2 * x / (g * g)) / half

        def s(t):
            return t if r == 0 else mp.sinh(r * t) / r

        def ct(t):
            return 1 / t if r == 0 else r * mp.coth(r * t)

        def energy(t):
            return abs(bump(t)[1]) ** p * w.eval(float(t), binding) * s(t) ** (n - 1)

        def i_h(t):
            gv, gd = G.eval_d(float(t), binding)
            wv, wd = w.eval_d(float(t), binding)
            drift = gd * wv + gv * wd + gv * wv * (n - 1) * ct(t)
            return drift * abs(bump(t)[0]) ** p / p * s(t) ** (n - 1)

        def j_h(t):
            gv, wv = G.eval(float(t), binding), w.eval(float(t), binding)
            return abs(mp.mpf(gv)) ** pc * wv * abs(bump(t)[0]) ** p * s(t) ** (n - 1)

        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        points = [mp.mpf(b) for b in u.breakpoints]
        return tuple(float(area * mp.quad(f, points)) for f in (energy, i_h, j_h))


# ---------------------------------------------------------------------------
# The Gauss series kernel as it was before its per-parameter term ratios:
# specfun's float operations must stay bitwise those of this copy, whatever
# state its plans are in.  Kept verbatim but for the derivative order, which
# took the place of a flag for the second derivative; name prefixed ref_,
# the errors and constants specfun's own.


def ref_series_2f1(a: float, b: float, c: float, x: float,
                   order: int) -> tuple[float, float, float]:
    """Plain ascending Gauss series at argument x, |x| < 1: its sum S and,
    up to derivative ``order`` (0, 1 or 2), D = sum k term_k = x dS/dx and
    E = sum k (k-1) term_k = x^2 d2S/dx2, all from the same terms; those not
    asked for are 0.0."""
    total = 1.0
    comp = 0.0
    dsum = 0.0
    esum = 0.0
    term = 1.0
    k = 0.0  # a float counter: k + 1.0 is formed once, for the term and for D
    small = 0
    while k < _HYP_MAX_TERMS:
        k1 = k + 1.0
        term *= (a + k) * (b + k) / ((c + k) * k1) * x
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if order >= 1:
            dsum += k1 * term
        if order == 2:
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
    if order == 0:
        return total, dsum, esum
    # D's terms are k times S's, so D's tail outlasts S's stopping rule; past
    # it the terms shrink geometrically, and the first one below 1e-17 of D
    # ends D's sum.  E's terms are k - 1 times D's, so E's tail goes on the
    # same way past D's.
    while abs(k1 * term) > 1e-17 * (abs(dsum) + 1e-300):
        k = k1
        k1 = k + 1.0
        term *= (a + k) * (b + k) / ((c + k) * k1) * x
        dsum += k1 * term
        if order == 2:
            esum += k * k1 * term
    if order == 2:
        while abs(k * k1 * term) > 1e-17 * (abs(esum) + 1e-300):
            k = k1
            k1 = k + 1.0
            term *= (a + k) * (b + k) / ((c + k) * k1) * x
            esum += k * k1 * term
    return total, dsum, esum



def ref_pencil(geo, R: float, N: int) -> tuple[list[tuple[float, float, float]], float]:
    """The finite-volume pencil's rows (c_j, b_j, o_{j-1}^2) and row-wise
    Gershgorin bound, built point by point: s_value ** (n - 1) at each
    multiple of h/2, the off-diagonal o_j = -a_(j+1) / h^2 as a list, o ** 2.
    DomainError where the pencil leaves float range."""
    h = R / (N + 0.5)
    h2 = h * h
    half = 0.5 * h
    try:
        dens = [geometry.s_value(geo.kappa, j * half) ** (geo.n - 1) for j in range(2 * N + 1)]
        faces, b = dens[0::2], dens[1::2]
        diag = [(faces[j] + faces[j + 1]) / h2 for j in range(N)]
        off = [-faces[j] / h2 for j in range(1, N)]
        rows = list(zip(diag, b, [0.0] + [o ** 2 for o in off]))
        # row j's off-diagonals, a_j / h^2 and a_(j+1) / h^2 (none at the
        # ends), sum to at most c_j: the row-wise bound is 2 max(c_j / b_j)
        top = 2.0 * max(c / bj for c, bj in zip(diag, b))
    except (OverflowError, ZeroDivisionError):
        top = math.inf
    if not 0.0 < top < math.inf:
        raise DomainError(f"pencil of R={R!r}, N={N} leaves float range")
    return rows, top


def ref_smallest_eigenvalue_mp(rows, guess: float, rel: float = 1e-8, halvings: int = 40) -> float:
    """Smallest eigenvalue of the pencil whose float rows (c_j, b_j, o_{j-1}^2)
    are taken exactly: bisection of guess (1 -+ rel) on the inertia count of
    LDL^T in 40-digit mpmath, to a relative width 2 rel 2^-halvings."""
    import mpmath as mp
    with mp.workdps(40):
        rows = [(mp.mpf(c), mp.mpf(bj), mp.mpf(o2)) for c, bj, o2 in rows]

        def count_below(sigma):
            count, d = 0, mp.mpf(1)
            for c, bj, o2 in rows:
                d = c - sigma * bj - o2 / d
                count += d < 0
            return count

        lo, hi = mp.mpf(guess) * (1 - rel), mp.mpf(guess) * (1 + rel)
        assert count_below(lo) == 0 and count_below(hi) >= 1, "the bracket misses lambda_1"
        for _ in range(halvings):
            mid = (lo + hi) / 2
            if count_below(mid):
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)
