"""Quadrature validation of the additive and multiplicative inequalities.

Everything here reduces to weighted radial integrals against the model
measure d(mu) = n*omega_n * s_kappa^(n-1)(t) dt, each run by
quadrature.integrate_panels over a Kronrod panel function built for it.
The additive margin compares the energy integral with the two-term right
side built from a candidate G, its weight w (the constant 1 for a plain G)
and a nonlinearity H; the multiplicative margin assembles
|I_H|^p / J_H^(p-1) from the same integrals, which share one panel per
margin: this module's template with G and w inlined by
exprdsl.fill_template and the density inlined for the margin's kappa;
I_H's panels also give J_H's sums from the same G values.  Margins carry
their quadrature error estimates, and a margin only counts as a violation
when it is more negative than 10x the combined error (numerical noise must
never masquerade as a counterexample to a theorem).  The relative
tolerance is ``_TOL`` = 1e-10 for the additive and multiplicative margins
and ``radial_integral``, ``_TOL_FINE`` = 1e-11 for everything else.

Every other integral (``radial_integral``, the uncertainty, interpolation,
oscillatory, extremal and sweep modes) runs through ``_log_mass``, whose
panel takes |u|^p, |u'|^p and the density in logs, as near-extremal Hardy
test functions spread mass over hundreds of decades with plateau values
beyond float range (``radial_integral``'s f and the s_c terms are read in
floats).  It takes a power_cutoff's plateau in closed form where the
density allows and integrates in x = ln t from the first segment spanning
more than a decade: one hardy sweep takes 36 Kronrod panels, not one per
decade.  The margin panels expect moderate test functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .catalog import CatalogInstance, instantiate
from .errors import DomainError, HypothesisError, ParameterError, check_keys
from .exprdsl import evaluator, fill_template, parse
from .geometry import _TAYLOR_CUT, ModelGeometry, ct_value, deficit_value, unit_ball_volume
from .quadrature import _NODES, _panel_sums, integrate_panels
from .testfuncs import RadialTestFunction, gaussian_type, power_cutoff, talenti

__all__ = [
    "InequalityMargin",
    "radial_integral",
    "additive_margin",
    "multiplicative_margin",
    "up_margin",
    "ckn_margin",
    "sc_margin",
    "extremal_identity_check",
    "ExtremalIdentityResult",
    "sharpness_sweep",
    "SweepRow",
    "SweepResult",
    "margin_violated",
    "hardy_default_family",
    "scaled_family",
]

_MARGIN_FLOOR = 1e-300
_TOL = 1e-10
_TOL_FINE = 1e-11
# the near-extremal Hardy family: eps -> 0
_HARDY_EPS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


@dataclass
class InequalityMargin:
    lhs: float
    rhs: float
    margin: float
    quadrature_error_estimate: float
    extras: dict = field(default_factory=dict)


def _margin_of(lhs: float, rhs: float, err: float, extras: dict | None = None) -> InequalityMargin:
    rel = (lhs - rhs) / max(abs(rhs), _MARGIN_FLOOR)
    return InequalityMargin(lhs=lhs, rhs=rhs, margin=rel, quadrature_error_estimate=err,
                            extras=extras or {})


def margin_violated(m: InequalityMargin) -> bool:
    """Violation policy: negative beyond 10x the noise budget."""
    budget = 10.0 * (m.quadrature_error_estimate / max(abs(m.rhs), _MARGIN_FLOOR) + 1e-12)
    return m.margin < -budget


def radial_integral(
    geo: ModelGeometry,
    f: Callable[[float], float],
    R: float,
    singular_exponent_hint: float | None = None,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """n*omega_n * integral_0^R f(t) s_kappa^(n-1)(t) dt with error estimate;
    a DomainError names the t where f is nonzero and s_kappa^(n-1) exceeds
    e^700 (t s_kappa^(n-1) where the integral runs in ln t)."""
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"radial_integral needs a finite R > 0, got {R!r}")
    hint = None
    if singular_exponent_hint is not None:
        hint = singular_exponent_hint + (geo.n - 1)
    return _log_mass(geo, None, extra=f, span=(0.0, R, breakpoints, hint), tol=_TOL)


# ---------------------------------------------------------------------------
# additive / multiplicative margins

def _nonlinearity(H, binding: dict):
    """(h, h_d): H's value and dual functions of s, resolved once for the
    binding, or (None, None) for H = None, which is |s|^p/p, the choice
    reducing the additive form to a Hardy inequality: p H(s) = |H'(s)|^{p'}
    = |s|^p.  Any other H is an evaluable in s with H(0) = H'(0) = 0."""
    if H is None:
        return None, None
    h_d = evaluator(H, binding, dual=True)
    v0, d0 = h_d(0.0)
    if abs(v0) > 1e-12 or abs(d0) > 1e-12:
        raise HypothesisError("H(0) = H'(0) = 0", f"H(0) = {v0!r}, H'(0) = {d0!r}")
    return evaluator(H, binding), h_d


def _resolve_target(geo, target, u: RadialTestFunction, binding):
    """(geo, G, w, binding) of a margin target: a CatalogInstance or a
    (RiccatiPairSpec, G) pair, either carrying w, the interval and the
    binding, or a plain G evaluable, whose weight is the constant 1."""
    if isinstance(target, CatalogInstance):
        what, spec, G = f"entry {target.name!r}", target.spec, target.G
    elif isinstance(target, tuple):
        what, (spec, G) = "spec", target
    elif geo is None:
        raise ParameterError("a plain G needs a geometry: geo is None")
    else:
        return geo, target, parse("1"), geo.binding() if binding is None else binding
    if spec.rho_kind != "radial_distance":
        raise ParameterError(f"{what} is built on rho = {spec.rho_kind}; "
                             "radial quadrature does not apply")
    if geo is not None and geo != spec.geo:
        raise ParameterError(f"geometry mismatch between argument and {what}")
    if u.support_lo < spec.t_lo or u.support_hi > spec.t_hi:
        raise HypothesisError(
            "test function support inside the entry interval",
            f"support ({u.support_lo!r}, {u.support_hi!r}) vs "
            f"({spec.t_lo!r}, {spec.t_hi!r})")
    return spec.geo, G, spec.w, spec.binding()


# The Kronrod panel of an additive or multiplicative margin's integrals, the
# energy (part 0), I_H (part 1) and J_H (part 2): exprdsl.fill_template
# inlines G and w (dual), which I_H reads; w_v and g_v are their value
# functions.  Each node value is, bit for bit, what the integrand of an
# independent integral would give (the density s_kappa^(n-1), inf where it
# leaves float range, only where the rest is nonzero), and the sums are
# kronrod_panel's.  Part 1 also takes J_H's node values from the same G and
# w, and keeps them with J_H's first error in store[a, b] for part 2, which
# raises that error; J_H evaluates G and w in value mode where I_H does not
# evaluate them.  G is inlined once, in the node loop: unrolled per node,
# its compile would cost a margin of a new shape tens of milliseconds.
_PANEL = """\
def margin_panel(part, store, a, b):
    if part == 2 and (a, b) in store:
        return sums(*store[a, b])
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fs, jerr = [], None
    fjs = fs if part == 2 else []
    try:
        for x in nodes:
            t = mid + half * x
            rt = r * t
            try:
                dens = (t if flat else sinh(rt) / r) ** nm1
            except OverflowError:
                dens = inf
            if part == 0:
                fe = abs(du(t))
                if fe != 0.0:
                    wv = w_v(t)
                    fe = fe ** p * wv
                    fe = fe * dens if fe != 0.0 else 0.0
                fs.append(fe)
                continue
            uv = u(t)
            if h is None:
                hd = abs(uv) ** p
                hval = hd / p
            if part == 1:
                if h is not None:
                    hval = h(uv)
                fi = 0.0
                if hval != 0.0:
                    gv, gd = G(t)
                    wv, wd = w(t)
                    if flat and t > 0.0:
                        ct = 1.0 / t
                    elif cut <= rt <= 350.0:
                        ct = r * (1.0 + 2.0 / expm1(2.0 * rt))
                    else:
                        ct = ct_value(kappa, t)
                    fi = ((gd * wv + gv * wd) + gv * wv * nm1 * ct) * hval
                    fi = fi * dens if fi != 0.0 else 0.0
                fs.append(fi)
            if jerr is None:
                try:
                    if h is not None:
                        hd = abs(h_d(uv)[1]) ** pc
                    fj = 0.0
                    if hd != 0.0:
                        if part == 2 or hval == 0.0:
                            gv = g_v(t)
                            wv = w_v(t)
                        fj = abs(gv) ** pc * wv * hd
                        fj = fj * dens if fj != 0.0 else 0.0
                    fjs.append(fj)
                except Exception as exc:
                    jerr = exc
                    if part == 2:
                        break
    except Exception as exc:
        return sums(fs, mid, half, exc)
    if part == 1:
        store[a, b] = fjs, mid, half, jerr
        jerr = None
    return sums(fs, mid, half, jerr)
"""


def _margin_panel(geo: ModelGeometry, G, w, H, u: RadialTestFunction, binding: dict):
    """_PANEL filled for G, w, the binding, the geometry and u, with H's
    functions resolved once, as certify resolves its own:
    panel(part, store, a, b) is a panel function of part 0, 1 or 2."""
    n, kappa, p = geo.n, geo.kappa, geo.p
    h, h_d = _nonlinearity(H, binding)
    env = {"nodes": _NODES, "sums": _panel_sums, "u": u.u, "du": u.du, "h": h, "h_d": h_d,
           "g_v": evaluator(G, binding), "w_v": evaluator(w, binding), "p": p,
           "pc": geo.p_conj, "nm1": n - 1, "kappa": kappa, "flat": kappa == 0.0,
           "r": math.sqrt(-kappa), "cut": _TAYLOR_CUT, "sinh": math.sinh,
           "expm1": math.expm1, "inf": math.inf, "ct_value": ct_value}
    return fill_template(_PANEL, {"G": (G, True), "w": (w, True)}, binding, env)


def _additive_terms(geo, target, u: RadialTestFunction, H, binding):
    """(p, energy, I_H, J_H) with the three error estimates: the terms both
    margins combine, for a target as ``_resolve_target`` takes it.

    The energy, I_H and J_H integrals run in this order over one
    _margin_panel.  I_H's panels also sum J_H's node values from the same
    G and w, so J_H evaluates G, in value mode, only on panels I_H did not
    take and where h(u) is 0 but |H'(u)|^p' is not.  Every result, mesh and error is that of three independent
    integrals, and an error of the energy wins over one of I_H, which wins
    over one of J_H."""
    geo, G, w, binding = _resolve_target(geo, target, u, binding)
    panel = _margin_panel(geo, G, w, H, u, binding)
    lo, hi = max(u.support_lo, 0.0), u.support_hi
    scale = geo.n * unit_ball_volume(geo.n)
    store: dict = {}

    def integral(part: int) -> tuple[float, float]:
        val, err = integrate_panels(functools.partial(panel, part, store), lo, hi,
                                    rel_tol=_TOL, breakpoints=u.breakpoints)
        return scale * val, scale * err

    return (geo.p, *integral(0), *integral(1), *integral(2))


def additive_margin(geo: ModelGeometry | None, target, u: RadialTestFunction,
                    H=None, binding: dict | None = None) -> InequalityMargin:
    """Margin of the additive inequality for one test function.

    target is a CatalogInstance, a (RiccatiPairSpec, G) pair or a plain G
    evaluable; H defaults to |s|^p/p.  On model spaces the distance Laplacian
    is the exact (n-1) ct_kappa, which is what the right side uses.
    """
    p, lhs, e_err, i_val, i_err, j_val, j_err = _additive_terms(geo, target, u, H, binding)
    rhs = p * i_val - (p - 1.0) * j_val
    err = e_err + p * i_err + (p - 1.0) * j_err
    return _margin_of(lhs, rhs, err, {"i_term": i_val, "j_term": j_val, "p": p})


def multiplicative_margin(geo: ModelGeometry | None, target, u: RadialTestFunction,
                          H=None, binding: dict | None = None) -> InequalityMargin:
    """Margin of energy >= |I_H|^p / J_H^(p-1); needs J_H bounded away from
    its quadrature error."""
    p, lhs, e_err, i_val, i_err, j_val, j_err = _additive_terms(geo, target, u, H, binding)
    if j_val <= 10.0 * j_err:
        raise DomainError(
            f"J functional {j_val!r} indistinguishable from quadrature error {j_err!r}")
    rhs = abs(i_val) ** p / j_val ** (p - 1.0)
    rel_err = e_err / max(lhs, _MARGIN_FLOOR) + p * i_err / max(abs(i_val), _MARGIN_FLOOR) \
        + (p - 1.0) * j_err / j_val
    return _margin_of(lhs, rhs, rel_err * max(abs(rhs), lhs),
                      {"i_term": i_val, "j_term": j_val, "p": p})


# ---------------------------------------------------------------------------
# log-space weighted masses (wide-dynamic-range test functions)


def _log_mass(geo: ModelGeometry, u: RadialTestFunction | None, upow: float = 0.0,
              tpow: float = 0.0, use_du: bool = False,
              extra: Callable[[float], float] | None = None,
              span: tuple | None = None, tol: float = _TOL_FINE) -> tuple[float, float]:
    """n*omega_n * integral |b(t)|^upow t^tpow s^(n-1) extra(t) dt with
    b = u or u' and its error estimate, or with u None that of
    integral extra(t) s^(n-1) dt, a signed extra read in floats; evaluated
    through logs so plateau values beyond float range and abscissae
    ~1e-290 cannot overflow intermediates.  A DomainError names the t
    where the integrand is nonzero and the part of it taken in logs (with
    the Jacobian t in ln t) exceeds e^700.  extra=None is the constant 1.0
    without a call per node: pass it where the factor is exactly 1 (the up
    and ckn deficit factor at kappa = 0).

    span = (lo, hi, breakpoints, singular hint) defaults to u's support.
    The plateau rule: where u declares a plateau (r0, log|u|), the span
    starts at 0 and extra is None, the piece on [0, r0] is taken in closed
    form, exp(upow log|u| + q log r0 - log q) with q = tpow + n (0 for the
    energy), if s_kappa(t)^(n-1) = t^(n-1) to float precision across
    [0, r0] (kappa = 0, or (n-1) (sqrt(-kappa) r0)^2 / 6 < 2^-53), q > 0
    and the mass is within float range; elsewhere, as at kappa = -1 for
    eps = 0.1, the plateau is integrated like any other piece.
    From the first segment between edges (span ends and breakpoints)
    that spans more than a decade, the integral runs in x = ln t, where
    the integrand is exp(log f(e^x) + x): a near-extremal power region
    becomes exp(p*eps*x), so a few panels cover hundreds of decades where
    t needs one per decade.  The part before it stays in t with the
    singular hint; a span without such a segment is integrated in t
    alone.  Both parts run integrate_panels over one panel function built
    per call: a loop over the Kronrod nodes with u's evaluators resolved
    once and log t taken once per node, which is log s_kappa at kappa = 0."""
    n, kappa = geo.n, geo.kappa
    nm1, flat, r = n - 1, kappa == 0.0, math.sqrt(-kappa)
    log, exp, sinh, inf = math.log, math.exp, math.sinh, math.inf
    log_value = value = None
    if u is not None:
        log_value = u.log_abs_du if use_du else u.log_abs_u
        if log_value is None:
            value = u.du if use_du else u.u

    def panel(in_x: bool, a: float, b: float) -> tuple[float, float]:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        fs: list[float] = []
        try:
            for x in _NODES:
                t, jac = mid + half * x, 0.0
                if in_x:
                    t, jac = exp(t), t
                if t == 0.0:  # only in a panel narrower than the least normal
                    fs.append(0.0)  # float: 0, as any other value takes log 0
                    continue
                lt, lg = log(t), 0.0
                if u is not None:
                    lb = log_value(t) if value is None else abs(value(t))
                    if value is not None:  # |b| read in floats
                        lb = log(lb) if lb > 0.0 else -inf
                    if lb == -inf:
                        fs.append(0.0)
                        continue
                    lg = upow * lb + tpow * lt
                v = extra(t) if extra is not None else 1.0
                if v == 0.0:
                    fs.append(0.0)
                    continue
                if flat:
                    ls = lt
                else:
                    try:
                        s = sinh(r * t) / r  # 0 only where r*t underflows: s = t there
                        ls = log(s) if s > 0.0 else lt
                    except OverflowError:
                        ls = inf
                lg = lg + nm1 * ls + jac
                if lg > 700.0:
                    raise DomainError(f"integrand overflow at t={t!r}")
                fs.append(0.0 if lg < -700.0 else exp(lg) * v)
        except Exception as exc:
            return _panel_sums(fs, mid, half, exc)
        return _panel_sums(fs, mid, half)

    lo, hi, breakpoints, hint = span or (max(u.support_lo, 0.0), u.support_hi,
                                         u.breakpoints, u.singular_hint)
    scale = n * unit_ball_volume(n)
    val, err = 0.0, 0.0
    if u is not None and u.plateau is not None and extra is None and lo == 0.0:
        r0, log_u = u.plateau
        q = tpow + n
        if r0 < hi and q > 0.0 and (flat or nm1 * (r * r0) ** 2 / 6.0 < 2.0 ** -53):
            lm = upow * log_u + q * log(r0) - log(q)
            if use_du or lm <= 700.0:
                lo, val = r0, 0.0 if use_du else scale * exp(lm)
    edges = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    wide = next((a for a, b in zip(edges, edges[1:]) if a > 0.0 and b / a > 10.0), hi)
    if wide > lo:
        tv, te = integrate_panels(functools.partial(panel, False), lo, wide, rel_tol=tol,
                                  breakpoints=breakpoints, singular_hint=hint)
        val, err = val + scale * tv, scale * te
    if wide < hi:
        xv, xe = integrate_panels(functools.partial(panel, True), log(wide), log(hi),
                                  rel_tol=tol, breakpoints=[log(b) for b in edges if wide < b < hi])
        val, err = val + scale * xv, err + scale * xe
    return val, err


# ---------------------------------------------------------------------------
# uncertainty / interpolation margins


def _scaled_margin(geo: ModelGeometry, u: RadialTestFunction, alpha: float,
                   mass_pow: float, rhs_pow: float, rhs_key: str) -> InequalityMargin:
    """lhs = (energy)^(1/p) (integral t^(p' alpha)|u|^mass_pow dmu)^(1/p'),
    rhs = (n+alpha-1)/rhs_pow * integral (1 + (n-1)/(n+alpha-1) D_kappa)
    t^(alpha-1)|u|^rhs_pow dmu; the up and ckn margins differ only in the
    two exponents and in the extras key of the right-side integral."""
    n, p = geo.n, geo.p
    pc = geo.p_conj
    const = (n + alpha - 1.0) / rhs_pow
    dcoef = (n - 1.0) / (n + alpha - 1.0)

    energy, e_err = _log_mass(geo, u, p, 0.0, use_du=True)
    mass2, m2_err = _log_mass(geo, u, mass_pow, pc * alpha)

    def deficit_factor(t: float) -> float:
        return 1.0 + dcoef * deficit_value(geo.kappa, t)

    # at kappa = 0 the factor is exactly 1.0 (D_0 = 0), the value of extra=None
    dint, d_err = _log_mass(geo, u, rhs_pow, alpha - 1.0,
                            extra=deficit_factor if geo.kappa != 0.0 else None)

    lhs = energy ** (1.0 / p) * mass2 ** (1.0 / pc)
    rhs = const * dint
    rel_err = e_err / max(energy, _MARGIN_FLOOR) / p \
        + m2_err / max(mass2, _MARGIN_FLOOR) / pc + d_err / max(dint, _MARGIN_FLOOR)
    return _margin_of(lhs, rhs, rel_err * max(abs(rhs), lhs),
                      {"energy": energy, "mass2": mass2, rhs_key: dint,
                       "i_term": rhs, "j_term": mass2, "p": p})


def up_margin(geo: ModelGeometry, u: RadialTestFunction, alpha: float) -> InequalityMargin:
    """Three-factor uncertainty margin with the curvature deficit term.

    lhs = (energy)^(1/p) (integral t^(p' alpha)|u|^p dmu)^(1/p'),
    rhs = (n+alpha-1)/p * integral (1 + (n-1)/(n+alpha-1) D_kappa) t^(alpha-1)|u|^p dmu.
    """
    n, p = geo.n, geo.p
    if not (n > p > 1.0):
        raise HypothesisError("n > p > 1", f"n={n!r}, p={p!r}")
    if not (-p + 1.0 < alpha <= 1.0):
        raise HypothesisError("-p + 1 < alpha <= 1", f"alpha={alpha!r}")
    return _scaled_margin(geo, u, alpha, p, p, "deficit_integral")


def ckn_margin(geo: ModelGeometry, u: RadialTestFunction, alpha: float,
               r: float) -> InequalityMargin:
    """Interpolation-type multiplicative margin with exponent r > p."""
    n, p = geo.n, geo.p
    if not (r > p > 1.0):
        raise HypothesisError("r > p > 1", f"r={r!r}, p={p!r}")
    if not alpha + p > 1.0:
        raise HypothesisError("alpha + p > 1", f"alpha={alpha!r}")
    if not (p * (n + alpha - 1.0) > r * (n - p) > 0.0):
        raise HypothesisError("p(n+alpha-1) > r(n-p) > 0",
                              f"n={n!r}, p={p!r}, r={r!r}, alpha={alpha!r}")
    return _scaled_margin(geo, u, alpha, geo.p_conj * (r - 1.0), r, "rhs_integral")


def _osc_profile(c: float, x: float) -> float:
    """s_c(x): x at c=0, sin(sqrt(c) x)/sqrt(c) for c>0, sinh analog for c<0."""
    if c == 0.0:
        return x
    if c > 0.0:
        rc = math.sqrt(c)
        return math.sin(rc * x) / rc
    rc = math.sqrt(-c)
    return math.sinh(rc * x) / rc


def sc_margin(geo: ModelGeometry, u: RadialTestFunction, c: float) -> InequalityMargin:
    """Margin of energy >= (n-1)^2 |kappa| (int s_c(u)^2)^2 / int s_c(2u)^2."""
    if geo.p != 2.0:
        raise HypothesisError("p = 2", f"got p={geo.p!r}")
    if geo.kappa >= 0.0:
        raise HypothesisError("kappa < 0", f"got kappa={geo.kappa!r}")
    energy, e_err = _log_mass(geo, u, 2.0, 0.0, use_du=True)
    span = max(u.support_lo, 0.0), u.support_hi, u.breakpoints, None
    i1, e1 = _log_mass(geo, None, extra=lambda t: _osc_profile(c, u.u(t)) ** 2, span=span)
    i2, e2 = _log_mass(geo, None, extra=lambda t: _osc_profile(c, 2.0 * u.u(t)) ** 2, span=span)
    if i2 <= 10.0 * e2:
        raise DomainError("denominator integral indistinguishable from its error")
    rhs = (geo.n - 1.0) ** 2 * (-geo.kappa) * i1 * i1 / i2
    rel_err = e_err / max(energy, _MARGIN_FLOOR) + 2.0 * e1 / max(i1, _MARGIN_FLOOR) \
        + e2 / i2
    return _margin_of(energy, rhs, rel_err * max(abs(rhs), energy),
                      {"i_term": i1, "j_term": i2, "p": 2.0})


# ---------------------------------------------------------------------------
# extremal identity


@dataclass
class ExtremalIdentityResult:
    lhs: float
    rhs: float
    discrepancy: float
    gamma: float
    cutoff: float


def extremal_identity_check(geo: ModelGeometry, alpha: float) -> ExtremalIdentityResult:
    """Quadrature check of energy(u0) = (gamma/p)^p integral t^(p' alpha) u0^p
    for u0 = exp(-t^gamma/p): exact on model spaces by the radial chain rule.

    Rejected when the integrals do not converge: gamma > 0 suffices at
    kappa = 0, while kappa < 0 needs gamma > 1 to beat the exponential
    volume growth.
    """
    p = geo.p
    gamma = 1.0 + alpha / (p - 1.0)
    if gamma == math.inf:
        raise ParameterError(f"gamma = 1 + alpha/(p-1) leaves float range (alpha={alpha!r})")
    if geo.kappa == 0.0:
        if not gamma > 0.0:
            raise HypothesisError("gamma = 1 + alpha/(p-1) > 0", f"gamma={gamma!r}")
    else:
        if not gamma > 1.0:
            raise HypothesisError("gamma > 1 when kappa < 0", f"gamma={gamma!r}")

    growth = (geo.n - 1.0) * math.sqrt(-geo.kappa) if geo.kappa < 0.0 else 0.0
    pc = geo.p_conj
    R = 10.0
    try:
        while -(R**gamma) + growth * R + (pc * abs(alpha) + geo.n + 2.0) * math.log(R) > -700.0:
            R *= 1.25
            if R > 1e8:
                raise HypothesisError("integrable tail", "no finite cutoff found")
    except OverflowError:
        raise ParameterError(f"R^gamma leaves float range at R={R!r} "
                             f"(gamma={gamma!r})") from None

    u0 = gaussian_type(alpha, p)
    span = 0.0, min(R, u0.support_hi), u0.breakpoints, u0.singular_hint
    lhs, e_err = _log_mass(geo, u0, p, 0.0, use_du=True, span=span)
    mass, m_err = _log_mass(geo, u0, p, pc * alpha, span=span)
    rhs = (gamma / p) ** p * mass
    disc = abs(lhs - rhs) / max(abs(rhs), _MARGIN_FLOOR)
    return ExtremalIdentityResult(lhs=lhs, rhs=rhs, discrepancy=disc, gamma=gamma,
                                  cutoff=R)


# ---------------------------------------------------------------------------
# sharpness sweeps


@dataclass
class GmStudyRow:
    a: float
    b: float
    alpha: float
    beta: float
    m: float
    n: int
    min_G: float
    argmin_t: float
    in_region: bool


def gm_positivity_study(t_points: int = 120) -> list[GmStudyRow]:
    """Empirical positivity sweep of the two-power-weight candidate G.

    216 parameter points inside the hypotheses (alpha*beta > 0, K0 > 0),
    each scanned over four decades of t around the weight's crossover scale
    (a/b)^(1/alpha).  Positivity is proven only inside the region flagged by
    each row; outside it the minimum is reported as an observation.
    """
    rows: list[GmStudyRow] = []
    for n in (3, 5):
        geo = ModelGeometry(0.0, n, 2.0)
        for a in (0.5, 1.5):
            for b in (0.7, 2.0):
                for alpha in (0.4, 1.0, 1.9):
                    for beta in (0.35, 1.2, 2.6):
                        for delta in (0.15, 0.6, 1.1):
                            m = (n - 2.0) / 2.0 - delta
                            inst = instantiate(
                                "ghoussoub_moradifam", geo,
                                {"a": a, "b": b, "alpha": alpha, "beta": beta, "m": m})
                            g_v = evaluator(inst.G, inst.spec.binding())
                            tstar = (a / b) ** (1.0 / alpha)
                            best, argmin = math.inf, math.nan
                            for i in range(t_points):
                                t = tstar * 10.0 ** (-2.0 + 4.0 * i / (t_points - 1))
                                g = g_v(t)
                                if g < best:
                                    best, argmin = g, t
                            rows.append(GmStudyRow(
                                a=a, b=b, alpha=alpha, beta=beta, m=m, n=n,
                                min_G=best, argmin_t=argmin,
                                in_region=inst.metadata["in_thm422_region"]))
    return rows


@dataclass
class SweepRow:
    family_param: float
    lhs: float
    rhs: float
    margin: float
    quad_error: float
    ratio: float
    note: str = ""


@dataclass
class SweepResult:
    inequality: str
    params: dict
    rows: list[SweepRow]
    sharp_constant: float
    achieved_extremum: float
    min_margin: float


def hardy_default_family(geo: ModelGeometry, alpha: float = 0.0) -> list[RadialTestFunction]:
    """Near-extremal family: eps -> 0 with the plateau radius shrinking like
    exp(-0.7/eps) (clamped at the float floor)."""
    out = []
    for eps in _HARDY_EPS:
        r0 = math.exp(max(-0.7 / eps, -660.0))
        out.append(power_cutoff(eps, r0, 100.0, geo.n, geo.p, alpha=alpha))
    return out


# the params keys each sweep mode reads beside the geometry's kappa, n and p
_MODE_KEYS = {"hardy": ("alpha",), "up": ("alpha",), "ckn": ("alpha", "r")}


def _check_mode_keys(inequality: str, params: dict, modes: tuple = tuple(_MODE_KEYS)):
    """check_keys over the keys of a mode in modes; ParameterError for any other mode."""
    if inequality not in modes:
        raise ParameterError(f"unknown mode {inequality!r}")
    check_keys(f"{inequality} params beside the geometry (kappa, n, p)", params,
               _MODE_KEYS[inequality])


def scaled_params(params: dict) -> tuple[float, float]:
    """(alpha, r) of an 'up' or 'ckn' check: the one table of their defaults, 1 and 3."""
    return params.get("alpha", 1.0), params.get("r", 3.0)


def scaled_family(inequality: str, geo: ModelGeometry, params: dict,
                  family: Sequence[RadialTestFunction] | None = None,
                  ) -> tuple[float, float, Sequence[RadialTestFunction]]:
    """(alpha, r, family) of an 'up' or 'ckn' check; a key of params the
    mode does not read, or a value that is not a finite number, raises
    ParameterError.

    Without a given family the members are gaussian_type ('up') or talenti
    ('ckn') profiles at scales 0.5, 1, 2, 4.
    """
    _check_mode_keys(inequality, params, ("up", "ckn"))
    alpha, r = scaled_params(params)
    if family is None:
        if inequality == "up":
            family = [gaussian_type(alpha, geo.p, scale=lam) for lam in (0.5, 1.0, 2.0, 4.0)]
        else:
            family = [talenti(alpha, geo.p, r, scale=lam) for lam in (0.5, 1.0, 2.0, 4.0)]
    return alpha, r, family


def _achieved(lhs: float, bare_rhs: float) -> float:
    """A sweep member's achieved constant; a DomainError where its right
    side underflowed to 0."""
    if bare_rhs == 0.0:
        raise DomainError("right side underflows to 0")
    return lhs / bare_rhs


def sharpness_sweep(inequality: str, geo: ModelGeometry, params: dict | None = None,
                    family: Sequence[RadialTestFunction] | None = None) -> SweepResult:
    """Achieved-constant sweep over a family of test functions.

    Modes: 'hardy' (additive quotient vs ((C+1+alpha-p)/p)^p with C = n-1),
    'up' (three-factor uncertainty quotient vs (n+alpha-1)/p), 'ckn'
    (exponent-r quotient vs (n+alpha-1)/r).  Family members outside the
    admissible class (a DomainError) are recorded with a note and skipped;
    parameters violating the mode's hypotheses, keys of params the mode
    does not read, values that are not finite numbers and a sharp constant
    beyond float range raise.
    """
    params = dict(params or {})
    if inequality == "hardy":
        _check_mode_keys(inequality, params)
        alpha = params.get("alpha", 0.0)
        p = geo.p
        if not geo.n + alpha > p:
            raise HypothesisError("n + alpha > p", f"n={geo.n!r}, alpha={alpha!r}, p={p!r}")
        try:
            sharp = ((geo.n + alpha - p) / p) ** p
        except OverflowError:
            raise ParameterError(f"sharp constant ((n + alpha - p)/p)^p leaves float range "
                                 f"(alpha={alpha!r})") from None
        if family is None:
            family = hardy_default_family(geo, alpha=alpha)
        key = "eps"

        def member(u: RadialTestFunction) -> tuple[InequalityMargin, float]:
            energy, e_err = _log_mass(geo, u, p, alpha, use_du=True)
            mass, m_err = _log_mass(geo, u, p, alpha - p)
            rel = e_err / max(energy, _MARGIN_FLOOR) + m_err / max(mass, _MARGIN_FLOOR)
            rhs = sharp * mass
            return _margin_of(energy, rhs, rel * max(rhs, energy)), _achieved(energy, mass)
    else:
        alpha, r, family = scaled_family(inequality, geo, params, family)
        sharp = (geo.n + alpha - 1.0) / (geo.p if inequality == "up" else r)
        key = "scale"

        def member(u: RadialTestFunction) -> tuple[InequalityMargin, float]:
            if inequality == "up":
                m = up_margin(geo, u, alpha)
            else:
                m = ckn_margin(geo, u, alpha, r)
            # achieved constant: lhs over the bare rhs integral
            return m, _achieved(m.lhs, m.rhs / sharp)

    rows: list[SweepRow] = []
    for u in family:
        param = u.params.get(key, math.nan)
        try:
            m, ratio = member(u)
        except DomainError as exc:
            rows.append(SweepRow(param, math.nan, math.nan, math.nan, math.nan, math.nan,
                                 note=f"skipped: {exc}"))
            continue
        rows.append(SweepRow(param, m.lhs, m.rhs, m.margin, m.quadrature_error_estimate,
                             ratio))
    achieved = min((r.ratio for r in rows if math.isfinite(r.ratio)), default=math.nan)
    margins = [r.margin for r in rows if math.isfinite(r.margin)]
    return SweepResult(inequality=inequality, params=params, rows=rows,
                       sharp_constant=sharp, achieved_extremum=achieved,
                       min_margin=min(margins) if margins else math.nan)
