"""Quadrature validation of the additive and multiplicative inequalities.

Everything here reduces to weighted radial integrals against the model
measure d(mu) = n*omega_n * s_kappa^(n-1)(t) dt, each run by
quadrature.integrate_panels over one Kronrod panel, ``_PANEL``, that sums
the power factors of the integrand in logs (|u|^p or |u'|^p, through the
profile's log evaluators where it has them, |G|^p', |H'(u)|^p', t^a,
s_kappa^(n-1) and the Jacobian of x = ln t) and multiplies exp of the sum
by the plain or signed factors (w, I_H's drift, a general H's h(u), an
extra factor), so near-extremal test functions, whose plateau values lie
beyond float range, never overflow an intermediate.  One rule covers every
integral: where the plain factors are nonzero and the log sum exceeds 700,
a DomainError names the t (``integrand overflow at t=...``).

The additive margin compares the energy integral with the two-term right
side built from a candidate G, its weight w (the constant 1 for a plain G)
and a nonlinearity H; the multiplicative margin assembles
|I_H|^p / J_H^(p-1) from the same integrals, which run in t on u's
breakpoints, and I_H's panels also give J_H's sums.  Margins carry their
quadrature error estimates, and a margin only counts as a violation when
it is more negative than 10x the combined error (numerical noise must
never masquerade as a counterexample to a theorem).  Every other integral
is a weighted mass (``_log_mass``).  The relative tolerance is ``_TOL`` =
1e-10 for the additive and multiplicative margins and
``radial_integral``, ``_TOL_FINE`` = 1e-11 for everything else.
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
_LN2 = math.log(2.0)
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


# ---------------------------------------------------------------------------
# the radial panel

# The Kronrod panel of every radial integral, by part: 0 a mass
# |b|^upow t^tpow extra in t with b = u or u' (a margin's energy |u'|^p w,
# extra = w, which J_H reads too), 1 the same in x = ln t, 2 a margin's I_H
# and 3 its J_H.  A node is exp(lg) v, lg in nats; it is 0 where b (u in
# I_H and J_H) or v is 0, and at t = 0, met only in a panel narrower than
# the least normal float.  log is math.log2 (a third of math.log's cost on
# CPython 3.11, whose math.log packs its argument in a tuple): per_nat
# converts a profile's log evaluators, in nats, to bits, and the
# coefficients, the names ending in _l, carry ln 2 back to nats.  Part 2
# keeps J_H's node values from the same G and w, with J_H's first error, in
# store[a, b] for part 3; J_H evaluates G and w in value mode only where
# I_H did not.  G is inlined once, in the node loop: unrolled per node, its
# compile would cost a margin of a new shape tens of milliseconds.
_PANEL = """\
def radial_panel(part, store, a, b):
    if part == 3 and (a, b) in store:
        return sums(*store[a, b])
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fs, jerr = [], None
    fjs = fs if part == 3 else []
    try:
        for x in nodes:
            t, jac = mid + half * x, 0.0
            if part == 1:
                t, jac = exp(t), t
            if t == 0.0:
                fs.append(0.0)
                if part == 2 and jerr is None:
                    fjs.append(0.0)
                continue
            if flat:
                ls = log(t)
            else:
                rt = r * t
                try:
                    s = sinh(rt) / r  # 0 only where r*t underflows: s = t there
                    ls = log(s) if s > 0.0 else log(t)
                except OverflowError:
                    ls = inf
            if part < 2:
                lg = 0.0
                if base is not None:
                    if log_base is None:  # |b| read in floats
                        lg = abs(base(t))
                        lg = log(lg) if lg != 0.0 else -inf
                    else:
                        lg = log_base(t) * per_nat
                    if lg == -inf:
                        fs.append(0.0)
                        continue
                    lg = upow_l * lg
                    if tpow_l != 0.0:
                        lg = lg + tpow_l * (ls if flat else log(t))
                v = extra(t) if extra is not None else 1.0
            else:
                if h is None:  # p H(u) = |H'(u)|^p' = |u|^p
                    if log_u is None:
                        lj = abs(u(t))
                        lj = log(lj) if lj != 0.0 else -inf
                    else:
                        lj = log_u(t) * per_nat
                    lg = lj = p_l * lj
                    hval = rp if lj != -inf else 0.0
                else:
                    uv = u(t)
                    lg, hval = 0.0, h(uv) if part == 2 else 0.0
                v = 0.0
                if part == 2 and hval != 0.0:
                    gv, gd = G(t)
                    wv, wd = w(t)
                    if flat:
                        ct = 1.0 / t
                    elif cut <= rt <= 350.0:
                        ct = r * (1.0 + 2.0 / expm1(2.0 * rt))
                    else:
                        ct = ct_value(kappa, t)
                    v = ((gd * wv + gv * wd) + gv * wv * nm1 * ct) * hval
                if jerr is None:
                    try:
                        if h is not None:
                            lj = abs(h_d(uv)[1])
                            lj = pc_l * log(lj) if lj != 0.0 else -inf
                        fj = 0.0
                        if lj != -inf:
                            if part == 3 or hval == 0.0:
                                gv, wv = g_v(t), extra(t)
                            gv = abs(gv)
                            if gv != 0.0 and wv != 0.0:
                                lj = lj + pc_l * log(gv) + dens_l * ls
                                if lj > 700.0:
                                    raise DomainError(f"integrand overflow at t={t!r}")
                                fj = 0.0 if lj < -700.0 else exp(lj) * wv
                        fjs.append(fj)
                    except Exception as exc:
                        jerr = exc
                        if part == 3:
                            break
                if part == 3:
                    continue
            if v == 0.0:
                fs.append(0.0)
                continue
            lg = lg + dens_l * ls + jac
            if lg > 700.0:
                raise DomainError(f"integrand overflow at t={t!r}")
            fs.append(0.0 if lg < -700.0 else exp(lg) * v)
    except Exception as exc:
        return sums(fs, mid, half, exc)
    if part == 2:
        store[a, b] = fjs, mid, half, jerr
        jerr = None
    return sums(fs, mid, half, jerr)
"""


def _radial_panel(geo: ModelGeometry, u: RadialTestFunction | None, upow: float = 0.0,
                  tpow: float = 0.0, use_du: bool = False,
                  extra: Callable[[float], float] | None = None, G=None, w=None, H=None,
                  binding: dict | None = None):
    """panel(part, store, a, b): _PANEL for the mass of |b|^upow t^tpow extra,
    b = u' if use_du else u (none where u is None), or, given G, for a
    margin's G, w and H: G and w inlined, H's functions resolved once."""
    binding = binding or {}
    if G is not None:  # the energy: the mass of |u'|^p w
        upow, tpow, use_du, extra = geo.p, 0.0, True, evaluator(w, binding)
    h, h_d = _nonlinearity(H, binding)
    p, pc, kappa = geo.p, geo.p_conj, geo.kappa
    env = {"nodes": _NODES, "sums": _panel_sums, "log": math.log2,
           "exp": math.exp, "sinh": math.sinh, "expm1": math.expm1, "inf": math.inf,
           "DomainError": DomainError, "ct_value": ct_value, "cut": _TAYLOR_CUT,
           "kappa": kappa, "flat": kappa == 0.0, "r": math.sqrt(-kappa), "nm1": geo.n - 1,
           "base": None if u is None else u.du if use_du else u.u,
           "log_base": None if u is None else u.log_abs_du if use_du else u.log_abs_u,
           "u": None if u is None else u.u, "log_u": None if u is None else u.log_abs_u,
           "extra": extra, "h": h, "h_d": h_d, "rp": 1.0 / p,
           "g_v": None if G is None else evaluator(G, binding),
           "per_nat": 1.0 / _LN2, "upow_l": upow * _LN2, "tpow_l": tpow * _LN2,
           "p_l": p * _LN2, "pc_l": pc * _LN2, "dens_l": (geo.n - 1) * _LN2}
    if G is None:
        return fill_template(_PANEL, {}, binding, {**env, "G": None, "w": None})
    return fill_template(_PANEL, {"G": (G, True), "w": (w, True)}, binding, env)


def radial_integral(
    geo: ModelGeometry,
    f: Callable[[float], float],
    R: float,
    breakpoints: Sequence[float] = (),
) -> tuple[float, float]:
    """n*omega_n * integral_0^R f(t) s_kappa^(n-1)(t) dt with error estimate,
    f read in floats: _log_mass with no u, so a DomainError names the t
    where f is nonzero and s_kappa^(n-1) exceeds e^700 (t s_kappa^(n-1)
    where the integral runs in ln t).  An integrable power singularity of f
    at 0 needs no declaring: the adaptive loop halves its way into it."""
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError(f"radial_integral needs a finite R > 0, got {R!r}")
    return _log_mass(geo, None, extra=f, span=(0.0, R, breakpoints), tol=_TOL)


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


def _additive_terms(geo, target, u: RadialTestFunction, H, binding):
    """(p, energy, I_H, J_H) with the three error estimates: the terms both
    margins combine, for a target as ``_resolve_target`` takes it.  The
    three integrals run in this order over one _radial_panel, in t on u's
    breakpoints.  Every result, mesh and error is that of three independent
    integrals, and an error of the energy wins over one of I_H, which wins
    over one of J_H."""
    geo, G, w, binding = _resolve_target(geo, target, u, binding)
    panel = _radial_panel(geo, u, G=G, w=w, H=H, binding=binding)
    lo, hi = max(u.support_lo, 0.0), u.support_hi
    scale = geo.n * unit_ball_volume(geo.n)
    store: dict = {}

    def integral(part: int) -> tuple[float, float]:
        val, err = integrate_panels(functools.partial(panel, part, store), lo, hi,
                                    rel_tol=_TOL, breakpoints=u.breakpoints)
        return scale * val, scale * err

    return (geo.p, *integral(0), *integral(2), *integral(3))


def additive_margin(geo: ModelGeometry | None, target, u: RadialTestFunction,
                    H=None, binding: dict | None = None) -> InequalityMargin:
    """Margin of the additive inequality for one test function.

    target is a CatalogInstance, a (RiccatiPairSpec, G) pair or a plain G
    evaluable; H defaults to |s|^p/p.  On model spaces the distance Laplacian
    is the exact (n-1) ct_kappa, which is what the right side uses.  A node
    of the energy, I_H or J_H whose power factors exceed e^700 (as
    |G|^p' |u|^p s_kappa^(n-1) in J_H) raises DomainError.
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
# weighted masses (wide-dynamic-range test functions)


def _log_mass(geo: ModelGeometry, u: RadialTestFunction | None, upow: float = 0.0,
              tpow: float = 0.0, use_du: bool = False,
              extra: Callable[[float], float] | None = None,
              span: tuple | None = None, tol: float = _TOL_FINE) -> tuple[float, float]:
    """n*omega_n * integral |b(t)|^upow t^tpow s^(n-1) extra(t) dt with
    b = u or u', or with u None n*omega_n * integral extra(t) s^(n-1) dt,
    a signed extra read in floats, and its error estimate: parts 0 and 1 of
    _radial_panel.  extra=None is the constant 1.0 without a call per node.

    span = (lo, hi, breakpoints) defaults to u's support and breakpoints.
    Where u declares a plateau (r0, log|u|), the span starts at 0 and extra
    is None, the piece on [0, r0] is taken in closed form,
    exp(upow log|u| + q log r0 - log q) with q = tpow + n (0 for the
    energy), if s_kappa(t)^(n-1) = t^(n-1) to float precision across
    [0, r0] (kappa = 0, or (n-1) (sqrt(-kappa) r0)^2 / 6 < 2^-53), q > 0
    and the mass is within float range.  From the first segment between
    edges that spans more than a decade the integral runs in x = ln t,
    where a near-extremal power region becomes exp(p*eps*x): a few panels
    cover hundreds of decades.  The part before it stays in t."""
    n, kappa = geo.n, geo.kappa
    panel = _radial_panel(geo, u, upow, tpow, use_du, extra)
    lo, hi, breakpoints = span or (max(u.support_lo, 0.0), u.support_hi, u.breakpoints)
    scale = n * unit_ball_volume(n)
    val, err = 0.0, 0.0
    if u is not None and u.plateau is not None and extra is None and lo == 0.0:
        r0, log_u = u.plateau
        q = tpow + n
        flat_r0 = kappa == 0.0 or (n - 1) * (math.sqrt(-kappa) * r0) ** 2 / 6.0 < 2.0 ** -53
        if r0 < hi and q > 0.0 and flat_r0:
            lm = upow * log_u + q * math.log(r0) - math.log(q)
            if use_du or lm <= 700.0:
                lo, val = r0, 0.0 if use_du else scale * math.exp(lm)
    edges = sorted({lo, hi, *(b for b in breakpoints if lo < b < hi)})
    wide = next((a for a, b in zip(edges, edges[1:]) if a > 0.0 and b / a > 10.0), hi)
    if wide > lo:
        tv, te = integrate_panels(functools.partial(panel, 0, None), lo, wide, rel_tol=tol,
                                  breakpoints=breakpoints)
        val, err = val + scale * tv, scale * te
    if wide < hi:
        xv, xe = integrate_panels(functools.partial(panel, 1, None), math.log(wide),
                                  math.log(hi), rel_tol=tol,
                                  breakpoints=[math.log(b) for b in edges if wide < b < hi])
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
    span = max(u.support_lo, 0.0), u.support_hi, u.breakpoints
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
    span = 0.0, min(R, u0.support_hi), u0.breakpoints
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
