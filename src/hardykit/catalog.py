"""Named instantiations of the admissible-G constructions.

Each entry packages one classical inequality as a Riccati-pair problem:
the weight triple (w, L, W) on its interval, the closed-form candidate G
that solves the associated Riccati ODE (with equality, for every entry
here), the sharp constant as a function of the parameters, and the sign
discipline G must obey.  Parameter values violating an entry's hypotheses
are rejected with the violated predicate named.

Sign discipline: entries whose L is the exact model-space Laplacian
(n-1) ct_kappa carry no sign restriction on G; entries built on a strict
lower bound require G >= 0; the two Caccioppoli entries are realized on
geodesic balls with rho = distance to the boundary (superharmonic on model
balls), which flips the requirement to G <= 0.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, HypothesisError, ParameterError, is_finite_number
from .exprdsl import ScalarExpr, evaluator, parse
from .geometry import ModelGeometry, ct_value
from .riccati import FuncEval, RiccatiPairSpec
from .specfun import bessel_zero

__all__ = ["CatalogInstance", "CatalogEntry", "instantiate", "list_catalog",
           "entry_names", "gm_region_condition"]


@dataclass
class CatalogInstance:
    name: str
    spec: RiccatiPairSpec
    G: object
    sharp_constant: float
    citation: str
    params: dict
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    citation: str
    param_schema: tuple[tuple[str, str], ...]  # (name, description)
    requires: str
    # (geo, **params) -> (spec, G, sharp constant, the parameters used,
    # metadata); instantiate adds the name and the citation
    build: Callable
    required: tuple[str, ...]   # the parameters build has no default for
    numeric: dict[str, bool]   # the parameters taking a number -> whether None is taken


def _need(cond: bool, predicate: str, detail: str = ""):
    if not cond:
        raise HypothesisError(predicate, detail)


def _p2(geo: ModelGeometry):
    _need(geo.p == 2.0, "p = 2", f"got p={geo.p!r}")


def _neg_curv(geo: ModelGeometry):
    _need(geo.kappa < 0.0, "kappa < 0", f"got kappa={geo.kappa!r}")


def gm_region_condition(alpha: float, beta: float, k0: float) -> bool:
    """Positivity-proven region for the two-power-weight entry:
    alpha, beta > 0 and alpha*beta + sqrt(alpha*beta*(alpha*beta + 2*K0)) <= 2.
    """
    if not (alpha > 0.0 and beta > 0.0):
        return False
    ab = alpha * beta
    return ab + math.sqrt(ab * (ab + 2.0 * k0)) <= 2.0


_ENTRIES: dict[str, CatalogEntry] = {}


def _entry(name: str, citation: str, schema: tuple[tuple[str, str], ...], requires: str):
    """Register the decorated builder as the catalog entry `name`."""
    def register(build: Callable) -> Callable:
        params = list(inspect.signature(build).parameters.values())[1:]
        required = tuple(p.name for p in params if p.default is p.empty)
        numeric = {p.name: p.default is None for p in params if p.annotation.startswith("float")}
        _ENTRIES[name] = CatalogEntry(name, citation, schema, requires, build, required, numeric)
        return build
    return register


@_entry("caccioppoli",
        "Caccioppoli-type weighted inequality (D'Ambrosio-Dipierro, superharmonic distance)",
        (("alpha", "weight exponent, alpha < p-1"), ("R", "inradius of the ball")),
        "p > 1, alpha < p-1, R > 0")
def _build_caccioppoli(geo: ModelGeometry, alpha: float = 0.0, R: float = 1.0):
    p = geo.p
    _need(R > 0.0, "R > 0")
    _need(alpha < p - 1.0, "alpha < p - 1",
          "distance-to-boundary realization needs p - 1 - alpha > 0")
    q = p - 1.0 - alpha
    gc = (q / p) ** (p - 1.0)
    sharp = (q / p) ** p
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=R,
        w=parse("t^alpha"), L=parse("0"), W=parse("Ws*t^(-p)"),
        params={"alpha": alpha, "Ws": sharp, "gc": gc},
        g_sign_required=-1, homogeneity_hint=-p, rho_kind="boundary_distance")
    G = parse("-(gc)*t^(1-p)")
    return spec, G, sharp, {"alpha": alpha, "R": R}, {"q": q}


@_entry("caccioppoli_improved",
        "Caccioppoli inequality with logarithmic remainder (Brezis-Marcus type)",
        (("R", "inradius of the ball"),),
        "1 < p <= 2, R > 0")
def _build_caccioppoli_improved(geo: ModelGeometry, R: float = 1.0):
    p = geo.p
    _need(R > 0.0, "R > 0")
    _need(1.0 < p <= 2.0, "1 < p <= 2", f"got p={p!r}")
    c = ((p - 1.0) / p) ** (p - 1.0)
    sharp = ((p - 1.0) / p) ** p
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=R,
        w=parse("1"), L=parse("0"),
        W=parse("Cs*t^(-p)*(1 + 1/log(t/eR))^(p-2)"
                "*(1 + (2-p)/log(t/eR) + 1/log(t/eR)^2)"),
        params={"eR": math.e * R, "Cs": sharp, "gc": c},
        g_sign_required=-1, homogeneity_hint=-p, rho_kind="boundary_distance")
    G = parse("-(gc)*t^(1-p)*(1 + 1/log(t/eR))^(p-1)")
    return spec, G, sharp, {"R": R}, {}


@_entry("hardy",
        "weighted Hardy inequality under a radial Laplacian lower bound (Carron; Kombe-Ozaydin)",
        (("alpha", "weight exponent"), ("C", "Laplacian lower-bound coefficient C/t")),
        "C > 0, C + 1 + alpha > p")
def _build_hardy(geo: ModelGeometry, alpha: float = 0.0, C: float | None = None):
    p = geo.p
    if C is None:
        C = float(geo.n - 1)
    _need(C > 0.0, "C > 0")
    q = C + 1.0 + alpha - p
    _need(q > 0.0, "C + 1 + alpha > p", f"q = {q!r}")
    gc = (q / p) ** (p - 1.0)
    sharp = (q / p) ** p
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=math.inf,
        w=parse("t^alpha"), L=parse("C/t"), W=parse("Ws*t^(-p)"),
        params={"alpha": alpha, "C": C, "Ws": sharp, "gc": gc},
        g_sign_required=1, homogeneity_hint=-p)
    G = parse("gc*t^(1-p)")
    return spec, G, sharp, {"alpha": alpha, "C": C}, {"q": q}


@_entry("hardy_log",
        "critical-exponent Hardy inequality with logarithmic weights (Edmunds-Triebel)",
        (("alpha", "logarithmic weight exponent, alpha + 1 < p"),),
        "1 < p <= n, alpha + 1 < p")
def _build_hardy_log(geo: ModelGeometry, alpha: float = 0.0):
    p = geo.p
    _need(p <= geo.n, "p <= n", f"got p={p!r}, n={geo.n!r}")
    _need(alpha + 1.0 < p, "alpha + 1 < p", f"got alpha={alpha!r}")
    c = ((p - alpha - 1.0) / p) ** (p - 1.0)
    sharp = ((p - alpha - 1.0) / p) ** p
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=1.0,
        w=parse("log(1/t)^alpha"), L=parse("(p-1)/t"),
        W=parse("Ws*(t*log(1/t))^(-p)"),
        params={"alpha": alpha, "Ws": sharp, "gc": c},
        g_sign_required=1, homogeneity_hint=-p)
    G = parse("gc*(t*log(1/t))^(1-p)")
    return spec, G, sharp, {"alpha": alpha}, {}


@_entry("acr",
        "improved Hardy inequality with sharp log remainder (Adimurthi-Chaudhuri-Ramaswamy)",
        (("D", "outer radius of the domain"),),
        "p = 2, n >= 3, D > 0")
def _build_acr(geo: ModelGeometry, D: float = 1.0):
    _p2(geo)
    _need(geo.n >= 3, "n >= 3", f"got n={geo.n!r}")
    _need(D > 0.0, "D > 0")
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=D,
        w=parse("1"), L=parse("(n-1)/t"),
        W=parse("(n-2)^2/(4*t^2) + 1/(4*t^2*log(eD/t)^2)"),
        params={"eD": math.e * D}, g_sign_required=1, homogeneity_hint=-2.0)
    G = parse("(n-2)/(2*t) + 1/(2*t*log(eD/t))")
    return spec, G, 0.25, {"D": D}, {}


@_entry("brezis_vazquez",
        "Hardy improvement with Bessel spectral remainder (Brezis-Vazquez)",
        (("nu", "Bessel order in [0, (n-2)/2]"), ("D", "outer radius")),
        "p = 2, 0 <= nu <= (n-2)/2, D > 0")
def _build_brezis_vazquez(geo: ModelGeometry, nu: float = 0.0, D: float = 1.0):
    _p2(geo)
    _need(D > 0.0, "D > 0")
    _need(0.0 <= nu <= (geo.n - 2.0) / 2.0, "0 <= nu <= (n-2)/2",
          f"got nu={nu!r}, n={geo.n!r}")
    j1 = bessel_zero(nu, 1)
    C = j1 * j1 / (D * D)
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=D,
        w=parse("1"), L=parse("(n-1)/t"),
        W=parse("((n-2)^2/4 - nu^2)/t^2 + C0"),
        params={"nu": nu, "C0": C, "sqrtC": math.sqrt(C)},
        g_sign_required=1, homogeneity_hint=-2.0)
    G = parse("(n - 2 - 2*nu)/(2*t) + sqrtC*besselratio(nu, sqrtC*t)")
    return spec, G, C, {"nu": nu, "D": D}, {"j_nu_1": j1}


@_entry("faber_krahn",
        "Faber-Krahn first-eigenvalue lower bound on balls",
        (("R", "ball radius"),),
        "p = 2, R > 0")
def _build_faber_krahn(geo: ModelGeometry, R: float = 1.0):
    _p2(geo)
    _need(R > 0.0, "R > 0")
    if R * R < math.ldexp(1.0, -1022):  # C = j1^2 / R^2 would divide by 0 or a subnormal
        raise ParameterError(f"faber_krahn: R={R!r} squares below the least normal float")
    nu = (geo.n - 2.0) / 2.0
    j1 = bessel_zero(nu, 1)
    C = j1 * j1 / (R * R)
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=R,
        w=parse("1"), L=parse("(n-1)/t"), W=parse("C0 + 0*t"),
        params={"nu": nu, "C0": C, "sqrtC": math.sqrt(C)},
        g_sign_required=1)
    G = parse("(n - 2 - 2*nu)/(2*t) + sqrtC*besselratio(nu, sqrtC*t)")
    return spec, G, C, {"R": R}, {"j_nu_1": j1, "nu": nu}


@_entry("mckean",
        "spectral gap of the p-Laplacian under negative curvature (McKean)",
        (), "p > 1, kappa < 0")
def _build_mckean(geo: ModelGeometry):
    _neg_curv(geo)
    p = geo.p
    K = (geo.n - 1.0) * math.sqrt(-geo.kappa)
    gc = (K / p) ** (p - 1.0)
    sharp = (K / p) ** p
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=math.inf,
        w=parse("1"), L=parse("(n-1)*sqrt(-kappa)"), W=parse("Ws + 0*t"),
        params={"Ws": sharp, "gc": gc}, g_sign_required=1)
    G = parse("gc + 0*t")
    return spec, G, sharp, {}, {}


@_entry("mckean_improved",
        "McKean spectral gap with exponential-decay remainder",
        (), "p > 1, kappa < 0")
def _build_mckean_improved(geo: ModelGeometry):
    _neg_curv(geo)
    p = geo.p
    sq = math.sqrt(-geo.kappa)
    K = (geo.n - 1.0) * sq
    gc = (K / p) ** (p - 1.0)
    sharp = (K / p) ** p
    remainder = (geo.n - 1.0) ** p / p ** (p - 1.0) * (-geo.kappa) ** (p / 2.0)
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=math.inf,
        w=parse("1"), L=parse("(n-1)*ct(t)"),
        W=parse("Ws + B*(coth(sq*t) - 1)"),
        params={"Ws": sharp, "B": remainder, "sq": sq, "gc": gc},
        g_sign_required=0)
    G = parse("gc + 0*t")
    return spec, G, sharp, {}, {}


@_entry("interpolation",
        "interpolation between Hardy and spectral gap (Berchio-Ganguly-Grillo-Pinchover)",
        (("lam", "spectral parameter in [n-2, (n-1)^2/4]"),),
        "p = 2, n >= 3, kappa < 0")
def _build_interpolation(geo: ModelGeometry, lam: float | None = None):
    _p2(geo)
    _neg_curv(geo)
    n = geo.n
    _need(n >= 3, "n >= 3", f"got n={n!r}")
    lo, hi = n - 2.0, (n - 1.0) ** 2 / 4.0
    if lam is None:
        lam = lo
    _need(lo <= lam <= hi, "n - 2 <= lambda <= (n-1)^2/4", f"got lambda={lam!r}")
    gam = math.sqrt((n - 1.0) ** 2 - 4.0 * lam)
    h = (gam + 1.0) / 2.0
    kabs = -geo.kappa
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=math.inf,
        w=parse("1"), L=parse("(n-1)*ct(t)"),
        W=parse("lam*kabs + h^2/t^2 + ((n-2)^2/4 - h^2)/s(t)^2 + h*gam*D(t)/t^2"),
        params={"lam": lam, "kabs": kabs, "h": h, "gam": gam},
        g_sign_required=0)
    G = parse("-(h/t) + ((n-2)/2 + h)*ct(t)")
    return spec, G, lam * kabs, {"lam": lam}, {"gamma_n": gam, "h_n": h}


@_entry("akutagawa_kumura",
        "exterior-ball Hardy/spectral inequality (Akutagawa-Kumura)",
        (("R", "inner radius of the excluded ball"),),
        "p = 2, kappa < 0, R > 0")
def _build_akutagawa_kumura(geo: ModelGeometry, R: float = 1.0):
    _p2(geo)
    _neg_curv(geo)
    _need(R > 0.0, "R > 0")
    n = geo.n
    cR = 1.0 / ((n - 1.0) * ct_value(geo.kappa, R))
    kabs = -geo.kappa
    sharp = (n - 1.0) ** 2 * kabs / 4.0
    spec = RiccatiPairSpec(
        geo=geo, t_lo=R, t_hi=math.inf,
        w=parse("1"), L=parse("(n-1)*ct(t)"),
        W=parse("Ws + 1/(4*(t - R + cR)^2) + (n-1)*(n-3)/(4*s(t)^2)"),
        params={"R": R, "cR": cR, "Ws": sharp}, g_sign_required=0)
    G = parse("-(1/(2*(t - R + cR))) + ((n-1)/2)*ct(t)")
    return spec, G, sharp, {"R": R}, {"cR": cR}


@_entry("greene_wu_psi",
        "Hardy improvement under a pointwise comparison profile psi (Greene-Wu comparison)",
        (("psi", "profile expression with psi(0)=0, psi'(0)=1"),
         ("t_hi", "certification interval endpoint")),
        "p = 2, n >= 3, (n-2) psi' + (n-1) t psi'' >= 0 sampled")
def _build_greene_wu_psi(geo: ModelGeometry, psi: ScalarExpr | str,
                         t_hi: float = 50.0):
    _p2(geo)
    n = geo.n
    _need(n >= 3, "n >= 3", f"got n={n!r}")
    _need(t_hi > 0.0, "t_hi > 0")
    if isinstance(psi, str):
        psi = parse(psi)
    psi_d = evaluator(psi, geo.binding(), dual=True)

    def psi_dd(t: float) -> float:
        h = min(1e-5 * (1.0 + t), 0.5 * t)  # keep the stencil inside t > 0
        return (psi_d(t + h)[1] - psi_d(t - h)[1]) / (2.0 * h)

    eps = 1e-6
    v0, d0 = psi_d(eps)
    _need(abs(v0 / eps - 1.0) < 1e-3 and abs(d0 - 1.0) < 1e-3,
          "psi(0) = 0, psi'(0) = 1", f"psi({eps}) = {v0!r}, psi'({eps}) = {d0!r}")
    # sampled admissibility: (n-2) psi' + (n-1) t psi'' >= 0, detailed only on failure
    probe = [t_hi * (k + 0.5) / 64.0 for k in range(64)]
    for t in probe:
        v, d = psi_d(t)
        if not v > 0.0:
            raise HypothesisError("psi > 0", f"psi({t!r}) = {v!r}")
        c = (n - 2.0) * d + (n - 1.0) * t * psi_dd(t)
        if not c >= -1e-9 * (1.0 + abs(d)):
            raise HypothesisError("(n-2) psi' + (n-1) t psi'' >= 0", f"value {c!r} at t={t!r}")

    half_ratio = (n - 1.0) / 2.0
    last = [None, None]  # [t, (psi, psi', psi'')] of the last point; psi is pure

    def psi_terms(t: float) -> tuple[float, float, float]:
        # one psi evaluation at t serves G, G', L and W; the stencil adds two more
        if last[0] != t:
            last[:] = t, (*psi_d(t), psi_dd(t))
        return last[1]

    def G_val(t: float) -> float:
        v, d = psi_d(t)
        return -0.5 / t + half_ratio * d / v

    def G_dual(t: float) -> tuple[float, float]:
        v, d, dd = psi_terms(t)
        g = -0.5 / t + half_ratio * d / v
        r = d / v
        return g, 0.5 / (t * t) + half_ratio * (dd / v - r * r)

    def L_val(t: float) -> float:
        # the Greene-Wu bound (n-1) psi'/psi
        v, d, _ = psi_terms(t)
        if v <= 0.0:
            raise DomainError(f"psi({t!r}) = {v!r} <= 0")
        return (n - 1) * d / v

    def W_val(t: float) -> float:
        v, d, dd = psi_terms(t)
        r = d / v
        # same psi'' estimate as G' so the residual identity cancels exactly
        return (0.25 / (t * t) + half_ratio * dd / v
                + (n - 1.0) * (n - 3.0) / 4.0 * r * r)

    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=t_hi,
        w=parse("1"), L=FuncEval(L_val, name="L[psi]"),
        W=FuncEval(W_val, name="W[psi]"), params={},
        g_sign_required=1)
    G = FuncEval(G_val, G_dual, name="G[psi]")
    return spec, G, 0.25, {"psi": psi.source, "t_hi": t_hi}, {}


@_entry("ghoussoub_moradifam",
        "weighted inequality with two-power nonsingular weights (Ghoussoub-Moradifam)",
        (("a", "inner weight coefficient"), ("b", "outer weight coefficient"),
         ("alpha", "power inside the weight"), ("beta", "outer exponent"),
         ("m", "singular exponent, m < (n-2)/2")),
        "p = 2, a,b > 0, alpha*beta > 0, m < (n-2)/2")
def _build_ghoussoub_moradifam(geo: ModelGeometry, a: float = 1.0, b: float = 1.0,
                               alpha: float = 0.5, beta: float = 0.5,
                               m: float = 0.3):
    _p2(geo)
    n = geo.n
    _need(a > 0.0 and b > 0.0, "a > 0 and b > 0", f"got a={a!r}, b={b!r}")
    _need(alpha * beta > 0.0 or beta == 0.0, "alpha*beta > 0 (or beta = 0)",
          f"got alpha={alpha!r}, beta={beta!r}")
    k0 = n - 2.0 * m - 2.0
    _need(m < (n - 2.0) / 2.0, "m < (n-2)/2", f"K0 = {k0!r} must be positive")
    k1 = k0 + alpha * beta
    C = (k0 / 2.0) ** 2
    A = beta / 2.0
    B = math.sqrt(alpha * beta * (alpha * beta + 2.0 * k0)) / (2.0 * alpha) if beta != 0.0 else 0.0
    in_region = gm_region_condition(alpha, beta, k0)
    params = {"a": a, "b": b, "alpha": alpha, "beta": beta, "m": m,
              "K0h": k0 / 2.0, "oA": A, "oB": B, "C0": C}
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=math.inf,
        w=parse("(a + b*t^alpha)^beta / t^(2*m)"), L=parse("(n-1)/t"),
        W=parse("C0/t^2"), params=params,
        g_sign_required=1 if in_region else 0, homogeneity_hint=-2.0)
    if beta == 0.0:
        G = parse("K0h/t")
    else:
        # hyp2f1ratio(oA - oB, oA + oB, 1, z) is
        # F(oA - oB + 1, oA + oB + 1; 2; z) / F(oA - oB, oA + oB; 1; z)
        G = parse("K0h/t * (1 - beta*(b/a)*t^alpha"
                  " * hyp2f1ratio(oA - oB, oA + oB, 1, -(b/a)*t^alpha))")
    meta = {"K0": k0, "K1": k1, "A": A, "B": B, "in_thm422_region": in_region,
            "positivity_unproven": not in_region}
    return spec, G, C, {"a": a, "b": b, "alpha": alpha, "beta": beta, "m": m}, meta


@_entry("carvalho_cavalcante",
        "first-eigenvalue bound from gradient and p-Laplacian floors (Carvalho-Cavalcante)",
        (("a", "gradient bound |grad rho| <= a"), ("b", "p-Laplacian floor")),
        "p > 1, a > 0, b > 0")
def _build_carvalho_cavalcante(geo: ModelGeometry, a: float = 1.0, b: float = 1.0):
    p = geo.p
    _need(a > 0.0 and b > 0.0, "a > 0 and b > 0", f"got a={a!r}, b={b!r}")
    # gradient bound |grad rho| <= a absorbed by rescaling: the triple below
    # with floor b/a^(p-1) reproduces the stated constant exactly
    bb = b / a ** (p - 1.0)
    gc = (bb / p) ** (p - 1.0)
    sharp = b**p / (p**p * a ** (p * (p - 1.0)))
    spec = RiccatiPairSpec(
        geo=geo, t_lo=0.0, t_hi=math.inf,
        w=parse("1"), L=parse("bb + 0*t"), W=parse("Ws + 0*t"),
        params={"bb": bb, "Ws": sharp, "gc": gc}, g_sign_required=1)
    G = parse("gc + 0*t")
    return spec, G, sharp, {"a": a, "b": b}, {"floor": bb}


def entry_names() -> list[str]:
    return list(_ENTRIES)


def list_catalog() -> list[dict]:
    """Entry summaries: name, parameter schema, hypothesis line, citation."""
    return [
        {
            "name": e.name,
            "params": [{"name": n, "doc": d} for n, d in e.param_schema],
            "requires": e.requires,
            "citation": e.citation,
        }
        for e in _ENTRIES.values()
    ]


def instantiate(name: str, geo: ModelGeometry, params: dict | None = None) -> CatalogInstance:
    """Build the named entry for the given geometry and parameter values."""
    try:
        entry = _ENTRIES[name]
    except KeyError:
        known = ", ".join(_ENTRIES)
        raise ParameterError(f"unknown catalog entry {name!r} (known: {known})") from None
    params = params or {}
    names = [n for n, _ in entry.param_schema]
    problems = [f"unknown parameter {k!r}" for k in params if k not in names]
    problems += [f"missing parameter {k!r}" for k in entry.required if k not in params]
    problems += [f"{k}={v!r} is not a finite number" for k, v in params.items()
                 if k in entry.numeric and not is_finite_number(v)
                 and not (v is None and entry.numeric[k])]
    if problems:
        takes = ", ".join(n + " (required)" * (n in entry.required) for n in names)
        raise ParameterError(f"catalog entry {name!r}: {'; '.join(problems)}; "
                             f"it takes {takes or 'no parameters'}")
    try:
        spec, G, sharp, used, metadata = entry.build(geo, **params)
    except OverflowError:
        raise ParameterError(f"catalog entry {name!r}: a constant built from {params} "
                             "leaves float range") from None
    return CatalogInstance(name, spec, G, sharp, entry.citation, used, metadata)
