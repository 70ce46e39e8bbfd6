"""Flat key-value config format for certification problems.

Sections: [geometry] kappa/n/p, [interval] lo/hi ("inf" is the only
non-numeric bound), [expressions] w/L/W/G, each an expression (the
comparison bounds too: L = (n-1)*ct(t) or (n-1)*sqrt(-kappa)), [params]
free name=value pairs, [flags] g_sign_required, homogeneity_hint,
rho_kind.  Any other section, or any other key outside [params], is
refused.  A ';' after whitespace starts a comment, inline too.
Emission and ingestion round-trip: a file written by emit_config certifies
identically when read back.
"""

from __future__ import annotations

import configparser
import io
import math

from .errors import ParameterError
from .exprdsl import ScalarExpr, parse as parse_expr
from .geometry import ModelGeometry
from .riccati import RiccatiPairSpec

__all__ = ["parse_config", "emit_config"]

# the keys of each section; [params] takes any name
_KEYS = {"geometry": ("kappa", "n", "p"), "interval": ("lo", "hi"),
         "expressions": ("w", "L", "W", "G"), "params": None,
         "flags": ("g_sign_required", "homogeneity_hint", "rho_kind")}


def parse_config(text: str) -> tuple[RiccatiPairSpec, ScalarExpr]:
    """Parse a config file into (RiccatiPairSpec, G)."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"config parse error: {exc}") from exc
    for section in cp.sections():
        if section not in _KEYS:
            raise ParameterError(f"config has unknown section [{section}] "
                                 f"(sections are {', '.join(_KEYS)})")
        keys = _KEYS[section]
        for key in cp.options(section):
            if keys is not None and key not in keys:
                raise ParameterError(f"config [{section}] has unknown key {key!r} "
                                     f"([{section}] takes {', '.join(keys)})")

    def need(section: str, key: str) -> str:
        if not cp.has_option(section, key):
            raise ParameterError(f"config missing [{section}] {key}")
        return cp.get(section, key)

    def number(section: str, key: str) -> float:
        try:
            return float(need(section, key))  # "inf" included
        except ValueError:
            raise ParameterError(f"config [{section}] {key} = {need(section, key)!r} "
                                 "is not a number") from None

    def integer(section: str, key: str) -> int:
        x = number(section, key)
        if not x.is_integer():
            raise ParameterError(f"config [{section}] {key} = {need(section, key)!r} "
                                 "is not an integer")
        return int(x)

    geo = ModelGeometry(kappa=number("geometry", "kappa"), n=integer("geometry", "n"),
                        p=number("geometry", "p"))
    t_lo = number("interval", "lo")
    t_hi = number("interval", "hi")

    params: dict[str, float] = {}
    if cp.has_section("params"):
        for k in cp.options("params"):
            params[k] = number("params", k)
            if not math.isfinite(params[k]):
                raise ParameterError(f"config [params] {k} = {need('params', k)!r} "
                                     "is not a finite number")

    w, L, W, G = (parse_expr(need("expressions", k)) for k in ("w", "L", "W", "G"))

    g_sign = 1
    hint = None
    rho_kind = "radial_distance"
    if cp.has_section("flags"):
        if cp.has_option("flags", "g_sign_required"):
            g_sign = integer("flags", "g_sign_required")
        if cp.has_option("flags", "homogeneity_hint"):
            hint = number("flags", "homogeneity_hint")
        if cp.has_option("flags", "rho_kind"):
            rho_kind = cp.get("flags", "rho_kind").strip()

    spec = RiccatiPairSpec(geo=geo, t_lo=t_lo, t_hi=t_hi, w=w, L=L, W=W,
                           params=params, g_sign_required=g_sign,
                           homogeneity_hint=hint, rho_kind=rho_kind)
    return spec, G


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return repr(float(x))


def emit_config(spec: RiccatiPairSpec, G) -> str:
    """Write a spec and its candidate G back to the config format."""
    if not isinstance(G, ScalarExpr):
        raise ParameterError(
            "only expression-backed candidates can be written to a config file")
    for name, obj in (("w", spec.w), ("L", spec.L), ("W", spec.W)):
        if not isinstance(obj, ScalarExpr):
            raise ParameterError(f"{name} is not expression-backed; cannot emit config")

    out = io.StringIO()
    out.write("[geometry]\n")
    out.write(f"kappa = {_fmt(spec.geo.kappa)}\n")
    out.write(f"n = {spec.geo.n}\n")
    out.write(f"p = {_fmt(spec.geo.p)}\n\n")
    out.write("[interval]\n")
    out.write(f"lo = {_fmt(spec.t_lo)}\n")
    out.write(f"hi = {_fmt(spec.t_hi)}\n\n")
    out.write("[expressions]\n")
    for name, obj in (("w", spec.w), ("L", spec.L), ("W", spec.W), ("G", G)):
        out.write(f"{name} = {obj.source}\n")
    out.write("\n")
    if spec.params:
        out.write("[params]\n")
        for k in sorted(spec.params):
            out.write(f"{k} = {_fmt(spec.params[k])}\n")
        out.write("\n")
    out.write("[flags]\n")
    out.write(f"g_sign_required = {spec.g_sign_required}\n")
    if spec.homogeneity_hint is not None:
        out.write(f"homogeneity_hint = {_fmt(spec.homogeneity_hint)}\n")
    out.write(f"rho_kind = {spec.rho_kind}\n")
    return out.getvalue()
