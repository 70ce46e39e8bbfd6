"""Command-line interface.

Subcommands: certify, solve-riccati, verify, sweep, spectrum, bessel-zeros,
catalog, gm-positivity.  Exit codes: 0 success / certified, 1 usage error,
2 failed certification or violated margin, 3 inconclusive / numeric
breakdown, 141 (128 + SIGPIPE, as a shell reports it) where stdout was
closed early, as in `hardykit catalog list | head -3`.  A usage error,
argparse's included, is a ParameterError, which main prints as one line,
'hardykit: <message>'.  Machine-readable artifacts (JSON, CSV) print floats at full
17-significant-digit precision and contain no timestamps, so identical
inputs give byte-identical output; human summaries use 6 digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import __version__
from .catalog import entry_names, instantiate, list_catalog
from .config import emit_config, parse_config
from .errors import DomainError, HardykitError, ParameterError, check_keys
from .exprdsl import parse as parse_expr
from .geometry import ModelGeometry
from .riccati import certify, solve_ivp
from .spectral import spectral_lambda1
from .specfun import bessel_zero
from .testfuncs import power_cutoff, random_bumps
from .verifier import (SWEEP_MODES, InequalityMargin, additive_margin, gm_positivity_study,
                       margin_violated, sharpness_sweep)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3
EXIT_CLOSED_STDOUT = 141


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals raise ParameterError, named by the
    subcommand, instead of printing the usage and exiting with 2, the code
    of a failed certification."""

    def error(self, message: str):
        command = self.prog.partition(" ")[2]
        raise ParameterError(f"{command}: {message}" if command else message)


def _fmt17(x: float) -> str:
    return repr(float(x))


def _parse_kv(text: str | None) -> dict:
    """Parse 'a=1,b=2.5,name=expr' into a dict; numbers become floats."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ParameterError(f"bad item {item!r} in {text!r} (expected key=value)")
        k, v = item.split("=", 1)
        k, v = k.strip(), v.strip()
        try:
            out[k] = float(v)
        except ValueError:
            out[k] = v
    return out


def _geometry_from_params(params: dict) -> tuple[ModelGeometry, dict]:
    """Split kappa/n/p off a _parse_kv dict; the input is left untouched.  A
    value that is not a number, or an n that is not an integer, is refused
    rather than truncated."""
    rest = dict(params)
    geo = {k: rest.pop(k, default) for k, default in (("kappa", 0.0), ("n", 3.0), ("p", 2.0))}
    for k, v in geo.items():
        if isinstance(v, str):
            raise ParameterError(f"geometry parameter {k}={v!r} is not a number")
    if not geo["n"].is_integer():
        raise ParameterError(f"geometry parameter n={geo['n']!r} is not an integer")
    return ModelGeometry(geo["kappa"], int(geo["n"]), geo["p"]), rest


def _report_json(payload: dict, path: str | None):
    text = json.dumps({"meta": {"tool": "hardykit", "version": __version__}, **payload},
                      indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_certify(args) -> int:
    if bool(args.spec) == bool(args.catalog):
        raise ParameterError("certify: exactly one of --spec or --catalog is required")
    if args.spec:
        with open(args.spec) as fh:
            spec, G = parse_config(fh.read())
        name = args.spec
    else:
        params = _parse_kv(args.params)
        geo, entry_params = _geometry_from_params(params)
        inst = instantiate(args.catalog, geo, entry_params)
        spec, G = inst.spec, inst.G
        name = args.catalog
    rep = certify(spec, G, grid_policy=args.grid, tol=args.tol, n_points=args.points)
    print(f"{name}: {rep.verdict}")
    print(f"  grid points      : {len(rep.grid)}")
    print(f"  min residual     : {rep.min_residual:.6g} (normalized, at t = {rep.argmin_t:.6g})")
    print(f"  max |residual|   : {rep.max_abs_residual:.6g}")
    print(f"  G range          : [{rep.min_G:.6g}, {rep.max_G:.6g}] "
          f"(sign required: {rep.g_sign_required:+d})" if rep.g_sign_required else
          f"  G range          : [{rep.min_G:.6g}, {rep.max_G:.6g}] (no sign restriction)")
    print(f"  tolerance        : {rep.tolerance_used:.6g}")
    if rep.reason:
        print(f"  reason           : {rep.reason}")
    if args.json:
        _report_json({
            "problem": name,
            "verdict": rep.verdict,
            "tolerance": rep.tolerance_used,
            "min_residual": rep.min_residual,
            "max_abs_residual": rep.max_abs_residual,
            "min_G": rep.min_G,
            "max_G": rep.max_G,
            "witness_t": rep.witness_t,
            "reason": rep.reason,
        }, args.json)
    if rep.verdict == "certified":
        return EXIT_OK
    return EXIT_FAILED if rep.verdict == "failed" else EXIT_INCONCLUSIVE


def _cmd_solve_riccati(args) -> int:
    lo, hi, count = args.samples
    if not (count >= 2.0 and count.is_integer() and -math.inf < lo < hi < math.inf):
        raise ParameterError(f"solve-riccati: bad --samples {lo!r} {hi!r} {count!r} "
                             "(need finite LO < HI and an integer COUNT >= 2)")
    with open(args.spec) as fh:
        spec, G = parse_config(fh.read())
    samples = [lo * (hi / lo) ** (i / (count - 1)) for i in range(int(count))] \
        if lo > 0 else [lo + (hi - lo) * i / (count - 1) for i in range(int(count))]
    below = [t for t in samples if t < args.t0]
    above = [t for t in samples if t >= args.t0]
    pieces = []
    blew = None
    if below:
        traj = solve_ivp(spec, args.t0, args.g0, "backward", below)
        pieces.extend(zip(traj.ts, traj.gs))
        if traj.blew_up:
            blew = traj
    if above:
        traj = solve_ivp(spec, args.t0, args.g0, "forward", above)
        pieces.extend(zip(traj.ts, traj.gs))
        if traj.blew_up:
            blew = traj
    for t, g in sorted(pieces):
        print(f"{_fmt17(t)} {_fmt17(g)}")
    if blew is not None:
        print(f"# blow-up near t = {_fmt17(blew.blow_up_t)} ({blew.reason})",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# the --family kinds that are one profile of a sweep mode, at a scale
_PROFILES = {"gaussian": "up", "talenti": "ckn"}
# (optional, required) keys of each --family kind; every value is a number
_FAMILY_KEYS = {"bumps": (("count", "seed", "lo", "hi", "span"), ()),
                "power_cutoff": (("alpha",), ("eps", "r0", "R")),
                **{k: ((*SWEEP_MODES[m].defaults, "scale"), ()) for k, m in _PROFILES.items()}}


def _make_family(family_spec: str, geo: ModelGeometry, lo: float = 0.0, hi: float = math.inf):
    """A test family from a --family spec; (lo, hi) is the interval bumps
    default to, the entry's or config's."""
    kind, _, kv = family_spec.partition(":")
    if kind not in _FAMILY_KEYS:
        raise ParameterError(f"unknown family {kind!r} in {family_spec!r} "
                             f"(known: {', '.join(_FAMILY_KEYS)})")
    opts = _parse_kv(kv)
    problems = []
    count, seed = opts.get("count", 20.0), opts.get("seed", 7.0)
    if not isinstance(count, str) and not (count >= 1.0 and count.is_integer()):
        problems.append(f"count={count!r} is not a positive integer")
    if not isinstance(seed, str) and not seed.is_integer():
        problems.append(f"seed={seed!r} is not an integer")
    check_keys(f"family {family_spec!r}", opts, *_FAMILY_KEYS[kind], problems)
    if kind == "bumps":
        lo, hi = opts.get("lo", lo), opts.get("hi", hi)
        span = opts.get("span", min(10.0, hi - lo) if math.isfinite(hi) else 10.0)
        return random_bumps(int(count), int(seed),
                            lo=lo, hi=hi, span=span)
    if kind == "power_cutoff":
        return [power_cutoff(opts["eps"], opts["r0"], opts["R"], geo.n, geo.p,
                             alpha=opts.get("alpha", 0.0))]
    mode = SWEEP_MODES[_PROFILES[kind]]
    args = {**mode.defaults, **opts}
    return [mode.profile(geo, args.pop("scale", 1.0), **args)]


def _margins_json(path: str | None, inequality: str, params: dict, rows: list[dict],
                  min_margin: float, extremum: float | None, sharp: float | None):
    """verify's and sweep's JSON report, written to path if one is given."""
    if path:
        _report_json({"inequality": inequality, "params": dict(sorted(params.items())),
                      "members": rows,
                      "summary": {"min_margin": min_margin, "achieved_ratio_extremum": extremum,
                                  "sharp_constant": sharp}}, path)


def _cmd_verify(args) -> int:
    params = _parse_kv(args.params)
    geo, rest = _geometry_from_params(params)
    inequality = args.inequality
    # a sweep mode that is no catalog entry (up, ckn) checks its table record's margins
    sweep = inequality in SWEEP_MODES and inequality not in entry_names()
    # options a mode would ignore are refused, so a report never names an
    # input that did not enter it
    if sweep and args.H:
        raise ParameterError(f"verify {inequality}: --H applies to catalog and generic "
                             "modes only")
    if inequality != "generic" and args.spec:
        raise ParameterError(f"verify {inequality}: --spec applies to generic mode only")
    if inequality == "generic" and params:
        raise ParameterError("verify generic: --params not accepted; the geometry and "
                             "parameters come from the --spec config")
    if sweep:
        # the sweep's rows; a member it skips is refused, not passed
        sw = sharpness_sweep(inequality, geo, rest,
                             None if args.family == "default" else _make_family(args.family, geo))
        for r in sw.rows:
            if r.note:
                raise DomainError(f"{inequality} member {SWEEP_MODES[inequality].member_key}="
                                  f"{r.family_param!r} {r.note}")
        members = [(r.family_param, InequalityMargin(r.lhs, r.rhs, r.margin, r.quad_error))
                   for r in sw.rows]
    else:
        # a catalog entry or a (spec, G) config: its w, interval and rho
        if inequality != "generic":
            target = instantiate(inequality, geo, rest)
            spec = target.spec
        elif args.spec:
            with open(args.spec) as fh:
                spec, G = parse_config(fh.read())
            target = (spec, G)
        else:
            raise ParameterError("verify generic: --spec required")
        H = parse_expr(args.H, var="s") if args.H else None
        # the default family is 20 bumps (seed 7) on the spec's interval
        family = _make_family("bumps" if args.family == "default" else args.family,
                              spec.geo, spec.t_lo, spec.t_hi)
        members = [(u.params.get("center", u.params.get("eps", math.nan)),
                    additive_margin(None, target, u, H=H)) for u in family]
    rows = [{"family_param": fam_param, "lhs": m.lhs, "rhs": m.rhs, "margin": m.margin,
             "quad_error": m.quadrature_error_estimate} for fam_param, m in members]
    worst = min([math.inf] + [m.margin for _, m in members])
    violated = any(margin_violated(m) for _, m in members)
    _margins_json(args.out, inequality, params, rows, worst, None, None)
    print(f"{inequality}: {len(rows)} member(s), min margin {worst:.6g}"
          f"{' (VIOLATED)' if violated else ''}")
    return EXIT_FAILED if violated else EXIT_OK


def _cmd_sweep(args) -> int:
    params = _parse_kv(args.params)
    geo, rest = _geometry_from_params(params)
    sw = sharpness_sweep(args.inequality, geo, rest)
    rows = [vars(r) for r in sw.rows]  # a SweepRow's fields, in the report's order
    _margins_json(args.out, args.inequality, params, rows, sw.min_margin,
                  sw.achieved_extremum, sw.sharp_constant)
    print(f"{args.inequality}: sharp constant {sw.sharp_constant:.6g}, "
          f"achieved extremum {sw.achieved_extremum:.6g}, min margin {sw.min_margin:.6g}")
    for r in sw.rows:
        note = f"  [{r.note}]" if r.note else ""
        print(f"  member {r.family_param:<10g} ratio {r.ratio:.6g}{note}")
    violated = any(margin_violated(InequalityMargin(r.lhs, r.rhs, r.margin, r.quad_error))
                   for r in sw.rows)
    return EXIT_FAILED if violated else EXIT_OK


def _cmd_spectrum(args) -> int:
    geo = ModelGeometry(args.kappa, args.n, 2.0)
    res = spectral_lambda1(geo, args.R, args.N)
    print(f"lambda1 = {res.lambda1:.6g}  (raw N={args.N}: {res.lambda1_raw:.6g}, "
          f"N/2: {res.lambda1_coarse:.6g})")
    if args.json:
        _report_json({
            "kappa": args.kappa, "n": args.n, "R": args.R, "N": args.N,
            "lambda1": res.lambda1,
            "lambda1_raw": res.lambda1_raw,
            "lambda1_coarse": res.lambda1_coarse,
        }, args.json)
    return EXIT_OK


def _cmd_bessel_zeros(args) -> int:
    for k in range(1, args.count + 1):
        print(f"{bessel_zero(args.nu, k):.15g}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in list_catalog():
            names = ", ".join(p["name"] for p in entry["params"]) or "(none)"
            print(f"{entry['name']:22s} params: {names}")
            print(f"{'':22s} requires: {entry['requires']}")
            print(f"{'':22s} source: {entry['citation']}")
        return EXIT_OK
    if not args.name:
        raise ParameterError("catalog show requires an entry name")
    params = _parse_kv(args.params)
    geo, rest = _geometry_from_params(params)
    inst = instantiate(args.name, geo, rest)
    try:
        print(emit_config(inst.spec, inst.G), end="")
    except HardykitError as exc:  # an entry the config format cannot write
        print(f"hardykit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_gm_positivity(args) -> int:
    rows = gm_positivity_study(t_points=args.t_points)
    lines = ["a,b,alpha,beta,m,n,min_G,argmin_t,in_thm422_region"]
    failures_in_region = 0
    negatives = 0
    total = 0
    for r in rows:
        total += 1
        if r.min_G <= 0.0:
            negatives += 1
            if r.in_region:
                failures_in_region += 1
        lines.append(
            f"{_fmt17(r.a)},{_fmt17(r.b)},{_fmt17(r.alpha)},{_fmt17(r.beta)},"
            f"{_fmt17(r.m)},{r.n},{_fmt17(r.min_G)},{_fmt17(r.argmin_t)},"
            f"{int(r.in_region)}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        print(csv_text, end="")
    print(f"# {total} parameter points; min-G <= 0 at {negatives} "
          f"({failures_in_region} inside the proven-positivity region)", file=sys.stderr)
    return EXIT_FAILED if failures_in_region else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    ap = _Parser(
        prog="hardykit",
        description="Certify Riccati-pair weight triples and validate the "
                    "resulting Hardy-type inequalities on model space forms.")
    ap.add_argument("--version", action="version", version=f"hardykit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="certify a weight triple against a candidate G")
    c.add_argument("--spec", help="config file path")
    c.add_argument("--catalog", help="catalog entry name")
    c.add_argument("--params", help="k=v,... (geometry kappa/n/p plus entry parameters)")
    c.add_argument("--grid", default="log", choices=("log", "uniform"))
    c.add_argument("--points", type=int, default=512)
    c.add_argument("--tol", type=float, default=1e-8)
    c.add_argument("--json", help="write a JSON report to this path")
    c.set_defaults(fn=_cmd_certify)

    r = sub.add_parser("solve-riccati", help="integrate the equality Riccati ODE "
                                             "(both directions from t0 as needed)")
    r.add_argument("--spec", required=True)
    r.add_argument("--t0", type=float, required=True)
    r.add_argument("--g0", type=float, required=True)
    r.add_argument("--samples", nargs=3, type=float, metavar=("LO", "HI", "COUNT"),
                   default=(0.1, 10.0, 64.0))
    r.set_defaults(fn=_cmd_solve_riccati)

    v = sub.add_parser("verify", help="quadrature margins for an inequality")
    sweeps = ", ".join(repr(m) for m in SWEEP_MODES if m not in entry_names())
    v.add_argument("--inequality", required=True, help=f"catalog name, {sweeps}, or 'generic'")
    v.add_argument("--params", help="k=v,...")
    v.add_argument("--family", default="default")
    v.add_argument("--spec", help="config file (generic mode)")
    v.add_argument("--H", help="nonlinearity expression in the variable s "
                               "(generic and catalog modes)")
    v.add_argument("--out", help="JSON report path")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("sweep", help="sharpness sweep toward the sharp constant")
    s.add_argument("--inequality", required=True, choices=tuple(SWEEP_MODES))
    s.add_argument("--params", help="k=v,...")
    s.add_argument("--out", help="JSON report path")
    s.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("spectrum", help="first Dirichlet eigenvalue of a radial ball")
    sp.add_argument("--kappa", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--N", type=int, default=2000)
    sp.add_argument("--json", help="JSON report path")
    sp.set_defaults(fn=_cmd_spectrum)

    bz = sub.add_parser("bessel-zeros", help="positive zeros of J_nu")
    bz.add_argument("--nu", type=float, required=True)
    bz.add_argument("--count", type=int, required=True)
    bz.set_defaults(fn=_cmd_bessel_zeros)

    cat = sub.add_parser("catalog", help="list entries or show one as a config file")
    cat.add_argument("action", choices=("list", "show"))
    cat.add_argument("name", nargs="?")
    cat.add_argument("--params", help="k=v,...")
    cat.set_defaults(fn=_cmd_catalog)

    gm = sub.add_parser("gm-positivity",
                        help="empirical positivity study of the two-power-weight G")
    gm.add_argument("--out", help="CSV path")
    gm.add_argument("--t-points", type=int, default=120, dest="t_points")
    gm.set_defaults(fn=_cmd_gm_positivity)

    try:
        args = ap.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head -3` does: what is still buffered
        # goes to devnull, so that the flush at exit does not raise again
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except (HardykitError, FileNotFoundError) as exc:
        print(f"hardykit: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE if isinstance(exc, ArithmeticError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
