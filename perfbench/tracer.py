"""Per-layer spans and work counts recorded from outside the program.

``Tracer.install`` wraps the public functions and public methods of every
hardykit module and rebinds each wrapper at every place the original is
bound (``verifier.integrate``, ``spectral.s_value``, ``catalog.bessel_zero``,
the package namespace, ...), so calls between modules pass through it.
A layer is the module that defines the function.  Each call is a span; a
layer's self time is the span's duration minus the time of the spans it
contains.  Nothing in ``src/`` changes, and ``uninstall`` restores every
binding.

Closures are attributed to the module that defines them: the tracer wraps
the callables of each radial test function ``testfuncs`` returns, the
integrand handed to ``quadrature.integrate`` (mostly verifier closures) and
the right-hand side handed to ``rk45.integrate_to_samples`` (riccati's).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("geometry", "specfun", "exprdsl", "riccati", "rk45", "quadrature",
          "catalog", "config", "testfuncs", "verifier", "spectral", "cli")

MARGIN_FUNCTIONS = ("additive_margin", "multiplicative_margin", "up_margin",
                    "ckn_margin", "sc_margin")
SPECFUN_COUNTED = ("bessel_j", "bessel_ratio", "bessel_zero", "hyp2f1")
_TESTFUNC_CALLABLES = ("u", "du", "log_abs_u", "log_abs_du")


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.stack: list[list[float]] = []       # child time of each open span
        self.calls: Counter = Counter()          # "layer.qualname" -> calls
        self.self_s: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()         # layer -> exceptions raised there
        self.counts: Counter = Counter()         # layer-specific work counts
        self._emitted: set[str] = set()
        self.op_spans: list[dict] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn, pre=None, post=None):
        key = f"{layer}.{qualname}"
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.errors[layer] += 1
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                own = dt - frame[0]
                tracer.calls[key] += 1
                tracer.self_s[key] += own
                tracer.layer_self[layer] += own
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper._perfbench = True
        for attr in ("cache_clear", "cache_info"):   # lru_cache API
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def begin_op(self, kind: str) -> dict:
        return {"kind": kind, "start": time.perf_counter(), "layers": dict(self.layer_self)}

    def end_op(self, span: dict):
        before = span.pop("layers")
        span["end"] = time.perf_counter()
        span["id"] = len(self.op_spans)
        span["self_s"] = {k: v - before.get(k, 0.0) for k, v in self.layer_self.items()
                          if v - before.get(k, 0.0) > 0.0}
        self.op_spans.append(span)

    # -- hooks for layer-specific counts --------------------------------------

    def _hooks(self) -> dict:
        counts = self.counts

        def closure(f, what: str):
            layer = getattr(f, "__module__", "").rpartition(".")[2]
            return self._wrap(layer, what, f) if layer in LAYERS else f

        def rk45_pre(args, kwargs):
            f = closure(args[0], "rhs")

            def counted_rhs(t, y):
                counts["rk45.rhs_evals"] += 1
                return f(t, y)

            samples = args[3] if len(args) > 3 else kwargs["sample_ts"]
            counts["rk45.samples"] += len(samples)
            return (counted_rhs,) + tuple(args[1:]), kwargs

        def integrate_pre(args, kwargs):
            return (closure(args[0], "integrand"),) + tuple(args[1:]), kwargs

        def grid_post(grid):
            counts["riccati.grid_points"] += len(grid)

        def spectral_pre(args, kwargs):
            n = args[2] if len(args) > 2 else kwargs.get("N", 2000)
            counts["spectral.cells"] += n + n // 2
            return args, kwargs

        def emit_post(text):
            self._emitted.add(text)

        def parse_config_pre(args, kwargs):
            text = args[0] if args else kwargs["text"]
            if text in self._emitted:
                counts["config.round_trips"] += 1
            return args, kwargs

        def testfunc_post(result):
            for u in result if isinstance(result, list) else (result,):
                for attr in _TESTFUNC_CALLABLES:
                    f = getattr(u, attr, None)
                    if f is not None and not getattr(f, "_perfbench", False):
                        setattr(u, attr, self._wrap("testfuncs", f"profile.{attr}", f))

        return {
            "rk45.integrate_to_samples": (rk45_pre, None),
            "quadrature.integrate": (integrate_pre, None),
            "riccati.certification_grid": (None, grid_post),
            "spectral.spectral_lambda1": (spectral_pre, None),
            "config.emit_config": (None, emit_post),
            "config.parse_config": (parse_config_pre, None),
            **{f"testfuncs.{name}": (None, testfunc_post)
               for name in ("compact_bump", "power_cutoff", "gaussian_type", "talenti",
                            "random_bumps", "from_expr")},
        }

    # -- install / uninstall --------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        replace: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"hardykit.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            w = self._wrap(layer, f"{name}.{mname}", meth)
                            self._patch(obj, mname, w)
                elif callable(obj):
                    pre, post = hooks.get(f"{layer}.{name}", (None, None))
                    replace[id(obj)] = (obj, self._wrap(layer, name, obj, pre, post))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hardykit" or mod_name.startswith("hardykit.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def layer_calls(self) -> Counter:
        out: Counter = Counter()
        for key, n in self.calls.items():
            out[key.split(".", 1)[0]] += n
        return out

    def deterministic_counts(self) -> dict:
        """Every count that must repeat exactly for the same op list."""
        out = {f"calls.{k}": v for k, v in self.calls.items()}
        out.update({f"errors.{k}": v for k, v in self.errors.items()})
        out.update({f"counts.{k}": v for k, v in self.counts.items()})
        return dict(sorted(out.items()))
