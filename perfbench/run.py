"""hardykit benchmark: seeded closed-loop workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify_mix --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

One client in one thread sends the next op when the previous one returns;
every op calls the public hardykit API in this process.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  The run's op
list (``--seconds`` worth of cycles at nominal speed) is timed once, and
every output is checked against its oracle outside the timed region.  A
fixed reference loop (reference.py) is timed between ops and each op time
is scaled to the nominal host speed by it: the shared host swings the speed
of one and the same op by up to 2x for tens of seconds at a time.
The run record keeps the unscaled figures too, and ``--trace 1`` reports
the unscaled throughput of its untraced pass as ``unscaled.ops_per_s``.
That figure is not gated: on a shared 2 vCPU x86 host the median of five
constants runs moved from 8.40 to 5.56 ops/s within minutes, while the
scaled median moved from 8.89 to 9.41.

``--trace 1`` prints the per-layer metrics.  It runs the first TRACE_SHARE
of that op list three times: under the tracer (tracer.py), untraced, and
under the tracer again.  The work counts of the two traced passes must
agree exactly.

The last line of standard output is the result JSON; the lines before it
hold run details (metadata, failures, tail percentile).  Every run also
appends its record to perfbench/results/runs.jsonl (or ``--out``), and
``--compare`` summarizes two such files.  Exit status 2 means the program
could not be set up here (no sources under src/).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, for this process and the set-up interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPS = 7
# nominal op time of one cycle (a 2 vCPU x86 host at reference.NOMINAL_S):
# the op list depends on the seed and --seconds only, never on how fast the
# host happens to be
CYCLE_SECONDS = {"certify_mix": 0.24, "margins_mix": 0.27, "constants": 2.2}
# the traced op list is the first TRACE_SHARE of a measured run's cycles; on
# constants that is one turn of the zero-scan strata (three cycles at 15 s)
TRACE_SHARE = {"certify_mix": 0.2, "margins_mix": 0.2, "constants": 0.5}
TAIL_BEYOND = 10
SETUP_CODE = ("import time, reference; r = reference.loop_seconds(); "
              "t = time.perf_counter(); import hardykit.cli; t = time.perf_counter() - t; "
              "print(repr(t), repr(0.5 * (r + reference.loop_seconds())))")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# ---------------------------------------------------------------------------
# set-up and metadata


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def measure_setup() -> tuple[float, float]:
    """Cold ``import hardykit.cli`` in a fresh interpreter, as each CLI call
    pays, and the mean reference loop time just before and after it there."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import hardykit.cli failed:\n{proc.stderr.strip()}")
    seconds, ref = (float(x) for x in proc.stdout.split())
    return seconds, ref


def import_program():
    if not (SRC / "hardykit" / "__init__.py").is_file():
        raise BenchError(f"no hardykit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hardykit
    if Path(hardykit.__file__).resolve().parent != (SRC / "hardykit").resolve():
        raise BenchError(f"imported hardykit from {hardykit.__file__}, not from {SRC}")
    return hardykit


def run_metadata(seed: int) -> dict:
    import mpmath
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "hardykit").glob("*.py")))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running ops


class RunStats:
    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: Counter = Counter()
        self.failed_by_kind: Counter = Counter()
        self.raised = 0        # typed HardykitError: a refusal
        self.inaccurate = 0    # missed the accuracy or verdict its oracle asks for
        self.wrong = 0         # an incorrect output (workloads.Wrong)
        self.crashed = 0       # any other exception: outside the error contract
        self.examples: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.raised + self.inaccurate + self.wrong + self.crashed

    def note(self, kind: str, what: str):
        self.failed_by_kind[kind] += 1
        if len(self.examples) < 20:
            self.examples.append(f"{kind}: {what}")


def run_op(op, stats: RunStats, hardykit_error, check: bool = True, tracer=None) -> float:
    span = tracer.begin_op(op.kind) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = op.run()
        exc = None
    except hardykit_error as e:
        exc, typed = e, True
    except Exception as e:  # noqa: BLE001 - every failure is counted, never raised
        exc, typed = e, False
    dt = time.perf_counter() - t0
    if span is not None:
        tracer.end_op(span)
    stats.latencies.append(dt)
    stats.by_kind[op.kind] += 1
    if exc is not None:
        if typed:
            stats.raised += 1
        else:
            stats.crashed += 1
        stats.note(op.kind, f"{type(exc).__name__}: {exc}"[:300])
    elif check:
        reason = op.check(out)
        if reason is not None:
            wrong = getattr(reason, "wrong", False)
            if wrong:
                stats.wrong += 1
            else:
                stats.inaccurate += 1
            stats.note(op.kind, f"{'wrong' if wrong else 'inaccurate'}: {reason}"[:300])
    return dt


def warm_up(workloads, workload: str, seed: int, cli_runner, hardykit_error):
    """One op of each kind from a separate stream, untimed: lazy imports and
    first-call set-up happen here rather than in the measured ops."""
    seen = set()
    for op in next(workloads.cycles(workload, f"warmup:{seed}", cli_runner)):
        key = "cli" if op.kind.startswith("cli:") else op.kind
        if key not in seen:
            seen.add(key)
            run_op(op, RunStats(), hardykit_error, check=False)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def run_cycles(workloads, workload, seed, seconds, cli_runner) -> list[list]:
    n_cycles = max(1, round(seconds / CYCLE_SECONDS[workload]))
    gen = workloads.cycles(workload, seed, cli_runner)
    return [next(gen) for _ in range(n_cycles)]


def measured_run(workloads, specfun, workload, seed, seconds, cli_runner, hardykit_error):
    """Runs the op list once, with the reference loop timed between ops and
    set-up sampled SETUP_REPS times across the run.  The Bessel-zero cache
    starts empty, as in a fresh process; no input repeats within a run.

    Returns the stats, the scaled op times, the scaled set-up times and the
    op kinds."""
    cycles = run_cycles(workloads, workload, seed, seconds, cli_runner)
    setup_before = Counter(round(i * (len(cycles) - 1) / (SETUP_REPS - 1))
                           for i in range(SETUP_REPS))
    setup = []
    stats = RunStats()
    scaled: list[float] = []
    specfun.bessel_zero.cache_clear()
    ref = reference.loop_seconds()
    for position, cycle in enumerate(cycles):
        for _ in range(setup_before[position]):
            t, ref_child = measure_setup()
            setup.append(t * reference.NOMINAL_S / ref_child)
        for op in cycle:
            t = run_op(op, stats, hardykit_error)
            ref_after = reference.loop_seconds()
            scaled.append(t * reference.NOMINAL_S / (0.5 * (ref + ref_after)))
            ref = ref_after
    return stats, scaled, setup, [op.kind for cycle in cycles for op in cycle]


def traced_run(workloads, tracer_mod, specfun, workload, seed, seconds, cli_runner,
               hardykit_error):
    ops = [op for cycle in run_cycles(workloads, workload, seed, seconds * TRACE_SHARE[workload],
                                      cli_runner) for op in cycle]

    def one_pass(tracer):
        specfun.bessel_zero.cache_clear()       # every pass starts as a fresh process
        stats = RunStats()
        before = specfun.bessel_zero.cache_info()
        if tracer is not None:
            tracer.install()
        try:
            busy = sum(run_op(op, stats, hardykit_error, check=tracer is None, tracer=tracer)
                       for op in ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = specfun.bessel_zero.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        return stats, busy, (hits / (hits + misses) if hits + misses else 0.0)

    # the untraced pass runs between the traced ones, so that it and the
    # second traced pass, whose times give the overhead, both follow a pass
    # that paid the first-use costs
    traces = []
    for _ in range(2):
        tr = tracer_mod.Tracer()
        stats, busy, hit_ratio = one_pass(tr)
        traces.append((tr, stats, busy, hit_ratio))
        if len(traces) == 1:
            plain_stats, plain_busy, _ = one_pass(None)
    return plain_stats, plain_busy, traces


def per_layer_metrics(tracer_mod, traces, plain_busy) -> dict[str, float]:
    (t1, stats1, _, hit_ratio), (t2, _, busy2, _) = traces
    attempted = stats1.attempted
    calls = t1.layer_calls()
    fn = t1.calls
    counts = t1.counts

    def self_s(layer):
        return 0.5 * (t1.layer_self[layer] + t2.layer_self[layer])

    def fn_self(key):
        return 0.5 * (t1.self_s[key] + t2.self_s[key])

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m: dict[str, float] = {}
    for layer in tracer_mod.LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.errors"] = t1.errors[layer]
    evals = fn["exprdsl.ScalarExpr.eval"] + fn["exprdsl.ScalarExpr.eval_d"]
    m["exprdsl.evals"] = evals
    m["exprdsl.us_per_eval"] = ratio(self_s("exprdsl"), evals, 1e6)
    m["exprdsl.parses"] = fn["exprdsl.parse"]
    m["riccati.grid_points"] = counts["riccati.grid_points"]
    m["riccati.residual_points"] = fn["riccati.residual_parts"]
    m["rk45.rhs_evals"] = counts["rk45.rhs_evals"]
    m["rk45.rhs_evals_per_sample"] = ratio(counts["rk45.rhs_evals"], counts["rk45.samples"])
    m["quadrature.integrals"] = fn["quadrature.integrate"]
    m["quadrature.panels"] = fn["quadrature.kronrod_panel"]
    m["quadrature.panels_per_integral"] = ratio(fn["quadrature.kronrod_panel"],
                                                fn["quadrature.integrate"])
    for name in tracer_mod.SPECFUN_COUNTED:
        m[f"specfun.{name}_calls"] = fn[f"specfun.{name}"]
    m["specfun.bessel_zero_self_s"] = fn_self("specfun.bessel_zero")
    m["specfun.hyp2f1_self_s"] = fn_self("specfun.hyp2f1")
    m["specfun.bessel_zero_cache_hit_ratio"] = hit_ratio
    m["spectral.solves"] = fn["spectral.spectral_lambda1"]
    m["spectral.cells"] = counts["spectral.cells"]
    m["spectral.us_per_cell"] = ratio(self_s("spectral"), counts["spectral.cells"], 1e6)
    m["catalog.instantiates"] = fn["catalog.instantiate"]
    m["config.round_trips"] = counts["config.round_trips"]
    m["cli.commands"] = fn["cli.main"]
    m["verifier.margins"] = sum(fn[f"verifier.{f}"] for f in tracer_mod.MARGIN_FUNCTIONS)
    m["trace.overhead_ratio"] = ratio(busy2, plain_busy)
    m["unscaled.ops_per_s"] = ratio(attempted, plain_busy)
    return m


# ---------------------------------------------------------------------------
# output


def _metrics_block(names_units: list[dict], values: dict[str, float]) -> dict:
    missing = [d["name"] for d in names_units if d["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in names_units}


def _append_record(path: Path, record: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def bench(args) -> int:
    import_program()
    from hardykit import specfun
    from hardykit.errors import HardykitError

    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.CYCLES:
        raise BenchError(f"unknown workload {args.workload!r}")
    workdir = BENCH_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli_runner = workloads.CliRunner(workdir)
        warm_up(workloads, args.workload, args.seed, cli_runner, HardykitError)
        detail: dict = {"meta": run_metadata(args.seed)}
        if args.trace == 0:
            stats, scaled, setup, kinds = measured_run(
                workloads, specfun, args.workload, args.seed, args.seconds, cli_runner,
                HardykitError)
            tail_v, tail_pct, beyond = tail(scaled)
            raw = stats.latencies
            values = {
                "setup_s": statistics.median(setup),
                "ops_per_s": len(scaled) / sum(scaled),
                "op_p50_ms": 1e3 * statistics.median(scaled),
                "op_tail_ms": 1e3 * tail_v,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = _metrics_block(SPEC["end_to_end"], values)
            detail.update({
                "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
                "slowest_ops_ms": [(round(1e3 * t, 3), k) for t, k in
                                   sorted(zip(scaled, kinds), reverse=True)[:beyond + 5]],
                "setup_samples_s": setup,
                "scaled_busy_s": sum(scaled),
                "unscaled": {"ops_per_s": len(raw) / sum(raw),
                             "op_p50_ms": 1e3 * statistics.median(raw),
                             "op_tail_ms": 1e3 * tail(raw)[0], "busy_s": sum(raw)},
            })
            determinism_ok = True
        else:
            stats, plain_busy, traces = traced_run(workloads, tracer_mod, specfun, args.workload,
                                                   args.seed, args.seconds, cli_runner,
                                                   HardykitError)
            counts = [t[0].deterministic_counts() for t in traces]
            determinism_ok = counts[0] == counts[1]
            if not determinism_ok:
                diff = sorted(k for k in set(counts[0]) | set(counts[1])
                              if counts[0].get(k) != counts[1].get(k))
                stats.examples.append(f"traced passes disagree on counts: {diff[:10]}")
            values = per_layer_metrics(tracer_mod, traces, plain_busy)
            metrics = _metrics_block(SPEC["per_layer"], values)
            layer_self = traces[0][0].layer_self
            total_self = sum(layer_self.values())
            detail.update({"busy_s": plain_busy, "counts": counts[0],
                           "self_share": {k: round(v / total_self, 4) for k, v in
                                          sorted(layer_self.items(), key=lambda kv: -kv[1])},
                           "traced_ops_per_s": [t[1].attempted / t[2] for t in traces]})
            _write_trace(args, traces[0][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = stats.wrong == 0 and stats.crashed == 0 and determinism_ok
    detail.update({
        "ops_failed_frac": stats.failed / stats.attempted,
        "raised": stats.raised, "inaccurate": stats.inaccurate, "wrong": stats.wrong,
        "crashed": stats.crashed,
        "ops_by_kind": dict(sorted(stats.by_kind.items())),
        "failed_by_kind": dict(sorted(stats.failed_by_kind.items())),
        "failure_examples": stats.examples,
    })
    result = {"correct": correct, "attempted": stats.attempted, "failed": stats.failed,
              "metrics": metrics}
    _append_record(args.out, {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              **result, "detail": detail})
    print(json.dumps({"workload": args.workload, "trace": args.trace, **detail}, indent=1,
                     sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _write_trace(args, tr):
    """Per-op spans and per-function totals of the first traced pass."""
    path = BENCH_DIR / "results" / f"trace-{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "functions": {k: {"calls": tr.calls[k], "self_s": tr.self_s[k]}
                      for k in sorted(tr.calls)},
        "ops": tr.op_spans,
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "results" / "runs.jsonl",
                    help="JSON-lines file each run appends its record to")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(SPEC, *args.compare)
    if not args.workload:
        ap.error("--workload is required")
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
