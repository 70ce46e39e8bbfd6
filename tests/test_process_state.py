"""What one process keeps between operations: the expression and grid
caches are filled lazily, never at import, and an operation calls the same
public functions whether it finds them cold or warm.  A cold start loads
neither numpy, which src/ never imports, nor mpmath, which specfun imports
on first use.

Every test runs a fresh interpreter, so the caches start empty.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_parses_and_plans_nothing():
    # nor compiles a template: certify's loop or a margin's panel; nor
    # builds a hypergeometric plan
    out = run_python("import hardykit.cli\n"
                     "from hardykit import exprdsl, specfun\n"
                     "print(exprdsl._parse_tree.cache_info().currsize, "
                     "exprdsl._plan.cache_info().currsize, "
                     "exprdsl._template_code.cache_info().misses, "
                     "specfun._plan.cache_info().currsize)")
    assert out.split() == ["0", "0", "0", "0"]


def test_import_loads_neither_numpy_nor_mpmath():
    out = run_python("import sys\n"
                     "import hardykit.cli\n"
                     "print('numpy' in sys.modules, 'mpmath' in sys.modules)")
    assert out.split() == ["False", "False"]


def test_spectral_runs_without_numpy(tmp_path):
    # with numpy blocked, `import numpy` raises ImportError
    out = run_python("import json, sys\n"
                     "sys.modules['numpy'] = None\n"
                     "from hardykit import cli\n"
                     "from hardykit.geometry import ModelGeometry\n"
                     "from hardykit.spectral import spectral_lambda1\n"
                     "print(repr(spectral_lambda1(ModelGeometry(-1.0, 3, 2.0), 2.0, 600)))\n"
                     "cli.main(['spectrum', '--kappa', '-0.5', '--n', '4', '--R', '5',\n"
                     f"          '--N', '1200', '--json', {str(tmp_path / 'sp.json')!r}])\n")
    assert out.splitlines() == [
        "SpectralResult(lambda1=3.46740109854522, lambda1_raw=3.467400295554733, "
        "lambda1_coarse=3.4673978865832726, N=600)",
        "lambda1 = 1.64328  (raw N=1200: 1.64329, N/2: 1.64329)"]
    report = json.loads((tmp_path / "sp.json").read_text())
    assert [repr(report[k]) for k in ("lambda1", "lambda1_raw", "lambda1_coarse")] == [
        "1.6432844909454813", "1.6432864411961283", "1.643292291948069"]


def test_bessel_paths_never_load_mpmath():
    # bessel_j over its whole box, cold bessel_zero scans and bessel_ratio
    # up to x = 10 stay on float code, and so do Hankel's expansion at
    # x >= 20, x >= nu, through bessel_j, J' and a cold scan's Newton steps;
    # J_0(20) is on it (40-digit mpmath: 0.1670246643405831...)
    out = run_python("import sys\n"
                     "from hardykit.specfun import (_bessel_j_with_dx, bessel_j, bessel_ratio,\n"
                     "                              bessel_zero)\n"
                     "for nu in (0.0, 0.5, 7.3, 50.0):\n"
                     "    [bessel_j(nu, x) for x in (0.0, 5.0, 10.0, 10.5, 99.9, 200.0)]\n"
                     "    [bessel_zero(nu, k) for k in range(1, 21)]\n"
                     "    j1 = min(bessel_zero(nu, 1), 10.0)\n"
                     "    [bessel_ratio(nu, f * j1) for f in (1e-3, 0.5, 0.99)]\n"
                     "bessel_j(7.3, 150.0), _bessel_j_with_dx(50.0, 60.0), bessel_zero(8.0, 20)\n"
                     "print('mpmath' in sys.modules, repr(bessel_j(0.0, 20.0)), "
                     "repr(bessel_ratio(50.0, 10.0)), 'mpmath' in sys.modules)")
    assert out.split() == ["False", "0.16702466434058316", "0.09898091182520535", "False"]


def test_bessel_ratio_loads_mpmath_on_first_use():
    out = run_python("import sys\n"
                     "from hardykit.specfun import bessel_ratio\n"
                     "print('mpmath' in sys.modules, repr(bessel_ratio(17.5, 5.0)), "
                     "'mpmath' in sys.modules)\n"
                     "print(repr(bessel_ratio(17.5, 20.0)), 'mpmath' in sys.modules)")
    # x <= 10 stays on the continued fraction; x = 20 takes mpmath's quotient
    assert out.split() == ["False", "0.13755672056329787", "False", "0.9575763693249936", "True"]


def test_near_integer_hyp2f1_stays_on_floats():
    # b - a within 1e-3 of an integer and -z > 40 through all four entry
    # points, integer and near-integer gaps, constants- and Ghoussoub-
    # Moradifam-shaped; c - a = 2, an integer, is left to mpmath
    out = run_python("import sys\n"
                     "from hardykit.specfun import (hyp2f1, hyp2f1_with_dz, hyp2f1ratio,\n"
                     "                              hyp2f1ratio_with_dz)\n"
                     "for a, b, c in ((1.0, 1.0, 2.5), (0.3, 3.3, 4.1), (0.25, 2.25 + 1e-4, 1.3),\n"
                     "                (-0.50005, 0.50005, 1.0), (-0.2 - 1e-6, 1.8 + 1e-6, 1.0)):\n"
                     "    for z in (-40.5, -1e3, -1e8):\n"
                     "        hyp2f1(a, b, c, z), hyp2f1_with_dz(a, b, c, z)\n"
                     "        hyp2f1ratio(a, b, c, z), hyp2f1ratio_with_dz(a, b, c, z)\n"
                     "print('mpmath' in sys.modules)\n"
                     "hyp2f1(0.5, 1.5, 2.5, -50.0)\n"
                     "print('mpmath' in sys.modules)")
    assert out.split() == ["False", "True"]


# A certify and margin sequence run under perfbench's tracer, which counts
# the calls of every public hardykit function and method: cold, untraced,
# then warm, as `perfbench/run.py --trace 1` runs its op list.
TRACED_SEQUENCE = """
import importlib, json, sys
sys.path.insert(0, "perfbench")
import tracer
for layer in tracer.LAYERS:
    importlib.import_module("hardykit." + layer)
from hardykit import catalog, exprdsl, riccati, testfuncs, verifier
from hardykit.geometry import ModelGeometry

def sequence():  # through the module attributes, which the tracer rebinds
    instantiate, parse, random_bumps = catalog.instantiate, exprdsl.parse, testfuncs.random_bumps
    certify, residual, additive_margin = riccati.certify, riccati.residual, verifier.additive_margin
    cases = [("hardy", ModelGeometry(0.0, 4, 2.5), {"alpha": 1.0, "C": 3.0}),
             ("ghoussoub_moradifam", ModelGeometry(0.0, 5, 2.0),
              {"a": 0.7, "b": 2.0, "alpha": 1.3, "beta": 1.1, "m": -0.4}),
             ("brezis_vazquez", ModelGeometry(0.0, 3, 2.0), {"nu": 0.5, "D": 6.0}),
             ("mckean_improved", ModelGeometry(-1.0, 3, 2.0), {}),
             ("greene_wu_psi", ModelGeometry(-1.0, 3, 2.0), {"psi": "s(t)", "t_hi": 20.0})]
    for name, geo, params in cases:
        inst = instantiate(name, geo, params)
        certify(inst.spec, inst.G, n_points=64)
        residual(inst.spec, inst.G, 0.7)
        if name != "greene_wu_psi":
            additive_margin(None, inst, random_bumps(1, 3, 0.1, 5.0)[0])
    spec = instantiate(*cases[0]).spec
    certify(spec, riccati.bessel_to_riccati(parse("t^(-0.5)"), 2.5), n_points=64)
    certify(spec, riccati.FuncEval(lambda t: t, lambda t: (t, 1.0)), n_points=64)
    additive_margin(ModelGeometry(0.0, 3, 2.0), parse("1/(2*t)"), random_bumps(1, 5)[0])

counts = []
for traced in (True, False, True):
    tr = tracer.Tracer()
    if traced:
        tr.install()
    try:
        sequence()
    finally:
        tr.uninstall()
    if traced:
        counts.append(tr.deterministic_counts())
print(json.dumps(counts))
"""


def test_cold_and_warm_runs_call_the_same_public_functions():
    cold, warm = json.loads(run_python(TRACED_SEQUENCE).splitlines()[-1])
    assert cold["calls.exprdsl.parse"] > 0 and cold["calls.riccati.certify"] == 7
    assert cold["calls.specfun.bessel_ratio"] > 0
    assert cold == warm
