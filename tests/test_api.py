import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hardykit

MODULES = ["hardykit"] + [f"hardykit.{m.name}" for m in pkgutil.iter_modules(hardykit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SUBMODULES = {m.name for m in pkgutil.iter_modules(hardykit.__path__)}


def _perfbench_references() -> set[str]:
    """Dotted names perfbench reads from hardykit: each attribute chain of a
    module it imports from hardykit (``specfun.bessel_zero.cache_clear``),
    each name it imports from a submodule, and each "module.name" key of the
    tracer's call table that it reads (``fn["quadrature.kronrod_panel"]``,
    ``fn_self(...)``) or hooks (a dict key in the tracer)."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "hardykit":
                for alias in node.names:
                    if node.module == "hardykit":
                        modules[alias.asname or alias.name] = f"hardykit.{alias.name}"
                    else:
                        refs.add(f"{node.module}.{alias.name}")
        keys = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in modules:
                    chain.reverse()
                    refs.update(".".join([modules[node.id]] + chain[:i + 1])
                                for i in range(len(chain)))
            elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and \
                    node.value.id == "fn":
                keys.append(node.slice)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                    node.func.id == "fn_self":
                keys.extend(node.args[:1])
            elif isinstance(node, ast.Dict) and path.name == "tracer.py":
                keys.extend(k for k in node.keys if k is not None)
        refs.update(f"hardykit.{k.value}" for k in keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    and k.value.split(".")[0] in SUBMODULES)
    return refs


def test_perfbench_references_resolve():
    # the benchmark's ops and tracer name hardykit functions directly; a
    # pruned name would fail its ops or silently zero one of its counts
    refs = _perfbench_references()
    assert len(refs) >= 26, sorted(refs)
    missing = []
    for ref in sorted(refs):
        parts = ref.split(".")
        obj = importlib.import_module(".".join(parts[:2]))
        for part in parts[2:]:
            if not hasattr(obj, part):
                missing.append(ref)
                break
            obj = getattr(obj, part)
    assert not missing, f"perfbench reads names hardykit lacks: {missing}"
