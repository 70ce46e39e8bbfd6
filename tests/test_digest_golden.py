"""The bitwise promise as a test: tools/digest_outputs.py must print
tests/golden/digest.txt byte for byte.

The golden's first line records the Python, mpmath and numpy versions it
was made with; on other versions the test fails and names both.  A change
that moves digest lines explains each one and regenerates the golden:

    PYTHONPATH=src python tests/test_digest_golden.py > tests/golden/digest.txt

``python tools/golden_diff.py OLD NEW`` lists the moved lines, the largest
relative move per numeric field and a summary per line kind.
"""

from __future__ import annotations

import difflib
import itertools
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "digest.txt"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def versions() -> bytes:
    return (f"# digest made with python {platform.python_version()}, "
            f"mpmath {mpmath.__version__}, numpy {numpy.__version__}\n").encode()


def run_digest() -> bytes:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digest_outputs.py")],
                          capture_output=True, env=env, cwd=ROOT, timeout=900)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def test_digest_matches_golden():
    header, _, expected = GOLDEN.read_bytes().partition(b"\n")
    header += b"\n"
    if header != versions():
        pytest.fail(f"golden {header.decode().strip()!r} but running "
                    f"{versions().decode().strip()!r}: regenerate the golden on "
                    "these versions and explain every line that moves")
    got = run_digest()
    if got != expected:
        diff = difflib.unified_diff(expected.decode().splitlines(), got.decode().splitlines(),
                                    "tests/golden/digest.txt", "tools/digest_outputs.py",
                                    lineterm="", n=0)
        pytest.fail("digest differs from the golden:\n" + "\n".join(itertools.islice(diff, 40)))


def test_workflow_pins_the_golden_versions():
    # CI installs exactly the versions the golden's header names, so the
    # digest test compares outputs there, not versions
    header = GOLDEN.read_text().partition("\n")[0]
    golden = re.fullmatch(r"# digest made with python (\S+), mpmath (\S+), numpy (\S+)",
                          header)
    assert golden, header
    workflow = WORKFLOW.read_text()
    pins = (re.findall(r'python-version: "([^"]+)"', workflow),
            re.findall(r'"mpmath==([^"]+)"', workflow),
            re.findall(r'"numpy==([^"]+)"', workflow))
    assert pins == tuple([v] for v in golden.groups())


if __name__ == "__main__":
    sys.stdout.buffer.write(versions() + run_digest())
