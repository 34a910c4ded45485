"""Smoke-run the example scripts (opt-in: REPRO_RUN_EXAMPLES=1).

The examples take minutes in total, so the default suite only checks they
parse and carry docstrings (see test_repo_consistency); setting
``REPRO_RUN_EXAMPLES=1`` executes them end-to-end.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

run_examples = pytest.mark.skipif(
    not os.environ.get("REPRO_RUN_EXAMPLES"),
    reason="set REPRO_RUN_EXAMPLES=1 to execute the examples",
)


def test_examples_compile():
    for path in EXAMPLES:
        compile(path.read_text(), str(path), "exec")


@run_examples
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path):
    # Deprecation warnings are errors, so an example cannot lean on a
    # removed or deprecated API unnoticed.
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(path)],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print something"
