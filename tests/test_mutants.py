"""Sign and recursion sites that a named test file must catch.

Each case copies the repository's code, tests and documents, applies one
replacement at a site of the package that occurs there exactly once, and
runs one test file on the copy: the run must report failing tests, that
is, the mutant is killed.  A mutant that survives needs a test that kills
it, not a removal from the table.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (module, exact text, replacement, test file that kills the mutant)
MUTANTS = {
    "hom_sign": (
        "modules.py", "return -1 if e_degree * f_degree % 2 else 1",
        "return 1", "test_connections.py"),
    "tower_step_lift_sign": (
        "kapranov.py", "(d + outer.delta.degree) * degree % 2",
        "d * degree % 2", "test_tower.py"),
    "join_inner_coefficient_sign": (
        "kapranov.py", "(r + head_bits.bit_count()) % 2",
        "(r + head_bits.bit_count() + 1) % 2", "test_tower.py"),
    "parity_bits": (
        "kapranov.py", "bits |= 1 << t", "bits |= 1", "test_checkers.py"),
    "homotopy_iso_skips_g2": (
        "kapranov.py",
        "for k in range(1, max_arity):\n        tables[k + 1] = _tower_step(\n"
        "            tables[k], 0, module,",
        "for k in range(2, max_arity):\n        tables[k + 1] = _tower_step(\n"
        "            tables[k], 0, module,", "test_tower.py"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(tmp_path, name):
    module, text, replacement, test_file = MUTANTS[name]
    for part in ("src", "tests", "instances", "bench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    path = tmp_path / "src" / "kapranov" / module
    source = path.read_text()
    assert source.count(text) == 1, name
    path.write_text(source.replace(text, replacement))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         f"tests/{test_file}"],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "src")})
    # 1: tests ran and some failed; a collection or usage error is not a kill
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
