"""The reports of every command, pinned byte for byte in the tier-1 run.

Every invocation of the benchmark's three workloads at seed 0 runs here
in process, through the same ``run_in_process`` as the benchmark's traced
pass, and must give the exit code and the stdout bytes of its golden copy
under ``bench/golden``; ``bench/`` is only read.  The benchmark runs none
of the fixtures under ``tests/fixtures``, so all seven commands run on
each of them against ``tests/fixture_reports.json``: the exit code and
the sha256 of stdout per command and fixture.  That puts the graded
toy's sign (-1)^{|b_0|} of the tower step, which no other document sees,
and the refusals of the three undefined structures under a byte check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from kapranov import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402

FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.json"))
MANIFEST = json.loads((ROOT / "tests" / "fixture_reports.json").read_text())


@pytest.mark.parametrize("workload", ["shipped", "leibniz-sl2", "tower-sl3"])
def test_workload_reports_equal_their_golden_copies(workload):
    golden = run.load_golden(workload)
    invocations = run.workload(workload, 0)
    assert sorted(inv.slug for inv in invocations) == sorted(golden)
    for inv in invocations:
        _, got = run.run_in_process(inv)
        assert got == golden[inv.slug], inv.slug


def fixture_report(command: str, path: pathlib.Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, "--input", str(path)])
    return {"exit_code": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_manifest_covers_every_command_on_every_fixture():
    assert len(FIXTURES) == 4
    assert sorted(MANIFEST) == sorted(f"{command} {path.name}"
                                      for command in cli.COMMANDS
                                      for path in FIXTURES)


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_reports_match_the_manifest(path):
    for command in cli.COMMANDS:
        key = f"{command} {path.name}"
        assert fixture_report(command, path) == MANIFEST[key], key
