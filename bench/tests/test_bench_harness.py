"""Self-tests of the benchmark harness in bench/.

Run with ``PYTHONPATH=src python -m pytest -q bench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import make_instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_golden_check_catches_one_byte_corruption(workload):
    inv = run.workload(workload, 0)[0]
    checker = run.Checker(workload, 0)
    code, report = checker.golden[inv.slug]
    assert checker.check(inv, code, report)
    for position in (0, len(report) // 2, len(report) - 1):
        bad = bytearray(report)
        bad[position] ^= 0x01
        fresh = run.Checker(workload, 0)
        assert not fresh.check(inv, code, bytes(bad))
        assert (fresh.attempted, fresh.failed) == (1, 1)
    fresh = run.Checker(workload, 0)
    assert not fresh.check(inv, code + 1, report)


def test_golden_covers_every_invocation():
    for workload in run.WORKLOADS:
        slugs = [inv.slug for inv in run.workload(workload, 0)]
        assert len(set(slugs)) == len(slugs)
        assert set(run.load_golden(workload)) == set(slugs)
    assert len(run.workload("shipped", 0)) == 32


def scripted_tracer(times):
    ticks = iter(times)
    return tracing.Tracer(clock=lambda: next(ticks))


def test_span_self_time_on_nested_trace():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
    tr = scripted_tracer([0, 1, 2, 3, 4, 5, 6, 10])
    for step in ("a", "b", "c", None, None, "b", None, None):
        tr.enter(step) if step else tr.exit()
    spans = tr.span_totals()
    assert spans["a"] == [1, 10, 6]
    assert spans["b"] == [2, 4, 3]
    assert spans["c"] == [1, 1, 1]
    assert sum(v[2] for v in spans.values()) == 10
    (root,) = tr.roots()
    assert list(root.children) == ["a"]
    assert list(root.children["a"].children["b"].children) == ["c"]


def test_layer_metrics_split_wall_into_self_times():
    # cli.main [0, 10] holds check [1, 7], which holds koszul [2, 5]
    tr = scripted_tracer([0, 1, 2, 5, 7, 10])
    tr.enter(tracing.INVOCATION_SPAN)
    tr.enter("kapranov.check:check_leibniz_infinity")
    tr.enter("graded.koszul")
    tr.exit()
    tr.exit()
    tr.exit()
    tr.count("kapranov.check_tuples.n2", 4)
    m = tracing.layer_metrics(tr, 12.0)
    assert m["kapranov.check_s"] == (3, "s")
    assert m["graded.koszul_s"] == (3, "s")
    assert m["graded.koszul_calls"] == (1, "count")
    assert m["other_s"] == (6, "s")
    assert m["kapranov.check_us_per_tuple"] == (6 / 4 * 1e6, "us")


def test_installed_layers_keep_reports_and_restore():
    from kapranov import cli, kapranov
    originals = (cli.check_leibniz_infinity, kapranov.extend_module_table,
                 kapranov.koszul_sign, cli.json)
    argv = ["check-leibniz", "--input", str(ROOT / "instances" /
                                             "affine_pair.json"),
            "--max-arity", "3", "--threads", "1"]

    def report():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return out.getvalue()

    plain = report()
    tracer = tracing.Tracer()
    restore = tracing.install_layers(tracer)
    try:
        traced = report()
    finally:
        restore()
    assert traced == plain
    assert (cli.check_leibniz_infinity, kapranov.extend_module_table,
            kapranov.koszul_sign, cli.json) == originals
    m = tracing.layer_metrics(tracer, 1.0)
    assert m["kapranov.extend_entries"][0] > 0
    assert m["kapranov.check_tuples.n3"][0] > 0
    assert m["algebra.mul_calls"][0] > 0


def computed_metric_names(workload):
    invs = run.workload(workload, 0)
    child = run.ChildResult(1.0, 1.0, 0, b"", 1024)
    e2e = run.end_to_end_metrics(invs, [[child] * len(invs)],
                                 [(child, [child])])
    layers = tracing.layer_metrics(tracing.Tracer(), 1.0)
    layers.update({name: (0.0, "s") for name in
                   ("cli.import_s", "trace.wall_s", "trace.untraced_s",
                    "trace.overhead_s")})
    layers.update({f"cmd.{name}": (0.0, "s") for name in run.COMMAND_METRICS})
    assert {inv.metric for inv in invs} <= set(run.COMMAND_METRICS)
    return e2e, layers


def test_times_are_scaled_by_the_mean_reference():
    invs = run.workload("tower-sl3", 0)

    def child(cpu_s):
        return run.ChildResult(9.0, cpu_s, 0, b"", 1024)
    passes = [[child(1.0)] * len(invs), [child(3.0)] * len(invs)]
    # mean reference time 2 * REFERENCE_S: the machine runs at half speed
    refs = [child(run.REFERENCE_S), child(3 * run.REFERENCE_S)]
    probes = [(child(0.4), refs), (child(0.8), refs), (child(0.6), refs)]
    e2e = run.end_to_end_metrics(invs, passes, probes)
    assert e2e["run_cpu_s"][0] == pytest.approx(2.0 * len(invs))
    assert e2e["run_s"][0] == pytest.approx(1.0 * len(invs))
    assert e2e["setup_s"][0] == pytest.approx(0.3)
    assert e2e["brackets_s"][0] == pytest.approx(1.0)
    assert e2e["run_wall_s"][0] == pytest.approx(9.0 * len(invs))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metric_names_and_units(workload):
    e2e, layers = computed_metric_names(workload)
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    run.select(e2e, SPEC["end_to_end"])
    run.select(layers, SPEC["per_layer"])


def test_spec_workloads_match_harness():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names) and set(names) <= set(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_generator_reproduces_checked_in_instances(tmp_path):
    written = make_instances.write_instances(0, tmp_path)
    for name, path in written.items():
        assert path.read_bytes() == (BENCH / "instances" / name).read_bytes()


@pytest.mark.parametrize("name", [make_instances.SL2_NAME,
                                  make_instances.SL3_NAME])
def test_instances_validate(name):
    from kapranov import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate", "--input",
                         str(BENCH / "instances" / name)])
    report = json.loads(out.getvalue())
    assert code == 0 and report["passed"]
    assert "jacobi" in [c["name"] for c in report["checks"]]


def table_shapes(doc, max_arity):
    from kapranov import cli
    from kapranov.kapranov import kapranov_brackets
    fam = kapranov_brackets(cli.Instance(doc).connection, max_arity)
    return ({k: sorted(t) for k, t in fam.module_tables.items()},
            {k: sorted(m.table) for k, m in fam.brackets.items()})


def test_seed_values_keep_the_shape_of_the_work():
    build = make_instances.sl2_borel_shifted
    want = table_shapes(build("1"), 5)
    for c in make_instances.SPLITTING_VALUES:
        assert table_shapes(build(c), 5) == want, c
