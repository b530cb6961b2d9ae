#!/usr/bin/env python3
"""End-to-end benchmark of the ``kapranov`` command line.

    python3 bench/run.py --workload leibniz-sl2 --seed 0 --seconds 60 --trace 0

Run from the repository root (the package is used from ``src/``, not
installed).  One client runs a workload's invocations in a closed loop,
each as a fresh ``python -m kapranov.cli`` subprocess, pass after pass
(at least MIN_PASSES) until the next pass would overrun ``--seconds``.
``BENCHMARK.json`` lists ``leibniz-sl2`` and ``tower-sl3``; ``shipped``
(the instances of ``instances/``, start-up bound) is kept for runs by
hand.  Every report is checked: at seed 0 against the golden copy in
``bench/golden`` byte for byte, at other seeds for exit code 0 and
``"passed": true``; the sha256 of each report is written to
``.bench_work`` so two commits can be compared.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``
(medians over the passes).  Times are the children's CPU time (user +
system, from ``wait4``), scaled to a fixed machine speed: between
invocations the harness runs REFERENCE_CODE, work that uses no code of this
repository, and divides by its mean CPU time.  On a shared 2-vCPU virtual
machine the speed drifts by up to a third over minutes, in CPU time as much
as in wall time; the scaling cancels most of that drift, which no run
length can average away.  The unscaled CPU and wall times are printed
alongside.
``--trace 1`` ignores ``--seconds``: it runs the invocations once as
subprocesses, then each in this process through ``kapranov.cli.main``
without and with the layer wrappers of ``bench/tracing.py``, checks that
all three give the same report bytes, and reports the per-layer metrics;
the aggregated spans go to ``.bench_work``.  The last line of standard
output is the result as one JSON object; every metric is also printed by
name with its unit above it.

``--update-golden`` (seed 0 only) rewrites the golden reports instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIPPED_DIR = ROOT / "instances"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import make_instances  # noqa: E402
import tracing  # noqa: E402

COMMANDS = ("validate", "atiyah", "brackets", "check-leibniz", "morphism",
            "homotopy", "cohomology")
WORKLOADS = ("shipped", "leibniz-sl2", "tower-sl3")
# every per-command time an invocation can add to (see ``invocation``)
COMMAND_METRICS = tuple(c.replace("-", "_") + "_s" for c in COMMANDS) + (
    "check_leibniz_threads2_s",)
CHILD_TIMEOUT_S = 150
MIN_PASSES = 2
SETUP_PER_PASS = 5
REFERENCES_PER_PROBE = 4
SETUP_MIN_SAMPLES = 9
SETUP_CODE = ("import sys\n"
              "from kapranov.cli import Instance, load_document\n"
              "Instance(load_document(sys.argv[1]))\n")
# Fixed work that runs no code of this repository: JSON text and exact
# rationals in dicts and lists, the mix of the program's reports and
# kernels.  Its CPU time, sampled between invocations, gives the machine's
# speed during a run.
REFERENCE_CODE = (
    "import json\n"
    "from fractions import Fraction\n"
    "rows = [{'k': [i, i % 7, str(i)], 'v': [str(Fraction(i, i % 13 + 1))]}\n"
    "        for i in range(15000)]\n"
    "text = json.dumps(rows)\n"
    "total = sum(Fraction(r['v'][0]) for r in json.loads(text)[::3])\n"
    "print(len(text), total)\n")
# Times are scaled to the speed at which REFERENCE_CODE takes this much CPU
# time (about its mean on the 2-vCPU machine of bench/baseline.json).
REFERENCE_S = 0.28


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Invocation:
    metric: str             # per-command time metric it adds to
    slug: str               # golden report file stem
    instance: Path
    args: tuple[str, ...]   # arguments of ``python -m kapranov.cli``


def invocation(command: str, path: Path, *options: str,
               threads: int = 1) -> Invocation:
    metric = command.replace("-", "_")
    slug = f"{command}-{path.stem}"
    if threads != 1:
        metric += f"_threads{threads}"
        slug = f"{command}-threads{threads}-{path.stem}"
    return Invocation(metric + "_s", slug, path,
                      (command, "--input", str(path), *options,
                       "--threads", str(threads)))


def workload(name: str, seed: int) -> list[Invocation]:
    """The invocation list of a workload."""
    if name == "shipped":
        paths = sorted(SHIPPED_DIR.glob("*.json"))
        if not paths:
            raise BenchError(f"no instances in {SHIPPED_DIR}")
        invs = []
        for path in paths:
            pair = json.loads(path.read_text()).get("lie_pair", {})
            for command in COMMANDS:
                # homotopy needs a second splitting; elsewhere it exits 2
                if command != "homotopy" or "second_splitting" in pair:
                    invs.append(invocation(command, path))
        return invs
    if seed == 0:
        inst_dir = BENCH / "instances"
    else:
        inst_dir = WORK / f"seed-{seed}"
        make_instances.write_instances(seed, inst_dir)
    if name == "leibniz-sl2":
        path = inst_dir / make_instances.SL2_NAME
        return [invocation("check-leibniz", path, "--max-arity", "6"),
                invocation("check-leibniz", path, "--max-arity", "6",
                           threads=2),
                invocation("brackets", path, "--max-arity", "6"),
                invocation("morphism", path),
                invocation("homotopy", path)]
    if name == "tower-sl3":
        path = inst_dir / make_instances.SL3_NAME
        return [invocation("brackets", path, "--max-arity", "3"),
                invocation("check-leibniz", path, "--max-arity", "2"),
                invocation("cohomology", path),
                invocation("atiyah", path)]
    raise BenchError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# subprocesses

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("KAPRANOV_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONHOME",
                "PYTHONSTARTUP"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float            # user + system time of the child
    exit_code: int
    stdout: bytes
    maxrss_kb: int


def run_child(argv: list[str], env: dict[str, str]) -> ChildResult:
    """Run one child to completion, reaping it with wait4 for its max RSS.
    A child still running after CHILD_TIMEOUT_S is killed (exit code -9)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, usage.ru_utime + usage.ru_stime,
                       proc.returncode, out, usage.ru_maxrss)


def cli_argv(inv: Invocation) -> list[str]:
    return [sys.executable, "-m", "kapranov.cli", *inv.args]


def instances(invs: list[Invocation]) -> list[Path]:
    return list(dict.fromkeys(inv.instance for inv in invs))


class Checker:
    """Checks each report: byte-equal to the golden copy at seed 0, else
    exit 0 with "passed": true; and the same bytes on every pass."""

    def __init__(self, workload_name: str, seed: int):
        self.golden = None
        if seed == 0:
            self.golden = load_golden(workload_name)
        self.sha256: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def report_ok(self, slug: str, exit_code: int, report: bytes) -> bool:
        if self.golden is not None:
            return (exit_code, report) == self.golden[slug]
        if exit_code != 0:
            return False
        try:
            return json.loads(report).get("passed") is True
        except ValueError:
            return False

    def check(self, inv: Invocation, exit_code: int, report: bytes) -> bool:
        self.attempted += 1
        digest = hashlib.sha256(report).hexdigest()
        ok = (self.report_ok(inv.slug, exit_code, report)
              and self.sha256.setdefault(inv.slug, digest) == digest)
        if not ok:
            self.failed += 1
            print(f"FAILED: {' '.join(inv.args)} (exit {exit_code})",
                  file=sys.stderr)
        return ok


def load_golden(workload_name: str) -> dict[str, tuple[int, bytes]]:
    d = GOLDEN / workload_name
    try:
        codes = json.loads((d / "exit_codes.json").read_text())
        return {slug: (code, (d / f"{slug}.json").read_bytes())
                for slug, code in codes.items()}
    except OSError as e:
        raise BenchError(f"golden reports missing: {e}") from None


def update_golden(workload_name: str, invs: list[Invocation],
                  env: dict[str, str]) -> None:
    d = GOLDEN / workload_name
    d.mkdir(parents=True, exist_ok=True)
    codes = {}
    for inv in invs:
        res = run_child(cli_argv(inv), env)
        (d / f"{inv.slug}.json").write_bytes(res.stdout)
        codes[inv.slug] = res.exit_code
    (d / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


def warm_up(invs: list[Invocation], env: dict[str, str]) -> None:
    """One untimed run per instance, so .pyc compilation is not timed."""
    for path in instances(invs):
        res = run_child([sys.executable, "-m", "kapranov.cli", "validate",
                         "--input", str(path)], env)
        if res.exit_code != 0:
            raise BenchError(f"warm-up validate failed on {path}")


def setup_sample(path: Path, env: dict[str, str]) -> ChildResult:
    """A fresh interpreter that imports the CLI, loads and schema-checks a
    document and builds its Instance, running no command."""
    res = run_child([sys.executable, "-c", SETUP_CODE, str(path)], env)
    if res.exit_code != 0:
        raise BenchError(f"set-up failed on {path}")
    return res


def reference_sample(env: dict[str, str]) -> ChildResult:
    """A fresh interpreter running REFERENCE_CODE."""
    res = run_child([sys.executable, "-c", REFERENCE_CODE], env)
    if res.exit_code != 0:
        raise BenchError("reference run failed")
    return res


def probe(path: Path, env: dict[str, str]):
    """A set-up sample and REFERENCES_PER_PROBE reference samples."""
    return setup_sample(path, env), [reference_sample(env)
                                     for _ in range(REFERENCES_PER_PROBE)]


def timed_passes(invs: list[Invocation], seconds: float,
                 env: dict[str, str], checker: Checker):
    """Run the invocation list pass after pass until another pass would
    overrun ``seconds``; at least MIN_PASSES passes.

    Probes (see ``probe``) are taken between invocations, SETUP_PER_PASS
    a pass, so that they see the machine over the whole run rather than in
    one burst (its speed drifts over seconds and minutes); they count in no
    pass.  Returns the results of each pass and the probes.
    """
    stride = max(1, len(invs) // SETUP_PER_PASS)
    passes, probes = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = []
        for i, inv in enumerate(invs):
            res = run_child(cli_argv(inv), env)
            checker.check(inv, res.exit_code, res.stdout)
            results.append(res)
            if (i + 1) % stride == 0:
                probes.append(probe(inv.instance, env))
        passes.append(results)
        now = time.perf_counter()
        if (len(passes) >= MIN_PASSES
                and now - start + (now - pass_start) > seconds):
            break
    paths = instances(invs)
    while len(probes) < SETUP_MIN_SAMPLES:
        probes.append(probe(paths[len(probes) % len(paths)], env))
    return passes, probes


def command_times(invs, results) -> dict[str, float]:
    """Summed CPU time per command metric of one pass."""
    out = {}
    for inv, res in zip(invs, results):
        out[inv.metric] = out.get(inv.metric, 0.0) + res.cpu_s
    return out


def end_to_end_metrics(invs, passes, probes) -> dict[str, tuple[float, str]]:
    """Medians over the passes and probes.

    ``run_s``, ``setup_s`` and the per-command times are CPU times scaled
    by REFERENCE_S over the run's mean reference time, so that a change
    of the machine's speed between runs cancels; ``*_cpu_s`` are the
    unscaled CPU times and ``*_wall_s`` the wall times.  The per-command
    times are printed but are not end-to-end metrics in BENCHMARK.json: the
    short commands get too few samples in a run to be steady on a 2-core
    virtual machine."""
    def median(values):
        return statistics.median(values), "s"
    # the mean, not the median: the program's time sums over the fast and
    # slow spells of the machine, and so must the reference it is scaled by
    reference = statistics.fmean(ref.cpu_s for _, refs in probes
                                 for ref in refs)
    scale = REFERENCE_S / reference
    run_cpu = [sum(r.cpu_s for r in p) for p in passes]
    setup_cpu = [setup.cpu_s for setup, _ in probes]
    out = {"run_s": median(scale * t for t in run_cpu),
           "run_cpu_s": median(run_cpu),
           "run_wall_s": median(sum(r.wall_s for r in p) for p in passes),
           "setup_s": median(scale * t for t in setup_cpu),
           "setup_cpu_s": median(setup_cpu),
           "setup_wall_s": median(setup.wall_s for setup, _ in probes),
           "reference_cpu_s": (reference, "s")}
    per_pass = [command_times(invs, results) for results in passes]
    for metric in per_pass[0]:
        out[metric] = median(scale * t[metric] for t in per_pass)
    out["peak_rss_mb"] = (max(r.maxrss_kb for results in passes
                              for r in results) / 1024, "MB")
    return out


# ---------------------------------------------------------------------------
# the traced run

def run_in_process(inv: Invocation, tracer=None):
    """Run one invocation through ``kapranov.cli.main`` in this process.
    Returns its wall time and (exit code, report bytes)."""
    from kapranov import cli
    out = io.StringIO()
    start = time.perf_counter()
    if tracer is not None:
        tracer.enter(tracing.INVOCATION_SPAN)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(inv.args))
    except (Exception, SystemExit):
        traceback.print_exc()
        code = -1
    finally:
        if tracer is not None:
            tracer.exit()
    return time.perf_counter() - start, (code, out.getvalue().encode())


def traced_run(invs, env, checker: Checker, trace_path: Path):
    """One subprocess pass, then each invocation in this process untraced
    and traced in turn, so that drift of the machine's speed falls on both
    sides of the tracing overhead alike."""
    results = [run_child(cli_argv(inv), env) for inv in invs]
    for inv, res in zip(invs, results):
        checker.check(inv, res.exit_code, res.stdout)
    times = command_times(invs, results)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kapranov.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    # untimed, so that first-call costs land in neither timed run
    for path in instances(invs):
        run_in_process(invocation("validate", path))
    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    for inv, res in zip(invs, results):
        plain_s, plain = run_in_process(inv)
        restore = tracing.install_layers(tracer)
        try:
            wall_s, traced = run_in_process(inv, tracer)
        finally:
            restore()
        untraced_s += plain_s
        traced_s += wall_s
        for got in (plain, traced):
            checker.attempted += 1
            if got != (res.exit_code, res.stdout):
                checker.failed += 1
                print(f"FAILED: in-process report differs: "
                      f"{' '.join(inv.args)}", file=sys.stderr)

    trace_path.write_text(json.dumps(tracer.as_json()) + "\n")
    out = tracing.layer_metrics(tracer, traced_s)
    out["cli.import_s"] = (import_s, "s")
    for metric in COMMAND_METRICS:
        out[f"cmd.{metric}"] = (times.get(metric, 0.0), "s")
    out["trace.wall_s"] = (traced_s, "s")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


# ---------------------------------------------------------------------------

def select(metrics: dict[str, tuple[float, str]], spec: list[dict]) -> dict:
    out = {}
    for m in spec:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']}: unit {unit} is not {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "kapranov" / "cli.py").is_file():
            raise BenchError(f"{SRC} holds no kapranov package")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = child_env()
        os.environ.pop("KAPRANOV_THREADS", None)
        WORK.mkdir(exist_ok=True)
        invs = workload(args.workload, args.seed)
        if args.update_golden:
            if args.seed != 0:
                raise BenchError("golden reports are for seed 0 only")
            update_golden(args.workload, invs, env)
            return 0
        checker = Checker(args.workload, args.seed)
        warm_up(invs, env)
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            metrics = traced_run(invs, env, checker,
                                 WORK / f"{stem}-trace.json")
            wanted = spec["per_layer"]
        else:
            passes, probes = timed_passes(invs, args.seconds, env, checker)
            metrics = end_to_end_metrics(invs, passes, probes)
            wanted = spec["end_to_end"]
            print(f"passes {len(passes)}, probes {len(probes)}")
        (WORK / f"{stem}-reports.json").write_text(
            json.dumps(checker.sha256, indent=2, sort_keys=True) + "\n")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name} {value:.6g} {unit}")
        result = {"correct": checker.failed == 0,
                  "attempted": checker.attempted, "failed": checker.failed,
                  "metrics": select(metrics, wanted)}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
