"""In-memory span tracer, and the layer wrappers of the traced benchmark run.

Spans are aggregated as they close into one call tree per thread: a node
per distinct path of span names, holding its call count, total time and
self time.  A span's self time is its duration minus the durations of the
spans opened directly inside it.  Nothing is written until the run ends.

``install_layers`` wraps the public functions of each ``kapranov`` layer
from outside the package: a function is replaced in every ``kapranov``
module that binds it by name (``kapranov.cli.check_leibniz_infinity`` as
well as ``kapranov.kapranov.check_leibniz_infinity``), so calls through an
imported name are traced too.  ``src/`` is not modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types


class Node:
    """Aggregate of every span that closed at one path of the call tree."""

    __slots__ = ("name", "calls", "total", "self_time", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, Node] = {}

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def as_json(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total,
                "self_s": self.self_time,
                "children": [c.as_json() for c in self.children.values()]}


class Tracer:
    """Span stack and counters, kept per thread so worker threads of the
    checker's thread pool do not interleave their spans with the caller's."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.main_thread = threading.get_ident()
        # (thread id, root node, counters) for every thread that traced
        self.threads: list[tuple[int, Node, dict[str, int]]] = []
        self._local = threading.local()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            root, counts = Node("<thread>"), {}
            # a frame is [node, start, time covered by child spans]
            state = self._local.state = ([[root, 0.0, 0.0]], counts)
            self.threads.append((threading.get_ident(), root, counts))
        return state

    def enter(self, name: str) -> None:
        stack = self._state()[0]
        parent = stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        stack.append([node, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._local.state[0]
        node, start, child = stack.pop()
        duration = end - start
        node.calls += 1
        node.total += duration
        node.self_time += duration - child
        stack[-1][2] += duration

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state()[1]
        counts[name] = counts.get(name, 0) + n

    def wrap(self, name: str, fn, counter=None):
        """``fn`` inside a span; ``counter(tracer, bound_args, result)``
        records work counts from the call's arguments and result."""
        enter, exit_ = self.enter, self.exit
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result
        return traced

    def wrap_count(self, name: str, fn):
        """``fn`` with a call counter and no span, for the hottest calls."""
        count = self.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return counted

    def roots(self, main_only: bool = False) -> list[Node]:
        return [root for ident, root, _ in self.threads
                if not main_only or ident == self.main_thread]

    def span_totals(self, main_only: bool = False) -> dict[str, list]:
        """span name -> [calls, total, self time], summed over the tree."""
        out: dict[str, list] = {}
        for root in self.roots(main_only):
            for node in root.walk():
                if node is root:
                    continue
                agg = out.setdefault(node.name, [0, 0.0, 0.0])
                agg[0] += node.calls
                agg[1] += node.total
                agg[2] += node.self_time
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, _, counts in self.threads:
            for name, n in counts.items():
                out[name] = out.get(name, 0) + n
        return out

    def as_json(self) -> list[dict]:
        return [{"main": ident == self.main_thread, "counts": dict(counts),
                 "tree": root.as_json()}
                for ident, root, counts in self.threads]


# ---------------------------------------------------------------------------
# the layers of kapranov

MAX_ARITY = 6  # the instance schema's cap on max_arity

# span name prefix -> the per-layer time metric it feeds (self time)
LAYER_TIMES = {
    "cli.load_document": "cli.load_document_s",
    "builders.instance": "builders.instance_s",
    "cli.report": "cli.report_s",
    "algebra.mul": "algebra.mul_s",
    "kapranov.extend": "kapranov.extend_s",
    "kapranov.tower": "kapranov.tower_s",
    "kapranov.check": "kapranov.check_s",
    "graded.koszul": "graded.koszul_s",
    "connections.atiyah_cocycle": "connections.atiyah_cocycle_s",
    "connections.flat_search": "connections.flat_search_s",
    "cohomology.rref": "cohomology.rref_s",
    "kapranov.cohomology_bracket": "kapranov.cohomology_bracket_s",
    "derivations.find_homotopy": "derivations.find_homotopy_s",
}
INVOCATION_SPAN = "cli.main"


def _count_extend(tracer, a, result):
    input_kbs = a["input_kbs"] or [a["kb"]] * a["arity"]
    tried = len(a["table"])
    for kb in input_kbs[:a["arity"]]:
        tried *= kb.module.algebra.dimension()
    tracer.count("kapranov.extend_tried", tried)
    tracer.count("kapranov.extend_entries", len(result.table))


def _count_tower_tables(tracer, tables):
    for k, table in tables.items():
        if k >= 2:
            tracer.count(f"kapranov.tower_entries.k{k}", len(table))


def _count_next_table(tracer, a, result):
    tracer.count(f"kapranov.tower_entries.k{a['k'] + 1}", len(result))


def _count_morphism(tracer, a, result):
    _count_tower_tables(tracer, result.module_tables)


def _count_homotopy(tracer, a, result):
    _count_tower_tables(tracer, result[0].module_tables)


def _count_check(tracer, a, result):
    for w in result["weights"]:
        tracer.count(f"kapranov.check_tuples.n{w['n']}", w["tuples"])
        tracer.count(f"kapranov.check_terms.n{w['n']}",
                     w["tuples"] * w["terms"])


def _count_rref(tracer, a, result):
    m = a["m"]
    tracer.count("cohomology.rref_cells", len(m) * (len(m[0]) if m else 0))


def install_layers(tracer: Tracer):
    """Wrap every layer of the imported ``kapranov`` package; returns a
    function that restores the originals."""
    from kapranov import algebra, cli, cohomology, connections, derivations
    from kapranov import graded, kapranov
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, wrapper_of):
        original = getattr(owner, attr)
        wrapper = wrapper_of(original)
        for name, module in list(sys.modules.items()):
            if module is None or name.partition(".")[0] != "kapranov":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def patch(owner, attr, wrapper_of):
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def span(name, counter=None):
        return lambda fn: tracer.wrap(name, fn, counter)

    patch(cli, "json", lambda mod: types.SimpleNamespace(
        **{**vars(mod), "dumps": tracer.wrap("cli.report", mod.dumps)}))
    rebind(cli, "load_document", span("cli.load_document"))
    patch(cli.Instance, "__init__", span("builders.instance"))
    patch(algebra.AlgebraElement, "__mul__", span("algebra.mul"))
    patch(algebra.AlgebraElement, "__init__",
          lambda fn: tracer.wrap_count("algebra.element_inits", fn))
    rebind(kapranov, "extend_module_table",
           span("kapranov.extend", _count_extend))
    rebind(kapranov, "_next_bracket_table",
           span("kapranov.tower:_next_bracket_table", _count_next_table))
    rebind(kapranov, "kapranov_morphism",
           span("kapranov.tower:kapranov_morphism", _count_morphism))
    rebind(kapranov, "homotopy_iso",
           span("kapranov.tower:homotopy_iso", _count_homotopy))
    rebind(kapranov, "check_leibniz_infinity",
           span("kapranov.check:check_leibniz_infinity", _count_check))
    rebind(kapranov, "check_linfty_morphism",
           span("kapranov.check:check_linfty_morphism", _count_check))
    rebind(graded, "koszul_sign", span("graded.koszul"))
    rebind(connections, "atiyah_cocycle", span("connections.atiyah_cocycle"))
    rebind(connections, "flat_connection_exists",
           span("connections.flat_search"))
    rebind(cohomology, "rref", span("cohomology.rref", _count_rref))
    rebind(kapranov, "cohomology_leibniz_bracket",
           span("kapranov.cohomology_bracket"))
    rebind(derivations, "find_homotopy", span("derivations.find_homotopy"))
    rebind(kapranov, "contract",
           lambda fn: tracer.wrap_count("modules.contract_calls", fn))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass that took ``wall_s`` seconds.

    Every ``*_s`` layer time is a self time, so the layer times and
    ``other_s`` (the wall time no layer span covers, on the main thread)
    add up to the wall time.  Worker threads of the checker add their spans'
    time to the layer totals but not to ``other_s``.
    """
    spans = tracer.span_totals()
    counts = tracer.counts()
    out: dict[str, tuple[float, str]] = {}
    for prefix, metric in LAYER_TIMES.items():
        out[metric] = (sum(v[2] for name, v in spans.items()
                           if name.partition(":")[0] == prefix), "s")

    def calls(name):
        return spans.get(name, [0])[0]

    out["algebra.mul_calls"] = (calls("algebra.mul"), "count")
    out["algebra.element_inits"] = (counts.get("algebra.element_inits", 0),
                                    "count")
    tried = counts.get("kapranov.extend_tried", 0)
    entries = counts.get("kapranov.extend_entries", 0)
    out["kapranov.extend_tried"] = (tried, "count")
    out["kapranov.extend_entries"] = (entries, "count")
    out["kapranov.extend_useful_ratio"] = (entries / tried if tried else 0.0,
                                           "ratio")
    for k in range(2, MAX_ARITY + 1):
        out[f"kapranov.tower_entries.k{k}"] = (
            counts.get(f"kapranov.tower_entries.k{k}", 0), "count")
    tuples = 0
    for n in range(1, MAX_ARITY + 1):
        t = counts.get(f"kapranov.check_tuples.n{n}", 0)
        tuples += t
        out[f"kapranov.check_tuples.n{n}"] = (t, "count")
        out[f"kapranov.check_terms.n{n}"] = (
            counts.get(f"kapranov.check_terms.n{n}", 0), "count")
    check_total = sum(v[1] for name, v in spans.items()
                      if name.partition(":")[0] == "kapranov.check")
    out["kapranov.check_us_per_tuple"] = (
        check_total / tuples * 1e6 if tuples else 0.0, "us")
    out["graded.koszul_calls"] = (calls("graded.koszul"), "count")
    out["cohomology.rref_calls"] = (calls("cohomology.rref"), "count")
    out["cohomology.rref_cells"] = (counts.get("cohomology.rref_cells", 0),
                                    "count")
    out["modules.contract_calls"] = (counts.get("modules.contract_calls", 0),
                                     "count")
    main = tracer.span_totals(main_only=True)
    covered = sum(v[2] for name, v in main.items() if name != INVOCATION_SPAN)
    out["other_s"] = (wall_s - covered, "s")
    return out
