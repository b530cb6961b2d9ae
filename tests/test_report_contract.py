"""The report contract of ``main`` on every command and document.

``main`` alone assembles a report: ``command`` and ``label`` from the
invocation and the document, ``passed`` from the checks and the weights
that the command returned, and the exit code from ``passed``.  The first
test holds that rule on all seven commands and the eleven documents
shipped, benchmarked or kept as fixtures.  The second mutates those
documents, one or two structure-aware edits at a time, and holds the
exit-code contract: 0, 1 or 2 and never an escaping exception, one
``error:`` line for 2, and a report (or one ``check failed:`` line) for
0 and 1.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kapranov import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATHS = sorted([*(ROOT / "instances").glob("*.json"),
                *(ROOT / "bench" / "instances").glob("*.json"),
                *(ROOT / "tests" / "fixtures").glob("*.json")])
DOCUMENTS = {path.stem: json.loads(path.read_text()) for path in PATHS}


def run_main(command: str, path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_there_are_eleven_documents():
    assert len(DOCUMENTS) == 11


@pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
def test_main_assembles_every_report(path):
    label = DOCUMENTS[path.stem].get("label", "")
    for command in cli.COMMANDS:
        code, out, _ = run_main(command, path)
        if not out:  # refused before a report: bad input or a CheckFailure
            assert code in (1, 2), command
            continue
        report = json.loads(out)
        assert (report["command"], report["label"]) == (command, label)
        for check in report.get("checks", []):
            assert check["passed"] == (not check["failures"]), command
        passed = (all(c["passed"] for c in report.get("checks", []))
                  and not any(w["failures"] for w in report.get("weights", [])))
        assert report["passed"] == passed, command
        assert code == (0 if passed else 1), command


def test_a_weight_with_failures_fails_the_report(monkeypatch):
    # no document has a failing weight, so one is planted in the checker
    check = cli.check_leibniz_infinity

    def planted(fam, n_max):
        report = check(fam, n_max)
        report["weights"][-1]["failures"].append({"tuple": [], "residual": ""})
        return report

    monkeypatch.setattr(cli, "check_leibniz_infinity", planted)
    code, out, _ = run_main("check-leibniz", ROOT / "instances" / "sl2_borel.json")
    assert (code, json.loads(out)["passed"]) == (1, False)


# ---------------------------------------------------------------------------
# structure-aware mutations of a JSON document

def nodes(node, path=()):
    """(path, value) of every node below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def wrong_type(draw, doc) -> None:
    """Replace a value by one of another JSON type."""
    path, value = draw(st.sampled_from(list(nodes(doc))))
    parent(doc, path)[path[-1]] = draw(st.sampled_from(
        [v for v in (7, -1, 1.5, True, None, "x", [], {})
         if type(v) is not type(value)]))


def deleted_key(draw, doc) -> None:
    path, _ = draw(st.sampled_from(list(nodes(doc))))
    container = parent(doc, path)
    if isinstance(container, dict):
        del container[path[-1]]


NUMERIC_KEY = re.compile(r"\d+([,.]\d+)*")


def index_out_of_range(draw, doc) -> None:
    """Move an index in a key ("3", "0,1", "0.2") or an integer list entry
    (a subalgebra position) far past any dimension."""
    where = [(path, value) for path, value in nodes(doc)
             if isinstance(path[-1], str) and NUMERIC_KEY.fullmatch(path[-1])
             or isinstance(path[-1], int) and type(value) is int]
    if not where:
        return
    path, _ = draw(st.sampled_from(where))
    container = parent(doc, path)
    if isinstance(path[-1], int):
        container[path[-1]] = 99
    else:
        container[re.sub(r"\d+$", "99", path[-1])] = container.pop(path[-1])


RATIONAL = re.compile(r"-?\d+(/\d+)?")


def non_rational(draw, doc) -> None:
    where = [path for path, value in nodes(doc)
             if isinstance(value, str) and RATIONAL.fullmatch(value)]
    if where:
        path = draw(st.sampled_from(where))
        parent(doc, path)[path[-1]] = draw(st.sampled_from(
            ["1/0", "one", "1.5.2", "", "2/-3", "1e400"]))


WORD = re.compile(r"(\d+(\.\d+)*)?")


def inhomogeneous(draw, doc) -> None:
    """Add a term of another length to an element {word: rational}."""
    where = [path for path, value in nodes(doc)
             if isinstance(value, dict) and value
             and all(isinstance(c, str) and WORD.fullmatch(w)
                     for w, c in value.items())]
    if where:
        path = draw(st.sampled_from(where))
        element = parent(doc, path)[path[-1]]
        word = draw(st.sampled_from(
            [w for w in ("", "0", "1", "0.1", "0.1.2") if w not in element]))
        element[word] = "1"


MUTATIONS = (wrong_type, deleted_key, index_out_of_range, non_rational,
             inhomogeneous)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    doc = copy.deepcopy(DOCUMENTS[data.draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(data.draw(st.integers(1, 2))):
        data.draw(st.sampled_from(MUTATIONS))(data.draw, doc)
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "document.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(command, path)
    assert code in (0, 1, 2), err
    if out:
        assert json.loads(out)["passed"] == (code == 0)
    else:  # a morphism capped at arity 4 adds a "note:" line
        assert code in (1, 2)
        prefix = "error:" if code == 2 else "check failed:"
        assert [line.startswith(prefix)
                for line in err.splitlines()].count(True) == 1, err
