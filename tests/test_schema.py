"""The instance-schema checker against jsonschema's Draft7Validator.

jsonschema is only a test dependency: it is the oracle here.  Every
shipped, benchmark and fixture document is mutated at random (values
replaced, keys deleted, keys added, subtrees grafted elsewhere), and the
two checkers must agree on the verdict and on the set of error paths.

The one intended difference: draft 7 counts an integral float such as
3.0 as an integer, the checker does not.  So the oracle sees each
document with every integral float x replaced by x + 0.5, a float that
draft 7 rejects at the same places (and at no others) where the checker
rejects x.
"""

import copy
import json
import pathlib
import random

import jsonschema
import pytest

from kapranov.cli import INSTANCE_SCHEMA, SchemaChecker

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted([*ROOT.glob("instances/*.json"),
                    *ROOT.glob("bench/instances/*.json"),
                    *ROOT.glob("tests/fixtures/*.json")])
CASES_PER_DOCUMENT = 500

ORACLE = jsonschema.Draft7Validator(INSTANCE_SCHEMA.schema)

VALUES = ["1", "-2/3", "1/0", "x", "", "0.1", "1.2", "rational", 0, 1, 6, 7,
          -1, 2.5, 1.0, 3.0, 6.0, True, False, None, [], [0], [1.0], ["a"],
          {}, {"0": "1"}, {"0": 1}, {"0,1": {"0": "1"}}, {"": "1"},
          {"0": {"1.2": "1"}}]
KEYS = ["0", "1", "9", "0,1", "1,0", "a", "", "1.2", "01", "field", "label",
        "lie_pair", "linear_map_object", "raw", "options", "basis",
        "brackets", "subalgebra", "splitting", "max_arity", "generators",
        "omega", "degrees", "differential", "delta", "connection", "psi"]


def nodes(doc, path=()):
    """Every (path, value) in the document, the root included."""
    yield path, doc
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from nodes(value, path + (key,))


def mutate(doc, rng: random.Random):
    """One random edit: replace a value, delete a key or item, add a key or
    item, or graft a copy of one subtree over another."""
    all_nodes = list(nodes(doc))
    path, node = rng.choice(all_nodes)
    op = rng.choice(["replace", "replace", "delete", "add", "graft"])
    if op == "add" and isinstance(node, (dict, list)):
        value = copy.deepcopy(rng.choice(VALUES))
        if isinstance(node, dict):
            node[rng.choice(KEYS)] = value
        else:
            node.insert(rng.randrange(len(node) + 1), value)
        return doc
    if not path:
        return doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    elif op == "graft":
        parent[path[-1]] = copy.deepcopy(rng.choice(all_nodes)[1])
    else:
        parent[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    return doc


def integral_floats(doc) -> list[tuple]:
    return [path for path, value in nodes(doc)
            if isinstance(value, float) and value.is_integer()]


def shift_integral_floats(doc):
    if isinstance(doc, dict):
        return {k: shift_integral_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [shift_integral_floats(v) for v in doc]
    if isinstance(doc, float) and doc.is_integer():
        return doc + 0.5
    return doc


def checker_paths(doc) -> set[tuple]:
    return {path for path, _ in INSTANCE_SCHEMA.errors(doc)}


def oracle_paths(doc) -> set[tuple]:
    return {tuple(e.absolute_path) for e in ORACLE.iter_errors(doc)}


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_agrees_with_draft7_on_mutated_documents(path):
    original = json.loads(path.read_text())
    assert checker_paths(original) == oracle_paths(original) == set()
    rng = random.Random(path.name)
    rejected = with_floats = 0
    for case in range(CASES_PER_DOCUMENT):
        doc = copy.deepcopy(original)
        for _ in range(rng.randint(1, 3)):
            doc = mutate(doc, rng)
        got = checker_paths(doc)
        floats = integral_floats(doc)
        want = oracle_paths(shift_integral_floats(doc) if floats else doc)
        assert got == want, (case, doc)
        rejected += bool(got)
        with_floats += bool(floats)
        if floats:
            # rejected at the float or at an enclosing object that does not
            # admit the key it sits under
            assert all(any(p[:len(e)] == e for e in got) for p in floats)
    # the mutations must exercise both verdicts and the integer rule
    assert 0.2 * CASES_PER_DOCUMENT < rejected < CASES_PER_DOCUMENT
    assert with_floats > 0


@pytest.mark.parametrize("section,value,path", [
    ("options", {"max_arity": 3.0}, ("options", "max_arity")),
    ("subalgebra", [1.0, 2.0], ("lie_pair", "subalgebra", 0)),
])
def test_integral_float_is_not_an_integer(section, value, path):
    doc = json.loads((ROOT / "instances" / "sl2_borel.json").read_text())
    if section == "options":
        doc["options"] = value
    else:
        doc["lie_pair"]["subalgebra"] = value
    assert path in checker_paths(doc)
    assert oracle_paths(doc) == set()  # draft 7 takes 3.0 as an integer


@pytest.mark.parametrize("edit", [
    lambda s: s["properties"]["lie_pair"]["properties"]["basis"].update(
        maxItems=3),
    lambda s: s["definitions"]["rational"].update(format="rational"),
    lambda s: s["properties"]["options"].update(additionalProperties={}),
    lambda s: s["properties"]["label"].update(type="number"),
    lambda s: s["properties"].update(label={"$ref": "#/definitions/nope"}),
])
def test_unsupported_keyword_raises(edit):
    schema = copy.deepcopy(INSTANCE_SCHEMA.schema)
    edit(schema)
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        SchemaChecker(schema)
