"""The drawn (sl_n, Borel) documents of ``lie_pairs``: the generator
agrees with the documents of the repository, every drawn document is
schema-valid, and the homotopy isomorphism between its two splittings
passes."""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings

import lie_pairs
from kapranov.cli import INSTANCE_SCHEMA, Instance, main
from kapranov.derivations import validate_dg_derivation

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, path", [
    (2, ROOT / "instances" / "sl2_borel.json"),
    (3, ROOT / "bench" / "instances" / "sl3_borel.json")])
def test_brackets_are_those_of_the_documents(n, path):
    pair = json.loads(path.read_text())["lie_pair"]
    assert lie_pairs.brackets(n) == pair["brackets"]
    assert lie_pairs.sl_borel(n)["lie_pair"]["subalgebra"] == pair["subalgebra"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_n_is_a_lie_algebra_with_a_dg_derivation(n):
    doc = lie_pairs.sl_borel(n)
    assert INSTANCE_SCHEMA.errors(doc) == []
    inst = Instance(doc)
    assert inst.lie.dim == n * n - 1
    assert inst.lie.jacobi_failures() == []
    assert validate_dg_derivation(inst.setup.delta) == []


@settings(max_examples=8, deadline=None)
@given(lie_pairs.documents(sizes=(2, 3)))
def test_homotopy_passes_on_drawn_pairs(doc):
    assert INSTANCE_SCHEMA.errors(doc) == []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "pair.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["homotopy", "--input", str(path)])
    assert code == 0
    assert json.loads(out.getvalue())["passed"] is True
