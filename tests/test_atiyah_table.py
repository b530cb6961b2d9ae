"""The arity-2 seed of the tower, read off the Atiyah cocycle's values.

``_atiyah_table`` contracts each operator value [nabla, d](e_j) with the
basis vectors b_i of B.  ``oracles.atiyah_bilinear``, which applies the
connection and the differentials to each pair (b_i, e_j), is the oracle:
every instance document of the repository must give equal values in the
same key order, for its connection and for a second connection.
"""

from __future__ import annotations

import pathlib

import pytest

from kapranov.cli import Instance, load_document
from kapranov.connections import atiyah_cocycle
from kapranov.kapranov import _atiyah_table
from kapranov.modules import ModuleElement
from oracles import atiyah_bilinear

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted((ROOT / "instances").glob("*.json")) \
    + sorted((ROOT / "bench" / "instances").glob("*.json")) \
    + sorted((ROOT / "tests" / "fixtures").glob("*.json"))


def bilinear_table(conn, b_mod) -> dict:
    at = atiyah_cocycle(conn)
    table = {}
    for i in range(b_mod.rank):
        bi = ModuleElement.basis_vector(b_mod, i)
        for j in range(conn.module.rank):
            v = atiyah_bilinear(at, bi,
                                ModuleElement.basis_vector(conn.module, j))
            if not v.is_zero():
                table[(i, j)] = v
    return table


def connections(inst: Instance) -> list:
    return [c for c in (inst.setup.connection, inst.second_connection)
            if c is not None]


def test_documents_are_all_covered():
    assert len(DOCUMENTS) == 11
    kinds = {Instance(load_document(str(p))).kind for p in DOCUMENTS}
    assert kinds == {"lie_pair", "linear_map_object", "raw"}


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_seed_table_equals_the_bilinear_cocycle(path):
    inst = Instance(load_document(str(path)))
    for conn in connections(inst):
        bmod = inst.setup.bmod
        got, want = _atiyah_table(conn, bmod), bilinear_table(conn, bmod)
        assert list(got) == list(want)
        assert all(got[key] == val for key, val in want.items())


def test_some_document_has_odd_basis_vectors_and_nonzero_seeds():
    # the sign (-1)^{|b_i|} is exercised only by an odd b_i with a value
    hit = False
    for path in DOCUMENTS:
        inst = Instance(load_document(str(path)))
        table = _atiyah_table(inst.setup.connection, inst.setup.bmod)
        hit |= any(inst.setup.bmod.basis.degrees[i] % 2 for i, _ in table)
    assert hit
