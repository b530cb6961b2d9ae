"""Shared small instances used across the test suite."""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

import pytest

from kapranov.algebra import LieAlgebraData
from kapranov.cli import Instance, parse_linear_map

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
# the linear-map documents shipped_setup knows, adjoint(+)trivial last
LINEAR_MAPS = ("adjoint_linear_map", "double_adjoint_linear_map",
               "adjoint_trivial")


def adjoint_trivial_document() -> dict:
    """The adjoint action of [x, y] = y plus a trivially acted-on t, with
    psi = (id, 0): the carrier B = C(g, E[1]) has nonzero cohomology."""
    doc = json.loads((INSTANCES / "adjoint_linear_map.json").read_text())
    doc["label"] = "adjoint(+)trivial"
    doc["linear_map_object"]["module_basis"] = ["a", "b", "t"]
    return doc


def shipped_document(name: str) -> dict:
    """``instances/<name>.json``, or :func:`adjoint_trivial_document` for
    "adjoint_trivial"."""
    if name == "adjoint_trivial":
        return adjoint_trivial_document()
    return json.loads((INSTANCES / f"{name}.json").read_text())


def linear_map_data(name: str) -> dict:
    """The linear-map object of the document :func:`shipped_document`
    gives, as ``cli.Instance`` parses it: the keyword arguments of
    ``builders.linear_map_setup``."""
    return parse_linear_map(shipped_document(name)["linear_map_object"])


def shipped_setup(name: str, splitting: dict | None = None):
    """The Setup of :func:`shipped_document` as ``cli.Instance`` reads it.

    ``splitting``, {quotient position: {sub position: c}}, replaces the
    document's ``lie_pair.splitting``; {} is the standard splitting j0.
    """
    doc = shipped_document(name)
    if splitting is not None:
        doc["lie_pair"]["splitting"] = {
            str(b): {str(a): str(c) for a, c in row.items()}
            for b, row in splitting.items()}
    return Instance(doc).setup


@pytest.fixture
def sl2():
    """[h,e] = 2e, [h,f] = -2f, [e,f] = h, basis order (h, e, f)."""
    return LieAlgebraData(
        ["h", "e", "f"],
        {(0, 1): {1: Fraction(2)},
         (0, 2): {2: Fraction(-2)},
         (1, 2): {0: Fraction(1)}})


@pytest.fixture
def borel():
    """Borel of sl2: [h,e] = 2e, basis order (h, e)."""
    return LieAlgebraData(["h", "e"], {(0, 1): {1: Fraction(2)}})


@pytest.fixture
def affine():
    """Two-dimensional nonabelian Lie algebra: [x,y] = y."""
    return LieAlgebraData(["x", "y"], {(0, 1): {1: Fraction(1)}})


@pytest.fixture
def heisenberg():
    """[x,y] = z, z central."""
    return LieAlgebraData(["x", "y", "z"], {(0, 1): {2: Fraction(1)}})
