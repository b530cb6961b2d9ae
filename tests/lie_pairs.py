"""Lie pairs (sl_n, its Borel subalgebra) as instance documents: the
tests' family of drawn pairs.

``sl_borel(n, splitting, second_splitting)`` builds sl_n from its n x n
matrix units.  The basis is h_1, ..., h_{n-1} (h_k = E_kk - E_{k+1,k+1}),
then e_ij = E_ij and then f_ij = E_ji for i < j, each in the order of
``roots``; the structure constants are commutators over ``Fraction``.
The subalgebra is the Borel span(h, e), so the quotient positions are the
f's, unless a ``subalgebra`` list of basis indices replaces it.  For n = 2
and 3 the brackets are those of ``instances/sl2_borel.json`` and
``bench/instances/sl3_borel.json``.

``splittings(n)`` is a Hypothesis strategy for a splitting {quotient
position: {sub position: c}}, and ``documents(sizes)`` draws n from
``sizes`` and both splittings of one pair.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

COEFFICIENTS = ("1", "-1", "2", "1/2", "-2/3")


def roots(n: int) -> list[tuple[int, int]]:
    """The positions (i, j), i < j, of the e's, by height j - i, then i."""
    return sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                  key=lambda r: (r[1] - r[0], r[0]))


def basis_names(n: int) -> list[str]:
    rs = roots(n)
    return ([f"h{k + 1}" for k in range(n - 1)]
            + [f"e{i + 1}{j + 1}" for i, j in rs]
            + [f"f{i + 1}{j + 1}" for i, j in rs])


def matrices(n: int) -> list[list[list[Fraction]]]:
    """The basis of sl_n as n x n matrices, in the order of ``basis_names``."""
    def unit(entries):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), c in entries.items():
            m[i][j] = Fraction(c)
        return m
    rs = roots(n)
    return ([unit({(k, k): 1, (k + 1, k + 1): -1}) for k in range(n - 1)]
            + [unit({(i, j): 1}) for i, j in rs]
            + [unit({(j, i): 1}) for i, j in rs])


def coordinates(m: list[list[Fraction]]) -> dict[int, Fraction]:
    """The nonzero coordinates of a traceless matrix in the basis of
    ``matrices``: diag(d_1, ..., d_n) = sum_k (d_1 + ... + d_k) h_k."""
    n = len(m)
    rs = roots(n)
    out, partial = {}, Fraction(0)
    for k in range(n - 1):
        partial += m[k][k]
        out[k] = partial
    for t, (i, j) in enumerate(rs):
        out[n - 1 + t] = m[i][j]
        out[n - 1 + len(rs) + t] = m[j][i]
    return {k: c for k, c in out.items() if c}


def brackets(n: int) -> dict[str, dict[str, str]]:
    """The document's ``brackets``: {"a,b": {"k": c}} for a < b."""
    mats = matrices(n)
    out = {}
    for a, x in enumerate(mats):
        for b in range(a + 1, len(mats)):
            y = mats[b]
            coords = coordinates([[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j]
                                       for k in range(n)) for j in range(n)]
                                  for i in range(n)])
            if coords:
                out[f"{a},{b}"] = {str(k): str(c)
                                   for k, c in sorted(coords.items())}
    return out


def sl_borel(n: int, splitting: dict | None = None,
             second_splitting: dict | None = None,
             subalgebra: list[int] | None = None) -> dict:
    """The document of (sl_n, Borel), or of (sl_n, the span of the basis
    indices ``subalgebra``), with the given splittings."""
    names = basis_names(n)
    if subalgebra is None:
        subalgebra, label = list(range(n - 1 + len(roots(n)))), f"sl{n}/borel"
    else:
        label = f"sl{n}/span({','.join(names[a] for a in subalgebra)})"
    pair = {"basis": names, "brackets": brackets(n),
            "subalgebra": subalgebra,
            "splitting": splitting or {}}
    if second_splitting is not None:
        pair["second_splitting"] = second_splitting
    return {"field": "rational", "label": label, "lie_pair": pair,
            "options": {"max_arity": 3}}


@st.composite
def splittings(draw, n: int) -> dict:
    """j(f_b) = f_b + sum_a c x_a on up to three (b, a) positions."""
    n_quot = len(roots(n))
    entries = draw(st.lists(st.tuples(
        st.integers(0, n_quot - 1), st.integers(0, n - 2 + n_quot),
        st.sampled_from(COEFFICIENTS)), max_size=3))
    out: dict = {}
    for b, a, c in entries:
        out.setdefault(str(b), {})[str(a)] = c
    return out


@st.composite
def documents(draw, sizes=(2, 3, 4)) -> dict:
    """An (sl_n, Borel) document with drawn splitting and second splitting."""
    n = draw(st.sampled_from(sizes))
    return sl_borel(n, draw(splittings(n)), draw(splittings(n)))
