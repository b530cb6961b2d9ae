"""Generate the benchmark's two scale instances from a workload seed.

* ``sl2_borel_shifted.json``: sl2 over its Borel subalgebra span(h, e) with
  the shifted splitting j(f~) = f + c e, checked to weight 6.
* ``sl3_borel.json``: sl3 over its Borel subalgebra (the upper-triangular
  traceless matrices) with the shifted splitting j(f1~) = f1 + c e1.  The
  structure constants are computed from 3x3 matrices, so nothing is
  downloaded; the k-basis has 2^5 * 3 = 96 elements.

The seed picks only the nonzero rational ``c`` of each splitting, never its
position, so the shape of the work is the same for every seed.  Seed 0 is
c = 1 for both, which is what the checked-in files in ``bench/instances``
hold.  Regenerate them with

    python3 bench/make_instances.py --seed 0 --out-dir bench/instances
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

# Values a seed may pick.  Each gives the nonzero table entries and tuple
# counts of c = 1 on both instances; bench/tests checks the sl2 tables.
SPLITTING_VALUES = ("1", "2", "-1", "1/2", "3", "-2", "2/3", "-1/3")

SL2_NAME = "sl2_borel_shifted.json"
SL3_NAME = "sl3_borel.json"


def splitting_values(seed: int) -> tuple[str, str]:
    """The (sl2, sl3) splitting coefficients for a workload seed."""
    if seed == 0:
        return "1", "1"
    rng = random.Random(seed)
    return rng.choice(SPLITTING_VALUES), rng.choice(SPLITTING_VALUES)


def sl2_borel_shifted(c: str) -> dict:
    return {
        "field": "rational",
        "label": "sl2/borel shifted",
        "lie_pair": {
            "basis": ["h", "e", "f"],
            "brackets": {"0,1": {"1": "2"}, "0,2": {"2": "-2"},
                         "1,2": {"0": "1"}},
            "subalgebra": [0, 1],
            "splitting": {"0": {"1": c}},
            "second_splitting": {},
            "second_connection": {"0": {"0,0": {"": "1"}}},
        },
        "options": {"max_arity": 6},
    }


SL3_NAMES = ["h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3"]
# (row, column) of the matrix unit of each root vector, in basis order
SL3_ROOTS = {2: (0, 1), 3: (1, 2), 4: (0, 2), 5: (1, 0), 6: (2, 1), 7: (2, 0)}


def _matrix(index: int) -> list[list[Fraction]]:
    m = [[Fraction(0)] * 3 for _ in range(3)]
    if index == 0:  # h1 = E11 - E22
        m[0][0], m[1][1] = Fraction(1), Fraction(-1)
    elif index == 1:  # h2 = E22 - E33
        m[1][1], m[2][2] = Fraction(1), Fraction(-1)
    else:
        i, j = SL3_ROOTS[index]
        m[i][j] = Fraction(1)
    return m


def _commutator(a, b) -> list[list[Fraction]]:
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(3))
             for j in range(3)] for i in range(3)]


def _coordinates(m) -> dict[int, Fraction]:
    """Coordinates of a traceless 3x3 matrix in the basis SL3_NAMES."""
    out = {k: m[i][j] for k, (i, j) in SL3_ROOTS.items() if m[i][j]}
    # diag(x, y - x, -y) = x h1 + y h2
    x, y = m[0][0], -m[2][2]
    if m[1][1] != y - x:
        raise ValueError("matrix is not traceless")
    if x:
        out[0] = x
    if y:
        out[1] = y
    return out


def sl3_brackets() -> dict[str, dict[str, str]]:
    mats = [_matrix(i) for i in range(len(SL3_NAMES))]
    out = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = _coordinates(_commutator(mats[i], mats[j]))
            if coords:
                out[f"{i},{j}"] = {str(k): str(v)
                                   for k, v in sorted(coords.items())}
    return out


def sl3_borel(c: str) -> dict:
    return {
        "field": "rational",
        "label": "sl3/borel",
        "lie_pair": {
            "basis": SL3_NAMES,
            "brackets": sl3_brackets(),
            "subalgebra": [0, 1, 2, 3, 4],
            "splitting": {"0": {"2": c}},
        },
        "options": {"max_arity": 3},
    }


def write_instances(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write both instances for ``seed``; returns {file name: path}."""
    c2, c3 = splitting_values(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in ((SL2_NAME, sl2_borel_shifted(c2)),
                      (SL3_NAME, sl3_borel(c3))):
        path = out_dir / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        paths[name] = path
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    for path in write_instances(args.seed, args.out_dir).values():
        print(path)


if __name__ == "__main__":
    main()
