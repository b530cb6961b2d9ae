"""The reports of the commands that ask a cochain complex, pinned on
(sl_n, Borel) pairs of ``lie_pairs`` that no other pin reaches.

``atiyah``, ``cohomology``, ``homotopy`` and ``validate`` run in process
on sl4/borel and on sl3/borel with a splitting of the kind that
``lie_pairs.splittings`` draws, and must give the exit code and the
sha256 of stdout below.  The hashes were taken before the cochain
complexes moved from dense to sparse elimination; the reports do not name
the input path, so the documents are written to a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

import lie_pairs
from kapranov import cli

DOCUMENTS = {
    "sl4": lie_pairs.sl_borel(4, {"0": {"1": "1"}}, {"0": {"0": "2"}}),
    "sl3": lie_pairs.sl_borel(3, {"1": {"0": "1/2", "4": "-2/3"},
                                  "2": {"2": "2"}}, {"0": {"3": "-1"}}),
}

PINS = {
    "atiyah sl4": "fb6c8850e6d5ce23673b23db2f191039d32a1070ba360e58422ef203bc21926d",
    "cohomology sl4": "b36454af2d5613e1ea0a1645ad052a52b54cbe4a3c39b2e2c3e1d94271f4a804",
    "homotopy sl4": "4a8e18288811e64ef2334c157be7a919838c2c6983f6aa62945f54a9ce6b002f",
    "validate sl4": "82b7be5f6b5573b7ba785926d6def9b987fcf4c13c9efb605dcdb88d2dd88c59",
    "atiyah sl3": "424bfd9eca3af5845058856bf4f3a6a4a7216d1e3bc3a3bc05387ae2514d7a28",
    "cohomology sl3": "d506db1ae7c2f3d774fef0b7537ce517ed22bc8f2708f01ff52362eef410948e",
    "homotopy sl3": "956f49ff48d5e3875379db796af3f8eb6b709f48dc1491c3b378e572eddbad76",
    "validate sl3": "6dabfb0cce4225e7f287b8b20eb7478ea0a916686b08515dc333077a09e9290c",
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_reports_match_their_pins(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DOCUMENTS[name]))
    for command in ("atiyah", "cohomology", "homotopy", "validate"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--input", str(path)])
        key = f"{command} {name}"
        assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) \
            == (0, PINS[key]), key
