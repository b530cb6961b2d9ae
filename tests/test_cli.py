"""Command-line front end: document handling, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from kapranov.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

SHIPPED = ["sl2_borel", "affine_pair", "abelian_trivial",
           "adjoint_linear_map", "double_adjoint_linear_map"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_validate_shipped_documents(self, capsys, name):
        code, out, _ = run(capsys, "validate",
                           "--input", str(INSTANCES / f"{name}.json"))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_missing_file_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "--input", "/no/such.json")
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_invalid_json_reports_location(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"field": "rational",}')
        code, _, err = run(capsys, "validate", "--input", str(p))
        assert code == 2
        assert "line 1" in err

    def test_schema_violation_reports_path(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({
            "field": "rational",
            "lie_pair": {"basis": ["x"], "brackets": {"0,1": {"1": "one"}},
                         "subalgebra": [0]}}))
        code, _, err = run(capsys, "validate", "--input", str(p))
        assert code == 2
        assert "lie_pair/brackets/0,1/1" in err

    def test_import_loads_only_the_standard_library(self):
        # every invocation pays the import: beyond what the bare interpreter
        # already holds (site and its .pth files), importing the CLI may
        # load nothing but kapranov and the standard library
        code = ("import json, sys; before = set(sys.modules); "
                "import kapranov.cli; print(json.dumps(sorted("
                "{m.partition('.')[0] for m in set(sys.modules) - before})))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        loaded = set(json.loads(out))
        assert "kapranov" in loaded
        assert loaded - set(sys.stdlib_module_names) == {"kapranov"}
        # dataclasses pulls in inspect, ast, dis and tokenize at start-up
        assert not loaded & {"dataclasses", "inspect"}
        # without site (python -S) no .pth file preloads anything, so the
        # modules the import itself costs are seen by full name
        code = ("import json, sys; import kapranov.cli; "
                "print(json.dumps(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        loaded = set(json.loads(out))
        assert "kapranov.cli" in loaded
        assert not loaded & {"argparse", "gettext", "importlib.resources",
                             "zipfile", "tempfile", "typing"}

    def test_integral_runs_load_no_fractions(self):
        # fractions imports decimal; only a non-integral rational needs it,
        # and on sl3/borel only the cohomology command makes one
        code = ("import json, sys, contextlib, io; import kapranov.cli; "
                "seen = [sorted({'fractions', 'decimal'} & set(sys.modules))]\n"
                "for argv in sys.argv[1:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "        kapranov.cli.main(argv.split())\n"
                "    seen.append(sorted({'fractions', 'decimal'} "
                "& set(sys.modules)))\n"
                "print(json.dumps(seen))")
        sl3 = str(ROOT / "bench" / "instances" / "sl3_borel.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-S", "-c", code,
             f"check-leibniz --input {sl3} --max-arity 3",
             f"cohomology --input {sl3}"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [[], [], ["decimal", "fractions"]]

    def test_homotopy_needs_second_splitting(self, capsys):
        code, _, err = run(capsys, "homotopy", "--input",
                           str(INSTANCES / "abelian_trivial.json"))
        assert code == 2
        assert "second_splitting" in err


def raw_document(differential: dict, delta: dict | None = None) -> dict:
    """Three odd generators u, v, w over a rank-one module of degree -1."""
    raw = {"generators": ["u", "v", "w"], "differential": differential,
           "omega": {"basis": ["m"], "degrees": [-1]}}
    if delta is not None:
        raw["delta"] = delta
    return {"field": "rational", "label": "raw", "raw": raw}


def run_document(capsys, tmp_path, doc, *argv):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return run(capsys, *argv, "--input", str(p))


class TestMonomialCanonicalisation:
    @pytest.mark.parametrize("command", ["validate", "atiyah", "brackets"])
    def test_unsorted_monomial_takes_the_sign_of_the_sort(self, capsys,
                                                          tmp_path, command):
        # "1.0" = v^u = -u^v; stored unsorted, brackets died in a KeyError
        outs = []
        for word, c in (("0.1", "1"), ("1.0", "-1")):
            code, out, _ = run_document(
                capsys, tmp_path, raw_document({"2": {word: c}},
                                               {"2": {"0": {word: c}}}),
                command)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["validate", "brackets"])
    def test_repeated_generator_is_zero(self, capsys, tmp_path, command):
        outs = []
        for diff in ({"0": {"1.1": "1"}}, {}):
            code, out, _ = run_document(capsys, tmp_path, raw_document(diff),
                                        command)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("doc,word", [
        (raw_document({"0": {"1.5": "1"}}), "1.5"),
        (raw_document({}, {"0": {"0": {"1.7": "1"}}}), "1.7"),
    ])
    def test_out_of_range_generator_is_an_input_error(self, capsys, tmp_path,
                                                      doc, word):
        code, out, err = run_document(capsys, tmp_path, doc, "brackets")
        assert code == 2
        assert out == ""
        assert f"monomial '{word}' names generator {word[-1]}" in err


class TestInputBounds:
    def test_out_of_range_delta_basis_index(self, capsys, tmp_path):
        doc = raw_document({}, {"0": {"4": {"1.2": "1"}}})
        code, out, err = run_document(capsys, tmp_path, doc, "validate")
        assert code == 2
        assert out == ""
        assert "basis index 4, but the module has rank 1" in err

    @pytest.mark.parametrize("splitting,path", [
        ({"7": {"1": "1"}}, "lie_pair/splitting/7"),
        ({"0": {"5": "1"}}, "lie_pair/splitting/0/5"),
    ])
    def test_out_of_range_splitting_index(self, capsys, tmp_path, splitting,
                                          path):
        doc = json.loads((INSTANCES / "sl2_borel.json").read_text())
        doc["lie_pair"]["splitting"] = splitting
        code, out, err = run_document(capsys, tmp_path, doc, "validate")
        assert code == 2
        assert out == ""
        assert f"at {path}:" in err

    @pytest.mark.parametrize("command", ["validate", "brackets"])
    def test_out_of_range_bracket_output_index(self, capsys, tmp_path,
                                               command):
        # the input indices of a bracket were checked, its output was not:
        # index 7 of the 3-dimensional sl2 validated with every check passed
        doc = json.loads((INSTANCES / "sl2_borel.json").read_text())
        doc["lie_pair"]["brackets"]["1,2"] = {"0": "1", "7": "1"}
        code, out, err = run_document(capsys, tmp_path, doc, command)
        assert code == 2
        assert out == ""
        assert "bracket (1,2) names output basis index 7" in err

    @pytest.mark.parametrize("name,keys,value,command,path", [
        ("sl2_borel", ["lie_pair", "subalgebra"], [0, 9], "validate",
         "lie_pair/subalgebra/1"),
        ("sl2_borel", ["lie_pair", "subalgebra"], [-1, 0], "validate",
         "lie_pair/subalgebra/0"),
        ("sl2_borel", ["lie_pair", "second_connection", "9"],
         {"0,0": {"": "1"}}, "atiyah", "lie_pair/second_connection/9"),
        ("sl2_borel", ["lie_pair", "second_connection", "0"],
         {"9,9": {"": "1"}}, "atiyah", "lie_pair/second_connection/0/9,9"),
        ("raw", ["raw", "connection"], {"9": {"0,0": {"": "1"}}}, "brackets",
         "raw/connection/9"),
        ("raw", ["raw", "connection"], {"0": {"0,9": {"": "1"}}}, "brackets",
         "raw/connection/0/0,9"),
        ("adjoint_linear_map", ["linear_map_object", "actions", "9"],
         {"0,0": "1"}, "validate", "linear_map_object/actions/9"),
        ("adjoint_linear_map", ["linear_map_object", "actions", "0"],
         {"9,0": "1"}, "validate", "linear_map_object/actions/0/9,0"),
        # used to be ignored: exit 0 with every check passed
        ("adjoint_linear_map", ["linear_map_object", "psi", "9"], {"0": "1"},
         "validate", "linear_map_object/psi/9"),
        ("adjoint_linear_map", ["linear_map_object", "psi", "0"], {"9": "1"},
         "validate", "linear_map_object/psi/0/9"),
        # the schema now gives linear-map brackets the Lie-pair shape
        ("adjoint_linear_map", ["linear_map_object", "lie", "brackets"],
         {"0,1": "1"}, "validate", "linear_map_object/lie/brackets/0,1"),
        ("adjoint_linear_map", ["linear_map_object", "lie", "brackets"],
         {"0,1": {"0": [1]}}, "validate",
         "linear_map_object/lie/brackets/0,1/0"),
        ("adjoint_linear_map", ["linear_map_object", "lie", "brackets"],
         {"a": {}}, "validate", "linear_map_object/lie/brackets"),
        # integer means a JSON integer: draft 7 would take 3.0 and 1.0
        ("sl2_borel", ["options", "max_arity"], 3.0, "brackets",
         "options/max_arity"),
        ("sl2_borel", ["lie_pair", "subalgebra"], [1.0, 2.0], "validate",
         "lie_pair/subalgebra/0"),
    ])
    def test_out_of_range_or_ill_typed_index(self, capsys, tmp_path, name,
                                             keys, value, command, path):
        doc = (raw_document({}) if name == "raw" else
               json.loads((INSTANCES / f"{name}.json").read_text()))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        code, out, err = run_document(capsys, tmp_path, doc, command)
        assert code == 2
        assert out == ""
        assert f"at {path}:" in err

    @pytest.mark.parametrize("option,value", [
        ("--max-arity", "0"), ("--max-arity", "-1"), ("--max-arity", "7"),
        ("--max-arity", "9"), ("--threads", "0"), ("--threads", "-3"),
    ])
    def test_out_of_range_option_exits_2(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["check-leibniz", "--input",
                  str(INSTANCES / "sl2_borel.json"), option, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}" in captured.err

    @pytest.mark.parametrize("argv,argument", [
        (["bogus", "--input", "x.json"], "COMMAND"),
        ([], "COMMAND"),
        (["validate"], "--input"),
        (["validate", "--output", "r.json"], "--input"),
        (["validate", "--input", "x.json", "--bogus", "1"], "--bogus"),
        (["validate", "--input", "x.json", "--max", "3"], "--max"),
        (["validate", "--input", "x.json", "stray"], "stray"),
        (["validate", "--input"], "--input"),
        (["validate", "--input", "--max-arity", "3"], "--input"),
        (["validate", "--input", "x.json", "--degree"], "--degree"),
        (["cohomology", "--input", "x.json", "--degree", "one"], "--degree"),
        (["cohomology", "--input", "x.json", "--degree=1.5"], "--degree"),
        (["check-leibniz", "--input", "x.json", "--max-arity=7"],
         "--max-arity"),
        (["check-leibniz", "--input", "x.json", "--threads", "x"],
         "--threads"),
    ])
    def test_usage_error_exits_2_naming_the_argument(self, capsys, argv,
                                                     argument):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: kapranov ")
        assert error.startswith(f"kapranov: error: argument {argument}: ")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0_with_the_usage_on_stdout(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["brackets", flag])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: kapranov {validate,atiyah,")
        for option in ("--input", "--max-arity", "--degree", "--output",
                       "--threads"):
            assert option in captured.out

    def test_equals_form_and_any_order(self, capsys):
        path = str(INSTANCES / "double_adjoint_linear_map.json")
        outs = []
        for argv in (["cohomology", "--input", path, "--degree", "0"],
                     ["cohomology", "--degree=0", f"--input={path}"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert list(json.loads(outs[0])["betti"]) == ["0"]

    def test_last_value_of_a_repeated_option_wins(self, capsys):
        code, out, _ = run(capsys, "check-leibniz", "--max-arity", "5",
                           "--input", "/no/such.json", "--max-arity=2",
                           "--input", str(INSTANCES / "abelian_trivial.json"))
        assert code == 0
        assert json.loads(out)["max_arity"] == 2

    @pytest.mark.parametrize("arity", ["1", "6"])
    def test_arity_bounds_are_accepted(self, capsys, arity):
        code, out, _ = run(capsys, "check-leibniz", "--input",
                           str(INSTANCES / "abelian_trivial.json"),
                           "--max-arity", arity, "--threads", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["max_arity"] == int(arity)
        assert [w["n"] for w in rep["weights"]] == list(range(1, int(arity) + 1))


class TestCorruptedFixtures:
    def test_jacobi_violation_is_located(self, capsys):
        code, out, _ = run(capsys, "validate",
                           "--input", str(FIXTURES / "bad_jacobi.json"))
        assert code == 1
        rep = json.loads(out)
        bad = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert "jacobi" in bad
        assert "(x,y,z)" in bad["jacobi"]["failures"][0]
        # the residual prints in the one representation of a rational
        assert bad["jacobi"]["failures"][0].endswith(": {1: -1}")

    def test_d_squared_violation_is_located(self, capsys):
        code, out, _ = run(capsys, "validate",
                           "--input", str(FIXTURES / "bad_d_squared.json"))
        assert code == 1
        rep = json.loads(out)
        bad = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert "d^2(a)" in bad["cdga_d_squared"]["failures"][0]

    def test_incompatible_delta_is_located(self, capsys):
        code, out, _ = run(capsys, "validate",
                           "--input", str(FIXTURES / "bad_delta.json"))
        assert code == 1
        rep = json.loads(out)
        bad = {c["name"]: c for c in rep["checks"] if not c["passed"]}
        assert "delta(d(u))" in bad["derivation_compatibility"]["failures"][0]


class TestCommands:
    def test_atiyah_sl2(self, capsys):
        code, out, _ = run(capsys, "atiyah",
                           "--input", str(INSTANCES / "sl2_borel.json"))
        rep = json.loads(out)
        assert code == 0
        assert rep["class_zero"] is False
        assert rep["flat_connection_found"] is False
        names = [c["name"] for c in rep["checks"]]
        assert "cocycle_difference_exact" in names
        assert "class_connection_independent" in names

    def test_atiyah_abelian_is_flat(self, capsys):
        code, out, _ = run(capsys, "atiyah",
                           "--input", str(INSTANCES / "abelian_trivial.json"))
        rep = json.loads(out)
        assert code == 0
        assert rep["class_zero"] is True
        assert rep["flat_connection_found"] is True

    def test_brackets_report_tables(self, capsys):
        code, out, _ = run(capsys, "brackets",
                           "--input", str(INSTANCES / "affine_pair.json"))
        rep = json.loads(out)
        assert code == 0
        assert rep["nonzero_arities"] == [1, 2, 3, 4, 5]
        entry = rep["tables"]["2"][0]
        assert entry["args"] == ["y~", "y~"]

    def test_check_leibniz_counts(self, capsys):
        code, out, _ = run(capsys, "check-leibniz", "--max-arity", "3",
                           "--input", str(INSTANCES / "sl2_borel.json"))
        rep = json.loads(out)
        assert code == 0
        weights = {w["n"]: w for w in rep["weights"]}
        # 4 monomial-basis elements (1, h^, e^, h^e^ over f~) in 3 slots
        assert weights[3]["tuples"] == 64
        assert all(not w["failures"] for w in rep["weights"])

    def test_morphism_identity_kind(self, capsys):
        code, out, _ = run(capsys, "morphism",
                           "--input", str(INSTANCES / "affine_pair.json"))
        rep = json.loads(out)
        assert code == 0
        assert rep["kind"] == "identity"
        assert rep["map_arities"] == [1]

    def test_homotopy_sl2(self, capsys):
        code, out, _ = run(capsys, "homotopy",
                           "--input", str(INSTANCES / "sl2_borel.json"))
        rep = json.loads(out)
        assert code == 0
        assert rep["iso_arities"] == [1, 3]
        assert rep["homotopy_values"] == {"e^": {"f~^": {"1": "-1/1"}}}

    def test_homotopy_offset_mismatch_is_a_failed_check(self, capsys,
                                                        monkeypatch):
        # a homotopy whose offset misses delta' is a mathematical failure
        # (exit 1, offset_matches failed), not an input error (exit 2)
        from kapranov import builders, cli
        path = str(INSTANCES / "sl2_borel.json")
        # the instance's setups need the real offset; only the check misses
        inst = cli.Instance(cli.load_document(path))
        monkeypatch.setattr(cli, "Instance", lambda doc: inst)
        monkeypatch.setattr(builders, "homotopy_offset",
                            lambda delta, h: None)
        code, out, _ = run(capsys, "homotopy", "--input", path)
        rep = json.loads(out)
        assert code == 1
        checks = {c["name"]: c for c in rep["checks"]}
        assert checks["offset_matches"]["failures"] == [
            "computed homotopy does not carry delta to delta'"]
        assert [n for n, c in checks.items() if not c["passed"]] == [
            "offset_matches"]
        assert rep["homotopy_values"] == {"e^": {"f~^": {"1": "-1/1"}}}

    def test_cohomology_degree_filter(self, capsys):
        code, out, _ = run(capsys, "cohomology", "--degree", "0",
                           "--input", str(INSTANCES / "double_adjoint_linear_map.json"))
        rep = json.loads(out)
        assert code == 0
        assert list(rep["betti"]) == ["0"]
        assert rep["cochain_nonskew_witness"] is not None

    def test_output_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate", "--output", str(out_path),
                           "--input", str(INSTANCES / "abelian_trivial.json"))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["passed"] is True

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path,
                                                 where):
        out_path = (tmp_path / "missing" / "report.json"
                    if where == "missing_dir" else tmp_path)
        code, out, err = run(capsys, "validate", "--output", str(out_path),
                             "--input", str(INSTANCES / "abelian_trivial.json"))
        assert code == 2
        assert out == ""
        assert f"error: cannot write {out_path}: " in err
        assert "Traceback" not in err

    def test_unwritable_output_exits_2_in_a_fresh_process(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kapranov.cli", "validate",
             "--input", str(INSTANCES / "abelian_trivial.json"),
             "--output", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {tmp_path}: ")
        assert "Traceback" not in proc.stderr


class TestGradedToy:
    """``tests/fixtures/graded_toy.json``: delta = 0 into an Omega with
    basis degrees 0 and 1, so B has basis vectors of both parities and the
    sign (-1)^{|b_0|} of the tower step reaches the command line."""

    FIXTURE = FIXTURES / "graded_toy.json"

    def library_tables(self):
        from kapranov.cli import Instance, bracket_tables_json, load_document
        from kapranov.kapranov import kapranov_brackets
        inst = Instance(load_document(str(self.FIXTURE)))
        assert {d % 2 for d in inst.bmod.basis.degrees} == {0, 1}
        return bracket_tables_json(kapranov_brackets(inst.connection, 4))

    @pytest.mark.parametrize("argv", [["brackets"],
                                      ["check-leibniz", "--max-arity", "4"]])
    def test_tower_reaches_arity_4_and_matches_the_library(self, capsys,
                                                           argv):
        code, out, _ = run(capsys, *argv, "--input", str(self.FIXTURE))
        rep = json.loads(out)
        assert code == 0
        assert rep["passed"] is True
        assert rep["nonzero_arities"] == [1, 2, 3, 4]
        assert rep["tables"] == self.library_tables()

    def test_check_leibniz_covers_every_tuple(self, capsys):
        code, out, _ = run(capsys, "check-leibniz", "--max-arity", "4",
                           "--input", str(self.FIXTURE))
        rep = json.loads(out)
        assert code == 0
        # 2 generators give 4 monomials over 2 basis vectors: 8 per slot
        assert [w["tuples"] for w in rep["weights"]] == [8, 64, 512, 4096]
        assert all(not w["failures"] for w in rep["weights"])


def adjoint_trivial_document() -> dict:
    """builders.adjoint_trivial_linear_map as a document: the adjoint
    action of [x, y] = y plus a trivially acted-on t, so H(B) is nonzero."""
    doc = json.loads((INSTANCES / "adjoint_linear_map.json").read_text())
    doc["label"] = "adjoint(+)trivial"
    doc["linear_map_object"]["module_basis"] = ["a", "b", "t"]
    return doc


class TestBuildTimeCheckFailures:
    """A mathematical check that fails while a structure is built raises
    CheckFailure: the command exits 1 with the failure on stderr, never 2,
    which stands for bad input."""

    def test_unclosed_cohomology_bracket_exits_1(self, capsys, tmp_path,
                                                 monkeypatch):
        from kapranov import cli
        from kapranov.algebra import AlgebraElement
        from kapranov.modules import ModuleElement
        doc = adjoint_trivial_document()
        code, _, _ = run_document(capsys, tmp_path, doc, "cohomology")
        assert code == 0
        real = cli.kapranov_brackets

        def corrupted(*args, **kwargs):
            # R_2 constant at y^.a~, which d does not close
            fam = real(*args, **kwargs)
            v = ModuleElement(fam.module, {0: AlgebraElement.monomial((1,))})
            rank = range(fam.module.rank)
            fam.module_tables[2] = {(i, j): v for i in rank for j in rank}
            return fam
        monkeypatch.setattr(cli, "kapranov_brackets", corrupted)
        code, out, err = run_document(capsys, tmp_path, doc, "cohomology")
        assert code == 1
        assert out == ""
        assert "check failed" in err
        assert "bracket output is not closed" in err

    def test_r2_changed_under_the_homotopy_exits_1(self, capsys, monkeypatch):
        from kapranov import kapranov
        real = kapranov.kapranov_brackets

        def corrupted(conn, *args, **kwargs):
            # scale one R_2 entry of the tower of nabla' = nabla + [d, hat]
            fam = real(conn, *args, **kwargs)
            if conn.label == "nabla'":
                table = fam.module_tables[2]
                key = next(iter(table))
                table[key] = table[key].scale(2)
            return fam
        monkeypatch.setattr(kapranov, "kapranov_brackets", corrupted)
        code, out, err = run(capsys, "homotopy",
                             "--input", str(INSTANCES / "sl2_borel.json"))
        assert code == 1
        assert out == ""
        assert "R_2 changed under the homotopy" in err

    def test_unclosed_cohomology_action_is_a_check_failure(self):
        from kapranov.builders import adjoint_trivial_linear_map, coadjoint_module
        from kapranov.kapranov import (CheckFailure, cohomology_action,
                                       kapranov_brackets, kapranov_module)
        from kapranov.modules import ModuleElement
        s = adjoint_trivial_linear_map()
        fam = kapranov_brackets(s.connection, max_arity=2)
        coad, conn = coadjoint_module(s)
        mf = kapranov_module(fam, conn, max_arity=2)
        assert cohomology_action(mf).e_reps
        # mu_2 constant at y*, which d does not close
        v = ModuleElement.basis_vector(coad, 1)
        mf.module_tables[2] = {(i, j): v for i in range(fam.module.rank)
                               for j in range(coad.rank)}
        with pytest.raises(CheckFailure, match="action output is not closed"):
            cohomology_action(mf)
        assert not issubclass(CheckFailure, ValueError)

    def test_offset_mismatch_with_delta_prime_is_a_check_failure(self):
        from kapranov.builders import sl2_borel_pair, splitting_homotopy
        from kapranov.derivations import DgDerivation, homotopy_offset
        from kapranov.kapranov import CheckFailure, HatConnection, homotopy_iso
        s0, s1 = sl2_borel_pair(), sl2_borel_pair({0: {1: 1}})
        h = splitting_homotopy(s0, s1)
        hat = HatConnection(h, s0.bmod, {})
        dp = homotopy_offset(s0.delta, h)
        homotopy_iso(s0.connection, h, hat, max_arity=3, delta_prime=dp)
        # delta' with the value on one generator doubled
        g = next(iter(dp.values))
        bad = DgDerivation(dp.algebra, dp.target,
                           {**dp.values, g: dp.values[g].scale(2)})
        with pytest.raises(CheckFailure, match="does not match delta_prime"):
            homotopy_iso(s0.connection, h, hat, max_arity=3, delta_prime=bad)


class TestDeterminism:
    @pytest.mark.parametrize("command,extra", [
        ("check-leibniz", ["--max-arity", "5"]),
        ("brackets", []),
        ("cohomology", []),
    ])
    def test_reports_identical_across_runs_and_threads(self, tmp_path, capsys,
                                                       command, extra):
        blobs = []
        for i, threads in enumerate(["1", "1", "4"]):
            p = tmp_path / f"r{i}.json"
            code = main([command, "--input",
                         str(INSTANCES / "affine_pair.json"),
                         "--threads", threads, "--output", str(p)] + extra)
            capsys.readouterr()
            assert code == 0
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_thread_env_var_override(self, tmp_path, capsys, monkeypatch):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["check-leibniz", "--input", str(INSTANCES / "sl2_borel.json"),
              "--output", str(p1)])
        monkeypatch.setenv("KAPRANOV_THREADS", "4")
        main(["check-leibniz", "--input", str(INSTANCES / "sl2_borel.json"),
              "--output", str(p2)])
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_timing_in_report_body(self, capsys):
        _, out, err = run(capsys, "validate",
                          "--input", str(INSTANCES / "abelian_trivial.json"))
        assert "elapsed" not in out
        assert "elapsed" in err
