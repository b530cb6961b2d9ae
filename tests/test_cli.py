"""Command-line front end: document handling, exit codes, determinism."""

import gc
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import weakref

import pytest

from conftest import adjoint_trivial_document, linear_map_data, shipped_setup
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


def src_env() -> dict:
    """The environment of a child interpreter that imports kapranov from
    this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


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

    def test_exhausted_memory_exits_3_without_a_traceback(self, capsys,
                                                          monkeypatch):
        # 3 is "could not finish": neither a failed check (1) nor bad
        # input (2); the command raises at once and allocates nothing
        from kapranov import cli

        def exhausted(inst, args):
            raise MemoryError
        monkeypatch.setitem(cli.COMMANDS, "atiyah", exhausted)
        path = str(INSTANCES / "sl2_borel.json")
        code, out, err = run(capsys, "atiyah", "--input", path)
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: out of memory\n"

    def test_exhausted_memory_is_reported_after_the_frames_are_freed(
            self, capsys, monkeypatch):
        # the message is written once the traceback has let go of the
        # failing command's frame, so what it had built is freed first and
        # the print cannot run out of memory again
        from kapranov import cli

        class Built:
            pass
        refs, freed_at_write = [], []

        def exhausted(inst, args):
            built = Built()
            refs.append(weakref.ref(built))
            raise MemoryError

        class Stderr(io.StringIO):
            def write(self, text):
                freed_at_write.append(refs[0]() is None)
                return super().write(text)
        monkeypatch.setitem(cli.COMMANDS, "atiyah", exhausted)
        stderr = Stderr()
        monkeypatch.setattr(sys, "stderr", stderr)
        path = str(INSTANCES / "sl2_borel.json")
        assert cli.main(["atiyah", "--input", path]) == 3
        assert stderr.getvalue() == f"error: {path}: out of memory\n"
        assert freed_at_write and all(freed_at_write)

    def test_import_loads_only_the_standard_library(self):
        # every invocation pays the import: beyond what the bare interpreter
        # already holds (site and its .pth files), importing the CLI may
        # load nothing but kapranov and the standard library
        code = ("import json, sys; before = set(sys.modules); "
                "import kapranov.cli; print(json.dumps(sorted("
                "{m.partition('.')[0] for m in set(sys.modules) - before})))")
        env = src_env()
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
        env = src_env()
        out = subprocess.run(
            [sys.executable, "-S", "-c", code,
             f"check-leibniz --input {sl3} --max-arity 3",
             f"cohomology --input {sl3}"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [[], [], ["decimal", "fractions"]]

    def test_atiyah_and_homotopy_load_no_fractions(self):
        # the sparse elimination never normalizes a kept vector, so the
        # primitives of the Atiyah cocycle on sl3/borel and of the homotopy
        # on the shifted sl2/borel stay integral
        code = ("import json, sys, contextlib, io; import kapranov.cli\n"
                "seen = []\n"
                "for argv in sys.argv[1:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "        assert kapranov.cli.main(argv.split()) == 0\n"
                "    seen.append(sorted({'fractions', 'decimal'} "
                "& set(sys.modules)))\n"
                "print(json.dumps(seen))")
        sl3 = ROOT / "bench" / "instances" / "sl3_borel.json"
        sl2 = ROOT / "bench" / "instances" / "sl2_borel_shifted.json"
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, f"atiyah --input {sl3}",
             f"homotopy --input {sl2}"],
            env=src_env(), capture_output=True, text=True, check=True).stdout
        assert json.loads(out) == [[], []]

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
        assert err == ("error: at raw/delta/0/4: module basis index 4 is out "
                       "of range (dimension 1)\n")

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
        assert err.startswith("error: at lie_pair/brackets/1,2/7: output "
                              "basis index 7 is out of range")

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
         "lie_pair/subalgebra/0"),        # found by the parser, not by the library, so the error names the
        # place in the document
        ("sl2_borel", ["lie_pair", "brackets", "0,9"], {"0": "1"},
         "validate", "lie_pair/brackets/0,9"),
        ("adjoint_linear_map", ["linear_map_object", "lie", "brackets", "0,1"],
         {"1": "1", "7": "1"}, "validate",
         "linear_map_object/lie/brackets/0,1/7"),
        ("raw", ["raw", "differential"], {"9": {"0.1": "1"}}, "validate",
         "raw/differential/9"),
        ("raw", ["raw", "delta"], {"9": {"0": {"": "1"}}}, "validate",
         "raw/delta/9"),
        ("raw", ["raw", "omega", "differential"], {"0,9": {"0": "1"}},
         "validate", "raw/omega/differential/0,9"),
        ("raw", ["raw", "omega", "differential"], {"9,0": {"0": "1"}},
         "brackets", "raw/omega/differential/9,0"),
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

    # one edit of graded_toy.json each: a value the library used to refuse
    # without naming its place in the document
    @pytest.mark.parametrize("keys,value,error", [
        (["raw", "delta"], {"0": {"0": {"": "1"}}},
         "at raw/delta/0: the value on x must have degree 1"),
        (["raw", "delta"], {"0": {"0": {"": "1"}, "1": {"": "1"}}},
         "at raw/delta/0: module element is not homogeneous: "
         "[(1)]*u + [(1)]*v"),
        (["raw", "delta"], {"0": {"7": {"": "1"}}},
         "at raw/delta/0/7: module basis index 7 is out of range "
         "(dimension 2)"),
        (["raw", "connection", "1", "0,1"], {"0": "1"},
         "at raw/connection/1: nabla(v*) must have degree -1"),
        (["raw", "connection", "0", "1,1"], {"0": "4"},
         "at raw/connection/0: module element is not homogeneous: "
         "[(1)]*u(x)u* + [(2)*y]*u(x)v* + [(4)*x]*v(x)v*"),
        (["raw", "differential", "1"], {"0.1": "-1", "1": "1"},
         "at raw/differential/1: element is not homogeneous: "
         "1*g[1] + -1*g[0, 1]"),
        (["raw", "differential", "1"], {"0": "1"},
         "at raw/differential/1: d(y) must have degree 2"),
        (["raw", "omega", "differential", "0,0"], {"5": "1"},
         "at raw/omega/differential/0,0/5: monomial '5' names generator 5, "
         "but the algebra has 2 generators"),
    ], ids=["delta_degree", "delta_inhomogeneous", "delta_index",
            "connection_degree", "connection_inhomogeneous",
            "differential_inhomogeneous", "differential_degree",
            "monomial_generator"])
    def test_a_value_the_parser_refuses_names_its_path(self, capsys, tmp_path,
                                                       keys, value, error):
        doc = json.loads((FIXTURES / "graded_toy.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        code, out, err = run_document(capsys, tmp_path, doc, "validate")
        assert (code, out, err) == (2, "", f"error: {error}\n")

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

    @pytest.mark.parametrize("argv,argument,message", [
        *[([command, "--input", "x.json", "--degree", "0"], "--degree",
           f"not accepted by {command}")
          for command in ("validate", "atiyah", "brackets", "check-leibniz",
                          "morphism", "homotopy")],
        *[([command, "--input", "x.json", "--max-arity=2"], "--max-arity",
           f"not accepted by {command}")
          for command in ("validate", "atiyah", "homotopy", "cohomology")],
        (["morphism", "--input", "x.json", "--max-arity", "5"], "--max-arity",
         "5: must be at most 4 for morphism"),
        (["morphism", "--max-arity=6", "--input", "x.json"], "--max-arity",
         "6: must be at most 4 for morphism"),
    ])
    def test_option_a_command_ignores_exits_2(self, capsys, argv, argument,
                                              message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[1] == (
            f"kapranov: error: argument {argument}: {message}")

    @pytest.mark.parametrize("argv", [
        ["brackets", "--max-arity", "6"], ["check-leibniz", "--max-arity", "6"],
        ["morphism", "--max-arity", "4"], ["cohomology", "--degree", "0"],
    ])
    def test_option_a_command_reads_is_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--threads", "2", "--input",
                           str(INSTANCES / "abelian_trivial.json"))
        assert code == 0
        assert json.loads(out)["passed"] is True

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
        # closedness of the Atiyah cocycle means nothing where d^2 != 0
        assert bad["connection"]["failures"] == [
            "not run: cdga_d_squared failed"]

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

    @pytest.mark.parametrize("returned, failure", [
        ("canonical", "the flat connection found has a nonzero Atiyah cocycle"),
        (None, "flat connection search disagrees with the class")])
    def test_atiyah_refuses_a_connection_that_is_not_flat(
            self, capsys, monkeypatch, returned, failure):
        # affine_pair's class is zero but its canonical connection is not
        # flat: returning it, or returning nothing, fails the check
        from kapranov import cli
        monkeypatch.setattr(
            cli, "flat_connection_exists", lambda cls:
            cls.connection if returned == "canonical" else None)
        code, out, _ = run(capsys, "atiyah",
                           "--input", str(INSTANCES / "affine_pair.json"))
        assert code == 1
        rep = json.loads(out)
        assert rep["class_zero"] is True
        bad = {c["name"]: c["failures"] for c in rep["checks"]
               if not c["passed"]}
        assert bad == {"flat_agrees_with_class_vanishing": [failure]}

    @pytest.mark.parametrize("path", [
        ROOT / "bench" / "instances" / "sl3_borel.json",
        INSTANCES / "affine_pair.json", FIXTURES / "graded_toy.json"],
        ids=lambda p: p.stem)
    def test_atiyah_builds_one_kbasis(self, capsys, monkeypatch, path):
        # the class and the flat connection are read in one complex
        from kapranov.modules import KBasis
        built = []
        init = KBasis.__init__
        monkeypatch.setattr(KBasis, "__init__", lambda self, module:
                            built.append(module) or init(self, module))
        code, _, _ = run(capsys, "atiyah", "--input", str(path))
        assert code == 0
        assert len(built) == 1

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

    def test_morphism_names_the_cap_on_a_documents_max_arity(self, capsys):
        # options.max_arity 6 is checked to weight 4, as the golden report
        # (which has no max_arity field) records; stderr says so
        name = "sl2_borel_shifted"
        code, out, err = run(capsys, "morphism", "--input",
                             str(ROOT / f"bench/instances/{name}.json"))
        golden = ROOT / f"bench/golden/leibniz-sl2/morphism-{name}.json"
        assert code == 0
        assert out == golden.read_text()
        assert [w["n"] for w in json.loads(out)["weights"]] == [1, 2, 3, 4]
        assert "morphism caps the document's max_arity 6 at 4" in err

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
        # (exit 1, offset_matches failed), not an input error (exit 2).  No
        # document reaches it: here the second set-up's delta' is delta
        # offset twice by the splitting homotopy h, while h is read off the
        # splittings
        from kapranov import cli
        from kapranov.builders import Setup, splitting_homotopy
        from kapranov.connections import DeltaConnection
        from kapranov.derivations import homotopy_offset
        path = str(INSTANCES / "sl2_borel.json")
        inst = cli.Instance(cli.load_document(path))
        s0, s1 = inst.setup, inst.second_setup
        far = homotopy_offset(s1.delta, splitting_homotopy(s0, s1))
        assert far != s1.delta
        inst.second_setup = Setup(s1.algebra, s1.omega, far, s1.bmod,
                                  DeltaConnection(far, s1.bmod), pair=s1.pair,
                                  splitting=s1.splitting)
        monkeypatch.setattr(cli, "Instance", lambda doc: inst)
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
        env = src_env()
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
        assert {d % 2 for d in inst.setup.bmod.basis.degrees} == {0, 1}
        return bracket_tables_json(kapranov_brackets(inst.setup.connection, 4))

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

    def test_cohomology_of_a_module_with_d_squared_nonzero_exits_1(self,
                                                                     capsys):
        # H is undefined where d^2 != 0, so no Betti number is reported
        code, out, err = run(capsys, "cohomology", "--input",
                             str(FIXTURES / "bad_d_squared.json"))
        assert code == 1
        assert out == ""
        assert "check failed" in err
        assert "d^2(a) = (-1)*b^p^q" in err

    @pytest.mark.parametrize("path", [INSTANCES / "sl2_borel.json",
                                      FIXTURES / "graded_toy.json"],
                             ids=lambda p: p.stem)
    def test_cohomology_validates_once(self, capsys, monkeypatch, path):
        # require_defined checks d^2 on A and on B for the whole run; the
        # cohomology bracket does not check them again
        from kapranov import algebra, modules
        calls = []
        for name, owner in (("validate_cdga", algebra),
                            ("validate_dg_module", modules)):
            original = getattr(owner, name)

            def counted(*args, name=name, original=original):
                calls.append(name)
                return original(*args)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").partition(".")[0]
                        == "kapranov" and getattr(module, name, None)
                        is original):
                    monkeypatch.setattr(module, name, counted)
        code, out, err = run(capsys, "cohomology", "--input", str(path))
        assert code == 0
        assert sorted(calls) == ["validate_cdga", "validate_dg_module"]

    # every command that builds a tower refuses an undefined one up front
    UNDEFINED_TOWER_COMMANDS = ("atiyah", "brackets", "check-leibniz",
                                "morphism", "cohomology")

    def test_atiyah_where_d_squared_is_nonzero_exits_1(self, capsys):
        # no Atiyah class and no tower is defined where d_A^2 != 0
        for command in self.UNDEFINED_TOWER_COMMANDS:
            code, out, err = run(capsys, command, "--input",
                                 str(FIXTURES / "bad_d_squared.json"))
            assert code == 1, command
            assert out == "", command
            assert "check failed" in err, command
            assert "d^2(a) = (-1)*b^p^q" in err, command

    def test_atiyah_where_delta_is_no_chain_map_exits_1(self, capsys):
        for command in self.UNDEFINED_TOWER_COMMANDS:
            code, out, err = run(capsys, command, "--input",
                                 str(FIXTURES / "bad_delta.json"))
            assert code == 1, command
            assert out == "", command
            assert "check failed" in err, command
            assert "delta(d(u)) = 0 but d(delta(u)) = [(1)]*n" in err, command

    # linear-map objects that the dg checks refuse: a rho that is no
    # representation gives d^2 != 0 on Omega and on B, so the connection
    # check does not run, and a psi that is not equivariant a delta that is
    # no chain map
    BAD_LINEAR_MAPS = {
        "rho": ({"0": {"1,1": "1"}, "1": {"0,0": "1"}}, {},
                ["module_d_squared", "dual_module_d_squared", "connection"],
                "d^2(a~) = [(-1)*x^^y^]*a~"),
        "psi": ({"0": {"1,1": "1"}, "1": {"0,1": "-1"}}, {"0": {"1": "1"}},
                ["derivation_compatibility", "connection"],
                "delta(d(y^)) = [(-1)*x^]*a^ but d(delta(y^)) = 0"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_LINEAR_MAPS))
    def test_a_bad_linear_map_object_exits_1(self, capsys, tmp_path, kind):
        actions, psi, failing, message = self.BAD_LINEAR_MAPS[kind]
        doc = json.loads((INSTANCES / "adjoint_linear_map.json").read_text())
        doc["linear_map_object"].update(actions=actions, psi=psi)
        code, out, err = run_document(capsys, tmp_path, doc, "validate")
        assert code == 1
        assert err.startswith("elapsed:")
        assert [c["name"] for c in json.loads(out)["checks"]
                if not c["passed"]] == failing
        for command in self.UNDEFINED_TOWER_COMMANDS:
            code, out, err = run_document(capsys, tmp_path, doc, command)
            assert code == 1, command
            assert out == "", command
            assert f"check failed: {tmp_path / 'doc.json'}: {message}" in err
        code, out, err = run_document(capsys, tmp_path, doc, "homotopy")
        assert (code, out) == (2, "")
        assert "second_splitting" in err

    # the whole stderr of each command that calls require_defined, on each
    # corrupted fixture: the first failure of validate's checks, in
    # validate's order.  homotopy refuses the fixtures first, for want of a
    # second splitting, so it is also pinned on sl2 with [e, f] = h + e
    UNDEFINED = {
        "bad_jacobi": "Jacobi fails on (x,y,z): {1: -1}",
        "bad_d_squared": "d^2(a) = (-1)*b^p^q",
        "bad_delta": "delta(d(u)) = 0 but d(delta(u)) = [(1)]*n",
    }

    @pytest.mark.parametrize("fixture", sorted(UNDEFINED))
    @pytest.mark.parametrize("command", UNDEFINED_TOWER_COMMANDS
                             + ("homotopy",))
    def test_undefined_input_stderr_is_pinned(self, capsys, fixture,
                                              command):
        path = str(FIXTURES / f"{fixture}.json")
        code, out, err = run(capsys, command, "--input", path)
        if command == "homotopy":
            assert (code, out, err) == (
                2, "", "error: the homotopy command needs a lie_pair document "
                "with a second_splitting section\n")
        else:
            assert (code, out, err) == (
                1, "", f"check failed: {path}: {self.UNDEFINED[fixture]}\n")

    def test_homotopy_on_a_bracket_that_breaks_jacobi_is_pinned(
            self, capsys, tmp_path):
        doc = json.loads((INSTANCES / "sl2_borel.json").read_text())
        doc["lie_pair"]["brackets"]["1,2"] = {"0": "1", "1": "1"}
        code, out, err = run_document(capsys, tmp_path, doc, "homotopy")
        assert (code, out, err) == (
            1, "", f"check failed: {tmp_path / 'doc.json'}: Jacobi fails on "
            "(h,e,f): {1: 2}\n")

    def test_a_lie_algebra_that_breaks_jacobi_exits_1(self, capsys):
        # the derived data of bad_jacobi.json pass the dg checks, but no
        # Lie pair is defined by a bracket that breaks Jacobi
        for command in self.UNDEFINED_TOWER_COMMANDS:
            code, out, err = run(capsys, command, "--input",
                                 str(FIXTURES / "bad_jacobi.json"))
            assert code == 1, command
            assert out == "", command
            assert "check failed" in err, command
            assert "Jacobi fails on (x,y,z)" in err, command

    def test_r2_changed_under_the_homotopy_exits_1(self, capsys, monkeypatch):
        from kapranov import kapranov
        real = kapranov.kapranov_brackets
        towers = []

        def corrupted(conn, *args, **kwargs):
            # scale one R_2 entry of the tower of nabla' = nabla + [d, hat],
            # the second tower homotopy_iso builds
            fam = real(conn, *args, **kwargs)
            towers.append(fam)
            if len(towers) == 2:
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
        from kapranov.kapranov import CheckFailure, kapranov_brackets
        from kapranov.modules import ModuleElement
        from module_tower import (coadjoint_module, cohomology_action,
                                  kapranov_module)
        s = shipped_setup("adjoint_trivial")
        fam = kapranov_brackets(s.connection, max_arity=2)
        coad, conn = coadjoint_module(s, linear_map_data("adjoint_trivial")["lie"])
        mf = kapranov_module(fam, conn, max_arity=2)
        assert cohomology_action(mf).e_reps
        # mu_2 constant at y*, which d does not close
        v = ModuleElement.basis_vector(coad, 1)
        mf.module_tables[2] = {(i, j): v for i in range(fam.module.rank)
                               for j in range(coad.rank)}
        with pytest.raises(CheckFailure, match="action output is not closed"):
            cohomology_action(mf)
        assert not issubclass(CheckFailure, ValueError)

    def test_splitting_homotopy_carries_delta_to_delta_prime(self):
        # the equation the homotopy command checks as offset_matches
        from kapranov.builders import splitting_homotopy
        from kapranov.connections import DeltaConnection
        from kapranov.derivations import DgDerivation, homotopy_offset
        from kapranov.kapranov import homotopy_iso
        s0 = shipped_setup("sl2_borel")
        s1 = shipped_setup("sl2_borel", {0: {1: 1}})
        h = splitting_homotopy(s0, s1)
        dp = homotopy_offset(s0.delta, h)
        assert dp == s1.delta != s0.delta
        _, conn_prime = homotopy_iso(s0.connection, h,
                                     DeltaConnection(h, s0.bmod), max_arity=3)
        assert conn_prime.delta == dp
        # delta' with the value on one generator doubled
        g = next(iter(dp.values))
        bad = DgDerivation(dp.algebra, dp.target,
                           {**dp.values, g: dp.values[g].scale(2)})
        assert dp != bad


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


class TestExitPath:
    """``python -m kapranov.cli`` and the ``kapranov`` script exit through
    ``kapranov.cli.run``, which freezes the heap before the interpreter
    shuts down; in-process callers of ``main`` keep theirs unfrozen."""

    # runs the module as ``python -m`` does, and reports from an atexit
    # hook, which shutdown calls before its collections
    PROBE = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print(f'frozen {gc.get_freeze_count()}',"
             " file=sys.stderr))\n"
             "runpy.run_module('kapranov.cli', run_name='__main__')\n")

    CASES = [
        (["validate", "--input", str(INSTANCES / "abelian_trivial.json")], 0),
        (["validate", "--input", str(FIXTURES / "bad_jacobi.json")], 1),
        (["validate", "--input", "BROKEN"], 2),
        (["validate", "--max-arity", "3"], 2),
    ]

    @staticmethod
    def argv_with(argv, tmp_path):
        """``argv`` with BROKEN replaced by a file that is not JSON."""
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        return [str(broken) if a == "BROKEN" else a for a in argv]

    @pytest.mark.parametrize("argv,code", CASES)
    def test_every_exit_freezes_the_heap(self, tmp_path, argv, code):
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *self.argv_with(argv, tmp_path)],
            env=src_env(), capture_output=True, text=True)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        frozen = proc.stderr.splitlines()[-1]
        assert re.fullmatch(r"frozen [1-9][0-9]*", frozen), proc.stderr

    @pytest.mark.parametrize("argv,code", CASES)
    def test_python_m_matches_main_in_process(self, capsys, tmp_path, argv,
                                              code):
        argv = self.argv_with(argv, tmp_path)
        try:
            got = main(argv)
        except SystemExit as e:
            got = e.code
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "kapranov.cli", *argv],
                              env=src_env(), capture_output=True)
        assert got == proc.returncode == code
        assert proc.stdout == out.encode()

    def test_output_file_is_complete_at_exit(self, capsys, tmp_path):
        argv = ["check-leibniz", "--input", str(INSTANCES / "sl2_borel.json")]
        proc = subprocess.run(
            [sys.executable, "-m", "kapranov.cli", *argv,
             "--output", str(tmp_path / "report.json")],
            env=src_env(), capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert main(argv) == 0
        assert (tmp_path / "report.json").read_text() == capsys.readouterr().out

    def test_main_in_process_leaves_the_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["validate", "--input",
                     str(INSTANCES / "abelian_trivial.json")]) == 0
        with pytest.raises(SystemExit):
            main(["validate"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_installed_script_runs_through_run(self):
        text = (ROOT / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert re.findall(r"^kapranov\s*=\s*(.*)$", scripts, re.M) == [
            '"kapranov.cli:run"']
