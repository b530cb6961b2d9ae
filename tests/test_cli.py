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
