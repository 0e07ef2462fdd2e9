import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bendlab.cli import main
from bendlab.fixtures import _read_json


@pytest.fixture()
def fixture_files(tmp_path):
    paths = {}
    for key, name in (("presentation", "borromean_presentation.json"),
                      ("rep", "borromean_representation.json"),
                      ("pants", "borromean_pants.json"),
                      ("pants_trace", "borromean_pants_trace.json"),
                      ("complex", "borromean_complex.json")):
        p = tmp_path / name
        p.write_text(json.dumps(_read_json(name)))
        paths[key] = str(p)
    words = tmp_path / "words.txt"
    words.write_text("x^-1 y\nx z\ny z\nx y z\nx z y\ny z x^-1\n")
    paths["words"] = str(words)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_validate_fixture(capsys, fixture_files):
    code, doc = run(capsys, "validate",
                    "--presentation", fixture_files["presentation"],
                    "--rep", fixture_files["rep"])
    assert code == 0
    assert doc["ok"] is True
    assert all(g["determinant"] == "1" for g in doc["generators"])


def test_validate_defaults_to_bundled(capsys):
    code, doc = run(capsys, "validate")
    assert code == 0 and doc["ok"]


@pytest.mark.parametrize("generators", [5, ["x", ""], "xyz"])
def test_validate_malformed_presentation_is_input_error(tmp_path, generators):
    pres = dict(_read_json("borromean_presentation.json"), generators=generators)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    # a child process with a timeout: an empty name once hung the parser
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "bendlab.cli", "validate",
                           "--presentation", str(path)], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad presentation file")


@pytest.mark.parametrize("rep", [
    {"form": [["1"]], "images": 5},
    [["1", "0"], ["0", "1"]],
    {"form": [["1"]], "images": {"x": 5}},
    {"form": [], "images": {"x": [], "y": [], "z": []}},
    {"form": [["1"]], "images": {"x": [["1"]], "y": [["1"]], "z": [["1"]]}},
])
def test_validate_malformed_representation_is_input_error(tmp_path, rep):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "bendlab.cli", "validate",
                           "--rep", str(path)], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad representation file")


def test_cohomology_r31(capsys, fixture_files, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run(capsys, "cohomology",
                    "--presentation", fixture_files["presentation"],
                    "--rep", fixture_files["rep"],
                    "--coefficients", "r31", "--parabolic", "per-subgroup",
                    "--output", str(out))
    assert code == 0
    assert (doc["dimZ1"], doc["dimB1"], doc["dimH1"], doc["dimPH1"]) == (7, 4, 3, 0)
    assert all(doc["consistency"].values())
    assert json.loads(out.read_text()) == doc


@pytest.mark.parametrize("coeff,h1,ph1", [("nu", 6, 3), ("adjoint", 6, 0)])
def test_cohomology_other_modules(capsys, coeff, h1, ph1):
    code, doc = run(capsys, "cohomology", "--coefficients", coeff,
                    "--parabolic", "per-element")
    assert code == 0
    assert (doc["dimH1"], doc["dimPH1"]) == (h1, ph1)


def test_cohomology_none_mode_has_no_parabolic(capsys):
    code, doc = run(capsys, "cohomology", "--coefficients", "r31",
                    "--parabolic", "none")
    assert code == 0
    assert "dimPH1" not in doc


def test_cohomology_rejects_bad_representation(capsys, fixture_files, tmp_path):
    rep = _read_json("borromean_representation.json")
    rep["images"]["x"][0][0] = "4"
    bad = tmp_path / "bad_rep.json"
    bad.write_text(json.dumps(rep))
    code = main(["cohomology", "--presentation", fixture_files["presentation"],
                 "--rep", str(bad), "--coefficients", "r31"])
    assert code == 2


def test_branched_system_so(capsys, fixture_files):
    code, doc = run(capsys, "branched-system", fixture_files["complex"],
                    "--geometry", "so")
    assert code == 0
    assert doc == {"nullity": 3, "naive_bound": -2,
                   "equal_weights_solve": True, "exact": True}


def test_branched_system_float_tolerance_env(capsys, fixture_files, tmp_path,
                                             monkeypatch):
    cx = {"dimension": 3, "walls": ["a", "b", "c"],
          "bindings": [{"name": "b0", "incidences": [
              {"wall": "a", "angle": {"cos": 1.0, "sin": 0.0}},
              {"wall": "b", "angle": {"cos": -0.5, "sin": 0.8660254037844387}},
              {"wall": "c", "angle": {"cos": -0.5, "sin": -0.8660254037844386}},
          ]}]}
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(cx))
    monkeypatch.setenv("BENDLAB_FLOAT_TOL", "1e-6")
    code, doc = run(capsys, "branched-system", str(path), "--geometry", "so")
    assert code == 0
    assert doc["exact"] is False
    assert doc["rank_tolerance"] == 1e-6
    monkeypatch.setenv("BENDLAB_FLOAT_TOL", "not-a-number")
    assert main(["branched-system", str(path), "--geometry", "so"]) == 2


def test_branched_system_missing_file_is_input_error():
    assert main(["branched-system", "/nonexistent.json",
                 "--geometry", "so"]) == 2


def test_bend_sl(capsys, fixture_files):
    code, doc = run(capsys, "bend",
                    "--presentation", fixture_files["presentation"],
                    "--rep", fixture_files["rep"],
                    "--pants", fixture_files["pants"],
                    "--words", fixture_files["words"],
                    "--geometry", "sl")
    assert code == 0
    assert doc["class_span"] == 6
    assert doc["trace_matrix_rank"] == 5
    assert all(p["valid_first_order"] for p in doc["pants"])
    assert len(doc["pants"][0]["v"]) == 4


def test_bend_trace_variant(capsys, fixture_files):
    code, doc = run(capsys, "bend",
                    "--pants", fixture_files["pants_trace"],
                    "--words", fixture_files["words"],
                    "--geometry", "sl")
    assert code == 0
    assert doc["trace_matrix_rank"] == 6
    valid = [p["valid_first_order"] for p in doc["pants"]]
    assert valid == [False, True, True, False, False, True]


def test_bend_exits_one_when_no_wall_is_valid(capsys, tmp_path):
    invalid = [_read_json("borromean_pants_trace.json")[k] for k in (0, 3, 4)]
    path = tmp_path / "pants.json"
    path.write_text(json.dumps(invalid))
    code, doc = run(capsys, "bend", "--pants", str(path), "--geometry", "sl")
    assert code == 1
    assert [p["valid_first_order"] for p in doc["pants"]] == [False] * 3
    assert doc["class_span"] == 0


def test_bend_so(capsys, fixture_files):
    code, doc = run(capsys, "bend", "--pants", fixture_files["pants"],
                    "--geometry", "so")
    assert code == 0
    assert doc["coefficients"] == "standard"
    assert doc["class_span"] == 2
    assert "trace_derivative_matrix" not in doc
    assert len(doc["pants"][0]["v"]) == 5


def test_borromean_single_module(capsys):
    code, doc = run(capsys, "borromean", "--coefficients", "r31")
    assert code == 0
    by_name = {c["name"]: c for c in doc["checks"]}
    dims = by_name["standard coefficients: cohomology dimensions"]
    assert dims["passed"] and dims["computed"] == {"H1": 3, "PH1": 0}


def test_borromean_full_suite_passes(capsys):
    code, doc = run(capsys, "borromean", "--cases", "10")
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert code == 0 and doc["failed"] == 0, failed


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_borromean_rejects_cases_below_one(capsys, cases):
    assert main(["borromean", "--cases", cases]) == 2
    assert "--cases" in capsys.readouterr().err


def test_borromean_corrupted_relator_aborts(capsys, tmp_path):
    pres = _read_json("borromean_presentation.json")
    pres["relators"][0] = "[x,[y^-1,z]] x"
    bad = tmp_path / "pres.json"
    bad.write_text(json.dumps(pres))
    code = main(["borromean", "--presentation", str(bad)])
    assert code == 2


def test_deterministic_output(capsys):
    _, doc1 = run(capsys, "cohomology", "--coefficients", "r31")
    _, doc2 = run(capsys, "cohomology", "--coefficients", "r31")
    assert json.dumps(doc1) == json.dumps(doc2)


def run_child(*argv, timeout=60):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "bendlab.cli", *argv], timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)


def fixture_complex(**changes):
    return dict(_read_json("borromean_complex.json"), **changes)


def complex_with_angle(angle):
    cx = fixture_complex()
    cx["bindings"][0]["incidences"][1]["angle"] = angle
    return cx


def complex_with_sign(sign):
    cx = fixture_complex()
    cx["bindings"][0]["incidences"][1]["sign"] = sign
    return cx


@pytest.mark.parametrize("data", [
    [1],
    fixture_complex(bindings=5),
    fixture_complex(walls=5),
    fixture_complex(walls=[["w1"]]),
    fixture_complex(bindings=[5]),
    fixture_complex(bindings=[{"name": "A", "incidences": [5]}]),
    complex_with_angle(5),
    complex_with_angle({"cos": "1/0", "sin": "0"}),
    fixture_complex(dimension=3.9),
    fixture_complex(dimension=-7),
    complex_with_sign(1.7),
    complex_with_sign(True),
])
def test_branched_system_malformed_complex_is_input_error(tmp_path, data):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    done = run_child("branched-system", str(path), "--geometry", "so")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad complex file"), done.stderr


NAN_ANGLE = json.dumps(complex_with_angle({"cos": 0.6, "sin": 0.8})).replace("0.6", "NaN")


@pytest.mark.parametrize("text, error", [
    ('{"dimension": Infinity, "walls": [], "bindings": []}', "bad complex file"),
    ('{"dimension": 3, "walls": ["a"], "bindings": [{"name": "A", "incidences": '
     '[{"wall": "a", "angle": "0", "sign": -Infinity}]}]}', "bad complex file"),
    (NAN_ANGLE, "bad complex file"),
    ("[" * 100_000, "is not valid JSON"),
], ids=["infinite-dimension", "infinite-sign", "nan-angle", "deep"])
def test_branched_system_non_finite_or_deep_json_is_input_error(tmp_path, text, error):
    path = tmp_path / "complex.json"
    path.write_text(text)
    done = run_child("branched-system", str(path), "--geometry", "so")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and error in done.stderr, done.stderr


@pytest.mark.parametrize("entry", ["1e10000000", "1E-10000000", "-3.5e+99999"])
def test_huge_exponent_entries_exit_two_without_expanding(tmp_path, entry):
    # Fraction alone spends about 15 s expanding "1e10000000", so the timeout is short
    rep = _read_json("borromean_representation.json")
    rep["images"]["x"][0][0] = entry
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    done = run_child("validate", "--rep", str(path), timeout=10)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad representation file"), done.stderr
    path.write_text(json.dumps(complex_with_angle({"cos": entry, "sin": "0"})))
    done = run_child("branched-system", str(path), "--geometry", "so", timeout=10)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad complex file"), done.stderr


@pytest.mark.parametrize("pants", [
    [1],
    {"subgroup": ["x"], "stable": "y"},
    [{"subgroup": 5, "stable": "y"}],
    [{"subgroup": [5], "stable": "y"}],
    [{"subgroup": ["x"], "stable": ["y"]}],
])
def test_bend_malformed_pants_is_input_error(tmp_path, pants):
    path = tmp_path / "pants.json"
    path.write_text(json.dumps(pants))
    done = run_child("bend", "--pants", str(path), "--geometry", "so")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad pants file"), done.stderr


@pytest.mark.parametrize("line", ["x (", "x^99999999999", "q"])
def test_bend_malformed_words_is_input_error(tmp_path, fixture_files, line):
    words = tmp_path / "words.txt"
    words.write_text(f"x y\n{line}\n")
    done = run_child("bend", "--pants", fixture_files["pants"], "--words", str(words))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad words file"), done.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_branched_system_rejects_non_finite_tolerance(fixture_files, monkeypatch, tol):
    monkeypatch.setenv("BENDLAB_FLOAT_TOL", tol)
    assert main(["branched-system", fixture_files["complex"], "--geometry", "so"]) == 2
