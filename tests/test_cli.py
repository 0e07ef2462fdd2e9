import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bendlab.acceptance import _bend
from bendlab.bending import BendingDatum, trace_derivative_matrix
from bendlab.cli import main
from bendlab.fixtures import DATA
from bendlab.linalg import RationalMatrix
from bendlab.words import parse_word

GOLDEN = Path(__file__).resolve().parent / "golden"


def bundled_json(name):
    return json.loads((DATA / name).read_text())


@pytest.fixture()
def fixture_files(tmp_path):
    paths = {}
    for key, name in (("presentation", "borromean_presentation.json"),
                      ("rep", "borromean_representation.json"),
                      ("pants", "borromean_pants.json"),
                      ("pants_trace", "borromean_pants_trace.json"),
                      ("complex", "borromean_complex.json")):
        p = tmp_path / name
        p.write_text(json.dumps(bundled_json(name)))
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


@pytest.mark.parametrize("generators", [5, ["x", ""], "xyz", None])
def test_validate_malformed_presentation_is_input_error(tmp_path, generators):
    pres = dict(bundled_json("borromean_presentation.json"), generators=generators)
    if generators is None:  # no "relators" key
        pres = {"generators": ["x"]}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    # a child process with a timeout: an empty name once hung the parser
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "bendlab.cli", "validate",
                           "--presentation", str(path)], timeout=60,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad presentation file")
    if generators is None:  # named in words, not a bare KeyError repr
        assert done.stderr.rstrip().endswith("missing key 'relators'"), done.stderr


@pytest.mark.parametrize("rep", [
    {"form": [["1"]], "images": 5},
    [["1", "0"], ["0", "1"]],
    {"form": [["1"]], "images": {"x": 5}},
    {"form": [], "images": {"x": [], "y": [], "z": []}},
    {"form": [["1"]], "images": {"x": [["1"]], "y": [["1"]], "z": [["1"]]}},
    {"images": {"x": [["1"]], "y": [["1"]], "z": [["1"]]}},
    dict(bundled_json("borromean_representation.json"),
         images=dict(bundled_json("borromean_representation.json")["images"],
                     w=[["1", "0"], ["0", "1"]])),
    dict(bundled_json("borromean_representation.json"),
         images=dict(bundled_json("borromean_representation.json")["images"],
                     w=[["0"] * 4] * 4)),
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
    if isinstance(rep, dict) and "form" not in rep:  # named, not a KeyError repr
        assert 'needs a "form" matrix' in done.stderr
    images = rep.get("images") if isinstance(rep, dict) else None
    if isinstance(images, dict) and "w" in images:  # not a generator of the presentation
        assert "images for generators the presentation lacks: ['w']" in done.stderr, done.stderr


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
    rep = bundled_json("borromean_representation.json")
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
    invalid = [bundled_json("borromean_pants_trace.json")[k] for k in (0, 3, 4)]
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
    pres = bundled_json("borromean_presentation.json")
    pres["relators"][0] = "[x,[y^-1,z]] x"
    bad = tmp_path / "pres.json"
    bad.write_text(json.dumps(pres))
    code = main(["borromean", "--presentation", str(bad)])
    assert code == 2


def test_deterministic_output(capsys):
    _, doc1 = run(capsys, "cohomology", "--coefficients", "r31")
    _, doc2 = run(capsys, "cohomology", "--coefficients", "r31")
    assert json.dumps(doc1) == json.dumps(doc2)


def run_child(*argv, timeout=60, cwd=None, module="bendlab.cli"):
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", module, *argv], timeout=timeout,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)


def fixture_complex(**changes):
    return dict(bundled_json("borromean_complex.json"), **changes)


def complex_with_angle(angle):
    cx = fixture_complex()
    cx["bindings"][0]["incidences"][1]["angle"] = angle
    return cx


def complex_with_sign(sign):
    cx = fixture_complex()
    cx["bindings"][0]["incidences"][1]["sign"] = sign
    return cx


NO_SIN = complex_with_angle({"cos": "1"})
NO_NAME = fixture_complex(bindings=[{"incidences": [{"wall": "w1", "angle": "0"}]}])


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
    complex_with_angle({"cos": True, "sin": False}),
    complex_with_angle({"cos": "0.6", "sin": 0.8}),
    NO_SIN,
    NO_NAME,
])
def test_branched_system_malformed_complex_is_input_error(tmp_path, data):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    done = run_child("branched-system", str(path), "--geometry", "so")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad complex file"), done.stderr
    if data is NO_SIN or data is NO_NAME:  # named in words, not a bare KeyError repr
        key = "sin" if data is NO_SIN else "name"
        assert done.stderr.rstrip().endswith(f"missing key '{key}'"), done.stderr


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


def test_branched_system_reports_mixed_angles_in_its_document(tmp_path):
    # the library warns; the CLI records the warning in the document and
    # prints nothing on stderr, where Python would name bendlab's own line
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_with_angle({"cos": 0.6, "sin": 0.8})))
    done = run_child("branched-system", str(path), "--geometry", "so")
    assert (done.returncode, done.stderr) == (0, "")
    doc = json.loads(done.stdout)
    assert list(doc)[-1] == "warnings" and not doc["exact"]
    assert doc["warnings"] == ["mixed exact and float angles; falling back to the float backend"]


@pytest.mark.parametrize("entry", ["1e10000000", "1E-10000000", "-3.5e+99999"])
def test_huge_exponent_entries_exit_two_without_expanding(tmp_path, entry):
    # Fraction alone spends about 15 s expanding "1e10000000", so the timeout is short
    rep = bundled_json("borromean_representation.json")
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


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_two_without_a_traceback(tmp_path, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    done = run_child("validate", "--output", str(target))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: cannot write {target}: "), done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == (GOLDEN / "validate.json").read_text()


@pytest.mark.parametrize("pants", [
    [1],
    {"subgroup": ["x"], "stable": "y"},
    [{"subgroup": 5, "stable": "y"}],
    [{"subgroup": [5], "stable": "y"}],
    [{"subgroup": ["x"], "stable": ["y"]}],
    [{"subgroup": ["x"]}],
])
def test_bend_malformed_pants_is_input_error(tmp_path, pants):
    path = tmp_path / "pants.json"
    path.write_text(json.dumps(pants))
    done = run_child("bend", "--pants", str(path), "--geometry", "so")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad pants file"), done.stderr
    if pants == [{"subgroup": ["x"]}]:  # named in words, not a bare KeyError repr
        assert done.stderr.rstrip().endswith("missing key 'stable'"), done.stderr


@pytest.mark.parametrize("line", ["x (", "x^99999999999", "q"])
def test_bend_malformed_words_is_input_error(tmp_path, fixture_files, line):
    words = tmp_path / "words.txt"
    words.write_text(f"x y\n{line}\n")
    done = run_child("bend", "--pants", fixture_files["pants"], "--words", str(words))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: bad words file"), done.stderr


@pytest.mark.parametrize("walls,code", [(["bad", "P_RB"], 0), (["bad"], 1)])
def test_bend_words_skips_a_wall_whose_centralizer_fails(tmp_path, fixture_files,
                                                         bundle, walls, code):
    # "x" alone has a five-dimensional centralizer; the trace matrix gets one
    # column per wall with a bending, and the exit code follows the cocycles
    known = {"bad": {"name": "bad", "subgroup": ["x"], "stable": "y"},
             **{p["name"]: p for p in bundled_json("borromean_pants.json")}}
    path, out = tmp_path / "pants.json", tmp_path / "out.json"
    path.write_text(json.dumps([known[w] for w in walls]))
    done = run_child("bend", "--pants", str(path), "--words", fixture_files["words"],
                     "--output", str(out))
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    doc = json.loads(out.read_text())
    assert doc["pants"][0] == {"name": "bad", "error": "centralizer dimension 5 != 1"}
    with open(fixture_files["words"]) as fh:
        words = [parse_word(ln.strip(), bundle.presentation.generators) for ln in fh]
    data = [BendingDatum.from_json(known[w], bundle.presentation, "sl") for w in walls[1:]]
    want = trace_derivative_matrix(_bend(bundle.representation, data), words)
    assert doc["trace_derivative_matrix"] == want.to_json()
    assert doc["trace_matrix_rank"] == want.rank() == len(data)


def test_bend_so_words_prints_the_zero_trace_matrix():
    # so_ext traces are even in the bending parameter, so their first-order
    # change is zero on every word
    done = run_child("bend", "--geometry", "so", "--pants", str(DATA / "borromean_pants.json"),
                     "--words", str(DATA / "borromean_words.txt"))
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["trace_derivative_matrix"] == [["0"] * 6 for _ in range(6)]
    assert doc["trace_matrix_rank"] == 0


def test_bend_with_an_empty_words_file_keeps_the_trace_keys(tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("")
    done = run_child("bend", "--geometry", "sl", "--pants", str(DATA / "borromean_pants.json"),
                     "--words", str(words))
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["trace_derivative_matrix"] == []
    assert doc["trace_matrix_rank"] == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_branched_system_rejects_non_finite_tolerance(fixture_files, monkeypatch, tol):
    monkeypatch.setenv("BENDLAB_FLOAT_TOL", tol)
    assert main(["branched-system", fixture_files["complex"], "--geometry", "so"]) == 2


def write_json(path, document):
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("geometry", ["sl", "so"])
@pytest.mark.parametrize("stable", ["x y", "x^-1", "1"])
def test_bend_stable_letter_not_one_generator_is_input_error(tmp_path, geometry, stable):
    pants = bundled_json("borromean_pants.json")
    pants[0]["stable"] = stable
    done = run_child("bend", "--pants", write_json(tmp_path / "pants.json", pants),
                     "--geometry", geometry)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: bad pants file"), done.stderr


@pytest.mark.parametrize("mode,code", [("per-subgroup", 2), ("per-element", 0)])
def test_cohomology_without_cusps(tmp_path, mode, code):
    pres = bundled_json("borromean_presentation.json")
    del pres["cusps"]
    done = run_child("cohomology", "--presentation",
                     write_json(tmp_path / "pres.json", pres), "--parabolic", mode)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        assert "--parabolic none|per-element" in done.stderr, done.stderr


@pytest.mark.parametrize("geometry", ["sl", "so"])
def test_bend_rejects_a_representation_that_breaks_its_form(tmp_path, fixture_files,
                                                            geometry):
    rep = bundled_json("borromean_representation.json")
    rep["form"][0][0] = "2"  # the images preserve diag(-1, 1, 1, 1), not diag(2, 1, 1, 1)
    done = run_child("bend", "--rep", write_json(tmp_path / "rep.json", rep),
                     "--pants", fixture_files["pants"], "--geometry", geometry)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: representation failed validation"), done.stderr


def test_borromean_runs_the_suite_on_its_override(tmp_path, bundle):
    boost = RationalMatrix.from_rows([
        [Fraction(5, 3), Fraction(4, 3), 0, 0], [Fraction(4, 3), Fraction(5, 3), 0, 0],
        [0, 0, 1, 0], [0, 0, 0, 1]])
    rep = bundle.representation.conjugated(boost).to_json()
    out = tmp_path / "out.json"
    done = run_child("borromean", "--rep", write_json(tmp_path / "rep.json", rep),
                     "--cases", "2", "--output", str(out))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    assert doc["failed"] == 0 and doc["passed"] == len(doc["checks"]) == 21
    standard = next(c for c in doc["checks"] if c["name"] == "six standard cocycles: class span")
    # the conjugate's coboundary preimages; the bundled fixture's first is (-1/2, 0, 0, -1/2)
    assert standard["computed"]["relations"]["RG+GR"] == ["-5/6", "-2/3", "0", "-1/2"]


def test_borromean_override_that_cannot_parse_the_walls_is_input_error(tmp_path):
    rename = str.maketrans("xyz", "abc")
    pres = json.loads(json.dumps(bundled_json("borromean_presentation.json")).translate(rename))
    rep = bundled_json("borromean_representation.json")
    rep["images"] = {g.translate(rename): m for g, m in rep["images"].items()}
    done = run_child("borromean", "--presentation", write_json(tmp_path / "pres.json", pres),
                     "--rep", write_json(tmp_path / "rep.json", rep), "--cases", "2")
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: the fixture override does not cover"), done.stderr


def test_borromean_override_without_wall_centralizers_fails_its_checks(tmp_path):
    # the trivial representation is valid, but every wall centralizes all of sl(4)
    rep = bundled_json("borromean_representation.json")
    identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    rep["images"] = {g: identity for g in rep["images"]}
    out = tmp_path / "out.json"
    done = run_child("borromean", "--rep", write_json(tmp_path / "rep.json", rep),
                     "--cases", "2", "--output", str(out))
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    errors = {c["name"]: c["computed"] for c in json.loads(out.read_text())["checks"]
              if c["id"] == "-"}
    assert errors["check_nu_class_span"] == "centralizer dimension 15 != 1"


def test_bundled_defaults_follow_the_same_path_as_an_explicit_rep(tmp_path):
    # a relator the bundled representation does not kill: validate prints its
    # report and exits 1 whether the representation is named or omitted
    pres = bundled_json("borromean_presentation.json")
    pres["relators"][0] = "[x,[y^-1,z]] x"
    path = write_json(tmp_path / "pres.json", pres)
    omitted = run_child("validate", "--presentation", path)
    named = run_child("validate", "--presentation", path,
                      "--rep", str(DATA / "borromean_representation.json"))
    assert omitted.returncode == named.returncode == 1, omitted.stderr
    assert omitted.stdout == named.stdout
    assert json.loads(omitted.stdout)["ok"] is False
    done = run_child("cohomology", "--presentation", path)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: representation failed validation"), done.stderr


BUNDLED_INPUTS = ["--presentation", str(DATA / "borromean_presentation.json"),
                  "--rep", str(DATA / "borromean_representation.json")]
WALLS = ["--pants", str(DATA / "borromean_pants.json"),
         "--words", str(DATA / "borromean_words.txt")]


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["cohomology", "--coefficients", "r31"],
    ["cohomology", "--coefficients", "nu"],
    ["cohomology", "--coefficients", "adjoint"],
    ["bend", "--geometry", "sl", *WALLS],
    ["bend", "--geometry", "so", *WALLS],
    ["borromean", "--cases", "2"],
], ids=["validate", "r31", "nu", "adjoint", "bend-sl", "bend-so", "borromean"])
def test_omitted_inputs_read_as_the_bundled_paths(capsys, argv):
    omitted = main(argv)
    out = capsys.readouterr().out
    assert main(argv + BUNDLED_INPUTS) == omitted == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [["validate"], ["borromean", "--cases", "2"]])
def test_bundled_inputs_are_found_outside_the_checkout(tmp_path, argv):
    done = run_child(*argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr


def test_python_dash_m_bendlab_is_the_cli(tmp_path):
    package = run_child("validate", cwd=tmp_path, module="bendlab")
    assert package.returncode == 0, package.stderr
    assert package.stdout == run_child("validate", cwd=tmp_path).stdout


# the named angles as exact decimal text, which the reader hands to Fraction(str)
DECIMAL_ANGLES = {"0": {"cos": "1e0", "sin": "0.0"}, "pi/2": {"cos": "0.0", "sin": "1e0"},
                  "pi": {"cos": "-1.0", "sin": "0e0"}, "3pi/2": {"cos": "-0.0", "sin": "-1E0"}}


@pytest.mark.parametrize("geometry", ["so", "sl"])
def test_branched_system_reads_decimal_angles_as_the_named_ones(tmp_path, fixture_files,
                                                               geometry):
    cx = fixture_complex()
    for binding in cx["bindings"]:
        for inc in binding["incidences"]:
            inc["angle"] = DECIMAL_ANGLES[inc["angle"]]
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(cx))
    named = run_child("branched-system", fixture_files["complex"], "--geometry", geometry)
    decimal = run_child("branched-system", str(path), "--geometry", geometry)
    assert named.returncode == decimal.returncode == 0, decimal.stderr
    doc = json.loads(decimal.stdout)
    assert doc == json.loads(named.stdout) and doc["exact"] is True
