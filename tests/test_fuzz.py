"""Property fuzzing of the input surface: the word parser returns a freely
reduced word or raises ``WordError``, and each input reader behind the CLI
(the presentation, representation, complex and pants files) either returns or
raises ``InputError``, which the CLI turns into exit 2 with a message of at
most ``ERROR_LINE_BYTES``, however long the input it quotes. None lets another
exception out, and each example runs within a time bound. The
``bend`` and ``cohomology`` commands are fuzzed whole as well, since a reader
can accept a document that the command rejects later: each returns 0, 1 or 2.

The runs are derandomized so the suite is reproducible; the strategies mix
arbitrary JSON values with documents of the right outline, so that checks
deep inside each reader are reached as well as the outer shape checks.
"""

import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bendlab import cli, fixtures
from bendlab.words import MAX_WORD_LETTERS, Word, WordError, parse_word
from helpers import ERROR_LINE_BYTES, bundled_json

GENS = ("x", "y", "z")
PRESENTATION = fixtures.load_presentation()
FUZZ = settings(max_examples=120, deadline=timedelta(seconds=5), derandomize=True,
                database=None)


# words from the grammar, with exponents of up to ten digits and nested brackets
grammar_words = st.recursive(
    st.sampled_from(["x", "y^-1", "z", "1"]),
    lambda inner: st.builds("({})^{}".format, inner, st.integers(-10 ** 9, 10 ** 9))
    | st.builds("[{},{}]".format, inner, inner)
    | st.builds("{} {}".format, inner, inner), max_leaves=12)
# long runs of one token, which a message must not quote whole
long_text = st.builds(str.__mul__, st.sampled_from(["x", "y^-1 ", "9", "q"]),
                      st.integers(81, 2000))
word_text = (grammar_words | st.text(alphabet="xyz()[]^,-0123456789 *1\t", max_size=40)
             | st.text(max_size=12) | long_text)
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | word_text
           | st.sampled_from(["0", "1/0", "3/5", "4/5", "-1", "pi/2", "1e3"]))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)


def either(outline):
    return outline | json_values


def load(loader, document, *args):
    """Write ``document`` as JSON and run ``loader(*args, path=path)``: its
    result, or None when it raised ``InputError`` with a bounded message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(document))
        try:
            return loader(*args, path=str(path))
        except cli.InputError as exc:
            assert len(f"error: {exc}\n".encode()) <= ERROR_LINE_BYTES, exc
            return None


@FUZZ
@given(word_text)
def test_parse_word_returns_a_word_or_raises_word_error(text):
    try:
        w = parse_word(text, GENS)
    except WordError:
        return
    assert isinstance(w, Word) and len(w) <= MAX_WORD_LETTERS
    assert parse_word(str(w), GENS) == w


presentations = either(st.fixed_dictionaries({
    "generators": either(st.just(list(GENS))),
    "relators": either(st.lists(word_text, max_size=3)) | grammar_words,
    "cusps": either(st.lists(either(st.fixed_dictionaries(
        {"meridian": word_text, "longitude": word_text})), max_size=3)),
}))


@FUZZ
@given(presentations)
def test_presentation_loader_returns_or_raises_input_error(document):
    # only a document of the right outline loads
    if load(fixtures.load_presentation, document) is not None:
        assert isinstance(document, dict) and isinstance(document["relators"], list)
        cusps = document.get("cusps", [])
        assert isinstance(cusps, list) and all(isinstance(c, dict) for c in cusps)


entries = st.sampled_from(["0", "1", "-1", "1/2", "3/5", "1/0"]) | json_values
BUNDLED_REP = bundled_json("borromean_representation.json")
representations = either(st.fixed_dictionaries({
    "form": either(st.just(BUNDLED_REP["form"])),
    "images": either(st.dictionaries(st.sampled_from(GENS), either(
        st.lists(st.lists(entries, min_size=4, max_size=4), min_size=4, max_size=4)),
        max_size=3)),
})) | st.builds(  # the bundled images, one a permutation with rows as strings of digits
    lambda g, rows: dict(BUNDLED_REP, images=dict(BUNDLED_REP["images"], **{g: rows})),
    st.sampled_from(GENS), st.permutations(["1000", "0100", "0010", "0001"]))


@FUZZ
@given(representations)
def test_representation_loader_returns_or_raises_input_error(document):
    # only a document of the right outline loads: every matrix a list of lists
    if load(fixtures.load_representation, document, PRESENTATION) is not None:
        for m in [document["form"], *document["images"].values()]:
            assert isinstance(m, list) and all(isinstance(row, list) for row in m)


walls = st.sampled_from(["w1", "w2", "w3"])
angles = either(st.sampled_from(["0", "pi/2", "pi", "3pi/2", "tau"])
                | st.fixed_dictionaries({"cos": scalars, "sin": scalars}))
incidences = either(st.fixed_dictionaries(
    {"wall": either(walls), "angle": angles},
    optional={"sign": either(st.sampled_from([1, -1]))}))
complexes = either(st.fixed_dictionaries({
    "dimension": either(st.integers(2, 4)),
    "walls": either(st.lists(walls, unique=True, max_size=3)),
    "bindings": either(st.lists(either(st.fixed_dictionaries(
        {"name": scalars, "incidences": either(st.lists(incidences, max_size=3))})),
        max_size=3)),
}))


@FUZZ
@given(complexes)
def test_complex_loader_returns_or_raises_input_error(document):
    cx = load(fixtures.load_complex, document)
    # a loaded complex holds JSON integers only: no truncated float, no bool
    if cx is not None:
        assert type(cx.dimension) is int and cx.dimension >= 2
        assert all(type(i.sign) is int and i.sign in (1, -1)
                   for b in cx.bindings for i in b.incidences)


pants = either(st.lists(either(st.fixed_dictionaries(
    {"subgroup": either(st.lists(word_text, max_size=3)), "stable": either(word_text)},
    optional={"name": scalars})), max_size=2))


@FUZZ
@given(pants, st.sampled_from(["sl", "so_ext"]))
def test_pants_loader_returns_or_raises_input_error(document, geometry):
    load(fixtures.load_pants, document, PRESENTATION, geometry)


# documents that reach the computation: the fixture's wall subgroups and
# relators, with stable letters and cusps from the word grammar
command_pants = pants | st.lists(st.fixed_dictionaries({
    "subgroup": st.sampled_from([w["subgroup"] for w in bundled_json("borromean_pants.json")]),
    "stable": word_text}), min_size=1, max_size=2)
command_presentations = presentations | st.fixed_dictionaries(
    {"generators": st.just(list(GENS)),
     "relators": st.just(bundled_json("borromean_presentation.json")["relators"])},
    optional={"cusps": st.lists(st.fixed_dictionaries(
        {"meridian": word_text, "longitude": word_text}), max_size=3)})


@FUZZ
@given(command_pants, st.sampled_from(["sl", "so"]))
def test_bend_command_exits_zero_one_or_two(document, geometry):
    def bend(path):
        return cli.main(["bend", "--pants", path, "--geometry", geometry])
    assert load(bend, document) in (0, 1, 2)


@FUZZ
@given(command_presentations, st.sampled_from(["per-subgroup", "per-element", "none"]))
def test_cohomology_command_exits_zero_one_or_two(document, mode):
    def cohomology(path):
        return cli.main(["cohomology", "--presentation", path, "--parabolic", mode])
    assert load(cohomology, document) in (0, 1, 2)
