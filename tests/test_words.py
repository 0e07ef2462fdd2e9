import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendlab.words import (MAX_WORD_LETTERS, GroupRingElem, Presentation, Word,
                           WordError, fox_derivative, parse_word)

GENS = ("x", "y", "z")


def w(text):
    return parse_word(text, GENS)


def test_parse_simple():
    assert w("x^-1 y").letters == (("x", -1), ("y", 1))


def test_parse_commutator():
    assert w("[x,y]").letters == (("x", 1), ("y", 1), ("x", -1), ("y", -1))


def test_parse_nested_commutator():
    expect = (("x", 1), ("y", -1), ("z", 1), ("y", 1), ("z", -1),
              ("x", -1), ("z", 1), ("y", -1), ("z", -1), ("y", 1))
    assert w("[x,[y^-1,z]]").letters == expect


def test_parse_powers_and_parens():
    assert w("x^3").letters == (("x", 1),) * 3
    assert w("(x y)^2") == w("x y x y")
    assert w("x^0") == Word.empty()
    assert w("(x y)^0") == Word.empty()
    assert w("x^-2") == w("x^-1 x^-1")


def test_parse_star_separator():
    assert w("x*y") == w("x y")


def test_parse_unknown_generator():
    with pytest.raises(WordError):
        w("x q")


def test_parse_malformed():
    with pytest.raises(WordError):
        w("[x,y")
    with pytest.raises(WordError):
        w("x^")
    with pytest.raises(WordError):
        w("x)")


def test_parse_rejects_bad_generator_names():
    for gens in (["x", "x y"], ["x", "1"], ["x", "(y)"], ["x", "y^"], ["x", 5],
                 ["x", "x"], "xyz", 5):
        with pytest.raises(WordError):
            parse_word("x", gens)


def test_empty_generator_name_is_rejected_without_hanging():
    # at one time the parser looped forever on an empty name, so the check
    # runs in a child process that a timeout can end
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from bendlab.words import WordError, parse_word\n"
            "try:\n    parse_word('x y', ['', 'x'])\n"
            "except WordError:\n    raise SystemExit(3)\n")
    done = subprocess.run([sys.executable, "-c", code], timeout=30,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    assert done.returncode == 3, done.stderr


def test_power_is_linear_and_reduces_at_seams():
    assert len(w("(x y)^8000")) == 16000
    assert w("(x y x^-1)^3") == w("x y^3 x^-1")
    assert w("(x y x^-1)^-2") == w("x y^-2 x^-1")


def test_parse_is_linear_in_the_text():
    # 16,000 one-letter terms took 51 s when each term rebuilt the whole word
    start = time.perf_counter()
    word = w("x y " * 20_000 + "(y^-1 x^-1)^20000")
    elapsed = time.perf_counter() - start
    assert word == Word.empty()
    assert elapsed < 2.0, f"{elapsed:.2f} s"


@pytest.mark.parametrize("text", [
    "x^99999999999", "x^" + "9" * 5000, f"(x y)^{MAX_WORD_LETTERS // 2 + 1}",
    f"[x^{MAX_WORD_LETTERS // 2}, y]", "[" * 20 + "x,y]" + ",y]" * 19,
    f"x^{MAX_WORD_LETTERS} y", "[x^50000, y^50000]",
], ids=["eleven-digit-power", "long-digit-run", "long-power", "long-commutator",
        "nested-commutators", "long-product", "reduced-parts-long-commutator"])
def test_parse_rejects_words_past_the_letter_bound(text):
    start = time.perf_counter()
    with pytest.raises(WordError):
        w(text)
    assert time.perf_counter() - start < 2.0
    assert len(w(f"x^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    assert len(w("(x x^-1)^60000")) == 0  # the group is reduced before the power


def test_parse_rejects_deep_brackets_and_non_strings():
    with pytest.raises(WordError, match="nested too deeply"):
        w("(" * 5000 + "x" + ")" * 5000)
    for text in (5, None, ["x"], b"x"):
        with pytest.raises(WordError):
            w(text)


def test_multicharacter_generators():
    word = parse_word("w1 w10^-1", ("w1", "w10"))
    assert word.letters == (("w1", 1), ("w10", -1))


def test_free_reduction():
    assert w("x x^-1") == Word.empty()
    assert w("x y y^-1 x") == w("x x")


def test_print_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        letters = [(rng.choice(GENS), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 20))]
        word = Word(letters)
        assert w(str(word)) == word


@given(st.lists(st.tuples(st.sampled_from(GENS), st.sampled_from((1, -1))),
                max_size=30))
@settings(max_examples=200, deadline=None)
def test_reduction_idempotent(letters):
    word = Word(letters)
    assert Word(word.letters) == word
    assert (word * word.inverse()) == Word.empty()


def test_reduction_order_independent():
    # reduce in two passes from different ends; result must agree
    rng = random.Random(6)
    for _ in range(100):
        letters = [(rng.choice(GENS), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 24))]
        forward = Word(letters)
        backward = Word(tuple(reversed([(g, -e) for g, e in letters]))).inverse()
        assert forward == backward


def rand_word(rng, max_len=30):
    return Word([(rng.choice(GENS), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len))])


def test_fox_derivative_basics():
    one = GroupRingElem.one()
    assert fox_derivative(w("x"), "x") == one
    assert fox_derivative(w("x"), "y") == GroupRingElem.zero()
    assert fox_derivative(w("x y"), "y") == GroupRingElem.from_word(w("x"))
    assert (fox_derivative(w("x^-1"), "x")
            == GroupRingElem.from_word(w("x^-1"), -1))


def test_group_ring_coefficients_must_be_integral():
    x, xx = w("x"), w("x^2")
    kept = GroupRingElem({x: Fraction(4, 2), xx: 3.0, Word.empty(): True})
    assert kept.terms == {x: 2, xx: 3, Word.empty(): 1}
    assert all(type(c) is int for c in kept.terms.values())
    for bad in (Fraction(1, 2), 2.7, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GroupRingElem({x: bad})


def test_fox_derivative_commutator():
    expect = GroupRingElem.one() - GroupRingElem.from_word(w("x y x^-1"))
    assert fox_derivative(w("[x,y]"), "x") == expect


def fundamental_identity_holds(word):
    one = GroupRingElem.one()
    total = GroupRingElem.zero()
    for g in GENS:
        gi = GroupRingElem.from_word(Word.generator(g)) - one
        total = total + fox_derivative(word, g) * gi
    return total == GroupRingElem.from_word(word) - one


def test_fox_fundamental_identity_on_relators(borromean):
    for r in borromean.relators:
        assert fundamental_identity_holds(r)


def test_fox_fundamental_identity_randomized():
    rng = random.Random(7)
    for _ in range(300):
        assert fundamental_identity_holds(rand_word(rng))


def test_fox_inverse_formula_randomized():
    rng = random.Random(8)
    for _ in range(150):
        word = rand_word(rng, 20)
        for g in GENS:
            lhs = fox_derivative(word.inverse(), g)
            rhs = -(GroupRingElem.from_word(word.inverse()) * fox_derivative(word, g))
            assert lhs == rhs


def product_rule_walk(word, gen):
    """The Fox derivative by its definition: grow the prefix one letter at a
    time with Word products (quadratic, so only for short words)."""
    terms = {}
    prefix = Word.empty()
    for g, e in word.letters:
        if g == gen:
            t = prefix if e == 1 else prefix * Word(((g, -1),))
            terms[t] = terms.get(t, 0) + e
        prefix = prefix * Word(((g, e),))
    return GroupRingElem(terms)


def test_fox_derivative_matches_product_rule_walk():
    rng = random.Random(10)
    for _ in range(200):
        word = rand_word(rng, 40)
        for g in GENS:
            assert fox_derivative(word, g) == product_rule_walk(word, g), (word, g)


def test_fox_derivative_of_a_long_word_is_fast():
    # 4,000 letters took 3.4 s when every step rebuilt the prefix word
    rng = random.Random(11)
    letters = []
    while len(letters) < 4000:
        letters = list(Word(letters + [(rng.choice(GENS), rng.choice((1, -1)))
                                       for _ in range(500)]).letters)
    word = Word(letters[:4000])
    start = time.perf_counter()
    d = fox_derivative(word, "x")
    elapsed = time.perf_counter() - start
    assert len(d.terms) == sum(1 for g, _ in word.letters if g == "x")
    assert elapsed < 1.5, f"{elapsed:.2f} s"


def test_group_ring_associative_distributive():
    rng = random.Random(9)
    for _ in range(60):
        a, b, c = (GroupRingElem({rand_word(rng, 6): rng.randint(-3, 3),
                                  rand_word(rng, 6): rng.randint(-3, 3)})
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_presentation_validation():
    with pytest.raises(WordError):
        Presentation(("x", "x"), ())
    with pytest.raises(WordError):
        Presentation(("x",), (Word((("y", 1),)),))
    with pytest.raises(WordError):
        Presentation(("x", ""), ())
    with pytest.raises(WordError):
        Presentation.from_json({"generators": 5, "relators": []})


def test_presentation_json_roundtrip(borromean):
    again = Presentation.from_json(borromean.to_json())
    assert again == borromean
    assert len(again.relators) == 2
    assert len(again.cusps) == 3
