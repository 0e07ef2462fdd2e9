import itertools
import random
from fractions import Fraction

import pytest

from bendlab.linalg import RationalMatrix
from bendlab.reps import (CACHE_ENTRIES, FirstOrderRep, QuadraticForm, Representation,
                          first_order_evaluate, is_parabolic,
                          validate_representation)
from bendlab.words import GroupRingElem, Presentation, Word, parse_word


def rand_word(rng, gens, max_len=12):
    return Word([(rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len))])


def test_evaluate_empty_word_is_identity(rho):
    assert rho.evaluate(Word.empty()) == RationalMatrix.identity(4)


def test_relators_evaluate_to_identity(rho, borromean):
    ident = RationalMatrix.identity(4)
    for r in borromean.relators:
        assert rho.evaluate(r) == ident
    # the redundant third relation holds as well
    third = borromean.parse("[z,[x^-1,y]]")
    assert rho.evaluate(third) == ident


def test_evaluate_is_homomorphism(rho, borromean):
    rng = random.Random(10)
    gens = borromean.generators
    for _ in range(80):
        u, v = rand_word(rng, gens), rand_word(rng, gens)
        assert rho.evaluate(u * v) == rho.evaluate(u) * rho.evaluate(v)


def test_evaluate_group_ring_linear(rho, borromean):
    one = GroupRingElem.one()
    conj = GroupRingElem.from_word(borromean.parse("x y x^-1"))
    expect = (RationalMatrix.identity(4)
              - rho.evaluate(borromean.parse("x y x^-1")))
    assert rho.evaluate(one - conj) == expect


def test_form_preservation_propagates(rho, borromean):
    rng = random.Random(11)
    q = rho.form.matrix
    for _ in range(40):
        m = rho.evaluate(rand_word(rng, borromean.generators))
        assert m.transpose() * q * m == q


def test_validation_passes_on_fixture(rho):
    report = validate_representation(rho)
    assert report.ok
    assert all(c.determinant == 1 for c in report.generator_checks)


def test_validation_fails_with_wrong_form(rho, borromean):
    euclidean = QuadraticForm(RationalMatrix.identity(4))
    bad = Representation(borromean, rho.images, euclidean)
    report = validate_representation(bad)
    assert not report.ok
    assert not report.generator_checks[0].preserves_form


def test_identity_representation_passes(borromean):
    ident = RationalMatrix.identity(4)
    images = {g: ident for g in borromean.generators}
    rep = Representation(borromean, images,
                         QuadraticForm(RationalMatrix.identity(4)))
    assert validate_representation(rep).ok


def test_validation_reports_corrupted_relator(rho, borromean):
    corrupted = Presentation(borromean.generators,
                             borromean.relators + (borromean.parse("x y"),),
                             borromean.cusps)
    rep = Representation(corrupted, rho.images, rho.form)
    report = validate_representation(rep)
    assert not report.ok
    bad = [c for c in report.relator_checks if not c.is_identity]
    assert len(bad) == 1 and str(bad[0].relator) == "x y"


def test_coboundary_image_membership(rho):
    # b = (I - rho(x)) v lies in the column space of (I - rho(x))
    from bendlab.linalg import in_column_space
    rng = random.Random(23)
    a = RationalMatrix.identity(4) - rho.images["x"]
    for _ in range(10):
        v = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        b = a.matvec(v)
        sol = in_column_space(a, b)
        assert sol is not None and a.matvec(sol) == b


def test_is_parabolic():
    assert not is_parabolic(RationalMatrix.identity(4))
    diag = RationalMatrix.from_rows([[2, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not is_parabolic(diag)
    with pytest.raises(ValueError):
        is_parabolic(RationalMatrix.zeros(2, 3))


def test_meridians_and_longitudes_parabolic(rho, borromean):
    for mu, lam in borromean.cusps:
        assert is_parabolic(rho.evaluate(mu))
        assert is_parabolic(rho.evaluate(lam))
        # each pair commutes
        a, b = rho.evaluate(mu), rho.evaluate(lam)
        assert a * b == b * a


def test_first_order_zero_derivative(rho, borromean):
    fo = FirstOrderRep(rho, {})
    rng = random.Random(12)
    for _ in range(20):
        word = rand_word(rng, borromean.generators)
        m, e = first_order_evaluate(fo, word)
        assert m == rho.evaluate(word)
        assert e.is_zero()


def test_first_order_single_generator(rho):
    v = RationalMatrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0],
                                  [0, 0, 0, 0], [0, 0, 0, 0]])
    fo = FirstOrderRep(rho, {"x": v * rho.images["x"]})
    m, e = first_order_evaluate(fo, Word.generator("x"))
    assert m == rho.images["x"]
    assert e == v * rho.images["x"]


def test_first_order_inverse_rule(rho):
    v = RationalMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 0],
                                  [0, 0, 0, 0], [0, 0, 0, 0]])
    e_x = v * rho.images["x"]
    fo = FirstOrderRep(rho, {"x": e_x})
    m, e = first_order_evaluate(fo, parse_word("x^-1", ("x", "y", "z")))
    mi = rho.images["x"].inverse()
    assert m == mi
    assert e == -(mi * e_x * mi)


def test_first_order_product_rule(rho, borromean):
    rng = random.Random(13)
    v = RationalMatrix.from_rows([[0, 1, 1, 0], [1, 0, 0, 0],
                                  [1, 0, 0, 0], [0, 0, 0, 0]])
    fo = FirstOrderRep(rho, {"y": v * rho.images["y"]})
    for _ in range(30):
        u, w = rand_word(rng, borromean.generators, 6), rand_word(
            rng, borromean.generators, 6)
        mu, eu = first_order_evaluate(fo, u)
        mw, ew = first_order_evaluate(fo, w)
        muw, euw = first_order_evaluate(fo, u * w)
        assert muw == mu * mw
        assert euw == mu * ew + eu * mw


def test_embedded_extension_preserves_form(rho):
    emb = rho.embedded_in_extension()
    assert emb.size == 5
    assert validate_representation(emb).ok


def test_representation_json_roundtrip(rho, borromean):
    doc = rho.to_json()
    again = Representation.from_json(doc, borromean)
    assert again.images == rho.images
    assert again.form.matrix == rho.form.matrix


def test_quadratic_form_requires_symmetric_invertible():
    with pytest.raises(ValueError):
        QuadraticForm(RationalMatrix.from_rows([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        QuadraticForm(RationalMatrix.zeros(2, 2))

    with pytest.raises(ValueError, match="at least 2x2"):
        QuadraticForm(RationalMatrix.identity(1))
    with pytest.raises(ValueError, match="at least 2x2"):
        QuadraticForm(RationalMatrix.zeros(0, 0))


def test_word_cache_stays_within_its_bound(rho, borromean):
    fresh = Representation(borromean, rho.images, rho.form)
    letters = [(g, e) for g in borromean.generators for e in (1, -1)]
    # the distinct reduced words of one to four letters
    words = sorted({Word(p) for k in range(1, 5)
                    for p in itertools.product(letters, repeat=k)} - {Word()}, key=str)
    assert len(words) > 3 * CACHE_ENTRIES
    ident = RationalMatrix.identity(fresh.size)
    for _ in range(2):
        for w in words:
            plain = ident
            for g, e in w.letters:
                plain = plain * rho.image(g, e)
            assert fresh.evaluate(w) == plain
            assert len(fresh.evaluator._cache) <= CACHE_ENTRIES
