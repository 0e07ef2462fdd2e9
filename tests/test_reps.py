import itertools
import random
from fractions import Fraction

import pytest

from bendlab.acceptance import _conjugator_pool
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
    third = parse_word("[z,[x^-1,y]]", borromean.generators)
    assert rho.evaluate(third) == ident


def test_evaluate_is_homomorphism(rho, borromean):
    rng = random.Random(10)
    gens = borromean.generators
    for _ in range(80):
        u, v = rand_word(rng, gens), rand_word(rng, gens)
        assert rho.evaluate(u * v) == rho.evaluate(u) * rho.evaluate(v)


def test_evaluate_group_ring_linear(rho, borromean):
    one = GroupRingElem.one()
    w = parse_word("x y x^-1", borromean.generators)
    conj = GroupRingElem.from_word(w)
    expect = RationalMatrix.identity(4) - rho.evaluate(w)
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
    bad_relator = parse_word("x y", borromean.generators)
    corrupted = Presentation(borromean.generators, borromean.relators + (bad_relator,),
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_parabolic_squares_ceil_log2_n_times(n, monkeypatch):
    # a unipotent Jordan block, whose m - I has nilpotency index exactly n
    block = RationalMatrix.from_rows([[int(j in (i, i + 1)) for j in range(n)]
                                      for i in range(n)])
    nilpotent = block - RationalMatrix.identity(n)
    powers = [nilpotent]
    while len(powers) < n:
        powers.append(powers[-1] * nilpotent)
    assert not powers[n - 2].is_zero() and powers[n - 1].is_zero()
    products = []
    mul = RationalMatrix.__mul__
    monkeypatch.setattr(RationalMatrix, "__mul__",
                        lambda a, b: products.append(None) or mul(a, b))
    assert is_parabolic(block)
    assert not is_parabolic(block.scale(2))  # m - I = I + 2N is not nilpotent
    assert len(products) == 2 * (n - 1).bit_length()


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


def reference_first_order_evaluate(fo, w):
    """The dual-number loop with every product formed, at every letter."""
    size = fo.base.size
    m = RationalMatrix.identity(size)
    e = RationalMatrix.zeros(size, size)
    for g, exp in w.letters:
        mg = fo.base.image(g, exp)
        eg = fo.derivative[g] if exp == 1 else -(mg * fo.derivative[g] * mg)
        m, e = m * mg, m * eg + e * mg
    return m, e


@pytest.mark.parametrize("ambient", ["sl", "so_ext"])
@pytest.mark.parametrize("conjugated", [False, True], ids=["fixture", "conjugate"])
def test_first_order_matches_the_full_dual_number_loop(rho, borromean, ambient,
                                                       conjugated):
    rep = rho
    if conjugated:  # a Pythagorean boost: letters with denominator 9
        rep = rho.conjugated(RationalMatrix.from_rows(
            [[Fraction(5, 3), Fraction(4, 3), 0, 0], [Fraction(4, 3), Fraction(5, 3), 0, 0],
             [0, 0, 1, 0], [0, 0, 0, 1]]))
    base = rep if ambient == "sl" else rep.embedded_in_extension()
    assert conjugated == any(base.image(g).to_numerators()[1] != 1
                             for g in borromean.generators)
    rng = random.Random(14)
    gens = borromean.generators
    for derived in ((), ("y",), gens):
        fo = FirstOrderRep(base, {g: RationalMatrix(
            base.size, base.size, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(base.size ** 2)]) for g in derived})
        for _ in range(25):
            w = rand_word(rng, gens, 16)
            assert first_order_evaluate(fo, w) == reference_first_order_evaluate(fo, w), w


def test_conjugated_inverts_by_the_form(rho):
    # u^-1 = Q^-1 u^T Q for u preserving Q, equal in lowest terms to the
    # eliminated inverse; the pool's three inverses are the letters' inverses
    pool = _conjugator_pool(rho)
    gens = rho.presentation.generators
    assert pool[len(gens):len(gens) + 3] == [rho.images[g].inverse() for g in gens[:3]]
    for u in pool:
        ui = u.inverse()
        conj = rho.conjugated(u)
        for g, m in rho.images.items():
            assert conj.images[g] == u * m * ui
    with pytest.raises(ValueError, match="a conjugator must preserve the form"):
        rho.conjugated(RationalMatrix.from_rows(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_embedded_extension_preserves_form(rho):
    emb = rho.embedded_in_extension()
    assert emb.size == 5
    assert validate_representation(emb).ok
    assert rho.embedded_in_extension() is emb  # built once per representation


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


def test_conjugated_refuses_a_matrix_that_breaks_the_form(rho):
    shear = RationalMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for u in (shear, RationalMatrix.identity(4).scale(2), RationalMatrix.identity(3)):
        with pytest.raises(ValueError, match="preserve the form"):
            rho.conjugated(u)


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


def test_call_memoizes_whole_short_words_and_matches_a_plain_product(rho, borromean):
    fresh = Representation(borromean, rho.images, rho.form)
    rng = random.Random(26)
    gens = borromean.generators
    w = parse_word("(x y^-1 z)^4", gens)
    assert len(w.letters) == 12
    fresh.evaluate(w)
    assert list(fresh.evaluator._cache) == [w.letters]  # no proper prefix
    words = [rand_word(rng, gens, max_len=30) for _ in range(60)]
    ident = RationalMatrix.identity(fresh.size)
    for v in words + words[::3]:  # a third of them asked for twice
        plain = ident
        for g, e in v.letters:
            plain = plain * rho.image(g, e)
        assert fresh.evaluate(v) == plain, v
    assert any(len(v.letters) > 12 for v in words)
    assert all(len(k) <= 12 for k in fresh.evaluator._cache)
