import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bendlab.acceptance import _conjugator_pool
from bendlab.bending import (BendingDatum, CentralizerError, centralizer_generator,
                             char_poly, hnn_first_order,
                             match_up_to_column_signs_and_scale, tangent_cocycle,
                             trace_derivative_matrix)
from bendlab.cohomology import class_span_dim, is_cuspidal
from bendlab.fixtures import load_pants
from bendlab.linalg import RationalMatrix, rref_rank
from bendlab.reps import _with_unit, first_order_evaluate
from bendlab.words import Word


@pytest.fixture(scope="module")
def sl_generators(bundle):
    return {d.name: centralizer_generator(bundle.representation, d)
            for d in bundle.pants}


@pytest.fixture(scope="module")
def so_pants(bundle):
    return [replace(d, geometry="so_ext") for d in bundle.pants]


@pytest.fixture(scope="module")
def so_generators(bundle, so_pants):
    return {d.name: centralizer_generator(bundle.representation, d)
            for d in so_pants}


def test_char_poly_of_diagonal():
    m = RationalMatrix.from_rows([[-3, 0], [0, 1]])
    # (x+3)(x-1) = x^2 + 2x - 3
    assert char_poly(m) == [Fraction(1), Fraction(2), Fraction(-3)]


def test_sl_centralizers_normalized(bundle, sl_generators):
    expect = [Fraction(1), Fraction(0), Fraction(-6), Fraction(8), Fraction(-3)]
    for datum in bundle.pants:
        v = sl_generators[datum.name].v
        assert v.trace() == 0
        # (x+3)(x-1)^3 = x^4 - 6x^2 + 8x - 3
        assert char_poly(v) == expect
        ident = RationalMatrix.identity(4)
        assert ((v + ident.scale(3)) * (v - ident)).is_zero()
        for w in datum.subgroup:
            m = bundle.representation.evaluate(w)
            assert v * m == m * v


def test_so_centralizers_normalized(bundle, so_pants, so_generators):
    emb = bundle.representation.embedded_in_extension()
    for datum in so_pants:
        v = so_generators[datum.name].v
        assert (v * v * v + v).is_zero()
        assert not v.is_zero()
        assert rref_rank(v)[1] == 2
        q5 = emb.form.matrix
        assert (v.transpose() * q5 + q5 * v).is_zero()
        for w in datum.subgroup:
            m = emb.evaluate(w)
            assert v * m == m * v
        first = next(x for x in [v[i, j] for i in range(5) for j in range(5)]
                     if x != 0)
        assert first > 0


def test_sl_centralizer_golden_value(bundle, sl_generators):
    # frozen from an independent elimination over the same wall subgroup
    expect = RationalMatrix.from_rows([
        [5, 0, 4, -4], [0, 1, 0, 0], [-4, 0, -3, 4], [4, 0, 4, -3]])
    assert sl_generators["P_RB"].v == expect


def test_so_centralizer_golden_value(so_generators):
    expect = RationalMatrix.from_rows([
        [0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1], [1, 0, 1, -1, 0]])
    assert so_generators["P_RB"].v == expect


def test_empty_subgroup_overcounts(bundle):
    # the whole ambient algebra sl(4)
    datum = BendingDatum("none", (), Word.generator("x"), "sl")
    with pytest.raises(CentralizerError) as err:
        centralizer_generator(bundle.representation, datum)
    assert err.value.found_dim == 15


def test_empty_subgroup_overcounts_so_ext(bundle):
    # the whole ambient algebra so(Q + 1), of dimension 10
    datum = BendingDatum("none", (), Word.generator("x"), "so_ext")
    with pytest.raises(CentralizerError) as err:
        centralizer_generator(bundle.representation, datum)
    assert err.value.found_dim == 10


@pytest.mark.parametrize("geometry", ["sl", "so_ext"])
@pytest.mark.parametrize("trace_variant", [False, True], ids=["pants", "pants_trace"])
def test_centralizers_follow_conjugation(bundle, geometry, trace_variant):
    # the conjugators (the Pythagorean boost among them) move the wall
    # matrices away from the fixture's entry heights
    rep = bundle.representation
    walls = load_pants(bundle.presentation, geometry, trace_variant)
    for u in _conjugator_pool(rep):
        big = u if geometry == "sl" else _with_unit(u)
        conj = rep.conjugated(u)
        for datum in walls:
            moved = big * centralizer_generator(rep, datum).v * big.inverse()
            got = centralizer_generator(conj, datum).v
            assert got == moved if geometry == "sl" else got in (moved, -moved)


def test_full_group_has_no_centralizer(bundle, borromean):
    datum = BendingDatum("all", tuple(Word.generator(g) for g in borromean.generators),
                         Word.generator("x"), "sl")
    with pytest.raises(CentralizerError) as err:
        centralizer_generator(bundle.representation, datum)
    assert err.value.found_dim == 0


def test_stable_letter_must_be_generator(bundle, sl_generators):
    datum = bundle.pants[0]
    bad = replace(datum, stable_letter=datum.stable_letter * Word.generator("y"))
    with pytest.raises(ValueError):
        hnn_first_order(bundle.representation, bad, sl_generators[datum.name])


def test_hnn_derivative_structure(bundle, sl_generators):
    datum = bundle.pants[0]
    v = sl_generators[datum.name]
    fo = hnn_first_order(bundle.representation, datum, v)
    stable = datum.stable_letter.letters[0][0]
    for g in bundle.presentation.generators:
        if g == stable:
            assert fo.derivative[g] == v.v * bundle.representation.images[g]
        else:
            assert fo.derivative[g].is_zero()


@pytest.mark.parametrize("geometry", ["sl", "so_ext"])
def test_relator_derivatives_vanish(bundle, sl_generators, so_generators,
                                    geometry):
    gens = sl_generators if geometry == "sl" else so_generators
    for datum in bundle.pants:
        datum = replace(datum, geometry=geometry)
        fo = hnn_first_order(bundle.representation, datum, gens[datum.name])
        for r in bundle.presentation.relators:
            m, e = first_order_evaluate(fo, r)
            assert m == RationalMatrix.identity(fo.base.size)
            assert e.is_zero()


def test_relator_derivatives_vanish_on_normal_closure(bundle, sl_generators):
    rng = random.Random(21)
    gens = bundle.presentation.generators
    for _ in range(50):
        datum = rng.choice(bundle.pants)
        fo = hnn_first_order(bundle.representation, datum,
                             sl_generators[datum.name])
        u = Word([(rng.choice(gens), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 4))])
        r = rng.choice(bundle.presentation.relators)
        _, e = first_order_evaluate(fo, u * r * u.inverse())
        assert e.is_zero()


def test_zero_generator_gives_zero_cocycle(bundle, modules, sl_generators):
    datum = bundle.pants[0]
    zero = replace(sl_generators[datum.name],
                   v=RationalMatrix.zeros(4, 4))
    fo = hnn_first_order(bundle.representation, datum, zero)
    c = tangent_cocycle(fo, modules["nu"])
    assert all(x == 0 for x in c)


def nu_cocycles(bundle, modules, sl_generators):
    out = []
    for datum in bundle.pants:
        fo = hnn_first_order(bundle.representation, datum,
                             sl_generators[datum.name])
        out.append(tangent_cocycle(fo, modules["nu"]))
    return out


def std_cocycles(bundle, modules, so_pants, so_generators):
    out = []
    for datum in so_pants:
        fo = hnn_first_order(bundle.representation, datum,
                             so_generators[datum.name])
        out.append(tangent_cocycle(fo, modules["standard"]))
    return out


def test_nu_cocycles_in_kernel_with_span_six(bundle, modules, spaces,
                                             sl_generators):
    cocycles = nu_cocycles(bundle, modules, sl_generators)
    space = spaces["nu"]
    for c in cocycles:
        assert space.is_cocycle(c)
    assert class_span_dim(space, cocycles) == 6


def test_std_cocycles_in_kernel(bundle, modules, spaces, so_pants,
                                so_generators):
    cocycles = std_cocycles(bundle, modules, so_pants, so_generators)
    space = spaces["standard"]
    for c in cocycles:
        assert space.is_cocycle(c)


def test_std_cocycle_class_span_measures_two(bundle, modules, spaces, so_pants,
                                             so_generators):
    # the six single-wall classes satisfy exact relations; their span in the
    # 3-dimensional H^1 is 2 (the full space needs branched weights, compare
    # the four-wall complex whose system has nullity 3)
    cocycles = std_cocycles(bundle, modules, so_pants, so_generators)
    assert class_span_dim(spaces["standard"], cocycles) == 2


def test_module_geometry_mismatch_rejected(bundle, modules, sl_generators):
    datum = bundle.pants[0]
    fo = hnn_first_order(bundle.representation, datum, sl_generators[datum.name])
    with pytest.raises(ValueError):
        tangent_cocycle(fo, modules["standard"])
    with pytest.raises(ValueError):
        tangent_cocycle(fo, modules["adjoint"])


def test_beta_combinations_cuspidal_span_three(bundle, modules, spaces,
                                               sl_generators):
    cocycles = nu_cocycles(bundle, modules, sl_generators)
    betas = [tuple(a - b for a, b in zip(cocycles[0], cocycles[1])),
             tuple(a - b for a, b in zip(cocycles[2], cocycles[3])),
             tuple(a - b for a, b in zip(cocycles[4], cocycles[5]))]
    space = spaces["nu"]
    for beta in betas:
        assert is_cuspidal(space, beta)
    assert class_span_dim(space, betas) == 3


def test_individual_nu_cocycles_not_cuspidal(bundle, modules, spaces,
                                             sl_generators):
    cocycles = nu_cocycles(bundle, modules, sl_generators)
    space = spaces["nu"]
    assert not any(is_cuspidal(space, c) for c in cocycles)


def test_trace_matrix_zero_rows_on_relators(bundle):
    f = trace_derivative_matrix(bundle.representation, bundle.pants_trace[:2],
                                list(bundle.presentation.relators))
    assert f.is_zero()


def test_trace_matrix_rank_six(bundle):
    f = trace_derivative_matrix(bundle.representation, bundle.pants_trace,
                                bundle.trace_words)
    assert rref_rank(f)[1] == 6


def test_trace_matrix_matches_reference(bundle):
    f = trace_derivative_matrix(bundle.representation, bundle.pants_trace,
                                bundle.trace_words)
    match = match_up_to_column_signs_and_scale(f, bundle.trace_reference)
    assert match is not None
    scale, signs = match
    assert scale == Fraction(-3)
    assert signs == [1, 1, 1, 1, 1, 1]


def test_trace_matrix_from_valid_bendings_has_rank_five(bundle):
    # the genuinely integrable six have one trace relation; the reference
    # matrix is reproduced by the trace-variant wall data instead
    f = trace_derivative_matrix(bundle.representation, bundle.pants,
                                bundle.trace_words)
    assert rref_rank(f)[1] == 5


def test_trace_matrix_requires_sl(bundle, so_pants):
    with pytest.raises(ValueError):
        trace_derivative_matrix(bundle.representation, so_pants,
                                bundle.trace_words)


def test_match_helper_rejects_mismatch(bundle):
    ref = bundle.trace_reference
    wrong = ref + RationalMatrix.identity(6)
    assert match_up_to_column_signs_and_scale(wrong, ref) is None
