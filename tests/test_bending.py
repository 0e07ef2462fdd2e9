import random
from dataclasses import replace
from fractions import Fraction

import pytest

from bendlab.acceptance import _bend, _conjugator_pool
from bendlab.bending import (BendingDatum, centralizer_generator, hnn_first_order,
                             match_up_to_column_signs_and_scale, sqrt_fraction,
                             tangent_cocycle, trace_derivative_matrix)
from bendlab.cohomology import class_span_dim, is_cuspidal
from bendlab.fixtures import PANTS_TRACE, load_pants
from bendlab.linalg import RationalMatrix, nullspace, rref_rank
from bendlab.modules import CoefficientModule, adjoint_basis, nu_basis
from bendlab.reps import (FirstOrderRep, QuadraticForm, Representation, _with_unit,
                          first_order_evaluate)
from bendlab.words import Presentation, Word


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


def test_sl_centralizers_normalized(bundle, sl_generators):
    for datum in bundle.pants:
        v = sl_generators[datum.name]
        # eigenvalues in {-3, 1} with trace 0 force the characteristic
        # polynomial (x+3)(x-1)^3
        assert v.trace() == 0
        ident = RationalMatrix.identity(4)
        assert ((v + ident.scale(3)) * (v - ident)).is_zero()
        for w in datum.subgroup:
            m = bundle.representation.evaluate(w)
            assert v * m == m * v


def test_so_centralizers_normalized(bundle, so_pants, so_generators):
    emb = bundle.representation.embedded_in_extension()
    for datum in so_pants:
        v = so_generators[datum.name]
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
    assert sl_generators["P_RB"] == expect


def test_so_centralizer_golden_value(so_generators):
    expect = RationalMatrix.from_rows([
        [0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1], [1, 0, 1, -1, 0]])
    assert so_generators["P_RB"] == expect


def _commutator_map(m: RationalMatrix) -> RationalMatrix:
    """The map X -> X m - m X on row-major vec(X), as the n^2 x n^2 matrix
    I (x) m^T - m (x) I, written on the numerators of m."""
    nums, d = m.to_numerators()
    n = m.rows
    out = [0] * (n ** 4)
    for i in range(n):
        for j in range(n):
            row = (i * n + j) * n * n
            for k in range(n):
                out[row + i * n + k] += nums[k * n + j]
                out[row + k * n + j] -= nums[i * n + k]
    return RationalMatrix.from_numerators(n * n, n * n, out, d)


def wall_centralizer(walls, form: QuadraticForm, geometry: str) -> RationalMatrix:
    """Reference route for ``centralizer_generator``: the kernel of
    X -> (X m - m X) over the wall matrices m, with X written in the basis
    so(Q) + nu of sl(n+1) (sl, Q of size n+1) or so(Q') (so_ext, where Q' is
    the extended form of size n+2), then the same normalization. Raises the
    library's error texts, "centralizer dimension N != 1" among them."""
    size = form.size
    algebra = adjoint_basis(form) + (nu_basis(form) if geometry == "sl" else [])
    flat = [b.reshape(1, size * size) for b in algebra]
    columns = flat[0].vstack(*flat[1:]).transpose()
    system = RationalMatrix.zeros(0, len(algebra)).vstack(
        *(_commutator_map(m) * columns for m in walls))
    kernel = nullspace(system)
    if len(kernel) != 1:
        raise ValueError(f"centralizer dimension {len(kernel)} != 1")
    x0 = (columns * RationalMatrix.column(kernel[0])).reshape(size, size)
    t2 = (x0 * x0).trace()
    if geometry == "sl":
        n = size - 1
        if t2 <= 0:
            raise ValueError("degenerate centralizer element (tr v^2 <= 0)")
        c = sqrt_fraction(Fraction(n * n + n) / t2)
        if c is None:
            raise ValueError("sl normalization scale is irrational for this datum")
        ident = RationalMatrix.identity(size)
        for s in (c, -c):
            v = x0.scale(s)
            if ((v + ident.scale(n)) * (v - ident)).is_zero():
                return v
        raise ValueError("centralizer element has wrong eigenvalue structure")
    if t2 >= 0:
        raise ValueError("so_ext centralizer element is not elliptic (tr v^2 >= 0)")
    c = sqrt_fraction(Fraction(-2) / t2)
    if c is None:
        raise ValueError("so_ext normalization scale is irrational for this datum")
    v = x0.scale(c)
    first = next((e for i in range(v.rows) for e in v.row(i) if e), None)
    if first is not None and first < 0:
        v = -v
    if not (v * v * v + v).is_zero():
        raise ValueError("so_ext centralizer element does not satisfy v^3 = -v")
    return v


def outcome(f, *args):
    """f's value, or the text of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def reference_outcome(rep, datum):
    base = datum.base(rep)
    return outcome(wall_centralizer, [base.evaluate(w) for w in datum.subgroup],
                   base.form, datum.geometry)


def assert_matches_reference(rep, data):
    for datum in data:
        assert outcome(centralizer_generator, rep, datum) == reference_outcome(rep, datum)


def test_commutator_map_is_the_vectorized_commutator():
    rng = random.Random(21)
    for n in (2, 3, 5):
        for _ in range(10):
            m, x = (RationalMatrix(n, n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                          for _ in range(n * n)]) for _ in range(2))
            got = _commutator_map(m) * x.reshape(n * n, 1)
            assert got == (x * m - m * x).reshape(n * n, 1)


def form_moved_override(rep):
    """The fixture under the change of basis P, so under the form P^-T Q P^-1,
    which is not diagonal."""
    p = RationalMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    pi = p.inverse()
    return Representation(rep.presentation, {g: p * m * pi for g, m in rep.images.items()},
                          QuadraticForm(pi.transpose() * rep.form.matrix * pi))


@pytest.mark.parametrize("geometry", ["sl", "so_ext"])
def test_wall_centralizer_takes_matrices_and_a_form(bundle, geometry):
    # the coefficient-module route equals the commutator kernel on the
    # fixture, its conjugates and an override under a non-diagonal form
    rep = bundle.representation
    reps = [rep, form_moved_override(rep)] + [rep.conjugated(u) for u in _conjugator_pool(rep)]
    for path in (None, PANTS_TRACE):
        walls = load_pants(bundle.presentation, geometry, path)
        for conj in reps:
            for datum in walls:
                assert centralizer_generator(conj, datum) == reference_outcome(conj, datum)
    gens = bundle.presentation.generators
    errors = [BendingDatum(name, tuple(Word.generator(g) for g in subgroup),
                           Word.generator("x"), geometry)
              for name, subgroup in (("none", ()), ("x", gens[:1]), ("all", gens))]
    assert [outcome(centralizer_generator, rep, d) for d in errors] == (
        ["centralizer dimension 15 != 1", "centralizer dimension 5 != 1",
         "centralizer dimension 0 != 1"] if geometry == "sl" else
        ["centralizer dimension 10 != 1", "centralizer dimension 4 != 1",
         "centralizer dimension 0 != 1"])
    assert_matches_reference(rep, errors)


def test_centralizer_may_lie_in_so_q():
    # a boost of R^{1,1} is centralized by so(1,1) alone: in sl(2) that is v,
    # in so(Q + 1) it is not elliptic, and the tangent module contributes nothing
    pres = Presentation(("x",), ())
    boost = RationalMatrix.from_rows([[Fraction(5, 3), Fraction(4, 3)],
                                      [Fraction(4, 3), Fraction(5, 3)]])
    rep = Representation(pres, {"x": boost},
                         QuadraticForm(RationalMatrix.from_rows([[-1, 0], [0, 1]])))
    sl, so = (BendingDatum("boost", (Word.generator("x"),), Word.generator("x"), g)
              for g in ("sl", "so_ext"))
    assert centralizer_generator(rep, sl) == RationalMatrix.from_rows([[0, -1], [-1, 0]])
    assert outcome(centralizer_generator, rep, so) == (
        "so_ext centralizer element is not elliptic (tr v^2 >= 0)")
    assert_matches_reference(rep, [sl, so])


def test_centralizers_reuse_the_representations_modules(bundle, monkeypatch):
    rho = bundle.representation
    rep = Representation(rho.presentation, rho.images, rho.form)
    for geometry in ("sl", "so_ext"):
        centralizer_generator(rep, replace(bundle.pants[0], geometry=geometry))
    built = []
    init = CoefficientModule.__init__
    monkeypatch.setattr(CoefficientModule, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for geometry in ("sl", "so_ext"):
        centralizer_generator(rep, replace(bundle.pants[1], geometry=geometry))
    assert built == []
    for kind in ("standard", "nu", "adjoint"):
        assert rep.module(kind) is rep.module(kind)


def test_so_ext_cocycle_is_the_unit_normal_of_the_wall(bundle, so_pants):
    # Johnson-Millson: the bending cocycle is a W-fixed unit spacelike vector
    # at the stable letter and zero at every other generator
    rep = bundle.representation
    gens = bundle.presentation.generators
    for conj in [rep] + [rep.conjugated(u) for u in _conjugator_pool(rep)]:
        module, q = conj.module("standard"), conj.form.matrix
        for datum in so_pants:
            fo = hnn_first_order(conj, datum, centralizer_generator(conj, datum))
            c = tangent_cocycle(fo, module)
            values = {g: c[4 * k:4 * k + 4] for k, g in enumerate(gens)}
            u = RationalMatrix.column(values.pop(datum.stable_letter.letters[0][0]))
            assert (u.transpose() * q * u)[0, 0] == 1
            assert all(conj.evaluate(w) * u == u for w in datum.subgroup)
            assert not any(x for value in values.values() for x in value)


def test_empty_subgroup_overcounts(bundle):
    # the whole ambient algebra sl(4)
    datum = BendingDatum("none", (), Word.generator("x"), "sl")
    with pytest.raises(ValueError, match="centralizer dimension 15 != 1"):
        centralizer_generator(bundle.representation, datum)


def test_empty_subgroup_overcounts_so_ext(bundle):
    # the whole ambient algebra so(Q + 1), of dimension 10
    datum = BendingDatum("none", (), Word.generator("x"), "so_ext")
    with pytest.raises(ValueError, match="centralizer dimension 10 != 1"):
        centralizer_generator(bundle.representation, datum)


@pytest.mark.parametrize("geometry", ["sl", "so_ext"])
@pytest.mark.parametrize("path", [None, PANTS_TRACE], ids=["pants", "pants_trace"])
def test_centralizers_follow_conjugation(bundle, geometry, path):
    # the conjugators (the Pythagorean boost among them) move the wall
    # matrices away from the fixture's entry heights
    rep = bundle.representation
    walls = load_pants(bundle.presentation, geometry, path)
    for u in _conjugator_pool(rep):
        big = u if geometry == "sl" else _with_unit(u)
        conj = rep.conjugated(u)
        for datum in walls:
            moved = big * centralizer_generator(rep, datum) * big.inverse()
            got = centralizer_generator(conj, datum)
            assert got == moved if geometry == "sl" else got in (moved, -moved)


def test_full_group_has_no_centralizer(bundle, borromean):
    datum = BendingDatum("all", tuple(Word.generator(g) for g in borromean.generators),
                         Word.generator("x"), "sl")
    with pytest.raises(ValueError, match="centralizer dimension 0 != 1"):
        centralizer_generator(bundle.representation, datum)


def test_stable_letter_must_be_generator(bundle, sl_generators):
    datum = bundle.pants[0]
    with pytest.raises(ValueError):
        bad = replace(datum, stable_letter=datum.stable_letter * Word.generator("y"))
        hnn_first_order(bundle.representation, bad, sl_generators[datum.name])


def test_hnn_derivative_structure(bundle, sl_generators):
    datum = bundle.pants[0]
    v = sl_generators[datum.name]
    fo = hnn_first_order(bundle.representation, datum, v)
    stable = datum.stable_letter.letters[0][0]
    for g in bundle.presentation.generators:
        if g == stable:
            assert fo.derivative[g] == v * bundle.representation.images[g]
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


def test_zero_generator_gives_zero_cocycle(bundle, modules):
    datum = bundle.pants[0]
    fo = hnn_first_order(bundle.representation, datum, RationalMatrix.zeros(4, 4))
    c = tangent_cocycle(fo, modules["nu"])
    assert all(x == 0 for x in c)


def conjugation_derivative(base, x):
    """The first-order rep of g -> (I + tX) M_g (I - tX): E_g = X M_g - M_g X,
    so c(g) = X - M_g X M_g^-1."""
    return FirstOrderRep(base, {g: x * m - m * x for g, m in base.images.items()})


def seeded_matrix(rng, n):
    return RationalMatrix(n, n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for _ in range(n * n)])


def test_nu_cocycle_of_a_conjugation_is_the_coboundary_of_its_nu_half(rho, modules,
                                                                     spaces):
    # sl(4) = so(Q) + nu: only the Q-self-adjoint half of X is read, and an
    # X in so(Q) bends nothing
    q, nu = rho.form, modules["nu"]
    rng = random.Random(61)
    for _ in range(20):
        x = seeded_matrix(rng, 4)
        x = x - RationalMatrix.identity(4).scale(x.trace() / 4)
        sym = q.inverse * x.transpose() * q.matrix
        want = spaces["nu"].coboundary(nu.to_coordinates((x + sym).scale(Fraction(1, 2))))
        assert tangent_cocycle(conjugation_derivative(rho, x), nu) == want
        skew = x - sym
        assert (skew.transpose() * q.matrix + q.matrix * skew).is_zero()
        assert not any(tangent_cocycle(conjugation_derivative(rho, skew), nu))


def test_standard_cocycle_of_a_conjugation_is_the_coboundary_of_its_last_column(
        rho, modules, spaces):
    # so(Q + 1) = so(Q) + R^{3,1}: X = (Q + 1)^-1 (A - A^T) has last column b
    emb = rho.embedded_in_extension()
    q5 = emb.form
    rng = random.Random(62)
    for _ in range(20):
        a = seeded_matrix(rng, 5)
        x = q5.inverse * (a - a.transpose())
        assert (x.transpose() * q5.matrix + q5.matrix * x).is_zero()
        b = [x[i, 4] for i in range(4)]
        got = tangent_cocycle(conjugation_derivative(emb, x), modules["standard"])
        assert got == spaces["standard"].coboundary(b)


@pytest.mark.parametrize("kind,error", [("nu", "not in the module subspace"),
                                        ("standard", r"not in so\(Q \+ 1\)")],
                         ids=["nu", "standard"])
def test_identity_tangent_vector_is_rejected(rho, modules, kind, error):
    # c(x) = I: it has trace 4, so no nu coordinates, and it is not in so(Q + 1)
    base = rho if kind == "nu" else rho.embedded_in_extension()
    fo = FirstOrderRep(base, {"x": base.images["x"]})
    with pytest.raises(ValueError, match=error):
        tangent_cocycle(fo, modules[kind])


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
    f = trace_derivative_matrix(_bend(bundle.representation, bundle.pants_trace[:2]),
                                list(bundle.presentation.relators))
    assert f.is_zero()


def test_trace_matrix_rank_six(bundle):
    f = trace_derivative_matrix(_bend(bundle.representation, bundle.pants_trace),
                                bundle.trace_words)
    assert rref_rank(f)[1] == 6


def test_trace_matrix_matches_reference(bundle):
    f = trace_derivative_matrix(_bend(bundle.representation, bundle.pants_trace),
                                bundle.trace_words)
    match = match_up_to_column_signs_and_scale(f, bundle.trace_reference)
    assert match is not None
    scale, signs = match
    assert scale == Fraction(-3)
    assert signs == [1, 1, 1, 1, 1, 1]


def test_trace_matrix_from_valid_bendings_has_rank_five(bundle):
    # the genuinely integrable six have one trace relation; the reference
    # matrix is reproduced by the trace-variant wall data instead
    f = trace_derivative_matrix(_bend(bundle.representation, bundle.pants),
                                bundle.trace_words)
    assert rref_rank(f)[1] == 5


@pytest.mark.parametrize("path", [None, PANTS_TRACE], ids=["pants", "pants_trace"])
def test_so_ext_trace_matrix_is_zero(bundle, path):
    # the reflection in the original hyperplane carries the bending at t to
    # the bending at -t, so every trace is even in t
    rep = bundle.representation
    walls = load_pants(bundle.presentation, "so_ext", path)
    for conj in [rep] + [rep.conjugated(u) for u in _conjugator_pool(rep)]:
        f = trace_derivative_matrix(_bend(conj, walls), bundle.trace_words)
        assert f.shape == (len(bundle.trace_words), len(walls))
        assert f.is_zero()


def test_datum_base_is_decided_by_its_geometry(bundle, so_pants):
    rep = bundle.representation
    assert bundle.pants[0].base(rep) is rep
    emb = so_pants[0].base(rep)
    assert emb.size == rep.size + 1
    assert all(datum.base(rep) is emb for datum in so_pants)
    with pytest.raises(ValueError, match="unknown geometry"):
        replace(bundle.pants[0], geometry="so")


def test_generator_of_the_wrong_size_is_rejected(bundle, so_generators):
    datum = bundle.pants[0]  # an sl wall bends the 4x4 representation
    with pytest.raises(ValueError, match="shape mismatch"):
        hnn_first_order(bundle.representation, datum, so_generators[datum.name])


def test_match_helper_rejects_mismatch(bundle):
    ref = bundle.trace_reference
    wrong = ref + RationalMatrix.identity(6)
    assert match_up_to_column_signs_and_scale(wrong, ref) is None
