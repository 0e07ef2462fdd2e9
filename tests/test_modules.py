import random
from fractions import Fraction

import pytest

from bendlab.acceptance import _conjugator_pool
import bendlab.linalg
from bendlab.linalg import RationalMatrix, in_column_space, rank_of_vectors, rref_rank
from bendlab.modules import CoefficientModule
from bendlab.reps import QuadraticForm, Representation
from bendlab.words import GroupRingElem, Word
from helpers import rand_word


def as_columns(matrices) -> RationalMatrix:
    """The matrices, each flattened row-major, as the columns of one matrix."""
    flat = [b.reshape(1, b.rows * b.cols) for b in matrices]
    return flat[0].vstack(*flat[1:]).transpose()


def reference_coordinates(module, m):
    """Coordinates by elimination: solve [basis columns | m flattened]."""
    coords = in_column_space(as_columns(module.basis), m.reshape(1, m.rows * m.cols).row(0))
    if coords is None:
        raise ValueError("matrix is not in the module subspace")
    return coords


def test_dimensions(modules):
    assert modules["standard"].dimension == 4
    assert modules["nu"].dimension == 9
    assert modules["adjoint"].dimension == 6


def test_standard_action_is_the_representation(modules, rho, borromean):
    module = modules["standard"]
    assert module.action(Word.generator("x")) == rho.images["x"]
    # against the representation and against a plain product of the images,
    # on seeded words and group-ring elements
    rng = random.Random(34)
    words = [rand_word(rng, borromean.generators, 12) for _ in range(20)]
    for w in words:
        product = RationalMatrix.identity(rho.size)
        for g, e in w.letters:
            m = rho.images[g]
            product = product * (m if e == 1 else m.inverse())
        assert module.action(w) == rho.evaluate(w) == product
    for _ in range(10):
        e = GroupRingElem({rng.choice(words): rng.randint(-3, 3) for _ in range(3)})
        assert module.action(e) == rho.evaluate(e)


def test_action_is_homomorphism(modules, borromean):
    rng = random.Random(14)
    for kind in ("standard", "nu", "adjoint"):
        mod = modules[kind]
        for _ in range(15):
            u = rand_word(rng, borromean.generators, 5)
            v = rand_word(rng, borromean.generators, 5)
            assert mod.action(u * v) == mod.action(u) * mod.action(v)
        assert mod.action(Word.empty()) == RationalMatrix.identity(mod.dimension)


def test_action_inverse(modules, borromean):
    rng = random.Random(15)
    for kind in ("nu", "adjoint"):
        mod = modules[kind]
        for _ in range(10):
            w = rand_word(rng, borromean.generators, 6)
            assert mod.action(w.inverse()) == mod.action(w).inverse()


def test_basis_membership_conditions(modules, rho):
    q = rho.form.matrix
    for b in modules["nu"].basis:
        assert b.transpose() * q == q * b
        assert b.trace() == 0
    for b in modules["adjoint"].basis:
        assert (b.transpose() * q + q * b).is_zero()


def test_equivariance_reproduces_action_columns(modules, rho, borromean):
    for kind in ("nu", "adjoint"):
        mod = modules[kind]
        for g in borromean.generators:
            m = rho.images[g]
            act = mod.action(Word.generator(g))
            for i, b in enumerate(mod.basis):
                image = m * b * m.inverse()
                coords = mod.to_coordinates(image)
                assert list(coords) == [act[k, i] for k in range(mod.dimension)]


def test_coordinates_roundtrip(modules):
    # the k-th basis element has the k-th unit vector as its coordinates
    for kind in ("nu", "adjoint"):
        mod = modules[kind]
        for k, b in enumerate(mod.basis):
            assert mod.to_coordinates(b) == tuple(int(i == k) for i in range(mod.dimension))


def test_standard_coordinates_are_the_vector(modules):
    mod = modules["standard"]
    assert as_columns(mod.basis) == RationalMatrix.identity(4)
    v = [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(7, 5)]
    for m in (RationalMatrix.column(v), RationalMatrix.from_rows([v])):
        assert mod.to_coordinates(m) == reference_coordinates(mod, m) == tuple(v)
    for shape in ((5, 1), (3, 1), (4, 4)):
        for route in (mod.to_coordinates, lambda m: reference_coordinates(mod, m)):
            with pytest.raises(ValueError):
                route(RationalMatrix.zeros(*shape))


def test_standard_h0_trivial(modules, borromean):
    gens = [Word.generator(g) for g in borromean.generators]
    assert modules["standard"].invariants_dim(gens) == 0


def test_nu_basis_for_appendix_antidiagonal_form():
    rows = [[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]]
    q = QuadraticForm(RationalMatrix.from_rows(rows))
    from bendlab.modules import adjoint_basis, nu_basis
    nb = nu_basis(q)
    ab = adjoint_basis(q)
    assert len(nb) == 9 and len(ab) == 6
    for b in nb:
        assert b.transpose() * q.matrix == q.matrix * b and b.trace() == 0
    for b in ab:
        assert (b.transpose() * q.matrix + q.matrix * b).is_zero()
    flat = [[m[i, j] for i in range(4) for j in range(4)] for m in nb]
    assert rank_of_vectors(flat) == 9


def seeded_symmetric_form(seed, n=4):
    """An invertible symmetric form with nonzero entries off the diagonal."""
    rng = random.Random(seed)
    while True:
        a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        m = RationalMatrix.from_rows([[a[min(i, j)][max(i, j)] for j in range(n)]
                                      for i in range(n)])
        if m.det() != 0 and all(m[i, j] for i in range(n) for j in range(n) if i != j):
            return QuadraticForm(m)


@pytest.mark.parametrize("which", ["fixture", "antidiagonal", "seeded"])
def test_bases_match_the_inverse_form_products(rho, which):
    from bendlab.modules import _inverse_form_times, adjoint_basis, nu_basis
    q = {"fixture": lambda: rho.form,
         "antidiagonal": lambda: QuadraticForm(RationalMatrix.from_rows(
             [[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]])),
         "seeded": lambda: seeded_symmetric_form(41)}[which]()
    n = q.size
    for i in range(n):
        for j in range(i, n):
            for sign in (1, -1):
                e = [[0] * n for _ in range(n)]
                e[j][i] = sign
                e[i][j] = 1
                want = q.inverse * RationalMatrix.from_rows(e)
                assert _inverse_form_times(q, i, j, sign) == want, (i, j, sign)
    nb, ab = nu_basis(q), adjoint_basis(q)
    assert len(nb) == n * (n + 1) // 2 - 1 and len(ab) == n * (n - 1) // 2
    for b in nb:
        assert b.transpose() * q.matrix == q.matrix * b and b.trace() == 0
    for b in ab:
        assert (b.transpose() * q.matrix + q.matrix * b).is_zero()
    flat = [[m[i, j] for i in range(n) for j in range(n)] for m in nb + ab]
    assert rank_of_vectors(flat) == n * n - 1  # so(Q) + nu spans sl(n)


def reference_ad_matrix(module, m, mi):
    """Ad(m) by elimination: one RREF of [basis columns | images of the basis]."""
    d = module.dimension
    aug = as_columns(module.basis).hstack(as_columns(m * b * mi for b in module.basis))
    red, rank, pivots = rref_rank(aug)
    if rank != d or any(p >= d for p in pivots):
        raise ValueError("adjoint action does not preserve the module basis")
    return red.submatrix(range(d), range(d, 2 * d))


def moved(rho, s):
    """rho under the change of basis s: images s m s^-1, form s^-T Q s^-1."""
    si = s.inverse()
    return Representation(rho.presentation, {g: s * m * si for g, m in rho.images.items()},
                          QuadraticForm(si.transpose() * rho.form.matrix * si))


def reflections_rep(presentation, form, seed):
    """Images preserving ``form``: each a product of two reflections
    x -> x - 2 B(x, v) / B(v, v) v in seeded vectors. The relators need not
    hold; a module reads only the letters."""
    rng = random.Random(seed)
    n = form.size
    q = form.matrix

    def reflection():
        while True:
            v = RationalMatrix.column([rng.randint(-3, 3) for _ in range(n)])
            norm = (v.transpose() * q * v)[0, 0]
            if norm:
                return RationalMatrix.identity(n) - (v * v.transpose() * q).scale(2 / norm)

    return Representation(presentation,
                          {g: reflection() * reflection() for g in presentation.generators},
                          form)


def ad_cases(rho):
    antidiagonal = moved(rho, RationalMatrix.from_rows(
        [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [Fraction(1, 2), 0, 0, Fraction(-1, 2)]]))
    assert antidiagonal.form.matrix == RationalMatrix.from_rows(
        [[0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]])
    return ([rho] + [rho.conjugated(u) for u in _conjugator_pool(rho)]
            + [moved(rho, RationalMatrix.from_rows(
                [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])), antidiagonal]
            + [reflections_rep(rho.presentation, seeded_symmetric_form(seed, n), seed)
               for seed, n in ((41, 4), (42, 3), (43, 5))])


@pytest.mark.parametrize("kind", ["nu", "adjoint"])
def test_ad_matrices_read_off_the_form_match_the_elimination(rho, kind):
    # the fixture, its nine pool conjugates, the fixture under a non-diagonal
    # and under the appendix antidiagonal form, and seeded forms of size 3-5
    cases = ad_cases(rho)
    assert len(cases) == 15 and len(_conjugator_pool(rho)) == 9
    for rep in cases:
        module = CoefficientModule(rep, kind)
        for g in rep.presentation.generators:
            for e in (1, -1):
                want = reference_ad_matrix(module, rep.image(g, e), rep.image(g, -e))
                assert module.evaluator.letters[g, e] == want, (g, e)


@pytest.mark.parametrize("kind", ["nu", "adjoint"])
def test_coordinates_read_off_the_form_match_the_elimination(rho, kind):
    # the 15 cases above: conjugated basis elements and seeded combinations
    # have the same coordinates by both routes
    rng = random.Random(19)
    for rep in ad_cases(rho):
        module = CoefficientModule(rep, kind)
        d = module.dimension
        inputs = [rep.image(g, e) * b * rep.image(g, -e)
                  for g in rep.presentation.generators for e in (1, -1) for b in module.basis]
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
            inputs.append(sum((b.scale(c) for b, c in zip(module.basis[1:], coeffs[1:])),
                              module.basis[0].scale(coeffs[0])))
            assert module.to_coordinates(inputs[-1]) == tuple(coeffs)
        for m in inputs:
            assert module.to_coordinates(m) == reference_coordinates(module, m)


@pytest.mark.parametrize("kind", ["nu", "adjoint"])
def test_non_members_have_no_coordinates_by_either_route(rho, kind):
    for rep in ad_cases(rho):
        module, n = CoefficientModule(rep, kind), rep.size
        e01 = RationalMatrix.from_rows([[int((i, j) == (0, 1)) for j in range(n)]
                                        for i in range(n)])
        # Q m = E_01 is neither symmetric nor antisymmetric; m = I has Q m = Q
        # symmetric (not antisymmetric) and trace n != 0; two wrong entry counts
        bad = [rep.form.inverse * e01, RationalMatrix.identity(n),
               RationalMatrix.zeros(n * n + 1, 1), RationalMatrix.zeros(n, n - 1)]
        for m in bad:
            for route in (module.to_coordinates, lambda m: reference_coordinates(module, m)):
                with pytest.raises(ValueError):
                    route(m)
        with pytest.raises(ValueError, match="matrix is not in the module subspace"):
            module.to_coordinates(bad[0])


def test_modules_and_coordinates_need_no_elimination(rho, monkeypatch):
    cases = ad_cases(rho)
    calls = []
    eliminate = bendlab.linalg._eliminate
    monkeypatch.setattr(bendlab.linalg, "_eliminate",
                        lambda *a, **k: calls.append(None) or eliminate(*a, **k))
    for rep in cases:
        g = rep.presentation.generators[0]
        for kind in ("nu", "adjoint"):
            module = CoefficientModule(rep, kind)
            for b in module.basis:
                module.to_coordinates(rep.image(g) * b * rep.image(g, -1))
    assert calls == []
    RationalMatrix.identity(2).rank()  # the counter sees an elimination
    assert calls == [None]


@pytest.mark.parametrize("kind", ["nu", "adjoint"])
def test_a_form_breaking_image_has_no_adjoint_action(rho, kind):
    shear = RationalMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    broken = Representation(rho.presentation, {**rho.images, "y": shear}, rho.form)
    with pytest.raises(ValueError, match="adjoint action does not preserve the module basis"):
        CoefficientModule(broken, kind)
    with pytest.raises(ValueError, match="adjoint action does not preserve the module basis"):
        reference_ad_matrix(CoefficientModule(rho, kind), shear, shear.inverse())


def test_build_module_rejects_unknown_kind(rho):
    with pytest.raises(ValueError):
        CoefficientModule(rho, "spin")


def test_star_import_names_only_what_exists():
    # a stale __all__ entry fails here
    exec("from bendlab import *", {})
