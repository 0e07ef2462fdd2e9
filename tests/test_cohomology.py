import random
from fractions import Fraction

import pytest

from bendlab import cohomology
from bendlab.acceptance import _conjugator_pool
from bendlab.cohomology import (CocycleSpace, class_span_dim, cocycle_eval,
                                default_parabolic_words, h1_report,
                                peripheral_invariant_dims, scannell_check)
from bendlab.linalg import RationalMatrix, in_column_space, nullspace, rref_rank
from bendlab.modules import CoefficientModule
from bendlab.reps import QuadraticForm, Representation, validate_representation
from bendlab.words import Presentation, Word, parse_word
from helpers import rand_word

EXPECTED = {
    "standard": dict(z1=7, b1=4, h0=0, h1=3, pz1=4, ph1=0, peri=[1, 1, 1]),
    "nu": dict(z1=15, b1=9, h0=0, h1=6, pz1=12, ph1=3, peri=[1, 1, 1]),
    "adjoint": dict(z1=12, b1=6, h0=0, h1=6, pz1=6, ph1=0, peri=[2, 2, 2]),
}


def test_standard_jacobian_shape_and_rank(spaces):
    space = spaces["standard"]
    assert space.jacobian.shape == (8, 12)
    assert rref_rank(space.jacobian)[1] == 5


@pytest.mark.parametrize("kind", list(EXPECTED))
def test_dimensions(spaces, kind):
    space = spaces[kind]
    want = EXPECTED[kind]
    assert (space.dim_z1, space.dim_b1, space.dim_h0, space.dim_h1) == \
        (want["z1"], want["b1"], want["h0"], want["h1"])


@pytest.mark.parametrize("kind", list(EXPECTED))
@pytest.mark.parametrize("mode", ["per_subgroup", "per_element"])
def test_parabolic_dimensions(borromean, modules, spaces, kind, mode):
    report = h1_report(borromean, modules[kind], mode=mode, space=spaces[kind])
    assert report.dim_pz1 == EXPECTED[kind]["pz1"]
    assert report.dim_ph1 == EXPECTED[kind]["ph1"]
    assert not report.warnings


@pytest.mark.parametrize("kind", list(EXPECTED))
def test_peripheral_invariants_and_scannell(borromean, modules, spaces, kind):
    peri = peripheral_invariant_dims(borromean, modules[kind])
    assert peri == EXPECTED[kind]["peri"]
    report = h1_report(borromean, modules[kind], mode="per_subgroup",
                       space=spaces[kind])
    assert scannell_check(report, sum(peri))


def test_scannell_check_requires_parabolic_dims(borromean, modules, spaces):
    report = h1_report(borromean, modules["standard"], mode="none",
                       space=spaces["standard"])
    with pytest.raises(ValueError):
        scannell_check(report, 3)


def test_z1_basis_killed_by_relators(spaces, borromean):
    for kind in ("standard", "adjoint"):
        space = spaces[kind]
        for c in nullspace(space.jacobian):
            for r in borromean.relators:
                assert all(v == 0 for v in cocycle_eval(space, c, r))


def test_b1_inside_pz1_inside_z1(spaces):
    for kind in ("standard", "nu"):
        space = spaces[kind]
        for b in space.coboundary_map.transpose().to_rows():
            assert space.is_cocycle(b)
            assert all(space.cuspidal_defect(b))


def test_free_group_trivial_action():
    pres = Presentation(("x",), ())
    images = {"x": RationalMatrix.identity(3)}
    rep = Representation(pres, images, QuadraticForm(RationalMatrix.identity(3)))
    module = CoefficientModule(rep, "standard")
    space = CocycleSpace(pres, module)
    assert (space.dim_z1, space.dim_b1, space.dim_h1) == (3, 0, 3)


def test_cocycle_eval_on_generators(spaces):
    space = spaces["standard"]
    c = [Fraction(k) for k in range(12)]
    assert cocycle_eval(space, c, Word.generator("x")) == tuple(c[0:4])
    assert cocycle_eval(space, c, Word.generator("y")) == tuple(c[4:8])


def test_cocycle_condition_on_product(spaces, modules):
    space = spaces["standard"]
    module = modules["standard"]
    rng = random.Random(19)
    c = [Fraction(rng.randint(-3, 3)) for _ in range(12)]
    x, y = Word.generator("x"), Word.generator("y")
    lhs = cocycle_eval(space, c, x * y)
    cx = cocycle_eval(space, c, x)
    cy = cocycle_eval(space, c, y)
    rhs = tuple(a + b for a, b in zip(cx, module.action(x).matvec(cy)))
    assert lhs == rhs


def test_coboundary_extension_identity(spaces, modules, borromean):
    rng = random.Random(20)
    space = spaces["standard"]
    module = modules["standard"]
    ident = RationalMatrix.identity(4)
    for _ in range(60):
        alpha = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        c = space.coboundary(alpha)
        word = rand_word(rng, borromean.generators, 8)
        assert (cocycle_eval(space, c, word)
                == (ident - module.action(word)).matvec(alpha))


def test_class_span_edge_cases(spaces):
    space = spaces["nu"]
    assert class_span_dim(space, []) == 0
    assert class_span_dim(space, space.coboundary_map.transpose().to_rows()) == 0
    assert class_span_dim(space, nullspace(space.jacobian)) == space.dim_h1


def test_class_span_rejects_non_cocycles(spaces):
    space = spaces["standard"]
    bad = [Fraction(1)] + [Fraction(0)] * 11
    if not space.is_cocycle(bad):
        with pytest.raises(ValueError):
            class_span_dim(space, [bad])


def test_default_parabolic_words(borromean):
    words = default_parabolic_words(borromean)
    assert len(words) == 9  # meridian, longitude, product per cusp
    mu, lam = borromean.cusps[0]
    assert words[0] == mu and words[1] == lam and words[2] == mu * lam


def test_per_element_without_product_words_is_weaker(borromean, spaces):
    # the fixture's cusps have orthogonal translation pairs, so conditions on
    # the meridian and longitude alone admit a strictly larger space
    words = [w for mu, lam in borromean.cusps for w in (mu, lam)]
    assert spaces["standard"].parabolic_kernel_dim([[w] for w in words]) == 6


def test_nonparabolic_word_warns(borromean, rho):
    # a loxodromic meridian on the first cusp: it and its product with the
    # longitude are not parabolic
    meridian = parse_word("x^-1 y", borromean.generators)
    cusps = ((meridian, borromean.cusps[0][1]),) + borromean.cusps[1:]
    pres = Presentation(borromean.generators, borromean.relators, cusps)
    module = CoefficientModule(Representation(pres, rho.images, rho.form), "standard")
    report = h1_report(pres, module, mode="per_element")
    assert len(report.warnings) == 2


def test_redundant_relator_leaves_dimensions_unchanged(borromean, rho):
    third = parse_word("[z,[x^-1,y]]", borromean.generators)
    extended = Presentation(borromean.generators, borromean.relators + (third,),
                            borromean.cusps)
    rep = Representation(extended, rho.images, rho.form)
    for kind in ("standard", "nu", "adjoint"):
        module = CoefficientModule(rep, kind)
        report = h1_report(extended, module, mode="per_subgroup")
        want = EXPECTED[kind]
        assert (report.dim_z1, report.dim_b1, report.dim_h1,
                report.dim_pz1) == (want["z1"], want["b1"], want["h1"],
                                    want["pz1"])


def test_conjugation_invariance_sample(borromean, rho):
    u = rho.images["x"] * rho.images["y"]
    conj = rho.conjugated(u)
    for kind in ("standard", "adjoint"):
        module = CoefficientModule(conj, kind)
        report = h1_report(borromean, module, mode="per_subgroup")
        want = EXPECTED[kind]
        assert (report.dim_h1, report.dim_ph1) == (want["h1"], want["ph1"])


def test_report_json_shape(borromean, modules, spaces):
    report = h1_report(borromean, modules["standard"], mode="per_subgroup",
                       space=spaces["standard"])
    doc = report.to_json()
    assert doc["dimH1"] == doc["dimZ1"] - doc["dimB1"]
    assert doc["dimPH1"] == doc["dimPZ1"] - doc["dimB1"]


# per Z^1 basis vector, the three cusps' answers (T: trivial there), as
# computed when every call rebuilt each cusp's condition rows
CUSPIDAL_DEFECTS = {
    "standard": ["TFF", "FFF", "FFF", "FTF", "FFT", "FFF", "FFF"],
    "nu": ["FTT", "FTT", "FTT", "FFT", "FTT", "FTT", "FTT", "FTT", "FTF", "FTF",
           "FTF", "FTT", "FTT", "FTT", "FTT"],
    "adjoint": ["FFF"] * 12,
}


@pytest.mark.parametrize("kind", sorted(CUSPIDAL_DEFECTS))
def test_cuspidal_defects_of_the_z1_basis_are_unchanged(borromean, modules, kind):
    space = CocycleSpace(borromean, modules[kind])  # conditions not built yet
    got = ["".join("T" if t else "F" for t in space.cuspidal_defect(c))
           for c in nullspace(space.jacobian)]
    assert got == CUSPIDAL_DEFECTS[kind]
    # the kept rows answer as rows built afresh in a new space do
    again = CocycleSpace(borromean, modules[kind])
    for c in nullspace(space.jacobian):
        fresh = [not any(again._coboundary_conditions(cusp).matvec(c))
                 for cusp in borromean.cusps]
        assert space.cuspidal_defect(c) == fresh


@pytest.mark.parametrize("kind", sorted(CUSPIDAL_DEFECTS))
def test_cuspidal_defect_reuses_the_per_subgroup_rows(borromean, modules, kind,
                                                      monkeypatch):
    space = CocycleSpace(borromean, modules[kind])
    h1_report(borromean, modules[kind], mode="per_subgroup", space=space)
    calls = []
    real = cohomology.rref_rank
    monkeypatch.setattr(cohomology, "rref_rank",
                        lambda m: calls.append(m.shape) or real(m))
    z1 = nullspace(space.jacobian)
    got = [space.cuspidal_defect(c) for c in z1]
    assert calls == []
    monkeypatch.undo()
    fresh = CocycleSpace(borromean, modules[kind])
    assert got == [fresh.cuspidal_defect(c) for c in z1]


def test_long_cusp_words_are_walked_once(borromean, rho, monkeypatch):
    # words past 12 letters are not cached, so each walk of the 3,000-letter
    # longitude costs one d x d product a letter; h1_report takes each word's
    # action from the walk that gives its word row
    long_lambda = parse_word("(x y^-1 z)^1000", borromean.generators)
    cusps = ((borromean.cusps[0][0], long_lambda),) + borromean.cusps[1:]
    pres = Presentation(borromean.generators, borromean.relators, cusps)
    module = CoefficientModule(Representation(pres, rho.images, rho.form), "nu")
    d, products = module.dimension, []
    real = RationalMatrix.__mul__

    def counted(a, b):
        if a.shape == b.shape == (d, d):
            products.append(1)
        return real(a, b)

    monkeypatch.setattr(RationalMatrix, "__mul__", counted)
    report = h1_report(pres, module, mode="per_subgroup")
    monkeypatch.undo()
    letters = sum(len(w.letters) for cusp in cusps for w in cusp)
    assert len(products) <= letters + 60
    assert (report.dim_h1, report.dim_pz1) == (EXPECTED["nu"]["h1"], 9)


@pytest.mark.parametrize("k, name", [
    (10, "x y^-1 z " * 9 + "x y^-1 z"),  # 30 letters: named whole
    (11, "x y^-1 z " * 4 + "... (33 letters)"),
    (1000, "x y^-1 z " * 4 + "... (3000 letters)"),
])
def test_a_long_non_parabolic_word_is_named_by_its_first_letters(borromean, rho, k, name):
    # the longitude of test_long_cusp_words_are_walked_once is not parabolic
    long_lambda = parse_word(f"(x y^-1 z)^{k}", borromean.generators)
    cusps = ((borromean.cusps[0][0], long_lambda),) + borromean.cusps[1:]
    pres = Presentation(borromean.generators, borromean.relators, cusps)
    module = CoefficientModule(Representation(pres, rho.images, rho.form), "standard")
    report = h1_report(pres, module, mode="per_subgroup")
    assert report.warnings == [f"word {name} is not parabolic under the representation"]


def fraction_rank(rows) -> int:
    """Rank by plain Gauss-Jordan on Fraction entries, independent of linalg."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


@pytest.fixture(scope="module")
def second_route_spaces(rho):
    """Per kind, the spaces of the fixture, its nine pool conjugates and the
    trivial representation (every image I, so H^0 is the whole module)."""
    pres = rho.presentation
    trivial = Representation(pres, {g: RationalMatrix.identity(rho.size)
                                    for g in pres.generators}, rho.form)
    reps = [rho] + [rho.conjugated(u) for u in _conjugator_pool(rho)] + [trivial]
    assert len(reps) == 11
    return {kind: [CocycleSpace(pres, CoefficientModule(rep, kind)) for rep in reps]
            for kind in EXPECTED}


def condition_groups(pres):
    """The cusp pairs, each parabolic word alone, and one three-word group."""
    mu, lam = pres.cusps[0]
    return ([list(cusp) for cusp in pres.cusps]
            + [[w] for w in default_parabolic_words(pres)] + [[mu, lam, mu * lam]])


@pytest.mark.parametrize("kind", list(EXPECTED))
def test_conditions_vanish_exactly_when_the_values_are_a_coboundary(
        second_route_spaces, kind):
    # second route: one alpha with c(w) = (I - w).alpha for the whole group,
    # solved from the stacked I - w maps and the walked values c(w)
    rng = random.Random(2424)
    seen = set()
    for space in second_route_spaces[kind]:
        pres, n = space.presentation, space.jacobian.cols
        z1 = nullspace(space.jacobian)
        vectors = [space.coboundary([Fraction(rng.randint(-3, 3)) for _ in range(space.d)])]
        vectors += [[sum((rng.randint(-2, 2) * b[j] for b in z1), Fraction(0)) for j in range(n)]
                    for _ in range(2)]
        vectors += [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(2)]
        for group in condition_groups(pres):
            conditions = space._coboundary_conditions(group)
            cusp_map = space.module.coboundary_map(group)
            for c in vectors:
                values = [x for w in group for x in cocycle_eval(space, c, w)]
                solvable = in_column_space(cusp_map, values) is not None
                assert (not any(conditions.matvec(c))) == solvable, (kind, group)
                seen.add(solvable)
    assert seen == {True, False}


@pytest.mark.parametrize("kind", list(EXPECTED))
def test_parabolic_and_coboundary_ranks_by_second_routes(second_route_spaces, kind):
    # dim PZ^1 without the H^1 projection: the nullity of J over all the
    # conditions; dim Z^1 and dim B^1 by Fraction Gauss-Jordan
    for space in second_route_spaces[kind]:
        pres, jacobian = space.presentation, space.jacobian
        for groups in ([list(cusp) for cusp in pres.cusps],
                       [[w] for w in default_parabolic_words(pres)]):
            stacked = jacobian.vstack(*(space._coboundary_conditions(g) for g in groups))
            assert space.parabolic_kernel_dim(groups) == jacobian.cols - stacked.rank()
        assert space.dim_z1 == jacobian.cols - fraction_rank(jacobian.to_rows())
        assert space.dim_b1 == fraction_rank(space.coboundary_map.to_rows())
        assert space.dim_h0 == space.d - space.dim_b1


def test_invalid_representation_keeps_its_cocycle_and_coboundary_dimensions(rho):
    # z swapped for a rotation that preserves the form: the relators are no
    # longer killed, so B^1 need not lie in Z^1, but dim Z^1, dim B^1 and
    # dim H^0 are still the ranks of J and delta
    rotation = RationalMatrix.from_rows([[1, 0, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5), 0],
                                         [0, Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 0, 1]])
    rep = Representation(rho.presentation, dict(rho.images, z=rotation), rho.form)
    assert rho.form.preserved_by(rotation) and not validate_representation(rep).ok
    for kind in EXPECTED:
        space = CocycleSpace(rep.presentation, CoefficientModule(rep, kind))
        fixed = len(nullspace(space.coboundary_map))
        assert (space.dim_b1, space.dim_h0) == (space.d - fixed, fixed)
        assert space.dim_z1 == len(nullspace(space.jacobian))
