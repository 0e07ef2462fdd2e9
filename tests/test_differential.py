"""Second routes for the word-level paths, on all three module kinds.

The prefix-walk Jacobian row is compared with the group-ring Fox derivative,
and the right-to-left cocycle walk with the linear map of ``word_row`` (on
any vector, not only on cocycles). The standard module's action is compared
with the representation in ``test_modules.py``.

The peripheral coboundary test (condition rows stacked under the Jacobian)
is compared with two other formulations: the condition rows restricted to a
Z^1 basis and ranked, and, per group, one auxiliary vector per group solved
for jointly with c. The cuspidal test is compared with solving
(I - mu; I - lambda) alpha = (c(mu); c(lambda)) directly, with the values
from the cocycle walk.
"""

import random
from fractions import Fraction

import pytest

from bendlab.cohomology import CocycleSpace, cocycle_eval, default_parabolic_words
from bendlab.linalg import (RationalMatrix, in_column_space, nullspace, rank_of_vectors,
                            rref_rank)
from bendlab.modules import CoefficientModule
from bendlab.words import Word, fox_derivative

KINDS = ("standard", "nu", "adjoint")


def seeded_words(seed, count, max_len=12):
    rng = random.Random(seed)
    gens = ("x", "y", "z")
    return [Word([(rng.choice(gens), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, max_len))])
            for _ in range(count)]


@pytest.mark.parametrize("kind", KINDS)
def test_word_row_blocks_are_fox_derivative_actions(kind, spaces, borromean):
    space = spaces[kind]
    d = space.d
    for w in seeded_words(31, 15) + list(borromean.relators):
        row = space.word_row(w)
        for k, gen in enumerate(borromean.generators):
            block = row.submatrix(range(d), range(k * d, (k + 1) * d))
            assert block == space.module.action(fox_derivative(w, gen)), (w, gen)


@pytest.mark.parametrize("kind", KINDS)
def test_cocycle_walk_matches_word_row(kind, spaces):
    space = spaces[kind]
    rng = random.Random(32)
    for w in seeded_words(33, 20, max_len=16):
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(space.g * space.d)]
        assert cocycle_eval(space, c, w) == space.word_row(w).matvec(c), w



def restricted_parabolic_dim(space, word_groups):
    """Condition rows from each group's left kernel, evaluated on the Z^1
    basis; PZ^1 is Z^1 minus the rank of the restricted vectors."""
    d, g = space.d, space.g
    ident = RationalMatrix.identity(d)
    rows = []
    for group in word_groups:
        a = RationalMatrix.zeros(0, d).vstack(
            *(ident - space.module.action(w) for w in group))
        r = RationalMatrix.zeros(0, g * d).vstack(*(space.word_row(w) for w in group))
        left = nullspace(a.transpose())
        if left:
            rows.extend((RationalMatrix.from_rows(left) * r).to_rows())
    if not rows:
        return space.dim_z1
    cond = RationalMatrix.from_rows(rows)
    return space.dim_z1 - rank_of_vectors([cond.matvec(z) for z in space.z1_basis])


def auxiliary_parabolic_dim(space, word_groups):
    """Unknowns (c, alpha_1, ..., alpha_k): Jc = 0 and, per group G and word
    w in G, c(w) - (I - w) alpha_G = 0. PZ^1 is the projection of that kernel
    to c, whose fibre is the product of the kernels of the stacked (I - w)."""
    d, n = space.d, space.g * space.d
    ident = RationalMatrix.identity(d)
    width = n + d * len(word_groups)
    blocks = [space.jacobian.hstack(RationalMatrix.zeros(space.jacobian.rows, width - n))]
    fibre = 0
    for k, group in enumerate(word_groups):
        a = RationalMatrix.zeros(0, d).vstack(
            *(ident - space.module.action(w) for w in group))
        fibre += d - rref_rank(a)[1]
        for w in group:
            blocks.append(space.word_row(w).hstack(
                RationalMatrix.zeros(d, k * d), space.module.action(w) - ident,
                RationalMatrix.zeros(d, width - n - (k + 1) * d)))
    system = blocks[0].vstack(*blocks[1:])
    return width - rref_rank(system)[1] - fibre


def walked_cuspidal_defect(space, c):
    """Per cusp: (I - mu; I - lambda) alpha = (c(mu); c(lambda)) solved directly,
    with the right-hand side from the cocycle walk."""
    ident = RationalMatrix.identity(space.d)
    value = space.module.cocycle_value
    out = []
    for mu, lam in space.presentation.cusps:
        a = (ident - space.module.action(mu)).vstack(ident - space.module.action(lam))
        rhs = list(value(c, mu)) + list(value(c, lam))
        out.append(in_column_space(a, rhs) is not None)
    return out


def random_groups(seed, count):
    rng = random.Random(seed)
    return [seeded_words(rng.randrange(10 ** 6), rng.randint(1, 3), max_len=6)
            for _ in range(count)]


def conjugated_space(rho, borromean, kind, seed):
    rng = random.Random(seed)
    gens = borromean.generators
    u = rho.image(rng.choice(gens), rng.choice((1, -1))) * rho.image(rng.choice(gens))
    boost = RationalMatrix.from_rows([[Fraction(5, 3), Fraction(4, 3), 0, 0],
                                      [Fraction(4, 3), Fraction(5, 3), 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]])
    conj = rho.conjugated(u * boost)
    return CocycleSpace(borromean, CoefficientModule(conj, kind))


def word_group_cases(borromean):
    return {"per_element": [[w] for w in default_parabolic_words(borromean)],
            "per_subgroup": [list(pair) for pair in borromean.cusps],
            "random": random_groups(34, 4),
            "none": []}


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_parabolic_kernel_dim_matches_other_formulations(kind, conjugated, spaces,
                                                         rho, borromean):
    space = (conjugated_space(rho, borromean, kind, 35) if conjugated
             else spaces[kind])
    seen = set()
    for name, groups in word_group_cases(borromean).items():
        dim = space.parabolic_kernel_dim(groups)
        assert dim == restricted_parabolic_dim(space, groups), name
        assert dim == auxiliary_parabolic_dim(space, groups), name
        seen.add(dim)
    assert space.dim_z1 in seen and len(seen) > 1  # both vacuous and binding cases


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_cuspidal_defect_matches_the_walked_solve(kind, conjugated, spaces, rho,
                                                  borromean):
    space = (conjugated_space(rho, borromean, kind, 36) if conjugated
             else spaces[kind])
    rng = random.Random(37)
    noise = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(space.g * space.d)] for _ in range(4)]
    outcomes = []
    for c in list(space.b1_basis) + list(space.z1_basis) + noise:
        got = space.cuspidal_defect(c)
        assert got == walked_cuspidal_defect(space, c), c
        outcomes.extend(got)
    assert all(all(space.cuspidal_defect(b)) for b in space.b1_basis)
    assert True in outcomes and False in outcomes
