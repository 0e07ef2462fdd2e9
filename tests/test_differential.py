"""Second routes for the word-level paths, on all three module kinds.

The prefix-walk Jacobian row is compared with the group-ring Fox derivative,
and the right-to-left cocycle walk with the linear map of ``word_row`` (on
any vector, not only on cocycles). The standard module's action is compared
with the representation in ``test_modules.py``.
"""

import random
from fractions import Fraction

import pytest

from bendlab.cohomology import cocycle_eval
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

