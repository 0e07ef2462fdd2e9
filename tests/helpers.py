"""Fixture readers, seeded draws and the error-line bound shared by the test
modules: each caller passes its own seeded ``random.Random``, generators,
length and height."""

import json
from fractions import Fraction

from bendlab.fixtures import DATA
from bendlab.words import Word

# the most bytes one "error: ..." line may take, however long the input it quotes
ERROR_LINE_BYTES = 400


def bundled_json(name):
    """The bundled data file ``name``, parsed."""
    return json.loads((DATA / name).read_text())


def rand_word(rng, gens, max_len):
    """The freely reduced word of up to ``max_len`` random letters over ``gens``."""
    return Word([(rng.choice(gens), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, max_len))])


def pythagorean_pair(rng, height):
    """cos and sin of an angle with both rational, as Fractions: Euclid's
    ((m^2 - n^2), 2mn) / (m^2 + n^2) for 0 < n < m <= height, the two
    possibly swapped, in a random quadrant."""
    m = rng.randint(2, height)
    n = rng.randint(1, m - 1)
    c, s = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
    if rng.random() < 0.5:
        c, s = s, c
    return rng.choice((1, -1)) * c, rng.choice((1, -1)) * s
