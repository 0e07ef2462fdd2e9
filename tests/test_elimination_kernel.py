"""The integer elimination kernel against a Fraction reference.

``linalg`` eliminates on Python ints and divides with ``//``, which is only
right while every division is exact. The reference below is plain
Gauss-Jordan on ``Fraction`` entries (the algorithm ``linalg`` used before
the integer kernel), with the same first-nonzero pivot rule; since the RREF is
unique, every result must agree exactly, including on rank-deficient, empty,
zero-row, zero-column, negative-pivot and 60+-bit inputs.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendlab.linalg import RationalMatrix, in_column_space, nullspace, rref_rank


def ref_rref(rows):
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def ref_nullspace(rows, cols):
    red, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def ref_solve(rows, cols, b):
    red, pivots = ref_rref([list(r) + [x] for r, x in zip(rows, b)])
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return tuple(x)


def ref_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def ref_inverse(rows):
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = ref_rref(aug)
    if sum(1 for p in pivots if p < n) < n:
        return None
    return [r[n:] for r in red[:n]]


def check_against_reference(rows, cols):
    """Every exact entry point of ``linalg`` equals the Fraction reference."""
    rows = [[Fraction(x) for x in r] for r in rows]
    m = RationalMatrix(len(rows), cols, [x for r in rows for x in r])
    red, rank, pivots = rref_rank(m)
    ref_red, ref_pivots = ref_rref(rows)
    assert red.to_rows() == ref_red and pivots == ref_pivots and rank == len(ref_pivots)
    assert nullspace(m) == ref_nullspace(rows, cols)
    b = [Fraction(i * i - 3, i + 1) for i in range(len(rows))]
    assert in_column_space(m, b) == ref_solve(rows, cols, b)
    if rows:  # an image of m is always reached
        x = [Fraction(j + 1, 2) for j in range(cols)]
        sol = in_column_space(m, m.matvec(x))
        assert sol == ref_solve(rows, cols, m.matvec(x)) and m.matvec(sol) == m.matvec(x)
    if len(rows) == cols:
        assert m.det() == ref_det(rows)
        ref_inv = ref_inverse(rows)
        if ref_inv is None:
            with pytest.raises(ValueError):
                m.inverse()
        else:
            assert m.inverse().to_rows() == ref_inv


def random_rows(rng, nr, nc, bits=4, density=0.6, dens=(1, 2, 3, 7)):
    def entry():
        if rng.random() > density:
            return Fraction(0)
        top = 1 << bits
        return Fraction(rng.randint(-top, top), rng.choice(dens))
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if nr >= 2 and rng.random() < 0.4:  # force a dependent row
        i, j = rng.sample(range(nr), 2)
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        rows[j] = [k * a + b for a, b in zip(rows[i], rows[(i + 1) % nr])]
    return rows


def test_seeded_matrices_match_reference():
    rng = random.Random(2024)
    for _ in range(400):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.3:
            nc = nr
        check_against_reference(random_rows(rng, nr, nc, density=rng.random()), nc)


def test_wide_entries_match_reference():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 6)
        nc = n if rng.random() < 0.5 else rng.randint(1, 8)
        rows = random_rows(rng, n, nc, bits=rng.randint(60, 130),
                           dens=(1, 3, (1 << 61) - 1, 10**19 + 7))
        check_against_reference(rows, nc)


@pytest.mark.parametrize("rows,cols", [
    ([], 0),                                   # 0x0
    ([], 4),                                   # no rows
    ([[], [], []], 0),                         # no columns
    ([[0, 0, 0], [0, 0, 0]], 3),               # zero matrix
    ([[0, 0, 0], [1, 2, 3], [0, 0, 0]], 3),    # zero rows around a pivot
    ([[0, 1, 2], [0, 3, 4]], 3),               # zero first column
    ([[1, 2, 0, 3], [2, 4, 0, 6], [0, 0, 0, 1]], 4),  # rank deficient
    ([[-3, 1], [5, -2]], 2),                   # negative pivots
    ([[0, -2, 1], [-1, 0, 4], [2, 3, 0]], 3),  # swap, then negative pivots
    ([[1, 1], [1, 1]], 2),                     # singular square
    ([[Fraction(-1, 3), Fraction(2, 5)], [Fraction(7, 2), Fraction(-9, 4)]], 2),
    ([[2**64 + 1, -(2**63)], [3**41, 2**62 - 7]], 2),
])
def test_edge_cases_match_reference(rows, cols):
    check_against_reference(rows, cols)


def test_det_of_empty_and_scaled_matrices():
    assert RationalMatrix.zeros(0, 0).det() == 1
    m = RationalMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(-1, 3)]])
    assert m.det() == Fraction(-1, 6)


entries = st.one_of(st.integers(-(2**70), 2**70),
                    st.fractions(max_denominator=2**62).filter(lambda q: abs(q) < 2**64),
                    st.just(0))


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_hypothesis_matrices_match_reference(nr, nc, data):
    flat = data.draw(st.lists(entries, min_size=nr * nc, max_size=nr * nc))
    rows = [flat[i * nc:(i + 1) * nc] for i in range(nr)]
    check_against_reference(rows, nc)
