import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendlab import linalg
from bendlab.linalg import (MAX_EXPONENT, FloatMatrix, RationalMatrix, in_column_space,
                            nullspace, parse_rational, rank_of_vectors, rref_rank)


def mat(rows):
    return RationalMatrix.from_rows(rows)


def test_identity_rref():
    m = RationalMatrix.identity(3)
    red, rank, pivots = rref_rank(m)
    assert red == m
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_proportional_rows_rank_one():
    _, rank, _ = rref_rank(mat([[1, 2], [2, 4]]))
    assert rank == 1


def test_empty_matrix_rank_zero():
    _, rank, pivots = rref_rank(RationalMatrix.zeros(0, 3))
    assert rank == 0 and pivots == []
    assert len(nullspace(RationalMatrix.zeros(0, 3))) == 3


def test_nullspace_identity_empty():
    assert nullspace(RationalMatrix.identity(4)) == []


def test_nullspace_difference_row():
    basis = nullspace(mat([[1, -1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0


def test_in_column_space_identity():
    b = [Fraction(3), Fraction(-1, 2), Fraction(7)]
    assert in_column_space(RationalMatrix.identity(3), b) == tuple(b)


def test_in_column_space_zero_matrix():
    assert in_column_space(RationalMatrix.zeros(3, 2), [1, 0, 0]) is None


def test_in_column_space_dimension_mismatch():
    with pytest.raises(ValueError):
        in_column_space(RationalMatrix.identity(3), [1, 2])


def test_matrix_inverse_roundtrip():
    m = mat([[2, 1], [7, 4]])
    assert m * m.inverse() == RationalMatrix.identity(2)


def test_det_and_singular_inverse():
    assert mat([[2, 1], [7, 4]]).det() == 1
    assert mat([[1, 2], [2, 4]]).det() == 0
    with pytest.raises(ValueError):
        mat([[1, 2], [2, 4]]).inverse()


def _random_matrix(rng, rows, cols, span=5):
    return RationalMatrix(rows, cols,
                          [Fraction(rng.randint(-span, span), rng.randint(1, 3))
                           for _ in range(rows * cols)])


def test_rank_nullity_randomized():
    rng = random.Random(0)
    for _ in range(200):
        m = _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6))
        _, rank, _ = rref_rank(m)
        assert rank + len(nullspace(m)) == m.cols


def test_rref_idempotent_randomized():
    rng = random.Random(1)
    for _ in range(100):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, _, _ = rref_rank(m)
        red2, _, _ = rref_rank(red)
        assert red2 == red


def test_nullspace_vectors_are_killed():
    rng = random.Random(2)
    for _ in range(50):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for v in nullspace(m):
            assert all(x == 0 for x in m.matvec(v))


def test_row_order_gives_same_span():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)]
                for _ in range(4)]
        m1 = mat(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        m2 = mat(shuffled)
        ns1, ns2 = nullspace(m1), nullspace(m2)
        assert len(ns1) == len(ns2)
        # mutual membership of kernels
        joint = rank_of_vectors([list(v) for v in ns1 + ns2])
        assert joint == len(ns1)


def test_in_column_space_roundtrip_randomized():
    rng = random.Random(4)
    for _ in range(100):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [Fraction(rng.randint(-3, 3)) for _ in range(a.cols)]
        b = a.matvec(x)
        sol = in_column_space(a, b)
        assert sol is not None
        assert a.matvec(sol) == b


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=50, deadline=None)
def test_rank_bounded_by_shape(n, data):
    entries = data.draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
    m = RationalMatrix(n, n, [Fraction(e) for e in entries])
    _, rank, _ = rref_rank(m)
    assert 0 <= rank <= n


def test_float_rank_tolerance():
    m = FloatMatrix(2, 2, [1.0, 2.0, 1.0, 2.0 + 1e-12])
    assert m.rank() == 1
    m2 = FloatMatrix(2, 2, [1.0, 2.0, 1.0, 2.5])
    assert m2.rank() == 2


def reference_float_rank(m: FloatMatrix) -> int:
    """``FloatMatrix.rank`` with each pivot picked by ``max`` over the row
    indices with a key, which returns the first row of largest magnitude on
    ties; the elimination arithmetic is the same."""
    rows = [m.row(i) for i in range(m.rows)]
    thr = m._threshold()
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        piv = max(range(r, m.rows), key=lambda i: abs(rows[i][c]))
        if abs(rows[piv][c]) <= thr:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1.0 / rows[r][c]
        tail = rows[r][c:]
        for i in range(r + 1, m.rows):
            f = rows[i][c] * inv
            if f:
                rows[i][c:] = [a - f * b for a, b in zip(rows[i][c:], tail)]
        r += 1
    return r


def test_float_rank_with_tied_column_maxima():
    # rows 0 and 3 tie in column 0; row 0 pivots, which leaves 1.2e-9 above
    # the 1e-9 threshold in row 2, while pivoting on row 3 would leave only
    # 1e-9 entries and rank 1
    tie = FloatMatrix(4, 2, [-1.0, 1e-9, 0.0, 1e-9, 0.2, 1e-9, 1.0, 0.0])
    assert tie.rank() == reference_float_rank(tie) == 2
    rng = random.Random(29)
    values = (-1.0, 1.0, -0.5, 0.5, 0.0, 2e-10, -3e-9, 0.1 + 0.2, 0.3)
    for _ in range(300):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = FloatMatrix(rows, cols, [rng.choice(values) for _ in range(rows * cols)])
        assert m.rank() == reference_float_rank(m), m.entries


def test_float_rank_tolerance_must_be_positive():
    for tol in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            FloatMatrix(1, 1, [1.0], rank_tolerance=tol)


def test_float_kills_vector():
    m = FloatMatrix(2, 2, [1.0, -1.0, 0.5, -0.5])
    assert m.kills_vector([1.0, 1.0])
    assert not m.kills_vector([1.0, 0.0])


def test_rational_serialization_roundtrip():
    m = mat([[Fraction(-3, 7), 2], [0, Fraction(5)]])
    assert m.to_json() == [["-3/7", "2"], ["0", "5"]]
    assert RationalMatrix.from_json(m.to_json()) == m


def test_json_floats_and_small_exponents_still_load():
    m = RationalMatrix.from_json([[1e-05, 0.5, 2], ["3e2", "-1.5E-3", "7/4"]])
    assert m.to_rows() == [[Fraction(1, 100000), Fraction(1, 2), 2],
                           [300, Fraction(-3, 2000), Fraction(7, 4)]]
    assert parse_rational(f"1e{MAX_EXPONENT}") == (10**MAX_EXPONENT, 1)
    assert (parse_rational(f"2.5e-{MAX_EXPONENT}")
            == Fraction(5, 2 * 10**MAX_EXPONENT).as_integer_ratio())


# every way one exact value comes into a RationalMatrix, each giving it back
READERS = {
    "RationalMatrix": lambda x: RationalMatrix(1, 1, [x])[0, 0],
    "from_rows": lambda x: RationalMatrix.from_rows([[x]])[0, 0],
    "from_json": lambda x: RationalMatrix.from_json([[x]])[0, 0],
    "column": lambda x: RationalMatrix.column([x])[0, 0],
    "scale": lambda x: RationalMatrix.identity(1).scale(x)[0, 0],
    "matvec": lambda x: RationalMatrix.identity(1).matvec([x])[0],
}


class NoFraction(Fraction):
    """Stands in for ``Fraction`` in linalg where none may be built."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError(f"built a Fraction from {args!r}")


@pytest.mark.parametrize("text", ["1e10000000", "1E-10000000", f"1e{MAX_EXPONENT + 1}",
                                  "-2.5e+1_000_000 ", "1e" + "9" * 5000])
def test_huge_exponents_are_rejected_before_fraction_expands_them(text, monkeypatch):
    monkeypatch.setattr(linalg, "Fraction", NoFraction)
    with pytest.raises(ValueError):
        parse_rational(text)
    for read in READERS.values():
        with pytest.raises(ValueError):
            read(text)


# Fraction(str)'s grammar differs between interpreters (3.10 rejects "3_0/5",
# 3.12 and later accept "3 / 5"), so the reader is held to the running one's
READER_CORPUS = ["3/5", "-12", "10/4", "+3/5", " 3/5 ", "3 / 5", "3_0/5", "\u0663/5", "0.6",
                 "6e-1", "1/0", "3/-5", "-0/7", "007/3", "3/5\n", "", "/5", "3/", "-", "1//2",
                 "6/10", "-6/10", "+6/10", " 6/10", "0/5", "-0", "00/01", "3/0", "1/-5"]


@pytest.mark.parametrize("text", READER_CORPUS + [pytest.param("7" * 5000 + "/3",
                                                               id="5000-digit numerator")])
def test_reader_agrees_with_fraction(text):
    try:
        want = Fraction(text)
    except Exception as exc:  # the reader must raise the same type
        with pytest.raises(type(exc)):
            parse_rational(text)
    else:  # the lowest-terms pair of ints, denominator positive
        p, q = parse_rational(text)
        assert type(p) is int and type(q) is int and (p, q) == (want.numerator, want.denominator)


@pytest.mark.parametrize("text", READER_CORPUS + [pytest.param("7" * 5000 + "/3",
                                                               id="5000-digit numerator")])
def test_every_constructor_reads_text_like_fraction(text):
    try:
        want = Fraction(text)  # the reference route
    except Exception as exc:
        for read in READERS.values():
            with pytest.raises(type(exc)):
                read(text)
    else:
        for name, read in READERS.items():
            assert read(text) == want, name


def test_ints_and_fractions_are_their_own_pairs_and_floats_are_refused():
    assert parse_rational(-12) == (-12, 1)
    assert parse_rational(True) == (1, 1)
    for x in (Fraction(-6, 10), Fraction(0), Fraction(7 ** 40, 3 ** 30)):
        assert parse_rational(x) == (x.numerator, x.denominator)
        for name, read in READERS.items():
            if name != "from_json":  # which reads str(x)
                assert read(x) == x, name
    message = "floats are not exact; use FloatMatrix or pass a string"
    for read in [parse_rational] + [r for n, r in READERS.items() if n != "from_json"]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            read(0.5)
    with pytest.raises(TypeError, match=re.escape(message)):
        RationalMatrix(1, 2, ["1/2", 0.5])
    assert RationalMatrix(1, 3, [1, Fraction(2, 3), "-4/6"]).to_numerators() == ((3, 2, -2), 3)
