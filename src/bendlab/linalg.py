"""Exact dense linear algebra over arbitrary-precision rationals.

``RationalMatrix`` entries are ``fractions.Fraction``. All exact elimination
(rank, RREF, nullspace, solve, inverse, det) runs in one fraction-free kernel
on Python ints, :func:`_eliminate`; ``Fraction`` appears only at its boundary.
A small float backend exists only for systems whose coefficients are not
rational (bending complexes with non-exact angles); its ranks are
tolerance-based and flagged as approximate by callers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

DEFAULT_FLOAT_TOLERANCE = 1e-9


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; use FloatMatrix or pass a string")
    return Fraction(x)


class RationalMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(_frac(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def from_rows(cls, data) -> "RationalMatrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, [x for r in data for x in r])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def column(cls, vec) -> "RationalMatrix":
        vec = list(vec)
        return cls(len(vec), 1, vec)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._e[i * self.cols + j]

    def row(self, i) -> tuple[Fraction, ...]:
        return self._e[i * self.cols:(i + 1) * self.cols]

    def col(self, j) -> tuple[Fraction, ...]:
        return tuple(self._e[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(self.rows, self.cols,
                              [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix(self.rows, self.cols,
                              [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix(self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self._e, other._e
        out = [Fraction(0)] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for t in range(k):
                av = arow[t]
                if av:
                    brow = b[t * m:(t + 1) * m]
                    base = i * m
                    for j in range(m):
                        if brow[j]:
                            out[base + j] += av * brow[j]
        return RationalMatrix(n, m, out)

    def matvec(self, vec) -> tuple[Fraction, ...]:
        vec = [_frac(x) for x in vec]
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * v for a, v in zip(self.row(i), vec) if v), Fraction(0))
                     for i in range(self.rows))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              [self._e[i * self.cols + j]
                               for j in range(self.cols) for i in range(self.rows)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    def hstack(self, *others: "RationalMatrix") -> "RationalMatrix":
        """Join ``self`` and ``others`` side by side, building the result once."""
        blocks = (self, *others)
        if any(b.rows != self.rows for b in others):
            raise ValueError("row count mismatch")
        return RationalMatrix(self.rows, sum(b.cols for b in blocks),
                              [x for i in range(self.rows) for b in blocks for x in b.row(i)])

    def vstack(self, *others: "RationalMatrix") -> "RationalMatrix":
        """Stack ``self`` above ``others``, building the result once."""
        blocks = (self, *others)
        if any(b.cols != self.cols for b in others):
            raise ValueError("column count mismatch")
        return RationalMatrix(sum(b.rows for b in blocks), self.cols,
                              [x for b in blocks for x in b._e])

    def submatrix(self, row_range, col_range) -> "RationalMatrix":
        rr, cc = list(row_range), list(col_range)
        return RationalMatrix(len(rr), len(cc),
                              [self[i, j] for i in rr for j in cc])

    def power(self, k: int) -> "RationalMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse().power(-k)
        out = RationalMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "RationalMatrix":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = self.hstack(RationalMatrix.identity(n))
        red, _, pivots = rref_rank(aug)
        if sum(1 for p in pivots if p < n) < n:
            raise ValueError("matrix is singular")
        return red.submatrix(range(n), range(n, 2 * n))

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        _, _, pivots, last, sign, scales = _eliminate(self)
        if len(pivots) < self.rows:
            return Fraction(0)
        # the last Bareiss pivot is det(diag(scales) * self), up to the swaps
        return Fraction(sign * last, prod(scales))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in self.row(i)) + "]"
                         for i in range(self.rows))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # serialization: rationals as "p/q" strings ("p" when q = 1)
    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data) -> "RationalMatrix":
        return cls.from_rows([[Fraction(str(x)) for x in row] for row in data])


def _eliminate(m: RationalMatrix):
    """Fraction-free Gauss-Jordan on Python ints (Bareiss 1968), pivoting on
    the first nonzero entry in column order, after scaling each row by the lcm
    of its denominators. A pivot ``p`` replaces each row with ``f != 0`` in its
    column by ``(p*a - f*b) // den``: ``den`` is the pivot that last updated
    the row, whose true Bareiss value ``row * prev / den`` is an integer minor
    (Sylvester's identity), so the division is exact. Rows with ``f == 0``
    stay stale until they pivot. Returns (rows, dens, pivots, last pivot, swap
    sign, row scales); the RREF is ``row / den``.
    """
    nr, nc = m.rows, m.cols
    scales = [lcm(*(x.denominator for x in m.row(i))) for i in range(nr)]
    rows = [[x.numerator * (s // x.denominator) for x in m.row(i)]
            for i, s in enumerate(scales)]
    dens = [1] * nr
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            dens[r], dens[piv] = dens[piv], dens[r]
            sign = -sign
        if dens[r] != prev:
            d = dens[r]
            rows[r] = [a * prev // d for a in rows[r]]
        prow = rows[r]
        p = prow[c]
        for i in range(nr):
            row = rows[i]
            f = row[c]
            if f and i != r:
                d = dens[i]
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                dens[i] = p
        dens[r] = prev = p
        pivots.append(c)
        r += 1
    return rows, dens, pivots, prev, sign, scales


def rref_rank(m: RationalMatrix) -> tuple[RationalMatrix, int, list[int]]:
    """Row-reduced echelon form, rank, and pivot columns, all exact.

    Pivot selection: first nonzero entry in column order. Deterministic.
    The elimination runs on integers (:func:`_eliminate`); each row is
    divided by its pivot once, at the end.
    """
    rows, dens, pivots, _, _, _ = _eliminate(m)
    zero = Fraction(0)
    entries = [Fraction(a, d) if a else zero for row, d in zip(rows, dens) for a in row]
    return RationalMatrix(m.rows, m.cols, entries), len(pivots), pivots


def nullspace(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel; count = cols - rank. Deterministic."""
    red, rank, pivots = rref_rank(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(tuple(v))
    return basis


def in_column_space(a: RationalMatrix, b) -> tuple[Fraction, ...] | None:
    """Coefficients x with a*x = b, or None if b is outside the column space.

    Returns the first solution from RREF back-substitution (free variables 0).
    """
    b = [_frac(x) for x in b]
    if len(b) != a.rows:
        raise ValueError(f"vector length {len(b)} != row count {a.rows}")
    aug = a.hstack(RationalMatrix.column(b))
    red, rank, pivots = rref_rank(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    x = [Fraction(0)] * a.cols
    for r, p in enumerate(pivots):
        x[p] = red[r, a.cols]
    return tuple(x)


def rank_of_vectors(vectors) -> int:
    """Rank of a list of equal-length rational vectors."""
    return rref_rank(RationalMatrix.from_rows(vectors))[1]


class FloatMatrix:
    """Dense float matrix with a tolerance-based rank, for non-exact angles."""

    __slots__ = ("rows", "cols", "entries", "rank_tolerance")

    def __init__(self, rows, cols, entries, rank_tolerance=DEFAULT_FLOAT_TOLERANCE):
        if rank_tolerance <= 0:
            raise ValueError("rank_tolerance must be positive")
        entries = [float(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count mismatch")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.rank_tolerance = rank_tolerance

    @classmethod
    def from_rows(cls, data, rank_tolerance=DEFAULT_FLOAT_TOLERANCE):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, [x for r in data for x in r], rank_tolerance)

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _threshold(self) -> float:
        big = max((abs(x) for x in self.entries), default=0.0)
        return self.rank_tolerance * max(1.0, big)

    def rank(self) -> int:
        """Column-pivoted elimination; entries below the relative threshold
        count as zero."""
        m = [self.row(i) for i in range(self.rows)]
        thr = self._threshold()
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            piv = max(range(r, self.rows), key=lambda i: abs(m[i][c]), default=None)
            if piv is None or abs(m[piv][c]) <= thr:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1.0 / m[r][c]
            for i in range(r + 1, self.rows):
                f = m[i][c] * inv
                if f:
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return r

    def nullity(self) -> int:
        return self.cols - self.rank()

    def kills_vector(self, vec) -> bool:
        """True when m*vec vanishes within the relative tolerance."""
        thr = self._threshold()
        for i in range(self.rows):
            s = sum(a * v for a, v in zip(self.row(i), vec))
            if abs(s) > thr:
                return False
        return True
