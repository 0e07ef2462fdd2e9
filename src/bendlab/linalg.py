"""Exact dense linear algebra over arbitrary-precision rationals.

A ``RationalMatrix`` is laid out like FLINT's ``fmpq_mat``: Python int
numerators over one positive denominator, in lowest terms (the zero matrix has
denominator 1), so equal matrices have equal fields. Products, sums, scaling,
stacking and slicing run on the ints and reduce once. Products with
``0 < k*m <= KERNEL_TERMS`` run a straight-line kernel compiled once per
shape on first use (:func:`_kernel`), 1.9-2.8x faster than the
``sum(map(mul, ...))`` loop at the 4x4 to 9x9 sizes the module walks use;
its source, compile time (1.7 ms at 16x16) and ``+`` chains grow with k*m,
so larger and empty shapes run the loop. All exact elimination
(rank, RREF, nullspace, solve, inverse, det) runs in one fraction-free kernel,
:func:`_eliminate`, which first divides each row by its content (the gcd of its
numerators): over the shared denominator, rows of very different heights made
Bareiss 9x slower on high-height closure systems. Its Gauss-Jordan pass runs
only where a reduced form is read (``rref_rank``, ``nullspace``,
``in_column_space``, ``inverse``); ``rank``, ``rank_of_vectors``, ``det`` and
``echelon`` run its echelon-only pass, which never reduces above the pivot.
``rank`` eliminates the shorter side (the transpose of a tall matrix) and
takes the columns with the most zeros first, since a rank depends on
neither; everything that reads pivot columns keeps the order.
Every exact value that comes in (text, int or ``Fraction``) is read to
lowest-terms ints by :func:`parse_rational`. ``Fraction`` appears only on the
way out: entries, rows, ``to_json``, ``trace``, ``det`` and the vectors of
``matvec``, ``nullspace`` and ``in_column_space``; int callers use
``to_numerators`` and ``from_numerators``.
A small float backend exists only for systems whose coefficients are not
rational (bending complexes with non-exact angles); its ranks are
tolerance-based, take the sparsest columns first too, and are flagged as
approximate by callers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm, prod
from operator import itemgetter, mul

from .words import shown

DEFAULT_FLOAT_TOLERANCE = 1e-9
KERNEL_TERMS = 256  # largest k*m multiplied by a compiled kernel; see _product
MAX_EXPONENT = 4300  # Python's default limit on the digits of an int string
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(x) -> tuple[int, int]:
    """The exact rational ``x`` as its lowest-terms ints ``(p, q)``, ``q > 0``;
    an int or a ``Fraction`` is its own pair, and a float is a ``TypeError``.
    Text of the form ``-?[0-9]+(/[0-9]+)?`` is read as two ints over their
    gcd; other text goes through ``Fraction``, except that text in exponent
    notation whose exponent exceeds ``MAX_EXPONENT`` in size is a ``ValueError``:
    ``Fraction`` would first build ``10**exponent``, seconds for ``"1e10000000"``."""
    if isinstance(x, str):
        m = _PLAIN.fullmatch(x)
        p, q = (int(m[1]), int(m[2] or 1)) if m else (0, 0)
        if q:  # over 0, Fraction raises its error
            g = gcd(p, q)
            return p // g, q // g
        if "e" in x or "E" in x:
            m = _EXPONENT.search(x)
            if m and abs(int(m[1])) > MAX_EXPONENT:
                raise ValueError(f"exponent beyond {MAX_EXPONENT} in {shown(x)}")
    elif type(x) is int:
        return x, 1
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    elif isinstance(x, float):
        raise TypeError("floats are not exact; use FloatMatrix or pass a string")
    try:
        return Fraction(x).as_integer_ratio()
    except ValueError as exc:  # Fraction quotes all of x
        raise ValueError(str(exc).replace(repr(x), shown(x))) from None
    except ZeroDivisionError as exc:  # "Fraction(N, 0)", with all of N
        n = str(exc).removeprefix("Fraction(").removesuffix(", 0)")
        raise ZeroDivisionError(f"Fraction({shown(n, str)}, 0)") from None


def _common(xs) -> tuple[list[int], int]:
    """Numerators of the exact rationals ``xs``, read by :func:`parse_rational`,
    over their least common denominator, and that denominator."""
    pairs = list(map(parse_rational, xs))
    d = lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


@lru_cache(maxsize=64)
def _kernel(k: int, m: int):
    """The product of a flat row-major n x k int matrix ``a`` (any n) and a
    flat k x m ``b``, as straight-line code compiled on first use: ``b``
    unpacked into locals once per call, then per row of ``a`` one tuple of m
    unrolled dot products ``a0*b0 + a1*b{m} + ...``. The generated source
    holds only index-named identifiers, never any input."""
    dots = ", ".join(" + ".join(f"a{p} * b{p * m + j}" for p in range(k)) for j in range(m))
    row = ", ".join(f"a{p}" for p in range(k))
    source = (f"def kernel(a, b):\n"
              f"    {', '.join(f'b{t}' for t in range(k * m))}, = b\n"
              f"    out = []\n"
              f"    rows = iter(a)\n"
              f"    for {row}, in zip({'rows, ' * k}):\n"
              f"        out += ({dots},)\n"
              f"    return out\n")
    scope: dict = {}
    exec(source, scope)
    return scope["kernel"]


def _product(a, b, n: int, k: int, m: int) -> list[int]:
    """The flat row-major n x m product of the flat int matrices ``a``
    (n x k) and ``b`` (k x m): a compiled :func:`_kernel` when
    ``0 < k*m <= KERNEL_TERMS``, else the plain loop (see the module docstring)."""
    if 0 < k * m <= KERNEL_TERMS:
        return _kernel(k, m)(a, b)
    arows = [a[i * k:(i + 1) * k] for i in range(n)]
    bcols = [b[j::m] for j in range(m)]
    return [sum(map(mul, r, c)) for r in arows for c in bcols]


class RationalMatrix:
    """Immutable dense rational matrix, row-major: int numerators ``_n`` over
    one positive denominator ``_d``, in lowest terms."""

    __slots__ = ("rows", "cols", "_n", "_d")

    def __init__(self, rows: int, cols: int, entries):
        nums, d = _common(entries)
        if len(nums) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(nums)}")
        self.rows, self.cols, self._n, self._d = rows, cols, tuple(nums), d

    @classmethod
    def _of(cls, rows: int, cols: int, nums, d: int = 1) -> "RationalMatrix":
        """The matrix ``nums / d`` for ``d > 0``, reduced to lowest terms."""
        g = gcd(d, *nums)
        if g != 1:
            nums, d = [a // g for a in nums], d // g
        m = object.__new__(cls)
        m.rows, m.cols, m._n, m._d = rows, cols, tuple(nums), d
        return m

    @classmethod
    def from_numerators(cls, rows: int, cols: int, nums, d: int = 1) -> "RationalMatrix":
        """The matrix of the list ``nums`` of int numerators (row-major) over
        the positive int denominator ``d``."""
        if len(nums) != rows * cols or d <= 0:
            raise ValueError(f"need {rows * cols} numerators over a positive denominator")
        return cls._of(rows, cols, nums, d)

    def to_numerators(self) -> tuple[tuple[int, ...], int]:
        """The int numerators (row-major) and the positive denominator, in
        lowest terms: the inverse of :meth:`from_numerators`."""
        return self._n, self._d

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
        return cls._of(n, n, [int(i == j) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._of(rows, cols, [0] * (rows * cols))

    @classmethod
    def column(cls, vec) -> "RationalMatrix":
        vec = list(vec)
        return cls(len(vec), 1, vec)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return Fraction(self._n[i * self.cols + j], self._d)

    def row(self, i) -> tuple[Fraction, ...]:
        d = self._d
        return tuple(Fraction(a, d) for a in self._n[i * self.cols:(i + 1) * self.cols])

    def col(self, j) -> tuple[Fraction, ...]:
        return tuple(self[i, j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._d == other._d
                and self._n == other._n)

    def __hash__(self):
        return hash((self.rows, self.cols, self._n, self._d))

    def _plus(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """``self + sign * other`` for ``sign`` +-1."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        d = lcm(self._d, other._d)
        p, q = d // self._d, sign * (d // other._d)
        return RationalMatrix._of(self.rows, self.cols,
                                  [p * a + q * b for a, b in zip(self._n, other._n)], d)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(self.rows, self.cols, [-a for a in self._n], self._d)

    def scale(self, c) -> "RationalMatrix":
        p, q = parse_rational(c)
        return RationalMatrix._of(self.rows, self.cols, [p * a for a in self._n],
                                  self._d * q)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        return RationalMatrix._of(self.rows, other.cols,
                                  _product(self._n, other._n, self.rows, self.cols, other.cols),
                                  self._d * other._d)

    def matvec(self, vec) -> tuple[Fraction, ...]:
        xs, e = _common(vec)
        if len(xs) != self.cols:
            raise ValueError("vector length mismatch")
        d = self._d * e
        return tuple(Fraction(a, d) for a in _product(self._n, xs, self.rows, self.cols, 1))

    def transpose(self) -> "RationalMatrix":
        c = self.cols
        return RationalMatrix._of(c, self.rows,
                                  [a for j in range(c) for a in self._n[j::c]], self._d)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._n)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(self._n[::self.cols + 1]), self._d)

    def hstack(self, *others: "RationalMatrix") -> "RationalMatrix":
        """Join ``self`` and ``others`` side by side, building the result once."""
        blocks = (self, *others)
        if any(b.rows != self.rows for b in others):
            raise ValueError("row count mismatch")
        d = lcm(*(b._d for b in blocks))
        parts = [(b._n, b.cols, d // b._d) for b in blocks]
        return RationalMatrix._of(self.rows, sum(b.cols for b in blocks),
                                  [s * a for i in range(self.rows) for n, c, s in parts
                                   for a in n[i * c:(i + 1) * c]], d)

    def vstack(self, *others: "RationalMatrix") -> "RationalMatrix":
        """Stack ``self`` above ``others``, building the result once."""
        blocks = (self, *others)
        if any(b.cols != self.cols for b in others):
            raise ValueError("column count mismatch")
        d = lcm(*(b._d for b in blocks))
        return RationalMatrix._of(sum(b.rows for b in blocks), self.cols,
                                  [d // b._d * a for b in blocks for a in b._n], d)

    def submatrix(self, row_range, col_range) -> "RationalMatrix":
        rr, cc = list(row_range), list(col_range)
        if not all(0 <= i < self.rows for i in rr) or not all(0 <= j < self.cols for j in cc):
            raise IndexError((rr, cc))
        c = self.cols
        return RationalMatrix._of(len(rr), len(cc),
                                  [self._n[i * c + j] for i in rr for j in cc], self._d)

    def reshape(self, rows: int, cols: int) -> "RationalMatrix":
        """The same entries, row-major, in a ``rows`` x ``cols`` matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.shape} to {(rows, cols)}")
        return RationalMatrix._of(rows, cols, self._n, self._d)

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
        _, _, pivots, last, sign, contents = _eliminate(self, reduce=False)
        if len(pivots) < self.rows:
            return Fraction(0)
        # the last Bareiss pivot is det of the primitive rows, up to the swaps
        return Fraction(sign * last * prod(contents), self._d ** self.rows)

    def rank(self) -> int:
        """Exact rank, from an echelon-only pass of :func:`_eliminate` over
        the shorter side, rank(m) = rank(m^T), that takes the columns with
        the most zeros first (see :func:`_sparsest_first`)."""
        m = self.transpose() if self.rows > self.cols else self
        columns = _sparsest_first(m._n, m.cols)
        return len(_eliminate(m, reduce=False, columns=columns)[2])

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in self.row(i)) + "]"
                         for i in range(self.rows))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    # serialization: rationals as "p/q" strings ("p" when q = 1)
    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in self.row(i)] for i in range(self.rows)]

    @classmethod
    def from_json(cls, data) -> "RationalMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("a matrix is a JSON list of rows, each a list")
        return cls.from_rows([[str(x) for x in row] for row in data])


def _sparsest_first(entries, cols: int) -> list[int] | None:
    """The column indices of the row-major ``entries``, those with the most
    zeros first and in their order on ties, or None when that is
    ``range(cols)``. A rank does not depend on the column order; taking the
    sparsest columns first leaves the fewest rows to update at each pivot."""
    zeros = [entries[j::cols].count(0) for j in range(cols)]
    if all(a >= b for a, b in zip(zeros, zeros[1:])):
        return None
    return sorted(range(cols), key=zeros.__getitem__, reverse=True)  # stable


def _eliminate(m: RationalMatrix, reduce: bool = True, columns: list[int] | None = None):
    """Fraction-free elimination on the numerators (Bareiss 1968), after
    dividing each row by its content so that it is primitive. Columns are
    taken in order (see ``columns`` below); the pivot row is the candidate with the smallest nonzero
    |entry| in the column (the first on ties; the scan stops at +-1), which
    keeps the multipliers small: a closure system's +-1 rows pivot first.
    Any choice gives the same pivot columns, rank, RREF and det (the swap sign
    is tracked). A pivot ``p`` replaces each row with
    ``f != 0`` in its column by ``(p*a - f*b) // den``: ``den`` is the pivot
    that last updated the row, whose true Bareiss value ``row * prev / den`` is
    an integer minor (Sylvester's identity), so the division is exact. Rows
    with ``f == 0`` stay stale until they pivot.

    The rows from the pivot row down are zero left of the pivot column ``c``.
    With ``reduce`` (Gauss-Jordan) every other row is cleared in the pivot
    column; without it (echelon only) just the rows below, and only their
    entries from column ``c`` on. The pivots, last pivot and swap sign are the
    same either way. With ``columns``, a permutation of the columns, the pass
    runs on the matrix with its columns in that order, and ``pivots`` index
    that order.
    Returns (rows, dens, pivots, last pivot, swap sign, row contents); with
    ``reduce`` the RREF is ``row / den``.
    """
    nr, nc = m.rows, m.cols
    rows = [m._n[i * nc:(i + 1) * nc] for i in range(nr)]
    if columns is not None:
        take = itemgetter(*columns)
        rows = [take(row) for row in rows]
    contents = [gcd(*row) or 1 for row in rows]  # a zero row keeps content 1
    rows = [[a // g for a in row] for row, g in zip(rows, contents)]
    dens = [1] * nr
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(nc):
        if r == nr:
            break
        piv, best = None, 0
        for i in range(r, nr):
            a = rows[i][c]
            if a and (piv is None or abs(a) < best):
                piv, best = i, abs(a)
                if best == 1:
                    break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            dens[r], dens[piv] = dens[piv], dens[r]
            sign = -sign
        prow = rows[r]
        if dens[r] != prev:
            d = dens[r]
            prow[c:] = [a * prev // d for a in prow[c:]]
        p = prow[c]
        lo = 0 if reduce else c
        tail = prow[lo:]
        for i in range(0 if reduce else r + 1, nr):
            row = rows[i]
            f = row[c]
            if f and i != r:
                d = dens[i]
                row[lo:] = [(p * a - f * b) // d for a, b in zip(row[lo:], tail)]
                dens[i] = p
        dens[r] = prev = p
        pivots.append(c)
        r += 1
    return rows, dens, pivots, prev, sign, contents


def rref_rank(m: RationalMatrix) -> tuple[RationalMatrix, int, list[int]]:
    """Row-reduced echelon form, rank, and pivot columns, all exact.

    The pivot columns do not depend on which row :func:`_eliminate` pivots
    on (the one whose entry has least size), and the result is the unique
    RREF. The elimination runs on integers; each row is brought over one
    common denominator once, at the end.
    """
    rows, dens, pivots, _, _, _ = _eliminate(m)
    d = lcm(*dens[:len(pivots)])  # the rows below the rank are zero
    nums = [a * (d // den) for row, den in zip(rows, dens) for a in row]
    return RationalMatrix._of(m.rows, m.cols, nums, d), len(pivots), pivots


def echelon(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    """The nonzero rows of a row echelon form of ``m``, each an integer
    multiple of a combination of the rows of ``m``, and their pivot columns,
    from one echelon-only pass of :func:`_eliminate`. The rows span the row
    space of ``m`` but are not reduced above the pivots nor scaled to 1."""
    rows, _, pivots, _, _, _ = _eliminate(m, reduce=False)
    return RationalMatrix._of(len(pivots), m.cols,
                              [a for row in rows[:len(pivots)] for a in row]), pivots


def nullspace(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel; count = cols - rank. Deterministic."""
    red, rank, pivots = rref_rank(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(m.cols)]
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(tuple(v))
    return basis


def in_column_space(a: RationalMatrix, b) -> tuple[Fraction, ...] | None:
    """Coefficients x with a*x = b, or None if b is outside the column space.

    Returns the first solution from RREF back-substitution (free variables 0).
    """
    b = list(b)
    if len(b) != a.rows:
        raise ValueError(f"vector length {len(b)} != row count {a.rows}")
    red, rank, pivots = rref_rank(a.hstack(RationalMatrix.column(b)))
    if pivots and pivots[-1] == a.cols:
        return None
    x = dict(zip(pivots, red.col(a.cols)))
    return tuple(x.get(c, Fraction(0)) for c in range(a.cols))


def rank_of_vectors(vectors) -> int:
    """Rank of a list of equal-length rational vectors."""
    return RationalMatrix.from_rows(vectors).rank()


class FloatMatrix:
    """Dense float matrix with a tolerance-based rank, for non-exact angles."""

    __slots__ = ("rows", "cols", "entries", "rank_tolerance")

    def __init__(self, rows, cols, entries, rank_tolerance=DEFAULT_FLOAT_TOLERANCE):
        if not 0 < rank_tolerance < inf:  # also rejects nan
            raise ValueError("rank_tolerance must be positive and finite")
        self.rows, self.cols, self.rank_tolerance = rows, cols, rank_tolerance
        self.entries = list(map(float, entries))
        if len(self.entries) != rows * cols:
            raise ValueError("entry count mismatch")

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _threshold(self) -> float:
        big = max(map(abs, self.entries), default=0.0)
        return self.rank_tolerance * max(1.0, big)

    def rank(self) -> int:
        """Column-pivoted elimination, the columns with the most zeros first
        (see :func:`_sparsest_first`); entries below the relative threshold
        count as zero."""
        m = [self.row(i) for i in range(self.rows)]
        columns = _sparsest_first(self.entries, self.cols)
        if columns is not None:
            take = itemgetter(*columns)
            m = [list(take(row)) for row in m]
        thr = self._threshold()
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            col = [abs(row[c]) for row in m[r:]]
            big = max(col)
            if big <= thr:
                continue
            piv = r + col.index(big)
            m[r], m[piv] = m[piv], m[r]
            inv = 1.0 / m[r][c]
            tail = m[r][c:]  # entries left of c are never read again
            for i in range(r + 1, self.rows):
                f = m[i][c] * inv
                if f:
                    m[i][c:] = [a - f * b for a, b in zip(m[i][c:], tail)]
            r += 1
        return r

    def kills_vector(self, vec) -> bool:
        """True when m*vec vanishes within the relative tolerance."""
        thr = self._threshold()
        for i in range(self.rows):
            s = sum(a * v for a, v in zip(self.row(i), vec))
            if abs(s) > thr:
                return False
        return True
