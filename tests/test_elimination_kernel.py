"""The integer matrix layer against a Fraction reference.

``linalg`` stores int numerators over one common denominator, eliminates on
Python ints and divides with ``//``, which is only right while every division
is exact. The reference below is plain Gauss-Jordan on ``Fraction`` entries
(the algorithm ``linalg`` used before the integer kernel), pivoting on the
first nonzero entry where the kernel takes the entry of least size, plus plain
``Fraction`` loops for products, sums, scaling, stacking, slicing and
traces; since the RREF is unique, every result must agree exactly, including on rank-deficient, empty, zero-row,
zero-column, negative-pivot and 60+-bit inputs. Every result must also be in
the canonical form (denominator positive and coprime to the numerators, 1 for
zero), which is what makes ``==`` and ``hash`` exact. ``rank()`` and ``det``
run the kernel's echelon-only pass, which never reduces above the pivot; they
must equal the reference rank and the plain ``Fraction`` determinant loop.
``rank()`` (and ``FloatMatrix.rank``) take the columns with the most zeros
first, so they are checked on sparse matrices, with their columns shuffled,
and on branched closure systems, whose rows touch few of the wall columns.
``rank()`` ranks a tall matrix through its transpose, so it is checked on
tall and wide shapes against the reference and against its transpose.
Small integer products run compiled straight-line kernels; they are checked
against the ``sum(map(mul, ...))`` loop they replaced, on both sides of
``KERNEL_TERMS``, and the module cocycle walk against its per-letter
``Fraction`` formula.
"""

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bendlab.complexes import Angle, BendingComplex, Binding, Incidence, build_system
from bendlab.linalg import (KERNEL_TERMS, FloatMatrix, RationalMatrix, _eliminate, _kernel,
                            _product, _sparsest_first, echelon, in_column_space, nullspace,
                            rref_rank)
from bendlab.words import Word
from helpers import pythagorean_pair


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


def ref_mul(a, b, n):
    """Plain Fraction product of the row lists a (m x k) and b (k x n)."""
    return [[sum((x * y[j] for x, y in zip(r, b)), Fraction(0)) for j in range(n)]
            for r in a]


def as_matrix(rows, cols):
    return RationalMatrix(len(rows), cols, [x for r in rows for x in r])


def assert_canonical(m):
    assert m._d > 0 and gcd(m._d, *m._n) == 1
    assert m._d == 1 or any(m._n)
    assert len(m._n) == m.rows * m.cols


def check_arithmetic(rows, cols):
    """Every integer-backed operation equals its plain Fraction loop."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nr = len(rows)
    other = [[x - Fraction(j + 1, i + 2) for j, x in enumerate(r)] for i, r in enumerate(rows)]
    right = [[3 * rows[i][j] + Fraction(i - j, 5) for i in range(nr)] for j in range(cols)]
    a, o, t = as_matrix(rows, cols), as_matrix(other, cols), as_matrix(right, nr)
    square = ref_mul(rows, right, nr)
    results = {
        "+": (a + o, [[x + y for x, y in zip(r, s)] for r, s in zip(rows, other)]),
        "-": (a - o, [[x - y for x, y in zip(r, s)] for r, s in zip(rows, other)]),
        "neg": (-a, [[-x for x in r] for r in rows]),
        "scale": (a.scale(Fraction(-7, 3)), [[Fraction(-7, 3) * x for x in r] for r in rows]),
        "scale0": (a.scale(0), [[Fraction(0)] * cols for _ in rows]),
        "transpose": (a.transpose(), [[rows[i][j] for i in range(nr)] for j in range(cols)]),
        "a*t": (a * t, square),
        "t*a": (t * a, ref_mul(right, rows, cols)),
        "hstack": (a.hstack(o, a), [r + s + r for r, s in zip(rows, other)]),
        "vstack": (a.vstack(o, a), rows + other + rows),
        "submatrix": (a.submatrix(range(1, nr), range(0, cols, 2)),
                      [r[0::2] for r in rows[1:]]),
    }
    for name, (got, want) in results.items():
        assert got.to_rows() == want, name
        assert_canonical(got)
    x = [Fraction(j * j - 2, j + 3) for j in range(cols)]
    assert a.matvec(x) == tuple(sum((v * w for v, w in zip(r, x)), Fraction(0)) for r in rows)
    at = a * t
    assert at.trace() == sum((square[i][i] for i in range(nr)), Fraction(0))
    assert (at * at * at).to_rows() == ref_mul(ref_mul(square, square, nr), square, nr)
    assert at.det() == ref_det(square)
    # canonical form: equal values have equal fields, so == and hash agree
    assert a - a == RationalMatrix.zeros(nr, cols) and (a - a)._d == 1
    assert a.scale(2).scale(Fraction(1, 2)) == a
    assert hash(a.transpose().transpose()) == hash(a)
    if nr:
        left, right_t = (a * t) * a, a * (t * a)
        assert left == right_t and hash(left) == hash(right_t)


def check_against_reference(rows, cols):
    """Every exact entry point of ``linalg`` equals the Fraction reference."""
    rows = [[Fraction(x) for x in r] for r in rows]
    m = RationalMatrix(len(rows), cols, [x for r in rows for x in r])
    red, rank, pivots = rref_rank(m)
    ref_red, ref_pivots = ref_rref(rows)
    assert red.to_rows() == ref_red and pivots == ref_pivots and rank == len(ref_pivots)
    assert m.rank() == rank
    # the echelon-only pass finds the same pivots, last pivot and swap sign
    assert _eliminate(m, reduce=False)[2:5] == _eliminate(m)[2:5]
    # its rows: one per pivot, zero left of it, spanning the row space of m
    ech, ech_pivots = echelon(m)
    assert ech_pivots == pivots and ech.rows == rank
    assert all(ech[r, p] and not any(ech.row(r)[:p]) for r, p in enumerate(pivots))
    assert rref_rank(ech)[0].to_rows() == ref_red[:rank]
    assert RationalMatrix.from_numerators(m.rows, cols, *m.to_numerators()) == m
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
        rows = random_rows(rng, nr, nc, density=rng.random())
        check_against_reference(rows, nc)
        check_arithmetic(rows, nc)


def test_wide_entries_match_reference():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 6)
        nc = n if rng.random() < 0.5 else rng.randint(1, 8)
        rows = random_rows(rng, n, nc, bits=rng.randint(60, 130),
                           dens=(1, 3, (1 << 61) - 1, 10**19 + 7))
        check_against_reference(rows, nc)
        check_arithmetic(rows, nc)


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
    check_arithmetic(rows, cols)


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
    check_arithmetic(rows, nc)


def mixed_height_rows(rng, n, cols, spread):
    """Rows whose heights differ by ``spread`` bits or more: small integer rows
    next to rows over denominators of ``spread`` bits (the closure-system
    regime, where the common denominator inflates every short row)."""
    rows = []
    for i in range(n):
        if i % 2:
            den = rng.randrange(1 << spread, 1 << (spread + 8)) | 1
            rows.append([Fraction(rng.randint(-9, 9), den) for _ in range(cols)])
        else:
            rows.append([Fraction(rng.randint(-9, 9)) for _ in range(cols)])
    return rows


def test_mixed_height_det_and_rref_match_reference():
    rng = random.Random(100)
    for _ in range(40):
        n = rng.randint(2, 7)
        rows = mixed_height_rows(rng, n, n, rng.randint(100, 160))
        check_against_reference(rows, n)
        check_arithmetic(rows, n)
        wide = mixed_height_rows(rng, n, n + 3, 120)
        check_against_reference(wide, n + 3)


def test_rows_are_made_primitive_before_elimination():
    # over the shared 2^120-ish denominator every small row would carry 120
    # extra bits into each Bareiss pivot; divided by its content it carries none
    rng = random.Random(7)
    for _ in range(20):
        rows = mixed_height_rows(rng, 6, 6, 120)
        m = RationalMatrix.from_rows(rows)
        assert max(abs(a).bit_length() for a in m._n) > 120
        for reduce in (True, False):
            elim_rows, _, pivots, last, _, _ = _eliminate(m, reduce)
            widest = max(abs(a).bit_length() for r in elim_rows for a in r)
            assert widest < 60 and abs(last).bit_length() < 60


@pytest.mark.parametrize("rows", [
    [[6, 1, 2], [3, 5, 1], [1, 4, 7]],           # the +-1 entry comes last
    [[-4, 2, 0, 1], [2, 0, 3, 5], [-1, 7, 1, 0]],
    [[0, 9, 2], [0, -3, 4], [5, 6, 1]],           # least entry in a later column
    [[10, 4], [-2, 3], [6, 1], [-2, 5]],          # a tie: the first -2 pivots
    [[8, 2, 3], [4, 1, 1], [2, 5, 7]],            # singular after one step
])
def test_least_size_pivots_match_reference(rows):
    check_against_reference(rows, len(rows[0]))
    # the first echelon row is the (primitive) row of least size in column 0
    m = RationalMatrix.from_rows(rows)
    first = min((i for i in range(len(rows)) if rows[i][0]),
                key=lambda i: abs(rows[i][0]))
    assert echelon(m)[0].row(0) == tuple(Fraction(x) for x in rows[first])


def test_seeded_least_size_pivots_match_reference():
    # each column's first nonzero entry is the largest in size, so the rule
    # swaps at nearly every step
    rng = random.Random(404)
    for _ in range(120):
        nr, nc = rng.randint(2, 7), rng.randint(2, 7)
        if rng.random() < 0.5:
            nc = nr
        cols = [sorted((rng.choice((1, -1)) * rng.randint(0, 40) for _ in range(nr)),
                       key=abs, reverse=True) for _ in range(nc)]
        rows = [[cols[j][i] for j in range(nc)] for i in range(nr)]
        if rng.random() < 0.3:  # a dependent row
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        check_against_reference(rows, nc)


def test_sparsest_first_order():
    # zeros per column: 1, 2, 0, 2; the ties keep their order
    entries = [0, 0, 1, 5,
               2, 0, 3, 0,
               4, 6, 7, 0]
    assert _sparsest_first(entries, 4) == [1, 3, 0, 2]
    assert _sparsest_first([0, 1, 0, 2], 2) is None  # already sparsest first
    assert _sparsest_first([1.0, 2.0, 3.0, 4.0], 2) is None  # dense
    assert _sparsest_first([0.0, -0.0, 1.0, 0.0], 2) == [1, 0]  # -0.0 is a zero
    assert _sparsest_first([], 0) is None and _sparsest_first([3, 0], 1) is None


def shuffled_columns(rng, rows, cols):
    order = list(range(cols))
    rng.shuffle(order)
    return [[r[j] for j in order] for r in rows]


def test_sparse_ranks_match_reference_in_any_column_order():
    rng = random.Random(2026)
    reordered = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        rows = random_rows(rng, nr, nc, density=rng.uniform(0.1, 0.5))
        for j in rng.sample(range(nc), rng.randint(0, nc // 3)):  # zero columns
            for r in rows:
                r[j] = Fraction(0)
        for variant in (rows, shuffled_columns(rng, rows, nc)):
            m = as_matrix(variant, nc)
            order = _sparsest_first(m.to_numerators()[0], nc)
            assert m.rank() == len(ref_rref(variant)[1]), variant
            if order is not None:  # the pass runs on the columns in that order
                reordered += 1
                permuted = as_matrix([[r[j] for j in order] for r in variant], nc)
                assert (_eliminate(m, reduce=False, columns=order)[:3]
                        == _eliminate(permuted, reduce=False)[:3])
    assert reordered > 300  # most of these take a column order of their own


def test_ranks_of_tall_and_wide_matrices_match_reference():
    # rank() eliminates the shorter side: a tall matrix through its transpose
    rng = random.Random(2424)
    shapes = [(rng.randint(1, 14), rng.randint(1, 6)) for _ in range(80)]
    shapes += [(nc, nr) for nr, nc in shapes] + [(0, 4), (4, 0), (0, 0), (7, 7)]
    for nr, nc in shapes:
        rows = random_rows(rng, nr, nc, density=rng.uniform(0.2, 0.9))
        m = as_matrix(rows, nc)
        assert m.rank() == len(ref_rref(rows)[1]) == m.transpose().rank(), (nr, nc)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 0), (0, 1)])
def test_empty_ranks(shape):
    nr, nc = shape
    assert RationalMatrix.zeros(nr, nc).rank() == 0
    assert FloatMatrix(nr, nc, []).rank() == 0


def closure_complexes(rng):
    """A 24-36-wall complex with 3-8 incidences per binding at exact
    Pythagorean angles, and its twin with the same angles as floats."""
    walls = tuple(f"w{k}" for k in range(rng.choice((24, 28, 32, 36))))
    height = rng.choice((4, 16, 64))
    exact, floats = [], []
    for b in range(len(walls) * 3 // 10):
        incs, fincs = [], []
        for k, wall in enumerate(rng.sample(walls, rng.randint(3, 8))):
            c, s = (Fraction(1), Fraction(0)) if k == 0 else pythagorean_pair(rng, height)
            sign = 1 if k == 0 else rng.choice((1, -1))
            incs.append(Incidence(wall, Angle.exact_pair(c, s), sign))
            fincs.append(Incidence(wall, Angle.float_pair(float(c), float(s)), sign))
        exact.append(Binding(f"b{b}", tuple(incs)))
        floats.append(Binding(f"b{b}", tuple(fincs)))
    return BendingComplex(3, walls, tuple(exact)), BendingComplex(3, walls, tuple(floats))


def test_closure_system_ranks_match_reference():
    rng = random.Random(1968)
    for _ in range(10):
        cx, twin = closure_complexes(rng)
        for geometry in ("so", "sl"):
            system, approx = build_system(cx, geometry), build_system(twin, geometry)
            assert _sparsest_first(system.to_numerators()[0], system.cols) is not None
            rows = system.to_rows()
            rank = len(ref_rref(rows)[1])
            assert system.rank() == rank
            assert as_matrix(shuffled_columns(rng, rows, system.cols), system.cols).rank() == rank
            assert approx.rank() == rank


def loop_product(a, b, n, k, m):
    """The product loop the compiled kernels replaced: the flat n x m product
    of the flat row-major int matrices a (n x k) and b (k x m)."""
    arows = [a[i * k:(i + 1) * k] for i in range(n)]
    bcols = [b[j::m] for j in range(m)]
    return [sum(map(mul, r, c)) for r in arows for c in bcols]


def random_ints(rng, count):
    bits = rng.choice((1, 4, 20, 70))
    return [rng.randint(-(1 << bits), 1 << bits) if rng.random() < 0.8 else 0
            for _ in range(count)]


def test_products_match_the_loop_on_both_sides_of_the_bound():
    rng = random.Random(2323)
    shapes = [(rng.randint(0, 8), rng.randint(0, 20), rng.randint(0, 20)) for _ in range(286)]
    shapes += [(n, k, m) for n in (0, 3) for k, m in
               ((16, 16), (1, 256), (256, 1), (1, 257), (257, 1), (13, 20), (0, 5))]
    sides = set()
    for n, k, m in shapes:
        a, b = tuple(random_ints(rng, n * k)), tuple(random_ints(rng, k * m))
        want = loop_product(a, b, n, k, m)
        before = _kernel.cache_info()
        assert _product(a, b, n, k, m) == want, (n, k, m)
        after = _kernel.cache_info()
        compiled = 0 < k * m <= KERNEL_TERMS
        assert (after.hits + after.misses > before.hits + before.misses) == compiled
        sides.add(compiled)
        da, db = rng.choice((1, 3, (1 << 61) - 1)), rng.choice((1, 10**19 + 7))
        ma = RationalMatrix.from_numerators(n, k, a, da)
        mb = RationalMatrix.from_numerators(k, m, b, db)
        (an, ad), (bn, bd) = ma.to_numerators(), mb.to_numerators()
        got = ma * mb
        assert got == RationalMatrix.from_numerators(n, m, loop_product(an, bn, n, k, m), ad * bd)
        assert_canonical(got)
        x = random_ints(rng, k)
        assert ma.matvec(x) == tuple(Fraction(v, ad) for v in loop_product(an, x, n, k, 1))
    assert sides == {True, False}


def ref_cocycle_value(module, c, w):
    """c(w) by the per-letter formula on Fraction entries: c(g v) = c(g) + g.c(v),
    c(g^-1 v) = g^-1.(c(v) - c(g)), walking w from the right."""
    d = module.dimension
    at = {g: c[k * d:(k + 1) * d] for k, g in enumerate(module.rep.presentation.generators)}
    v = [Fraction(0)] * d
    for g, e in reversed(w.letters):
        if e == -1:
            v = [a - b for a, b in zip(v, at[g])]
        rows = module.evaluator.letters[g, e].to_rows()
        v = [sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in rows]
        if e == 1:
            v = [a + b for a, b in zip(v, at[g])]
    return tuple(v)


def test_cocycle_walk_matches_the_per_letter_formula(modules):
    rng = random.Random(4040)
    for kind, module in modules.items():
        gens = module.rep.presentation.generators
        for _ in range(12):
            c = [Fraction(rng.randint(-(1 << 40), 1 << 40), rng.choice((1, 2, 9, 2**31 - 1)))
                 for _ in range(module.dimension * len(gens))]
            w = Word([(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 40))])
            assert module.cocycle_value(c, w) == ref_cocycle_value(module, c, w), kind


def test_kernels_are_compiled_on_first_use_and_reused():
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import bendlab, bendlab.fixtures; "
             "print(bendlab.linalg._kernel.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
    a = RationalMatrix.from_rows([[i - j * j for j in range(4)] for i in range(4)])
    a * a
    before = _kernel.cache_info()
    for _ in range(3):
        a * a
    after = _kernel.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
