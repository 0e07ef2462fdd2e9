import math
import random
from fractions import Fraction

import pytest

from bendlab.complexes import (Angle, BendingComplex, Binding, Incidence,
                               bending_dimension, build_system)
from bendlab.linalg import FloatMatrix, RationalMatrix, rref_rank
from helpers import pythagorean_pair

RIGHT_ANGLES = ["0", "pi/2", "pi", "3pi/2"]

PYTH = [("1", "0"), ("3/5", "4/5"), ("-4/5", "3/5"), ("-3/5", "-4/5"),
        ("4/5", "-3/5"), ("5/13", "12/13"), ("-12/13", "5/13"),
        ("8/17", "15/17")]


def cos_sin(angle):
    """The angle's (cos, sin) = (x/q, y/q): Fractions when exact, else floats."""
    if angle.exact:
        return Fraction(angle.x, angle.q), Fraction(angle.y, angle.q)
    return angle.x / angle.q, angle.y / angle.q


def double_angle(angle):
    """(cos 2theta, sin 2theta) from the angle's own (cos, sin) pair."""
    c, s = cos_sin(angle)
    return (c * c - s * s, 2 * c * s)


def single_binding(pairs, signs=None):
    walls = tuple(f"v{i}" for i in range(len(pairs)))
    signs = signs or [1] * len(pairs)
    incs = tuple(Incidence(walls[i], pairs[i], signs[i])
                 for i in range(len(pairs)))
    return BendingComplex(3, walls, (Binding("b", incs),))


def test_angle_names_and_pairs():
    a = Angle.named("pi/2")
    assert (a.x, a.y, a.q, a.exact) == (0, 1, 1, True)
    assert a != Angle.float_pair(0.0, 1.0)
    with pytest.raises(ValueError):
        Angle.named("pi/3")
    with pytest.raises(ValueError):
        Angle.exact_pair(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(TypeError, match="floats are not exact"):
        Angle.exact_pair(1.0, 0.0)
    good = Angle.exact_pair(Fraction(3, 5), Fraction(4, 5))
    assert double_angle(good) == (Fraction(-7, 25), Fraction(24, 25))


def test_angle_json_roundtrip():
    for a in (Angle.named("3pi/2"), Angle.exact_pair(Fraction(3, 5), Fraction(4, 5)),
              Angle.float_pair(math.cos(0.7), math.sin(0.7))):
        again = Angle.from_json(a.to_json())
        assert again.exact == a.exact
        if a.exact:
            assert again == a
        else:
            assert math.isclose(again.x, a.x) and math.isclose(again.y, a.y)


def test_binding_normalization_enforced():
    with pytest.raises(ValueError):
        Binding("b", (Incidence("w", Angle.named("pi/2")),))
    with pytest.raises(ValueError):
        Binding("b", (Incidence("w", Angle.named("0"), -1),))


def test_complex_rejects_unknown_wall():
    with pytest.raises(ValueError):
        BendingComplex(3, ("w1",), (Binding("b", (Incidence("w2", Angle.named("0")),)),))


def test_right_angle_binding_so_rows():
    cx = single_binding([Angle.named(n) for n in RIGHT_ANGLES])
    system = build_system(cx, "so")
    assert system.to_rows() == [[1, 0, -1, 0], [0, 1, 0, -1]]
    report = bending_dimension(cx, "so")
    assert report.nullity == 2 and report.exact


def test_borromean_subcomplex_single_relation(bundle):
    system = build_system(bundle.complex, "so")
    red, rank, _ = rref_rank(system)
    assert rank == 1
    assert list(red.row(0)) == [0, 1, -1, 0]
    report = bending_dimension(bundle.complex, "so")
    assert report.nullity == 3
    assert report.naive_bound == 4 - 2 * 3 == -2
    assert report.equal_weights_solve


def test_empty_complex():
    cx = BendingComplex(3, ("w1",))
    system = build_system(cx, "so")
    assert system.shape == (0, 1)
    assert bending_dimension(cx, "so").nullity == 1


def test_isolated_wall_adds_one_to_nullity(bundle):
    bigger = BendingComplex(3, bundle.complex.walls + ("w5",),
                            bundle.complex.bindings)
    for geometry in ("so", "sl"):
        before = bending_dimension(bundle.complex, geometry).nullity
        after = bending_dimension(bigger, geometry).nullity
        assert after == before + 1


@pytest.mark.parametrize("k", range(3, 13))
def test_roots_of_unity_equal_weights(k):
    angles = [Angle.float_pair(math.cos(t), math.sin(t))
              for t in (2 * math.pi * j / k for j in range(k))]
    if k == 4:
        angles = [Angle.named(n) for n in RIGHT_ANGLES]
    cx = single_binding(angles)
    report = bending_dimension(cx, "so")
    assert report.equal_weights_solve
    assert report.exact == (k == 4)


def test_equal_weights_match_the_row_sums():
    cases = [single_binding([Angle.named(n) for n in RIGHT_ANGLES])]
    cases += [single_binding([Angle.exact_pair(Fraction(c), Fraction(s))
                              for c, s in PYTH[:k]]) for k in range(2, 9)]
    seen = set()
    for cx in cases:
        for geometry in ("so", "sl"):
            system = build_system(cx, geometry)
            want = all(v == 0 for v in system.matvec([1] * system.cols))
            assert bending_dimension(cx, geometry).equal_weights_solve == want
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("k", range(4, 9))
def test_pythagorean_nullities(k):
    angles = [Angle.exact_pair(Fraction(c), Fraction(s)) for c, s in PYTH[:k]]
    cx = single_binding(angles)
    so = bending_dimension(cx, "so")
    sl = bending_dimension(cx, "sl")
    assert so.exact and sl.exact
    assert so.nullity == k - 2
    assert sl.nullity == k - 3


def test_sl_row_identity_and_sign_use():
    angles = [Angle.exact_pair(Fraction(c), Fraction(s)) for c, s in PYTH[:5]]
    doubled = [double_angle(a) for a in angles]
    cx = single_binding(angles)
    system = build_system(cx, "sl")
    # per incidence: s, s cos 2theta and s sin 2theta
    assert system.to_rows() == [[Fraction(1)] * 5, [c2 for c2, _ in doubled],
                                [s2 for _, s2 in doubled]]

    signs = [1, -1, 1, -1, 1]
    flipped = single_binding(angles, signs=signs)
    system2 = build_system(flipped, "sl")
    assert system2.to_rows() == [[Fraction(s) for s in signs],
                                 [s * c2 for s, (c2, _) in zip(signs, doubled)],
                                 [s * s2 for s, (_, s2) in zip(signs, doubled)]]


def test_so_ignores_signs():
    angles = [Angle.exact_pair(Fraction(c), Fraction(s)) for c, s in PYTH[:5]]
    base = single_binding(angles)
    flipped = single_binding(angles, signs=[1, -1, -1, 1, -1])
    assert build_system(base, "so") == build_system(flipped, "so")
    assert (bending_dimension(base, "so").nullity
            == bending_dimension(flipped, "so").nullity)


def test_rank_nullity_over_geometries(bundle):
    for geometry in ("so", "sl"):
        system = build_system(bundle.complex, geometry)
        _, rank, _ = rref_rank(system)
        report = bending_dimension(bundle.complex, geometry)
        assert rank + report.nullity == len(bundle.complex.walls)
        assert report.nullity >= report.naive_bound


MIXED = "mixed exact and float angles; falling back to the float backend"


def test_mixed_angles_warn_and_fall_back_to_float():
    pairs = [Angle.exact_pair(1, 0), Angle.float_pair(math.cos(2.0), math.sin(2.0)),
             Angle.float_pair(math.cos(4.0), math.sin(4.0))]
    cx = single_binding(pairs)
    assert isinstance(build_system(cx, "so"), FloatMatrix)
    report = bending_dimension(cx, "so")
    assert not report.exact and report.warnings == [MIXED]
    # the warning is in the report and its document, after the tolerance
    assert list(report.to_json())[-2:] == ["rank_tolerance", "warnings"]
    floats = bending_dimension(single_binding([Angle.float_pair(1.0, 0.0)] + pairs[1:]), "so")
    assert not floats.exact and floats.warnings == [] and "warnings" not in floats.to_json()
    # an exact angle enters the float rows as float(Fraction(x, q)), bit for bit
    exact = [Angle.exact_pair(1, 0), Angle.exact_pair("-12/13", "5/13"),
             Angle.exact_pair("4/5", "-3/5"), Angle.exact_pair("8/17", "15/17")]
    mixed = single_binding(exact + [Angle.float_pair(math.cos(2.0), math.sin(2.0))])
    rows = build_system(mixed, "so").entries
    assert bending_dimension(mixed, "so").warnings == [MIXED]
    assert rows[:4] == [float(Fraction(a.x, a.q)) for a in exact]
    assert rows[5:9] == [float(Fraction(a.y, a.q)) for a in exact]


def test_complex_json_roundtrip(bundle):
    doc = bundle.complex.to_json()
    again = BendingComplex.from_json(doc)
    assert again == bundle.complex
    assert isinstance(build_system(again, "so"), RationalMatrix)


def fraction_system(cx, geometry, exact=True):
    """The closure rows from the closed formulas (so: cos, sin; sl: s,
    s cos 2theta, s sin 2theta), summed entry by entry in ``Fraction`` (or,
    for ``exact=False``, float) arithmetic: the reference for the integer
    rows of ``build_system``."""
    idx = {w: k for k, w in enumerate(cx.walls)}
    nw = len(cx.walls)
    zero = Fraction(0) if exact else 0.0
    rows = []
    for binding in cx.bindings:
        block = [[zero] * nw for _ in range(2 if geometry == "so" else 3)]
        for inc in binding.incidences:
            if geometry == "so":
                coeffs = cos_sin(inc.angle)
            else:
                c2, s2 = double_angle(inc.angle)
                coeffs = (inc.sign, inc.sign * c2, inc.sign * s2)
            for row, x in zip(block, coeffs):
                row[idx[inc.wall]] += x
        rows.extend(block)
    return rows


def paper_sl_blocks(cx):
    """Per binding, the paper's sl rows s(a + b cos 2theta),
    s(a - b cos 2theta) and s(b sin 2theta), with a = (1-n)/2 and
    b = (1+n)/2, in ``Fraction`` arithmetic."""
    idx = {w: k for k, w in enumerate(cx.walls)}
    n = cx.dimension
    a, b = Fraction(1 - n, 2), Fraction(1 + n, 2)
    blocks = []
    for binding in cx.bindings:
        block = [[Fraction(0)] * len(cx.walls) for _ in range(3)]
        for inc in binding.incidences:
            c2, s2 = double_angle(inc.angle)
            coeffs = (inc.sign * (a + b * c2), inc.sign * (a - b * c2),
                      inc.sign * (b * s2))
            for row, x in zip(block, coeffs):
                row[idx[inc.wall]] += x
        blocks.append(block)
    return blocks


def seeded_complex(rng, n, nwalls):
    """Pythagorean angles of mixed heights (and some named angles), both
    signs, and walls drawn with replacement, so that one wall can meet a
    binding more than once."""
    walls = tuple(f"w{k}" for k in range(nwalls))
    bindings = []
    for b in range(rng.randint(1, 6)):
        incs = [Incidence(rng.choice(walls), Angle.named("0"))]
        for _ in range(rng.randint(1, 7)):
            angle = (Angle.named(rng.choice(RIGHT_ANGLES)) if rng.random() < 0.15
                     else Angle.exact_pair(*pythagorean_pair(rng, rng.choice((4, 16, 64, 1000)))))
            incs.append(Incidence(rng.choice(walls), angle, rng.choice((1, -1))))
        bindings.append(Binding(f"b{b}", tuple(incs)))
    return BendingComplex(n, walls, tuple(bindings))


@pytest.mark.parametrize("n", range(2, 7))
def test_integer_rows_equal_the_fraction_formulas(n):
    rng = random.Random(800 + n)
    repeated = 0
    for _ in range(40):
        cx = seeded_complex(rng, n, rng.randint(2, 12))
        repeated += any(len({i.wall for i in b.incidences}) < len(b.incidences)
                        for b in cx.bindings)
        for geometry in ("so", "sl"):
            ref = fraction_system(cx, geometry)
            system = build_system(cx, geometry)
            assert system == RationalMatrix(len(ref), len(cx.walls),
                                            [x for r in ref for x in r])
            assert system.to_rows() == ref
            twin = BendingComplex(n, cx.walls, tuple(
                Binding(b.name, tuple(Incidence(i.wall, Angle.float_pair(
                    i.angle.x / i.angle.q, i.angle.y / i.angle.q), i.sign) for i in b.incidences))
                for b in cx.bindings))
            approx = build_system(twin, geometry)
            flat = [x for r in fraction_system(twin, geometry, exact=False) for x in r]
            assert (approx.rows, approx.cols) == system.shape
            assert all(math.isclose(x, y, rel_tol=1e-15, abs_tol=1e-15)
                       for x, y in zip(approx.entries, flat, strict=True))
    assert repeated >= 10


@pytest.mark.parametrize("geometry", ["so", "sl"])
def test_integer_rows_of_named_angles_and_no_bindings(geometry):
    cx = single_binding([Angle.named(n) for n in RIGHT_ANGLES], signs=[1, -1, 1, -1])
    ref = fraction_system(cx, geometry)
    assert build_system(cx, geometry).to_rows() == ref
    for n in range(2, 7):
        empty = BendingComplex(n, ("w1", "w2"))
        assert build_system(empty, geometry) == RationalMatrix.zeros(0, 2)


def same_row_space(xs, ys):
    """True when the row lists xs and ys span the same rational row space."""
    rank = RationalMatrix.from_rows(xs + ys).rank()
    return RationalMatrix.from_rows(xs).rank() == rank == RationalMatrix.from_rows(ys).rank()


@pytest.mark.parametrize("n", range(2, 7))
def test_balanced_sl_rows_span_the_paper_rows(n):
    # a = (1-n)/2 and b = (1+n)/2 are nonzero for n >= 2, so each binding's
    # balanced rows and the paper's rows are invertible combinations
    rng = random.Random(900 + n)
    repeated = flipped = named = 0
    for _ in range(40):
        cx = seeded_complex(rng, n, rng.randint(2, 12))
        incs = [i for b in cx.bindings for i in b.incidences]
        repeated += any(len({i.wall for i in b.incidences}) < len(b.incidences)
                        for b in cx.bindings)
        flipped += any(i.sign == -1 for i in incs)
        named += any(i.angle.to_json() in RIGHT_ANGLES[1:] for i in incs)
        system = build_system(cx, "sl").to_rows()
        paper = paper_sl_blocks(cx)
        for k, block in enumerate(paper):
            assert same_row_space(system[3 * k:3 * k + 3], block)
        stacked = [row for block in paper for row in block]
        assert same_row_space(system, stacked)
        assert (bending_dimension(cx, "sl").nullity
                == len(cx.walls) - RationalMatrix.from_rows(stacked).rank())
    assert min(repeated, flipped, named) >= 10


def spelled(rng, f: Fraction) -> str:
    """``f`` as text the way a hand-written file might spell it: reduced,
    unreduced, signed, padded, or as a decimal when it has one."""
    style = rng.randrange(5)
    if style == 1:
        k = rng.randint(2, 9)
        return f"{f.numerator * k}/{f.denominator * k}"
    if style == 2:
        return ("+" if f >= 0 else "") + str(f)
    if style == 3:
        return f" {f} "
    if style == 4 and 10**6 % f.denominator == 0:
        return str(f.numerator * 10**6 // f.denominator / 10**6)  # exact for |f| <= 1
    return str(f)


def fraction_route(cos: str, sin: str):
    """The reference reading of an angle: both texts through ``Fraction``,
    then the circle check with its message, as (x, y, q) or the error."""
    c, s = Fraction(cos), Fraction(sin)
    if s.denominator != c.denominator or c * c + s * s != 1:
        return ValueError(f"cos^2 + sin^2 != 1 for ({c}, {s})")
    return c.numerator, s.numerator, c.denominator


def test_int_reader_matches_the_fraction_route():
    rng = random.Random(2525)
    bad = 0
    for _ in range(400):
        c, s = pythagorean_pair(rng, rng.choice((4, 16, 64)))
        if rng.random() < 0.25:  # off the circle, or over two denominators
            c, s = rng.choice([(c + Fraction(1, c.denominator), s), (c, s / 2),
                               (Fraction(c.numerator, 7 * c.denominator), s)])
        if rng.random() < 0.05:
            cos, sin = f"{c.numerator}/0", spelled(rng, s)
        else:
            cos, sin = spelled(rng, c), spelled(rng, s)
        try:
            want = fraction_route(cos, sin)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                Angle.from_json({"cos": cos, "sin": sin})
            continue
        if isinstance(want, ValueError):
            bad += 1
            with pytest.raises(ValueError) as caught:
                Angle.from_json({"cos": cos, "sin": sin})
            assert str(caught.value) == str(want)
        else:
            assert Angle.from_json({"cos": cos, "sin": sin}) == Angle(*want, True)
        texts = [[cos, sin, spelled(rng, c)], [spelled(rng, s), "0/5", "-0"]]
        assert (RationalMatrix.from_json(texts)
                == RationalMatrix.from_rows([[Fraction(t) for t in row] for row in texts]))
    assert bad >= 50
