"""Centralizer algebras of wall subgroups, normalized bending generators,
first-order HNN bending, tangent cocycles, and the trace-derivative matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import RationalMatrix, nullspace
from .modules import (CoefficientModule, _as_columns, adjoint_basis, nu_basis,
                      split_components)
from .reps import FirstOrderRep, Representation, first_order_evaluate
from .words import Presentation, Word, parse_word

GEOMETRIES = ("sl", "so_ext")


class CentralizerError(ValueError):
    def __init__(self, found_dim: int):
        self.found_dim = found_dim
        super().__init__(f"centralizer dimension {found_dim} != 1")


@dataclass(frozen=True)
class BendingDatum:
    """A wall subgroup (generators of its pi_1), the HNN stable letter, and
    the target geometry."""

    name: str
    subgroup: tuple[Word, ...]
    stable_letter: Word
    geometry: str

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")

    @classmethod
    def from_json(cls, data: dict, presentation: Presentation,
                  geometry: str) -> "BendingDatum":
        if not (isinstance(data, dict) and isinstance(data.get("subgroup"), list)):
            raise ValueError('a wall is a JSON object with a "subgroup" list of words')
        gens = presentation.generators
        return cls(data.get("name", "?"),
                   tuple(parse_word(w, gens) for w in data["subgroup"]),
                   parse_word(data["stable"], gens), geometry)


@dataclass(frozen=True)
class BendingGenerator:
    v: RationalMatrix
    geometry: str


def char_poly(m: RationalMatrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [1, c1, ..., ck] of det(xI - m),
    by the Faddeev-LeVerrier recursion (exact)."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    k = m.rows
    coeffs = [Fraction(1)]
    ident = RationalMatrix.identity(k)
    n_mat = m
    for i in range(1, k + 1):
        if i > 1:
            n_mat = m * (n_mat + ident.scale(coeffs[-1]))
        coeffs.append(-(n_mat.trace()) / i)
    return coeffs


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _centralizer_space(rep: Representation, datum: BendingDatum):
    """Basis of the wall subgroup's centralizer in the ambient algebra: the
    kernel of X -> (X m - m X) over the wall matrices m, with X written in the
    basis so(Q) + nu of sl(n+1) (sl) or so(Q + 1) (so_ext)."""
    if datum.geometry == "sl":
        base = rep
        algebra = adjoint_basis(rep.form) + nu_basis(rep.form)
    else:
        base = rep.embedded_in_extension()
        algebra = adjoint_basis(base.form)
    walls = [base.evaluate(w) for w in datum.subgroup]
    system = RationalMatrix.zeros(0, len(algebra)).vstack(
        *(_as_columns(x * m - m * x for x in algebra) for m in walls))
    columns, size = _as_columns(algebra), base.size
    return [(columns * RationalMatrix.column(c)).reshape(size, size)
            for c in nullspace(system)], size


def centralizer_generator(rep: Representation, datum: BendingDatum) -> BendingGenerator:
    """The normalized generator of the one-dimensional centralizer of the
    wall subgroup in the ambient algebra.

    sl: eigenvalues (-n, 1 x n), pinned by (v + nI)(v - I) = 0 with trace 0;
    so_ext: v^3 = -v with v != 0, sign fixed so the first nonzero row-major
    entry is positive.
    """
    basis, size = _centralizer_space(rep, datum)
    if len(basis) != 1:
        raise CentralizerError(len(basis))
    x0 = basis[0]
    t2 = (x0 * x0).trace()
    n = rep.ambient_dimension
    if datum.geometry == "sl":
        if t2 <= 0:
            raise ValueError("degenerate centralizer element (tr v^2 <= 0)")
        c = sqrt_fraction(Fraction(n * n + n) / t2)
        if c is None:
            raise ValueError("sl normalization scale is irrational for this datum")
        ident = RationalMatrix.identity(size)
        for s in (c, -c):
            v = x0.scale(s)
            if ((v + ident.scale(n)) * (v - ident)).is_zero():
                return BendingGenerator(v, "sl")
        raise ValueError("centralizer element has wrong eigenvalue structure")
    if t2 >= 0:
        raise ValueError("so_ext centralizer element is not elliptic (tr v^2 >= 0)")
    c = sqrt_fraction(Fraction(-2) / t2)
    if c is None:
        raise ValueError("so_ext normalization scale is irrational for this datum")
    v = x0.scale(c)
    first = next((e for i in range(v.rows) for e in v.row(i) if e), None)
    if first is not None and first < 0:
        v = -v
    if not (v * v * v + v).is_zero():
        raise ValueError("so_ext centralizer element does not satisfy v^3 = -v")
    return BendingGenerator(v, "so_ext")


def hnn_first_order(rep: Representation, datum: BendingDatum,
                    v: BendingGenerator) -> FirstOrderRep:
    """First-order HNN bending: the stable letter's derivative is v * rho(g),
    every other generator is constant. For so_ext the base is the embedded
    (n+2)-dimensional representation."""
    letters = datum.stable_letter.letters
    if len(letters) != 1 or letters[0][1] != 1:
        raise ValueError("stable letter must be a single presentation generator")
    gen = letters[0][0]
    if gen not in rep.presentation.generators:
        raise ValueError(f"stable letter {gen!r} is not a presentation generator")
    base = rep if datum.geometry == "sl" else rep.embedded_in_extension()
    if v.geometry != datum.geometry:
        raise ValueError("bending generator geometry does not match the datum")
    deriv = {gen: v.v * base.images[gen]}
    return FirstOrderRep(base, deriv)


def tangent_cocycle(fo: FirstOrderRep, module: CoefficientModule) -> tuple[Fraction, ...]:
    """Generator values of the deformation cocycle c(g) = E(g) M(g)^-1,
    projected to the module's complement coordinates and stacked.

    Requires module kind "nu" for sl geometry (base size n+1) or "standard"
    for so_ext geometry (base size n+2); the result is checked to vanish on
    every relator of the presentation.
    """
    rep = module.rep
    base_size = fo.base.size
    if module.kind == "nu":
        if base_size != rep.size:
            raise ValueError("nu coefficients need an sl-geometry first-order rep")
        ambient = "sl"
    elif module.kind == "standard":
        if base_size != rep.size + 1:
            raise ValueError("standard coefficients need an so_ext first-order rep")
        ambient = "so_ext"
    else:
        raise ValueError(f"no tangent cocycles in module kind {module.kind!r}")
    coords: list[Fraction] = []
    for g in rep.presentation.generators:
        c = fo.derivative[g] * fo.base.image(g, -1)
        split = split_components(c, rep.form, ambient)
        if ambient == "sl":
            coords.extend(module.to_coordinates(split.complement_part))
        else:
            coords.extend(split.complement_part)
    if any(any(module.cocycle_value(coords, r)) for r in rep.presentation.relators):
        raise ValueError("bending data does not define a first-order deformation "
                         "(tangent vector fails the cocycle condition)")
    return tuple(coords)


def trace_derivative_matrix(rep: Representation, data, words) -> RationalMatrix:
    """Entry (i, j): the first-order trace change of words[i] under the HNN
    bending for data[j]: tr E(w_i)."""
    columns = []
    for datum in data:
        if datum.geometry != "sl":
            raise ValueError("trace derivatives are defined for sl geometry")
        v = centralizer_generator(rep, datum)
        fo = hnn_first_order(rep, datum, v)
        columns.append([first_order_evaluate(fo, w)[1].trace() for w in words])
    return RationalMatrix(len(columns), len(words), [x for c in columns for x in c]).transpose()


def match_up_to_column_signs_and_scale(computed: RationalMatrix,
                                       reference: RationalMatrix):
    """Find one global rational scale and per-column signs with
    computed = scale * diag-signs * reference, entrywise. Returns
    (scale, signs) or None."""
    if computed.shape != reference.shape:
        return None
    ratios = []
    for j in range(reference.cols):
        i = next((i for i in range(reference.rows) if reference[i, j]), None)
        ratios.append(Fraction(0) if i is None else computed[i, j] / reference[i, j])
    scale = next((r for r in ratios if r), Fraction(1))
    signs = [1 if r in (0, scale) else -1 if r == -scale else 0 for r in ratios]
    n = reference.cols
    diag = RationalMatrix(n, n, [scale * signs[i] if i == j else 0
                                 for i in range(n) for j in range(n)])
    return (scale, signs) if all(signs) and reference * diag == computed else None
