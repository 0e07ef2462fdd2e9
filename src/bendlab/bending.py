"""Centralizer algebras of wall subgroups, normalized bending generators,
first-order HNN bending, tangent cocycles, and the trace-derivative matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import RationalMatrix, nullspace
from .modules import CoefficientModule
from .reps import FirstOrderRep, Representation, first_order_evaluate
from .words import Presentation, Word, parse_word, shown

# the coefficient module that carries each geometry's tangent cocycles
MODULE_KIND = {"sl": "nu", "so_ext": "standard"}
GEOMETRIES = tuple(MODULE_KIND)


@dataclass(frozen=True)
class BendingDatum:
    """A wall subgroup (generators of its pi_1), the HNN stable letter (one
    generator with exponent +1), and the target geometry. The datum is the
    one place that knows its geometry: :meth:`base` picks the representation
    that its centralizer and its bending live in."""

    name: str
    subgroup: tuple[Word, ...]
    stable_letter: Word
    geometry: str

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        letters = self.stable_letter.letters
        if len(letters) != 1 or letters[0][1] != 1:
            raise ValueError(f"stable letter {shown(self.stable_letter)} is not a single "
                             "generator with exponent +1")

    @classmethod
    def from_json(cls, data: dict, presentation: Presentation,
                  geometry: str) -> "BendingDatum":
        if not (isinstance(data, dict) and isinstance(data.get("subgroup"), list)):
            raise ValueError('a wall is a JSON object with a "subgroup" list of words')
        gens = presentation.generators
        return cls(data.get("name", "?"),
                   tuple(parse_word(w, gens) for w in data["subgroup"]),
                   parse_word(data["stable"], gens), geometry)

    def base(self, rep: Representation) -> Representation:
        """The representation this wall bends: ``rep`` itself for sl, its
        embedding preserving Q + (1) for so_ext."""
        return rep if self.geometry == "sl" else rep.embedded_in_extension()


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def centralizer_generator(rep: Representation, datum: BendingDatum) -> RationalMatrix:
    """The normalized generator of the one-dimensional centralizer of the wall
    subgroup W in the ambient algebra: sl(n+1) = so(Q) + nu for sl, and
    so(Q + 1) = so(Q) + R^{n,1} for so_ext, with Q of size n+1.

    W lies in O(Q), so both splittings are into W-modules, and the centralizer
    is W's H^0 in ``adjoint`` plus its H^0 in the geometry's tangent module
    (``MODULE_KIND``), each the kernel of that module's coboundary map over
    the wall words. A vector nu in R^{n,1} enters so(Q + 1) as the last column
    of [[0, nu], [-nu^T Q, 0]], the column :func:`tangent_cocycle` reads.
    sl: eigenvalues (-n, 1 x n), pinned by (v + nI)(v - I) = 0 with trace 0;
    so_ext: v^3 = -v with v != 0, sign fixed so the first nonzero row-major
    entry is positive.
    """
    parts = [(kind, vec) for kind in ("adjoint", MODULE_KIND[datum.geometry])
             for vec in nullspace(rep.module(kind).coboundary_map(datum.subgroup))]
    if len(parts) != 1:
        raise ValueError(f"centralizer dimension {len(parts)} != 1")
    (kind, vec), = parts
    n1 = rep.size
    basis = rep.module(kind).basis
    x0 = sum((b.scale(c) for b, c in zip(basis[1:], vec[1:])), basis[0].scale(vec[0]))
    if datum.geometry == "so_ext":
        zeros = RationalMatrix.zeros
        a = x0 if kind == "adjoint" else zeros(n1, n1)
        nu = x0 if kind == "standard" else zeros(n1, 1)
        x0 = a.hstack(nu).vstack((-nu.transpose() * rep.form.matrix).hstack(zeros(1, 1)))
    t2 = (x0 * x0).trace()
    if datum.geometry == "sl":
        n = n1 - 1
        if t2 <= 0:
            raise ValueError("degenerate centralizer element (tr v^2 <= 0)")
        c = sqrt_fraction(Fraction(n * n + n) / t2)
        if c is None:
            raise ValueError("sl normalization scale is irrational for this datum")
        ident = RationalMatrix.identity(n1)
        for s in (c, -c):
            v = x0.scale(s)
            if ((v + ident.scale(n)) * (v - ident)).is_zero():
                return v
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
    return v


def hnn_first_order(rep: Representation, datum: BendingDatum,
                    v: RationalMatrix) -> FirstOrderRep:
    """First-order HNN bending of ``datum.base(rep)`` by the generator v: the
    stable letter's derivative is v * rho(g), every other generator is
    constant. A v of the wrong size raises ValueError in that product."""
    gen = datum.stable_letter.letters[0][0]
    if gen not in rep.presentation.generators:
        raise ValueError(f"stable letter {gen!r} is not a presentation generator")
    base = datum.base(rep)
    return FirstOrderRep(base, {gen: v * base.images[gen]})


def tangent_cocycle(fo: FirstOrderRep, module: CoefficientModule) -> tuple[Fraction, ...]:
    """Generator values of the deformation cocycle c(g) = E(g) M(g)^-1,
    read in the module's coordinates and stacked.

    The module kind picks the geometry by ``MODULE_KIND``, and the base's
    form is Q for sl and Q + (1) for so_ext. "nu" for sl (base size n+1):
    sl(n+1) = so(Q) + nu, and c(g) is read as the nu coordinates of its
    Q-self-adjoint half (c + Q^-1 c^T Q) / 2; a c with nonzero trace has no
    coordinates there and raises ValueError. "standard" for so_ext (base
    size n+2): c(g) must lie in so(Q + 1) = so(Q) + R^{n,1}, and its R^{n,1}
    part is the first n+1 entries of its last column. The result is
    checked to vanish on every relator of the presentation.
    """
    rep = module.rep
    geometry = next((g for g, kind in MODULE_KIND.items() if kind == module.kind), None)
    if geometry is None:
        raise ValueError(f"no tangent cocycles in module kind {module.kind!r}")
    if fo.base.size != rep.size + (geometry == "so_ext"):
        raise ValueError(f"{module.kind} coefficients need an {geometry}-geometry "
                         "first-order rep")
    form, n1 = fo.base.form, rep.size
    coords: list[Fraction] = []
    for g in rep.presentation.generators:
        if fo.derivative[g].is_zero():  # a constant generator: c(g) = 0
            coords.extend([Fraction(0)] * module.dimension)
            continue
        c = fo.derivative[g] * fo.base.image(g, -1)
        if geometry == "sl":
            c_adj = form.inverse * c.transpose() * form.matrix
            coords.extend(module.to_coordinates((c + c_adj).scale(Fraction(1, 2))))
            continue
        if not (c.transpose() * form.matrix + form.matrix * c).is_zero():
            raise ValueError("tangent vector is not in so(Q + 1)")
        coords.extend(c[i, n1] for i in range(n1))
    if any(any(module.cocycle_value(coords, r)) for r in rep.presentation.relators):
        raise ValueError("bending data does not define a first-order deformation "
                         "(tangent vector fails the cocycle condition)")
    return tuple(coords)


def trace_derivative_matrix(first_orders, words) -> RationalMatrix:
    """Entry (i, j): the first-order trace change tr E(w_i) of words[i] under
    the first-order representation first_orders[j].

    For so_ext bendings the matrix is zero: the reflection in the original
    hyperplane (diag(1, ..., 1, -1) on Q + (1)) fixes the base and, since
    the wall has no centralizer in so(Q), negates v. So it carries the
    bending at t to the bending at -t; every trace is even in t, and its
    first-order change vanishes."""
    columns = [[first_order_evaluate(fo, w)[1].trace() for w in words]
               for fo in first_orders]
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
