"""The cohomology engine: Z^1, B^1, H^1, H^0, parabolic and cuspidal
subspaces, and class-span dimensions, all via Fox Jacobians and exact ranks.

A cocycle is a map c with c(uv) = c(u) + u.c(v), stored by its values on the
generators as one stacked (g*d)-vector. Coboundaries are c(w) = (I - w).a.
The parabolic subspace PZ^1 imposes c(w) in im(I - w) for listed words (one
auxiliary vector per word); the cuspidal subspace shares one auxiliary vector
per cusp across its meridian and longitude.

Both reduce to one test: c restricted to a group of words is a coboundary
there when the stacked values (c(w))_w lie in the image of the stacked map
A = [I - w]_w, i.e. are killed by its left kernel. That left kernel is the
nullspace of A^T, read in closed form off the RREF of A^T, and it times the
stacked ``word_row``s gives exact condition rows over c. PZ^1 is the kernel
of those rows stacked under the Fox Jacobian: one rank, on the H^1
coordinates only, since the rows vanish on coboundaries. A cusp is
cuspidal-trivial when its rows kill c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .linalg import RationalMatrix, echelon, rref_rank
from .modules import CoefficientModule
from .reps import is_parabolic
from .words import Presentation, Word, shown

MODES = ("none", "per_element", "per_subgroup")


class CocycleSpace:
    """The Fox Jacobian J of a presentation with module coefficients, whose
    kernel is Z^1, and the coboundary map delta, whose columns span B^1.
    Every dimension is an echelon rank of one of the two.

    A cocycle is fixed by its entries at J's free columns. dim B^1 is the
    rank of delta^T taken with those free columns first; the free columns
    that do not pivot there are the H^1 coordinates, which together with
    B^1 span Z^1. Coboundaries meet every group's condition (alpha = a), so
    the parabolic conditions are ranked on the H^1 coordinates alone. That
    needs B^1 inside Z^1, which holds when the representation kills its
    relators. dim Z^1, dim B^1 and dim H^0 do not depend on it; on a
    representation that fails validation dim PZ^1 has no meaning (the CLI
    refuses one before computing)."""

    def __init__(self, presentation: Presentation, module: CoefficientModule):
        self.presentation = presentation
        self.module = module
        self.d = module.dimension
        self.g = len(presentation.generators)
        self.jacobian = RationalMatrix.zeros(0, self.g * self.d).vstack(
            *(self.word_row(r) for r in presentation.relators))
        self.coboundary_map = module.coboundary_map(
            [Word.generator(g) for g in presentation.generators])
        self._echelon, self._pivots = echelon(self.jacobian)  # J's RREF starts from it
        free = [c for c in range(self.jacobian.cols) if c not in self._pivots]
        _, taken = echelon(self.coboundary_map.submatrix(
            free + self._pivots, range(self.d)).transpose())
        self.dim_z1 = len(free)
        self.dim_b1 = len(taken)
        self.dim_h0 = self.d - self.dim_b1
        self.dim_h1 = self.dim_z1 - self.dim_b1
        self._h1 = [c for k, c in enumerate(free) if k not in taken]  # H^1 coordinates
        self._conditions = {}  # tuple(group) -> its coboundary conditions
        self._kernel = None  # J's RREF R at the H^1 coordinates

    def word_row(self, w: Word) -> RationalMatrix:
        """d x (g*d) matrix evaluating c(w) from generator values: block i is
        the action of the Fox derivative dw/dx_i.

        Every Fox term is a prefix action, read by position from the
        module's walk of the word (see :meth:`_row_and_action`).
        """
        return self._row_and_action(w)[0]

    def _row_and_action(self, w: Word):
        """``word_row(w)`` and the action of w, both from one walk of the
        word. Letter k (0-based) adds prefix k if it is a generator and takes
        prefix k+1 away if it is an inverse; the action is the last prefix.
        Each block sums its generator's signed prefixes on their numerators
        over one common denominator, and the row is built once from them."""
        d = self.d
        prefixes = list(self.module.evaluator.walk(w.letters))
        terms = {g: [] for g in self.presentation.generators}  # (sign, numerators, den)
        for k, (g, e) in enumerate(w.letters):
            terms[g].append((e, *prefixes[k if e == 1 else k + 1].to_numerators()))
        den = lcm(*(q for signed in terms.values() for _, _, q in signed))
        blocks = []
        for signed in terms.values():
            block = [0] * (d * d)
            for e, nums, q in signed:
                s = e * (den // q)
                block = [a + s * b for a, b in zip(block, nums)]
            blocks.append(block)
        row = [a for r in range(0, d * d, d) for block in blocks for a in block[r:r + d]]
        return RationalMatrix.from_numerators(d, self.g * d, row, den), prefixes[-1]

    def coboundary(self, alpha) -> tuple[Fraction, ...]:
        return self.coboundary_map.matvec(alpha)

    def is_cocycle(self, c) -> bool:
        return all(v == 0 for v in self.jacobian.matvec(c))

    def _coboundary_conditions(self, group) -> RationalMatrix:
        """Rows over c that all vanish exactly when one alpha gives
        c(w) = (I - w).alpha for every w in the group: the system is solvable
        when its right-hand side is killed by the left kernel of its matrix.

        That left kernel is the nullspace of A^T, for A = [I - w]_w stacked.
        With (R, pivots) the RREF of A^T, it has the basis
        e_f - sum_r R[r, f] e_(pivot r) over the free columns f, so with W
        the stacked word rows the conditions are W_free - R_free^T W_pivot:
        one d x (k*d) Gauss-Jordan and one product. They depend only on the
        space and the group, so each group's are built once, and each word's
        action is the end of the walk that gives its word row."""
        key = tuple(group)
        if key in self._conditions:
            return self._conditions[key]
        d = self.d
        word_rows, actions = zip(*(self._row_and_action(w) for w in group))
        ident = RationalMatrix.identity(d)
        red, rank, pivots = rref_rank(
            RationalMatrix.zeros(0, d).vstack(*(ident - a for a in actions)).transpose())
        free = [c for c in range(red.cols) if c not in pivots]
        words = RationalMatrix.zeros(0, self.g * d).vstack(*word_rows)
        every = range(words.cols)
        self._conditions[key] = (words.submatrix(free, every) - red.submatrix(
            range(rank), free).transpose() * words.submatrix(pivots, every))
        return self._conditions[key]

    def parabolic_kernel_dim(self, word_groups) -> int:
        """Dimension of {c in Z^1 : for each group there is one alpha with
        c(w) = (I - w).alpha for every w in the group}: the nullity of the
        Jacobian J stacked over every group's coboundary conditions C. A cocycle
        has c_pivot = -R_free c_free on J's RREF R (taken once per space, from
        J's echelon rows), and C vanishes on B^1, so that is dim Z^1 less the
        rank of C_h1 - C_pivot R_h1 on the H^1 coordinates (see the class)."""
        if self._kernel is None:
            red, rank, _ = rref_rank(self._echelon)
            self._kernel = red.submatrix(range(rank), self._h1)
        conditions = RationalMatrix.zeros(0, self.jacobian.cols).vstack(
            *(self._coboundary_conditions(group) for group in word_groups))
        rows = range(conditions.rows)
        return self.dim_z1 - (conditions.submatrix(rows, self._h1)
                              - conditions.submatrix(rows, self._pivots) * self._kernel).rank()

    def cuspidal_defect(self, c) -> list[bool]:
        """Per cusp: True when the restricted class is trivial there, i.e. one
        alpha gives c(w) = (I - w).alpha on both the meridian and the
        longitude. True therefore means there is no defect at that cusp."""
        return [not any(self._coboundary_conditions(cusp).matvec(c))
                for cusp in self.presentation.cusps]


def cocycle_eval(space: CocycleSpace, c, w: Word) -> tuple[Fraction, ...]:
    """The unique cocycle extension of generator values c, evaluated at w."""
    c = list(c)
    if len(c) != space.g * space.d:
        raise ValueError(f"expected length {space.g * space.d}, got {len(c)}")
    return space.module.cocycle_value(c, w)


def class_span_dim(space: CocycleSpace, cocycles) -> int:
    """Dimension of the span in H^1 of the listed cocycles' classes: the rank
    of delta's columns, which span B^1, with the cocycles beside them, less
    dim B^1."""
    columns = []
    for c in cocycles:
        c = list(c)
        if not space.is_cocycle(c):
            raise ValueError("vector is not a cocycle (fails the Fox-Jacobian kernel)")
        columns.append(RationalMatrix.column(c))
    return space.coboundary_map.hstack(*columns).rank() - space.dim_b1


def is_cuspidal(space: CocycleSpace, c) -> bool:
    """True when the class of c is trivial at every cusp (no defect anywhere)."""
    return all(space.cuspidal_defect(list(c)))


def default_parabolic_words(presentation: Presentation) -> list[Word]:
    """Per cusp: meridian, longitude, and their product.

    The product is needed when the meridian and longitude translations are
    orthogonal, in which case conditions on the pair alone are strictly weaker
    than the subgroup condition (the Borromean fixture is exactly this case).
    """
    words = []
    for mu, lam in presentation.cusps:
        words.extend([mu, lam, mu * lam])
    return words


@dataclass
class CohomologyReport:
    dim_z1: int
    dim_b1: int
    dim_h1: int
    dim_h0: int
    mode: str
    dim_pz1: int | None = None
    dim_ph1: int | None = None
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"dimZ1": self.dim_z1, "dimB1": self.dim_b1, "dimH1": self.dim_h1,
               "dimH0": self.dim_h0, "mode": self.mode}
        if self.dim_pz1 is not None:
            out["dimPZ1"] = self.dim_pz1
            out["dimPH1"] = self.dim_ph1
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def h1_report(presentation: Presentation, module: CoefficientModule,
              mode: str = "none", space: CocycleSpace | None = None) -> CohomologyReport:
    """Compute all cohomology dimensions for the module.

    ``mode="per_element"`` imposes c(w) in im(I - w) word by word over
    :func:`default_parabolic_words` (meridians, longitudes, and their
    products over all cusps);
    ``mode="per_subgroup"`` shares one auxiliary vector per cusp pair.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if space is None:
        space = CocycleSpace(presentation, module)
    report = CohomologyReport(space.dim_z1, space.dim_b1, space.dim_h1,
                              space.dim_h0, mode)
    if mode == "none":
        return report

    if mode == "per_element":
        groups = [[w] for w in default_parabolic_words(presentation)]
    else:
        if not presentation.cusps:
            raise ValueError("per_subgroup mode needs cusp data")
        groups = [list(pair) for pair in presentation.cusps]

    report.warnings = [f"word {shown(w)} is not parabolic under the representation"
                       for group in groups for w in group
                       if not is_parabolic(module.rep.evaluate(w))]

    report.dim_pz1 = space.parabolic_kernel_dim(groups)
    report.dim_ph1 = report.dim_pz1 - space.dim_b1
    return report


def peripheral_invariant_dims(presentation: Presentation,
                              module: CoefficientModule) -> list[int]:
    """Per cusp: dimension of the joint invariants of the meridian and
    longitude actions (the H^0 of the cusp subgroup)."""
    return [module.invariants_dim([mu, lam]) for mu, lam in presentation.cusps]


def scannell_check(report: CohomologyReport, peripheral_h0: int) -> bool:
    """dim H^1 - dim PH^1 must equal the total peripheral H^0."""
    if report.dim_ph1 is None:
        raise ValueError("report has no parabolic dimensions")
    return report.dim_h1 - report.dim_ph1 == peripheral_h0
