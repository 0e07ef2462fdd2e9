"""Coefficient modules for twisted cohomology.

Three module kinds over a representation preserving a form Q:

* ``standard`` -- the defining action on R^{n,1}; dimension n+1.
* ``nu``       -- Q-self-adjoint traceless matrices {V : V^T Q = Q V, tr V = 0},
                  the Ad-invariant complement of so(Q) in sl(n+1);
                  dimension n(n+3)/2. Action is Ad in a fixed exact basis.
* ``adjoint``  -- so(Q) = {V : V^T Q + Q V = 0}; dimension n(n+1)/2.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .linalg import RationalMatrix, _common, in_column_space, rref_rank
from .reps import QuadraticForm, Representation, WordEvaluator
from .words import Word

KINDS = ("standard", "nu", "adjoint")


def _as_columns(matrices) -> RationalMatrix:
    """The matrices, each flattened row-major, as the columns of one matrix."""
    flat = [b.reshape(1, b.rows * b.cols) for b in matrices]
    return flat[0].vstack(*flat[1:]).transpose()


def _inverse_form_times(form: QuadraticForm, i: int, j: int, sign: int) -> RationalMatrix:
    """Q^-1 (E_ij + sign E_ji); for i == j, Q^-1 E_ii. Written from the
    columns of Q^-1 on ints: Q^-1 E_ij has column i of Q^-1 as its column j
    and zeros elsewhere."""
    nums, d = form.inverse.to_numerators()
    n = form.size
    out = [0] * (n * n)
    out[j::n] = nums[i::n]
    if i != j:
        out[i::n] = [sign * a for a in nums[j::n]]
    return RationalMatrix.from_numerators(n, n, out, d)


def nu_basis(form: QuadraticForm) -> list[RationalMatrix]:
    """Exact basis of {V : V^T Q = Q V, tr V = 0}: V = Q^-1 S over the standard
    symmetric basis (diagonal first), projected to traceless combinations
    against the last candidate of nonzero trace (the last diagonal one when Q
    is diagonal)."""
    n1 = form.size
    candidates = ([_inverse_form_times(form, i, i, 1) for i in range(n1)]
                  + [_inverse_form_times(form, i, j, 1)
                     for i in range(n1) for j in range(i + 1, n1)])
    traced = [(k, v.trace()) for k, v in enumerate(candidates) if v.trace() != 0]
    if not traced:
        raise ValueError("degenerate form: no trace completion available")
    # prefer a diagonal completion element when one exists
    diag_traced = [(k, t) for k, t in traced if k < n1]
    last, tl = (diag_traced or traced)[-1]
    completion = candidates[last]
    basis = []
    for k, v in enumerate(candidates):
        if k == last:
            continue
        t = v.trace()
        basis.append(v if t == 0 else v - completion.scale(t / tl))
    return basis


def adjoint_basis(form: QuadraticForm) -> list[RationalMatrix]:
    """Exact basis of so(Q) = {V : V^T Q + Q V = 0}: V = Q^-1 A over the
    standard antisymmetric basis."""
    n1 = form.size
    return [_inverse_form_times(form, i, j, -1)
            for i in range(n1) for j in range(i + 1, n1)]


class CoefficientModule:
    """A dimension d plus a homomorphic rule Word -> d x d action matrix."""

    def __init__(self, rep: Representation, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown module kind {kind!r}")
        self.rep = rep
        self.kind = kind
        if kind == "standard":
            self.basis = []
            self.dimension = rep.size
            self._columns = RationalMatrix.identity(rep.size)
            self.evaluator = rep.evaluator
        else:
            self.basis = nu_basis(rep.form) if kind == "nu" else adjoint_basis(rep.form)
            self.dimension = len(self.basis)
            self._columns = _as_columns(self.basis)
            self.evaluator = WordEvaluator(
                {g: self._ad_matrix(rep.image(g), rep.image(g, -1))
                 for g in rep.presentation.generators}, self.dimension)

    def _ad_matrix(self, m: RationalMatrix, mi: RationalMatrix) -> RationalMatrix:
        # one elimination for all basis images: RREF of [columns | images]
        d = self.dimension
        aug = self._columns.hstack(_as_columns(m * b * mi for b in self.basis))
        red, rank, pivots = rref_rank(aug)
        if rank != d or any(p >= d for p in pivots):
            raise ValueError("adjoint action does not preserve the module basis")
        return red.submatrix(range(d), range(d, 2 * d))

    def to_coordinates(self, m: RationalMatrix) -> tuple[Fraction, ...]:
        """Coordinates of m in the module basis, read row-major: a matrix of
        the basis's size for nu and adjoint, n+1 entries for standard."""
        coords = in_column_space(self._columns, m.reshape(1, m.rows * m.cols).row(0))
        if coords is None:
            raise ValueError("matrix is not in the module subspace")
        return coords

    def action(self, e) -> RationalMatrix:
        """Action matrix of a Word; linear extension over GroupRingElems."""
        return self.evaluator(e)

    def cocycle_value(self, c, w: Word) -> tuple[Fraction, ...]:
        """c(w) for generator values c stacked in presentation order, walking w
        from the right: c(g v) = c(g) + g.c(v), c(g^-1 v) = g^-1.(c(v) - c(g)).

        The walk runs on int numerators: the generator values over their
        common denominator q, and v over a running denominator, which starts
        at q and takes each letter matrix's denominator as a factor, so a
        generator value enters scaled by the running denominator over q."""
        d = self.dimension
        nums, q = _common(c)
        at = {g: nums[k * d:(k + 1) * d]
              for k, g in enumerate(self.rep.presentation.generators)}
        letters = self.evaluator.letters
        v, den = [0] * d, q
        for g, e in reversed(w.letters):
            if e == -1:
                s = den // q
                v = [a - s * b for a, b in zip(v, at[g])]
            m, md = letters[g, e].to_numerators()
            v = [sum(map(mul, m[i * d:(i + 1) * d], v)) for i in range(d)]
            den *= md
            if e == 1:
                s = den // q
                v = [a + s * b for a, b in zip(v, at[g])]
        return tuple(Fraction(a, den) for a in v)

    def coboundary_map(self, words) -> RationalMatrix:
        """The stacked map a -> ((I - w).a)_w over the listed words."""
        ident = RationalMatrix.identity(self.dimension)
        return RationalMatrix.zeros(0, self.dimension).vstack(
            *(ident - self.action(w) for w in words))

    def invariants_dim(self, ws) -> int:
        """Dimension of the joint fixed space of the listed words."""
        return self.dimension - self.coboundary_map(ws).rank()
