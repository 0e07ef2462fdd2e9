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

from .linalg import RationalMatrix, _common, _product
from .reps import QuadraticForm, Representation, WordEvaluator
from .words import Word

KINDS = ("standard", "nu", "adjoint")


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


def _nu_candidates(form: QuadraticForm) -> tuple[list[tuple[int, int]], list[int], int]:
    """The pairs (i, j), i <= j, diagonal first, of the candidates
    Q^-1 (E_ij + E_ji) (Q^-1 E_ii when i == j); their traces on the ints of
    Q^-1, signed so that the completion's is positive; and the completion,
    the last candidate of nonzero trace, diagonal if one is. Q^-1 is
    invertible, so some trace is nonzero."""
    nums, _ = form.inverse.to_numerators()
    n = form.size
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    traces = [nums[i * n + j] * (1 if i == j else 2) for i, j in pairs]
    last = ([k for k in range(n) if traces[k]] or [k for k, t in enumerate(traces) if t])[-1]
    return pairs, [t if traces[last] > 0 else -t for t in traces], last


def nu_basis(form: QuadraticForm) -> list[RationalMatrix]:
    """Exact basis of {V : V^T Q = Q V, tr V = 0}: V = Q^-1 S over the standard
    symmetric basis (diagonal first), projected to traceless combinations
    against the completion candidate (see :func:`_nu_candidates`), which is
    left out."""
    pairs, traces, last = _nu_candidates(form)
    candidates = [_inverse_form_times(form, i, j, 1) for i, j in pairs]
    completion = candidates[last]
    return [v if t == 0 else v - completion.scale(Fraction(t, traces[last]))
            for k, (v, t) in enumerate(zip(candidates, traces)) if k != last]


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
            n = self.dimension = rep.size
            self.basis = [RationalMatrix.from_numerators(n, 1, [int(i == k) for i in range(n)])
                          for k in range(n)]
            self.evaluator = rep.evaluator
        else:
            if kind == "nu":
                self._sign, self.basis = 1, nu_basis(rep.form)
                self._pairs, self._traces, self._last = _nu_candidates(rep.form)
            else:
                self._sign, self.basis, self._last = -1, adjoint_basis(rep.form), None
                self._pairs = [(i, j) for i in range(rep.size) for j in range(i + 1, rep.size)]
            self.dimension = len(self.basis)
            self.evaluator = WordEvaluator(
                {(g, e): self._ad_matrix(rep.image(g, e), rep.image(g, -e))
                 for g in rep.presentation.generators for e in (1, -1)}, self.dimension)

    def _pair_entries(self, qv: list, error: str) -> list:
        """The entries at the basis pairs of Q V, row-major in ``qv``; raises
        ValueError(error) unless Q V is symmetric (nu) or antisymmetric (adjoint)."""
        n, sign = self.rep.size, self._sign
        if any(qv[r * n:r * n + n] != [sign * x for x in qv[r::n]] for r in range(n)):
            raise ValueError(error)
        return [qv[r * n + c] for r, c in self._pairs]

    def _ad_matrix(self, m: RationalMatrix, mi: RationalMatrix) -> RationalMatrix:
        """Ad(m) in the module basis, read off the form with no elimination.

        V is in the module when Q V is symmetric and V traceless (nu), or Q V
        is antisymmetric (adjoint); its coordinates are then the entries of
        Q V at the basis pairs. A candidate at (i, j) has Q V = E_ij + sign E_ji
        (E_ii when i == j), so Q (m V m^-1) = A (Q V) B, with A = Q m Q^-1 and
        B = m^-1, has the entries A_pi B_jq + sign A_pj B_iq, here on ints.
        For nu, column k is tl col_k - t_k col_completion, as in :func:`nu_basis`,
        and it is traceless when its entries weighted by the traces t sum to 0."""
        n, q, sign = self.rep.size, self.rep.form, self._sign
        error = "adjoint action does not preserve the module basis"
        a, da = (q.matrix * m * q.inverse).to_numerators()
        b, db = mi.to_numerators()
        a_cols, b_rows = [a[i::n] for i in range(n)], [b[i * n:(i + 1) * n] for i in range(n)]
        cols, d, den = [], self.dimension, da * db
        for i, j in self._pairs:
            ai, aj, bi, bj = a_cols[i], a_cols[j], b_rows[i], b_rows[j]
            img = ([x * y for x in ai for y in bi] if i == j else
                   [x * y + sign * u * v for x, u in zip(ai, aj) for y, v in zip(bj, bi)])
            cols.append(self._pair_entries(img, error))
        if self.kind == "adjoint":
            return RationalMatrix.from_numerators(d, d, [c[r] for r in range(d) for c in cols],
                                                  den)
        traces, last = self._traces, self._last
        tl, completion = traces[last], cols[last]
        weighted = [sum(map(mul, traces, col)) for col in cols]
        if any(tl * w != t * weighted[last] for w, t in zip(weighted, traces)):
            raise ValueError(error)
        keep = [k for k in range(len(cols)) if k != last]
        nums = [tl * cols[k][r] - traces[k] * completion[r] for r in keep for k in keep]
        return RationalMatrix.from_numerators(d, d, nums, den * tl)

    def to_coordinates(self, m: RationalMatrix) -> tuple[Fraction, ...]:
        """Coordinates of m in the module basis, m's entries read row-major:
        for standard, its n+1 entries; for nu and adjoint, read off the form
        as in :meth:`_ad_matrix`, the completion's pair left out (nu)."""
        if self.kind == "standard":
            return m.reshape(1, self.dimension).row(0)
        n, error = self.rep.size, "matrix is not in the module subspace"
        nums, d = (self.rep.form.matrix * m.reshape(n, n)).to_numerators()
        coords = self._pair_entries(list(nums), error)
        if self.kind == "nu" and sum(map(mul, self._traces, coords)):
            raise ValueError(error)
        return tuple(Fraction(a, d) for k, a in enumerate(coords) if k != self._last)

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
            v = _product(m, v, d, d, 1)
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
