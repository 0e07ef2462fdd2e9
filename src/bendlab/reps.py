"""Matrix representations of presented groups: evaluation, validation against
a quadratic form, parabolicity, and first-order (dual-number) evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import RationalMatrix
from .words import GroupRingElem, Presentation, Word


def _with_unit(m: RationalMatrix) -> RationalMatrix:
    """diag(m, 1): m acting on one extra, fixed coordinate."""
    return m.hstack(RationalMatrix.zeros(m.rows, 1)).vstack(
        RationalMatrix.zeros(1, m.cols).hstack(RationalMatrix.identity(1)))


class QuadraticForm:
    """Symmetric invertible form matrix."""

    __slots__ = ("matrix", "_inverse")

    def __init__(self, matrix: RationalMatrix):
        if not matrix.is_square():
            raise ValueError("form matrix must be square")
        if matrix.rows < 2:
            raise ValueError("form matrix must be at least 2x2")
        if matrix != matrix.transpose():
            raise ValueError("form matrix must be symmetric")
        self.matrix = matrix
        self._inverse = matrix.inverse()  # raises if singular

    @property
    def size(self) -> int:
        return self.matrix.rows

    @property
    def inverse(self) -> RationalMatrix:
        return self._inverse

    def extend_by_one(self) -> "QuadraticForm":
        """The form on one extra dimension: Q + (1)."""
        return QuadraticForm(_with_unit(self.matrix))

    def preserved_by(self, m: RationalMatrix) -> bool:
        return m.transpose() * self.matrix * m == self.matrix

    @classmethod
    def from_json(cls, data) -> "QuadraticForm":
        return cls(RationalMatrix.from_json(data))

    def to_json(self):
        return self.matrix.to_json()


CACHE_ENTRIES = 256


class WordEvaluator:
    """Multiplies out words from the letter matrices ``letters[g, +-1]``;
    GroupRingElems act linearly. Words of at most 12 letters are cached, and
    the cache is emptied once it holds ``CACHE_ENTRIES`` words, so a long
    stream of distinct words keeps memory flat."""

    def __init__(self, images: dict[str, RationalMatrix], size: int):
        self.size = size
        self.letters = {(g, e): m if e == 1 else m.inverse()
                        for g, m in images.items() for e in (1, -1)}
        self._cache: dict[tuple, RationalMatrix] = {}

    def __call__(self, e) -> RationalMatrix:
        if isinstance(e, GroupRingElem):
            out = RationalMatrix.zeros(self.size, self.size)
            for w, c in e.terms.items():
                out = out + self(w).scale(c)
            return out
        if not isinstance(e, Word):
            raise TypeError(f"cannot evaluate {type(e).__name__}")
        out = self._cache.get(e.letters)
        if out is None:
            out = RationalMatrix.identity(self.size)
            for letter in e.letters:
                out = out * self.letters[letter]
            if len(e.letters) <= 12:
                if len(self._cache) >= CACHE_ENTRIES:
                    self._cache.clear()
                self._cache[e.letters] = out
        return out


class Representation:
    """Generator images plus a preserved quadratic form."""

    def __init__(self, presentation: Presentation, images: dict[str, RationalMatrix],
                 form: QuadraticForm):
        size = form.size
        for g in presentation.generators:
            if g not in images:
                raise ValueError(f"no image for generator {g}")
            m = images[g]
            if m.shape != (size, size):
                raise ValueError(f"image of {g} is {m.shape}, expected {size}x{size}")
        self.presentation = presentation
        self.images = dict(images)
        self.form = form
        self.ambient_dimension = size - 1
        self.evaluator = WordEvaluator(self.images, size)

    @property
    def size(self) -> int:
        return self.form.size

    def image(self, gen: str, exponent: int = 1) -> RationalMatrix:
        return self.evaluator.letters[gen, exponent]

    def evaluate(self, e) -> RationalMatrix:
        """Evaluate a Word (multiplicatively) or GroupRingElem (linearly)."""
        return self.evaluator(e)

    def conjugated(self, u: RationalMatrix) -> "Representation":
        """The representation g -> u rho(g) u^-1 (u must preserve the form)."""
        ui = u.inverse()
        images = {g: u * m * ui for g, m in self.images.items()}
        return Representation(self.presentation, images, self.form)

    def embedded_in_extension(self) -> "Representation":
        """Block-diagonal embedding with an extra fixed coordinate, preserving
        the extended form Q + (1)."""
        images = {g: _with_unit(m) for g, m in self.images.items()}
        return Representation(self.presentation, images, self.form.extend_by_one())

    @classmethod
    def from_json(cls, data: dict, presentation: Presentation) -> "Representation":
        if not isinstance(data, dict) or not isinstance(data.get("images"), dict):
            raise ValueError('a representation is a JSON object with an "images" object')
        form = QuadraticForm.from_json(data["form"])
        images = {g: RationalMatrix.from_json(m) for g, m in data["images"].items()}
        return cls(presentation, images, form)

    def to_json(self) -> dict:
        return {"form": self.form.to_json(),
                "images": {g: m.to_json() for g, m in self.images.items()}}


@dataclass
class GeneratorCheck:
    generator: str
    preserves_form: bool
    determinant: Fraction

    @property
    def ok(self) -> bool:
        return self.preserves_form and self.determinant in (1, -1)


@dataclass
class RelatorCheck:
    relator: Word
    is_identity: bool


@dataclass
class ValidationReport:
    generator_checks: list[GeneratorCheck]
    relator_checks: list[RelatorCheck]

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.generator_checks)
                and all(c.is_identity for c in self.relator_checks))

    def to_json(self) -> dict:
        return {
            "generators": [{"generator": c.generator,
                            "preserves_form": c.preserves_form,
                            "determinant": str(c.determinant)}
                           for c in self.generator_checks],
            "relators": [{"relator": str(c.relator), "is_identity": c.is_identity}
                         for c in self.relator_checks],
            "ok": self.ok,
        }


def validate_representation(rep: Representation) -> ValidationReport:
    """Per generator: form preservation and determinant; per relator: identity."""
    gen_checks = [GeneratorCheck(g, rep.form.preserved_by(rep.images[g]),
                                 rep.images[g].det())
                  for g in rep.presentation.generators]
    ident = RationalMatrix.identity(rep.size)
    rel_checks = [RelatorCheck(r, rep.evaluate(r) == ident)
                  for r in rep.presentation.relators]
    return ValidationReport(gen_checks, rel_checks)


def is_parabolic(m: RationalMatrix) -> bool:
    """True iff m != I and (m - I)^k = 0 with k = size (unipotent)."""
    if not m.is_square():
        raise ValueError("parabolicity test needs a square matrix")
    n = m.rows
    d = m - RationalMatrix.identity(n)
    if d.is_zero():
        return False
    return d.power(n).is_zero()


class FirstOrderRep:
    """g -> M_g + t E_g truncated at order t^2."""

    def __init__(self, base: Representation, derivative: dict[str, RationalMatrix]):
        size = base.size
        self.base = base
        self.derivative = {}
        for g in base.presentation.generators:
            e = derivative.get(g)
            if e is None:
                e = RationalMatrix.zeros(size, size)
            elif e.shape != (size, size):
                raise ValueError(f"derivative of {g} has shape {e.shape}")
            self.derivative[g] = e


def first_order_evaluate(fo: FirstOrderRep, w: Word) -> tuple[RationalMatrix, RationalMatrix]:
    """Order-t expansion of rho_t(w): dual-number product
    (M1, E1)(M2, E2) = (M1 M2, M1 E2 + E1 M2); a generator inverse contributes
    (M^-1, -M^-1 E M^-1)."""
    size = fo.base.size
    m = RationalMatrix.identity(size)
    e = RationalMatrix.zeros(size, size)
    for g, exp in w.letters:
        mg = fo.base.image(g, exp)
        if exp == 1:
            eg = fo.derivative[g]
        else:
            eg = -(mg * fo.derivative[g] * mg)
        m, e = m * mg, m * eg + e * mg
    return m, e
