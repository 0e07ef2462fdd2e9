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

    __slots__ = ("matrix", "inverse")

    def __init__(self, matrix: RationalMatrix):
        if not matrix.is_square():
            raise ValueError("form matrix must be square")
        if matrix.rows < 2:
            raise ValueError("form matrix must be at least 2x2")
        if matrix != matrix.transpose():
            raise ValueError("form matrix must be symmetric")
        self.matrix = matrix
        self.inverse = matrix.inverse()  # raises if singular

    @property
    def size(self) -> int:
        return self.matrix.rows

    def preserved_by(self, m: RationalMatrix) -> bool:
        return (m.shape == self.matrix.shape
                and m.transpose() * self.matrix * m == self.matrix)

    @classmethod
    def from_json(cls, data) -> "QuadraticForm":
        return cls(RationalMatrix.from_json(data))

    def to_json(self):
        return self.matrix.to_json()


CACHE_ENTRIES = 256


class WordEvaluator:
    """Multiplies out words from the letter matrices ``letters[g, +-1]``;
    GroupRingElems act linearly. :meth:`walk` only multiplies; :meth:`__call__`
    memoizes whole words of at most 12 letters and empties the memo once it
    holds ``CACHE_ENTRIES`` words, so a stream of distinct words keeps memory flat."""

    def __init__(self, letters: dict[tuple[str, int], RationalMatrix], size: int):
        self.size = size
        self.letters = letters
        self._identity = RationalMatrix.identity(size)
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
            for out in self.walk(e.letters):
                pass
            if len(e.letters) <= 12:
                if len(self._cache) >= CACHE_ENTRIES:
                    self._cache.clear()
                self._cache[e.letters] = out
        return out

    def walk(self, letters: tuple):
        """The actions of ``letters[:k]`` for k = 0, 1, ..., as they are asked
        for: one running product, each the one before times its letter, so a
        word costs one product a letter after its first."""
        out = self._identity
        yield out
        for k, letter in enumerate(letters):
            out = out * self.letters[letter] if k else self.letters[letter]
            yield out


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
        if extra := [g for g in images if g not in presentation.generators]:
            raise ValueError(f"images for generators the presentation lacks: {extra}")
        self.presentation = presentation
        self.images = dict(images)
        self.form = form
        self.evaluator = WordEvaluator(
            {(g, e): m if e == 1 else m.inverse()
             for g, m in self.images.items() for e in (1, -1)}, size)
        self._embedded: Representation | None = None
        self._modules: dict = {}

    @property
    def size(self) -> int:
        return self.form.size

    def image(self, gen: str, exponent: int = 1) -> RationalMatrix:
        return self.evaluator.letters[gen, exponent]

    def evaluate(self, e) -> RationalMatrix:
        """Evaluate a Word (multiplicatively) or GroupRingElem (linearly)."""
        return self.evaluator(e)

    def conjugated(self, u: RationalMatrix) -> "Representation":
        """The representation g -> u rho(g) u^-1; raises ValueError unless u
        preserves the form, so that u^-1 = Q^-1 u^T Q."""
        if not self.form.preserved_by(u):
            raise ValueError("a conjugator must preserve the form")
        ui = self.form.inverse * u.transpose() * self.form.matrix
        images = {g: u * m * ui for g, m in self.images.items()}
        return Representation(self.presentation, images, self.form)

    def embedded_in_extension(self) -> "Representation":
        """Block-diagonal embedding with an extra fixed coordinate, preserving
        the extended form Q + (1). Built on first use and kept: every so_ext
        wall of this representation bends the same embedding."""
        if self._embedded is None:
            images = {g: _with_unit(m) for g, m in self.images.items()}
            form = QuadraticForm(_with_unit(self.form.matrix))
            self._embedded = Representation(self.presentation, images, form)
        return self._embedded

    def module(self, kind: str):
        """The coefficient module of the given kind over this representation.
        Built on first use and kept: every wall centralizer, cocycle space and
        tangent cocycle of this representation reads the same module."""
        if kind not in self._modules:
            from .modules import CoefficientModule  # modules imports reps
            self._modules[kind] = CoefficientModule(self, kind)
        return self._modules[kind]

    @classmethod
    def from_json(cls, data: dict, presentation: Presentation) -> "Representation":
        if not isinstance(data, dict) or not isinstance(data.get("images"), dict):
            raise ValueError('a representation is a JSON object with an "images" object')
        if "form" not in data:
            raise ValueError('a representation needs a "form" matrix')
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
    """True iff m != I and (m - I)^n = 0 for the size n (unipotent): the
    index of nilpotency is at most n, so ceil(log2 n) squarings decide it."""
    if not m.is_square():
        raise ValueError("parabolicity test needs a square matrix")
    n = m.rows
    d = m - RationalMatrix.identity(n)
    if d.is_zero():
        return False
    for _ in range((n - 1).bit_length()):
        d = d * d
    return d.is_zero()


class FirstOrderRep:
    """g -> M_g + t E_g truncated at order t^2. The derivatives are read once,
    at construction."""

    def __init__(self, base: Representation, derivative: dict[str, RationalMatrix]):
        size = base.size
        self.base = base
        self.derivative = {}
        # the nonzero derivatives of the letters: E for g, -M^-1 E M^-1 for g^-1
        self._letter_derivatives = {}
        for g in base.presentation.generators:
            e = derivative.get(g)
            if e is None:
                e = RationalMatrix.zeros(size, size)
            elif e.shape != (size, size):
                raise ValueError(f"derivative of {g} has shape {e.shape}")
            self.derivative[g] = e
            if not e.is_zero():
                mi = base.image(g, -1)
                self._letter_derivatives[g, 1] = e
                self._letter_derivatives[g, -1] = -(mi * e * mi)


def first_order_evaluate(fo: FirstOrderRep, w: Word) -> tuple[RationalMatrix, RationalMatrix]:
    """Order-t expansion of rho_t(w): dual-number product
    (M1, E1)(M2, E2) = (M1 M2, M1 E2 + E1 M2); a generator inverse contributes
    (M^-1, -M^-1 E M^-1). The term M1 E2 is formed only at letters whose
    derivative is nonzero, and E stays zero, with no products, until the
    first of them. M runs over the word's prefixes from the evaluator's walk."""
    size = fo.base.size
    derivatives = fo._letter_derivatives
    prefixes = fo.base.evaluator.walk(w.letters)
    m = next(prefixes)
    e = None
    for letter, after in zip(w.letters, prefixes):
        if e is not None:
            e = e * fo.base.image(*letter)
        eg = derivatives.get(letter)
        if eg is not None:
            e = m * eg if e is None else e + m * eg
        m = after
    return m, RationalMatrix.zeros(size, size) if e is None else e
