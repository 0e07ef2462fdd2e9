"""Words in free groups, their text grammar, group-ring arithmetic, and Fox
derivatives.

Grammar accepted by :func:`parse_word`::

    word := term+
    term := atom ('^' integer)?
    atom := generator | '(' word ')' | '[' word ',' word ']'

``[a,b]`` is the commutator a b a^-1 b^-1. Whitespace and ``*`` are optional
separators. ``atom^0`` is legal and yields the empty word. Brackets nested
too deeply raise :class:`WordError`, as does a power, commutator or product
of more than ``MAX_WORD_LETTERS`` letters, counted on its freely reduced
parts before it is built: ``(x x^-1)^60000`` is the empty word, while
``[x^50000, y^50000]`` is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_WORD_LETTERS = 100_000


class WordError(ValueError):
    pass


def _reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def _check_length(n: int) -> None:
    if n > MAX_WORD_LETTERS:
        raise WordError(f"word of {n} letters exceeds {MAX_WORD_LETTERS}")


class Word:
    """Freely reduced word; letters are (generator name, +-1) pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        for g, e in letters:
            if e not in (1, -1):
                raise WordError(f"letter exponent must be +-1, got {e}")
        self.letters = _reduce(letters)

    @classmethod
    def _reduced(cls, letters: tuple) -> "Word":
        """Wrap a tuple of letters already known to be freely reduced."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    @classmethod
    def generator(cls, name: str) -> "Word":
        return cls(((name, 1),))

    @classmethod
    def empty(cls) -> "Word":
        return cls()

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k)  # _reduce cancels across the seams

    def commutator(self, other: "Word") -> "Word":
        return self * other * self.inverse() * other.inverse()

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def generators_used(self) -> set[str]:
        return {g for g, _ in self.letters}

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(g if e == 1 else f"{g}^-1" for g, e in self.letters)

    def __repr__(self) -> str:
        return f"Word({self})"


class GroupRingElem:
    """Finite integer combination of words: an element of the group ring.
    Integral coefficients of any type are kept as ints; any other is a
    ValueError, never truncated."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            try:
                n = int(c)
            except (OverflowError, ValueError):  # inf, nan
                n = None
            if n != c:
                raise ValueError(f"group ring coefficient {c!r} is not an integer")
            if n:
                clean[w] = n
        self.terms = clean

    @classmethod
    def zero(cls) -> "GroupRingElem":
        return cls()

    @classmethod
    def one(cls) -> "GroupRingElem":
        return cls({Word.empty(): 1})

    @classmethod
    def from_word(cls, w: Word, coeff: int = 1) -> "GroupRingElem":
        return cls({w: coeff})

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElem(out)

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem({w: -c for w, c in self.terms.items()})

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        out: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElem(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupRingElem) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), str(t[0]))):
            parts.append(f"{c}*({w})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"GroupRingElem({self})"


def generator_names(generators) -> tuple[str, ...]:
    """The names as a tuple, checked: unique non-empty strings holding no
    whitespace and none of ``()[]^,*``, and not ``1`` (the empty word)."""
    if not isinstance(generators, (list, tuple)):
        raise WordError(f"generators must be a list of names, got {generators!r}")
    for g in generators:
        if (not isinstance(g, str) or not g or g == "1"
                or any(ch.isspace() or ch in "()[]^,*" for ch in g)):
            raise WordError(f"bad generator name {g!r}")
    if len(set(generators)) != len(generators):
        raise WordError("generator names must be unique")
    return tuple(generators)


class _Parser:
    def __init__(self, text: str, generators):
        self.text = text
        self.pos = 0
        # longest-first so multi-character names win over their prefixes
        self.generators = sorted(generators, key=len, reverse=True)

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t*":
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match_generator(self):
        self.skip()
        for g in self.generators:
            if self.text.startswith(g, self.pos):
                self.pos += len(g)
                return g
        return None

    def expect(self, ch):
        if self.peek() != ch:
            raise WordError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    def parse_int(self):
        self.skip()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            raise WordError(f"expected integer at position {start} in {self.text!r}")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos - start > 8:  # past any letter bound; int() of long runs is slow
            raise WordError(f"exponent too large at position {start} in {self.text!r}")
        return int(self.text[start:self.pos])

    def parse_word(self, closers=""):
        letters = []  # reduced once at the end: linear in the text
        while (ch := self.peek()) != "" and ch not in closers:
            letters.extend(self.parse_term().letters)
            _check_length(len(letters))
        return Word(letters)

    def parse_term(self):
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            k = self.parse_int()
            _check_length(len(atom) * abs(k))
            return atom ** k
        return atom

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            w = self.parse_word(closers=")")
            self.expect(")")
            return w
        if ch == "[":
            self.pos += 1
            a = self.parse_word(closers=",")
            self.expect(",")
            b = self.parse_word(closers="]")
            self.expect("]")
            _check_length(2 * (len(a) + len(b)))
            return a.commutator(b)
        g = self.match_generator()
        if g is not None:
            return Word.generator(g)
        if ch == "1":  # the empty word, as printed
            self.pos += 1
            return Word.empty()
        raise WordError(f"unknown generator at position {self.pos} in {self.text!r}")


def parse_word(text: str, generators) -> Word:
    """Parse ``text`` over the named generators; result is freely reduced."""
    if not isinstance(text, str):
        raise WordError(f"a word is a string, got {text!r}")
    p = _Parser(text, generator_names(generators))
    try:
        w = p.parse_word()
    except RecursionError:
        raise WordError(f"brackets nested too deeply in {text[:40]!r}...") from None
    p.skip()
    if p.pos != len(p.text):
        raise WordError(f"trailing input at position {p.pos} in {text!r}")
    return w


def fox_derivative(w: Word, gen: str) -> GroupRingElem:
    """Free differential calculus derivative of ``w`` with respect to ``gen``.

    d(g)/d(g) = 1, d(h)/d(g) = 0, d(g^-1)/d(g) = -g^-1, and the product rule
    d(uv)/d(g) = d(u)/d(g) + u d(v)/d(g).
    """
    # w is freely reduced, so each term is a prefix slice (through the letter if e = -1)
    terms: dict[Word, int] = {}
    letters = w.letters
    for i, (g, e) in enumerate(letters):
        if g == gen:
            t = Word._reduced(letters[:i] if e == 1 else letters[:i + 1])
            terms[t] = terms.get(t, 0) + e
    return GroupRingElem(terms)


@dataclass(frozen=True)
class Presentation:
    """Generators, relators, and optional cusp (meridian, longitude) pairs."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    cusps: tuple[tuple[Word, Word], ...] = field(default_factory=tuple)

    def __post_init__(self):
        generator_names(self.generators)
        gens = set(self.generators)
        for w in self.relators:
            if not w.generators_used() <= gens:
                raise WordError(f"relator {w} uses unknown generators")
        for mu, lam in self.cusps:
            used = mu.generators_used() | lam.generators_used()
            if not used <= gens:
                raise WordError("cusp words use unknown generators")

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        gens = generator_names(data["generators"])
        relators = tuple(parse_word(r, gens) for r in data["relators"])
        cusps = tuple(
            (parse_word(c["meridian"], gens), parse_word(c["longitude"], gens))
            for c in data.get("cusps", []))
        return cls(gens, relators, cusps)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [str(r) for r in self.relators],
            "cusps": [{"meridian": str(m), "longitude": str(l)}
                      for m, l in self.cusps],
        }
