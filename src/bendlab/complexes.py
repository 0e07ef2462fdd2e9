"""Branched bending complexes and their per-binding closure systems.

Each binding contributes rows over the wall-weight variables:

* SO geometry (deforming towards one hyperbolic dimension up): two rows per
  binding, coefficients cos(theta) and sin(theta) per incidence, incidence
  signs ignored (orientation data drops out).
* SL geometry (projective bulging): three rows per binding with signed
  per-incidence coefficients s*(a + b cos 2theta), s*(a - b cos 2theta),
  s*(b sin 2theta), where a = (1-n)/2 and b = (1+n)/2.

Repeated incidences of one wall sum into that wall's column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (DEFAULT_FLOAT_TOLERANCE, FloatMatrix, RationalMatrix, parse_rational,
                     rref_rank)

NAMED_ANGLES = {
    "0": (Fraction(1), Fraction(0)),
    "pi/2": (Fraction(0), Fraction(1)),
    "pi": (Fraction(-1), Fraction(0)),
    "3pi/2": (Fraction(0), Fraction(-1)),
}

FLOAT_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class Angle:
    """An angle stored as its (cos, sin) pair; exact when both are rational."""

    cos: Fraction | float
    sin: Fraction | float
    exact: bool

    @classmethod
    def named(cls, name: str) -> "Angle":
        if name not in NAMED_ANGLES:
            raise ValueError(f"unknown angle name {name!r}; "
                             f"known: {sorted(NAMED_ANGLES)}")
        c, s = NAMED_ANGLES[name]
        return cls(c, s, True)

    @classmethod
    def exact_pair(cls, cos, sin) -> "Angle":
        c, s = parse_rational(cos), parse_rational(sin)
        if c * c + s * s != 1:
            raise ValueError(f"cos^2 + sin^2 != 1 for ({c}, {s})")
        return cls(c, s, True)

    @classmethod
    def from_radians(cls, theta: float) -> "Angle":
        c, s = math.cos(theta), math.sin(theta)
        return cls(c, s, False)

    @classmethod
    def float_pair(cls, cos: float, sin: float) -> "Angle":
        if not abs(cos * cos + sin * sin - 1.0) <= FLOAT_CIRCLE_TOL:  # and nan
            raise ValueError(f"cos^2 + sin^2 != 1 within {FLOAT_CIRCLE_TOL}")
        return cls(cos, sin, False)

    @classmethod
    def from_json(cls, data) -> "Angle":
        if isinstance(data, str):
            return cls.named(data)
        if not isinstance(data, dict):
            raise ValueError(f'an angle is a name or a {{"cos", "sin"}} object, got {data!r}')
        c, s = data["cos"], data["sin"]
        if isinstance(c, str) and isinstance(s, str):
            return cls.exact_pair(c, s)
        return cls.float_pair(float(c), float(s))

    def to_json(self):
        for name, (c, s) in NAMED_ANGLES.items():
            if self.exact and (self.cos, self.sin) == (c, s):
                return name
        if self.exact:
            return {"cos": str(self.cos), "sin": str(self.sin)}
        return {"cos": self.cos, "sin": self.sin}

    def double(self) -> tuple:
        """cos(2 theta), sin(2 theta), exact when the angle is."""
        return (self.cos * self.cos - self.sin * self.sin,
                2 * self.cos * self.sin)

    @property
    def is_zero(self) -> bool:
        return self.cos == 1 and self.sin == 0


@dataclass(frozen=True)
class Incidence:
    wall: str
    angle: Angle
    sign: int = 1

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"incidence sign must be the integer 1 or -1, "
                             f"got {self.sign!r}")


@dataclass(frozen=True)
class Binding:
    name: str
    incidences: tuple[Incidence, ...]

    def __post_init__(self):
        if not self.incidences:
            raise ValueError(f"binding {self.name} has no incidences")
        first = self.incidences[0]
        if not (first.angle.is_zero and first.sign == 1):
            raise ValueError(f"binding {self.name}: first incidence must sit at "
                             "angle 0 with sign +1")

    @classmethod
    def from_json(cls, data: dict) -> "Binding":
        if not (isinstance(data, dict) and isinstance(data.get("incidences"), list)
                and all(isinstance(i, dict) for i in data["incidences"])):
            raise ValueError('a binding is a JSON object with an "incidences" list of objects')
        incs = tuple(Incidence(i["wall"], Angle.from_json(i["angle"]),
                               i.get("sign", 1))
                     for i in data["incidences"])
        return cls(data["name"], incs)

    def to_json(self) -> dict:
        return {"name": self.name,
                "incidences": [{"wall": i.wall, "angle": i.angle.to_json(),
                                "sign": i.sign}
                               for i in self.incidences]}


@dataclass(frozen=True)
class BendingComplex:
    dimension: int
    walls: tuple[str, ...]
    bindings: tuple[Binding, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if type(self.dimension) is not int or self.dimension < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dimension!r}")
        if len(set(self.walls)) != len(self.walls):
            raise ValueError("wall names must be unique")
        known = set(self.walls)
        for b in self.bindings:
            for inc in b.incidences:
                if inc.wall not in known:
                    raise ValueError(f"binding {b.name} references unknown wall "
                                     f"{inc.wall!r}")

    def is_exact(self) -> bool:
        return all(inc.angle.exact for b in self.bindings for inc in b.incidences)

    @classmethod
    def from_json(cls, data: dict) -> "BendingComplex":
        if not (isinstance(data, dict) and isinstance(data.get("walls"), list)
                and isinstance(data.get("bindings", []), list)):
            raise ValueError('a complex is a JSON object with "walls" and "bindings" lists')
        return cls(data["dimension"], tuple(data["walls"]),
                   tuple(Binding.from_json(b) for b in data.get("bindings", [])))

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "walls": list(self.walls),
                "bindings": [b.to_json() for b in self.bindings]}


GEOMETRIES = ("so", "sl")


def build_system(complex_: BendingComplex, geometry: str,
                 rank_tolerance: float = DEFAULT_FLOAT_TOLERANCE):
    """The stacked per-binding closure system over wall weights.

    Returns a RationalMatrix when every angle is exact, otherwise a
    FloatMatrix (with a warning if exact and float angles are mixed).
    """
    if geometry not in GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}")
    exact = complex_.is_exact()
    any_exact = any(inc.angle.exact for b in complex_.bindings
                    for inc in b.incidences)
    any_float = any(not inc.angle.exact for b in complex_.bindings
                    for inc in b.incidences)
    if any_exact and any_float:
        warnings.warn("mixed exact and float angles; falling back to the "
                      "float backend", stacklevel=2)
    idx = {w: k for k, w in enumerate(complex_.walls)}
    nw = len(complex_.walls)
    zero = Fraction(0) if exact else 0.0
    rows = []
    if geometry == "so":
        for b in complex_.bindings:
            r1, r2 = [zero] * nw, [zero] * nw
            for inc in b.incidences:
                j = idx[inc.wall]
                r1[j] += inc.angle.cos
                r2[j] += inc.angle.sin
            rows.extend([r1, r2])
    else:
        n = complex_.dimension
        a = Fraction(1 - n, 2) if exact else (1 - n) / 2
        bcoef = Fraction(1 + n, 2) if exact else (1 + n) / 2
        for b in complex_.bindings:
            r1, r2, r3 = [zero] * nw, [zero] * nw, [zero] * nw
            for inc in b.incidences:
                j = idx[inc.wall]
                c2, s2 = inc.angle.double()
                r1[j] += inc.sign * (a + bcoef * c2)
                r2[j] += inc.sign * (a - bcoef * c2)
                r3[j] += inc.sign * (bcoef * s2)
            rows.extend([r1, r2, r3])
    if exact:
        if not rows:
            return RationalMatrix.zeros(0, nw)
        return RationalMatrix.from_rows(rows)
    if not rows:
        return FloatMatrix(0, nw, [], rank_tolerance)
    return FloatMatrix.from_rows([[float(x) for x in r] for r in rows],
                                 rank_tolerance)


@dataclass
class BendingReport:
    nullity: int
    naive_bound: int
    equal_weights_solve: bool
    exact: bool

    def to_json(self) -> dict:
        return {"nullity": self.nullity, "naive_bound": self.naive_bound,
                "equal_weights_solve": self.equal_weights_solve,
                "exact": self.exact}


def bending_dimension(complex_: BendingComplex, geometry: str,
                      rank_tolerance: float = DEFAULT_FLOAT_TOLERANCE) -> BendingReport:
    """Kernel dimension of the closure system, the wall/binding count bound
    c_{n-1} - A c_{n-2} (A = 2 for so, 3 for sl), and whether equal weights
    solve the system."""
    system = build_system(complex_, geometry, rank_tolerance)
    a = 2 if geometry == "so" else 3
    naive = len(complex_.walls) - a * len(complex_.bindings)
    ones = [1] * len(complex_.walls)
    if isinstance(system, RationalMatrix):
        nullity = system.cols - rref_rank(system)[1]
        equal = all(v == 0 for v in system.matvec(ones))
        return BendingReport(nullity, naive, equal, True)
    return BendingReport(system.nullity(), naive, system.kills_vector(ones), False)
