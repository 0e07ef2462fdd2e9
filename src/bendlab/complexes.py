"""Branched bending complexes and their per-binding closure systems.

Each binding contributes rows over the wall-weight variables:

* SO geometry (deforming towards one hyperbolic dimension up): two rows per
  binding, coefficients cos(theta) and sin(theta) per incidence, incidence
  signs ignored (orientation data drops out).
* SL geometry (projective bulging): three rows per binding with signed
  per-incidence coefficients s, s*cos 2theta and s*sin 2theta. The paper's
  rows s*(a + b cos 2theta), s*(a - b cos 2theta) and s*(b sin 2theta), with
  a = (1-n)/2 and b = (1+n)/2, are their combinations: a times the first
  row plus or minus b times the second, and b times the third. For n >= 2
  both a and b are nonzero, so the two sets span the same row space; the
  balanced rows do not depend on n, and the first is all +-1.

Repeated incidences of one wall sum into that wall's column. An exact angle's
text is read straight to ints, cos = x/q and sin = y/q in lowest terms. An
incidence adds x, y over q to its so rows and s*q^2, s*(x^2-y^2), 2s*xy over
q^2 (s, s cos 2theta, s sin 2theta) to its sl rows, each brought over d, the
lcm of all those denominators, in place in one row-major entry list. The
float backend runs the same loop on x/q and y/q over q = 1.0 and d = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .linalg import DEFAULT_FLOAT_TOLERANCE, FloatMatrix, RationalMatrix, parse_rational

NAMED_ANGLES = {"0": (1, 0), "pi/2": (0, 1), "pi": (-1, 0), "3pi/2": (0, -1)}

FLOAT_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class Angle:
    """An angle as its (cos, sin) pair over one denominator: cos = x/q and
    sin = y/q. An exact angle holds ints with q > 0 and x^2 + y^2 = q^2, so
    x/q and y/q are in lowest terms; a float pair holds floats over q = 1.0."""

    x: int | float
    y: int | float
    q: int | float
    exact: bool

    @classmethod
    def named(cls, name: str) -> "Angle":
        if name not in NAMED_ANGLES:
            raise ValueError(f"unknown angle name {name!r}; "
                             f"known: {sorted(NAMED_ANGLES)}")
        return cls(*NAMED_ANGLES[name], 1, True)

    @classmethod
    def exact_pair(cls, cos, sin) -> "Angle":
        (x, q), (y, r) = parse_rational(cos), parse_rational(sin)
        # c^2 + s^2 = 1 in lowest terms forces one denominator for both
        if r != q or x * x + y * y != q * q:
            c, s = (f"{p}/{d}" if d != 1 else str(p) for p, d in ((x, q), (y, r)))
            raise ValueError(f"cos^2 + sin^2 != 1 for ({c}, {s})")
        return cls(x, y, q, True)

    @classmethod
    def float_pair(cls, cos: float, sin: float) -> "Angle":
        if not abs(cos * cos + sin * sin - 1.0) <= FLOAT_CIRCLE_TOL:  # and nan
            raise ValueError(f"cos^2 + sin^2 != 1 within {FLOAT_CIRCLE_TOL}")
        return cls(cos, sin, 1.0, False)

    @classmethod
    def from_json(cls, data) -> "Angle":
        if isinstance(data, str):
            return cls.named(data)
        if not isinstance(data, dict):
            raise ValueError(f'an angle is a name or a {{"cos", "sin"}} object, got {data!r}')
        c, s = data["cos"], data["sin"]
        if isinstance(c, str) and isinstance(s, str):
            return cls.exact_pair(c, s)
        if not (type(c) in (int, float) and type(s) in (int, float) or all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in (c, s))):
            raise ValueError(f'an angle\'s "cos" and "sin" are two strings or two numbers, '
                             f"got {c!r} and {s!r}")
        return cls.float_pair(float(c), float(s))

    def to_json(self):
        if not self.exact:
            return {"cos": self.x, "sin": self.y}
        for name, pair in NAMED_ANGLES.items():
            if (self.x, self.y) == pair:  # then q = 1
                return name
        return {"cos": f"{self.x}/{self.q}", "sin": f"{self.y}/{self.q}"}

    @property
    def is_zero(self) -> bool:
        return self.x == self.q and self.y == 0


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
    FloatMatrix (with a warning if exact and float angles are mixed). The
    exact rows are built on ints over one denominator, the lcm of all the
    incidences' denominators (see the module docstring).
    """
    if geometry not in GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}")
    kinds = {inc.angle.exact for b in complex_.bindings for inc in b.incidences}
    exact = False not in kinds
    if len(kinds) == 2:
        warnings.warn("mixed exact and float angles; falling back to the "
                      "float backend", stacklevel=2)
    idx = {w: k for k, w in enumerate(complex_.walls)}
    nw, height = len(complex_.walls), 2 if geometry == "so" else 3
    # exact sl rows are over q^2, and lcm(q^2, ...) = lcm(q, ...)^2
    d = (math.lcm(*(i.angle.q for b in complex_.bindings for i in b.incidences))
         ** (height - 1) if exact else 1)
    size, rows = height * nw, height * len(complex_.bindings)  # size: entries per binding
    entries = [0 if exact else 0.0] * (rows * nw)
    for k, b in enumerate(complex_.bindings):
        for inc in b.incidences:
            x, y, q = inc.angle.x, inc.angle.y, inc.angle.q
            if not exact:
                x, y, q = x / q, y / q, 1.0  # so the scale is 1 // 1.0 == 1.0
            j, s, scale = k * size + idx[inc.wall], inc.sign, d // q ** (height - 1)
            if height == 2:
                entries[j] += x * scale
                entries[j + nw] += y * scale
            else:
                entries[j] += s * q * q * scale
                entries[j + nw] += s * (x * x - y * y) * scale
                entries[j + 2 * nw] += s * 2 * (x * y) * scale
    if not exact:
        return FloatMatrix(rows, nw, entries, rank_tolerance)
    return RationalMatrix.from_numerators(rows, nw, entries, d)


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
    solve the system: exactly when every row's numerators sum to 0."""
    system = build_system(complex_, geometry, rank_tolerance)
    a = 2 if geometry == "so" else 3
    naive = len(complex_.walls) - a * len(complex_.bindings)
    if isinstance(system, RationalMatrix):
        nullity = system.cols - system.rank()
        nums, _ = system.to_numerators()
        nc = system.cols
        equal = not any(sum(nums[i * nc:(i + 1) * nc]) for i in range(system.rows))
        return BendingReport(nullity, naive, equal, True)
    ones = [1] * len(complex_.walls)
    return BendingReport(system.cols - system.rank(), naive, system.kills_vector(ones), False)
