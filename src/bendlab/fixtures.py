"""The bundled Borromean-rings fixture: presentation, integer SO(3,1)
representation, six wall subgroups with stable letters, the four-wall
branched complex, and the reference trace-derivative matrix.

Two pants files ship. ``pants`` carries wall-subgroup data for which the HNN
bending is a genuine first-order deformation (all relator derivatives vanish);
three entries conjugate the wall group by the stable letter, selecting the
wall lift adjacent to the base point. ``pants_trace`` carries the variant
whose trace-derivative matrix reproduces the bundled reference matrix column
for column; three of its entries are not first-order deformations (see the
README for why both files exist).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .bending import BendingDatum
from .complexes import BendingComplex
from .linalg import RationalMatrix
from .reps import Representation, validate_representation
from .words import Presentation, parse_word


def _read(name: str) -> str:
    return resources.files("bendlab.data").joinpath(name).read_text()


def _read_json(name: str):
    return json.loads(_read(name))


def load_presentation() -> Presentation:
    return Presentation.from_json(_read_json("borromean_presentation.json"))


def load_representation(presentation: Presentation | None = None) -> Representation:
    pres = presentation or load_presentation()
    rep = Representation.from_json(_read_json("borromean_representation.json"), pres)
    report = validate_representation(rep)
    if not report.ok:
        raise ValueError("bundled representation failed validation")
    return rep


def load_pants(presentation: Presentation, geometry: str = "sl",
               trace_variant: bool = False) -> list[BendingDatum]:
    name = "borromean_pants_trace.json" if trace_variant else "borromean_pants.json"
    return [BendingDatum.from_json(entry, presentation, geometry)
            for entry in _read_json(name)]


def load_complex() -> BendingComplex:
    return BendingComplex.from_json(_read_json("borromean_complex.json"))


def load_trace_words(presentation: Presentation):
    lines = [ln.strip() for ln in _read("borromean_words.txt").splitlines()]
    return [parse_word(ln, presentation.generators) for ln in lines if ln]


def load_trace_reference() -> RationalMatrix:
    return RationalMatrix.from_json(_read_json("borromean_trace_reference.json"))


@dataclass
class FixtureBundle:
    presentation: Presentation
    representation: Representation
    pants: list[BendingDatum]
    pants_trace: list[BendingDatum]
    complex: BendingComplex
    trace_words: list
    trace_reference: RationalMatrix


def load_bundle(pres: Presentation, rep: Representation) -> FixtureBundle:
    """The bundled walls, complex, words and reference around ``pres`` and
    ``rep``; raises ValueError when ``pres`` cannot parse the walls or words."""
    return FixtureBundle(
        presentation=pres,
        representation=rep,
        pants=load_pants(pres, "sl"),
        pants_trace=load_pants(pres, "sl", trace_variant=True),
        complex=load_complex(),
        trace_words=load_trace_words(pres),
        trace_reference=load_trace_reference(),
    )
