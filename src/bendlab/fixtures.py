"""Input readers, and the bundled Borromean-rings fixture they read by default:
presentation, integer SO(3,1) representation, six wall subgroups with stable
letters, the four-wall branched complex, trace words and the reference
trace-derivative matrix. ``acceptance.Suite`` reads the whole fixture around
a presentation and representation through these readers.

There is one reader per input kind, ``load_<kind>(..., path=None)``. Given a
path it reads that file; given none it reads the bundled file through
``importlib.resources``, in exactly the same way. A file that cannot be read,
is not JSON, or has the wrong shape raises ``InputError``. Readers build
objects and do not validate them: checking a representation against its
presentation is the caller's job (``reps.validate_representation``).

Two pants files ship. ``DATA / "borromean_pants.json"``, the default, carries
wall-subgroup data for which the HNN bending is a genuine first-order
deformation (all relator derivatives vanish); three entries conjugate the wall
group by the stable letter, selecting the wall lift adjacent to the base
point. ``PANTS_TRACE`` carries the variant whose trace-derivative matrix
reproduces the bundled reference matrix column for column; three of its
entries are not first-order deformations (see the README for why both files
exist).
"""

from __future__ import annotations

import json
import os
from importlib import resources
from pathlib import Path

from .bending import BendingDatum
from .complexes import BendingComplex
from .linalg import RationalMatrix
from .reps import Representation
from .words import Presentation, parse_word

DATA = resources.files("bendlab.data")
PANTS_TRACE = DATA / "borromean_pants_trace.json"

# the bundled file each reader takes when it is given no path
_BUNDLED = {"presentation": "borromean_presentation.json",
            "representation": "borromean_representation.json",
            "pants": "borromean_pants.json",
            "complex": "borromean_complex.json",
            "words": "borromean_words.txt",
            "trace reference": "borromean_trace_reference.json"}

# what a parseable input file of the wrong shape raises while it is loaded
_MALFORMED = (KeyError, TypeError, ValueError, ArithmeticError)


class InputError(Exception):
    pass


def _load(path, what: str, build, parse=json.loads):
    """``build`` applied to the parsed file at ``path`` (the bundled ``what``
    file when ``path`` is None); a file that cannot be read, does not parse,
    or has the wrong shape for ``what`` is an InputError."""
    source = DATA / _BUNDLED[what] if path is None else path
    try:
        readable = Path(source) if isinstance(source, (str, os.PathLike)) else source
        text = readable.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc
    try:
        document = parse(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source} is not valid JSON: {exc}") from exc
    try:
        return build(document)
    except _MALFORMED as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"bad {what} file {source}: {why}") from exc


def load_presentation(path=None) -> Presentation:
    return _load(path, "presentation", Presentation.from_json)


def load_representation(presentation: Presentation, path=None) -> Representation:
    return _load(path, "representation",
                 lambda doc: Representation.from_json(doc, presentation))


def load_pants(presentation: Presentation, geometry: str = "sl",
               path=None) -> list[BendingDatum]:
    def build(document):
        if not isinstance(document, list):
            raise ValueError("a pants file is a JSON list of walls")
        return [BendingDatum.from_json(entry, presentation, geometry)
                for entry in document]
    return _load(path, "pants", build)


def load_complex(path=None) -> BendingComplex:
    return _load(path, "complex", BendingComplex.from_json)


def load_words(presentation: Presentation, path=None) -> list:
    """One word per non-blank line."""
    def build(text):
        return [parse_word(ln.strip(), presentation.generators)
                for ln in text.split("\n") if ln.strip()]
    return _load(path, "words", build, parse=str)


def load_trace_reference(path=None) -> RationalMatrix:
    return _load(path, "trace reference", RationalMatrix.from_json)
