"""Command-line surface.

Subcommands: ``validate``, ``cohomology``, ``branched-system``, ``bend``,
``borromean``. Every command accepts ``--output PATH`` and writes one JSON
document there; stdout always mirrors it. Exit codes: 0 success, 1 check
failure (``bend``: no wall yields a valid cocycle), 2 input error (including
``borromean --cases`` below 1). BENDLAB_FLOAT_TOL overrides the float rank
tolerance. Warnings come in the document; an error quotes input by ``words.shown``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import fixtures
from .acceptance import COEFFICIENT_KINDS, Suite, run_fixture_suite
from .bending import (MODULE_KIND, centralizer_generator, hnn_first_order,
                      tangent_cocycle, trace_derivative_matrix)
from .cohomology import (CocycleSpace, class_span_dim, h1_report, is_cuspidal,
                         peripheral_invariant_dims, scannell_check)
from .complexes import bending_dimension
from .fixtures import InputError
from .linalg import DEFAULT_FLOAT_TOLERANCE, nullspace
from .reps import Representation, validate_representation
from .words import shown

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _float_tolerance() -> float:
    raw = os.environ.get("BENDLAB_FLOAT_TOL")
    if raw is None:
        return DEFAULT_FLOAT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InputError(f"BENDLAB_FLOAT_TOL is not a number: {shown(raw)}") from exc
    if not 0 < tol < math.inf:  # also rejects nan
        raise InputError("BENDLAB_FLOAT_TOL must be positive and finite")
    return tol


def _require_valid(rep: Representation, what: str) -> None:
    validation = validate_representation(rep)
    if not validation.ok:
        bad = [shown(c.relator) for c in validation.relator_checks if not c.is_identity]
        raise InputError(f"{what} failed validation" + (
            f"; relators not killed: {bad}" if bad else " (form or determinant)"))


def _emit(document: dict, output: str | None) -> None:
    """Print the document, then write it to ``output``: an unwritable path
    still exits 2, but the result of the run is on stdout."""
    text = json.dumps(document, indent=2)
    print(text)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc.strerror}") from exc


def cmd_validate(args) -> int:
    pres = fixtures.load_presentation(args.presentation)
    rep = fixtures.load_representation(pres, args.rep)
    report = validate_representation(rep)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_cohomology(args) -> int:
    pres = fixtures.load_presentation(args.presentation)
    if args.parabolic == "per-subgroup" and not pres.cusps:
        raise InputError("the presentation has no cusps, which --parabolic "
                         "per-subgroup needs; use --parabolic none|per-element")
    rep = fixtures.load_representation(pres, args.rep)
    _require_valid(rep, "representation")
    kind = COEFFICIENT_KINDS[args.coefficients]
    mode = args.parabolic.replace("-", "_")
    module = rep.module(kind)
    space = CocycleSpace(pres, module)
    report = h1_report(pres, module, mode=mode, space=space)
    # each key recomputes its quantity by a second route: a Gauss-Jordan
    # kernel of J or delta, or the columns of delta
    z1 = nullspace(space.jacobian)
    delta = space.coboundary_map
    b1 = delta.transpose().to_rows()
    consistency = {
        "h1_equals_z1_minus_b1": class_span_dim(space, z1) == report.dim_h1,
        "b1_equals_d_minus_h0": len(nullspace(delta)) == report.dim_h0,
        "rank_nullity": len(z1) == report.dim_z1,
        "b1_inside_z1": all(space.is_cocycle(b) for b in b1),
    }
    if report.dim_ph1 is not None:
        # coboundaries are parabolic, so PZ^1 contains all of B^1
        consistency["ph1_equals_pz1_minus_b1"] = all(is_cuspidal(space, b) for b in b1)
        consistency["restriction_identity"] = scannell_check(
            report, sum(peripheral_invariant_dims(pres, module)))
    doc = report.to_json()
    doc["coefficients"] = args.coefficients
    doc["consistency"] = consistency
    _emit(doc, args.output)
    return EXIT_OK if all(consistency.values()) else EXIT_CHECK_FAILED


def cmd_branched_system(args) -> int:
    cx = fixtures.load_complex(args.complex)
    _emit(bending_dimension(cx, args.geometry, _float_tolerance()).to_json(), args.output)
    return EXIT_OK


def cmd_bend(args) -> int:
    pres = fixtures.load_presentation(args.presentation)
    rep = fixtures.load_representation(pres, args.rep)
    _require_valid(rep, "representation")
    geometry = "sl" if args.geometry == "sl" else "so_ext"
    data = fixtures.load_pants(pres, geometry, args.pants)
    words = fixtures.load_words(pres, args.words) if args.words else []
    kind = MODULE_KIND[geometry]
    module = rep.module(kind)
    space = CocycleSpace(pres, module)
    entries = []
    cocycles = []
    bendings = []  # the first-order reps of the walls with a bending, in order
    for datum in data:
        entry = {"name": datum.name}
        try:
            v = centralizer_generator(rep, datum)
        except ValueError as exc:
            entry["error"] = str(exc)
            entries.append(entry)
            continue
        entry["v"] = v.to_json()
        fo = hnn_first_order(rep, datum, v)
        bendings.append(fo)
        try:
            c = tangent_cocycle(fo, module)
            entry["cocycle"] = [str(x) for x in c]
            entry["valid_first_order"] = True
            cocycles.append(c)
        except ValueError as exc:
            entry["valid_first_order"] = False
            entry["error"] = str(exc)
        entries.append(entry)
    doc = {"geometry": args.geometry, "coefficients": kind, "pants": entries,
           "class_span": class_span_dim(space, cocycles) if cocycles else 0}
    if args.words:
        f = trace_derivative_matrix(bendings, words)
        doc["trace_derivative_matrix"] = f.to_json()
        doc["trace_matrix_rank"] = f.rank()
    _emit(doc, args.output)
    return EXIT_OK if cocycles else EXIT_CHECK_FAILED


def cmd_borromean(args) -> int:
    if args.cases < 1:
        raise InputError(f"--cases must be at least 1, got {args.cases}")
    pres = fixtures.load_presentation(args.presentation)
    rep = fixtures.load_representation(pres, args.rep)
    _require_valid(rep, "fixture override")
    try:
        suite = Suite(pres, rep)
    except InputError as exc:
        raise InputError("the fixture override does not cover the bundled walls "
                         f"and words: {exc}") from exc
    checks = run_fixture_suite(suite, args.coefficients, args.cases)
    for c in checks:
        print(c.line(), file=sys.stderr)
    doc = {"checks": [c.to_json() for c in checks],
           "passed": sum(c.passed for c in checks),
           "failed": sum(not c.passed for c in checks)}
    _emit(doc, args.output)
    return EXIT_OK if doc["failed"] == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bendlab",
        description="Exact twisted cohomology and branched bending computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a representation file")
    p.add_argument("--presentation", help="presentation JSON (default: bundled)")
    p.add_argument("--rep", help="representation JSON (default: bundled)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cohomology", help="cohomology dimensions")
    p.add_argument("--presentation")
    p.add_argument("--rep")
    p.add_argument("--coefficients", choices=sorted(COEFFICIENT_KINDS),
                   default="r31")
    p.add_argument("--parabolic", choices=["per-element", "per-subgroup", "none"],
                   default="per-subgroup")
    p.add_argument("--output")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("branched-system", help="per-binding closure system")
    p.add_argument("complex", help="bending complex JSON")
    p.add_argument("--geometry", choices=["so", "sl"], required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_branched_system)

    p = sub.add_parser("bend", help="bending generators, cocycles, trace matrix")
    p.add_argument("--presentation")
    p.add_argument("--rep")
    p.add_argument("--pants", required=True, help="wall subgroup table JSON")
    p.add_argument("--words", help="file of words, one per line")
    p.add_argument("--geometry", choices=["sl", "so"], default="sl")
    p.add_argument("--output")
    p.set_defaults(func=cmd_bend)

    p = sub.add_parser("borromean", help="run the bundled fixture suite")
    p.add_argument("--coefficients", choices=sorted(COEFFICIENT_KINDS))
    p.add_argument("--cases", type=int, default=1000,
                   help="cases per randomized property suite")
    p.add_argument("--presentation", help="override the bundled presentation")
    p.add_argument("--rep", help="override the bundled representation")
    p.add_argument("--output")
    p.set_defaults(func=cmd_borromean)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
