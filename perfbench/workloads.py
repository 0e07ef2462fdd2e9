"""The three bendlab benchmark workloads: inputs from a seed, the timed flow,
and the per-item oracle.

Each workload is a closed loop with one client: item ``i + 1`` starts only
after item ``i`` returns. An item's input is the JSON or text a user would
hand the CLI, generated from ``(seed, i)`` alone; parsing it is part of the
item. The flow calls bendlab's public functions in the order the matching
CLI subcommand does. The oracle runs after the timed flow and outside it.

Sizes, lengths and heights follow fixed rotations over the item index and
the seed draws the contents, so every seed sees the same mix of work; that
keeps the latency quantiles of one seed close to those of another.

Why each workload
-----------------
``cohomology_conjugates`` (the ``bendlab cohomology`` flow)
    Conjugates of the Borromean representation by form-preserving rational
    matrices: a generator image, a Pythagorean boost or a Pythagorean
    rotation, times a seeded signed permutation of the axes. The factor and
    its Pythagorean triple set the entry height. One height-raising factor
    per conjugator keeps the latencies of the three coefficient kinds, which
    rotate standard/nu/adjoint, in separate clusters, so the median and the
    90th percentile fall inside a cluster (a product of two factors made the
    adjoint and nu clusters overlap and the median wander with the seed). It is the generated-input form of
    the ``borromean`` conjugation suite, which is most of the Tier-1 wall
    time, so it stands in for both roadmap end-to-end numbers. Work: ``modules`` (Ad matrices on cold caches), ``cohomology``
    (Jacobian and parabolic conditions) and many small dense ``linalg``
    eliminations. One ``CocycleSpace`` per item.

``bend_words`` (the ``bendlab bend`` flow)
    One nu and one standard module, and their cocycle spaces, are built in
    set-up and reused. Each item takes one (wall, geometry) pair from
    ``borromean_pants.json``, cycling through 6 walls x {sl, so_ext}, and
    runs the centralizer, the HNN first-order bending and the tangent
    cocycle. It then parses a seeded batch of word texts (exponents,
    commutators; a short word, 0-2 words of 8-32 letters from a fixed
    rotation of patterns, and one relator conjugate) and evaluates each to
    first order, with trace derivatives on sl items and the tangent
    cocycle's value on every word. Work: ``reps`` (dual-number products over long words),
    ``words`` (parsing) and ``bending``; ``tangent_cocycle`` rebuilds a
    ``CocycleSpace`` on every call, which shows here and not above.

``branched_complexes`` (the ``bendlab branched-system`` flow)
    Seeded random complexes of 24-36 walls and 0.3 bindings per wall, of
    valence 3-8, at exact Pythagorean angles of height up to 4, 16 or 64
    (sizes and heights rotate), solved for ``so`` and ``sl``, plus the
    float twin of each (same angles as float pairs) through
    ``FloatMatrix.rank``. Work: ``linalg`` on few, larger, sparse matrices
    with high-height entries -- the regime where fraction-free or modular
    elimination pays most, and the opposite of ``cohomology_conjugates``.

Predictions (which layer metric should move which end-to-end metric)
---------------------------------------------------------------------
======================================  =====================================
layer metric (traced run)               end-to-end metric it should move
======================================  =====================================
``linalg.*.self_ms``                    ``items_per_s`` and ``latency_p90_ms``;
                                        largest on ``branched_complexes``,
                                        then ``cohomology_conjugates``, small
                                        on ``bend_words``
``cohomology.CocycleSpace.calls``       ``items_per_s`` on ``bend_words``; no
                                        effect on ``cohomology_conjugates``,
                                        where it stays exactly 1 per item
``modules.action.self_ms``,             ``bend_words``
``reps.first_order_evaluate.self_ms``
``modules.CoefficientModule.self_ms``   ``cohomology_conjugates`` only
``words.parse_word.self_ms``            ``bend_words`` only
``linalg.FloatMatrix.rank.self_ms``     ``branched_complexes`` only
======================================  =====================================
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "bendlab" / "data"
GENERATORS = ("x", "y", "z")
KINDS = ("standard", "nu", "adjoint")

# fixture dimensions per coefficient kind: (dim H^1, dim PH^1)
FIXTURE_DIMS = {"standard": (3, 0), "nu": (6, 3), "adjoint": (6, 0)}


def item_rng(seed: int, workload: str, i: int) -> random.Random:
    """The generator for item ``i``: depends only on the seed, the workload
    and the index, so inputs do not depend on how fast earlier items ran."""
    return random.Random(f"{seed}/{workload}/{i}")


def _is_zero(values) -> bool:
    return all(v == 0 for v in values)


# --- exact 4x4 helpers for building conjugators (input generation only) ---

FORM = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
FACTORS = ("image", "boost", "rotation")


def _matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _form_inverse(u):
    """u^-1 = Q u^T Q for u preserving Q = diag(-1, 1, 1, 1) (Q = Q^-1)."""
    ut = [list(r) for r in zip(*u)]
    return _matmul(_matmul(FORM, ut), FORM)


def _identity():
    return [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]


def _conjugator_factor(rng: random.Random, images, kind: str, triple):
    """One form-preserving rational matrix of the given kind -- a generator
    image or its inverse, a Pythagorean boost or a Pythagorean rotation from
    ``triple`` -- times a seeded signed permutation of the spatial axes,
    which leaves the entry height as it is."""
    if kind == "image":
        m = images[rng.choice(GENERATORS)]
        m = m if rng.random() < 0.5 else _form_inverse(m)
    else:
        a, b, c = triple
        a, b = rng.choice(((a, b), (b, a)))
        m = _identity()
        if kind == "boost":
            k = rng.randint(1, 3)
            m[0][0] = m[k][k] = Fraction(c, a)
            m[0][k] = m[k][0] = Fraction(rng.choice((1, -1)) * b, a)
        else:
            j, k = rng.sample((1, 2, 3), 2)
            m[j][j] = m[k][k] = Fraction(a, c)
            m[j][k] = Fraction(-b, c)
            m[k][j] = Fraction(b, c)
    axes = rng.sample((1, 2, 3), 3)
    p = [[Fraction(0)] * 4 for _ in range(4)]
    p[0][0] = Fraction(1)
    for row, col in zip((1, 2, 3), axes):
        p[row][col] = Fraction(rng.choice((1, -1)))
    return _matmul(m, p)


# --- word texts (input generation only) ---

def _inverse(letters):
    return [(g, -e) for g, e in reversed(letters)]


def _text_and_letters(rng: random.Random, budget: int, depth: int = 0):
    """A word text of about ``budget`` letters before free reduction, using
    the parser's exponents, groups and commutators, and its letters."""
    parts, letters = [], []
    while len(letters) < budget:
        left = budget - len(letters)
        r = rng.random()
        if left < 4 or depth >= 3 or r < 0.45:
            k = rng.choice((1, 1, 1, -1, 2, -2, 3))
            g = rng.choice(GENERATORS)
            parts.append(g if k == 1 else f"{g}^{k}")
            letters += [(g, 1 if k > 0 else -1)] * abs(k)
        elif r < 0.75:
            a, la = _text_and_letters(rng, max(1, left // 4), depth + 1)
            b, lb = _text_and_letters(rng, max(1, left // 4), depth + 1)
            parts.append(f"[{a},{b}]")
            letters += la + lb + _inverse(la) + _inverse(lb)
        else:
            k = rng.choice((2, 3, -2))
            inner, li = _text_and_letters(rng, max(1, left // (2 * abs(k))),
                                          depth + 1)
            parts.append(f"({inner})^{k}")
            letters += (li if k > 0 else _inverse(li)) * abs(k)
    return " ".join(parts), letters


def _reduced_length(letters) -> int:
    out = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return len(out)


def _word_text(rng: random.Random, length: int) -> str:
    """A word text whose freely reduced length is within a quarter of
    ``length`` (at least 1), so that item costs vary little with the seed."""
    slack = max(1, length // 4)
    for _ in range(100):
        text, letters = _text_and_letters(rng, length)
        if abs(_reduced_length(letters) - length) <= slack:
            return text
    return text


# --- random Pythagorean angles (input generation only) ---

def _pythagorean_angle(rng: random.Random, height: int):
    """An exact (cos, sin) pair a/c, b/c from Euclid's formula with m <= height."""
    while True:
        m = rng.randint(2, height)
        n = rng.randint(1, m - 1)
        a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
        if a and b:
            break
    if rng.random() < 0.5:
        a, b = b, a
    return Fraction(rng.choice((1, -1)) * a, c), Fraction(rng.choice((1, -1)) * b, c)


class CohomologyConjugates:
    """The ``bendlab cohomology`` flow (per-subgroup parabolic mode) on a
    stream of conjugates of the Borromean representation."""

    name = "cohomology_conjugates"

    def setup(self, bl):
        return {"bl": bl,
                "presentation": bl.Presentation.from_json(
                    json.loads((DATA / "borromean_presentation.json").read_text())),
                "images": {g: [[Fraction(x) for x in row] for row in m]
                           for g, m in json.loads(
                               (DATA / "borromean_representation.json").read_text()
                           )["images"].items()}}

    def make_input(self, state, seed: int, i: int):
        rng = item_rng(seed, self.name, i)
        # the coefficient kind, the factor kind and the triple follow the
        # index, so each coefficient kind meets every combination in turn
        slot = i // len(KINDS)
        u = _conjugator_factor(rng, state["images"], FACTORS[slot % len(FACTORS)],
                               TRIPLES[(slot // len(FACTORS)) % len(TRIPLES)])
        ui = _form_inverse(u)
        images = {g: _matmul(_matmul(u, m), ui) for g, m in state["images"].items()}
        rep = {"form": [[str(x) for x in row] for row in FORM],
               "images": {g: [[str(x) for x in row] for row in m]
                          for g, m in images.items()}}
        return {"kind": KINDS[i % len(KINDS)], "rep_json": json.dumps(rep)}

    def run(self, state, inp):
        bl, pres = state["bl"], state["presentation"]
        rep = bl.Representation.from_json(json.loads(inp["rep_json"]), pres)
        validation = bl.validate_representation(rep)
        module = bl.CoefficientModule(rep, inp["kind"])
        space = bl.CocycleSpace(pres, module)
        report = bl.h1_report(pres, module, mode="per_subgroup", space=space)
        peripheral = bl.peripheral_invariant_dims(pres, module)
        return {"valid": validation.ok, "report": report, "peripheral": peripheral}

    def check(self, state, inp, out):
        problems = []
        report = out["report"]
        if not out["valid"]:
            problems.append("conjugate failed validation")
        want = FIXTURE_DIMS[inp["kind"]]
        got = (report.dim_h1, report.dim_ph1)
        if got != want:
            problems.append(f"{inp['kind']}: (H1, PH1) = {got}, expected {want}")
        if report.dim_h1 - report.dim_ph1 != sum(out["peripheral"]):
            problems.append(f"H1 - PH1 != sum of peripheral H0 {out['peripheral']}")
        return problems


class BendWords:
    """The ``bendlab bend`` flow: one wall datum per item, then a seeded batch
    of words evaluated to first order under its bending."""

    name = "bend_words"
    # reduced lengths of the words after the first, one pattern per item in
    # turn; 5 is coprime to the 12 (wall, geometry) pairs, so every pair
    # meets every pattern
    PATTERNS = ((), (12,), (24,), (8, 16), (32,))

    def setup(self, bl):
        fixtures = bl.fixtures
        pres = fixtures.load_presentation()
        rep = fixtures.load_representation(pres)
        modules = {"sl": bl.CoefficientModule(rep, "nu"),
                   "so_ext": bl.CoefficientModule(rep, "standard")}
        spaces = {g: bl.CocycleSpace(pres, m) for g, m in modules.items()}
        pres_json = json.loads((DATA / "borromean_presentation.json").read_text())
        return {"bl": bl, "presentation": pres, "rep": rep, "modules": modules,
                "spaces": spaces, "relators": pres_json["relators"],
                "pants": json.loads((DATA / "borromean_pants.json").read_text()),
                "nu_cocycles": {}}

    def make_input(self, state, seed: int, i: int):
        rng = item_rng(seed, self.name, i)
        pants = state["pants"]
        wall = i % len(pants)
        geometry = "sl" if (i // len(pants)) % 2 == 0 else "so_ext"
        # the first word is short: the oracle expands its Fox derivatives
        words = [_word_text(rng, 6)]
        words += [_word_text(rng, n) for n in self.PATTERNS[i % len(self.PATTERNS)]]
        u = _word_text(rng, 3)
        relator = rng.choice(state["relators"])
        if rng.random() < 0.5:
            relator = f"({relator})^-1"
        words.append(f"({u}) {relator} ({u})^-1")
        # the relator conjugate is the last word
        return {"wall": wall, "geometry": geometry,
                "datum_json": json.dumps(pants[wall]), "words": words}

    def run(self, state, inp):
        bl = state["bl"]
        pres, rep = state["presentation"], state["rep"]
        geometry = inp["geometry"]
        module, space = state["modules"][geometry], state["spaces"][geometry]
        datum = bl.BendingDatum.from_json(json.loads(inp["datum_json"]), pres,
                                          geometry)
        v = bl.centralizer_generator(rep, datum)
        fo = bl.hnn_first_order(rep, datum, v)
        cocycle = bl.tangent_cocycle(fo, module)
        words = [bl.parse_word(text, pres.generators) for text in inp["words"]]
        derivatives, traces, values = [], [], []
        for w in words:
            _, e = bl.first_order_evaluate(fo, w)
            derivatives.append(e)
            if geometry == "sl":
                traces.append(e.trace())
            values.append(bl.cocycle_eval(space, cocycle, w))
        return {"cocycle": cocycle, "words": words, "derivatives": derivatives,
                "traces": traces, "values": values}

    def check(self, state, inp, out):
        bl = state["bl"]
        problems = []
        space = state["spaces"][inp["geometry"]]
        module = state["modules"][inp["geometry"]]
        relator = inp["words"][-1]
        if not out["derivatives"][-1].is_zero():
            problems.append(f"relator conjugate {relator!r}: nonzero first-order "
                            "derivative")
        if not _is_zero(out["values"][-1]):
            problems.append(f"relator conjugate {relator!r}: nonzero cocycle value")
        # the prefix-walk row against the group-ring Fox derivative
        w = out["words"][0]
        row, d = space.word_row(w), space.d
        for k, gen in enumerate(state["presentation"].generators):
            block = row.submatrix(range(d), range(k * d, (k + 1) * d))
            if block != module.action(bl.fox_derivative(w, gen)):
                problems.append(f"word_row block {gen} of {w} != action of "
                                "the Fox derivative")
        if inp["geometry"] == "sl":
            cycle = state["nu_cocycles"]
            cycle[inp["wall"]] = out["cocycle"]
            if len(cycle) == len(state["pants"]):
                span = bl.class_span_dim(space, list(cycle.values()))
                cycle.clear()
                if span != len(state["pants"]):
                    problems.append(f"six nu cocycles span {span}, expected 6")
        return problems


class BranchedComplexes:
    """The ``bendlab branched-system`` flow for both geometries on a random
    exact complex, plus the same complex with float angles."""

    name = "branched_complexes"
    GEOMETRIES = ("so", "sl")
    WALLS = (24, 28, 32, 36)
    HEIGHTS = (4, 16, 64)

    def setup(self, bl):
        return {"bl": bl}

    def make_input(self, state, seed: int, i: int):
        rng = item_rng(seed, self.name, i)
        # sizes and heights follow a schedule, so that every seed sees the
        # same mix; walls, valences and angles are drawn
        nwalls = self.WALLS[i % len(self.WALLS)]
        nbindings = nwalls * 3 // 10
        height = self.HEIGHTS[(i // len(self.WALLS)) % len(self.HEIGHTS)]
        walls = [f"w{k}" for k in range(nwalls)]
        exact, floats = [], []
        for b in range(nbindings):
            chosen = rng.sample(walls, rng.randint(3, 8))
            incs, fincs = [], []
            for k, wall in enumerate(chosen):
                if k == 0:
                    c, s, sign = Fraction(1), Fraction(0), 1
                else:
                    c, s = _pythagorean_angle(rng, height)
                    sign = rng.choice((1, -1))
                incs.append({"wall": wall, "sign": sign,
                             "angle": {"cos": str(c), "sin": str(s)}})
                fincs.append({"wall": wall, "sign": sign,
                              "angle": {"cos": float(c), "sin": float(s)}})
            exact.append({"name": f"b{b}", "incidences": incs})
            floats.append({"name": f"b{b}", "incidences": fincs})
        return {"exact_json": json.dumps({"dimension": 3, "walls": walls,
                                          "bindings": exact}),
                "float_json": json.dumps({"dimension": 3, "walls": walls,
                                          "bindings": floats})}

    def run(self, state, inp):
        bl = state["bl"]
        cx = bl.BendingComplex.from_json(json.loads(inp["exact_json"]))
        twin = bl.BendingComplex.from_json(json.loads(inp["float_json"]))
        return {"complex": cx,
                "exact": {g: bl.bending_dimension(cx, g) for g in self.GEOMETRIES},
                "float": {g: bl.bending_dimension(twin, g) for g in self.GEOMETRIES}}

    def check(self, state, inp, out):
        bl = state["bl"]
        problems = []
        for g in self.GEOMETRIES:
            exact, approx = out["exact"][g], out["float"][g]
            system = bl.build_system(out["complex"], g)
            kernel = bl.nullspace(system)
            if len(kernel) != exact.nullity:
                problems.append(f"{g}: {len(kernel)} kernel vectors, "
                                f"nullity {exact.nullity}")
            if not all(_is_zero(system.matvec(v)) for v in kernel):
                problems.append(f"{g}: a nullspace vector is not killed")
            if approx.exact or approx.nullity != exact.nullity:
                problems.append(f"{g}: float nullity {approx.nullity} != "
                                f"exact nullity {exact.nullity}")
        return problems


WORKLOADS = {w.name: w for w in (CohomologyConjugates(), BendWords(),
                                 BranchedComplexes())}
