"""The one-shot verification suite over the Borromean fixture bundle.

Each check records its expected and computed values; the CLI's ``borromean``
subcommand and the acceptance test module both run these, on the bundled
presentation and representation or on ones given in their place. Randomized
property suites use fixed seeds, so output is deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .bending import (MODULE_KIND, centralizer_generator, hnn_first_order,
                      match_up_to_column_signs_and_scale, tangent_cocycle,
                      trace_derivative_matrix)
from .cohomology import (CocycleSpace, class_span_dim, cocycle_eval, h1_report,
                         is_cuspidal, peripheral_invariant_dims, scannell_check)
from .complexes import (Angle, BendingComplex, Binding, Incidence,
                        bending_dimension, build_system)
from .fixtures import FixtureBundle
from .linalg import RationalMatrix, in_column_space, nullspace, rank_of_vectors, rref_rank
from .modules import CoefficientModule
from .reps import first_order_evaluate
from .words import GroupRingElem, Word, fox_derivative

COEFFICIENT_KINDS = {"r31": "standard", "nu": "nu", "adjoint": "adjoint"}

# exact (cos, sin) pairs on the unit circle, first at angle zero
PYTHAGOREAN_ANGLES = [
    ("1", "0"), ("3/5", "4/5"), ("-4/5", "3/5"), ("-3/5", "-4/5"),
    ("4/5", "-3/5"), ("5/13", "12/13"), ("-12/13", "5/13"), ("8/17", "15/17"),
]


@dataclass
class CheckResult:
    check_id: str
    name: str
    passed: bool
    expected: object
    computed: object

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check_id}: {self.name} "
                f"(expected {self.expected}, computed {self.computed})")

    def to_json(self) -> dict:
        return {"id": self.check_id, "name": self.name, "passed": self.passed,
                "expected": self.expected, "computed": self.computed}


@dataclass
class SuiteContext:
    bundle: FixtureBundle
    spaces: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)

    def module(self, kind: str):
        return self.bundle.representation.module(kind)

    def space(self, kind: str) -> CocycleSpace:
        if kind not in self.spaces:
            self.spaces[kind] = CocycleSpace(self.bundle.presentation,
                                             self.module(kind))
        return self.spaces[kind]

    def report(self, kind: str, mode: str):
        key = (kind, mode)
        if key not in self.reports:
            self.reports[key] = h1_report(self.bundle.presentation,
                                          self.module(kind), mode=mode,
                                          space=self.space(kind))
        return self.reports[key]


def check_dimensions(ctx: SuiteContext, kinds=("standard", "nu", "adjoint")):
    """Criteria 1-3: headline cohomology dimensions."""
    expected = {"standard": {"H1": 3, "PH1": 0},
                "nu": {"H1": 6, "PH1": 3},
                "adjoint": {"PH1": 0}}
    out = []
    for kind in kinds:
        rep = ctx.report(kind, "per_subgroup")
        want = expected[kind]
        got = {"H1": rep.dim_h1, "PH1": rep.dim_ph1}
        got = {k: got[k] for k in want}
        num = {"standard": "1", "nu": "2", "adjoint": "3"}[kind]
        out.append(CheckResult(num, f"{kind} coefficients: cohomology dimensions",
                               got == want, want, got))
    return out


def check_scannell(ctx: SuiteContext, kinds=("standard", "nu")):
    """Criterion 4: restriction identity with per-cusp peripheral invariants."""
    out = []
    for kind in kinds:
        rep = ctx.report(kind, "per_subgroup")
        peri = peripheral_invariant_dims(ctx.bundle.presentation, ctx.module(kind))
        ok = (scannell_check(rep, sum(peri)) and peri == [1, 1, 1]
              and rep.dim_h1 - rep.dim_ph1 == 3)
        out.append(CheckResult("4", f"{kind}: H1 - PH1 = per-cusp invariants",
                               ok, {"difference": 3, "per_cusp": [1, 1, 1]},
                               {"difference": rep.dim_h1 - rep.dim_ph1,
                                "per_cusp": peri}))
    return out


def check_parabolic_agreement(ctx: SuiteContext,
                              kinds=("standard", "nu", "adjoint")):
    """Criterion 5: per-element equals per-subgroup on every module."""
    out = []
    for kind in kinds:
        sub = ctx.report(kind, "per_subgroup")
        elem = ctx.report(kind, "per_element")
        out.append(CheckResult("5", f"{kind}: per-element vs per-subgroup",
                               elem.dim_pz1 == sub.dim_pz1,
                               {"per_subgroup": sub.dim_pz1},
                               {"per_element": elem.dim_pz1}))
    return out


def check_borromean_complex(ctx: SuiteContext):
    """Criterion 6: the four-wall complex reduces to omega_3 = omega_2."""
    system = ctx.bundle.complex
    report = bending_dimension(system, "so")
    red, rank, _ = rref_rank(build_system(system, "so"))
    single_relation = (rank == 1 and list(red.row(0)) ==
                       [Fraction(0), Fraction(1), Fraction(-1), Fraction(0)])
    ok = (report.nullity == 3 and report.naive_bound == -2 and single_relation)
    return [CheckResult("6", "branched complex: omega_3 = omega_2, nullity 3",
                        ok,
                        {"nullity": 3, "naive_bound": -2, "relation": "w2 - w3"},
                        {"nullity": report.nullity,
                         "naive_bound": report.naive_bound,
                         "rank": rank})]


def check_roots_of_unity(ctx: SuiteContext):
    """Criterion 7: equal weights solve single k-valent bindings, k = 3..12."""
    failures = []
    for k in range(3, 13):
        if k == 4:
            angles = [Angle.named(n) for n in ("0", "pi/2", "pi", "3pi/2")]
        else:
            angles = [Angle.float_pair(math.cos(t), math.sin(t))
                      for t in (2 * math.pi * j / k for j in range(k))]
        walls = tuple(f"v{j}" for j in range(k))
        binding = Binding("b", tuple(Incidence(walls[j], angles[j])
                                     for j in range(k)))
        cx = BendingComplex(3, walls, (binding,))
        rep = bending_dimension(cx, "so")
        if not rep.equal_weights_solve:
            failures.append(k)
    return [CheckResult("7", "equal weights at k-th roots of unity, k=3..12",
                        not failures, [], failures)]


def check_pythagorean_ranks(ctx: SuiteContext):
    """Criterion 8: generic exact angles give nullity k-2 (so) and k-3 (sl)."""
    results = {}
    ok = True
    for k in range(4, 9):
        walls = tuple(f"v{j}" for j in range(k))
        incs = tuple(Incidence(walls[j],
                               Angle.exact_pair(*PYTHAGOREAN_ANGLES[j]))
                     for j in range(k))
        cx = BendingComplex(3, walls, (Binding("b", incs),))
        so = bending_dimension(cx, "so").nullity
        sl = bending_dimension(cx, "sl").nullity
        results[k] = {"so": so, "sl": sl}
        ok = ok and so == k - 2 and sl == k - 3
    return [CheckResult("8", "Pythagorean angle nullities, k=4..8", ok,
                        {k: {"so": k - 2, "sl": k - 3} for k in range(4, 9)},
                        results)]


def _bend(rep, data):
    """The first-order HNN bending of ``rep`` along each wall datum, in order."""
    return [hnn_first_order(rep, datum, centralizer_generator(rep, datum))
            for datum in data]


def check_trace_matrix(ctx: SuiteContext):
    """Criteria 9-10: rank and entrywise reproduction of the reference."""
    f = trace_derivative_matrix(_bend(ctx.bundle.representation, ctx.bundle.pants_trace),
                                ctx.bundle.trace_words)
    rank = f.rank()
    out = [CheckResult("9", "trace-derivative matrix rank", rank == 6, 6, rank)]
    match = match_up_to_column_signs_and_scale(f, ctx.bundle.trace_reference)
    if match is None:
        out.append(CheckResult("10", "trace matrix matches reference", False,
                               "scale * column signs", "no transformation found"))
    else:
        scale, signs = match
        out.append(CheckResult("10", "trace matrix matches reference", True,
                               "scale * column signs",
                               {"global_scale": str(scale),
                                "column_signs": signs}))
    return out


# the fixture's cusps in presentation order (meridians x, y, z); the wall
# named P_AB meets cusps A and B only
BORROMEAN_CUSPS = ("R", "B", "G")

# combinations of the six standard bending cocycles, by wall, that are
# coboundaries; they are stable under the symmetry x -> y -> z -> x
STANDARD_RELATIONS = (("RG", "GR"), ("BR", "RB"), ("GB", "BG"),
                      ("RG", "BR", "GB"))


def bending_cocycles(ctx: SuiteContext, geometry: str):
    """Tangent cocycles of the six fixture bendings in the given geometry."""
    module = ctx.module(MODULE_KIND[geometry])
    data = [replace(datum, geometry=geometry) for datum in ctx.bundle.pants]
    return [tangent_cocycle(fo, module)
            for fo in _bend(ctx.bundle.representation, data)]


def check_nu_class_span(ctx: SuiteContext):
    """Criterion 11, nu half: the six tangent cocycles span H^1."""
    nu_span = class_span_dim(ctx.space("nu"), bending_cocycles(ctx, "sl"))
    return [CheckResult("11", "six nu cocycles: class span", nu_span == 6,
                        6, nu_span)]


def check_standard_class_span(ctx: SuiteContext):
    """Criterion 11, standard half: the six single-wall classes span exactly
    2 of the 3 dimensions of H^1 with R^{3,1} coefficients.

    Upper bound: each combination in ``STANDARD_RELATIONS`` is a coboundary,
    with its alpha checked by recomputing ``coboundary(alpha)`` exactly, and
    the four relations are independent over the six walls, so the span is at
    most 6 - 4 = 2. Lower bound: each class is trivial on exactly the cusp
    its wall does not meet. So c_RB is nontrivial at cusp R, where c_BG is
    trivial, and c_BG is nontrivial at cusp B; restricting a vanishing
    combination a c_RB + b c_BG to cusp R gives a = 0, then to cusp B gives
    b = 0. The exact rank from ``class_span_dim`` must agree. The third
    dimension is reached only by branched weights (criterion 6).
    """
    space = ctx.space("standard")
    walls = [datum.name.removeprefix("P_") for datum in ctx.bundle.pants]
    cocycles = dict(zip(walls, bending_cocycles(ctx, "so_ext")))
    span = class_span_dim(space, cocycles.values())
    relations = {}
    for rel in STANDARD_RELATIONS:
        combo = tuple(map(sum, zip(*(cocycles[w] for w in rel))))
        alpha = in_column_space(space.coboundary_map, combo)
        verified = alpha is not None and space.coboundary(alpha) == combo
        relations["+".join(rel)] = [str(a) for a in alpha] if verified else None
    relation_rank = rank_of_vectors([[int(w in rel) for w in walls]
                                     for rel in STANDARD_RELATIONS])
    trivial_at = {w: [cusp for cusp, trivial
                      in zip(BORROMEAN_CUSPS, space.cuspidal_defect(c))
                      if trivial]
                  for w, c in cocycles.items()}
    expected = {"span": 2,
                "relations": {name: "coboundary" for name in relations},
                "relation_rank": 4,
                "trivial_at_cusp": {w: [cusp for cusp in BORROMEAN_CUSPS
                                        if cusp not in w] for w in walls}}
    computed = {"span": span, "relations": relations,
                "relation_rank": relation_rank, "trivial_at_cusp": trivial_at}
    ok = (span == 2 and None not in relations.values() and relation_rank == 4
          and trivial_at == expected["trivial_at_cusp"])
    return [CheckResult("11", "six standard cocycles: class span", ok,
                        expected, computed)]


def check_beta_combinations(ctx: SuiteContext):
    """Criterion 12: the three pair differences are cuspidal with span 3."""
    cocs = bending_cocycles(ctx, "sl")
    betas = [tuple(a - b for a, b in zip(cocs[0], cocs[1])),
             tuple(a - b for a, b in zip(cocs[2], cocs[3])),
             tuple(a - b for a, b in zip(cocs[4], cocs[5]))]
    space = ctx.space("nu")
    cusp = [is_cuspidal(space, b) for b in betas]
    span = class_span_dim(space, betas)
    ok = all(cusp) and span == 3
    return [CheckResult("12", "beta combinations cuspidal with span 3", ok,
                        {"cuspidal": [True] * 3, "span": 3},
                        {"cuspidal": cusp, "span": span})]


def _random_word(rng: random.Random, gens, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.choice(gens), rng.choice((1, -1))))
    return Word(letters)


def suite_fox_identity(ctx: SuiteContext, cases: int):
    """Sum_i d(w)/d(x_i) (x_i - 1) = w - 1 in the group ring."""
    rng = random.Random(101)
    gens = list(ctx.bundle.presentation.generators)
    words = list(ctx.bundle.presentation.relators)
    words += [_random_word(rng, gens, 30) for _ in range(cases)]
    one = GroupRingElem.one()
    bad = 0
    for w in words:
        total = GroupRingElem.zero()
        for g in gens:
            gi = GroupRingElem.from_word(Word.generator(g)) - one
            total = total + fox_derivative(w, g) * gi
        if total != GroupRingElem.from_word(w) - one:
            bad += 1
    return CheckResult("13", f"fox fundamental identity ({len(words)} cases)",
                       bad == 0, 0, bad)


def suite_coboundary_identity(ctx: SuiteContext, cases: int):
    """Coboundaries extend as c(w) = (I - w).alpha for every word."""
    rng = random.Random(102)
    space = ctx.space("standard")
    module = ctx.module("standard")
    gens = list(ctx.bundle.presentation.generators)
    bad = 0
    for _ in range(cases):
        alpha = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(space.d)]
        c = space.coboundary(alpha)
        w = _random_word(rng, gens, 10)
        lhs = cocycle_eval(space, c, w)
        rhs = module.coboundary_map([w]).matvec(alpha)
        if lhs != rhs:
            bad += 1
    return CheckResult("13", f"cocycle-extension coboundary identity ({cases} cases)",
                       bad == 0, 0, bad)


def suite_rank_nullity(ctx: SuiteContext, cases: int):
    rng = random.Random(103)
    bad = 0
    for _ in range(cases):
        rows = rng.randint(0, 6)
        cols = rng.randint(1, 6)
        m = RationalMatrix(rows, cols,
                           [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(rows * cols)])
        if m.rank() + len(nullspace(m)) != cols:
            bad += 1
    return CheckResult("13", f"rank-nullity ({cases} cases)", bad == 0, 0, bad)


def suite_relator_derivatives(ctx: SuiteContext, cases: int):
    """First-order relator derivatives vanish for all six bendings, including
    on random normal-closure elements."""
    rng = random.Random(104)
    pres = ctx.bundle.presentation
    gens = list(pres.generators)
    fos = _bend(ctx.bundle.representation, ctx.bundle.pants)
    bad = 0
    checked = 0
    for fo in fos:
        for r in pres.relators:
            checked += 1
            _, e = first_order_evaluate(fo, r)
            if not e.is_zero():
                bad += 1
    for _ in range(cases):
        fo = rng.choice(fos)
        u = _random_word(rng, gens, 4)
        r = rng.choice(pres.relators)
        if rng.random() < 0.5:
            r = r.inverse()
        w = u * r * u.inverse()
        checked += 1
        _, e = first_order_evaluate(fo, w)
        if not e.is_zero():
            bad += 1
    return CheckResult("13", f"relator first-order vanishing ({checked} cases)",
                       bad == 0, 0, bad)


def _conjugator_pool(rep):
    """Exact matrices preserving ``rep``'s form, for conjugation tests: the
    generator images and three inverses, plus the reflection, swap and boost
    of diag(-1, 1, 1, 1) wherever the form admits them."""
    gens = rep.presentation.generators
    pool = [rep.images[g] for g in gens] + [rep.image(g, -1) for g in gens[:3]]
    flip = RationalMatrix.from_rows([[1, 0, 0, 0], [0, -1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 1]])
    perm = RationalMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0],
                                     [0, 1, 0, 0], [0, 0, 0, 1]])
    boost = RationalMatrix.from_rows([
        [Fraction(5, 3), Fraction(4, 3), 0, 0],
        [Fraction(4, 3), Fraction(5, 3), 0, 0],
        [0, 0, 1, 0], [0, 0, 0, 1]])
    return pool + [m for m in (flip, perm, boost) if rep.form.preserved_by(m)]


def suite_conjugation_invariance(ctx: SuiteContext, cases: int):
    """All report dimensions are unchanged under conjugating the representation
    by random exact form-preserving matrices. Cases cycle through the three
    coefficient module kinds."""
    rng = random.Random(105)
    rep = ctx.bundle.representation
    pres = ctx.bundle.presentation
    pool = _conjugator_pool(rep)
    kinds = ("standard", "nu", "adjoint")
    baselines = {}
    for kind in kinds:
        r = ctx.report(kind, "per_subgroup")
        baselines[kind] = (r.dim_z1, r.dim_b1, r.dim_h0, r.dim_h1,
                           r.dim_pz1, r.dim_ph1)
    bad = 0
    for i in range(cases):
        kind = kinds[i % 3]
        u = RationalMatrix.identity(rep.size)
        for _ in range(rng.randint(1, 2)):
            u = u * rng.choice(pool)
        conj = rep.conjugated(u)
        module = CoefficientModule(conj, kind)
        r = h1_report(pres, module, mode="per_subgroup")
        got = (r.dim_z1, r.dim_b1, r.dim_h0, r.dim_h1, r.dim_pz1, r.dim_ph1)
        if got != baselines[kind]:
            bad += 1
    return CheckResult("13", f"conjugation invariance ({cases} cases)",
                       bad == 0, 0, bad)


def run_property_suites(ctx: SuiteContext, cases: int = 1000):
    return [
        suite_fox_identity(ctx, cases),
        suite_coboundary_identity(ctx, cases),
        suite_rank_nullity(ctx, cases),
        suite_relator_derivatives(ctx, cases),
        suite_conjugation_invariance(ctx, cases),
    ]


def run_fixture_suite(bundle: FixtureBundle, coefficients: str | None = None,
                      cases: int = 1000) -> list[CheckResult]:
    """Every acceptance check on ``bundle``; with ``coefficients`` in {"r31",
    "nu", "adjoint"}, only the dimension, restriction and parabolic checks of
    that coefficient kind. A step that the bundle's data leave unable to run
    (an override whose walls have no one-dimensional centralizer, or that
    has no cusps) is one failed check that names the error."""
    ctx = SuiteContext(bundle)
    kinds = tuple(COEFFICIENT_KINDS.values()) if coefficients is None else (
        COEFFICIENT_KINDS[coefficients],)
    steps = [(check_dimensions, kinds),
             (check_scannell, [k for k in kinds if k != "adjoint"]),
             (check_parabolic_agreement, kinds)]
    if coefficients is None:
        steps += [(check_borromean_complex,), (check_roots_of_unity,),
                  (check_pythagorean_ranks,), (check_trace_matrix,),
                  (check_nu_class_span,), (check_standard_class_span,),
                  (check_beta_combinations,), (run_property_suites, cases)]
    checks = []
    for step, *args in steps:
        try:
            checks += step(ctx, *args)
        except ValueError as exc:
            checks.append(CheckResult("-", step.__name__, False, "no error", str(exc)))
    return checks
