"""Acceptance suite: every criterion at its stated (zero) tolerance, one
pass/fail line per criterion. Every check passes; any red is a regression.

The standard-coefficient half of criterion 11 asserts class span 2 for the
six single-wall bending cocycles and proves it: four exact coboundary
relations bound it above, the per-cusp triviality pattern bounds it below.
The README carries the analysis.
"""

import pytest

from bendlab import acceptance
from bendlab.linalg import RationalMatrix
from bendlab.reps import QuadraticForm, Representation

CASES = 1000


@pytest.fixture(scope="module")
def ctx(bundle):
    return bundle


def report(results):
    failed = []
    for r in results:
        print(r.line())
        if not r.passed:
            failed.append(r)
    assert not failed, "; ".join(r.line() for r in failed)


def test_criterion_01_02_03_dimensions(ctx):
    report(acceptance.check_dimensions(ctx))


def test_criterion_04_scannell_identity(ctx):
    report(acceptance.check_scannell(ctx))


def test_criterion_05_parabolic_agreement(ctx):
    report(acceptance.check_parabolic_agreement(ctx))


def test_criterion_06_borromean_complex(ctx):
    report(acceptance.check_borromean_complex(ctx))


def test_criterion_07_roots_of_unity(ctx):
    report(acceptance.check_roots_of_unity(ctx))


def test_criterion_08_pythagorean_ranks(ctx):
    report(acceptance.check_pythagorean_ranks(ctx))


def test_criterion_09_10_trace_matrix(ctx):
    report(acceptance.check_trace_matrix(ctx))


def test_criterion_11_nu_class_span(ctx):
    report(acceptance.check_nu_class_span(ctx))


def test_criterion_11_standard_class_span(ctx):
    # span exactly 2, with coboundary relations and cusp pattern as
    # certificates; the third dimension of H^1 needs branched weights
    report(acceptance.check_standard_class_span(ctx))


def test_criterion_12_beta_combinations(ctx):
    report(acceptance.check_beta_combinations(ctx))


def test_criterion_13_property_fox_identity(ctx):
    report(acceptance.suite_fox_identity(ctx, CASES))


def test_criterion_13_property_coboundary_identity(ctx):
    report(acceptance.suite_coboundary_identity(ctx, CASES))


def test_criterion_13_property_rank_nullity(ctx):
    report(acceptance.suite_rank_nullity(ctx, CASES))


def test_criterion_13_property_relator_derivatives(ctx):
    report(acceptance.suite_relator_derivatives(ctx, CASES))


def test_criterion_13_property_conjugation_invariance(ctx):
    report(acceptance.suite_conjugation_invariance(ctx, CASES))


def test_fixture_suite_passes_on_an_override_under_another_form(bundle):
    # the change of basis P moves the form Q = diag(-1, 1, 1, 1) to P^-T Q P^-1,
    # which the conjugator pool's reflection, swap and boost do not preserve
    p = RationalMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]])
    pi = p.inverse()
    rho = bundle.representation
    other = Representation(bundle.presentation,
                           {g: p * m * pi for g, m in rho.images.items()},
                           QuadraticForm(pi.transpose() * rho.form.matrix * pi))
    assert not other.form.preserved_by(acceptance._conjugator_pool(rho)[-1])
    report(acceptance.run_fixture_suite(acceptance.Suite(bundle.presentation, other), cases=2))
