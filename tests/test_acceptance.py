"""Acceptance battery: one test per shipped guarantee.  The checks, their
samples and tolerances live in freetransform.verify; each test asserts
that its named checks ran and passed, and prints their verify lines so a
log scrape shows every guarantee with the slack it passed with."""

import pytest

from freetransform.verify import run_suite


@pytest.fixture(scope="session")
def checks():
    return run_suite("all")


def _assert_pass(checks, *names):
    for name in names:
        found = [r for r in checks if r.name == name]
        assert found, f"verify has no check named {name!r}"
        for r in found:
            print(r.line())
            assert r.passed, r.line()


def test_criterion_01_cauchy_integral_anchor(checks):
    """The full-line Pick integral collapses to -i pi at every t."""
    _assert_pass(checks, "cauchy-integral-anchor")


def test_criterion_02_gaussian_laplace_route(checks):
    """Analytic Laplace route equals a + sigma^2/(it) for Gaussian laws."""
    _assert_pass(checks, "gaussian-laplace-roundtrip")


def test_criterion_03_kernel_oracle_equivalence(checks):
    """Closed-form g, c, d match direct quadrature for every family."""
    _assert_pass(checks, "sself-g-oracle", "ubeta-g-oracle", "lclass-g-oracle",
                 "sself-const-oracle", "ubeta-const-oracle",
                 "lclass-const-oracle")


def test_criterion_04_nevanlinna_sign(checks):
    """g maps the upper half-plane into the lower one, strictly."""
    _assert_pass(checks, "sself-upper-to-lower", "ubeta-upper-to-lower",
                 "lclass-upper-to-lower")


def test_criterion_05_pick_identity(checks):
    """Step-kernel g agrees with its half-plane representation."""
    _assert_pass(checks, "pick-identity")


def test_criterion_06_operator_lowering(checks):
    """One lowering step drops each hierarchy by one level; iterated
    steps land on the plain transform."""
    _assert_pass(checks, "shrink-step", "selfdec-step",
                 "shrink-power-1", "shrink-power-2", "shrink-power-3",
                 "selfdec-power-1", "selfdec-power-2", "selfdec-power-3")


def test_criterion_07_filtration_limit_rate(checks):
    """The power-time-change gap to the plain transform decays like 1/k."""
    _assert_pass(checks, "ubeta-filtration-monotone", "ubeta-filtration-rate")


def test_criterion_08_small_argument_slope(checks):
    """(g(ix/t) - c)/x converges to d/(it) as x -> 0."""
    _assert_pass(checks, "sself-small-x-slope", "ubeta-small-x-slope",
                 "lclass-small-x-slope")


def test_criterion_09_linf_removable_singularities(checks):
    """Approach to x = +-1 settles on the limits i pi/2 -+ gamma, and the
    series agrees with the direct gamma form away from them."""
    _assert_pass(checks, "linf-approach-pos", "linf-approach-neg",
                 "linf-approach-monotone", "linf-gamma-oracle")


def test_criterion_10_algebraic_identities(checks):
    """Dilation, convolution, operator difference, and measure round
    trips hold to near machine precision."""
    _assert_pass(checks, "dilation-identity", "convolution-identity",
                 "operator-difference-identity", "measure-roundtrip",
                 "exp-map-split")
