"""The analytic kernels against their term-by-term references, bit for bit.

``rho``, ``plr_per_degree``, ``induce`` and ``threshold`` reuse precomputed
terms and skip zero ones; ``analytic_reference`` recomputes every term on
every call. Both must give the same floats, compared with ``==``, one call
at a time and over every candidate of whole optimizer searches. ``rho`` is
also checked against exact rational arithmetic, ``threshold`` against the
golden-section formulation it replaced, and the call pattern that the
benchmark's traced run counts is pinned here.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csa_floor import optimizer, predictor
from csa_floor.density_evolution import threshold
from csa_floor.distributions import ChannelModel, DegreeDistribution, induce, parse_distribution
from csa_floor.optimizer import ObjectiveSpec, objective, optimize
from csa_floor.predictor import analytic_report, plr_per_degree
from csa_floor.stopping_sets import CATALOG, beta_exact, rho
from tests import analytic_reference as ref

EXAMPLES = settings(max_examples=300)
# Laws with runs of zero coefficients, and one whose top degree has no mass
SPARSE_LAWS = (
    parse_distribution("3:0.5,12:0.5"),
    parse_distribution("2:0.5,12:0.5"),
    parse_distribution("12:1.0"),
    DegreeDistribution((0, 0, 0.5, 0.5, 0.0)),
)
# Exact rho below this may come from probability powers that underflow in floats.
TINY = 1e-250


@st.composite
def laws(draw, min_degree=0):
    """Laws on degrees 0..q with q in 1..12, each degree from min_degree up
    with zero or positive mass."""
    q = draw(st.integers(max(min_degree, 1), 12))
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    weights = draw(st.lists(mass, min_size=q + 1 - min_degree, max_size=q + 1 - min_degree).filter(any))
    total = math.fsum(weights)
    return DegreeDistribution((0.0,) * min_degree + tuple(w / total for w in weights))


@st.composite
def points(draw):
    """(induced law, m, n, channel): n >= 4, m from 1 to 3n."""
    dist = draw(laws())
    channel = ChannelModel(draw(st.sampled_from((0.0, 0.03)) | st.floats(0.0, 1.0)))
    n = draw(st.integers(4, 400))
    m = draw(st.integers(1, 3 * n))
    return ref.induce(dist, channel), m, n, channel


@EXAMPLES
@given(points())
def test_rho_matches_reference(point):
    induced, m, n, _ = point
    for sclass in CATALOG:
        assert rho(sclass, m, n, induced) == ref.rho(sclass, m, n, induced), sclass.id


@EXAMPLES
@given(points())
def test_rho_matches_exact_rationals(point):
    induced, m, n, _ = point
    for sclass in CATALOG:
        s = sclass.size
        exact = Fraction(0)
        if m >= s and sclass.max_degree <= induced.q:
            pmf = Fraction(math.factorial(s))
            for l, c in enumerate(sclass.profile):
                pmf *= Fraction(induced.probs[l]) ** c / math.factorial(c)
            exact = math.comb(m, s) * pmf * beta_exact(sclass, n)
        assume(exact == 0 or exact > TINY)
        got = rho(sclass, m, n, induced)
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * exact, sclass.id


def _sparse_examples(make):
    """Decorate a test with one example per sparse law, built by make(law)."""

    def decorate(test):
        for law in SPARSE_LAWS:
            test = example(*make(law))(test)
        return test

    return decorate


@EXAMPLES
@given(points())
@_sparse_examples(lambda law: [(law, 100, 200, ChannelModel(0.0))])
@_sparse_examples(lambda law: [(ref.induce(law, ChannelModel(0.1)), 100, 200, ChannelModel(0.1))])
def test_plr_per_degree_matches_reference(point):
    induced, m, n, _ = point
    assert plr_per_degree(m, n, induced) == ref.plr_per_degree(m, n, induced)


@EXAMPLES
@given(laws(), st.sampled_from((0.0, 0.03)) | st.floats(0.0, 1.0))
@_sparse_examples(lambda law: [law, 0.1])
@_sparse_examples(lambda law: [law, 0.0])
def test_induce_matches_reference(dist, eps):
    channel = ChannelModel(eps)
    assert induce(dist, channel).probs == ref.induce(dist, channel).probs


@EXAMPLES
@given(laws(min_degree=2))
@example(parse_distribution("2:1.0"))
@example(parse_distribution("2:0.25,3:0.6,8:0.15"))
@example(parse_distribution("3:0.5,8:0.5"))
@example(parse_distribution("2:0.5,20000:0.5"))  # a minimum past the last grid point
@example(parse_distribution("20000:1.0"))  # grid powers underflow
@_sparse_examples(lambda law: [law])
def test_threshold_matches_reference(dist):
    assert threshold(dist) == ref.threshold(dist)


@EXAMPLES
@given(laws(min_degree=2))
@example(parse_distribution("2:1.0"))
@example(parse_distribution("2:0.75,3:0.25"))
@example(parse_distribution("2:0.5,400:0.5"))
@example(parse_distribution("3:0.9,30:0.1"))
@_sparse_examples(lambda law: [law])
def test_threshold_within_four_ulps_of_golden_section(dist):
    # Newton on the stationarity condition and golden section on f itself
    # reach the same infimum up to rounding: 1e-15 is about 4.5 units of
    # 2**-52, relative
    got, want = threshold(dist), ref.threshold_golden(dist)
    assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize(
    "support,eps", [((3, 8), 0.03), ((2, 3, 8), 0.0), ((3, 12), 0.1)], ids=["3-8", "2-3-8", "3-12"]
)
def test_optimize_trace_matches_reference_kernels(monkeypatch, support, eps):
    # every candidate of a whole search, scored by the kernels and by their
    # references, in the order the search makes them
    spec = ObjectiveSpec(support=support, g_target=0.5, n=200, epsilon=eps)
    got = optimize(spec, budget=250, rng=3)
    monkeypatch.setattr(optimizer, "threshold", ref.threshold)
    monkeypatch.setattr(optimizer, "induce", ref.induce)
    monkeypatch.setattr(optimizer, "plr_per_degree", ref.plr_per_degree)
    monkeypatch.setattr(predictor, "rho", ref.rho)
    monkeypatch.setattr(optimizer, "average_plr", ref.average_plr)
    monkeypatch.setattr(optimizer, "_to_distribution", ref.to_distribution)
    want = optimize(spec, budget=250, rng=3)
    assert got.trace == want.trace
    assert got.best == want.best
    assert got.best_score == want.best_score


def _count_calls(monkeypatch, targets):
    """Wrap each (module, name) so that calls through it are counted."""
    counts = {}
    for module, name in targets:
        fn = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        counts[key] = 0

        def counted(*args, _fn=fn, _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_objective_calls_each_kernel_by_its_traced_name(monkeypatch):
    # perfbench/run.py wraps these module attributes and expects these counts
    # per evaluation; a kernel folded into its caller would miss them
    counts = _count_calls(
        monkeypatch,
        [
            (optimizer, "threshold"),
            (optimizer, "induce"),
            (optimizer, "plr_per_degree"),
            (predictor, "rho"),
        ],
    )
    spec = ObjectiveSpec(support=(3, 8), g_target=0.5, n=200, epsilon=0.03)
    objective(parse_distribution("3:0.7,8:0.3"), spec)
    assert counts == {
        "optimizer.threshold": 1,
        "optimizer.induce": 1,
        "optimizer.plr_per_degree": 1,
        "predictor.rho": len(CATALOG),
    }


def test_analytic_report_calls_each_kernel_by_its_traced_name(monkeypatch):
    counts = _count_calls(
        monkeypatch, [(predictor, "induce"), (predictor, "plr_per_degree"), (predictor, "rho")]
    )
    analytic_report(100, 200, parse_distribution("2:0.25,3:0.6,8:0.15"), ChannelModel(0.03))
    assert counts == {"predictor.induce": 1, "predictor.plr_per_degree": 1, "predictor.rho": len(CATALOG)}
