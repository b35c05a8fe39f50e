"""The weight table (`simplex._weights`) against the per-world `Fraction`
formulas it replaced, kept here as the reference."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plausilearn import (
    CENTRE_OF_MASS,
    ENTROPY,
    centre_of_mass_plausibility,
    entropy_plausibility,
    init_state,
    make_alphabet,
    mass_function,
    sample_stream,
    simplex_grid,
)
from plausilearn.simplex import _INT64_MAX, _distances


def reference_entropy(mu):
    total = 0.0
    for w in mu.weights:
        if w > 0:
            total -= float(w) * math.log(w)
    return total


def reference_centre_of_mass(mu):
    total = 1.0
    for w in mu.weights:
        total *= float(w)
    return total


REFERENCE = {"entropy": reference_entropy, "centre_of_mass": reference_centre_of_mass}


def reference_log_weights(mu):
    return [math.log(w) if w > 0 else -math.inf for w in mu.weights]


def reference_state(worlds, kind):
    """base_log, log_weights, numerators and denominator, world by world."""
    values = [REFERENCE[kind](w) for w in worlds]
    base_log = np.array([math.log(v) if v > 0 else -math.inf for v in values])
    log_weights = np.array([reference_log_weights(w) for w in worlds])
    denominator = math.lcm(*(x.denominator for w in worlds for x in w.weights))
    numerators = [
        [x.numerator * (denominator // x.denominator) for x in w.weights]
        for w in worlds
    ]
    return base_log, log_weights, numerators, denominator


def reference_distances(center, worlds):
    out = []
    for w in worlds:
        total = 0.0
        for c, v in zip(center.weights, w.weights):
            total += float(c - v) ** 2
        out.append(math.sqrt(total))
    return np.array(out)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


#: Cut-point denominators: small, grid-like, large and past int64.
DENOMINATORS = [1, 2, 3, 7, 10, 30, 60, 200, 2**40 + 1, 10**20 + 39, 2**64 - 59]


@st.composite
def worlds_of(draw, alphabet):
    """A world from cut points of mixed denominators; repeated cuts give
    zero weights."""
    cuts = sorted(
        Fraction(draw(st.integers(0, d)), d)
        for d in draw(st.lists(st.sampled_from(DENOMINATORS),
                               min_size=alphabet.size - 1,
                               max_size=alphabet.size - 1))
    )
    bounds = [Fraction(0), *cuts, Fraction(1)]
    return mass_function(alphabet, [b - a for a, b in zip(bounds, bounds[1:])])


@st.composite
def world_sets(draw):
    size = draw(st.integers(2, 6))
    alphabet = make_alphabet([f"o{i}" for i in range(size)])
    if draw(st.booleans()):
        top = {2: 200, 3: 40, 4: 12, 5: 8, 6: 6}[size]
        worlds = simplex_grid(alphabet, draw(st.integers(1, top)))
    else:
        worlds = draw(st.lists(worlds_of(alphabet), min_size=1, max_size=12))
    center = draw(st.one_of(st.sampled_from(worlds), worlds_of(alphabet)))
    return worlds, center


class TestAgainstTheReference:
    @settings(max_examples=200, deadline=None)
    @given(case=world_sets(), kind=st.sampled_from(["entropy", "centre_of_mass"]))
    def test_bit_identical(self, case, kind):
        worlds, center = case
        model = init_state(worlds, ENTROPY if kind == "entropy" else CENTRE_OF_MASS)
        base_log, log_weights, numerators, denominator = reference_state(worlds, kind)
        assert bits(model.base_log) == bits(base_log)
        assert bits(model.log_weights) == bits(log_weights)
        assert model.numerators.tolist() == numerators
        assert model.denominator == denominator
        assert model.numerators.dtype == (
            np.int64 if denominator <= _INT64_MAX else object)
        distances = bits(reference_distances(center, worlds))
        assert bits(_distances(center, worlds)) == distances
        # From the model's own table, as `convergence._share` takes them.
        exact = (model.numerators, model.denominator)
        assert bits(_distances(center, worlds, exact)) == distances

    @settings(max_examples=200, deadline=None)
    @given(case=world_sets())
    def test_one_world_cases(self, case):
        for mu in case[0][:20]:
            assert bits(mu.log_weights()) == bits(reference_log_weights(mu))
            assert bits([entropy_plausibility(mu)]) == bits([reference_entropy(mu)])
            assert bits([centre_of_mass_plausibility(mu)]) == bits(
                [reference_centre_of_mass(mu)])


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# Recorded with the per-world Fraction code, before the weight table.
URN_DIGESTS = {
    30: {
        "entropy": "a54982f7ef0e3c07266331ed16dafed6d6a715ef41043be7a5d8bb67387ceca2",
        "centre_of_mass": "429ea2d3c277e1b892c2817c99913759a76b704bc6fb5af341ecf2a6e0f432ac",
        "log_weights": "a7499042653c83785f74578284ce7386e9396feb3212a0875303823edfd19cfb",
        "numerators": "94ce2353cd695152310119ab6b13d11c13c942dd46f9ab87df8a3203c9528909",
        "distances": "1d96390e61268fe89e727e90c4134048bd5e7858cea549186e1b6f3384ef1507",
    },
    60: {
        "entropy": "0a6f42f816a6cee31853486a8a45517bc60a42ecbf00be5c7ee467ae9f4f1948",
        "centre_of_mass": "39587132ba48fef3a5161ab1432f3180547b5959eb802494be1a3479cde0c89b",
        "log_weights": "526f9a148d898f04edc358e53f40e4e2cfe43b12f7b7f60fc334fa2a1db70b7b",
        "numerators": "7f69c53b98973fb86ef0996b394fd59058c97f75435247648ecafc3b32ffba05",
        "distances": "464c9b4256dc5e99745860ef32afe0300a02b17185cf7f3f5983a32969e8da90",
    },
}


@pytest.mark.parametrize("resolution", [30, 60])
def test_urn_grid_digests(urn, resolution):
    grid = simplex_grid(urn, resolution)
    center = mass_function(urn, [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    model = init_state(grid, ENTROPY)
    got = {
        "entropy": digest(model.base_log),
        "centre_of_mass": digest(init_state(grid, CENTRE_OF_MASS).base_log),
        "log_weights": digest(model.log_weights),
        "numerators": digest(model.numerators),
        "distances": digest(_distances(center, grid)),
    }
    assert model.numerators.dtype == np.int64
    assert got == URN_DIGESTS[resolution]


class TestUnderflow:
    """A positive weight whose float is 0.0 gets the log of its integers."""

    def test_log_from_the_integers(self, coin):
        tiny = Fraction(1, 10**400)
        mu = mass_function(coin, [tiny, 1 - tiny])
        assert mu.log_weights().tolist() == [-math.log(10**400), 0.0]
        assert entropy_plausibility(mu) == 0.0
        assert centre_of_mass_plausibility(mu) == 0.0
        model = init_state([mu, mass_function(coin, [Fraction(1, 2)] * 2)], ENTROPY)
        assert model.log_weights[0].tolist() == [-math.log(10**400), 0.0]
        assert model.base_log[0] == -math.inf
        assert model.numerators.dtype == object

    def test_never_drawn(self, coin):
        tiny = Fraction(1, 10**400)
        stream = sample_stream(mass_function(coin, [tiny, 1 - tiny]), 100, 3)
        assert set(stream.outcomes) == {1}
