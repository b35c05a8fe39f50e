import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plausilearn import (
    condition,
    epsilon_ball,
    euclidean_distance,
    event_concat,
    init_state,
    log_likelihood,
    make_alphabet,
    mass_function,
    observe,
    parse_event,
    sample_stream,
    simplex_grid,
    tabulated,
)
from plausilearn.simplex import (
    AlphabetMismatchError,
    DuplicateOutcomeError,
    NegativeWeightError,
    SumNotOneError,
    UnknownOutcomeError,
    WrongArityError,
    empty_event,
)


def weights_strategy(n):
    """Random exact-rational simplex points: normalized non-negative ints."""
    return (
        st.lists(st.integers(0, 50), min_size=n, max_size=n)
        .filter(lambda ks: sum(ks) > 0)
        .map(lambda ks: [Fraction(k, sum(ks)) for k in ks])
    )


class TestAlphabet:
    def test_coin(self):
        assert make_alphabet(["H", "T"]).size == 2

    def test_urn(self):
        al = make_alphabet(["R", "B", "G"])
        assert al.size == 3
        assert al.index("G") == 2

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateOutcomeError):
            make_alphabet(["H", "H"])

    def test_too_small_rejected(self):
        with pytest.raises(WrongArityError):
            make_alphabet(["H"])


class TestMassFunction:
    def test_fair_coin(self, coin):
        mu = mass_function(coin, [Fraction(1, 2), Fraction(1, 2)])
        assert mu.weight("H") == Fraction(1, 2)

    def test_degenerate_vertex_is_valid(self, coin):
        mu = mass_function(coin, [1, 0])
        assert mu.weight("T") == 0

    def test_sum_not_one_rejected(self, coin):
        with pytest.raises(SumNotOneError):
            mass_function(coin, [Fraction(3, 4), Fraction(3, 4)])

    def test_negative_rejected(self, coin):
        with pytest.raises(NegativeWeightError):
            mass_function(coin, [Fraction(3, 2), Fraction(-1, 2)])

    def test_wrong_arity_rejected(self, coin):
        with pytest.raises(WrongArityError):
            mass_function(coin, [1])

    @given(ws=weights_strategy(3))
    def test_simplex_closure(self, ws):
        al = make_alphabet(["R", "B", "G"])
        mu = mass_function(al, ws)
        assert sum(mu.weights) == 1


class TestSimplexGrid:
    def test_coin_resolution_two(self, coin):
        grid = simplex_grid(coin, 2)
        assert [tuple(g.weights) for g in grid] == [
            (0, 1),
            (Fraction(1, 2), Fraction(1, 2)),
            (1, 0),
        ]

    def test_three_outcomes_resolution_two(self, urn):
        # independent oracle: enumerate all integer compositions of 2
        expected = {
            tuple(Fraction(k, 2) for k in ks)
            for ks in product(range(3), repeat=3)
            if sum(ks) == 2
        }
        grid = simplex_grid(urn, 2)
        assert len(grid) == 6
        assert {tuple(g.weights) for g in grid} == expected

    def test_coin_resolution_ten_contains_seven_tenths(self, coin_grid):
        assert any(
            tuple(g.weights) == (Fraction(7, 10), Fraction(3, 10))
            for g in coin_grid
        )
        assert len(coin_grid) == 11

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("resolution", [1, 3, 7, 12])
    def test_grid_completeness(self, n, resolution):
        al = make_alphabet([f"o{i}" for i in range(n)])
        grid = simplex_grid(al, resolution)
        assert len(grid) == math.comb(resolution + n - 1, n - 1)
        assert all(sum(g.weights) == 1 for g in grid)
        assert len({tuple(g.weights) for g in grid}) == len(grid)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_grid_is_the_sum_filtered_product_in_order(self, n):
        al = make_alphabet([f"o{i}" for i in range(n)])
        for resolution in range(1, 9):
            expected = [
                tuple(Fraction(k, resolution) for k in ks)
                for ks in product(range(resolution + 1), repeat=n)
                if sum(ks) == resolution
            ]
            assert [g.weights for g in simplex_grid(al, resolution)] == expected


class TestDistanceAndBalls:
    def test_distance_to_self_is_zero(self, fair_coin):
        assert euclidean_distance(fair_coin, fair_coin) == 0

    def test_opposite_vertices(self, coin):
        a = mass_function(coin, [1, 0])
        b = mass_function(coin, [0, 1])
        assert euclidean_distance(a, b) == pytest.approx(math.sqrt(2))

    def test_quarter_shift(self, coin, fair_coin):
        nu = mass_function(coin, [Fraction(3, 4), Fraction(1, 4)])
        assert euclidean_distance(fair_coin, nu) == pytest.approx(
            math.sqrt(2) / 4
        )

    def test_alphabet_mismatch(self, fair_coin, urn):
        uniform3 = mass_function(urn, [Fraction(1, 3)] * 3)
        with pytest.raises(AlphabetMismatchError):
            euclidean_distance(fair_coin, uniform3)

    @given(ws=weights_strategy(2), vs=weights_strategy(2), us=weights_strategy(2))
    def test_metric_laws(self, ws, vs, us):
        al = make_alphabet(["H", "T"])
        a, b, c = (mass_function(al, x) for x in (ws, vs, us))
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))
        assert (
            euclidean_distance(a, c)
            <= euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12
        )

    @settings(max_examples=100)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_tables_match_the_pairwise_sum(self, data, n):
        # The distance of each world from tables over distinct values, as
        # float(c - v) ** 2 summed left to right before the square root.
        al = make_alphabet([f"o{i}" for i in range(n)])
        center = mass_function(al, data.draw(weights_strategy(n)))
        worlds = [mass_function(al, w) for w in data.draw(
            st.lists(weights_strategy(n), min_size=1, max_size=30))]
        eps = data.draw(st.floats(0.01, 1.5))

        def pairwise(mu):
            total = 0.0
            for a, b in zip(center.weights, mu.weights):
                total += float(a - b) ** 2
            return math.sqrt(total)

        assert [euclidean_distance(center, w) for w in worlds] == [
            pairwise(w) for w in worlds
        ]
        assert epsilon_ball(center, eps, worlds).members == {
            i for i, w in enumerate(worlds) if pairwise(w) < eps
        }

    @pytest.mark.parametrize("eps", [0.0, -0.5, math.nan])
    def test_ball_radius_must_be_positive(self, coin_grid, fair_coin, eps):
        # NaN fails every comparison, so it would give an empty ball.
        with pytest.raises(ValueError):
            epsilon_ball(fair_coin, eps, coin_grid)

    def test_ball_alphabet_mismatch(self, coin_grid, urn):
        with pytest.raises(AlphabetMismatchError):
            epsilon_ball(mass_function(urn, [Fraction(1, 3)] * 3), 0.5, coin_grid)

    def test_ball_covering_everything(self, coin_grid, fair_coin):
        ball = epsilon_ball(fair_coin, 10.0, coin_grid)
        assert ball.members == set(range(11))

    def test_tiny_ball_is_singleton(self, coin_grid, fair_coin):
        ball = epsilon_ball(fair_coin, 0.01, coin_grid)
        assert ball.members == {coin_grid.index(fair_coin)}

    def test_ball_near_center_of_coin_grid(self, coin_grid, fair_coin):
        # brute-force oracle over all 11 grid points
        expected = {
            i
            for i, g in enumerate(coin_grid)
            if math.sqrt(sum(float(a - b) ** 2 for a, b in zip(g.weights, fair_coin.weights)))
            < 0.2
        }
        ball = epsilon_ball(fair_coin, 0.2, coin_grid)
        assert ball.members == expected
        assert {float(coin_grid[i].weight("H")) for i in ball.members} == {
            0.4,
            0.5,
            0.6,
        }


class TestObservationEvents:
    def test_three_heads(self, coin):
        assert observe(coin, ["H", "H", "H"]).counts == (3, 0)

    def test_empty_sequence_is_tautology(self, coin):
        e = observe(coin, [])
        assert e.counts == (0, 0)
        assert e.is_empty

    def test_urn_counts(self, urn):
        assert observe(urn, ["R", "G", "R"]).counts == (2, 0, 1)

    def test_unknown_outcome(self, coin):
        with pytest.raises(UnknownOutcomeError):
            observe(coin, ["H", "X"])

    def test_text_syntax(self, coin):
        assert parse_event(coin, "H H H").counts == (3, 0)

    def test_concat(self, coin):
        a = observe(coin, ["H"] * 3)
        b = observe(coin, ["T"] * 2)
        assert event_concat(a, b).counts == (3, 2)

    def test_concat_identity(self, coin):
        a = observe(coin, ["H", "T"])
        assert event_concat(a, empty_event(coin)) == a

    def test_concat_associative_example(self, coin):
        from plausilearn.simplex import ObservationEvent

        e1 = ObservationEvent(coin, (1, 1))
        e2 = ObservationEvent(coin, (2, 0))
        e3 = ObservationEvent(coin, (0, 1))
        left = event_concat(event_concat(e1, e2), e3)
        right = event_concat(e1, event_concat(e2, e3))
        assert left == right
        assert left.counts == (3, 2)

    @given(
        a=st.tuples(st.integers(0, 20), st.integers(0, 20)),
        b=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_concat_commutative(self, a, b):
        from plausilearn.simplex import ObservationEvent

        al = make_alphabet(["H", "T"])
        ea, eb = ObservationEvent(al, a), ObservationEvent(al, b)
        assert event_concat(ea, eb) == event_concat(eb, ea)


class TestLogLikelihood:
    def test_fair_coin_three_heads(self, coin, fair_coin):
        e = observe(coin, ["H", "H", "H"])
        assert log_likelihood(fair_coin, e) == pytest.approx(math.log(1 / 8))

    def test_empty_event_gives_certainty(self, coin, fair_coin):
        assert log_likelihood(fair_coin, observe(coin, [])) == 0.0

    def test_impossible_observation(self, coin):
        mu = mass_function(coin, [1, 0])
        assert log_likelihood(mu, observe(coin, ["T"])) == -math.inf

    def test_zero_weight_with_zero_count_is_fine(self, coin):
        mu = mass_function(coin, [1, 0])
        assert log_likelihood(mu, observe(coin, ["H", "H"])) == 0.0

    @given(
        ws=weights_strategy(2),
        a=st.tuples(st.integers(0, 10), st.integers(0, 10)),
        b=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    )
    def test_likelihood_factorization(self, ws, a, b):
        from plausilearn.simplex import ObservationEvent

        al = make_alphabet(["H", "T"])
        mu = mass_function(al, ws)
        ea, eb = ObservationEvent(al, a), ObservationEvent(al, b)
        combined = math.exp(log_likelihood(mu, event_concat(ea, eb)))
        separate = math.exp(log_likelihood(mu, ea)) * math.exp(
            log_likelihood(mu, eb)
        )
        assert combined == pytest.approx(separate, rel=1e-12, abs=0.0)

    @staticmethod
    def fraction_loop(mu, e):
        """The per-world loop that computed the likelihood before the
        conditioning kernel did: the reference."""
        total = 0.0
        for c, w in zip(e.counts, mu.weights):
            if c == 0:
                continue
            if w == 0:
                return -math.inf
            total += c * math.log(w)
        return total

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_kernel_matches_fraction_loop(self, data, n):
        from plausilearn.simplex import ObservationEvent

        al = make_alphabet([f"o{i}" for i in range(n)])
        mu = mass_function(al, data.draw(weights_strategy(n)))
        count = st.just(0) | st.integers(0, 2**60)
        counts = data.draw(st.lists(count, min_size=n, max_size=n))
        e = ObservationEvent(al, tuple(counts))
        got = log_likelihood(mu, e)
        assert got.hex() == self.fraction_loop(mu, e).hex()
        one_world = condition(init_state([mu], tabulated([1.0])), e)
        assert one_world.log_values[0].hex() == got.hex()


class TestStreams:
    def test_deterministic_truth(self, coin):
        mu = mass_function(coin, [1, 0])
        stream = sample_stream(mu, 50, seed=3)
        assert stream.names() == ["H"] * 50

    def test_same_seed_identical(self, coin, fair_coin):
        a = sample_stream(fair_coin, 1000, seed=9)
        b = sample_stream(fair_coin, 1000, seed=9)
        assert a.outcomes == b.outcomes

    def test_zero_probability_outcomes_never_occur(self, urn):
        mu = mass_function(urn, [Fraction(1, 2), 0, Fraction(1, 2)])
        stream = sample_stream(mu, 5000, seed=1)
        assert 1 not in set(stream.outcomes)

    def test_outcomes_are_python_ints_indexing_the_alphabet(self, urn):
        mu = mass_function(urn, [Fraction(1, 2), 0, Fraction(1, 2)])
        stream = sample_stream(mu, 200, seed=1)
        assert {type(i) for i in stream.outcomes} == {int}
        assert set(stream.outcomes) == {0, 2}

    def test_empirical_frequency_near_truth(self, coin, fair_coin):
        # binomial tail: at n=1e5 a 0.01 deviation is > 6 sigma, so nearly
        # every seed must land inside the window
        hits = 0
        seeds = 50
        for seed in range(seeds):
            stream = sample_stream(fair_coin, 100_000, seed=seed)
            freq = stream.prefix_event().counts[0] / 100_000
            hits += abs(freq - 0.5) < 0.01
        assert hits >= seeds - 1

    def test_prefix_event(self, coin, fair_coin):
        stream = sample_stream(fair_coin, 100, seed=2)
        full = stream.prefix_event()
        half = stream.prefix_event(50)
        assert full.total == 100
        assert half.total == 50

    @settings(max_examples=20)
    @given(ws=weights_strategy(3), seed=st.integers(0, 2**31))
    def test_frequencies_converge(self, ws, seed):
        al = make_alphabet(["R", "B", "G"])
        mu = mass_function(al, ws)
        stream = sample_stream(mu, 20_000, seed=seed)
        counts = stream.prefix_event().counts
        for c, w in zip(counts, mu.weights):
            assert abs(c / 20_000 - float(w)) < 0.02

