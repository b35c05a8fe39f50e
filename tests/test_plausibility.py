import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plausilearn import (
    CENTRE_OF_MASS,
    ENTROPY,
    argmax_worlds,
    centre_of_mass_plausibility,
    condition,
    entropy_plausibility,
    init_state,
    log_likelihood,
    make_alphabet,
    mass_function,
    observe,
    simplex_grid,
    tabulated,
)
from plausilearn import convergence, logic, plausibility
from plausilearn.plausibility import (
    EmptyWorldSetError,
    IncompleteTableError,
    argmax_restricted,
    restrict_state,
)
from plausilearn.simplex import AlphabetMismatchError, ObservationEvent, Proposition


def shannon(ws):
    """Independent entropy oracle: plain formula on floats."""
    return -sum(float(w) * math.log(float(w)) for w in ws if w > 0)


class TestEntropy:
    def test_fair_coin_maximum(self, coin, fair_coin, coin_grid):
        assert entropy_plausibility(fair_coin) == pytest.approx(math.log(2))
        for g in coin_grid:
            if g != fair_coin:
                assert entropy_plausibility(g) < entropy_plausibility(fair_coin)

    def test_degenerate_is_zero(self, coin):
        assert entropy_plausibility(mass_function(coin, [1, 0])) == 0.0

    def test_three_quarters(self, coin):
        mu = mass_function(coin, [Fraction(3, 4), Fraction(1, 4)])
        assert entropy_plausibility(mu) == pytest.approx(
            shannon(mu.weights), rel=1e-14
        )
        assert entropy_plausibility(mu) == pytest.approx(0.5623, abs=1e-4)


class TestCentreOfMass:
    def test_fair_coin(self, fair_coin):
        assert centre_of_mass_plausibility(fair_coin) == pytest.approx(0.25)

    def test_boundary_is_zero(self, coin, urn):
        assert centre_of_mass_plausibility(mass_function(coin, [1, 0])) == 0.0
        assert (
            centre_of_mass_plausibility(
                mass_function(urn, [Fraction(1, 2), Fraction(1, 2), 0])
            )
            == 0.0
        )

    @pytest.mark.parametrize("resolution", [3, 6, 9, 12])
    def test_uniform_maximises_over_grid(self, urn, resolution):
        grid = simplex_grid(urn, resolution)
        best = max(grid, key=centre_of_mass_plausibility)
        if resolution % 3 == 0:
            assert tuple(best.weights) == (Fraction(1, 3),) * 3
            assert centre_of_mass_plausibility(best) == pytest.approx(1 / 27)


class TestInitState:
    def test_entropy_argmax_is_fair_coin(self, coin_grid, fair_coin):
        state = init_state(coin_grid, ENTROPY)
        assert argmax_worlds(state).members == {coin_grid.index(fair_coin)}

    def test_all_ones_table(self, coin_grid):
        state = init_state(coin_grid, tabulated([1.0] * 11))
        assert np.all(state.log_values == 0.0)

    def test_empty_worlds_rejected(self):
        with pytest.raises(EmptyWorldSetError):
            init_state([], ENTROPY)

    def test_incomplete_table_rejected(self, coin_grid):
        with pytest.raises(IncompleteTableError):
            init_state(coin_grid, tabulated({0: 1.0}))

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_table_value_out_of_range_rejected(self, coin_grid, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            init_state(coin_grid, tabulated([bad] + [1.0] * 10))

    def test_equality(self, coin):
        a = init_state(simplex_grid(coin, 4), ENTROPY)
        b = init_state(simplex_grid(coin, 4), ENTROPY)
        assert a is not b and a == b
        assert a != init_state(simplex_grid(coin, 4), CENTRE_OF_MASS)
        assert a != init_state(simplex_grid(coin, 4), tabulated([1.0] * 5))
        heads, tails = ObservationEvent(coin, (2, 0)), ObservationEvent(coin, (0, 1))
        assert condition(a, heads) != a
        assert condition(condition(a, heads), tails) == condition(
            condition(b, tails), heads
        )


class TestConditioning:
    def test_coin_example_ordering(self, coin):
        # three biased coins after seeing HHH: the middle one wins
        worlds = [
            mass_function(coin, [Fraction(3, 4), Fraction(1, 4)]),
            mass_function(coin, [Fraction(4, 5), Fraction(1, 5)]),
            mass_function(coin, [Fraction(9, 10), Fraction(1, 10)]),
        ]
        state = condition(init_state(worlds, ENTROPY), observe(coin, "HHH"))
        values = [math.exp(v) for v in state.log_values]
        oracle = [shannon(w.weights) * float(w.weight("H")) ** 3 for w in worlds]
        for got, want in zip(values, oracle):
            assert got == pytest.approx(want, rel=1e-12)
        assert values[0] < values[1] > values[2]
        assert values == pytest.approx([0.2372, 0.2562, 0.2370], abs=1e-4)

    def test_count_past_int64(self, coin):
        # 2**70 heads do not fit in int64; with one tail they leave world
        # (3/4, 1/4) the most plausible.
        state = init_state(simplex_grid(coin, 4), ENTROPY)
        huge = condition(state, ObservationEvent(coin, (2**70, 1)))
        assert argmax_worlds(huge).members == {3}
        assert huge.event.counts == (2**70, 1)

    def test_count_past_float_range(self, coin, fair_coin):
        state = init_state(simplex_grid(coin, 4), ENTROPY)
        huge = ObservationEvent(coin, (10**400, 0))
        with pytest.raises(ValueError, match="float range"):
            condition(state, huge)
        with pytest.raises(ValueError, match="float range"):
            log_likelihood(fair_coin, huge)

    def test_event_over_other_alphabet(self, coin_grid, urn):
        state = init_state(coin_grid, ENTROPY)
        with pytest.raises(AlphabetMismatchError):
            condition(state, observe(urn, ["R"]))

    def test_empty_event_is_identity(self, coin_grid):
        state = init_state(coin_grid, ENTROPY)
        conditioned = condition(state, observe(state.worlds[0].alphabet, []))
        assert np.array_equal(conditioned.log_values, state.log_values)

    def test_input_state_unchanged(self, coin, coin_grid):
        state = init_state(coin_grid, ENTROPY)
        before = state.log_values.copy()
        condition(state, observe(coin, ["H"] * 5))
        assert np.array_equal(state.log_values, before)

    def test_composition_equals_batch_exactly(self, coin, coin_grid):
        state = init_state(coin_grid, ENTROPY)
        e1 = observe(coin, ["H", "H", "T"])
        e2 = observe(coin, ["T"] * 4)
        stepwise = condition(condition(state, e1), e2)
        batch = condition(state, ObservationEvent(coin, (2, 5)))
        assert np.array_equal(stepwise.log_values, batch.log_values)

    @settings(max_examples=200)
    @given(
        a=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        b=st.tuples(st.integers(0, 30), st.integers(0, 30)),
        seed=st.integers(0, 10_000),
    )
    def test_order_independence_bit_for_bit(self, a, b, seed):
        al = make_alphabet(["H", "T"])
        grid = simplex_grid(al, 7)
        rng = np.random.default_rng(seed)
        state = init_state(grid, tabulated(rng.uniform(0.01, 5.0, len(grid))))
        ea, eb = ObservationEvent(al, a), ObservationEvent(al, b)
        forward = condition(condition(state, ea), eb)
        backward = condition(condition(state, eb), ea)
        assert np.array_equal(forward.log_values, backward.log_values)

    def test_nine_outcomes_sum_left_to_right(self):
        # numpy's own row sums change order at 8 or more columns (for one
        # world at a time, say); conditioning must not, whatever the world
        # count, so that a restricted state agrees with the full one.
        al = make_alphabet([f"o{i}" for i in range(9)])
        worlds = [
            mass_function(al, [Fraction(k, 45) for k in (1, 2, 3, 4, 5, 6, 7, 8, 9)]),
            mass_function(al, [Fraction(k, 45) for k in (9, 8, 7, 6, 5, 4, 3, 2, 1)]),
            mass_function(al, [Fraction(k, 45) for k in (0, 3, 5, 7, 2, 11, 13, 4, 0)]),
        ]
        event = ObservationEvent(al, (3, 2, 5, 2, 8, 8, 8, 7, 4))
        state = init_state(worlds, ENTROPY)
        singles = [restrict_state(state, Proposition.of([i])) for i in (0, 1)]
        for s in [state] + singles:
            values = condition(s, event).log_values
            for world, base, got in zip(s.worlds, s.base_log, values):
                total = 0.0
                for c, w in zip(event.counts, world.weights):
                    if c:
                        total += (math.log(w) if w > 0 else -math.inf) * c
                assert got == base + total


def branchy_argmax_mask(values, within):
    """`_argmax_mask` as it was, with its own branch for an empty `within`:
    the reference."""
    best = np.zeros(len(values), dtype=bool)
    if within.any():
        best[within] = plausibility._tie_mask(values[within])
    return best


class TestArgmax:
    def test_all_ones_total_tie(self, coin_grid):
        state = init_state(coin_grid, tabulated([1.0] * 11))
        assert argmax_worlds(state).members == set(range(11))

    def test_entropy_after_seven_three(self, coin, coin_grid):
        state = condition(
            init_state(coin_grid, ENTROPY), ObservationEvent(coin, (7, 3))
        )
        # brute-force oracle: direct Ent * mu(H)^7 * mu(T)^3 over 11 points
        scores = [
            shannon(g.weights)
            * float(g.weight("H")) ** 7
            * float(g.weight("T")) ** 3
            for g in coin_grid
        ]
        expected = {scores.index(max(scores))}
        assert argmax_worlds(state).members == expected
        assert len(expected) == 1

    def test_all_zero_plausibility_returns_everything(self, coin, coin_grid):
        # every grid world dies on the impossible pair of observations
        state = condition(
            init_state(coin_grid, ENTROPY), ObservationEvent(coin, (1, 1))
        )
        boundary = condition(
            init_state(
                [state.worlds[0], state.worlds[-1]], tabulated([1.0, 1.0])
            ),
            ObservationEvent(coin, (1, 1)),
        )
        assert argmax_worlds(boundary).members == {0, 1}

    def test_restricted_argmax(self, coin_grid):
        state = init_state(coin_grid, ENTROPY)
        upper = Proposition.of(range(7, 11))
        assert argmax_restricted(state, upper).members == {7}

    def test_restricted_to_empty_is_empty(self, coin_grid):
        state = init_state(coin_grid, ENTROPY)
        assert argmax_restricted(state, Proposition.of([])).members == set()

    @pytest.mark.parametrize("index", [-1, 11, 99])
    def test_index_outside_the_model_rejected(self, coin_grid, index):
        state = init_state(coin_grid, ENTROPY)
        for restricted in (argmax_restricted, restrict_state):
            with pytest.raises(ValueError, match=f"world index {index} "):
                restricted(state, Proposition.of([0, index]))

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_argmax_mask_matches_branchy_reference(self, data, n):
        # Near ties at 1e-10 relative sit inside TIE_TOLERANCE, at 1e-8 outside.
        value = st.sampled_from([-math.inf, 0.0, -1.0, 1.0, 1 + 1e-10, 1 + 1e-8])
        values = np.array(data.draw(st.lists(
            value | st.floats(-50, 50), min_size=n, max_size=n)))
        within = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        for mask in (within, np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            got = plausibility._argmax_mask(values, mask)
            assert np.array_equal(got, branchy_argmax_mask(values, mask))

    def test_tie_tolerance_is_read_at_every_tie_decision(
        self, coin, coin_grid, monkeypatch
    ):
        # Log entropies on the coin grid: world 5 at -0.367, worlds 4 and 6
        # 0.029 below it, worlds 3 and 7 0.126 below it.
        model = init_state(coin_grid, ENTROPY)
        cfg = convergence.TrialConfig(
            tuple(coin_grid), ENTROPY, coin_grid[5], horizon=5, seed=1,
            epsilon=0.05, record_trace=True,
        )
        fair = logic.parse("B (w(H) = 1/2)", coin)

        def decisions():
            return (
                argmax_worlds(model).members,
                logic.valid_in_model(model, fair),
                convergence.run_trial(cfg).belief_trace[0],
            )

        assert decisions() == ({5}, True, {3})
        monkeypatch.setattr(plausibility, "TIE_TOLERANCE", 0.1)
        assert decisions() == ({4, 5, 6}, False, {2, 3, 4})


class TestPlausibilityLaws:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.001, 1000.0))
    def test_monotone_transform_invariance(self, seed, scale):
        al = make_alphabet(["H", "T"])
        grid = simplex_grid(al, 9)
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.01, 5.0, len(grid))
        base = init_state(grid, tabulated(values))
        scaled = init_state(grid, tabulated(values * scale))
        assert argmax_worlds(base).members == argmax_worlds(scaled).members

    @pytest.mark.parametrize("n,resolution", [(2, 4), (2, 8), (2, 12), (3, 4), (3, 8), (3, 12)])
    @pytest.mark.parametrize("multiplier", [10, 100])
    def test_likelihood_maximizer(self, n, resolution, multiplier):
        # counts proportional to an interior grid point make it the unique
        # argmax under constant plausibility
        al = make_alphabet([f"o{i}" for i in range(n)])
        grid = simplex_grid(al, resolution)
        interior = [
            g for g in grid if all(w > 0 for w in g.weights)
        ]
        for p in interior[:: max(1, len(interior) // 8)]:
            counts = tuple(multiplier * w.numerator * (resolution // w.denominator) for w in p.weights)
            state = condition(
                init_state(grid, tabulated([1.0] * len(grid))),
                ObservationEvent(al, counts),
            )
            # independent oracle: maximise the likelihood product directly
            scores = [
                sum(
                    c * math.log(float(w)) if w > 0 else -math.inf
                    for c, w in zip(counts, g.weights)
                    if c > 0
                )
                for g in grid
            ]
            best = max(scores)
            oracle = {i for i, s in enumerate(scores) if s == best}
            assert argmax_worlds(state).members == oracle == {grid.index(p)}

    def test_zero_absorption(self, coin, coin_grid):
        state = condition(
            init_state(coin_grid, ENTROPY), ObservationEvent(coin, (0, 1))
        )
        dead = [i for i, v in enumerate(state.log_values) if v == -math.inf]
        assert dead  # the w(T)=0 vertex died
        again = condition(state, ObservationEvent(coin, (5, 0)))
        for i in dead:
            assert again.log_values[i] == -math.inf

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 10_000),
        counts=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    )
    def test_conditioning_never_increases(self, seed, counts):
        al = make_alphabet(["H", "T"])
        grid = simplex_grid(al, 8)
        rng = np.random.default_rng(seed)
        state = init_state(grid, tabulated(rng.uniform(0.01, 5.0, len(grid))))
        conditioned = condition(state, ObservationEvent(al, counts))
        assert np.all(conditioned.log_values <= state.log_values)
        assert np.all(np.exp(conditioned.log_values) >= 0.0)
