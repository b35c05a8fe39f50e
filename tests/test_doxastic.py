import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plausilearn import (
    ENTROPY,
    belief_holds,
    conditional_belief_event,
    conditional_belief_prop,
    init_state,
    knowledge_holds,
    mass_function,
    model_from_dict,
    model_to_dict,
    observe,
    simplex_grid,
    tabulated,
    update_proposition,
    update_sampling,
)
from plausilearn.doxastic import EmptyUpdateError
from plausilearn.logic import random_model
from plausilearn.plausibility import entropy_plausibility
from plausilearn.simplex import ObservationEvent, Proposition


def entropy_model(grid):
    return init_state(grid, ENTROPY)


def prop_where(worlds, predicate):
    return Proposition.of(i for i, w in enumerate(worlds) if predicate(w))


class TestKnowledge:
    def test_tautology_known(self, coin_grid):
        model = entropy_model(coin_grid)
        assert knowledge_holds(model, Proposition.of(range(11)))

    def test_empty_not_known(self, coin_grid):
        model = entropy_model(coin_grid)
        assert not knowledge_holds(model, Proposition.of([]))

    def test_lower_bound_not_known_on_full_grid(self, coin_grid):
        model = entropy_model(coin_grid)
        p = prop_where(coin_grid, lambda w: w.weight("H") >= Fraction(3, 10))
        assert not knowledge_holds(model, p)  # (0, 1) violates it


class TestBelief:
    def test_initial_belief_in_fair_coin(self, coin_grid, fair_coin):
        model = entropy_model(coin_grid)
        assert belief_holds(
            model, Proposition.of([coin_grid.index(fair_coin)])
        )

    def test_tautology_always_believed(self, coin_grid):
        model = entropy_model(coin_grid)
        assert belief_holds(model, Proposition.of(range(11)))

    def test_biased_world_not_believed(self, coin, coin_grid):
        model = entropy_model(coin_grid)
        biased = mass_function(coin, [Fraction(3, 5), Fraction(2, 5)])
        assert not belief_holds(
            model, Proposition.of([coin_grid.index(biased)])
        )


class TestConditionalBeliefEvent:
    def test_empty_event_equals_plain_belief(self, coin, coin_grid):
        model = entropy_model(coin_grid)
        empty = observe(coin, [])
        for size in (1, 5, 11):
            p = Proposition.of(range(size))
            assert conditional_belief_event(model, p, empty) == belief_holds(
                model, p
            )

    def test_heads_run_shifts_belief_up(self, coin):
        grid = simplex_grid(coin, 20)
        model = entropy_model(grid)
        e = observe(coin, ["H", "H", "H"])
        above_half = prop_where(grid, lambda w: w.weight("H") > Fraction(1, 2))
        assert conditional_belief_event(model, above_half, e)
        # oracle: best entropy-times-likelihood score lands above 1/2
        scores = [
            entropy_plausibility(g) * float(g.weight("H")) ** 3 for g in grid
        ]
        assert grid[scores.index(max(scores))].weight("H") > Fraction(1, 2)

    def test_fair_coin_dethroned(self, coin, coin_grid, fair_coin):
        model = entropy_model(coin_grid)
        e = observe(coin, ["H", "H", "H"])
        eq = Proposition.of([coin_grid.index(fair_coin)])
        assert belief_holds(model, eq)
        assert not conditional_belief_event(model, eq, e)

    def test_frame_not_mutated(self, coin, coin_grid):
        model = entropy_model(coin_grid)
        before = model.log_values.copy()
        conditional_belief_event(
            model, Proposition.of(range(11)), observe(coin, ["H"] * 10)
        )
        assert np.array_equal(model.log_values, before)


class TestConditionalBeliefProp:
    def test_full_condition_equals_plain_belief(self, coin_grid):
        model = entropy_model(coin_grid)
        everything = Proposition.of(range(11))
        for size in (1, 4, 11):
            p = Proposition.of(range(size))
            assert conditional_belief_prop(model, p, everything) == belief_holds(
                model, p
            )

    def test_reflexivity(self, coin_grid):
        model = entropy_model(coin_grid)
        q = Proposition.of([2, 5, 8])
        assert conditional_belief_prop(model, q, q)

    def test_belief_given_strong_bias(self, coin, coin_grid):
        model = entropy_model(coin_grid)
        q = prop_where(coin_grid, lambda w: w.weight("H") >= Fraction(7, 10))
        p = prop_where(coin_grid, lambda w: w.weight("H") == Fraction(7, 10))
        assert conditional_belief_prop(model, p, q)

    def test_empty_condition_vacuous(self, coin_grid):
        model = entropy_model(coin_grid)
        assert conditional_belief_prop(model, Proposition.of([]), Proposition.of([]))

    def test_consistency_when_condition_nonempty(self):
        rng = random.Random(11)
        for _ in range(100):
            model = random_model(rng)
            n = len(model.worlds)
            q = Proposition.of(
                i for i in range(n) if rng.random() < 0.5
            )
            p = Proposition.of(
                i for i in range(n) if rng.random() < 0.5
            )
            if q.members and conditional_belief_prop(model, p, q):
                assert p.members & q.members


class TestUpdates:
    def test_sampling_empty_event_keeps_beliefs(self, coin, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        updated = update_sampling(model, observe(coin, []))
        assert updated.worlds == model.worlds
        assert np.array_equal(
            updated.log_values, model.log_values
        )

    def test_sampling_composes(self, coin, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        e1, e2 = observe(coin, ["H", "H"]), observe(coin, ["T"])
        stepwise = update_sampling(update_sampling(model, e1), e2)
        batch = update_sampling(model, ObservationEvent(coin, (2, 1)))
        assert np.array_equal(
            stepwise.log_values, batch.log_values
        )

    def test_long_heads_run_concentrates_belief(self, coin, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        updated = update_sampling(model, ObservationEvent(coin, (30, 10)))
        # oracle: direct argmax of entropy * likelihood over the grid
        scores = [
            entropy_plausibility(g)
            * float(g.weight("H")) ** 30
            * float(g.weight("T")) ** 10
            for g in coin_grid
        ]
        best = {scores.index(max(scores))}
        assert {
            i
            for i in range(11)
            if belief_holds(updated, Proposition.of([i]))
        } == best
        assert coin_grid[next(iter(best))].weight("H") == Fraction(7, 10)

    def test_proposition_full_set_is_identity(self, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        updated = update_proposition(model, Proposition.of(range(11)))
        assert updated.worlds == model.worlds

    def test_tails_bias_announcement(self, coin, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        p = prop_where(coin_grid, lambda w: w.weight("T") > w.weight("H"))
        updated = update_proposition(model, p)
        # belief focuses on the surviving world closest to fair from below
        best = Proposition.of(
            [updated.worlds.index(mass_function(coin, [Fraction(4, 10), Fraction(6, 10)]))]
        )
        assert belief_holds(updated, best)

    def test_empty_update_rejected(self, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        with pytest.raises(EmptyUpdateError):
            update_proposition(model, Proposition.of([]))

    def test_updates_commute(self, coin, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        e = ObservationEvent(coin, (4, 1))
        p = Proposition.of(range(3, 9))
        a = update_proposition(update_sampling(model, e), p)
        b = update_sampling(update_proposition(model, p), e)
        assert a.worlds == b.worlds
        assert np.array_equal(
            a.log_values, b.log_values
        )


class TestRandomModelLaws:
    """KD45 and the knowledge/belief interaction on random finite models."""

    def random_props(self, rng, n):
        p = Proposition.of(i for i in range(n) if rng.random() < 0.5)
        q = Proposition.of(i for i in range(n) if rng.random() < 0.5)
        return p, q

    def test_kd45_and_interaction(self):
        rng = random.Random(23)
        for _ in range(200):
            model = random_model(rng)
            n = len(model.worlds)
            p, q = self.random_props(rng, n)
            everything = Proposition.of(range(n))
            complement = Proposition.of(everything.members - p.members)
            implication = Proposition.of(complement.members | q.members)
            # K: distribution + entails belief
            if knowledge_holds(model, p):
                assert belief_holds(model, p)
            # D: no belief in both a proposition and its complement
            assert not (
                belief_holds(model, p) and belief_holds(model, complement)
            )
            # K-axiom for B: B(p -> q) and B(p) give B(q)
            if belief_holds(model, implication) and belief_holds(model, p):
                assert belief_holds(model, q)

    def test_sampling_preserves_knowledge(self):
        rng = random.Random(29)
        for _ in range(200):
            model = random_model(rng)
            n = len(model.worlds)
            counts = tuple(rng.randint(0, 4) for _ in model.alphabet.names)
            updated = update_sampling(
                model, ObservationEvent(model.alphabet, counts)
            )
            assert updated.worlds == model.worlds
            p, _ = self.random_props(rng, n)
            assert knowledge_holds(model, p) == knowledge_holds(
                updated, p
            )

    def test_propositional_update_success(self):
        rng = random.Random(31)
        for _ in range(200):
            model = random_model(rng)
            n = len(model.worlds)
            members = [i for i in range(n) if rng.random() < 0.6]
            if not members:
                members = [rng.randrange(n)]
            p = Proposition.of(members)
            updated = update_proposition(model, p)
            full = Proposition.of(range(len(updated.worlds)))
            assert knowledge_holds(updated, full)
            assert len(updated.worlds) == len(members)


def coin_grid_table(change: dict) -> dict:
    """A plausibility spec with one entry per world of the coin grid of
    resolution 10, all 1.0, then `change` applied."""
    return {"plausibility": {"table": {str(i): 1.0 for i in range(11)} | change}}


class TestModelJson:
    def test_roundtrip_worlds(self, coin_grid):
        model = init_state(coin_grid, ENTROPY)
        payload = model_to_dict(model)
        restored = model_from_dict(payload)
        assert restored.worlds == model.worlds
        assert np.array_equal(
            restored.log_values, model.log_values
        )

    def test_grid_resolution_shorthand(self, coin):
        payload = {
            "alphabet": ["H", "T"],
            "grid_resolution": 10,
            "plausibility": "entropy",
        }
        model = model_from_dict(payload)
        assert len(model.worlds) == 11

    def test_conditioned_on_restored(self, coin, coin_grid):
        model = update_sampling(
            init_state(coin_grid, ENTROPY), ObservationEvent(coin, (3, 1))
        )
        payload = model_to_dict(model)
        assert payload["conditioned_on"] == [3, 1]
        restored = model_from_dict(payload)
        assert np.array_equal(
            restored.log_values, model.log_values
        )

    def test_tabulated_plausibility(self, coin):
        payload = {
            "alphabet": ["H", "T"],
            "grid_resolution": 2,
            "plausibility": {"table": {"0": 1.0, "1": 2.0, "2": 0.5}},
        }
        model = model_from_dict(payload)
        assert math.exp(model.log_values[1]) == pytest.approx(2.0)

    def test_roundtrip(self, coin, coin_grid):
        restored = model_from_dict(model_to_dict(init_state(coin_grid, ENTROPY)))
        assert restored.alphabet == coin
        assert list(restored.worlds) == coin_grid

    def test_schema_shape(self, fair_coin):
        payload = model_to_dict(init_state([fair_coin], ENTROPY))
        assert payload == {
            "alphabet": ["H", "T"],
            "worlds": [[[1, 2], [1, 2]]],
            "plausibility": "entropy",
            "conditioned_on": [0, 0],
        }

    def test_restricted_tabulated_roundtrip(self, coin):
        model = init_state(simplex_grid(coin, 2), tabulated([1.0, 2.0, 3.0]))
        restricted = update_proposition(model, Proposition.of([1, 2]))
        restored = model_from_dict(model_to_dict(restricted))
        assert np.array_equal(restored.log_values, restricted.log_values)
        assert restricted.log_values.tolist() == [math.log(2.0), math.log(3.0)]
        rng = random.Random(37)
        for _ in range(100):
            model = random_model(rng)
            n = len(model.worlds)
            keep = [i for i in range(n) if rng.random() < 0.6] or [n - 1]
            restricted = update_proposition(model, Proposition.of(keep))
            restored = model_from_dict(model_to_dict(restricted))
            assert restored.worlds == restricted.worlds
            assert np.array_equal(restored.log_values, restricted.log_values)

    @pytest.mark.parametrize(
        "change",
        [
            {"grid_resolution": 2},
            {"alphabet": "HT"},
            {"plausability": "centre_of_mass"},
            coin_grid_table({"01": 5.0}),
            coin_grid_table({"2": True}),
            coin_grid_table({"2": "2"}),
            coin_grid_table({"0": math.inf}),
            coin_grid_table({"0": math.nan}),
        ],
        ids=["worlds_and_grid_resolution", "string_alphabet", "unknown_key",
             "table_key_with_leading_zero", "table_bool_value",
             "table_string_value", "table_infinite_value", "table_nan_value"],
    )
    def test_misread_fields_rejected(self, coin_grid, change):
        payload = model_to_dict(init_state(coin_grid, ENTROPY)) | change
        with pytest.raises(ValueError):
            model_from_dict(payload)

    @pytest.mark.parametrize(
        "change",
        [
            {"grid_resolution": 2.9},
            {"grid_resolution": True},
            {"conditioned_on": [1.8, 0.5]},
            {"conditioned_on": "10"},
            {"plausibility": {"table": {"0": 1.0, "1": 1.0, "2": 1.0, "7": 1.0}}},
        ],
        ids=["fractional_resolution", "bool_resolution", "fractional_counts",
             "string_counts", "table_key_beyond_worlds"],
    )
    def test_misread_numbers_rejected(self, change):
        payload = {"alphabet": ["H", "T"], "grid_resolution": 2} | change
        with pytest.raises(ValueError):
            model_from_dict(payload)
        # The same payload with a sound value for the changed field loads.
        sound = {"grid_resolution": 2, "conditioned_on": [1, 0],
                 "plausibility": {"table": {"0": 1.0, "1": 1.0, "2": 1.0}}}
        key = next(iter(change))
        assert len(model_from_dict(payload | {key: sound[key]}).worlds) == 3
