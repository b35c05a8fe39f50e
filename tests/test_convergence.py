import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from plausilearn import (
    CENTRE_OF_MASS,
    ENTROPY,
    TrialConfig,
    argmax_worlds,
    bayesian_baseline_trial,
    condition,
    epsilon_ball,
    init_state,
    make_alphabet,
    mass_function,
    run_experiment,
    run_trial,
    sample_stream,
    simplex_grid,
    tabulated,
    trial_seeds,
)
from plausilearn.convergence import (
    _BLOCK_CELLS,
    TruthNotInWorldsError,
    ZeroPlausibilityTruthError,
)
from plausilearn.simplex import ObservationEvent


def coin_config(coin, worlds, truth, horizon, seed=0, **kw):
    return TrialConfig(
        worlds=tuple(worlds),
        plausibility=ENTROPY,
        truth=truth,
        horizon=horizon,
        seed=seed,
        **kw,
    )


@pytest.fixture
def three_coins(coin):
    return [
        mass_function(coin, [Fraction(1, 4), Fraction(3, 4)]),
        mass_function(coin, [Fraction(1, 2), Fraction(1, 2)]),
        mass_function(coin, [Fraction(3, 4), Fraction(1, 4)]),
    ]


class TestResolvedEpsilon:
    def test_isolation_mode_half_min_distance(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[1], 10
        )
        # nearest neighbour of the fair coin is at distance sqrt(2)/4
        assert cfg.resolved_epsilon() == pytest.approx(2**0.5 / 8)

    def test_explicit_epsilon_wins(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet,
            three_coins,
            three_coins[1],
            10,
            epsilon=0.3,
        )
        assert cfg.resolved_epsilon() == 0.3

    def test_nonpositive_epsilon_rejected(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet,
            three_coins,
            three_coins[1],
            10,
            epsilon=-1.0,
        )
        with pytest.raises(ValueError):
            cfg.resolved_epsilon()

    def test_singleton_world_set(self, coin, fair_coin):
        cfg = coin_config(coin, [fair_coin], fair_coin, 10)
        assert cfg.resolved_epsilon() == 1.0


class TestRunTrial:
    def test_singleton_settles_immediately(self, coin, fair_coin):
        result = run_trial(coin_config(coin, [fair_coin], fair_coin, 5))
        assert result.settled
        assert result.settle_time == 1
        assert result.final_argmax == frozenset({0})

    def test_three_worlds_settle(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[2], 300, seed=5
        )
        result = run_trial(cfg)
        assert result.settled
        assert result.final_argmax == frozenset({2})

    def test_truth_not_in_worlds(self, coin, three_coins):
        outsider = mass_function(coin, [Fraction(1, 3), Fraction(2, 3)])
        with pytest.raises(TruthNotInWorldsError):
            run_trial(coin_config(coin, three_coins, outsider, 10))

    def test_zero_plausibility_truth(self, coin, coin_grid):
        vertex = mass_function(coin, [1, 0])
        cfg = TrialConfig(
            worlds=tuple(coin_grid),
            plausibility=CENTRE_OF_MASS,
            truth=vertex,
            horizon=10,
            seed=0,
        )
        with pytest.raises(ZeroPlausibilityTruthError):
            run_trial(cfg)

    def test_zero_horizon_never_settles(self, coin, fair_coin):
        result = run_trial(coin_config(coin, [fair_coin], fair_coin, 0))
        assert not result.settled
        assert result.settle_time is None

    def test_deterministic_per_seed(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[0], 200, seed=17
        )
        a, b = run_trial(cfg), run_trial(cfg)
        assert (a.settled, a.settle_time, a.final_argmax) == (
            b.settled,
            b.settle_time,
            b.final_argmax,
        )

    def test_monotone_evidence_trace(self, coin, coin_grid):
        # under a constant plausibility and an all-heads stream, the argmax
        # estimate of w(H) climbs monotonically toward the vertex
        truth = mass_function(coin, [1, 0])
        cfg = TrialConfig(
            worlds=tuple(coin_grid),
            plausibility=tabulated([1.0] * len(coin_grid)),
            truth=truth,
            horizon=60,
            seed=11,
            record_trace=True,
        )
        result = run_trial(cfg)
        assert result.settled
        highs = [
            max(float(coin_grid[i].weight("H")) for i in step)
            for step in result.belief_trace
        ]
        assert highs == sorted(highs)
        assert highs[-1] == 1.0

    def test_grid_truth_settles(self, coin, coin_grid):
        truth = mass_function(coin, [Fraction(3, 5), Fraction(2, 5)])
        cfg = TrialConfig(
            worlds=tuple(coin_grid),
            plausibility=ENTROPY,
            truth=truth,
            horizon=3000,
            seed=8,
        )
        result = run_trial(cfg)
        assert result.settled
        assert result.final_argmax == frozenset({coin_grid.index(truth)})


def nine_outcome_worlds():
    """40 seeded worlds over 9 outcomes with denominator 90, some with zero
    weights, plus the uniform truth: every outcome occurs in its stream."""
    alphabet = make_alphabet([f"o{i}" for i in range(9)])
    rng = random.Random(5)
    worlds = {mass_function(alphabet, [Fraction(1, 9)] * 9)}
    while len(worlds) < 41:
        cuts = sorted(rng.randint(0, 90) for _ in range(8))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [90])]
        worlds.add(mass_function(alphabet, [Fraction(p, 90) for p in parts]))
    worlds = sorted(worlds, key=lambda w: w.weights)
    return worlds, mass_function(alphabet, [Fraction(1, 9)] * 9)


def whole_horizon_cases():
    coin = make_alphabet(["H", "T"])
    grid = simplex_grid(coin, 10)
    nine, uniform = nine_outcome_worlds()
    return {
        # vertices have plausibility 0: -inf entries in every row
        "centre_of_mass": (grid, CENTRE_OF_MASS, grid[7], 4500, 0.15),
        # T never occurs, and every world with w(H) = 0 drops to -inf
        "vertex_truth": (grid, tabulated([1.0] * 11), grid[10], 4500, 0.15),
        "nine_outcomes": (nine, ENTROPY, uniform, 1300, None),
    }


class TestWholeHorizonKernel:
    """`run_trial` conditions every prefix at once; each step must equal
    conditioning one observation at a time through the public API."""

    @pytest.mark.parametrize("case", sorted(whole_horizon_cases()))
    def test_every_step_matches_step_by_step(self, case):
        worlds, fn, truth, horizon, eps = whole_horizon_cases()[case]
        assert horizon >= 3 * (_BLOCK_CELLS // len(worlds))  # three blocks
        cfg = TrialConfig(
            worlds=tuple(worlds),
            plausibility=fn,
            truth=truth,
            horizon=horizon,
            seed=4,
            epsilon=eps,
            record_trace=True,
        )
        result = run_trial(cfg)

        alphabet = truth.alphabet
        ball = epsilon_ball(truth, cfg.resolved_epsilon(), worlds).members
        state = init_state(worlds, fn)
        expected, last_failure = [], 0
        stream = sample_stream(truth, horizon, cfg.seed)
        for m, outcome in enumerate(stream.outcomes, start=1):
            unit = tuple(int(i == outcome) for i in range(alphabet.size))
            state = condition(state, ObservationEvent(alphabet, unit))
            argmax = argmax_worlds(state).members
            expected.append(argmax)
            if not argmax <= ball:
                last_failure = m
        assert result.belief_trace == expected
        assert result.final_argmax == expected[-1]
        settled = last_failure < horizon
        assert result.settled == settled
        assert result.settle_time == (last_failure + 1 if settled else None)


def sequential_baseline(cfg, threshold=0.95):
    """The Bayesian baseline as one renormalised update per observation:
    the reference the whole-horizon version is compared with."""
    eps = cfg.resolved_epsilon()
    ball = sorted(epsilon_ball(cfg.truth, eps, list(cfg.worlds)).members)
    stream = sample_stream(cfg.truth, cfg.horizon, cfg.seed)
    logw = np.stack([w.log_weights() for w in cfg.worlds])
    log_post = np.full(len(cfg.worlds), -math.log(len(cfg.worlds)))
    last_failure = 0
    for m, outcome in enumerate(stream.outcomes, start=1):
        log_post = log_post + logw[:, outcome]
        norm = logsumexp(log_post)
        if norm == -math.inf:
            ball_mass = 0.0
        else:
            log_post = log_post - norm
            ball_mass = float(np.exp(logsumexp(log_post[ball]))) if ball else 0.0
        if not ball_mass > threshold:
            last_failure = m
    best = log_post.max()
    final_map = frozenset(
        i
        for i, v in enumerate(log_post)
        if best == -math.inf
        or (v > -math.inf and abs(v - best) <= 1e-9 * max(1.0, abs(v), abs(best)))
    )
    settled = last_failure < cfg.horizon
    return settled, last_failure + 1 if settled else None, final_map


class TestBaseline:
    def test_settles_on_easy_problem(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[2], 400, seed=5
        )
        result = bayesian_baseline_trial(cfg)
        assert result.settled
        assert result.final_argmax == frozenset({2})

    def test_truth_outside_worlds_never_settles(self, coin, three_coins):
        outsider = mass_function(coin, [Fraction(1, 10), Fraction(9, 10)])
        cfg = coin_config(coin, three_coins, outsider, 200, epsilon=0.05)
        result = bayesian_baseline_trial(cfg)
        assert not result.settled

    @pytest.mark.parametrize("grid_case", ["coin", "urn"])
    def test_matches_sequential_updates(self, grid_case):
        if grid_case == "coin":
            alphabet = make_alphabet(["H", "T"])
            worlds, weights, horizon = simplex_grid(alphabet, 10), (7, 3), 400
        else:
            alphabet = make_alphabet(["R", "B", "G"])
            worlds, weights, horizon = simplex_grid(alphabet, 10), (5, 3, 2), 600
        truth = mass_function(alphabet, [Fraction(k, 10) for k in weights])
        for seed in trial_seeds(31, 20):
            cfg = TrialConfig(tuple(worlds), ENTROPY, truth, horizon, seed, 0.15)
            got = bayesian_baseline_trial(cfg)
            reference = sequential_baseline(cfg)
            assert (got.settled, got.settle_time, got.final_argmax) == reference

    def test_shares_stream_with_plausibilist(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[0], 400, seed=21
        )
        ours = run_trial(cfg)
        theirs = bayesian_baseline_trial(cfg)
        assert ours.settled and theirs.settled
        assert ours.final_argmax == theirs.final_argmax


class TestExperiment:
    def test_seeds_deterministic_and_distinct(self):
        a = trial_seeds(123, 20)
        b = trial_seeds(123, 20)
        assert a == b
        assert len(set(a)) == 20
        assert trial_seeds(124, 20) != a

    def test_summary_fields(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[1], 300
        )
        summary = run_experiment(cfg, trials=30, base_seed=7)
        assert summary.trials == 30
        assert summary.settle_fraction == 1.0
        assert summary.settle_time_median <= summary.settle_time_p90
        assert summary.settle_time_p90 <= summary.settle_time_max
        assert len(summary.trial_results) == 30

    def test_repeatable(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[0], 200
        )
        a = run_experiment(cfg, trials=10, base_seed=99)
        b = run_experiment(cfg, trials=10, base_seed=99)
        assert a.to_dict() == b.to_dict()

    def test_settle_fraction_monotone_in_horizon(self, three_coins):
        fractions = []
        for horizon in (5, 50, 500):
            cfg = coin_config(
                three_coins[0].alphabet, three_coins, three_coins[2], horizon
            )
            fractions.append(
                run_experiment(cfg, trials=25, base_seed=42).settle_fraction
            )
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_paired_baseline(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[2], 400
        )
        summary = run_experiment(
            cfg, trials=15, base_seed=3, include_baseline=True
        )
        assert summary.baseline is not None
        assert summary.baseline.trials == 15
        assert "baseline" in summary.to_dict()

    def test_rejects_zero_trials(self, three_coins):
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[1], 10
        )
        with pytest.raises(ValueError):
            run_experiment(cfg, trials=0, base_seed=0)
