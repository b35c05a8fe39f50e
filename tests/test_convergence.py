import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
from plausilearn import convergence, plausibility, simplex
from plausilearn.convergence import (
    TruthNotInWorldsError,
    ZeroPlausibilityTruthError,
    _blocks,
    _certified_blocks,
    _error_factor,
    _matmul_blocks,
    _one_pass_error,
    _one_pass_mass,
    _screen_steps,
    _share,
)
from plausilearn.plausibility import _tie_mask
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

    def test_nan_epsilon_rejected(self, three_coins):
        # NaN fails every comparison: accepted, it would make the ball
        # empty and every trial silently never settle.
        cfg = coin_config(
            three_coins[0].alphabet, three_coins, three_coins[1], 10,
            epsilon=math.nan,
        )
        with pytest.raises(ValueError):
            cfg.resolved_epsilon()
        with pytest.raises(ValueError):
            run_trial(cfg)

    def test_isolation_radius_on_urn_grid(self, urn):
        grid = simplex_grid(urn, 12)
        truth = mass_function(urn, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        cfg = TrialConfig(tuple(grid), ENTROPY, truth, 10, 0)
        # A neighbour on the grid moves 1/12 from one coordinate to another.
        assert cfg.resolved_epsilon() == math.sqrt(2 * (1 / 12) ** 2) / 2

    def test_singleton_world_set(self, coin, fair_coin):
        cfg = coin_config(coin, [fair_coin], fair_coin, 10)
        assert cfg.resolved_epsilon() == 1.0

    def test_share_builds_one_distance_table(self, urn):
        # The isolation radius and the ball come from one table of
        # distances, so leaving epsilon to be resolved costs no extra pass,
        # and the distances reuse the model's weight table: the world set's
        # table is built once.  A truth over 7ths is not on the grid of
        # 12ths, so its distances are taken over the lcm of both
        # denominators.
        grid = tuple(simplex_grid(urn, 12))
        for weights in ((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                        (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))):
            truth = mass_function(urn, weights)
            calls = []
            for eps in (None, 0.15):
                cfg = TrialConfig(grid, ENTROPY, truth, 10, 0, eps)
                wrapped = mock.Mock(wraps=simplex._weights)
                with mock.patch.object(simplex, "_weights", wrapped), \
                        mock.patch.object(plausibility, "_weights", wrapped):
                    shared = _share(cfg)
                calls.append(wrapped.call_count)
                sizes = [len(call.args[0]) for call in wrapped.call_args_list]
                assert sizes.count(len(grid)) == 1
                assert max(sizes) == len(grid)
                ball = epsilon_ball(truth, cfg.resolved_epsilon(), list(grid)).members
                assert shared.inside == len(ball)
                assert set(shared.order[:shared.inside].tolist()) == ball
            assert calls[0] == calls[1]


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

    def test_truth_at_an_underflowing_distance_is_not_a_world(self, coin, three_coins):
        # 10^-200 off the fair coin: the squared difference underflows, so
        # the distance is 0, yet the truth is no world.
        tiny = Fraction(1, 10**200)
        outsider = mass_function(coin, [Fraction(1, 2) + tiny, Fraction(1, 2) - tiny])
        cfg = coin_config(coin, three_coins, outsider, 10, epsilon=0.1)
        assert simplex._distances(outsider, three_coins)[1] == 0
        with pytest.raises(TruthNotInWorldsError):
            run_trial(cfg)

    def test_truth_is_its_first_copy(self, coin, three_coins):
        # An equal but distinct truth object is found, at the first of the
        # world's copies: that copy's plausibility decides.
        truth = mass_function(coin, [Fraction(1, 2), Fraction(1, 2)])
        worlds = (three_coins[0], three_coins[1], three_coins[1])
        assert truth is not worlds[1]
        shared = _share(TrialConfig(worlds, tabulated([1.0, 2.0, 3.0]), truth, 10, 0))
        assert shared.truth_base == math.log(2.0)
        cfg = TrialConfig(worlds, tabulated([1.0, 0.0, 3.0]), truth, 10, 0)
        with pytest.raises(ZeroPlausibilityTruthError):
            run_trial(cfg)

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
        # Three screened blocks and a partial one.
        assert horizon > 3 * _screen_steps(len(worlds))
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


def unscreened_trial(cfg):
    """`run_trial` without its screen: every world's value at every step,
    the loop it replaced, kept as the reference.  Returns (settled,
    settle time, final argmax, trace)."""
    shared = _share(cfg)
    stream = sample_stream(cfg.truth, cfg.horizon, cfg.seed)
    counts = np.cumsum(np.eye(len(cfg.truth.weights), dtype=np.int64)[
        list(stream.outcomes)], axis=0)
    trace, fails = [], []
    for values in _blocks(shared.base_log, shared.log_weights, counts):
        best_in = values[:, :shared.inside].max(axis=1, initial=-math.inf)
        best_out = values[:, shared.inside:].max(axis=1, initial=-math.inf)
        fails.append(_tie_mask(np.column_stack([best_in, best_out]))[:, 1])
        trace.extend(shared.worlds_of(row) for row in _tie_mask(values))
    failing = np.flatnonzero(np.concatenate(fails))
    last_failure = int(failing[-1]) + 1 if failing.size else 0
    settled = last_failure < cfg.horizon
    final = shared.worlds_of(_tie_mask(values[-1]))
    return settled, last_failure + 1 if settled else None, final, trace


@st.composite
def screened_cases(draw):
    outcomes = draw(st.integers(2, 4))
    alphabet = make_alphabet([f"o{i}" for i in range(outcomes)])
    resolution = draw(st.integers(outcomes, {2: 25, 3: 25, 4: 12}[outcomes]))
    worlds = simplex_grid(alphabet, resolution)
    kind = draw(st.sampled_from(["entropy", "centre_of_mass", "tabulated"]))
    if kind == "tabulated":
        # Few distinct values, zeros among them: exact ties and -inf rows.
        values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]),
                               min_size=len(worlds), max_size=len(worlds)))
        fn = tabulated(values)
    else:
        fn = ENTROPY if kind == "entropy" else CENTRE_OF_MASS
    base_log = init_state(worlds, fn).base_log
    plausible = [w for w, v in zip(worlds, base_log) if v > -math.inf]
    if draw(st.booleans()):
        # The last outcome at its least positive weight: it is first seen
        # late, often inside a block whose kept worlds with a zero weight
        # on it go to -inf there.
        plausible = [w for w in plausible if w.weights[-1] == Fraction(1, resolution)]
    assume(plausible)
    truth = draw(st.sampled_from(plausible))
    # Small `_BLOCK_CELLS` split the block-end rows into several chunks.
    cells = draw(st.sampled_from([64, 4096, 2**14]))
    with mock.patch.object(convergence, "_BLOCK_CELLS", cells):
        steps = _screen_steps(len(worlds))
    blocks = draw(st.integers(0, 5))
    horizon = draw(st.one_of(
        st.integers(1, steps - 1),  # shorter than one block
        st.just(max(1, blocks) * steps),  # whole blocks
        st.integers(1, steps - 1).map(lambda r: blocks * steps + r),
    ))
    eps = draw(st.one_of(st.none(), st.floats(0.02, 0.6)))
    # Without a trace the steps are certified by the step-only test.
    cfg = TrialConfig(tuple(worlds), fn, truth, horizon, draw(st.integers(0, 2**32)),
                      eps, record_trace=draw(st.booleans()))
    return cfg, cells


class TestScreen:
    """The screened `run_trial` against the unscreened loop."""

    @settings(max_examples=150, deadline=None)
    @given(case=screened_cases())
    def test_matches_unscreened(self, case):
        cfg, cells = case
        with mock.patch.object(convergence, "_BLOCK_CELLS", cells):
            expected = unscreened_trial(cfg)
            result = run_trial(cfg)
        assert result.settled == expected[0]
        assert result.settle_time == expected[1]
        assert result.final_argmax == expected[2]
        assert result.belief_trace == (expected[3] if cfg.record_trace else None)

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_fallback_decides_at_the_tolerance(self, coin, record_trace):
        # A tolerance equal to the reference kernel's relative gap between
        # the best world and the best one outside the ball at a step inside
        # a block, or one float either side of it, puts that step's tie test
        # closer to its edge than the matmul can certify: the reference
        # kernel decides it.
        grid = tuple(simplex_grid(coin, 25))
        truth = mass_function(coin, [Fraction(3, 5), Fraction(2, 5)])
        cfg = TrialConfig(grid, ENTROPY, truth, 200, 3, 0.05, record_trace=record_trace)
        shared = _share(cfg)
        with mock.patch.object(convergence, "_BLOCK_CELLS", 64):
            assert _screen_steps(len(grid)) == 64
            counts = np.cumsum(np.eye(2, dtype=np.int64)[
                list(sample_stream(truth, cfg.horizon, cfg.seed).outcomes)], axis=0)
            # The third block's third step.
            row = next(_blocks(shared.base_log, shared.log_weights, counts[130:131]))[0]
            best, out = row.max(), row[shared.inside:].max()
            gap = (best - out) / max(1.0, best, -out)
            assert 1e-4 < gap < 0.1
            for tolerance in (gap, np.nextafter(gap, 0), np.nextafter(gap, 1)):
                blocks = mock.Mock(wraps=convergence._blocks)
                with mock.patch.object(plausibility, "TIE_TOLERANCE", float(tolerance)):
                    expected = unscreened_trial(cfg)
                    with mock.patch.object(convergence, "_blocks", blocks):
                        result = run_trial(cfg, shared)
                assert (result.settled, result.settle_time, result.final_argmax) \
                    == expected[:3]
                assert result.belief_trace == (expected[3] if record_trace else None)
                recomputed = [call.args[2] for call in blocks.call_args_list
                              if call.args[0] is not shared.base_log]
                assert any(130 in c[:, 0] + c[:, 1] - 1 for c in recomputed)

    def test_keeps_a_world_tied_within_the_tolerance(self, coin):
        # Under an all-heads stream the two copies of the vertex (1, 0) never
        # lose value, so the second one stays 1e-10 below the leader for the
        # whole horizon: it is tied at every step although its value before
        # each block is below the leader's value at the block's end.
        vertex = mass_function(coin, [1, 0])
        worlds = (vertex, vertex, mass_function(coin, [Fraction(1, 2)] * 2))
        cfg = TrialConfig(worlds, tabulated([1.0 + 1e-10, 1.0, 1.0]), vertex,
                          2 * _screen_steps(len(worlds)) + 1, 0, 0.1,
                          record_trace=True)
        result = run_trial(cfg)
        assert result.belief_trace == [frozenset({0, 1})] * cfg.horizon
        assert (result.settled, result.settle_time) == (True, 1)


@st.composite
def kernel_cases(draw):
    outcomes = draw(st.integers(2, 4))
    alphabet = make_alphabet([f"o{i}" for i in range(outcomes)])
    worlds = simplex_grid(alphabet, draw(st.integers(1, {2: 25, 3: 25, 4: 12}[outcomes])))
    # Plausibilities up to 1e300: bases up to 690 in size, and zeros.
    values = draw(st.lists(st.sampled_from([0.0, 1e-300, 0.3, 1.0, 7.0, 1e300]),
                           min_size=len(worlds), max_size=len(worlds)))
    stream = draw(st.lists(st.integers(0, outcomes - 1), min_size=1, max_size=300))
    counts = np.eye(outcomes, dtype=np.int64)[stream].cumsum(axis=0)
    counts *= draw(st.sampled_from([1, 1000, 10**6]))
    return TrialConfig(tuple(worlds), tabulated(values), worlds[0], 1, 0, 0.5), counts


class TestMatmulKernel:
    """The matmul of `run_trial`'s blocks against the reference kernel."""

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases())
    def test_values_within_the_bound(self, case):
        # Same -inf pattern as the reference kernel, and every finite value
        # within 2 gamma_{k+1} (2B + |V'|) / (1 - gamma_{k+1}) of it: half
        # the E of `run_trial`'s certificate.
        cfg, counts = case
        shared = _share(cfg)
        kept = np.arange(len(shared.order))
        reference = np.concatenate(list(_blocks(shared.base_log, shared.log_weights, counts)))
        values = np.concatenate([v for v, _, _ in _certified_blocks(
            shared, kept, 0, counts, reference[-1], False)])
        assert np.array_equal(values == -math.inf, reference == -math.inf)
        finite = reference > -math.inf
        terms = counts.shape[1] + 1
        gamma = terms * 2.0**-53 / (1 - terms * 2.0**-53)
        bound = 2 * gamma * (shared.base_bound + np.abs(values[finite])) / (1 - gamma)
        assert np.all(np.abs(values[finite] - reference[finite]) <= bound)

    def test_worlds_die_where_their_zero_weight_outcome_is_first_seen(self, urn):
        # Every world is kept, and G is first seen at the third step: the
        # worlds with w(G) = 0 are finite before it and -inf from it, in
        # both kernels.
        grid = tuple(simplex_grid(urn, 6))
        cfg = TrialConfig(grid, ENTROPY, grid[1], 1, 0, 0.5)
        shared = _share(cfg)
        counts = np.array([[1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 1, 1]])
        reference = np.concatenate(list(_blocks(shared.base_log, shared.log_weights, counts)))
        (values, _, _), = _certified_blocks(
            shared, np.arange(len(grid)), shared.inside, counts, reference[-1], True)
        dies = (shared.log_weights[:, 2] == -math.inf) & (shared.base_log > -math.inf)
        assert dies.any()
        assert np.all(values[1, dies] > -math.inf)
        assert np.all(values[2:, dies] == -math.inf)
        assert np.array_equal(values == -math.inf, reference == -math.inf)


def centre_of_mass_argmax(worlds, resolution, counts):
    """Exact argmax under CENTRE_OF_MASS on grid worlds k/N after `counts`:
    plausibility times likelihood is prod (k_i / N) ** (1 + n_i), so the
    maximal worlds maximise the integer prod k_i ** (1 + n_i)."""
    scores = [
        math.prod(int(w * resolution) ** (1 + n) for w, n in zip(world.weights, counts))
        for world in worlds
    ]
    top = max(scores)
    return frozenset(i for i, score in enumerate(scores) if score == top)


class TestCentreOfMassOracle:
    @pytest.mark.parametrize("names, resolution, weights", [
        (["H", "T"], 20, (13, 7)),
        (["R", "B", "G"], 12, (6, 4, 2)),
        (["R", "B", "G"], 15, (5, 5, 5)),
        (["a", "b", "c", "d"], 8, (3, 2, 2, 1)),
    ])
    def test_argmax_is_the_exact_integer_maximum(self, names, resolution, weights):
        alphabet = make_alphabet(names)
        worlds = simplex_grid(alphabet, resolution)
        truth = mass_function(alphabet, [Fraction(k, resolution) for k in weights])
        model = init_state(worlds, CENTRE_OF_MASS)
        horizon = 2 * _screen_steps(len(worlds)) + 17
        for seed in trial_seeds(11, 4):
            cfg = TrialConfig(tuple(worlds), CENTRE_OF_MASS, truth, horizon, seed,
                              record_trace=True)
            trace = run_trial(cfg).belief_trace
            stream = sample_stream(truth, horizon, seed)
            for step in range(0, horizon, 7):
                counts = stream.prefix_event(step + 1).counts
                expected = centre_of_mass_argmax(worlds, resolution, counts)
                event = ObservationEvent(alphabet, counts)
                assert argmax_worlds(condition(model, event)).members == expected
                assert trace[step] == expected


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

    @pytest.mark.parametrize("grid_case", ["coin", "urn", "settle"])
    def test_matches_sequential_updates(self, grid_case):
        # "settle" is the benchmark's configuration: 496 worlds, so rows as
        # long as those the one-pass mass is used on there.
        names, resolution, weights, horizon, trials = {
            "coin": ("HT", 10, (7, 3), 400, 20),
            "urn": ("RBG", 10, (5, 3, 2), 600, 20),
            "settle": ("RBG", 30, (5, 3, 2), 2000, 3),
        }[grid_case]
        alphabet = make_alphabet(list(names))
        worlds = simplex_grid(alphabet, resolution)
        truth = mass_function(alphabet, [Fraction(k, 10) for k in weights])
        for seed in trial_seeds(31, trials):
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


def unscreened_baseline_trial(cfg):
    """`bayesian_baseline_trial` without its screen: every world's log
    posterior at every step, the computation it replaced, kept as the
    reference.  Returns (settled, settle time, final argmax), each step's
    failure flag and each step's ball mass."""
    shared = _share(cfg)
    stream = sample_stream(cfg.truth, cfg.horizon, cfg.seed)
    counts = np.cumsum(np.eye(len(cfg.truth.weights), dtype=np.int64)[
        list(stream.outcomes)], axis=0)
    prior = np.full(len(shared.order), -math.log(len(shared.order)))
    masses = []
    for log_post in _blocks(prior, shared.log_weights, counts):
        # One exp pass from each row's maximum; NaN where it is -inf.
        with np.errstate(invalid="ignore"):
            terms = np.exp(log_post - log_post.max(axis=1, keepdims=True))
            masses.append(terms[:, :shared.inside].sum(axis=1) / terms.sum(axis=1))
    masses = np.concatenate(masses)
    flags = ~(masses > convergence.BASELINE_THRESHOLD)
    failing = np.flatnonzero(flags)
    last_failure = int(failing[-1]) + 1 if failing.size else 0
    settled = last_failure < cfg.horizon
    last, top = log_post[-1], log_post[-1].max()
    if top > -math.inf:
        last = last - (top + np.log(np.exp(last - top).sum()))
    final = shared.worlds_of(_tie_mask(last))
    return (settled, last_failure + 1 if settled else None, final), flags, masses


def screened_baseline_trial(cfg):
    """`bayesian_baseline_trial` with its full-row fallback watched: returns
    (settled, settle time, final argmax), each step's failure flag, and how
    many rows the fallback recomputed."""
    settled = mock.Mock(wraps=convergence._settled)
    fallback = mock.Mock(wraps=convergence._full_ball_mass)
    with mock.patch.object(convergence, "_settled", settled), \
            mock.patch.object(convergence, "_full_ball_mass", fallback):
        result = bayesian_baseline_trial(cfg)
    flags = np.concatenate(settled.call_args.args[0])
    recomputed = sum(len(call.args[2]) for call in fallback.call_args_list)
    return (result.settled, result.settle_time, result.final_argmax), flags, recomputed


@st.composite
def baseline_cases(draw):
    outcomes = draw(st.integers(2, 4))
    alphabet = make_alphabet([f"o{i}" for i in range(outcomes)])
    grid = simplex_grid(alphabet, draw(st.integers(1, {2: 25, 3: 25, 4: 12}[outcomes])))
    kind = draw(st.sampled_from(["grid", "face", "subset"]))
    if kind == "face":
        # Every world has weight 0 on o0, so once the truth draws o0 every
        # world is at -inf and every later row's ball mass is NaN.
        worlds = [w for w in grid if w.weights[0] == 0]
    elif kind == "subset":
        worlds = [grid[i] for i in sorted(draw(st.sets(
            st.integers(0, len(grid) - 1), min_size=1, max_size=len(grid))))]
    else:
        worlds = grid
    # The truth may lie outside the world set; isolation mode then gives
    # an empty ball.
    truth = draw(st.sampled_from(grid))
    if kind == "face":
        assume(truth.weights[0] > 0)
    cells = draw(st.sampled_from([64, 4096, 2**14]))
    with mock.patch.object(convergence, "_BLOCK_CELLS", cells):
        steps = _screen_steps(len(worlds))
    blocks = draw(st.integers(0, 5))
    horizon = draw(st.one_of(
        st.integers(1, steps - 1),  # shorter than one block
        st.just(max(1, blocks) * steps),  # whole blocks
        st.integers(1, steps - 1).map(lambda r: blocks * steps + r),
    ))
    eps = draw(st.one_of(st.none(), st.floats(0.02, 0.6)))
    cfg = TrialConfig(tuple(worlds), ENTROPY, truth, horizon, draw(st.integers(0, 2**32)),
                      eps)
    # A narrow screen drops worlds whose mass can move a flag, so only the
    # dropped-mass term and the fallback keep those flags right.
    screen = draw(st.sampled_from([40.0, 8.0, 1.0]))
    return cfg, cells, screen


@st.composite
def baseline_kernel_cases(draw):
    """The baseline's prior and a grid's log weights, cumulative counts (up
    to 3e8), a few of their rows and a ball of the first worlds."""
    outcomes = draw(st.integers(2, 4))
    alphabet = make_alphabet([f"o{i}" for i in range(outcomes)])
    worlds = simplex_grid(alphabet, draw(st.integers(1, {2: 25, 3: 25, 4: 12}[outcomes])))
    stream = draw(st.lists(st.integers(0, outcomes - 1), min_size=1, max_size=300))
    counts = np.eye(outcomes, dtype=np.int64)[stream].cumsum(axis=0)
    counts *= draw(st.sampled_from([1, 1000, 10**6]))
    rows = draw(st.lists(st.integers(0, len(counts) - 1), min_size=1, max_size=3))
    prior = np.full(len(worlds), -math.log(len(worlds)))
    return (prior, init_state(worlds, ENTROPY).log_weights, counts, rows,
            draw(st.integers(0, len(worlds))))


def exact_ball_mass(row, inside):
    """The ball mass of the float values in `row`, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        top = Decimal(max(row))
        terms = [(Decimal(x) - top).exp() if x > -math.inf else Decimal(0) for x in row]
        return float(sum(terms[:inside], Decimal(0)) / sum(terms, Decimal(0)))


class TestBaselineScreen:
    """The screened `bayesian_baseline_trial` against the unscreened one."""

    @settings(max_examples=150, deadline=None)
    @given(case=baseline_cases())
    def test_matches_unscreened(self, case):
        cfg, cells, screen = case
        with mock.patch.object(convergence, "_BLOCK_CELLS", cells), \
                mock.patch.object(convergence, "_BASELINE_SCREEN", screen):
            expected, expected_flags, _ = unscreened_baseline_trial(cfg)
            got, flags, _ = screened_baseline_trial(cfg)
        assert got == expected
        assert np.array_equal(flags, expected_flags)

    @pytest.mark.parametrize("screen", [40.0, 4.0])
    def test_fallback_decides_at_the_threshold(self, coin, screen):
        # A threshold equal to a ball mass the unscreened computation
        # produces, or one float either side of it, is closer to the
        # screened mass than any bound allows: the full row decides.  Under
        # an all-heads stream the leader, the vertex, keeps its value, so at
        # a 4-nat screen the dropped worlds hold about 0.5% of the mass at
        # the chosen step, where only the dropped-mass term sends the step
        # to the fallback.
        grid = tuple(simplex_grid(coin, 25))
        vertex = mass_function(coin, [1, 0])
        cfg = TrialConfig(grid, ENTROPY, vertex, 200, 3, 0.05)
        with mock.patch.object(convergence, "_BASELINE_SCREEN", screen), \
                mock.patch.object(convergence, "_BLOCK_CELLS", 64):
            assert _screen_steps(len(grid)) == 64
            _, _, masses = unscreened_baseline_trial(cfg)
            mass = masses[130]  # the third block's third step
            assert 0.99 < mass < 0.999
            for threshold in (mass, np.nextafter(mass, 0), np.nextafter(mass, 1)):
                with mock.patch.object(convergence, "BASELINE_THRESHOLD", float(threshold)):
                    expected, expected_flags, _ = unscreened_baseline_trial(cfg)
                    got, flags, recomputed = screened_baseline_trial(cfg)
                assert got == expected
                assert np.array_equal(flags, expected_flags)
                assert recomputed >= 1

    @pytest.mark.parametrize("term", ["unscreened", "one_pass", "matmul", "dropped"])
    def test_each_margin_term_sends_its_step_to_the_fallback(
        self, coin, term, monkeypatch
    ):
        # A threshold at the screened mass of a step inside a block, offset
        # by the whole margin less half of one of its terms, is closer than
        # the margin but further than the margin without that term: the
        # full row decides, as it would not if that term were left out.
        if term == "dropped":
            # At the 40-nat screen the dropped-mass term is about 1e-16; at 8
            # nats it is about 0.016 (24 of 26 worlds dropped).  At 4 nats
            # only the vertex is kept and the threshold would fall below 0.9.
            monkeypatch.setattr(convergence, "_BASELINE_SCREEN", 8.0)
        grid = tuple(simplex_grid(coin, 25))
        vertex = mass_function(coin, [1, 0])
        cfg = TrialConfig(grid, ENTROPY, vertex, 200, 3, 0.05)
        shared = _share(cfg)
        n, lw = len(grid), shared.log_weights
        prior = np.full(n, -math.log(n))
        counts = np.cumsum(np.eye(2, dtype=np.int64)[
            list(sample_stream(vertex, cfg.horizon, cfg.seed).outcomes)], axis=0)
        with mock.patch.object(convergence, "_BLOCK_CELLS", 64):
            assert _screen_steps(n) == 64
            # The third block, steps 128 to 191, and its third step.
            before, end = np.concatenate(list(_blocks(prior, lw, counts[[127, 191]])))
            kept = np.flatnonzero(before >= end.max() - convergence._BASELINE_SCREEN)
            values = next(_matmul_blocks(prior, lw, shared.live_weights, kept,
                                         counts[128:192], end[kept]))
        top = values.max(axis=1)
        mass = _one_pass_mass(values, top, np.searchsorted(kept, shared.inside))[2]
        error = _error_factor(2) * (2 * math.log(n) + abs(top[2]) + kept.size)
        dropped = n - kept.size
        terms = {
            "unscreened": _one_pass_error(n),
            "one_pass": _one_pass_error(kept.size),
            "matmul": 2 * math.expm1(2 * error),
            "dropped": 2 * dropped * math.exp(
                2.0**-53 * (abs(end.max()) + convergence._BASELINE_SCREEN)
                - convergence._BASELINE_SCREEN),
        }
        assert terms[term] > 1e-14
        threshold = float(mass - (sum(terms.values()) - terms[term] / 2))
        assert 0.9 < threshold < mass
        with mock.patch.object(convergence, "_BLOCK_CELLS", 64), \
                mock.patch.object(convergence, "BASELINE_THRESHOLD", threshold):
            expected, expected_flags, _ = unscreened_baseline_trial(cfg)
            fallback = mock.Mock(wraps=convergence._full_ball_mass)
            with mock.patch.object(convergence, "_full_ball_mass", fallback):
                got, flags, _ = screened_baseline_trial(cfg)
        assert got == expected
        assert np.array_equal(flags, expected_flags)
        recomputed = np.concatenate([call.args[2].sum(axis=1) - 1
                                     for call in fallback.call_args_list])
        assert 130 in recomputed

    @settings(max_examples=25, deadline=None)
    @given(
        length=st.sampled_from([496, 1891]),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([1e-6, 1.0, 50.0]),
        share=st.tuples(st.sampled_from([0.0, 0.2, 0.9]), st.sampled_from([0.0, 0.2])),
        top=st.sampled_from([0.0, -7.0, -1e3, -1e6, -1e9, -1e12]),
        cut=st.integers(0, 1891),
    )
    def test_one_pass_error_bounds_the_float_error(self, length, seed, spread, share, top,
                                                   cut):
        # `_one_pass_mass` against the exact ball mass of the same floats,
        # for rows as long as the unscreened rows of the benchmark's grids
        # (N=30 and N=60), whose values lie at and below `top`: within
        # `spread` of it, where the exp underflows (a `share[0]` of them) or
        # at -inf (a `share[1]`).  The bound does not grow with |top|.
        rng = np.random.default_rng(seed)
        below = rng.uniform(0, spread, length)
        kind = rng.random(length)
        below[kind < share[0]] = rng.uniform(700, 760, length)[kind < share[0]]
        below[kind > 1 - share[1]] = math.inf
        row = top - below
        row[0] = top
        inside = min(cut, length)
        got = _one_pass_mass(row[None].copy(), np.array([top]), inside)[0]
        exact = exact_ball_mass(row, inside)
        assert abs(got - exact) <= _one_pass_error(length) / 2

    @settings(max_examples=100, deadline=None)
    @given(case=baseline_kernel_cases())
    def test_matmul_moves_the_mass_within_the_input_error(self, case):
        # The exact ball masses of the matmul's values and of the reference
        # kernel's differ by at most 0.6 expm1(2E), a third of the margin's
        # input-error term 2 expm1(2E), and their maxima by at most E.
        prior, log_weights, counts, rows, inside = case
        reference = np.concatenate(list(_blocks(prior, log_weights, counts)))
        live = np.where(log_weights > -math.inf, log_weights, 0.0)
        values = np.concatenate(list(_matmul_blocks(
            prior, log_weights, live, np.arange(len(prior)), counts, reference[-1])))
        assert np.array_equal(values == -math.inf, reference == -math.inf)
        for r in rows:
            top = values[r].max()
            if top == -math.inf:
                continue
            error = _error_factor(counts.shape[1]) * (
                -2 * prior[0] + abs(top) + len(prior))
            assert abs(reference[r].max() - top) <= error
            moved = abs(exact_ball_mass(values[r], inside)
                        - exact_ball_mass(reference[r], inside))
            assert moved <= 0.6 * math.expm1(2 * error)

    def test_screen_computes_few_cells(self):
        # The benchmark's grid: 50 seeded trials compute at most 35% of the
        # horizon's cells, by the reference kernel at block ends and by the
        # matmul for the kept worlds inside blocks, and the decisions never
        # need the fallback.
        urn = make_alphabet(["R", "B", "G"])
        grid = tuple(simplex_grid(urn, 30))
        truth = mass_function(urn, [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
        cfg = TrialConfig(grid, ENTROPY, truth, 2000, 0, 0.15)
        shared = _share(cfg)
        kernel = mock.Mock(wraps=convergence._log_plausibilities)
        matmul = mock.Mock(wraps=convergence._matmul_blocks)
        fallback = mock.Mock(wraps=convergence._full_ball_mass)
        with mock.patch.object(convergence, "_log_plausibilities", kernel), \
                mock.patch.object(convergence, "_matmul_blocks", matmul), \
                mock.patch.object(convergence, "_full_ball_mass", fallback):
            for seed in trial_seeds(1, 50):
                bayesian_baseline_trial(replace(cfg, seed=seed), shared)
        # (base, log_weights, counts) and (base, log_weights, live, kept, counts, last)
        cells = (sum(len(call.args[0]) * len(call.args[2]) for call in kernel.call_args_list)
                 + sum(len(call.args[3]) * len(call.args[4]) for call in matmul.call_args_list))
        assert matmul.called
        assert cells <= 0.35 * 50 * cfg.horizon * len(grid)
        assert not fallback.called


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
