import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
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
    _ball_mass,
    _blocks,
    _logsumexp_rows,
    _mass_error,
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
        # distances, so leaving epsilon to be resolved costs no extra pass.
        grid = tuple(simplex_grid(urn, 12))
        truth = mass_function(urn, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
        calls = []
        for eps in (None, 0.15):
            cfg = TrialConfig(grid, ENTROPY, truth, 10, 0, eps)
            wrapped = mock.Mock(wraps=simplex._weights)
            with mock.patch.object(simplex, "_weights", wrapped), \
                    mock.patch.object(plausibility, "_weights", wrapped):
                shared = _share(cfg)
            calls.append(wrapped.call_count)
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
    cfg = TrialConfig(tuple(worlds), fn, truth, horizon, draw(st.integers(0, 2**32)),
                      eps, record_trace=True)
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
        assert result.belief_trace == expected[3]

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


def reference_logsumexp_rows(a):
    """`_logsumexp_rows` as first written, scipy 1.17's float operations
    over the whole block: the plain ln(sum(exp)) of every row, and the
    top entries taken out of the sum by setting them to -inf."""
    if a.shape[1] == 0:
        return np.full(a.shape[0], -math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.exp(a).sum(axis=1))
        top = a.max(axis=1, keepdims=True)
        is_top = a == top
        tops = is_top.sum(axis=1, dtype=a.dtype)
        rest = np.exp(np.where(is_top, -math.inf, a) - top).sum(axis=1)
        rest = np.where(rest == 0, rest, rest / tops)
        out = np.log1p(rest) + np.log(tops) + top[:, 0]
    return np.where(np.isfinite(out), out, direct)


@st.composite
def logsumexp_blocks(draw):
    """A block of log values, shaped like the baseline's blocks or smaller,
    spanning the range where exp underflows to subnormals and to 0, with
    all -inf rows, tied maxima, entries near the largest float, and inf and
    NaN entries, which leave the stabilised result not finite."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 60))
    shift = draw(st.sampled_from([0.0, -1e4, -1e6]))
    # exp(x - top) is subnormal for x - top in about [-745, -708].
    elements = st.one_of(st.floats(-1500, 10), st.floats(-760, -700))
    a = draw(hnp.arrays(np.float64, (rows, cols), elements=elements)) + shift
    special = st.sampled_from([-math.inf, math.inf, math.nan, 1.7e308])
    for row, col, value in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, cols - 1), special),
            max_size=3)):
        a[row, col] = value
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
        a[row] = -math.inf
    for row, col in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, cols - 1)), max_size=4)):
        a[row, col] = a[row].max()
    return a, draw(st.integers(0, cols))


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

    def test_logsumexp_rows_matches_scipy(self):
        # Bit-identical under the scipy release whose float operations it
        # repeats; within a few ulps under any other.
        exact = scipy.__version__.startswith("1.17.")
        rng = np.random.default_rng(5)
        for _ in range(300):
            rows, cols = rng.integers(1, 30), rng.integers(1, 40)
            a = rng.normal(scale=rng.choice([1.0, 50.0]), size=(rows, cols))
            a -= rng.uniform(0, 1e4)
            a[rng.random(a.shape) < rng.choice([0.0, 0.3, 0.9])] = -math.inf
            a[rng.integers(rows)] = -math.inf
            tied = rng.integers(rows)
            a[tied, rng.integers(cols, size=3)] = a[tied].max()
            # Whole blocks, column slices (the ball) and empty slices.
            for block in (a, a[:, :rng.integers(cols + 1)], a[:, :0]):
                want = logsumexp(block, axis=1)
                got = _logsumexp_rows(block)
                if exact:
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(case=logsumexp_blocks())
    def test_logsumexp_rows_matches_reference(self, case):
        # Bit-identical to the formula it replaced, on whole blocks, the
        # ball's column slices and zero-width slices.
        a, cut = case
        for block in (a, a[:, :cut], a[:, :0]):
            want = reference_logsumexp_rows(block)
            got = _logsumexp_rows(block)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

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
        norm = _logsumexp_rows(log_post)
        with np.errstate(invalid="ignore"):
            masses.append(np.exp(_logsumexp_rows(log_post[:, :shared.inside]) - norm))
    masses = np.concatenate(masses)
    flags = ~(masses > convergence.BASELINE_THRESHOLD)
    failing = np.flatnonzero(flags)
    last_failure = int(failing[-1]) + 1 if failing.size else 0
    settled = last_failure < cfg.horizon
    last = log_post[-1] - norm[-1] if norm[-1] > -math.inf else log_post[-1]
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

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(st.floats(0, 50), st.just(math.inf)),
                        min_size=1, max_size=30),
        top=st.sampled_from([0.0, -7.0, -1e3, -1e6, -1e9, -1e12]),
        cut=st.integers(0, 30),
    )
    def test_mass_error_bounds_the_float_error(self, values, top, cut):
        # `_ball_mass` against the exact ball mass of the same floats, for
        # rows whose values lie at and below `top`: the error grows with
        # |top|, and the bound must cover it.
        row = np.array([top - v for v in values])
        row[0] = top
        inside = min(cut, len(row))
        got = _ball_mass(row[None], inside)[0]
        exact = exact_ball_mass(row, inside)
        assert abs(got - exact) <= _mass_error(len(row), top)

    def test_screen_computes_few_cells(self):
        # The benchmark's grid: 50 seeded trials compute at most 35% of the
        # horizon's cells, and the decisions never need the fallback.
        urn = make_alphabet(["R", "B", "G"])
        grid = tuple(simplex_grid(urn, 30))
        truth = mass_function(urn, [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
        cfg = TrialConfig(grid, ENTROPY, truth, 2000, 0, 0.15)
        shared = _share(cfg)
        kernel = mock.Mock(wraps=convergence._log_plausibilities)
        fallback = mock.Mock(wraps=convergence._full_ball_mass)
        with mock.patch.object(convergence, "_log_plausibilities", kernel), \
                mock.patch.object(convergence, "_full_ball_mass", fallback):
            for seed in trial_seeds(1, 50):
                bayesian_baseline_trial(replace(cfg, seed=seed), shared)
        cells = sum(len(call.args[0]) * len(call.args[2]) for call in kernel.call_args_list)
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
