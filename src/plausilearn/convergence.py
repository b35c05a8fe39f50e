"""Monte Carlo checks that belief settles on the true distribution.

A trial samples a stream from a designated true world, conditions the
plausibility state on every prefix of the stream, and records the first step
after which belief stays inside the epsilon-ball around the truth for the
rest of the horizon.  This finite-horizon settling time is the testable
surrogate for the almost-sure "eventually stays close" guarantee.

A Bayesian learner over the same finite world set (uniform prior, posterior
mass of the ball exceeding 0.95) is available as a paired baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from .plausibility import (
    PlausibilityFn,
    _log_plausibilities,
    _tie_mask,
    init_state,
)
from .simplex import (
    MassFunction,
    epsilon_ball,
    euclidean_distance,
    sample_stream,
)


class TruthNotInWorldsError(ValueError):
    """The designated true distribution is not one of the worlds."""


class ZeroPlausibilityTruthError(ValueError):
    """The true world has plausibility 0, so it can never be believed."""


@dataclass(frozen=True)
class TrialConfig:
    """One simulated learning run.

    `epsilon=None` selects isolation mode: half the minimum distance from
    the truth to any other world, so settling means believing exactly the
    true world.
    """

    worlds: tuple[MassFunction, ...]
    plausibility: PlausibilityFn
    truth: MassFunction
    horizon: int
    seed: int
    epsilon: float | None = None
    record_trace: bool = False

    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            if self.epsilon <= 0:
                raise ValueError("epsilon must be positive")
            return self.epsilon
        others = [
            euclidean_distance(self.truth, w)
            for w in self.worlds
            if w != self.truth
        ]
        if not others:
            return 1.0
        return min(others) / 2


@dataclass
class TrialResult:
    settled: bool
    settle_time: int | None
    final_argmax: frozenset[int]
    belief_trace: list[frozenset[int]] | None = None


@dataclass
class ExperimentSummary:
    trials: int
    settle_fraction: float
    settle_time_median: float | None
    settle_time_p90: float | None
    settle_time_max: int | None
    baseline: "ExperimentSummary | None" = None
    trial_results: list[TrialResult] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "settle_fraction": self.settle_fraction,
            "settle_time_median": self.settle_time_median,
            "settle_time_p90": self.settle_time_p90,
            "settle_time_max": self.settle_time_max,
        }
        if self.baseline is not None:
            out["baseline"] = self.baseline.to_dict()
        return out


#: Cells (rows x worlds) of one block of the whole-horizon kernel: the
#: horizon is processed this many cells at a time to bound memory.
_BLOCK_CELLS = 2**14


@dataclass(frozen=True)
class _Shared:
    """What every trial of one configuration reuses, worlds reordered so
    that the `inside` worlds of the epsilon-ball come first.  `truth_base`
    is None when the truth is not a world."""

    order: np.ndarray
    inside: int
    base_log: np.ndarray
    log_weights: np.ndarray
    truth_base: float | None

    def worlds_of(self, mask: np.ndarray) -> frozenset[int]:
        return frozenset(self.order[mask].tolist())


def _share(cfg: TrialConfig) -> _Shared:
    state = init_state(cfg.worlds, cfg.plausibility)
    ball = epsilon_ball(cfg.truth, cfg.resolved_epsilon(), list(cfg.worlds)).members
    order = np.array(sorted(range(len(cfg.worlds)), key=lambda i: i not in ball))
    try:
        truth_base = float(state.base_log[cfg.worlds.index(cfg.truth)])
    except ValueError:
        truth_base = None
    return _Shared(
        order, len(ball), state.base_log[order], state.log_weights[order], truth_base
    )


def _blocks(shared: _Shared, stream, base_log: np.ndarray):
    """Log values over the whole horizon in row blocks, worlds in `order`:
    row m is conditioned on the first m + 1 observations."""
    worlds, outcomes = shared.log_weights.shape
    rows = max(1, _BLOCK_CELLS // worlds)
    draws = np.asarray(stream.outcomes)
    unit = np.eye(outcomes, dtype=np.int64)
    counts = np.zeros((1, outcomes), dtype=np.int64)
    for start in range(0, len(draws), rows):
        counts = unit[draws[start:start + rows]].cumsum(axis=0) + counts[-1]
        yield _log_plausibilities(base_log, shared.log_weights, counts)


def _settled(fails: list[np.ndarray], horizon: int, final_argmax, trace=None):
    """Result from each step's failure flags: settled from the step after
    the last failure, when that step is within the horizon."""
    failing = np.flatnonzero(np.concatenate(fails))
    last_failure = int(failing[-1]) + 1 if failing.size else 0
    settled = last_failure < horizon
    settle_time = last_failure + 1 if settled else None
    return TrialResult(settled, settle_time, final_argmax, trace)


def run_trial(cfg: TrialConfig, shared: _Shared | None = None) -> TrialResult:
    """Simulate one stream and report when belief settles in the ball.

    Every prefix of the stream is conditioned on at once, from cumulative
    counts, by the kernel `condition` uses, so each step's values are
    bit-identical to conditioning one observation at a time.  A step fails
    when the most plausible world outside the ball ties the maximum.
    `run_experiment` passes `shared`, computed once for all its trials.
    """
    shared = shared or _share(cfg)
    if shared.truth_base is None:
        raise TruthNotInWorldsError(f"truth {cfg.truth} is not a world")
    if shared.truth_base == -math.inf:
        raise ZeroPlausibilityTruthError(
            "true world has plausibility 0 under the base plausibility"
        )
    if cfg.horizon < 1:
        return TrialResult(False, None, frozenset())

    stream = sample_stream(cfg.truth, cfg.horizon, cfg.seed)
    trace: list[frozenset[int]] | None = [] if cfg.record_trace else None
    fails = []
    for values in _blocks(shared, stream, shared.base_log):
        best_in = values[:, :shared.inside].max(axis=1, initial=-math.inf)
        best_out = values[:, shared.inside:].max(axis=1, initial=-math.inf)
        # The step fails when the best world outside the ball ties the best.
        fails.append(_tie_mask(np.column_stack([best_in, best_out]))[:, 1])
        if trace is not None:
            trace.extend(shared.worlds_of(row) for row in _tie_mask(values))
    return _settled(fails, cfg.horizon, shared.worlds_of(_tie_mask(values[-1])), trace)


def bayesian_baseline_trial(
    cfg: TrialConfig, threshold: float = 0.95, shared: _Shared | None = None
) -> TrialResult:
    """Bayesian learner on the same stream: uniform prior over the worlds,
    settled when the posterior mass of the epsilon-ball exceeds `threshold`.

    Unlike `run_trial` this tolerates a truth outside the world set: the
    ball may then be empty and the learner simply never settles."""
    shared = shared or _share(cfg)
    if cfg.horizon < 1:
        return TrialResult(False, None, frozenset())

    stream = sample_stream(cfg.truth, cfg.horizon, cfg.seed)
    prior = np.full(len(shared.order), -math.log(len(shared.order)))
    fails = []
    for log_post in _blocks(shared, stream, prior):
        norm = logsumexp(log_post, axis=1)
        with np.errstate(invalid="ignore"):
            ball_mass = np.exp(logsumexp(log_post[:, :shared.inside], axis=1) - norm)
        # NaN (every world at plausibility 0) fails, as a mass of 0 does.
        fails.append(~(ball_mass > threshold))
    last = log_post[-1] - norm[-1] if norm[-1] > -math.inf else log_post[-1]
    return _settled(fails, cfg.horizon, shared.worlds_of(_tie_mask(last)))


def _summarize(trials: list[TrialResult]) -> ExperimentSummary:
    n = len(trials)
    settled = [t for t in trials if t.settled]
    times = [t.settle_time for t in settled]
    return ExperimentSummary(
        trials=n,
        settle_fraction=len(settled) / n if n else 0.0,
        settle_time_median=float(np.median(times)) if times else None,
        settle_time_p90=float(np.percentile(times, 90)) if times else None,
        settle_time_max=int(max(times)) if times else None,
        trial_results=trials,
    )


def trial_seeds(base_seed: int, trials: int) -> list[int]:
    """Deterministic per-trial stream seeds derived from one base seed."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(trials)]


def run_experiment(
    cfg: TrialConfig,
    trials: int,
    base_seed: int,
    include_baseline: bool = False,
) -> ExperimentSummary:
    """Run independent seeded trials of `cfg` and aggregate settling stats.

    Each trial draws its own stream seed from `base_seed`; the baseline,
    when requested, reuses the identical streams for a paired comparison.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    seeds = trial_seeds(base_seed, trials)
    shared = _share(cfg)
    results = []
    baseline_results = []
    for seed in seeds:
        trial_cfg = replace(cfg, seed=seed)
        results.append(run_trial(trial_cfg, shared))
        if include_baseline:
            baseline_results.append(bayesian_baseline_trial(trial_cfg, shared=shared))
    summary = _summarize(results)
    if include_baseline:
        summary.baseline = _summarize(baseline_results)
    return summary
