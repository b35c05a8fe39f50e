"""Monte Carlo checks that belief settles on the true distribution.

A trial samples a stream from a designated true world, conditions the
plausibility state on every prefix of the stream, and records the first step
after which belief stays inside the epsilon-ball around the truth for the
rest of the horizon.  This finite-horizon settling time is the testable
surrogate for the almost-sure "eventually stays close" guarantee.

A trial screens its horizon in blocks.  No world's log value ever rises
(log weights are at most 0 and counts only grow), so a world whose value
before a block is already below the leader's value at the block's end, by
twice the tie tolerance, cannot tie the maximum inside the block; only the
other worlds get a value at every step.  The argument is in `run_trial`.

Two kernels compute a trial's values.  The reference kernel
(`plausibility._log_plausibilities`, the one `condition` uses) computes every
world at each block's last step, so the screen's kept sets, the final argmax
and the screen's argument rest on its floats alone.  Inside a block one
matmul computes the kept worlds; its floats may round differently, so each
step's decision is certified against the reference kernel's by a float-error
bound, and a step it cannot certify is recomputed from every world by the
reference kernel (`_unscreened`).  The bound is derived in `run_trial`.  The
belief trace is read from every world's reference-kernel row at every step.

A Bayesian learner over the same finite world set (uniform prior, ball
posterior above `BASELINE_THRESHOLD`) is available as a paired baseline.  A
step's ball mass is one exp pass over every world's reference-kernel values,
from the row's maximum.  The baseline screens its horizon in the same blocks,
by the same loop (`_screen`), with the same two kernels and the same
fallback: inside a block the matmul computes only the worlds within
`_BASELINE_SCREEN` nats of the block-end leader before the block, whose ball
mass the same exp pass gives.  The mass of the dropped worlds, the matmul's
error against the reference kernel and the float error of the exp pass are
bounded, and a step whose mass lies further from the threshold than these
bounds gets the flag that the unscreened computation, every world by the
reference kernel, would give; any other step is recomputed that way.  The
argument is in `bayesian_baseline_trial`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import plausibility
from .plausibility import (
    PlausibilityFn,
    _log_plausibilities,
    _tie_mask,
    _ties,
    init_state,
)
from .simplex import (
    MassFunction,
    _distances,
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
        return self._epsilon(None)

    def _epsilon(self, distances: np.ndarray | None) -> float:
        """`resolved_epsilon`, from the truth's `distances` to the worlds
        when they are given."""
        if self.epsilon is not None:
            if not self.epsilon > 0:
                raise ValueError("epsilon must be positive")
            return self.epsilon
        if distances is None:
            distances = _distances(self.truth, self.worlds)
        others = distances[[w != self.truth for w in self.worlds]]
        if not others.size:
            return 1.0
        return float(others.min()) / 2


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


#: Cells (rows x worlds) of one block of the whole-horizon kernel: rows are
#: computed at most this many cells (or one row) at a time to bound memory.
_BLOCK_CELLS = 2**14

#: Fewest steps per block of `run_trial`'s screen (see its docstring).
_SCREEN_STEPS = 64


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
    #: `log_weights` with each -inf (a zero weight) set to 0.
    live_weights: np.ndarray
    #: Twice the largest |base_log| of a world not at -inf.
    base_bound: float

    def worlds_of(self, mask: np.ndarray) -> frozenset[int]:
        return frozenset(self.order[mask].tolist())


def _share(cfg: TrialConfig) -> _Shared:
    model = init_state(cfg.worlds, cfg.plausibility)
    # One distance table gives both the isolation radius and the ball, from
    # the model's weight table.
    distances = _distances(cfg.truth, cfg.worlds, (model.numerators, model.denominator))
    eps = cfg._epsilon(distances)
    if not eps > 0:
        raise ValueError("eps must be positive")
    inside = distances < eps
    order = np.argsort(~inside, kind="stable")
    # A world equal to the truth is at distance exactly 0; `==` rules out a
    # distance that underflowed to 0.
    truth = next((i for i in np.flatnonzero(distances == 0).tolist()
                  if cfg.worlds[i] == cfg.truth), None)
    truth_base = None if truth is None else float(model.base_log[truth])
    base_log, log_weights = model.base_log[order], model.log_weights[order]
    finite = np.abs(base_log[base_log > -math.inf])
    return _Shared(
        order, int(inside.sum()), base_log, log_weights, truth_base,
        np.where(log_weights > -math.inf, log_weights, 0.0),
        2 * float(finite.max(initial=0.0)),
    )


def _cumulative_counts(stream) -> np.ndarray:
    """Row m: the counts of each outcome among the first m + 1 observations."""
    unit = np.eye(stream.alphabet.size, dtype=np.int64)
    return unit[np.asarray(stream.outcomes)].cumsum(axis=0)


def _blocks(base_log: np.ndarray, log_weights: np.ndarray, counts: np.ndarray):
    """The kernel's values for each row of `counts`, in blocks of rows of
    at most `_BLOCK_CELLS` cells (or of one row)."""
    rows = max(1, _BLOCK_CELLS // len(base_log))
    for start in range(0, len(counts), rows):
        yield _log_plausibilities(base_log, log_weights, counts[start:start + rows])


def _screen_steps(worlds: int) -> int:
    """Steps per block of `run_trial`'s screen over `worlds` worlds: at
    least `_SCREEN_STEPS`, and as many rows of every world as one kernel
    block holds, so a small world set pays the screen's per-block cost no
    more often than the unscreened loop pays a kernel call."""
    return max(_SCREEN_STEPS, _BLOCK_CELLS // worlds)


def _screen(base: np.ndarray, shared: _Shared, counts: np.ndarray, keep):
    """The screen over the rows of `counts`, from the values `base`: for
    each block, the kernel's values of every world at its last step and
    the largest of them (the leader), the worlds kept in it, how many of
    them lie in the ball, and its rows of `counts`.  `keep(before, leader)`
    is the mask of the worlds kept, from every world's values before the
    block."""
    steps = _screen_steps(len(base))
    ends = np.append(np.arange(steps - 1, len(counts) - 1, steps), len(counts) - 1)
    rows = itertools.chain.from_iterable(_blocks(base, shared.log_weights, counts[ends]))
    before, start = base, 0
    for end, row in zip(ends.tolist(), rows):
        leader = row.max()
        kept = np.flatnonzero(keep(before, leader))
        # `kept` is sorted, so the kept worlds of the ball come first.
        yield row, leader, kept, np.searchsorted(kept, shared.inside), counts[start:end + 1]
        before, start = row, end + 1


def _unscreened(base: np.ndarray, log_weights: np.ndarray, counts: np.ndarray, reduce):
    """`reduce` of the reference kernel's values of every world after each
    row of `counts`, one `_blocks` block at a time: the unscreened
    computation, which both simulators' screens fall back on."""
    return np.concatenate([reduce(values) for values in _blocks(base, log_weights, counts)])


def _maxima(values: np.ndarray, inside: int) -> np.ndarray:
    """Each row's maximum over its first `inside` columns and over the
    rest, as the two columns of one array."""
    return np.column_stack([values[:, :inside].max(axis=1, initial=-math.inf),
                            values[:, inside:].max(axis=1, initial=-math.inf)])


def _doubtful(best: np.ndarray, values: np.ndarray, bound: float, gamma: float) -> np.ndarray:
    """Mask of the tie tests of `values` against `best`, one of each per
    step (see `_ties`), whose gap lies within 3E of 0,
    E = gamma * (bound + max(|best|, |value|)): those that `run_trial`
    cannot certify.  An entry at -inf gives a NaN gap, which is never
    doubtful: -inf is exact in both kernels."""
    with np.errstate(invalid="ignore"):
        tol = plausibility.TIE_TOLERANCE
        gap = best - values - tol * np.maximum(np.maximum(best, 1.0), -values)
        error = gamma * (bound + np.maximum(np.abs(best), np.abs(values)))
        return np.abs(gap) <= 3 * error


def _error_factor(outcomes: int) -> float:
    """gamma = 4 gamma_{k+1} for k `outcomes`: a matmul value V' lies within
    0.51 E of the reference kernel's, E = gamma (2B + |V'|) (see `run_trial`)."""
    terms = outcomes + 1  # k products and the base
    return 4 * terms * 2.0**-53 / (1 - terms * 2.0**-53)


def _matmul_blocks(base: np.ndarray, log_weights: np.ndarray, live: np.ndarray,
                   kept: np.ndarray, counts: np.ndarray, last: np.ndarray):
    """The matmul's values V' = base + counts @ live.T of the `kept` worlds
    (`live`: `_Shared.live_weights`) after each row of `counts`, in blocks
    of rows as `_blocks`; `last` holds the reference kernel's values of the
    kept worlds after the last row of `counts`.  The -inf pattern is the
    reference kernel's (see `run_trial`)."""
    base, live = base[kept], live[kept]
    # A world with a finite base is at -inf after the last row only through
    # a zero weight on an outcome seen by then, and is at -inf exactly from
    # the row whose counts of its zero-weight outcomes turn positive.
    dying = np.flatnonzero(last == -math.inf)
    if dying.size:
        zeros = (log_weights[kept[dying]] == -math.inf).T.astype(float)
    rows = max(1, _BLOCK_CELLS // len(kept))
    for start in range(0, len(counts), rows):
        block = counts[start:start + rows].astype(float)
        values = block @ live.T
        values += base
        if dying.size:
            values[:, dying] = np.where(block @ zeros > 0, -math.inf, values[:, dying])
        yield values


def _settled(fails: np.ndarray, horizon: int, final_argmax, trace=None):
    """Result from each step's failure flag: settled from the step after
    the last failure, when that step is within the horizon."""
    failing = np.flatnonzero(fails)
    last_failure = int(failing[-1]) + 1 if failing.size else 0
    settled = last_failure < horizon
    settle_time = last_failure + 1 if settled else None
    return TrialResult(settled, settle_time, final_argmax, trace)


def run_trial(cfg: TrialConfig, shared: _Shared | None = None) -> TrialResult:
    """Simulate one stream and report when belief settles in the ball.

    Every prefix of the stream is conditioned on at once, from cumulative
    counts, and each step decides as the kernel `condition` uses would, so
    as conditioning one observation at a time does.  A step fails
    when the most plausible world outside the ball ties the maximum.
    `run_experiment` passes `shared`, computed once for all its trials.

    The horizon is screened in blocks of `_screen_steps` steps: values are
    computed for every world only at each block's last step, and for every
    step of a block only for the worlds that could tie in it.  A world's
    value never rises from one step to the next: its log weights are at
    most 0, counts only grow, each of the kernel's terms is monotone in its
    count and round-to-nearest addition is monotone.  So inside a block a
    world is at most its value v0 before the block, and the maximum is at
    least the leader's value L at the block's end.  The tie test
    best - v <= tol * max(1, |v|, |best|) only gets harder as v falls or
    best rises (tol < 1), so a world with L - v0 > 2 * tol * max(1, |v0|,
    |L|) cannot tie anywhere in the block; the factor 2 leaves a margin of
    tol * max(...), far above the rounding of either test.  When L is -inf
    every world is kept; otherwise a world at -inf before it is dropped.
    Dropping such worlds changes no tie set, and a maximal world at any
    step is at least L before the block, so it is kept and the maxima
    inside and outside the ball decide each step as before.

    Which kernel computes which rows: every block-end row, and so `before`,
    L, the kept sets and the final argmax, comes from the reference kernel.
    The argument above is about the reference kernel's values alone: a step
    certified below decides as those values of the kept worlds would, and
    so as the unscreened row.  A step that cannot be certified is recomputed
    from every world by the reference kernel (`_unscreened`): that is the
    unscreened row, as is each row of the trace.

    The matmul computes each block of steps for the kept worlds as
    V' = base + counts @ W.T, with W the log weights whose -inf entries (zero
    weights) are set to 0; a world with a zero weight on an outcome already
    seen is then set to -inf.  The reference kernel's V is -inf exactly
    there and where base is -inf (no finite sum overflows), so both have the
    same -inf pattern, and tie tests involving -inf are decided alike.  For
    a finite cell, both V and V' are the exact X = base + sum_j c_j lw_j
    computed from the same k + 1 terms (k outcomes, each product rounded
    once, c_j exact) in some order, so each lies within gamma_{k+1} S of X,
    S = |base| + sum_j c_j |lw_j|, gamma_n = n u / (1 - n u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, Sec. 3.1
    and ch. 4; a BLAS may sum in any order and fuse multiply-adds).  As
    lw_j <= 0, S - |base| = |X - base|, so S <= 2|base| + |X| <=
    2B + |V'| + gamma_{k+1} S, B the largest finite |base| of any world, and
    |V - V'| <= 2 gamma_{k+1} (2B + |V'|) / (1 - gamma_{k+1}).  E =
    4 gamma_{k+1} (2B + |V'|) is that, doubled, but for the factor
    1 - gamma_{k+1}: the bound is below 0.51 E.  A tie test of a
    value v against a row maximum `best` decides by the sign of the gap
    best - v - tol * max(1, best, -v), which moves by at most (1 + tol)
    times the errors of v and of `best`; the maximum's error is that of the
    world at it, whose |V'| is within that error of |best'|.  With E taken
    at max(|best'|, |v'|), the two errors come to less than 1.01 E, and the
    rounding of the gap itself, a few u (|best| + |v|), is far below E.  So
    where the matmul's gap lies further than 3E from 0 (`_doubtful`), the
    reference kernel's gap has the same sign.  Each step's decision is the
    test of the best value outside the ball against the row's best; a step
    whose test is not certified is recomputed, so every decision is the
    reference kernel's.  E is about 1e-15 of the values while the tie
    tolerance is 1e-9, so a gap lies within 3E of 0 only at the edge of the
    tolerance itself, and the fallback is rare.
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

    counts = _cumulative_counts(sample_stream(cfg.truth, cfg.horizon, cfg.seed))
    best = []  # each step's best value inside the ball and outside it
    for row, _, kept, inside, block in _screen(
            shared.base_log, shared, counts,
            lambda before, leader: _ties(before, leader, 2 * plausibility.TIE_TOLERANCE)):
        best.extend(_maxima(values, inside) for values in _matmul_blocks(
            shared.base_log, shared.log_weights, shared.live_weights, kept, block, row[kept]))
    best = np.concatenate(best)
    redo = np.flatnonzero(_doubtful(best.max(axis=1), best[:, 1], shared.base_bound,
                                    _error_factor(counts.shape[1])))
    if redo.size:
        best[redo] = _unscreened(shared.base_log, shared.log_weights, counts[redo],
                                 lambda values: _maxima(values, shared.inside))
    trace = None
    if cfg.record_trace:
        trace = [shared.worlds_of(ties)
                 for values in _blocks(shared.base_log, shared.log_weights, counts)
                 for ties in _tie_mask(values)]
    # A step fails when the best world outside the ball ties the best.
    return _settled(_tie_mask(best)[:, 1], cfg.horizon, shared.worlds_of(_tie_mask(row)), trace)


#: Ball posterior mass above which the Bayesian baseline has settled.
BASELINE_THRESHOLD = 0.95

#: Nats below the block-end leader under which the baseline's screen leaves
#: a world out of a block (see `bayesian_baseline_trial`).
_BASELINE_SCREEN = 40.0


def _one_pass_mass(values: np.ndarray, top: np.ndarray, inside: int) -> np.ndarray:
    """Each row's posterior mass on its first `inside` columns from one exp
    pass, sum(e[:inside]) / sum(e) with e = exp(row - top), `top` the row's
    maximum; NaN in a row of -inf.  Overwrites `values` with e."""
    with np.errstate(invalid="ignore"):
        values -= top[:, None]
        np.exp(values, out=values)
        return values[:, :inside].sum(axis=1) / values.sum(axis=1)


def _one_pass_error(entries: int) -> float:
    """Bound on the float error of `_one_pass_mass` against the exact ball
    mass of the same values, for rows of `entries` values (derived in
    `bayesian_baseline_trial`)."""
    return 2.0**-49 * (entries + 3)


def bayesian_baseline_trial(
    cfg: TrialConfig, shared: _Shared | None = None
) -> TrialResult:
    """Bayesian learner on the same stream: uniform prior over the worlds,
    settled when the epsilon-ball's posterior mass exceeds `BASELINE_THRESHOLD`.

    Unlike `run_trial` this tolerates a truth outside the world set: the
    ball may then be empty and the learner simply never settles.

    Each step's flag is the unscreened computation's: every world's log
    posterior (the reference kernel's value from the uniform prior), the
    ball mass of that row by one exp pass from its maximum (`_one_pass_mass`),
    and a failure unless it exceeds the threshold (a NaN mass, every world at
    -inf, fails).  The horizon is screened in the blocks of `run_trial`, and
    every flag is still that one:

    1. Monotonicity.  As shown in `run_trial`, no world's value rises from
       one step to the next.  So if L is the largest value at a block's last
       step, the maximum M at each step of the block is at least L, and a
       world is at most its value v0 before the block.
    2. Dropped mass.  The reference kernel computes every world's value at
       each block's end; at the block's other steps, only the worlds with
       v0 >= fl(L - K), K = `_BASELINE_SCREEN`, are computed.  All are kept
       when L is -inf.  Values are at most 0, so with u = 2^-53,
       fl(L - K) <= L - K + u(|L| + K): a dropped world's term e^v is below
       e^(M - K + u(|L| + K)) at each step.  A maximal world is kept, so
       with d worlds dropped, the sums over all worlds exceed those over the
       kept ones by less than delta = d e^(u(|L| + K) - K) times the kept
       total, and the exact ball masses of the reference kernel's values of
       all worlds and of the kept worlds differ by at most delta.
    3. Matmul values.  Inside a block the kept worlds' values V' come from
       the matmul of `run_trial` (`_matmul_blocks`), not from the reference
       kernel, so they are not its values V bit for bit.  As shown there,
       they have the same -inf pattern, and a finite V' lies within
       c (2B + |V'|) of V, c = 2 gamma_{k+1} / (1 - gamma_{k+1}) for k
       outcomes, here with B = log n, the |prior| of n worlds.  Let top' be
       the row's largest V', h the number of kept worlds, and
       E = gamma (2B + |top'| + h), the certificate's E of `run_trial`
       (`_error_factor`) taken at |top'| + h; c (2B + |top'| + h) <= 0.51 E.
       Where expm1(2E) >= 1/2 the margin of step 5 is above 1, and no mass
       clears it.  Otherwise, values being at most 0, a value d >= 0 below
       top' has |V'| = |top'| + d and an error below e0 + c d,
       e0 = c (2B + |top'|) < 0.11.  Measured from top', its term e^-d moves
       by at most e^-d expm1(e0 + c d) <= e^-d expm1(e0) +
       e^e0 c d e^(-d (1 - c)), and d e^(-d (1 - c)) <= 1 / (e (1 - c)).
       The kept total of the terms is at least 1, the term at top', so the
       ball's sum and the total each move by at most eta times the total,
       eta = expm1(e0) + h c <= expm1(0.51 E), and the exact ball masses of
       V and V' of the kept worlds differ by at most 2 eta / (1 - eta).  By
       the convexity of expm1, eta <= 0.255 expm1(2E) < 0.13, so that is at
       most 0.6 expm1(2E).
    4. Float error (Higham, Accuracy and Stability of Numerical Algorithms,
       2002, ch. 4; Blanchard, Higham & Higham, IMA J. Numer. Anal., 2021).
       Assume numpy's exp within 4 ulp (relative error 8u), an exp in or
       below the subnormal range off by at most 2^-1074, and any order of
       summation: m terms sum within gamma_m = mu / (1 - mu) times the sum
       of their magnitudes.  Both masses come from `_one_pass_mass`, over
       the m = n values of the unscreened row or the m = h of a kept row,
       from that row's own maximum `top`.  fl(x - top) is within u|x - top|
       of x - top, so each term exp(x - top) is within
       1.01u + 8u e^(x - top) + 2^-1074 of its exact value, using
       e^-y (e^(By) - 1) <= B / (1 - B) for y >= 0, 0 <= B < 1.  The exact
       total is at least 1, the term at `top`, so (for m below 2^40) the
       ball's sum and the total each lie within a + b S of their exact value
       S, with a = 1.02 m u and b = 8u + 1.01 m u, the quotient within
       (2a + 2b) / (1 - a - b) of the exact mass, and with the division's
       rounding the error is below u (4.1 m + 17.1); `_one_pass_error(m)`,
       2^-49 (m + 3), bounds it by at least a factor 2.  Nothing adds `top`
       back after the exps, so this bound does not grow with |top|.  A ball
       whose values are all -inf has mass exactly 0.
    5. Decision.  The margin is _one_pass_error(n) for the unscreened row,
       plus _one_pass_error(h) for the kept row, plus 2 expm1(2E) for the
       matmul's values, plus 2 delta for the dropped worlds; each term is at
       least twice its bound, which absorbs the rounding of the margin and
       of the distance to the threshold.  Where the screened mass lies
       further than the margin from the threshold, the unscreened mass lies
       on the same side.  A NaN screened mass means every kept world is at
       -inf, under the matmul and so under the reference kernel, a maximal
       world among them, so the unscreened mass is NaN too: both fail, and
       the margin is infinite, so no such row goes to the fallback.
    6. Fallback.  Each other step is recomputed from every world's values
       by the unscreened computation (`_unscreened`).  The final argmax
       comes from the last step's row of every world, less its normaliser
       top + log(sum(exp(row - top))), `top` the row's maximum; a row all
       at -inf is left as it is.
    """
    shared = shared or _share(cfg)
    if cfg.horizon < 1:
        return TrialResult(False, None, frozenset())

    threshold, screen = BASELINE_THRESHOLD, _BASELINE_SCREEN
    counts = _cumulative_counts(sample_stream(cfg.truth, cfg.horizon, cfg.seed))
    worlds = len(shared.order)
    prior = np.full(worlds, -math.log(worlds))
    gamma, bound = _error_factor(counts.shape[1]), 2 * math.log(worlds)  # gamma, 2B
    masses, tops, blocks = [], [], []  # blocks: (steps, kept worlds, slack)
    for row, leader, kept, inside, block in _screen(
            prior, shared, counts, lambda before, leader: before >= leader - screen):
        dropped = worlds - kept.size
        slack = (2 * dropped * math.exp(2.0**-53 * (abs(leader) + screen) - screen)
                 if dropped else 0.0)
        for values in _matmul_blocks(prior, shared.log_weights, shared.live_weights,
                                     kept, block, row[kept]):
            tops.append(values.max(axis=1))
            masses.append(_one_pass_mass(values, tops[-1], inside))
        blocks.append((len(block), kept.size, slack))
    # Each step's margin (step 5), from its block's kept worlds and slack.
    mass, top = np.concatenate(masses), np.abs(np.concatenate(tops))
    steps, sizes, slacks = zip(*blocks)
    sizes, slack = np.repeat(sizes, steps), np.repeat(slacks, steps)
    error = gamma * (bound + top + sizes)
    margin = (_one_pass_error(worlds) + _one_pass_error(sizes)
              + 2 * np.expm1(2 * error) + slack)
    close = np.flatnonzero(np.abs(mass - threshold) <= margin)
    if close.size:
        mass[close] = _unscreened(
            prior, shared.log_weights, counts[close],
            lambda values: _one_pass_mass(values, values.max(axis=1), shared.inside))
    if leader > -math.inf:
        row = row - (leader + np.log(np.exp(row - leader).sum()))
    # NaN (every world at plausibility 0) fails, as a mass of 0 does.
    return _settled(~(mass > threshold), cfg.horizon, shared.worlds_of(_tie_mask(row)))


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
