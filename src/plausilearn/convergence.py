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
matmul computes the kept worlds; its floats may round differently, so each of
its decisions is certified against the reference kernel's by a float-error
bound, and a row it cannot certify is recomputed by the reference kernel.
The bound is derived in `run_trial`.

A Bayesian learner over the same finite world set (uniform prior, ball
posterior above `BASELINE_THRESHOLD`) is available as a paired baseline.  It
screens its horizon in the same blocks: inside a block only the worlds within
`_BASELINE_SCREEN` nats of the block-end leader before the block get a value
at every step, the mass of the others is bounded, and a step whose ball mass
lies further from the threshold than that bound plus the float error of both
computations gets the flag that computing every world would give; any other
step is recomputed from every world.  The argument is in
`bayesian_baseline_trial`.
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
    # One distance table gives both the isolation radius and the ball.
    distances = _distances(cfg.truth, cfg.worlds)
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


def _block_ends(base_log: np.ndarray, log_weights: np.ndarray, counts: np.ndarray):
    """The last step of each block of the screen over the rows of `counts`,
    with the kernel's values of every world there."""
    steps = _screen_steps(len(base_log))
    ends = np.append(np.arange(steps - 1, len(counts) - 1, steps), len(counts) - 1)
    rows = itertools.chain.from_iterable(_blocks(base_log, log_weights, counts[ends]))
    return zip(ends.tolist(), rows)


def _maxima(values: np.ndarray, inside: int):
    """Each row's maximum over its first `inside` columns and over the rest."""
    return (values[:, :inside].max(axis=1, initial=-math.inf),
            values[:, inside:].max(axis=1, initial=-math.inf))


def _doubtful(best, values, bound: float, gamma: float) -> np.ndarray:
    """Mask of the tie tests of `values` against `best` (see `_ties`) whose
    gap lies within 3E of 0, E = gamma * (bound + max(|best|, |value|)):
    those that `run_trial` cannot certify.  An entry at -inf gives a NaN
    gap, which is never doubtful: -inf is exact in both kernels."""
    with np.errstate(invalid="ignore"):
        tol = plausibility.TIE_TOLERANCE
        gap = best - values - tol * np.maximum(np.maximum(best, 1.0), -values)
        error = gamma * (bound + np.maximum(np.abs(best), np.abs(values)))
        return np.abs(gap) <= 3 * error


def _certified_blocks(shared: _Shared, kept: np.ndarray, inside: int,
                      counts: np.ndarray, last: np.ndarray, trace: bool):
    """The values of the `kept` worlds after each row of `counts` (`last`:
    the reference kernel's after its last row), in blocks as `_blocks`,
    each with its rows' maxima inside and outside the ball.  One matmul
    computes a block; each row whose step decision, or with `trace` any of
    whose tie tests, it cannot certify is recomputed by `_blocks` (see
    `run_trial`)."""
    base, live = shared.base_log[kept], shared.live_weights[kept]
    # A world with a finite base is at -inf after the last row only through
    # a zero weight on an outcome seen by then, and is at -inf exactly from
    # the row whose counts of its zero-weight outcomes turn positive.
    dying = np.flatnonzero(last == -math.inf)
    if dying.size:
        zeros = (shared.log_weights[kept[dying]] == -math.inf).T.astype(float)
    terms = live.shape[1] + 1  # k products and the base
    gamma = 4 * terms * 2.0**-53 / (1 - terms * 2.0**-53)  # E = gamma (2B + |V'|)
    rows = max(1, _BLOCK_CELLS // len(kept))
    for start in range(0, len(counts), rows):
        block = counts[start:start + rows].astype(float)
        values = block @ live.T
        values += base
        if dying.size:
            values[:, dying] = np.where(block @ zeros > 0, -math.inf, values[:, dying])
        ins, outs = _maxima(values, inside)
        best = np.maximum(ins, outs)
        doubt = _doubtful(best, outs, shared.base_bound, gamma)
        if trace:
            doubt |= _doubtful(best[:, None], values, shared.base_bound, gamma).any(axis=1)
        redo = np.flatnonzero(doubt)
        if redo.size:
            values[redo] = np.concatenate(list(
                _blocks(base, shared.log_weights[kept], counts[start + redo])))
            ins, outs = _maxima(values, inside)
        yield values, ins, outs


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
    L, the kept sets and the final argmax, comes from the reference kernel,
    as does every row below that the matmul cannot certify.  The argument
    above is about the reference kernel's values alone and is unchanged: a
    certified row decides as the reference kernel's row of the kept worlds
    would, and that row decides as the unscreened one.

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
    4 gamma_{k+1} (2B + |V'|) is at least that, doubled.  A tie test of a
    value v against a row maximum `best` decides by the sign of the gap
    best - v - tol * max(1, best, -v), which moves by at most (1 + tol)
    times the errors of v and of `best`; the maximum's error is that of the
    world at it, whose |V'| is within that error of |best'|.  With E taken
    at max(|best'|, |v'|), the two errors come to less than 1.01 E, and the
    rounding of the gap itself, a few u (|best| + |v|), is far below E.  So
    where the matmul's gap lies further than 3E from 0 (`_doubtful`), the
    reference kernel's gap has the same sign.  Each row's step decision is
    the test of the best value outside the ball against the row's best; with
    `record_trace`, every kept world's test against the row's best is
    certified too.  Any row with a test not certified is recomputed by the
    reference kernel (`_blocks`), so every decision is the reference
    kernel's.  E is about 1e-15 of the values while the tie tolerance is
    1e-9, so a gap lies within 3E of 0 only at the edge of the tolerance
    itself, and the fallback is rare.
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
    trace: list[frozenset[int]] | None = [] if cfg.record_trace else None
    best_in, best_out = [], []
    before, start = shared.base_log, 0
    for end, row in _block_ends(shared.base_log, shared.log_weights, counts):
        kept = np.flatnonzero(
            _ties(before, row.max(), 2 * plausibility.TIE_TOLERANCE))
        # `kept` is sorted, so the kept worlds of the ball come first.
        inside = np.searchsorted(kept, shared.inside)
        worlds = shared.order[kept]
        for values, ins, outs in _certified_blocks(
                shared, kept, inside, counts[start:end + 1], row[kept], trace is not None):
            best_in.append(ins)
            best_out.append(outs)
            if trace is not None:
                trace.extend(frozenset(worlds[ties].tolist()) for ties in _tie_mask(values))
        before, start = row, end + 1
    # A step fails when the best world outside the ball ties the best.
    best = np.column_stack([np.concatenate(best_in), np.concatenate(best_out)])
    return _settled([_tie_mask(best)[:, 1]], cfg.horizon,
                    shared.worlds_of(_tie_mask(row)), trace)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """ln(sum(exp(row))) of each row of `a`, with the floats of scipy
    1.17's `logsumexp(a, axis=1)`.

    Shared with scipy, operation for operation: the row's maximum `top`,
    the number t of entries equal to it, the sum r of exp(x - top) over the
    other entries, r / t where r is not 0, and log1p(r / t) + log(t) + top.
    scipy gets the top entries' terms as exp(-inf - top); here each entry
    is exponentiated once and those terms are set to 0, the same value
    wherever `top` is finite.  A row whose `top` is not finite (all -inf,
    or holding inf or NaN) gives no finite result either way; for those
    rows alone the plain ln(sum(exp(row))) stands, which is scipy's
    fallback.  A row with no entries gives -inf."""
    if a.shape[1] == 0:
        return np.full(a.shape[0], -math.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = a.max(axis=1, keepdims=True)
        is_top = a == top
        tops = is_top.sum(axis=1, dtype=a.dtype)
        terms = a - top
        np.exp(terms, out=terms)
        np.copyto(terms, 0.0, where=is_top)
        rest = terms.sum(axis=1)
        rest = np.where(rest == 0, rest, rest / tops)
        out = np.log1p(rest) + np.log(tops) + top[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


#: Ball posterior mass above which the Bayesian baseline has settled.
BASELINE_THRESHOLD = 0.95

#: Nats below the block-end leader under which the baseline's screen leaves
#: a world out of a block (see `bayesian_baseline_trial`).
_BASELINE_SCREEN = 40.0


def _ball_mass(log_post: np.ndarray, inside: int) -> np.ndarray:
    """Each row's posterior mass on its first `inside` columns:
    exp(lse(ball) - lse(row)), NaN in a row of -inf."""
    norm = _logsumexp_rows(log_post)
    with np.errstate(invalid="ignore"):
        return np.exp(_logsumexp_rows(log_post[:, :inside]) - norm)


def _full_ball_mass(prior: np.ndarray, log_weights: np.ndarray, counts: np.ndarray,
                    inside: int) -> np.ndarray:
    """`_ball_mass` of every world's values after each row of `counts`: the
    unscreened computation, which the screen falls back on."""
    return np.concatenate(
        [_ball_mass(values, inside) for values in _blocks(prior, log_weights, counts)])


def _mass_error(entries: int, top: np.ndarray) -> np.ndarray:
    """Bound on the float error of `_ball_mass` against the exact ball mass
    of the same values, for rows of `entries` values whose maximum is `top`
    (derived in `bayesian_baseline_trial`)."""
    return 2 * np.expm1(2.0**-50 * (entries * entries + 8 * entries + np.abs(top))) + 2.0**-48


def bayesian_baseline_trial(
    cfg: TrialConfig, shared: _Shared | None = None
) -> TrialResult:
    """Bayesian learner on the same stream: uniform prior over the worlds,
    settled when the epsilon-ball's posterior mass exceeds `BASELINE_THRESHOLD`.

    Unlike `run_trial` this tolerates a truth outside the world set: the
    ball may then be empty and the learner simply never settles.

    Each step's flag is the unscreened computation's: every world's log
    posterior (the kernel's value from the uniform prior), the ball mass
    `_ball_mass` of that row, and a failure unless it exceeds the threshold
    (a NaN mass, every world at -inf, fails).  The horizon is screened in
    the blocks of `run_trial`, and every flag is still that one:

    1. Monotonicity.  As shown in `run_trial`, no world's value rises from
       one step to the next.  So if L is the largest value at a block's last
       step, the maximum M at each step of the block is at least L, and a
       world is at most its value v0 before the block.
    2. Dropped mass.  Every world's value is computed at each block's end;
       at the block's other steps, only the worlds with v0 >= fl(L - K),
       K = `_BASELINE_SCREEN`, are.  All are kept when L is -inf.  Values
       are at most 0, so with u = 2^-53, fl(L - K) <= L - K + u(|L| + K): a
       dropped world's term e^v is below e^(M - K + u(|L| + K)) at each step.
       A maximal world is kept, so with d worlds dropped, the sums over all
       worlds exceed those over the kept ones by less than
       delta = d e^(u(|L| + K) - K) times the kept total, and the exact ball
       masses p (all worlds) and p' (kept worlds) of the same float values
       differ by at most delta.  The kernel computes each world's value
       alone, so the kept worlds' values are the unscreened ones.
    3. Float error (Higham, Accuracy and Stability of Numerical Algorithms,
       2002, ch. 4; Blanchard, Higham & Higham, IMA J. Numer. Anal., 2021).
       Assume numpy's exp, log and log1p within 4 ulp (relative error 8u),
       an exp in or below the subnormal range off by at most 2^-1074, and any
       order of summation: m terms sum within gamma_m = mu / (1 - mu) times
       the sum of their magnitudes.  For a row of m values with a finite
       maximum `top`, `_logsumexp_rows` forms t (the count at `top`) and
       r = sum of exp(x - top) over the others, r <= m.  fl(x - top) is
       within u|x - top| of x - top, so each exp term is within
       1.01u + 8u exp(x - top) + 2^-1074 of its exact value, using
       e^-y (e^(By) - 1) <= B / (1 - B) for y >= 0, 0 <= B < 1.  With the
       sum, r / t, log1p(r / t) and log(t) (log1p is 1-Lipschitz on
       [0, inf)), s = log(t + r) comes out within u(1.1 m^2 + 27 m);
       adding `top` rounds once more, by u(|top| + log m + ...).  The
       ball's maximum lies at most |D| + log m below `top`, where D <= 0 is
       the exact log ball mass, so the computed difference of the two
       log-sum-exps, D', is within A + B|D| of D, with
       A = 1.01u(2.2 m^2 + 57 m + 2|top|) and B = 2.01u.  Then
       |e^D' - e^D| <= expm1(A) + B / (1 - B), the final exp adds 8u, and
       `_mass_error(m, top)`, 2 expm1(2^-50 (m^2 + 8m + |top|)) + 2^-48,
       bounds the error by at least a factor 2.  The bound grows with |top| because both
       log-sum-exps add `top` before they are subtracted.  A ball whose
       values are all -inf has mass exactly 0 either way.
    4. Decision.  Both computations see the same `top`, a maximal world
       being kept.  The margin is _mass_error(n, top) for the unscreened
       row of n worlds, plus _mass_error(k, top) for the k kept worlds,
       plus 2 delta; each term is at least twice its bound, which absorbs
       the rounding of the margin and of the distance to the threshold.
       Where the screened mass lies further than the margin from the
       threshold, the unscreened mass lies on the same side.  A NaN
       screened mass means every kept world, a maximal one among them, is
       at -inf, so the unscreened mass is NaN too: both fail.
    5. Fallback.  Each other step is recomputed from every world's values
       by the unscreened computation (`_full_ball_mass`).  The final argmax
       comes from the last step's row of every world, normalised as before.
    """
    shared = shared or _share(cfg)
    if cfg.horizon < 1:
        return TrialResult(False, None, frozenset())

    threshold, screen = BASELINE_THRESHOLD, _BASELINE_SCREEN
    counts = _cumulative_counts(sample_stream(cfg.truth, cfg.horizon, cfg.seed))
    worlds = len(shared.order)
    prior = np.full(worlds, -math.log(worlds))
    fails = []
    before, start = prior, 0
    for end, row in _block_ends(prior, shared.log_weights, counts):
        leader = row.max()
        kept = np.flatnonzero(before >= leader - screen)
        dropped = worlds - kept.size
        slack = (2 * dropped * math.exp(2.0**-53 * (abs(leader) + screen) - screen)
                 if dropped else 0.0)
        # `kept` is sorted, so the kept worlds of the ball come first.
        inside = np.searchsorted(kept, shared.inside)
        for values in _blocks(prior[kept], shared.log_weights[kept], counts[start:end + 1]):
            mass = _ball_mass(values, inside)
            top = values.max(axis=1)
            margin = _mass_error(worlds, top) + _mass_error(kept.size, top) + slack
            close = np.flatnonzero(np.abs(mass - threshold) <= margin)
            if close.size:
                mass[close] = _full_ball_mass(
                    prior, shared.log_weights, counts[start + close], shared.inside)
            # NaN (every world at plausibility 0) fails, as a mass of 0 does.
            fails.append(~(mass > threshold))
            start += len(values)
        before = row
    norm = _logsumexp_rows(row[None])[0]
    last = row - norm if norm > -math.inf else row
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
