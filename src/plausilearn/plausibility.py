"""Plausibility maps over candidate distributions, and the model type.

A model is a set of candidate distributions (worlds) together with the
plausibility function that ranks them.  It stores each world's plausibility
as a natural log (with -inf for plausibility 0).  Conditioning on sampling
evidence multiplies each world's plausibility by the likelihood it assigns
the evidence; in the log domain this is addition, so repeated conditioning
cannot underflow.

To make conditioning order-independent bit-for-bit, a model keeps its base
log-plausibilities together with the accumulated evidence counts and
recomputes the current values from those; integer count addition is exactly
commutative, so any conditioning order yields identical floats.  One kernel
does that recomputation for one count vector (`condition`) or for a block of
them at once (the settling simulator, which certifies against it the
decisions of its faster matrix product), in the same float order; the
log-likelihood of one world (`log_likelihood`) is its one-world case.

A model also holds its world weights exactly, as integer numerators over one
common denominator, so that the model checker can decide linear atoms by
integer dot products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Mapping

import numpy as np

from .simplex import (
    AlphabetMismatchError,
    MassFunction,
    ObservationEvent,
    OutcomeAlphabet,
    Proposition,
    _Weights,
    _weights,
    empty_event,
    event_concat,
)

#: Relative tie tolerance of every argmax and belief decision.  Grid symmetry
#: produces exact mathematical ties that floating point perturbs slightly.
TIE_TOLERANCE = 1e-9


class EmptyWorldSetError(ValueError):
    """A plausibility state needs at least one world."""


class IncompleteTableError(ValueError):
    """A tabulated plausibility does not cover every world."""


def entropy_plausibility(mu: MassFunction) -> float:
    """Shannon entropy of `mu` (natural log, 0*log 0 := 0).

    Uniquely maximised by the uniform distribution, so an agent with this
    plausibility starts out believing the least informative world.
    """
    return ENTROPY.values_for(_weights([mu]))[0]


def centre_of_mass_plausibility(mu: MassFunction) -> float:
    """Product of the weights of `mu`.

    The order-equivalent exponential of the sum-of-logs "centre of mass"
    score; 0 on the simplex boundary, maximal at the uniform distribution.
    """
    return CENTRE_OF_MASS.values_for(_weights([mu]))[0]


@dataclass(frozen=True)
class PlausibilityFn:
    """A named plausibility map, or an explicit per-world table."""

    kind: str  # "entropy" | "centre_of_mass" | "tabulated"
    table: Mapping[int, float] | None = None

    def values_for(self, weights: _Weights) -> list[float]:
        """Each world's value; a named map's folds the outcome columns left
        to right."""
        if self.kind == "entropy":
            return reduce(np.subtract, weights.terms.T, 0.0).tolist()
        if self.kind == "centre_of_mass":
            return reduce(np.multiply, weights.floats.T, 1.0).tolist()
        if self.kind == "tabulated":
            assert self.table is not None
            n = len(weights.floats)
            missing = [i for i in range(n) if i not in self.table]
            if missing:
                raise IncompleteTableError(
                    f"table missing worlds {missing[:5]}"
                )
            vals = [float(self.table[i]) for i in range(n)]
            if not all(0 <= v < math.inf for v in vals):
                raise ValueError("plausibility values must be finite and non-negative")
            return vals
        raise ValueError(f"unknown plausibility kind {self.kind!r}")


ENTROPY = PlausibilityFn("entropy")
CENTRE_OF_MASS = PlausibilityFn("centre_of_mass")


def tabulated(values) -> PlausibilityFn:
    """Tabulated plausibility from a world-index -> value mapping or list."""
    if not isinstance(values, Mapping):
        values = {i: v for i, v in enumerate(values)}
    return PlausibilityFn("tabulated", {int(k): float(v) for k, v in values.items()})


@dataclass(frozen=True)
class Model:
    """A probabilistic plausibility model: worlds ranked by the plausibility
    function `fn`, in the log domain.

    `base_log` holds ln(fn(world)); `event` is the accumulated sampling
    evidence; `log_weights` is the worlds x outcomes matrix of ln(world
    weight).  `log_values` is always base_log + log-likelihood(world, event),
    recomputed on conditioning.  `numerators` over `denominator` are the exact
    weights (see `simplex._Weights`).  Build one with `init_state`.

    Two models are equal when their worlds, `fn` and evidence are: the
    arrays are derived from those and take no part in `==`.
    """

    worlds: tuple[MassFunction, ...]
    fn: PlausibilityFn
    base_log: np.ndarray = field(compare=False)
    event: ObservationEvent
    log_values: np.ndarray = field(repr=False, compare=False)
    log_weights: np.ndarray = field(repr=False, compare=False)
    numerators: np.ndarray = field(repr=False, compare=False)
    denominator: int

    @property
    def alphabet(self) -> OutcomeAlphabet:
        """The outcome alphabet; each outcome's valuation is its cylinder
        event, which the i.i.d. assumption makes position-free."""
        return self.event.alphabet

    def __len__(self) -> int:
        return len(self.worlds)


# The kernel and the tie test are private so that a caller's time in them is
# charged to the caller by per-function tracing (see perfbench/README.md).


def _log_plausibilities(
    base_log: np.ndarray, log_weights: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """base_log plus each world's log-likelihood of `counts`: one count
    vector (outcomes,) or a block of them (rows x outcomes).  Columns are
    added left to right whatever their number, and zero counts are left out
    (-inf * 0 is NaN), so each row is bit-identical to conditioning on its
    counts alone."""
    counts = np.asarray(counts)
    total = np.zeros(counts.shape[:-1] + base_log.shape)
    term = np.empty_like(total)
    with np.errstate(invalid="ignore"):
        for j in range(counts.shape[-1]):
            c = counts[..., j, None]
            np.multiply(log_weights[:, j], c, out=term)
            np.add(total, term, out=total, where=c > 0)
    return np.add(total, base_log, out=total)


def _ties(values: np.ndarray, best, tolerance: float) -> np.ndarray:
    """Mask of the entries of `values` that tie `best` (broadcast against
    them) within the relative `tolerance`, or exceed it; all True where
    `best` is -inf."""
    # The test is |v - best| <= tol * max(1, |v|, |best|); for v <= best,
    # |v - best| is best - v and max(|v|, |best|) is max(-v, best), exactly.
    # For v > best the left side is negative, so the test holds.
    with np.errstate(invalid="ignore"):  # -inf - -inf where best is -inf
        ties = (values > -math.inf) & (
            best - values <= tolerance * np.maximum(np.maximum(best, 1.0), -values)
        )
    return ties | (best == -math.inf)


def _tie_mask(values: np.ndarray) -> np.ndarray:
    """Row-wise mask of the entries within `TIE_TOLERANCE` of their row's
    maximum; all True in a row of -inf, where every world is maximal."""
    return _ties(values, values.max(axis=-1, keepdims=True), TIE_TOLERANCE)


def _argmax_mask(values: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Mask of the worlds in the mask `within` whose value ties the maximum
    over `within`; all False when `within` is."""
    return _tie_mask(np.where(within, values, -math.inf)) & within


def _float_counts(e: ObservationEvent) -> np.ndarray:
    """The counts of `e` as the kernel takes them: float64, the type an int64
    count is cast to in the multiply, so counts past int64 work."""
    try:
        return np.array(e.counts, dtype=float)
    except OverflowError:
        raise ValueError("an observation count exceeds the float range") from None


def init_state(worlds, fn: PlausibilityFn) -> Model:
    """The model of a world set under `fn`, before any evidence.  The
    weights, exact and as logs, and the named maps' values all come from
    one table over the distinct weights (`simplex._weights`)."""
    worlds = tuple(worlds)
    if not worlds:
        raise EmptyWorldSetError("world set must be non-empty")
    weights = _weights(worlds)
    base = np.array(
        [math.log(v) if v > 0 else -math.inf for v in fn.values_for(weights)]
    )
    return Model(
        worlds, fn, base, empty_event(worlds[0].alphabet), base.copy(),
        weights.logs, weights.numerators, weights.denominator,
    )


def condition(model: Model, e: ObservationEvent) -> Model:
    """Reweight every world by the likelihood it assigns the evidence `e`.

    Returns a fresh model; the input is unchanged.  Conditioning on e then
    e' equals conditioning on their combined counts, bit-for-bit.
    """
    combined = event_concat(model.event, e)
    counts = _float_counts(combined)
    values = _log_plausibilities(model.base_log, model.log_weights, counts)
    return replace(model, event=combined, log_values=values)


def log_likelihood(mu: MassFunction, e: ObservationEvent) -> float:
    """Log of the i.i.d. probability `mu` assigns to the observations in `e`,
    by the kernel's one-world case: zero counts add nothing even at weight 0,
    and a positive count at weight 0 gives -inf."""
    if mu.alphabet != e.alphabet:
        raise AlphabetMismatchError("mass function and event alphabets differ")
    log_weights = mu.log_weights()[None]
    return float(_log_plausibilities(np.zeros(1), log_weights, _float_counts(e))[0])


def argmax_worlds(model: Model) -> Proposition:
    """All worlds whose plausibility ties the maximum.

    When every world has plausibility 0, all worlds are returned: the
    belief quantifier then ranges over the whole model.
    """
    return Proposition.of(np.flatnonzero(_tie_mask(model.log_values)).tolist())


def _members(model: Model, p: Proposition) -> list[int]:
    """The members of `p` in order, each checked to index a world of `model`."""
    members = sorted(p.members)
    for i in members[:1] + members[-1:]:  # the least and the greatest
        if not 0 <= i < len(model):
            raise ValueError(f"world index {i} is not in a model of {len(model)} worlds")
    return members


def argmax_restricted(model: Model, restriction: Proposition) -> Proposition:
    """Argmax of the model among the worlds in `restriction` only."""
    within = np.zeros(len(model), dtype=bool)
    within[_members(model, restriction)] = True
    best = _argmax_mask(model.log_values, within)
    return Proposition.of(np.flatnonzero(best).tolist())


def restrict_state(model: Model, keep: Proposition) -> Model:
    """Model over the sub-world-set `keep`, values carried over unchanged.

    A tabulated plausibility is renumbered along with the worlds, so the
    restricted model's `fn` still gives each of its worlds its value."""
    members = _members(model, keep)
    if not members:
        raise EmptyWorldSetError("cannot restrict to an empty world set")
    fn = model.fn
    if fn.kind == "tabulated":
        fn = tabulated([fn.table[i] for i in members])
    return Model(
        tuple(model.worlds[i] for i in members),
        fn,
        model.base_log[members],
        model.event,
        model.log_values[members],
        model.log_weights[members],
        model.numerators[members],
        model.denominator,
    )
