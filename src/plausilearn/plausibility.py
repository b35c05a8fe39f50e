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
them at once (the settling simulator), in the same float order.

A model also holds its world weights exactly, as integer numerators over one
common denominator, so that the model checker can decide linear atoms by
integer dot products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .simplex import (
    AlphabetMismatchError,
    MassFunction,
    ObservationEvent,
    OutcomeAlphabet,
    Proposition,
    empty_event,
    event_concat,
)

#: Relative tie tolerance for argmax extraction.  Grid symmetry produces
#: exact mathematical ties that floating point perturbs slightly.
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
    total = 0.0
    for w in mu.weights:
        if w > 0:
            total -= float(w) * math.log(w)
    return total


def centre_of_mass_plausibility(mu: MassFunction) -> float:
    """Product of the weights of `mu`.

    The order-equivalent exponential of the sum-of-logs "centre of mass"
    score; 0 on the simplex boundary, maximal at the uniform distribution.
    """
    total = 1.0
    for w in mu.weights:
        total *= float(w)
    return total


@dataclass(frozen=True)
class PlausibilityFn:
    """A named plausibility map, or an explicit per-world table."""

    kind: str  # "entropy" | "centre_of_mass" | "tabulated"
    table: Mapping[int, float] | None = None

    def values_for(self, worlds: tuple[MassFunction, ...]) -> list[float]:
        if self.kind == "entropy":
            return [entropy_plausibility(w) for w in worlds]
        if self.kind == "centre_of_mass":
            return [centre_of_mass_plausibility(w) for w in worlds]
        if self.kind == "tabulated":
            assert self.table is not None
            missing = [i for i in range(len(worlds)) if i not in self.table]
            if missing:
                raise IncompleteTableError(
                    f"table missing worlds {missing[:5]}"
                )
            vals = [float(self.table[i]) for i in range(len(worlds))]
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
    recomputed on conditioning.  `numerators` is the worlds x outcomes matrix
    of world weights times `denominator`, exact: int64 when every entry fits,
    Python ints otherwise.  Build one with `init_state`.

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


#: Largest int64: bigger weight denominators, and the model checker's dot
#: products that could pass it, use Python ints instead.
_INT64_MAX = 2**63 - 1


def _tie_mask(values: np.ndarray, tolerance: float = TIE_TOLERANCE) -> np.ndarray:
    """Row-wise mask of the entries that tie their row's maximum; all True
    in a row of -inf, where every world is maximal."""
    best = values.max(axis=-1, keepdims=True)
    # The test is |v - best| <= tolerance * max(1, |v|, |best|); as v <= best,
    # |v - best| is best - v and max(|v|, |best|) is max(-v, best), exactly.
    with np.errstate(invalid="ignore"):  # -inf - -inf in a row of -inf
        ties = (values > -math.inf) & (
            best - values <= tolerance * np.maximum(np.maximum(best, 1.0), -values)
        )
    return ties | (best == -math.inf)


def _argmax_mask(
    values: np.ndarray, within: np.ndarray, tolerance: float = TIE_TOLERANCE
) -> np.ndarray:
    """Mask of the worlds in the mask `within` whose value ties the maximum
    over `within`; all False when `within` is."""
    best = np.zeros(len(values), dtype=bool)
    if within.any():
        best[within] = _tie_mask(values[within], tolerance)
    return best


def init_state(worlds, fn: PlausibilityFn) -> Model:
    """The model of a world set under `fn`, before any evidence."""
    worlds = tuple(worlds)
    if not worlds:
        raise EmptyWorldSetError("world set must be non-empty")
    alphabet = worlds[0].alphabet
    for w in worlds:
        if w.alphabet != alphabet:
            raise AlphabetMismatchError("worlds over different alphabets")
    base = np.array(
        [math.log(v) if v > 0 else -math.inf for v in fn.values_for(worlds)]
    )
    # Every weight as (numerator, denominator), row by row.  math.log of a
    # Fraction takes the log of numerator / denominator, so the log-weight
    # matrix is the one MassFunction.log_weights gives, built as one array.
    ratios = [x.as_integer_ratio() for w in worlds for x in w.weights]
    shape = (len(worlds), alphabet.size)
    log_weights = np.array(
        [math.log(n / d) if n else -math.inf for n, d in ratios]
    ).reshape(shape)
    denominator = math.lcm(*{d for _, d in ratios})
    numerators = np.array(
        [n * (denominator // d) for n, d in ratios],
        dtype=np.int64 if denominator <= _INT64_MAX else object,
    ).reshape(shape)
    return Model(
        worlds, fn, base, empty_event(alphabet), base.copy(), log_weights,
        numerators, denominator,
    )


def condition(model: Model, e: ObservationEvent) -> Model:
    """Reweight every world by the likelihood it assigns the evidence `e`.

    Returns a fresh model; the input is unchanged.  Conditioning on e then
    e' equals conditioning on their combined counts, bit-for-bit.
    """
    if e.alphabet != model.alphabet:
        raise AlphabetMismatchError("event alphabet differs from model")
    combined = event_concat(model.event, e)
    values = _log_plausibilities(model.base_log, model.log_weights, combined.counts)
    return replace(model, event=combined, log_values=values)


def argmax_worlds(model: Model, tolerance: float = TIE_TOLERANCE) -> Proposition:
    """All worlds whose plausibility ties the maximum.

    When every world has plausibility 0, all worlds are returned: the
    belief quantifier then ranges over the whole model.
    """
    mask = _tie_mask(model.log_values, tolerance)
    return Proposition.of(np.flatnonzero(mask).tolist())


def argmax_restricted(
    model: Model, restriction: Proposition, tolerance: float = TIE_TOLERANCE
) -> Proposition:
    """Argmax of the model among the worlds in `restriction` only."""
    within = np.zeros(len(model), dtype=bool)
    within[list(restriction.members)] = True
    best = _argmax_mask(model.log_values, within, tolerance)
    return Proposition.of(np.flatnonzero(best).tolist())


def restrict_state(model: Model, keep: Proposition) -> Model:
    """Model over the sub-world-set `keep`, values carried over unchanged.

    A tabulated plausibility is renumbered along with the worlds, so the
    restricted model's `fn` still gives each of its worlds its value."""
    members = sorted(keep.members)
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
