"""Plausibility maps over candidate distributions and likelihood conditioning.

A plausibility state assigns each world a non-negative plausibility, stored
as a natural log (with -inf for plausibility 0).  Conditioning on sampling
evidence multiplies each world's plausibility by the likelihood it assigns
the evidence; in the log domain this is addition, so repeated conditioning
cannot underflow.

To make conditioning order-independent bit-for-bit, a state keeps its base
log-plausibilities together with the accumulated evidence counts and
recomputes the current values from those; integer count addition is exactly
commutative, so any conditioning order yields identical floats.  One kernel
does that recomputation for one count vector (`condition`) or for a block of
them at once (the settling simulator), in the same float order.

A state also holds its world weights exactly, as integer numerators over one
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
            if any(v < 0 for v in vals):
                raise ValueError("plausibility values must be non-negative")
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
class PlausibilityState:
    """Log-domain plausibilities for the worlds of a frame.

    `base_log` holds ln(pla(world)) for the initial plausibility function;
    `event` is the accumulated sampling evidence; `log_weights` is the
    worlds x outcomes matrix of ln(world weight).  `log_values` is always
    base_log + log-likelihood(world, event), recomputed on conditioning.
    `numerators` is the worlds x outcomes matrix of world weights times
    `denominator`, exact: int64 when every entry fits, Python ints otherwise.
    """

    worlds: tuple[MassFunction, ...]
    base_log: np.ndarray
    event: ObservationEvent
    log_values: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)
    numerators: np.ndarray = field(repr=False)
    denominator: int

    def __len__(self) -> int:
        return len(self.worlds)

    def plausibility(self, index: int) -> float:
        return math.exp(self.log_values[index])


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


def init_state(worlds, fn: PlausibilityFn) -> PlausibilityState:
    """Initial plausibility state for a world set under `fn`."""
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
    return PlausibilityState(
        worlds, base, empty_event(alphabet), base.copy(), log_weights,
        numerators, denominator,
    )


def condition(state: PlausibilityState, e: ObservationEvent) -> PlausibilityState:
    """Reweight every world by the likelihood it assigns the evidence `e`.

    Returns a fresh state; the input is unchanged.  Conditioning on e then
    e' equals conditioning on their combined counts, bit-for-bit.
    """
    if e.alphabet != state.event.alphabet:
        raise AlphabetMismatchError("event alphabet differs from state")
    combined = event_concat(state.event, e)
    values = _log_plausibilities(state.base_log, state.log_weights, combined.counts)
    return replace(state, event=combined, log_values=values)


def argmax_worlds(
    state: PlausibilityState, tolerance: float = TIE_TOLERANCE
) -> Proposition:
    """All worlds whose plausibility ties the maximum.

    When every world has plausibility 0, all worlds are returned: the
    belief quantifier then ranges over the whole frame.
    """
    mask = _tie_mask(state.log_values, tolerance)
    return Proposition.of(np.flatnonzero(mask).tolist())


def argmax_restricted(
    state: PlausibilityState,
    restriction: Proposition,
    tolerance: float = TIE_TOLERANCE,
) -> Proposition:
    """Argmax of the state among the worlds in `restriction` only."""
    within = np.zeros(len(state), dtype=bool)
    within[list(restriction.members)] = True
    best = _argmax_mask(state.log_values, within, tolerance)
    return Proposition.of(np.flatnonzero(best).tolist())


def restrict_state(state: PlausibilityState, keep: Proposition) -> PlausibilityState:
    """State over the sub-world-set `keep`, values carried over unchanged."""
    members = sorted(keep.members)
    if not members:
        raise EmptyWorldSetError("cannot restrict to an empty world set")
    worlds = tuple(state.worlds[i] for i in members)
    return PlausibilityState(
        worlds,
        state.base_log[members],
        state.event,
        state.log_values[members],
        state.log_weights[members],
        state.numerators[members],
        state.denominator,
    )
