"""Finite outcome alphabets, probability mass functions and observation events.

Worlds are points on the probability simplex with exact rational coordinates,
so that linear-inequality atoms can be decided without rounding.  Likelihoods
are computed by the conditioning kernel in `plausibility`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np


class DuplicateOutcomeError(ValueError):
    """An alphabet was given the same outcome name twice."""


class WrongArityError(ValueError):
    """A vector's length does not match the alphabet size."""


class NegativeWeightError(ValueError):
    """A probability weight outside [0, 1]."""


class SumNotOneError(ValueError):
    """Mass function weights do not sum exactly to 1."""


class AlphabetMismatchError(ValueError):
    """Two objects built over different alphabets were combined."""


class UnknownOutcomeError(ValueError):
    """An outcome name that is not in the alphabet."""


@dataclass(frozen=True)
class OutcomeAlphabet:
    """An ordered, fixed set of at least two distinct outcome names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 2:
            raise WrongArityError("alphabet needs at least 2 outcomes")
        seen = set()
        for name in self.names:
            if not name:
                raise UnknownOutcomeError("empty outcome name")
            if name in seen:
                raise DuplicateOutcomeError(f"duplicate outcome {name!r}")
            seen.add(name)

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownOutcomeError(f"unknown outcome {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.names


def make_alphabet(names) -> OutcomeAlphabet:
    """Build a canonical alphabet from an ordered list of outcome names."""
    return OutcomeAlphabet(tuple(names))


@dataclass(frozen=True)
class MassFunction:
    """A point on the probability simplex over an alphabet (a possible world).

    Weights are exact rationals and must sum to exactly 1.
    """

    alphabet: OutcomeAlphabet
    weights: tuple[Fraction, ...]

    def weight(self, name: str) -> Fraction:
        return self.weights[self.alphabet.index(name)]

    def log_weights(self) -> np.ndarray:
        """Natural-log weights; zero weight maps to -inf."""
        return _weights([self]).logs[0]

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{o}: {w}" for o, w in zip(self.alphabet.names, self.weights)
        )
        return f"({pairs})"


def mass_function(alphabet: OutcomeAlphabet, weights) -> MassFunction:
    """Validate a weight vector as a simplex point over `alphabet`.

    Accepts anything `Fraction` accepts (ints, strings like "3/10",
    Fractions); floats are rejected by Fraction-exactness of the sum check
    only if they break it, so prefer rationals.
    """
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != alphabet.size:
        raise WrongArityError(
            f"expected {alphabet.size} weights, got {len(ws)}"
        )
    for w in ws:
        if w < 0 or w > 1:
            raise NegativeWeightError(f"weight {w} outside [0, 1]")
    total = sum(ws)
    if total != 1:
        raise SumNotOneError(f"weights sum to {total}, not 1")
    return MassFunction(alphabet, ws)


def simplex_grid(alphabet: OutcomeAlphabet, resolution: int) -> list[MassFunction]:
    """All mass functions with coordinates k/N, in lexicographic order.

    The result has C(N+n-1, n-1) points and is a finite stand-in for the
    full simplex as a world set.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    # Stars and bars: n - 1 bars among N + n - 1 slots split N into n
    # counts, and bar positions in lexicographic order give the counts in
    # lexicographic order.
    slots = resolution + alphabet.size - 1
    return [
        MassFunction(alphabet, tuple(
            Fraction(hi - lo - 1, resolution)
            for lo, hi in zip((-1, *bars), (*bars, slots))
        ))
        for bars in itertools.combinations(range(slots), alphabet.size - 1)
    ]


#: Largest int64: bigger weight denominators, and the model checker's dot
#: products that could pass it, use Python ints instead.
_INT64_MAX = 2**63 - 1


class _Weights(NamedTuple):
    """A world set's weights (worlds x outcomes): exact as `numerators` over
    one `denominator`, and as floats, logs and entropy terms w * log(w)."""

    numerators: np.ndarray
    denominator: int
    floats: np.ndarray
    logs: np.ndarray
    terms: np.ndarray


def _weights(worlds) -> _Weights:
    """The one place where a world weight becomes a float or a log, from a
    table over the distinct weights.  The numerators are int64 when D fits,
    Python ints otherwise.  A numerator n gives n / D, rounded once by int
    division as float of the `Fraction` is; its log is -inf at 0, and
    log(n) - log(D) where n / D underflows to 0."""
    alphabet = worlds[0].alphabet
    if any(w.alphabet is not alphabet and w.alphabet != alphabet for w in worlds):
        raise AlphabetMismatchError("mass functions over different alphabets")
    position: dict = {}  # (numerator, denominator) -> row of the table
    index = np.reshape([position.setdefault(x.as_integer_ratio(), len(position))
                        for w in worlds for x in w.weights], (len(worlds), -1))
    d = math.lcm(*{q for _, q in position})
    numerators = [p * (d // q) for p, q in position]
    floats = [n / d for n in numerators]
    logs = [math.log(f) if f else math.log(n) - math.log(d) if n else -math.inf
            for n, f in zip(numerators, floats)]
    terms = [f * g if n else 0.0 for n, f, g in zip(numerators, floats, logs)]
    exact = np.array(numerators, dtype=np.int64 if d <= _INT64_MAX else object)
    return _Weights(exact[index], d, *(np.array(t)[index] for t in (floats, logs, terms)))


def _distances(center: MassFunction, worlds, exact=None) -> np.ndarray:
    """Euclidean distance from `center` to each of `worlds`: over their
    common denominator D, each squared difference is float((c - v) / D) ** 2,
    exact until rounded once, from a table over the column's distinct values;
    the coordinates are summed left to right and the square root taken last.

    `exact`, the worlds' (numerators, denominator) of `_weights` when the
    caller has them, is not built again.  D is the lcm of the center's and
    the worlds' denominators either way, so c - v is the same integer."""
    # With the first world, so that a center over another alphabet is refused.
    own = _weights([center, *worlds[:1]])
    if not len(worlds):
        return np.zeros(0)
    numerators, denominator = exact or _weights(worlds)[:2]
    d = math.lcm(own.denominator, denominator)
    up, up_own = d // denominator, d // own.denominator
    total = np.zeros(len(worlds))
    for c, column in zip(own.numerators[0].tolist(), numerators.T.tolist()):
        table = {v: ((c * up_own - v * up) / d) ** 2 for v in set(column)}
        total += [table[v] for v in column]
    return np.sqrt(total)


def euclidean_distance(mu: MassFunction, nu: MassFunction) -> float:
    """Euclidean distance between two simplex points over the same alphabet."""
    return float(_distances(mu, [nu])[0])


@dataclass(frozen=True)
class Proposition:
    """A set of worlds, given as indices into a model's world list."""

    members: frozenset[int]

    @classmethod
    def of(cls, indices) -> "Proposition":
        return cls(frozenset(indices))

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __le__(self, other: "Proposition") -> bool:
        return self.members <= other.members


def epsilon_ball(
    center: MassFunction, eps: float, worlds: list[MassFunction]
) -> Proposition:
    """Indices of worlds strictly within distance `eps` of `center`."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return Proposition.of(np.flatnonzero(_distances(center, worlds) < eps).tolist())


@dataclass(frozen=True)
class ObservationEvent:
    """A finite multiset of observed outcomes, stored as per-outcome counts.

    Order of observations is deliberately discarded: under i.i.d. sampling
    only the counts matter.  The all-zero event is the tautological event.
    """

    alphabet: OutcomeAlphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.alphabet.size:
            raise WrongArityError("counts length must match alphabet size")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def is_empty(self) -> bool:
        return self.total == 0


def empty_event(alphabet: OutcomeAlphabet) -> ObservationEvent:
    return ObservationEvent(alphabet, (0,) * alphabet.size)


def observe(alphabet: OutcomeAlphabet, sequence) -> ObservationEvent:
    """Turn a sequence of outcome names into an observation event."""
    counts = [0] * alphabet.size
    for name in sequence:
        counts[alphabet.index(name)] += 1
    return ObservationEvent(alphabet, tuple(counts))


def parse_event(alphabet: OutcomeAlphabet, text: str) -> ObservationEvent:
    """Parse whitespace-separated outcome names, e.g. ``"H H H"``."""
    return observe(alphabet, text.split())


def event_concat(e: ObservationEvent, e2: ObservationEvent) -> ObservationEvent:
    """Combine two observation events (componentwise count sum).

    Commutative and associative; the empty event is the identity.
    """
    if e.alphabet != e2.alphabet:
        raise AlphabetMismatchError("events over different alphabets")
    return ObservationEvent(
        e.alphabet, tuple(a + b for a, b in zip(e.counts, e2.counts))
    )


@dataclass(frozen=True)
class ObservationStream:
    """A finite prefix of an i.i.d. observation stream, plus its RNG seed."""

    alphabet: OutcomeAlphabet
    outcomes: tuple[int, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.outcomes)

    def names(self) -> list[str]:
        return [self.alphabet.names[i] for i in self.outcomes]

    def prefix_event(self, length: int | None = None) -> ObservationEvent:
        """Counts of the first `length` observations (all, if None)."""
        part = self.outcomes if length is None else self.outcomes[:length]
        counts = [0] * self.alphabet.size
        for i in part:
            counts[i] += 1
        return ObservationEvent(self.alphabet, tuple(counts))


def sample_stream(truth: MassFunction, length: int, seed: int) -> ObservationStream:
    """Draw `length` i.i.d. outcomes from `truth`.

    Uses numpy's PCG64 generator (`default_rng`) seeded with `seed`;
    identical arguments give bit-identical streams.  Outcomes with
    probability 0 never occur.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    weights = _weights([truth])
    positive = np.flatnonzero(weights.numerators[0] > 0)
    probs = weights.floats[0, positive]
    probs = probs / probs.sum()
    draws = rng.choice(len(positive), size=length, p=probs)
    return ObservationStream(truth.alphabet, tuple(positive[draws].tolist()), seed)

