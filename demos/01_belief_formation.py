"""Belief formation on a coin grid: from an open mind to a settled opinion.

We start with eleven candidate coin biases, rank them by entropy (the
most "noncommittal" distribution is a priori most plausible), then feed
in coin flips and watch the most plausible candidate shift.

Run with: python3 demos/01_belief_formation.py
"""

import math
from fractions import Fraction

from plausilearn import (
    ENTROPY,
    ObservationEvent,
    belief_holds,
    init_state,
    make_alphabet,
    simplex_grid,
    update_proposition,
    update_sampling,
)
from plausilearn.plausibility import argmax_worlds
from plausilearn.simplex import Proposition


def describe(model, label):
    best = argmax_worlds(model)
    names = [
        f"w(H)={model.worlds[i].weight('H')}" for i in sorted(best.members)
    ]
    print(f"{label:<28} most plausible: {', '.join(names)}")


def main():
    coin = make_alphabet(["H", "T"])
    grid = simplex_grid(coin, 10)
    model = init_state(grid, ENTROPY)

    print("=== sampling evidence (reweights, keeps all worlds) ===")
    describe(model, "no evidence")
    for heads, tails in [(3, 0), (7, 3), (35, 15), (140, 60)]:
        updated = update_sampling(model, ObservationEvent(coin, (heads, tails)))
        describe(updated, f"after {heads} heads, {tails} tails")

    print()
    print("=== higher-order information (drops worlds, keeps ranking) ===")
    biased = Proposition.of(
        i for i, w in enumerate(grid) if w.weight("H") != Fraction(1, 2)
    )
    announced = update_proposition(model, biased)
    print(f"announced 'the coin is biased': {len(announced.worlds)} worlds left")
    describe(announced, "after the announcement")

    fair_index = grid.index(
        next(w for w in grid if w.weight("H") == Fraction(1, 2))
    )
    print()
    print(
        "belief in the fair coin before:",
        belief_holds(model, Proposition.of([fair_index])),
    )


if __name__ == "__main__":
    main()
