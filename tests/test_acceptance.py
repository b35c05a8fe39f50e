"""End-to-end acceptance gate.

Each test covers one headline capability, checks it at an explicit
tolerance and runtime budget, and prints a single PASS/FAIL line so the
whole gate can be read off a `pytest -v -s` run at a glance.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from plausilearn import (
    ENTROPY,
    TrialConfig,
    belief_holds,
    condition,
    init_state,
    knowledge_holds,
    make_alphabet,
    mass_function,
    observe,
    parse,
    print_formula,
    run_experiment,
    simplex_grid,
    tabulated,
    update_proposition,
    update_sampling,
)
from plausilearn.logic import (
    Not,
    axiom_suite,
    belief,
    random_formula,
    random_model,
    valid_in_model,
)
from plausilearn.plausibility import argmax_worlds
from plausilearn.simplex import ObservationEvent, Proposition


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def best_of_three(fn):
    """Best wall-clock time of three runs, after one warmup call."""
    fn()
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_criterion_1_conditional_ordering():
    coin = make_alphabet(["H", "T"])
    worlds = [
        mass_function(coin, [Fraction(3, 4), Fraction(1, 4)]),
        mass_function(coin, [Fraction(4, 5), Fraction(1, 5)]),
        mass_function(coin, [Fraction(9, 10), Fraction(1, 10)]),
    ]
    event = observe(coin, ["H", "H", "H"])
    state = init_state(worlds, ENTROPY)

    conditioned = condition(state, event)
    values = [math.exp(v) for v in conditioned.log_values]
    direct = [
        -sum(float(w) * math.log(float(w)) for w in mu.weights if w > 0)
        * float(mu.weight("H")) ** 3
        for mu in worlds
    ]
    ordered = values[0] < values[1] > values[2]
    matches = all(
        got == pytest.approx(want, rel=1e-12)
        for got, want in zip(values, direct)
    )
    elapsed = best_of_three(lambda: condition(state, event))
    report(
        1,
        ordered and matches and elapsed < 1e-3,
        f"values={[round(v, 5) for v in values]}, {elapsed * 1e6:.0f}us",
    )


def test_criterion_2_initial_belief():
    coin = make_alphabet(["H", "T"])
    fair = mass_function(coin, [Fraction(1, 2), Fraction(1, 2)])
    outcomes = []
    for resolution in (2, 4, 10, 20):
        grid = simplex_grid(coin, resolution)
        model = init_state(grid, ENTROPY)
        outcomes.append(
            belief_holds(model, Proposition.of([grid.index(fair)]))
        )
    grid = simplex_grid(coin, 10)
    model = init_state(grid, ENTROPY)
    target = Proposition.of([grid.index(fair)])
    elapsed = best_of_three(lambda: belief_holds(model, target))
    report(
        2,
        all(outcomes) and elapsed < 1e-3,
        f"grids N=2,4,10,20 all believe the fair coin, {elapsed * 1e6:.0f}us",
    )


def test_criterion_3_order_independence():
    coin = make_alphabet(["H", "T"])
    grid = simplex_grid(coin, 8)
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    all_equal = True
    for _ in range(1000):
        state = init_state(grid, tabulated(rng.uniform(0.01, 5.0, len(grid))))
        e1 = ObservationEvent(coin, tuple(int(c) for c in rng.integers(0, 30, 2)))
        e2 = ObservationEvent(coin, tuple(int(c) for c in rng.integers(0, 30, 2)))
        forward = condition(condition(state, e1), e2).log_values
        backward = condition(condition(state, e2), e1).log_values
        batch = condition(
            state,
            ObservationEvent(
                coin, tuple(a + b for a, b in zip(e1.counts, e2.counts))
            ),
        ).log_values
        if not (
            np.array_equal(forward, backward) and np.array_equal(forward, batch)
        ):
            all_equal = False
            break
    elapsed = time.perf_counter() - start
    report(
        3,
        all_equal and elapsed < 1.0,
        f"1000 triples bit-identical, {elapsed:.2f}s",
    )


def test_criterion_4_likelihood_maximizer():
    start = time.perf_counter()
    checked = 0
    ok = True
    for n in (2, 3):
        alphabet = make_alphabet([f"o{i}" for i in range(n)])
        for resolution in (4, 8, 12):
            grid = simplex_grid(alphabet, resolution)
            flat = tabulated([1.0] * len(grid))
            interior = [g for g in grid if all(w > 0 for w in g.weights)]
            for p in interior:
                for m in (10, 100):
                    counts = tuple(
                        m * w.numerator * (resolution // w.denominator)
                        for w in p.weights
                    )
                    state = condition(
                        init_state(grid, flat), ObservationEvent(alphabet, counts)
                    )
                    got = argmax_worlds(state).members
                    # brute force: maximize the log-likelihood directly
                    scores = [
                        sum(
                            c * math.log(float(w))
                            for c, w in zip(counts, g.weights)
                            if c > 0
                        )
                        if all(w > 0 or c == 0 for c, w in zip(counts, g.weights))
                        else -math.inf
                        for g in grid
                    ]
                    best = max(scores)
                    brute = {i for i, s in enumerate(scores) if s == best}
                    checked += 1
                    if not (got == brute == {grid.index(p)}):
                        ok = False
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 5.0, f"{checked} cases exact, {elapsed:.2f}s")


def test_criterion_5_axiom_suite():
    start = time.perf_counter()
    report_clean = axiom_suite(trials=500, seed=7)
    elapsed = time.perf_counter() - start
    mutated = axiom_suite(trials=25, seed=7, skip_relativization=True)
    ok = (
        report_clean.ok
        and all(n == 500 for n in report_clean.checked.values())
        and len(mutated.counterexamples) >= 1
        and elapsed < 60.0
    )
    report(
        5,
        ok,
        f"{sum(report_clean.checked.values())} checks clean, "
        f"mutation found {len(mutated.counterexamples)} counterexamples, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_belief_consistency():
    rng = random.Random(2025)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        model = random_model(rng)
        phi = random_formula(rng, model.alphabet, 2)
        if valid_in_model(model, belief(phi)) and valid_in_model(
            model, belief(Not(phi))
        ):
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        violations == 0 and elapsed < 30.0,
        f"1000 models, {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_7_three_world_settling():
    coin = make_alphabet(["H", "T"])
    worlds = tuple(
        mass_function(coin, [Fraction(k, 10), Fraction(10 - k, 10)])
        for k in (3, 5, 7)
    )
    truth = worlds[2]
    cfg = TrialConfig(
        worlds=worlds,
        plausibility=tabulated([1.0, 1.0, 1.0]),
        truth=truth,
        horizon=500,
        seed=0,
    )
    start = time.perf_counter()
    summary = run_experiment(cfg, trials=200, base_seed=77)
    elapsed = time.perf_counter() - start
    settled_exact = all(
        r.final_argmax == frozenset({2})
        for r in summary.trial_results
        if r.settled
    )
    report(
        7,
        summary.settle_fraction >= 0.99 and settled_exact and elapsed < 5.0,
        f"settle_fraction={summary.settle_fraction:.3f}, {elapsed:.2f}s",
    )


def test_criterion_8_grid_settling_and_refinement():
    urn = make_alphabet(["R", "B", "G"])
    start = time.perf_counter()

    def grid_cfg(resolution, truth_weights, horizon):
        grid = simplex_grid(urn, resolution)
        truth = mass_function(urn, truth_weights)
        return TrialConfig(
            worlds=tuple(grid),
            plausibility=ENTROPY,
            truth=truth,
            horizon=horizon,
            seed=0,
            epsilon=0.15,
        )

    truth10 = [Fraction(5, 10), Fraction(3, 10), Fraction(2, 10)]
    frac_3000 = run_experiment(
        grid_cfg(10, truth10, 3000), trials=200, base_seed=11
    ).settle_fraction
    frac_10000 = run_experiment(
        grid_cfg(10, truth10, 10000), trials=200, base_seed=11
    ).settle_fraction

    # nested-grid refinement: the same interior truth on N = 5, 10, 20
    truth_ref = [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
    refine = [
        run_experiment(
            grid_cfg(n, truth_ref, 3000), trials=50, base_seed=13
        ).settle_fraction
        for n in (5, 10, 20)
    ]
    elapsed = time.perf_counter() - start
    ok = (
        frac_3000 >= 0.95
        and frac_10000 >= frac_3000
        and all(f >= refine[0] - 0.05 for f in refine[1:])
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"settle_fraction {frac_3000:.3f}@3000 -> {frac_10000:.3f}@10000, "
        f"refinement N=5,10,20: {[round(f, 2) for f in refine]}, {elapsed:.1f}s",
    )


def test_criterion_9_parser_roundtrip():
    rng = random.Random(99)
    start = time.perf_counter()
    failures = 0
    for i in range(10_000):
        alphabet = make_alphabet(("H", "T") if i % 2 else ("R", "B", "G"))
        ast = random_formula(rng, alphabet, max_depth=5)
        if parse(print_formula(ast), alphabet) != ast:
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        9,
        failures == 0 and elapsed < 10.0,
        f"10000 formulas round-trip, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_10_update_contract():
    rng = random.Random(314)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        model = random_model(rng)
        counts = tuple(rng.randint(0, 4) for _ in model.alphabet.names)
        sampled = update_sampling(
            model, ObservationEvent(model.alphabet, counts)
        )
        if sampled.worlds != model.worlds:
            ok = False
        members = [
            i for i in range(len(model.worlds)) if rng.random() < 0.6
        ] or [0]
        announced = update_proposition(model, Proposition.of(members))
        survivors = Proposition.of(range(len(announced.worlds)))
        if not knowledge_holds(announced, survivors):
            ok = False
        if [announced.worlds[i] for i in range(len(members))] != [
            model.worlds[i] for i in members
        ]:
            ok = False
    elapsed = time.perf_counter() - start
    report(10, ok and elapsed < 10.0, f"500 models, {elapsed:.1f}s")
