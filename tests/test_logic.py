import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plausilearn import (
    ENTROPY,
    Proposition,
    argmax_worlds,
    axiom_suite,
    check,
    condition,
    extension,
    init_state,
    knowledge_holds,
    observe,
    parse,
    print_formula,
    satisfies,
    simplex_grid,
    update_proposition,
    update_sampling,
    valid_in_model,
)
from plausilearn import logic
from plausilearn.logic import (
    TOP,
    And,
    BelCond,
    BelObs,
    DynAnn,
    DynObs,
    K,
    LinIneq,
    Not,
    Or,
    ParseError,
    Top,
    belief,
    iff,
    implies,
    random_atom,
    random_formula,
    random_model,
)
from plausilearn.plausibility import argmax_restricted, tabulated
from plausilearn.simplex import UnknownOutcomeError, mass_function


def lin(coeffs, bound):
    return LinIneq(tuple((Fraction(c), o) for c, o in coeffs), Fraction(bound))


W_H_HALF = "w(H) >= 1/2"
W_T_HALF = "w(T) >= 1/2"


class TestParser:
    """One golden test per grammar production."""

    def test_top(self, coin):
        assert parse("T", coin) == TOP

    def test_lin_ge(self, coin):
        assert parse(W_H_HALF, coin) == lin([(1, "H")], Fraction(1, 2))

    def test_lin_le_desugars(self, coin):
        assert parse("w(H) <= 1/2", coin) == lin([(-1, "H")], Fraction(-1, 2))

    def test_lin_eq_desugars(self, coin):
        got = parse("w(H) = 1/2", coin)
        assert got == And(
            lin([(1, "H")], Fraction(1, 2)), lin([(-1, "H")], Fraction(-1, 2))
        )

    def test_lin_strict(self, coin):
        assert parse("w(H) > 0", coin) == Not(lin([(-1, "H")], 0))
        assert parse("w(H) < 1", coin) == Not(lin([(1, "H")], 1))

    def test_lin_sum_with_coefficients(self, urn):
        got = parse("2 * w(R) - w(B) >= 1/3", urn)
        assert got == lin([(2, "R"), (-1, "B")], Fraction(1, 3))

    def test_leading_minus(self, coin):
        assert parse("-w(H) >= -1", coin) == lin([(-1, "H")], -1)

    def test_decimal_bound_is_exact(self, coin):
        assert parse("w(H) >= 0.55", coin) == lin([(1, "H")], Fraction(11, 20))

    def test_negation(self, coin):
        assert parse("~T", coin) == Not(TOP)

    def test_and_or_precedence(self, coin):
        a, b, c = lin([(1, "H")], "1/2"), lin([(1, "T")], "1/2"), TOP
        cases = {
            "T & ~T | T": Or(And(TOP, Not(TOP)), TOP),
            f"{W_H_HALF} | {W_T_HALF} & T": Or(a, And(b, c)),
            f"{W_H_HALF} & {W_T_HALF} | T": Or(And(a, b), c),
            f"{W_H_HALF} | {W_T_HALF} | T": Or(Or(a, b), c),
            f"{W_H_HALF} & {W_T_HALF} & T": And(And(a, b), c),
            f"{W_H_HALF} -> {W_T_HALF} | T": implies(a, Or(b, c)),
        }
        for text, want in cases.items():
            assert parse(text, coin) == want, text

    def test_implication_desugars(self, coin):
        assert parse("T -> ~T", coin) == implies(TOP, Not(TOP))

    def test_knowledge(self, coin):
        assert parse(f"K ({W_H_HALF})", coin) == K(lin([(1, "H")], Fraction(1, 2)))

    def test_simple_belief(self, coin):
        assert parse("B T", coin) == belief(TOP)

    def test_belief_conditional_formula(self, coin):
        got = parse(f"B(T | {W_H_HALF})", coin)
        assert got == BelCond(TOP, lin([(1, "H")], Fraction(1, 2)))

    def test_belief_conditional_obslist(self, coin):
        assert parse("B(T | H,H,T)", coin) == BelObs(TOP, ("H", "H", "T"))

    def test_belief_of_parenthesised_disjunction(self, coin):
        got = parse("B ((T | ~T))", coin)
        assert got == belief(Or(TOP, Not(TOP)))

    def test_box_observation(self, coin):
        assert parse("[H,T] B T", coin) == DynObs(("H", "T"), belief(TOP))

    def test_box_announcement(self, coin):
        got = parse(f"[{W_H_HALF}] B T", coin)
        assert got == DynAnn(lin([(1, "H")], Fraction(1, 2)), belief(TOP))

    def test_bare_outcome_in_box_is_observation(self, coin):
        assert parse("[H] T", coin) == DynObs(("H",), TOP)

    def test_outcome_named_b_still_works(self, urn):
        # "B" is both an operator and an urn outcome; position disambiguates
        assert parse("[B] w(B) >= 0", urn) == DynObs(("B",), lin([(1, "B")], 0))
        assert parse("B(T | B,B)", urn) == BelObs(TOP, ("B", "B"))

    def test_non_ascii_digits_are_numbers(self, coin):
        assert parse("w(H) >= ٣/٤", coin) == lin([(1, "H")], Fraction(3, 4))

    def test_1000_parentheses(self, coin):
        f = parse("(" * 1000 + "T" + ")" * 1000, coin)
        assert f == TOP and print_formula(f) == "T"
        model = init_state(simplex_grid(coin, 10), ENTROPY)
        assert extension(model, f).members == set(range(11))

    def test_10000_negations_round_trip(self, coin):
        text = "~" * 10_000 + "T"
        assert print_formula(parse(text, coin)) == text
        negations = TOP
        for _ in range(10_000):
            negations = Not(negations)
        assert print_formula(negations) == text


class TestParseErrors:
    def test_reports_position(self, coin):
        with pytest.raises(ParseError) as err:
            parse("w(H) >= ", coin)
        assert err.value.position == 8
        assert "INT" in err.value.expected

    def test_trailing_input(self, coin):
        with pytest.raises(ParseError, match="trailing"):
            parse("T T", coin)

    def test_unknown_outcome(self, coin):
        with pytest.raises(UnknownOutcomeError):
            parse("w(X) >= 0", coin)

    def test_garbage_character(self, coin):
        with pytest.raises(ParseError):
            parse("T @ T", coin)

    def test_missing_close_paren(self, coin):
        with pytest.raises(ParseError) as err:
            parse("(T", coin)
        assert ")" in err.value.expected

    def test_pinned_corpus(self, coin):
        """Every outcome of parsing 5,000 seeded strings of keywords,
        outcomes (X unknown), operators, numbers, garbage and blanks, pinned
        as a digest: the AST, or the error with its position and expected set."""
        pieces = [
            "T", "K", "B", "B(", "w", "w(", "H", "T", "X",
            "->", ">=", "<=", "=", ">", "<", "~", "&", "|", "(", ")", "[", "]",
            ",", "*", "+", "-", "/",
            "1", "0", "1.5", "3/0", "1.", "٣", "@", "é", " ", "\t",
        ]
        rng = random.Random(0)
        lines = []
        for _ in range(5000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 9)))
            try:
                result = repr(parse(text, coin))
            except ParseError as err:
                result = f"{err} {err.position} {sorted(err.expected)}"
            except UnknownOutcomeError as err:
                result = str(err)
            lines.append(f"{text!r} {result}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "99f508932225b3f201356947f2284aa6160791d5a792c9cfb31ca8c5b970928c"
        )


class TestPrinter:
    @pytest.mark.parametrize(
        "text",
        [
            "T",
            "w(H) >= 1/2",
            "~w(H) >= 0",  # prints with parens around the atom
            "K (w(H) >= 1)",
            "B T",
            "B(T | H,H)",
            "B(w(H) >= 1/2 | w(T) >= 1/2)",
            "[H,T] T",
            "[w(H) >= 1] K T",
            "T & T | T -> T",
            "w(H) >= 1/2 | w(T) >= 1/2 & T",
            "w(H) >= 1/2 & w(T) >= 1/2 | T",
            "w(H) >= 1/2 | w(T) >= 1/2 | T",
            "w(H) >= 1/2 & w(T) >= 1/2 & T",
            "w(H) >= 1/2 -> w(T) >= 1/2 | T",
        ],
    )
    def test_roundtrip_examples(self, coin, text):
        ast = parse(text, coin)
        assert parse(print_formula(ast), coin) == ast

    def test_disjunction_under_belief_prints_safely(self, coin):
        ast = belief(Or(TOP, TOP))
        assert print_formula(ast) == "B ((T | T))"
        assert parse(print_formula(ast), coin) == ast

    def test_top_announcement_prints_safely(self, coin):
        ast = DynAnn(TOP, TOP)
        assert print_formula(ast) == "[(T)] T"
        assert parse(print_formula(ast), coin) == ast

    @pytest.mark.parametrize(
        "alphabet_names",
        # The last three name outcomes like keywords: T, K, B and w.
        [("H", "T"), ("R", "B", "G"), ("T", "F"), ("K", "B"), ("w", "x")],
    )
    def test_roundtrip_fuzz(self, alphabet_names):
        from plausilearn import make_alphabet

        rng = random.Random(7)
        al = make_alphabet(alphabet_names)
        for _ in range(2000):
            ast = random_formula(rng, al, max_depth=4)
            assert parse(print_formula(ast), al) == ast

    def test_random_formulas_pinned(self):
        """The generator's draws, in their order, pinned as a digest of the
        printed formulas: seeded runs of the suite depend on them."""
        from plausilearn import make_alphabet

        texts = []
        for names in [("H", "T"), ("R", "B", "G")]:
            rng = random.Random(7)
            al = make_alphabet(names)
            texts += [print_formula(random_formula(rng, al, 3)) for _ in range(300)]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest.startswith("3decc3c9a1bbc4ee")

    @settings(max_examples=200)
    @given(seed=st.integers(0, 10**9), depth=st.integers(0, 4))
    def test_roundtrip_property(self, seed, depth):
        from plausilearn import make_alphabet

        rng = random.Random(seed)
        al = make_alphabet(("H", "T"))
        ast = random_formula(rng, al, depth)
        assert parse(print_formula(ast), al) == ast


class TestSemantics:
    def entropy_model(self, alphabet, resolution):
        return init_state(simplex_grid(alphabet, resolution), ENTROPY)

    def test_extension_of_lin(self, coin):
        model = self.entropy_model(coin, 10)
        ext = extension(model, parse(W_H_HALF, coin))
        assert ext.members == {5, 6, 7, 8, 9, 10}

    def test_top_valid(self, coin):
        model = self.entropy_model(coin, 10)
        assert valid_in_model(model, TOP)

    def test_knowledge_is_world_independent(self, coin):
        model = self.entropy_model(coin, 10)
        f = parse(f"K ({W_H_HALF})", coin)
        verdicts = {satisfies(model, i, f) for i in range(11)}
        assert verdicts == {False}

    def test_belief_is_world_independent(self, coin):
        model = self.entropy_model(coin, 10)
        f = parse("B (w(H) >= 1/2 & w(T) >= 1/2)", coin)
        assert all(satisfies(model, i, f) for i in range(11))

    def test_three_heads_then_belief(self, coin):
        model = self.entropy_model(coin, 20)
        f = parse("[H] [H] [H] B (w(H) >= 0.55)", coin)
        assert valid_in_model(model, f)
        assert valid_in_model(model, parse("[H,H,H] B (w(H) >= 0.55)", coin))

    def test_belief_conditional_on_observations(self, coin):
        model = self.entropy_model(coin, 20)
        assert valid_in_model(model, parse("B(w(H) >= 0.55 | H,H,H)", coin))
        assert not valid_in_model(model, parse("B(w(H) <= 0.6 | H,H,H)", coin))

    def test_announcement_restricts_worlds(self, coin):
        model = self.entropy_model(coin, 10)
        # after announcing a heads-bias, belief settles on the smallest
        # surviving bias
        f = parse("[w(H) > 1/2] B (w(H) = 3/5)", coin)
        assert valid_in_model(model, f)

    def test_announcement_false_at_world_is_vacuous(self, coin):
        model = self.entropy_model(coin, 10)
        f = parse("[w(H) >= 2] ~T", coin)
        assert valid_in_model(model, f)

    def test_sampling_breaks_preservation(self, coin):
        # The paper's non-AGM claim, on one model.  Before any sample the
        # fair coin is the one most plausible world, so w(H) <= 1/2 is
        # believed.  A sample of H has positive probability there and
        # removes no world, yet the belief is lost at every world: AGM's
        # preservation postulate fails for belief change by sampling.
        model = self.entropy_model(coin, 10)
        believed = "B (w(H) <= 1/2)"
        assert valid_in_model(model, parse(believed, coin))
        for k in range(11):
            assert valid_in_model(model, parse(f"[H] ~K ~(w(H) = {k}/10)", coin))
        f = parse(f"{believed} -> [H] {believed}", coin)
        assert not valid_in_model(model, f)
        assert extension(model, f).members == set()

    def test_check_trace(self, coin):
        model = self.entropy_model(coin, 10)
        result = check(model, 7, parse(f"{W_H_HALF} & w(H) <= 3/5", coin))
        assert not result.verdict
        assert result.world == 7
        assert dict(result.trace) == {
            "w(H) >= 1/2": True,
            "-w(H) >= -3/5": False,
        }

    @pytest.mark.parametrize(
        "text, trace",
        [
            ("T", []),
            (W_H_HALF, []),
            (f"~{W_H_HALF}", [(W_H_HALF, True)]),
            (f"{W_H_HALF} & {W_T_HALF}", [(W_H_HALF, True), (W_T_HALF, False)]),
            (f"{W_T_HALF} | {W_H_HALF}", [(W_T_HALF, False), (W_H_HALF, True)]),
            ("K w(H) >= 0", [("w(H) >= 0", True)]),
            ("B T", [("T", True)]),
            ("B(T | T)", [("T", True)]),
            (f"B {W_T_HALF}", [(W_T_HALF, False)]),
            (f"B(T | {W_H_HALF})", [("T", True), (W_H_HALF, True)]),
            (f"B({W_T_HALF} | {W_H_HALF})", [(W_T_HALF, False), (W_H_HALF, True)]),
            (f"B({W_H_HALF} | H,H)", [(W_H_HALF, True)]),
            (f"[H,T] {W_T_HALF}", [(W_T_HALF, False)]),
            (f"[{W_H_HALF}] {W_T_HALF}", [(W_H_HALF, True), (W_T_HALF, False)]),
        ],
    )
    def test_check_trace_of_every_kind(self, coin, text, trace):
        # One entry per immediate subformula, in field order; a simple
        # belief's implicit condition T is left out even when its body is T.
        model = self.entropy_model(coin, 10)
        assert check(model, 7, parse(text, coin)).trace == trace

    def test_shared_subformula_checks_in_linear_time(self):
        # One object used twice at each of 40 levels: 41 distinct objects on
        # 2**40 paths, so a walk of the formula as a tree would not finish.
        # (`check` is left out: its trace prints the subformulas in full.)
        src = str(Path(logic.__file__).resolve().parents[1])
        script = (
            "from plausilearn import *\n"
            "from plausilearn.logic import And\n"
            "coin = make_alphabet(['H', 'T'])\n"
            "model = init_state(simplex_grid(coin, 10), ENTROPY)\n"
            "g = parse('w(H) >= 1/2', coin)\n"
            "for _ in range(40):\n"
            "    g = And(g, g)\n"
            "print(sorted(extension(model, g).members), satisfies(model, 4, g),\n"
            "      valid_in_model(model, g))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[5, 6, 7, 8, 9, 10] False False\n"

    def test_check_accepts_mass_function_world(self, coin, fair_coin):
        model = self.entropy_model(coin, 10)
        result = check(model, fair_coin, parse(W_H_HALF, coin))
        assert result.verdict and result.world == 5

    def test_satisfies_rejects_bad_index(self, coin):
        model = self.entropy_model(coin, 10)
        with pytest.raises(KeyError):
            satisfies(model, 99, TOP)

    @pytest.mark.parametrize("world", [True, False, np.True_])
    def test_satisfies_rejects_bool_index(self, coin, world):
        model = self.entropy_model(coin, 10)
        with pytest.raises(KeyError):
            satisfies(model, world, TOP)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_satisfies_accepts_any_integer_index(self, coin, kind):
        model = self.entropy_model(coin, 10)
        f = parse(W_H_HALF, coin)
        assert [satisfies(model, kind(i), f) for i in range(11)] == [
            satisfies(model, i, f) for i in range(11)
        ]
        result = check(model, kind(7), f)
        assert result.verdict and result.world == 7 and type(result.world) is int
        with pytest.raises(KeyError):
            satisfies(model, kind(11), TOP)

    def test_sampling_box_agrees_with_conditional_belief(self):
        # reduction law checked directly on random models
        rng = random.Random(13)
        for _ in range(50):
            model = random_model(rng)
            o = rng.choice(model.alphabet.names)
            body = random_formula(rng, model.alphabet, 1)
            left = DynObs((o,), belief(body))
            right = BelObs(DynObs((o,), body), (o,))
            assert extension(model, left) == extension(model, right)


def reference_extension(model, f, skip_relativization=False) -> set:
    """The worlds of `model` satisfying `f`, clause by clause, world by world:
    each update builds its model through the public API, nothing is cached,
    and atoms are summed as Fractions.  With `skip_relativization`, the
    announcement keeps the world it is evaluated at, as the mutant does."""
    def ext(m, g):
        return reference_extension(m, g, skip_relativization)

    worlds = set(range(len(model.worlds)))
    if isinstance(f, Top):
        return worlds
    if isinstance(f, LinIneq):
        return fraction_extension(model, f)
    if isinstance(f, Not):
        return worlds - ext(model, f.operand)
    if isinstance(f, And):
        return ext(model, f.left) & ext(model, f.right)
    if isinstance(f, Or):
        return ext(model, f.left) | ext(model, f.right)
    if isinstance(f, K):
        holds = knowledge_holds(model, Proposition.of(ext(model, f.operand)))
    elif isinstance(f, BelCond):
        best = argmax_restricted(model, Proposition.of(ext(model, f.cond)))
        holds = best.members <= ext(model, f.body)
    elif isinstance(f, BelObs):
        sampled = condition(model, observe(model.alphabet, f.obs))
        holds = argmax_worlds(sampled).members <= ext(model, f.body)
    elif isinstance(f, DynObs):
        return ext(update_sampling(model, observe(model.alphabet, f.obs)), f.body)
    else:
        assert isinstance(f, DynAnn)
        ann = ext(model, f.ann)
        out = set() if skip_relativization else worlds - ann
        for i in worlds if skip_relativization else ann:
            # The k-th world of the updated model is the k-th kept world.
            kept = sorted(ann | {i})
            after = ext(update_proposition(model, Proposition.of(kept)), f.body)
            if kept.index(i) in after:
                out.add(i)
        return out
    return worlds if holds else set()


def nested_update_formulas(rng, alphabet):
    """Formulas whose updates nest: [p][q], [obs][p], K and B(.|obs) after
    announcing an atom (more often true of some worlds and not others than
    a random formula), an announcement of nothing and one of everything,
    inside and outside another announcement, and a random depth-3 formula."""
    p, q, r = (random_formula(rng, alphabet, 1) for _ in range(3))
    a = random_atom(rng, alphabet)
    obs = tuple(rng.choice(alphabet.names) for _ in range(rng.randint(1, 3)))
    return [
        DynAnn(p, DynAnn(q, r)),
        DynObs(obs, DynAnn(p, belief(q))),
        DynAnn(a, K(q)),
        DynAnn(a, BelObs(q, obs)),
        DynAnn(p, DynObs(obs, BelCond(q, r))),
        DynAnn(Not(TOP), q),
        DynAnn(TOP, K(q)),
        DynAnn(p, DynAnn(Not(p), K(q))),
        DynAnn(p, DynAnn(p, BelCond(q, Not(r)))),
        random_formula(rng, alphabet, 3),
    ]


class TestEntryPoints:
    """The three entry points and the announcement clause, against oracles
    built from the public API."""

    def test_nested_updates_match_reference(self):
        rng = random.Random(37)
        for _ in range(60):
            model = random_model(rng)
            for f in nested_update_formulas(rng, model.alphabet):
                assert extension(model, f).members == reference_extension(model, f), (
                    print_formula(f)
                )

    def test_mutant_matches_reference(self):
        rng = random.Random(41)
        for _ in range(40):
            model = random_model(rng)
            for f in nested_update_formulas(rng, model.alphabet):
                got = extension(model, f, skip_relativization=True).members
                assert got == reference_extension(model, f, True), print_formula(f)

    def test_announcement_matches_update_oracle(self):
        rng = random.Random(29)
        for _ in range(80):
            model = random_model(rng)
            p = random_formula(rng, model.alphabet, 2)
            q = random_formula(rng, model.alphabet, 2)
            ann = extension(model, p)
            # Worlds outside p satisfy [p] q vacuously; the k-th world of the
            # updated model is the k-th world of p.
            expected = set(range(len(model.worlds))) - ann.members
            if ann.members:
                kept = sorted(ann.members)
                after = extension(update_proposition(model, ann), q)
                expected |= {kept[k] for k in after.members}
            assert extension(model, DynAnn(p, q)).members == expected

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("urn_60", "cb99ea4b21c1238e"),
            ("nested", "4fc4990ab653375d"),
            ("nested_mutant", "c067e53bf4e65fc9"),
        ],
    )
    def test_extensions_pinned(self, urn, case, expected):
        """sha256 prefixes of packed extension masks, recorded before the
        checker held extensions as integer bitsets.  The N=60 grid has 1,891
        worlds, so each packed mask ends in a partial byte."""
        digest = hashlib.sha256()

        def add(model, f, skip=False):
            mask = np.zeros(len(model.worlds), dtype=bool)
            mask[sorted(extension(model, f, skip_relativization=skip).members)] = True
            digest.update(np.packbits(mask).tobytes())

        if case == "urn_60":
            model = init_state(simplex_grid(urn, 60), ENTROPY)
            rng = random.Random(61)
            for _ in range(200):
                add(model, random_formula(rng, urn, 3))
        else:
            rng = random.Random(67)
            for _ in range(60):
                model = random_model(rng)
                for f in nested_update_formulas(rng, model.alphabet):
                    add(model, f, skip=case == "nested_mutant")
        assert digest.hexdigest()[:16] == expected

    def test_satisfies_valid_and_extension_agree(self):
        rng = random.Random(31)
        for _ in range(80):
            model = random_model(rng)
            f = random_formula(rng, model.alphabet, 2)
            ext = extension(model, f)
            n = len(model.worlds)
            assert {i for i in range(n) if satisfies(model, i, f)} == ext.members
            assert valid_in_model(model, f) == (len(ext.members) == n)

    def test_empty_condition_leaves_body_unlabelled(self, coin):
        # Labelling the body [H] T would add the state that sampling H makes.
        model = init_state(simplex_grid(coin, 10), ENTROPY)
        for cond, states in [("w(H) >= 2", 1), ("w(H) >= 1/2", 2)]:
            ev = logic._Evaluator(model)
            assert ev.label(0, parse(f"B([H] T | {cond})", coin)) == ev.full
            assert len(ev.states) == states, cond

    def test_shared_evaluator_outlives_its_formulas(self):
        # Each formula is dropped once labelled, so CPython hands its memory,
        # and so its id, to a later formula; labels keyed by id must not
        # outlive the formulas they were computed for.
        rng = random.Random(43)
        for _ in range(20):
            model = random_model(rng)
            ev = logic._Evaluator(model)
            for _ in range(40):
                f = random_formula(rng, model.alphabet, 2)
                got = ev.label(0, f)
                assert {i for i in range(ev.size) if got >> i & 1} == (
                    extension(model, f).members
                ), print_formula(f)
                del f, got

    def test_argmax_runs_once_per_evidence_and_domain(self, coin, monkeypatch):
        calls = []
        kernel = logic._argmax_mask

        def counted(values, within):
            calls.append((values, within))
            return kernel(values, within)

        monkeypatch.setattr(logic, "_argmax_mask", counted)
        model = init_state(simplex_grid(coin, 10), ENTROPY)
        ev = logic._Evaluator(model)
        # Pairs: (no evidence, every world) twice, (H, every world) twice,
        # (no evidence, the worlds where w(H) >= 1/2) twice.
        for text in [
            "B w(H) >= 1/2", "B w(T) >= 1/2",
            "B(w(H) >= 1/2 | H)", "[H] B w(T) >= 1/2",
            f"B(T | {W_H_HALF})", f"[{W_H_HALF}] B w(T) >= 0",
        ]:
            ev.label(0, parse(text, coin))
        pairs = {(values.tobytes(), within.tobytes()) for values, within in calls}
        assert len(calls) == len(pairs) == 3

    @pytest.mark.parametrize(
        "f",
        [0, "T", And(TOP, 0), And(Not(TOP), 0), K(3), Not(0), Or(TOP, "T")],
        ids=["int", "str", "and_int", "and_not_int", "k_int", "not_int", "or_str"],
    )
    @pytest.mark.parametrize(
        "entry", ["extension", "satisfies", "valid_in_model", "check"]
    )
    def test_non_formula_raises_type_error(self, coin, f, entry):
        model = init_state(simplex_grid(coin, 10), ENTROPY)
        call = {
            "extension": lambda: extension(model, f),
            "satisfies": lambda: satisfies(model, 0, f),
            "valid_in_model": lambda: valid_in_model(model, f),
            "check": lambda: check(model, 0, f),
        }[entry]
        with pytest.raises(TypeError, match="not a formula"):
            call()

    @pytest.mark.parametrize("prefix", ["~", "K ", "B ", "[H] ", "[w(H) >= 1/2] "])
    def test_deepest_parse_checks_and_prints(self, coin, prefix):
        text = prefix * 5001 + "T"
        f = parse(text, coin)
        model = init_state(simplex_grid(coin, 10), ENTROPY)
        # Over T, each prefix applied twice is the same as not at all.
        same = parse(prefix + "T", coin)
        assert extension(model, f) == extension(model, same)
        assert print_formula(f) == text

    def test_no_recursion_in_parse_print_or_check(self):
        # Under a recursion limit of 200, a text 5,000 deep of each kind
        # parses, prints, re-parses and checks: none of the three recurses.
        src = str(Path(logic.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from plausilearn import *\n"
            "sys.setrecursionlimit(200)\n"
            "coin = make_alphabet(['H', 'T'])\n"
            "model = init_state(simplex_grid(coin, 10), ENTROPY)\n"
            "n = 5000\n"
            "arrows = '~T | (' * (n - 1) + '~T | T' + ')' * (n - 1)\n"
            "for prefix in ['~', 'K ', 'B ', '[H] ', '[w(H) >= 1/2] ', '(', 'T -> ']:\n"
            "    text = prefix * n + 'T' + ')' * n * (prefix == '(')\n"
            "    f = parse(text, coin)\n"
            "    printed = print_formula(f)\n"
            "    want = {'(': 'T', 'T -> ': arrows}.get(prefix, text)\n"
            "    assert printed == want and print_formula(parse(printed, coin)) == want\n"
            "    print(sorted(extension(model, f).members))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [str(list(range(11)))] * 7

    def test_formulas_deeper_than_any_parse(self, coin):
        model = init_state(simplex_grid(coin, 10), ENTROPY)
        atom = parse(W_H_HALF, coin)
        negations = atom
        for _ in range(10_000):
            negations = Not(negations)
        assert extension(model, negations) == extension(model, atom)
        believed = belief(parse("w(H) >= 9/10", coin))  # false before sampling
        samples = believed
        for _ in range(2_000):
            samples = DynObs(("H",), samples)
        sampled = update_sampling(model, observe(coin, ("H",) * 2_000))
        assert not extension(model, believed).members
        assert extension(model, samples) == extension(sampled, believed)


def fraction_extension(model, atom):
    """Reference: the per-world Fraction sum of the atom's terms."""
    return {
        i
        for i, w in enumerate(model.worlds)
        if sum(a * w.weight(o) for a, o in atom.terms) >= atom.bound
    }


def mixed_denominator_model(alphabet, rng):
    """Worlds off any grid: weights with unrelated denominators."""
    worlds = set()
    while len(worlds) < 8:
        weights, left = [], Fraction(1)
        for _ in alphabet.names[:-1]:
            den = rng.choice([2, 3, 5, 7, 9, 11, 13, 16, 25, 49])
            weights.append(Fraction(rng.randint(0, int(left * den)), den))
            left -= weights[-1]
        worlds.add(mass_function(alphabet, weights + [left]))
    return init_state(sorted(worlds, key=str), tabulated([1.0] * len(worlds)))


def atom_text(terms, bound: Fraction) -> str:
    """Surface text of sum(terms) >= bound; each coefficient is a string
    (a fraction or a decimal literal, with an optional leading minus)."""
    parts = []
    for i, (coeff, name) in enumerate(terms):
        sign, mag = ("-", coeff[1:]) if coeff.startswith("-") else ("+", coeff)
        lead = ("-" if sign == "-" else "") if i == 0 else f" {sign} "
        parts.append(f"{lead}{mag} * w({name})")
    return "".join(parts) + f" >= {bound.numerator}/{bound.denominator}"


class TestIntegerAtoms:
    """Atoms are decided by integer dot products; the reference is the
    per-world Fraction sum."""

    coefficient = st.one_of(
        st.builds(
            lambda n, d: f"{n}/{d}",
            st.integers(-12, 12),
            st.sampled_from([1, 2, 3, 4, 7, 10, 60]),
        ),
        st.builds(  # a decimal literal: n / 10**places
            lambda n, places: ("-" if n < 0 else "")
            + f"{abs(n) // 10**places}.{abs(n) % 10**places:0{places}d}",
            st.integers(-300, 300),
            st.integers(1, 3),
        ),
    )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), grid=st.booleans(), seed=st.integers(0, 10**6))
    def test_matches_fraction_sums(self, data, grid, seed):
        from plausilearn import make_alphabet

        urn = make_alphabet(["R", "B", "G"])
        rng = random.Random(seed)
        model = (
            init_state(simplex_grid(urn, 12), ENTROPY)
            if grid
            else mixed_denominator_model(urn, rng)
        )
        terms = data.draw(
            st.lists(st.tuples(self.coefficient, st.sampled_from(urn.names)),
                     min_size=1, max_size=4)
        )
        at = data.draw(st.integers(0, len(model.worlds) - 1))
        exact = sum(Fraction(c) * model.worlds[at].weight(o) for c, o in terms)
        bound = data.draw(st.sampled_from([exact, exact + Fraction(1, 997), -exact]))
        atom = parse(atom_text(terms, bound), urn)
        assert isinstance(atom, LinIneq)
        got = extension(model, atom).members
        assert got == fraction_extension(model, atom)
        if bound == exact:
            assert at in got

    def test_grid_weights_are_int64(self, urn):
        model = init_state(simplex_grid(urn, 60), ENTROPY)
        assert model.numerators.dtype == np.int64
        assert model.denominator == 60

    def test_huge_denominator_takes_python_ints(self, coin):
        tiny = Fraction(1, 2**70)
        worlds = [
            mass_function(coin, [Fraction(1, 2) + tiny, Fraction(1, 2) - tiny]),
            mass_function(coin, [Fraction(1, 2), Fraction(1, 2)]),
            mass_function(coin, [Fraction(1, 3), Fraction(2, 3)]),
        ]
        model = init_state(worlds, ENTROPY)
        assert model.numerators.dtype == object
        for text in ["w(H) >= 1/2", f"w(H) - w(T) >= 2/{2**70}", "w(H) <= 1/2"]:
            atom = parse(text, coin)
            assert extension(model, atom).members == fraction_extension(model, atom)
        assert extension(model, parse("w(H) > 1/2", coin)).members == {0}

    def test_huge_coefficient_takes_python_ints(self, urn):
        model = init_state(simplex_grid(urn, 60), ENTROPY)
        big = 10**30
        atom = lin([(big, "R"), (-big, "B"), (1, "G")], Fraction(1, 60))
        got = extension(model, atom).members
        assert got == fraction_extension(model, atom)
        assert 0 < len(got) < len(model.worlds)

    @pytest.fixture
    def decided(self, monkeypatch):
        """The arguments of every call the checker makes to `_decide_atom`."""
        calls = []
        kernel = logic._decide_atom
        monkeypatch.setattr(
            logic, "_decide_atom", lambda *args: calls.append(args) or kernel(*args)
        )
        return calls

    def test_equal_subformulas_decide_each_atom_once(self, urn, decided):
        model = init_state(simplex_grid(urn, 6), ENTROPY)

        def p():
            return And(
                parse("w(R) >= 1/3", urn),
                Not(parse("2 * w(B) - w(G) >= 1/2", urn)),
            )

        p1, p2 = p(), p()
        assert p1 == p2 and p1 is not p2
        assert valid_in_model(model, iff(p1, p2))
        assert len(decided) == 2

    def test_atom_is_decided_once_across_updates(self, urn, decided):
        model = init_state(simplex_grid(urn, 6), ENTROPY)
        assert valid_in_model(model, parse("[w(R) >= 1/3] w(R) >= 1/3", urn))
        assert len(decided) == 1


class TestAxiomSuite:
    def test_clean_run(self):
        report = axiom_suite(trials=25, seed=42)
        assert report.ok
        assert report.counterexamples == []
        assert all(n == 25 for n in report.checked.values())
        assert len(report.checked) == 24

    def test_mutation_is_detected(self):
        report = axiom_suite(trials=25, seed=42, skip_relativization=True)
        assert not report.ok
        broken = {c.schema for c in report.counterexamples}
        assert broken & {
            "announce_atom",
            "announce_negation",
            "announce_conjunction",
            "announce_knowledge",
            "announce_belief",
        }

    def test_mutation_counterexample_count(self):
        report = axiom_suite(25, 42, skip_relativization=True)
        assert len(report.counterexamples) == 35

    def test_report_serializes(self):
        report = axiom_suite(trials=5, seed=1)
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["trials"] == 5
        assert payload["seed"] == 1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            axiom_suite(trials=0, seed=0)
