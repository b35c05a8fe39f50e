"""Formula language over probabilistic plausibility models.

Surface syntax (EBNF)::

    formula := impl
    impl    := or ("->" impl)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "K" unary | "B" unary
             | "B(" body "|" cond ")" | "[" boxarg "]" unary | atom
    boxarg  := obslist | formula
    cond    := obslist | formula
    obslist := OUTCOME ("," OUTCOME)*
    atom    := "T" | lin | "(" formula ")"
    lin     := linsum REL rat
    REL     := ">=" | "<=" | "=" | ">" | "<"
    linsum  := ("-")? term (("+"|"-") term)*
    term    := (rat "*")? "w(" OUTCOME ")"
    rat     := ("-")? INT ("/" INT)? | DECIMAL

Notes on ambiguity resolution:

* Inside ``B( ... | ... )`` the body is parsed without a top-level ``|``
  (parenthesise a disjunction there); the ``|`` separates body from
  condition.  If the closing ``)`` appears before any ``|``, the whole
  thing is a simple belief over a parenthesised formula.
* Bare identifiers in condition or box position that name alphabet
  outcomes parse as observations; anything else parses as a formula.
* ``B phi`` abbreviates ``B(phi | T)``.  ``<=``, ``<``, ``>``, ``=`` and
  ``->`` are desugared, so only ``>=``, ``~``, ``&``, ``|`` appear in ASTs.
* Decimal literals are accepted and read as exact rationals.

Precedence: ``~`` binds tightest, then ``&``, then ``|``, then ``->``;
``K``, ``B`` and ``[...]`` take a unary operand, so ``K (p & q)`` needs
the parentheses.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .doxastic import (
    Model,
    conditional_belief_event,
    conditional_belief_prop,
    make_model,
    update_proposition,
    update_sampling,
)
from .plausibility import tabulated
from .simplex import (
    ObservationEvent,
    Proposition,
    UnknownOutcomeError,
    make_alphabet,
    observe,
    simplex_grid,
)


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class for formula AST nodes."""

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class LinIneq(Formula):
    """Sum of rational-weighted outcome probabilities >= a rational bound."""

    terms: tuple[tuple[Fraction, str], ...]
    bound: Fraction


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class K(Formula):
    operand: Formula


@dataclass(frozen=True)
class BelCond(Formula):
    """Belief in `body` conditional on the formula `cond`."""

    body: Formula
    cond: Formula


@dataclass(frozen=True)
class BelObs(Formula):
    """Belief in `body` conditional on a sequence of observations."""

    body: Formula
    obs: tuple[str, ...]


@dataclass(frozen=True)
class DynObs(Formula):
    """`body` holds after sampling the listed observations."""

    obs: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class DynAnn(Formula):
    """`body` holds after learning the higher-order information `ann`."""

    ann: Formula
    body: Formula


TOP = Top()


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def belief(body: Formula) -> Formula:
    """Simple belief: B(body | T)."""
    return BelCond(body, TOP)


# ---------------------------------------------------------------------------
# Tokenizer


class ParseError(ValueError):
    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        suffix = f" (expected one of {sorted(self.expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<dec>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|>=|<=|[=><~&|()\[\],*+/-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "dec" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, alphabet):
        self.tokens = _tokenize(text)
        self.alphabet = alphabet
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            raise ParseError(
                f"unexpected token {self.cur.text!r}", self.cur.pos, {op}
            )
        self.advance()

    # formula := impl; impl := or ("->" impl)?
    def formula(self, top_level_or: bool = True) -> Formula:
        left = self.or_chain() if top_level_or else self.and_chain()
        if self.at_op("->"):
            self.advance()
            return implies(left, self.formula(top_level_or))
        return left

    def or_chain(self) -> Formula:
        node = self.and_chain()
        while self.at_op("|"):
            self.advance()
            node = Or(node, self.and_chain())
        return node

    def and_chain(self) -> Formula:
        node = self.unary()
        while self.at_op("&"):
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        tok = self.cur
        if self.at_op("~"):
            self.advance()
            return Not(self.unary())
        if tok.kind == "ident" and tok.text == "K":
            self.advance()
            return K(self.unary())
        if tok.kind == "ident" and tok.text == "B":
            self.advance()
            return self.after_belief()
        if self.at_op("["):
            self.advance()
            obs = self.try_obslist("]")
            if obs is not None:
                self.expect_op("]")
                return DynObs(obs, self.unary())
            ann = self.formula()
            self.expect_op("]")
            return DynAnn(ann, self.unary())
        return self.atom()

    def after_belief(self) -> Formula:
        if not self.at_op("("):
            return belief(self.unary())
        self.advance()
        # Body may not use a bare top-level "|": that separates the
        # condition.  Parenthesise a top-level disjunction in the body.
        body = self.formula(top_level_or=False)
        if self.at_op(")"):
            self.advance()
            return belief(body)
        self.expect_op("|")
        obs = self.try_obslist(")")
        if obs is not None:
            self.expect_op(")")
            return BelObs(body, obs)
        cond = self.formula()
        self.expect_op(")")
        return BelCond(body, cond)

    def try_obslist(self, closer: str) -> tuple[str, ...] | None:
        """Consume ``OUTCOME ("," OUTCOME)*`` if the upcoming tokens match
        exactly that shape up to `closer`; otherwise consume nothing."""
        j = self.i
        names = []
        while True:
            tok = self.tokens[j]
            if tok.kind != "ident" or tok.text not in self.alphabet:
                return None
            names.append(tok.text)
            j += 1
            nxt = self.tokens[j]
            if nxt.kind == "op" and nxt.text == ",":
                j += 1
                continue
            if nxt.kind == "op" and nxt.text == closer:
                self.i = j
                return tuple(names)
            return None

    def atom(self) -> Formula:
        tok = self.cur
        if tok.kind == "ident" and tok.text == "T":
            self.advance()
            return TOP
        if self.at_op("("):
            self.advance()
            node = self.formula()
            self.expect_op(")")
            return node
        if tok.kind in ("int", "dec") or self.at_op("-") or (
            tok.kind == "ident" and tok.text == "w"
        ):
            return self.lin()
        raise ParseError(
            f"unexpected token {tok.text or 'end of input'!r}",
            tok.pos,
            {"T", "w(", "(", "~", "K", "B", "["},
        )

    def lin(self) -> Formula:
        terms = [self.term(allow_leading_minus=True)]
        while self.at_op("+", "-"):
            sign = self.advance().text
            coeff, name = self.term()
            if sign == "-":
                coeff = -coeff
            terms.append((coeff, name))
        rel = self.cur
        if not self.at_op(">=", "<=", "=", ">", "<"):
            raise ParseError(
                f"unexpected token {rel.text!r}",
                rel.pos,
                {">=", "<=", "=", ">", "<"},
            )
        self.advance()
        bound = self.rational()
        return _desugar_lin(tuple(terms), bound, rel.text)

    def term(self, allow_leading_minus: bool = False) -> tuple[Fraction, str]:
        negate = False
        if allow_leading_minus and self.at_op("-"):
            self.advance()
            negate = True
        coeff = Fraction(1)
        if self.cur.kind in ("int", "dec"):
            coeff = self.rational()
            self.expect_op("*")
        if negate:
            coeff = -coeff
        tok = self.cur
        if tok.kind != "ident" or tok.text != "w":
            raise ParseError(
                f"unexpected token {tok.text!r}", tok.pos, {"w("}
            )
        self.advance()
        self.expect_op("(")
        name_tok = self.cur
        if name_tok.kind != "ident":
            raise ParseError("expected outcome name", name_tok.pos)
        if name_tok.text not in self.alphabet:
            raise UnknownOutcomeError(f"unknown outcome {name_tok.text!r}")
        self.advance()
        self.expect_op(")")
        return coeff, name_tok.text

    def rational(self) -> Fraction:
        negate = False
        if self.at_op("-"):
            self.advance()
            negate = True
        tok = self.cur
        if tok.kind == "dec":
            self.advance()
            value = Fraction(tok.text)
        elif tok.kind == "int":
            self.advance()
            value = Fraction(int(tok.text))
            if self.at_op("/"):
                self.advance()
                den = self.cur
                if den.kind != "int":
                    raise ParseError("expected denominator", den.pos, {"INT"})
                self.advance()
                value = Fraction(value, int(den.text))
        else:
            raise ParseError(
                f"unexpected token {tok.text!r}", tok.pos, {"INT", "DECIMAL"}
            )
        return -value if negate else value


def _desugar_lin(terms, bound: Fraction, rel: str) -> Formula:
    ge = LinIneq(terms, bound)
    neg_terms = tuple((-a, o) for a, o in terms)
    le = LinIneq(neg_terms, -bound)
    if rel == ">=":
        return ge
    if rel == "<=":
        return le
    if rel == "=":
        return And(ge, le)
    if rel == ">":
        return Not(le)
    if rel == "<":
        return Not(ge)
    raise AssertionError(rel)


def parse(text: str, alphabet) -> Formula:
    """Parse the surface syntax into a formula AST.

    `alphabet` is needed to distinguish observation lists from formulas
    in condition and box positions, and to validate outcome names.
    """
    parser = _Parser(text, alphabet)
    node = parser.formula()
    end = parser.cur
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.pos)
    return node


# ---------------------------------------------------------------------------
# Printer

_LVL_OR, _LVL_AND, _LVL_UNARY = 0, 1, 2


def _print_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _print_lin(node: LinIneq) -> str:
    parts = []
    for i, (coeff, name) in enumerate(node.terms):
        mag = abs(coeff)
        body = f"w({name})" if mag == 1 else f"{_print_rat(mag)} * w({name})"
        if i == 0:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts) + " >= " + _print_rat(node.bound)


def _print(node: Formula, level: int) -> str:
    if isinstance(node, Top):
        return "T"
    if isinstance(node, LinIneq):
        text = _print_lin(node)
        return f"({text})" if level == _LVL_UNARY else text
    if isinstance(node, Not):
        return "~" + _print(node.operand, _LVL_UNARY)
    if isinstance(node, And):
        text = (
            _print(node.left, _LVL_AND) + " & " + _print(node.right, _LVL_UNARY)
        )
        return f"({text})" if level == _LVL_UNARY else text
    if isinstance(node, Or):
        text = _print(node.left, _LVL_OR) + " | " + _print(node.right, _LVL_AND)
        return f"({text})" if level > _LVL_OR else text
    if isinstance(node, K):
        return "K " + _print(node.operand, _LVL_UNARY)
    if isinstance(node, BelCond):
        if node.cond == TOP:
            if isinstance(node.body, Or):
                # "B (a | b)" would read as B(a | b); force the operand
                # reading with a second pair of parentheses.
                return f"B (({_print(node.body, _LVL_OR)}))"
            return "B " + _print(node.body, _LVL_UNARY)
        body = _print(node.body, _LVL_AND)
        return f"B({body} | {_print(node.cond, _LVL_OR)})"
    if isinstance(node, BelObs):
        body = _print(node.body, _LVL_AND)
        return f"B({body} | {','.join(node.obs)})"
    if isinstance(node, DynObs):
        return f"[{','.join(node.obs)}] " + _print(node.body, _LVL_UNARY)
    if isinstance(node, DynAnn):
        ann = _print(node.ann, _LVL_OR)
        if isinstance(node.ann, Top):
            # Bare "[T]" would read as an observation of an outcome named T.
            ann = f"({ann})"
        return f"[{ann}] " + _print(node.body, _LVL_UNARY)
    raise TypeError(f"not a formula: {node!r}")


def print_formula(node: Formula) -> str:
    """Canonical text for a formula; re-parses to a structurally equal AST."""
    return _print(node, _LVL_OR)


# ---------------------------------------------------------------------------
# Semantics

# Atoms are a LinIneq on lin >= inside unary position: parenthesised when
# printed under a unary operator so "K w(H) >= 1" round-trips; handled above.


@dataclass
class CheckResult:
    """Verdict of a formula at a world, with a shallow evaluation trace."""

    verdict: bool
    world: int
    trace: list[tuple[str, bool]] = field(default_factory=list)


class _Evaluator:
    def __init__(self, skip_relativization: bool = False):
        self.skip_relativization = skip_relativization
        self.ext_cache: dict = {}
        self.submodels: dict = {}

    def extension(self, model: Model, f: Formula) -> frozenset[int]:
        key = (id(model), f)
        cached = self.ext_cache.get(key)
        if cached is not None:
            return cached
        result = self._compute(model, f)
        self.ext_cache[key] = result
        return result

    def _compute(self, model: Model, f: Formula) -> frozenset[int]:
        worlds = model.worlds
        everything = frozenset(range(len(worlds)))
        if isinstance(f, Top):
            return everything
        if isinstance(f, LinIneq):
            return frozenset(
                i
                for i, w in enumerate(worlds)
                if sum(a * w.weight(o) for a, o in f.terms) >= f.bound
            )
        if isinstance(f, Not):
            return everything - self.extension(model, f.operand)
        if isinstance(f, And):
            return self.extension(model, f.left) & self.extension(model, f.right)
        if isinstance(f, Or):
            return self.extension(model, f.left) | self.extension(model, f.right)
        if isinstance(f, K):
            inner = self.extension(model, f.operand)
            return everything if inner == everything else frozenset()
        if isinstance(f, BelCond):
            p = Proposition(self.extension(model, f.body))
            q = Proposition(self.extension(model, f.cond))
            holds = conditional_belief_prop(model.frame, p, q)
            return everything if holds else frozenset()
        if isinstance(f, BelObs):
            p = Proposition(self.extension(model, f.body))
            event = observe(model.alphabet, f.obs)
            holds = conditional_belief_event(model.frame, p, event)
            return everything if holds else frozenset()
        if isinstance(f, DynObs):
            event = observe(model.alphabet, f.obs)
            sub = self._submodel(model, update_sampling, event)
            # Sampling keeps the world set, so indices carry over.
            return self.extension(sub, f.body)
        if isinstance(f, DynAnn):
            return self._announce(model, f, everything)
        raise TypeError(f"not a formula: {f!r}")

    def _submodel(self, model: Model, update, arg) -> Model:
        # Submodels stay cached, and so alive, as long as the evaluator:
        # the id() in every cache key names a live model.
        key = (id(model), update, arg)
        sub = self.submodels.get(key)
        if sub is None:
            sub = self.submodels[key] = update(model, arg)
        return sub

    def _announce(
        self, model: Model, f: DynAnn, everything: frozenset[int]
    ) -> frozenset[int]:
        ann_ext = self.extension(model, f.ann)
        if self.skip_relativization:
            # Deliberately broken semantics for mutation testing: evaluate
            # the body after the announcement regardless of whether the
            # world satisfies it (keeping the world in the submodel).
            result = set()
            for i in everything:
                kept = ann_ext | {i}
                sub = self._submodel(model, update_proposition, Proposition(kept))
                if sorted(kept).index(i) in self.extension(sub, f.body):
                    result.add(i)
            return frozenset(result)
        if not ann_ext:
            return everything
        sub = self._submodel(model, update_proposition, Proposition(ann_ext))
        kept = sorted(ann_ext)
        body_ext = self.extension(sub, f.body)
        survivors = frozenset(
            world for pos, world in enumerate(kept) if pos in body_ext
        )
        return (everything - ann_ext) | survivors


def _world_index(model: Model, world) -> int:
    if isinstance(world, int):
        if not 0 <= world < len(model.worlds):
            raise KeyError(f"world index {world} out of range")
        return world
    return model.frame.world_index(world)


def satisfies(model: Model, world, f: Formula, *, skip_relativization=False) -> bool:
    """True iff `f` holds at `world` (a MassFunction or index) in `model`."""
    index = _world_index(model, world)
    ev = _Evaluator(skip_relativization)
    return index in ev.extension(model, f)


def check(model: Model, world, f: Formula) -> CheckResult:
    """Like `satisfies`, with verdicts for the immediate subformulas."""
    index = _world_index(model, world)
    ev = _Evaluator()
    verdict = index in ev.extension(model, f)
    trace = []
    for sub in _immediate_subformulas(f):
        trace.append((print_formula(sub), index in ev.extension(model, sub)))
    return CheckResult(verdict, index, trace)


def _immediate_subformulas(f: Formula) -> list[Formula]:
    if isinstance(f, (Not, K)):
        return [f.operand]
    if isinstance(f, (And, Or)):
        return [f.left, f.right]
    if isinstance(f, BelCond):
        return [f.body] + ([] if f.cond == TOP else [f.cond])
    if isinstance(f, (BelObs, DynObs)):
        return [f.body]
    if isinstance(f, DynAnn):
        return [f.ann, f.body]
    return []


def extension(model: Model, f: Formula, *, skip_relativization=False) -> Proposition:
    """The set of worlds of `model` satisfying `f`."""
    ev = _Evaluator(skip_relativization)
    return Proposition(ev.extension(model, f))


def valid_in_model(model: Model, f: Formula, *, skip_relativization=False) -> bool:
    """True iff `f` holds at every world of `model`."""
    ev = _Evaluator(skip_relativization)
    return ev.extension(model, f) == frozenset(range(len(model.worlds)))


# ---------------------------------------------------------------------------
# Random instances and the validity suite

_COEFFS = [Fraction(n, d) for n in (-2, -1, 1, 2, 3) for d in (1, 2, 4)]
_BOUNDS = [Fraction(n, d) for n in (-1, 0, 1, 1, 2, 3) for d in (1, 2, 4, 10)]


def random_atom(rng: random.Random, alphabet) -> Formula:
    if rng.random() < 0.1:
        return TOP
    n_terms = rng.choice([1, 1, 2])
    names = [rng.choice(alphabet.names) for _ in range(n_terms)]
    terms = tuple((rng.choice(_COEFFS), name) for name in names)
    rel = rng.choice([">=", ">=", "<=", "=", ">", "<"])
    return _desugar_lin(terms, rng.choice(_BOUNDS), rel)


def random_formula(rng: random.Random, alphabet, max_depth: int) -> Formula:
    """A random formula of nesting depth at most `max_depth`."""
    if max_depth <= 0:
        return random_atom(rng, alphabet)
    pick = rng.random()
    sub = lambda: random_formula(rng, alphabet, max_depth - 1)
    if pick < 0.25:
        return random_atom(rng, alphabet)
    if pick < 0.35:
        return Not(sub())
    if pick < 0.45:
        return And(sub(), sub())
    if pick < 0.55:
        return Or(sub(), sub())
    if pick < 0.65:
        return K(sub())
    if pick < 0.72:
        return belief(sub())
    if pick < 0.79:
        return BelCond(sub(), sub())
    if pick < 0.86:
        return BelObs(sub(), _random_obslist(rng, alphabet))
    if pick < 0.93:
        return DynObs(_random_obslist(rng, alphabet), sub())
    return DynAnn(sub(), sub())


def _random_obslist(rng: random.Random, alphabet) -> tuple[str, ...]:
    length = rng.choice([1, 1, 2, 3])
    return tuple(rng.choice(alphabet.names) for _ in range(length))


DEFAULT_ALPHABETS = (("H", "T"), ("R", "B", "G"))


def random_model(rng: random.Random, alphabets=DEFAULT_ALPHABETS, max_worlds=10) -> Model:
    """A random finite model: a subset of a simplex grid with random
    tabulated plausibilities, occasionally pre-conditioned on evidence."""
    alphabet = make_alphabet(rng.choice(alphabets))
    grid = simplex_grid(alphabet, rng.choice([3, 4, 5, 6]))
    size = rng.randint(2, min(max_worlds, len(grid)))
    worlds = [grid[i] for i in sorted(rng.sample(range(len(grid)), size))]
    values = [rng.uniform(0.05, 10.0) for _ in worlds]
    if rng.random() < 0.1:
        values[rng.randrange(len(values))] = 0.0
    model = make_model(worlds, tabulated(values))
    if rng.random() < 0.3:
        counts = tuple(rng.randint(0, 3) for _ in alphabet.names)
        model = update_sampling(model, ObservationEvent(alphabet, counts))
    return model


@dataclass
class Counterexample:
    schema: str
    formula: str
    model_worlds: list[str]
    failing_worlds: list[int]


@dataclass
class ValidityReport:
    trials: int
    seed: int
    checked: dict[str, int]
    counterexamples: list[Counterexample]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "checked": self.checked,
            "ok": self.ok,
            "counterexamples": [
                {
                    "schema": c.schema,
                    "formula": c.formula,
                    "model_worlds": c.model_worlds,
                    "failing_worlds": c.failing_worlds,
                }
                for c in self.counterexamples
            ],
        }


def _schemas():
    """Schema instantiators: name -> fn(rng, alphabet, depth) -> Formula."""

    def f(rng, al, d):
        return random_formula(rng, al, d)

    def outcome(rng, al):
        return rng.choice(al.names)

    def w_nonneg(rng, al, d):
        return LinIneq(((Fraction(1), outcome(rng, al)),), Fraction(0))

    def w_sum_one(rng, al, d):
        terms = tuple((Fraction(1), o) for o in al.names)
        return _desugar_lin(terms, Fraction(1), "=")

    def k_dist(rng, al, d):
        p, q = f(rng, al, d), f(rng, al, d)
        return implies(K(implies(p, q)), implies(K(p), K(q)))

    def k_truth(rng, al, d):
        p = f(rng, al, d)
        return implies(K(p), p)

    def k_pos_introspection(rng, al, d):
        p = f(rng, al, d)
        return implies(K(p), K(K(p)))

    def k_neg_introspection(rng, al, d):
        p = f(rng, al, d)
        return implies(Not(K(p)), K(Not(K(p))))

    def b_dist(rng, al, d):
        p, q = f(rng, al, d), f(rng, al, d)
        return implies(belief(implies(p, q)), implies(belief(p), belief(q)))

    def k_entails_b(rng, al, d):
        p = f(rng, al, d)
        return implies(K(p), belief(p))

    def b_pos_introspection(rng, al, d):
        p = f(rng, al, d)
        return implies(belief(p), belief(belief(p)))

    def b_neg_introspection(rng, al, d):
        p = f(rng, al, d)
        return implies(Not(belief(p)), belief(Not(belief(p))))

    def b_reflexive_cond(rng, al, d):
        p = f(rng, al, d)
        return BelCond(p, p)

    def b_cumulative(rng, al, d):
        p, q, r = f(rng, al, d), f(rng, al, d), f(rng, al, d)
        return implies(
            BelCond(q, p),
            iff(BelCond(r, And(p, q)), BelCond(r, p)),
        )

    def b_rational_monotony(rng, al, d):
        p, q, r = f(rng, al, d), f(rng, al, d), f(rng, al, d)
        return implies(
            Not(BelCond(Not(q), p)),
            iff(BelCond(r, And(p, q)), BelCond(implies(q, r), p)),
        )

    def ann_atom(rng, al, d):
        p = f(rng, al, d)
        q = random_atom(rng, al)
        return iff(DynAnn(p, q), implies(p, q))

    def obs_atom(rng, al, d):
        q = random_atom(rng, al)
        return iff(DynObs((outcome(rng, al),), q), q)

    def ann_negation(rng, al, d):
        p, q = f(rng, al, d), f(rng, al, d)
        return iff(DynAnn(p, Not(q)), implies(p, Not(DynAnn(p, q))))

    def obs_negation(rng, al, d):
        o = (outcome(rng, al),)
        q = f(rng, al, d)
        return iff(DynObs(o, Not(q)), Not(DynObs(o, q)))

    def ann_conjunction(rng, al, d):
        p, q, r = f(rng, al, d), f(rng, al, d), f(rng, al, d)
        return iff(DynAnn(p, And(q, r)), And(DynAnn(p, q), DynAnn(p, r)))

    def obs_conjunction(rng, al, d):
        o = (outcome(rng, al),)
        q, r = f(rng, al, d), f(rng, al, d)
        return iff(DynObs(o, And(q, r)), And(DynObs(o, q), DynObs(o, r)))

    def ann_knowledge(rng, al, d):
        p, q = f(rng, al, d), f(rng, al, d)
        return iff(DynAnn(p, K(q)), implies(p, K(DynAnn(p, q))))

    def obs_knowledge(rng, al, d):
        o = (outcome(rng, al),)
        q = f(rng, al, d)
        return iff(DynObs(o, K(q)), K(DynObs(o, q)))

    def ann_belief(rng, al, d):
        p, q, r = f(rng, al, d), f(rng, al, d), f(rng, al, d)
        return iff(
            DynAnn(p, BelCond(q, r)),
            implies(p, BelCond(DynAnn(p, q), And(p, DynAnn(p, r)))),
        )

    def obs_belief(rng, al, d):
        o = outcome(rng, al)
        o2 = outcome(rng, al)
        q = f(rng, al, d)
        return iff(
            DynObs((o,), BelObs(q, (o2,))),
            BelObs(DynObs((o,), q), (o, o2)),
        )

    return {
        "w_nonneg": w_nonneg,
        "w_sum_one": w_sum_one,
        "K_distribution": k_dist,
        "K_truth": k_truth,
        "K_pos_introspection": k_pos_introspection,
        "K_neg_introspection": k_neg_introspection,
        "B_distribution": b_dist,
        "K_entails_B": k_entails_b,
        "B_pos_introspection": b_pos_introspection,
        "B_neg_introspection": b_neg_introspection,
        "B_reflexive_cond": b_reflexive_cond,
        "B_cumulative": b_cumulative,
        "B_rational_monotony": b_rational_monotony,
        "announce_atom": ann_atom,
        "observe_atom": obs_atom,
        "announce_negation": ann_negation,
        "observe_negation": obs_negation,
        "announce_conjunction": ann_conjunction,
        "observe_conjunction": obs_conjunction,
        "announce_knowledge": ann_knowledge,
        "observe_knowledge": obs_knowledge,
        "announce_belief": ann_belief,
        "observe_belief": obs_belief,
    }


def _check_cond_equivalence(model, rng, alphabet, depth) -> Formula | None:
    """Substitution-of-equivalents: when p <-> q is valid in the model,
    B(r | p) <-> B(r | q) must be too.  Returns a violated instance."""
    p = random_formula(rng, alphabet, depth)
    q = random_formula(rng, alphabet, depth)
    if not valid_in_model(model, iff(p, q)):
        # Nudge the check to fire sometimes: q := p & T is always equivalent.
        q = And(p, TOP)
    r = random_formula(rng, alphabet, depth)
    instance = iff(BelCond(r, p), BelCond(r, q))
    if valid_in_model(model, iff(p, q)) and not valid_in_model(model, instance):
        return instance
    return None


def axiom_suite(
    trials: int,
    seed: int,
    alphabets=DEFAULT_ALPHABETS,
    formula_depth: int = 2,
    max_worlds: int = 10,
    skip_relativization: bool = False,
) -> ValidityReport:
    """Check every validity schema on random (model, instance) pairs.

    With `skip_relativization` the announcement clause is deliberately
    corrupted, which must surface counterexamples (a sensitivity check
    for the suite itself).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    schemas = _schemas()
    checked = {name: 0 for name in schemas}
    checked["B_cond_equivalence"] = 0
    counterexamples: list[Counterexample] = []

    def record(name: str, model: Model, instance: Formula):
        ext = extension(model, instance, skip_relativization=skip_relativization)
        failing = sorted(set(range(len(model.worlds))) - ext.members)
        counterexamples.append(
            Counterexample(
                name,
                print_formula(instance),
                [str(w) for w in model.worlds],
                failing,
            )
        )

    for _ in range(trials):
        model = random_model(rng, alphabets, max_worlds)
        alphabet = model.alphabet
        for name, builder in schemas.items():
            instance = builder(rng, alphabet, formula_depth)
            checked[name] += 1
            if not valid_in_model(
                model, instance, skip_relativization=skip_relativization
            ):
                record(name, model, instance)
        violated = _check_cond_equivalence(model, rng, alphabet, formula_depth)
        checked["B_cond_equivalence"] += 1
        if violated is not None:
            record("B_cond_equivalence", model, violated)

    return ValidityReport(trials, seed, checked, counterexamples)
