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

Model checking labels every subformula with its extension, bottom up
(Clarke, Grumberg & Peled, *Model Checking*), under the conditional-belief
and update semantics of Baltag & Smets (2008).  Each entry point compiles
its formula once into a DAG in which structurally equal subformulas share
one node, so each is evaluated once in each state that updates reach.  A
linear atom is decided once, for every world at once, exactly, by one
integer dot product with the world weights over their common denominator.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .doxastic import update_sampling
from .plausibility import (
    Model,
    _INT64_MAX,
    _argmax_mask,
    _float_counts,
    _log_plausibilities,
    init_state,
    tabulated,
)
from .simplex import (
    ObservationEvent,
    Proposition,
    UnknownOutcomeError,
    event_concat,
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

#: The binary connectives, loosest first; the parser and the printer both read
#: this table.  A connective's precedence level is its index, and unary forms
#: bind at _LVL_UNARY; a B( . | . ) body binds at _LVL_BODY, tighter than "|".
_CONNECTIVES = (("|", Or), ("&", And))
_LVL_UNARY, _LVL_BODY = len(_CONNECTIVES), 1


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
    def formula(self, level: int = 0) -> Formula:
        left = self.connectives(level)
        if self.at_op("->"):
            self.advance()
            return implies(left, self.formula(level))
        return left

    def connectives(self, level: int) -> Formula:
        """Unary operands joined by the connectives at `level` and tighter, by
        precedence climbing: each nests to the left over tighter right operands."""
        ops = [op for op, _ in _CONNECTIVES]
        node = self.unary()
        while self.at_op(*ops[level:]):
            at = ops.index(self.advance().text)
            node = _CONNECTIVES[at][1](node, self.connectives(at + 1))
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
        body = self.formula(_LVL_BODY)
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
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                self.advance()
                value = Fraction(value, int(den.text))
        else:
            raise ParseError(
                f"unexpected token {tok.text!r}", tok.pos, {"INT", "DECIMAL"}
            )
        return -value if negate else value


def _desugar_lin(terms, bound: Fraction, rel: str) -> Formula:
    ge = LinIneq(terms, bound)
    le = LinIneq(tuple((-a, o) for a, o in terms), -bound)
    return {">=": ge, "<=": le, "=": And(ge, le), ">": Not(le), "<": Not(ge)}[rel]


def parse(text: str, alphabet) -> Formula:
    """Parse the surface syntax into a formula AST.

    `alphabet` is needed to distinguish observation lists from formulas
    in condition and box positions, and to validate outcome names.
    """
    parser = _Parser(text, alphabet)
    try:
        node = parser.formula()
    except RecursionError:
        raise ParseError("formula nests too deeply", parser.cur.pos) from None
    end = parser.cur
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.pos)
    return node


# ---------------------------------------------------------------------------
# Printer


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
    for at, (op, kind) in enumerate(_CONNECTIVES):
        if isinstance(node, kind):
            text = f"{_print(node.left, at)} {op} {_print(node.right, at + 1)}"
            return f"({text})" if level > at else text
    if isinstance(node, K):
        return "K " + _print(node.operand, _LVL_UNARY)
    if isinstance(node, BelCond):
        if node.cond == TOP:
            if isinstance(node.body, Or):
                # "B (a | b)" would read as B(a | b); force the operand
                # reading with a second pair of parentheses.
                return f"B (({_print(node.body, 0)}))"
            return "B " + _print(node.body, _LVL_UNARY)
        body = _print(node.body, _LVL_BODY)
        return f"B({body} | {_print(node.cond, 0)})"
    if isinstance(node, BelObs):
        body = _print(node.body, _LVL_BODY)
        return f"B({body} | {','.join(node.obs)})"
    if isinstance(node, DynObs):
        return f"[{','.join(node.obs)}] " + _print(node.body, _LVL_UNARY)
    if isinstance(node, DynAnn):
        ann = _print(node.ann, 0)
        if isinstance(node.ann, Top):
            # Bare "[T]" would read as an observation of an outcome named T.
            ann = f"({ann})"
        return f"[{ann}] " + _print(node.body, _LVL_UNARY)
    raise TypeError(f"not a formula: {node!r}")


def print_formula(node: Formula) -> str:
    """Canonical text for a formula; re-parses to a structurally equal AST."""
    return _print(node, 0)


# ---------------------------------------------------------------------------
# Semantics
#
# A compiled formula is a list of hash-consed nodes.  A node is a tuple of
# its Formula class followed by the class's fields in declaration order,
# each Formula field replaced by its child's integer node id: (And, l, r),
# (DynObs, obs, body), (LinIneq, terms, bound).  Sampling changes only the
# plausibilities and an announcement only drops worlds, so an update makes a
# state of the root model: a domain, a bool mask over the root's worlds, and
# the evidence.  A state is an integer handle owned by the evaluator (the root
# is 0), and an extension is a bool mask over the root's worlds, read only in
# its state's domain; both become objects only at the public boundary.


@dataclass
class CheckResult:
    """Verdict of a formula at a world, with a shallow evaluation trace."""

    verdict: bool
    world: int
    trace: list[tuple[str, bool]] = field(default_factory=list)


def _decide_atom(model: Model, terms, bound: Fraction) -> np.ndarray:
    """Mask of the worlds where the sum of the terms is at least `bound`.

    Both sides are multiplied by the least common denominator of the
    coefficients and by the model's weight denominator: the sum becomes
    one integer dot product with the weight numerators, and the bound can
    be rounded up to an integer."""
    scale = math.lcm(*(coeff.denominator for coeff, _ in terms))
    alphabet = model.alphabet
    coefficients = [0] * alphabet.size
    for coeff, name in terms:
        coefficients[alphabet.index(name)] += scale // coeff.denominator * coeff.numerator
    threshold = -(-bound.numerator * scale * model.denominator // bound.denominator)
    largest = max(sum(map(abs, coefficients)) * model.denominator, abs(threshold))
    fits = model.numerators.dtype != object and largest <= _INT64_MAX
    dtype = np.int64 if fits else object
    weights = model.numerators.astype(dtype, copy=False)
    return weights @ np.array(coefficients, dtype=dtype) >= threshold


class _Evaluator:
    """Extensions of compiled formulas in the states of one root model."""

    def __init__(self, model: Model, skip_relativization: bool = False):
        self.model = model
        self.skip_relativization = skip_relativization
        self.states, self.state_ids = [], {}  # handle -> (domain, event), and back
        self._state(np.ones(len(model.worlds), dtype=bool), model.event)  # the root
        self.values = {model.event: model.log_values}  # event -> log values
        self.nodes: list[tuple] = []  # node id -> (class, *fields)
        self.node_ids: dict = {}  # node -> node id
        self.labels: dict = {}  # (handle, node id) -> bool mask

    def compile(self, f: Formula) -> int:
        """Node id of `f`; structurally equal formulas get the same id."""
        if not isinstance(f, Formula):
            raise TypeError(f"not a formula: {f!r}")
        return self._node_id(f, {})

    def _node_id(self, f: Formula, seen: dict) -> int:
        """Node id of `f`, walking each distinct subformula object once (a
        formula may share one object in many places).  `seen` maps the id()
        of each subformula walked so far in this compile to its node id;
        the formula being compiled keeps every one of them alive."""
        node_id = seen.get(id(f))
        if node_id is None:
            # A dataclass instance's __dict__ lists its fields in declaration
            # order.
            node = (type(f), *[
                self._node_id(v, seen) if isinstance(v, Formula) else v
                for v in vars(f).values()
            ])
            node_id = self.node_ids.get(node)
            if node_id is None:
                node_id = self.node_ids[node] = len(self.nodes)
                self.nodes.append(node)
            seen[id(f)] = node_id
        return node_id

    def label(self, handle: int, node_id: int) -> np.ndarray:
        """Extension of node `node_id` in state `handle`, as a bool mask.
        Masks are shared through the cache: never write to one."""
        key = (handle, node_id)
        mask = self.labels.get(key)
        if mask is None:
            mask = self.labels[key] = self._compute(handle, node_id)
        return mask

    def _compute(self, handle: int, node_id: int) -> np.ndarray:
        domain, event = self.states[handle]
        kind, *args = self.nodes[node_id]
        if kind is Top:
            return np.ones_like(domain)
        if kind is LinIneq:  # the same in every state, so decided at the root
            return self.label(0, node_id) if handle else _decide_atom(self.model, *args)
        if kind is Not:
            return ~self.label(handle, args[0])
        if kind is And:
            return self.label(handle, args[0]) & self.label(handle, args[1])
        if kind is Or:
            return self.label(handle, args[0]) | self.label(handle, args[1])
        if kind is K:
            return np.full_like(domain, self.label(handle, args[0])[domain].all())
        if kind is BelCond:
            # Belief in the body among the most plausible cond-worlds;
            # vacuously true when there are none, and then the body is not
            # labelled at all.
            within = domain & self.label(handle, args[1])
            best = _argmax_mask(self._values(event), within)
            holds = not best.any() or self.label(handle, args[0])[best].all()
            return np.full_like(domain, holds)
        if kind is BelObs:
            best = _argmax_mask(self._values(self._after(event, args[1])), domain)
            return np.full_like(domain, self.label(handle, args[0])[best].all())
        if kind is DynObs:
            return self.label(self._state(domain, self._after(event, args[0])), args[1])
        return self._announce(handle, args[0], args[1])

    def _after(self, event: ObservationEvent, obs) -> ObservationEvent:
        return event_concat(event, observe(self.model.alphabet, obs))

    def _values(self, event: ObservationEvent) -> np.ndarray:
        """Log-plausibilities of the root's worlds given `event`, computed by
        the conditioning kernel once per event."""
        if event not in self.values:
            m = self.model
            counts = _float_counts(event)
            self.values[event] = _log_plausibilities(m.base_log, m.log_weights, counts)
        return self.values[event]

    def _state(self, domain: np.ndarray, event: ObservationEvent) -> int:
        """Handle of the state (domain, event), however the updates reach it."""
        key = (domain.tobytes(), event)
        if key not in self.state_ids:
            self.state_ids[key] = len(self.states)
            self.states.append((domain, event))
        return self.state_ids[key]

    def _announce(self, handle: int, ann_id: int, body_id: int) -> np.ndarray:
        domain, event = self.states[handle]
        ann = domain & self.label(handle, ann_id)
        if self.skip_relativization:
            # Deliberately broken semantics for mutation testing: evaluate
            # the body after the announcement regardless of whether the
            # world satisfies it (keeping the world in the domain).
            out = np.zeros_like(ann)
            for i in np.flatnonzero(domain):
                kept = ann.copy()
                kept[i] = True
                out[i] = self.label(self._state(kept, event), body_id)[i]
            return out
        if not ann.any():
            return ~ann
        return ~ann | self.label(self._state(ann, event), body_id)


def _world_index(model: Model, world) -> int:
    """Index of `world`, a world of the model or an integer index (not a bool)."""
    if isinstance(world, (bool, np.bool_)):
        raise KeyError(f"{world!r} is not a world index")
    try:
        index = operator.index(world)
    except TypeError:
        index = model.worlds.index(world) if world in model.worlds else -1
    if not 0 <= index < len(model.worlds):
        raise KeyError(f"world {world} not in the model")
    return index


def satisfies(model: Model, world, f: Formula) -> bool:
    """True iff `f` holds at `world` (a MassFunction or index) in `model`."""
    index = _world_index(model, world)
    ev = _Evaluator(model)
    return bool(ev.label(0, ev.compile(f))[index])


def check(model: Model, world, f: Formula) -> CheckResult:
    """Like `satisfies`, with verdicts for the immediate subformulas."""
    index = _world_index(model, world)
    ev = _Evaluator(model)
    root = ev.compile(f)
    verdict = bool(ev.label(0, root)[index])
    # The node lists the fields in order, Formula fields as child ids.
    subs = [
        (sub, child)
        for sub, child in zip(vars(f).values(), ev.nodes[root][1:])
        if isinstance(sub, Formula)
    ]
    if type(f) is BelCond and f.cond == TOP:
        subs = subs[:1]  # a simple belief: its condition T is implicit
    trace = [
        (print_formula(sub), bool(ev.label(0, child)[index]))
        for sub, child in subs
    ]
    return CheckResult(verdict, index, trace)


def extension(model: Model, f: Formula, *, skip_relativization=False) -> Proposition:
    """The set of worlds of `model` satisfying `f`."""
    ev = _Evaluator(model, skip_relativization)
    return Proposition.of(np.flatnonzero(ev.label(0, ev.compile(f))).tolist())


def valid_in_model(model: Model, f: Formula, *, skip_relativization=False) -> bool:
    """True iff `f` holds at every world of `model`."""
    ev = _Evaluator(model, skip_relativization)
    return bool(ev.label(0, ev.compile(f)).all())


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


#: Formula kinds by the band of one uniform draw that picks them:
#: (band end, draws, builder), draws lettered as in `_SCHEMAS`.
_FORMULA_BANDS = (
    (0.25, "a", lambda atom: atom),
    (0.35, "f", Not),
    (0.45, "ff", And),
    (0.55, "ff", Or),
    (0.65, "f", K),
    (0.72, "f", belief),
    (0.79, "ff", BelCond),
    (0.86, "fl", BelObs),
    (0.93, "lf", DynObs),
    (1.0, "ff", DynAnn),
)


def random_formula(rng: random.Random, alphabet, max_depth: int) -> Formula:
    """A random formula of nesting depth at most `max_depth`."""
    if max_depth <= 0:
        return random_atom(rng, alphabet)
    pick, depth = rng.random(), max_depth - 1
    for end, draws, builder in _FORMULA_BANDS:
        if pick < end:
            return builder(*[_draw(letter, rng, alphabet, depth) for letter in draws])


DEFAULT_ALPHABETS = (("H", "T"), ("R", "B", "G"))


def random_model(rng: random.Random, max_worlds=10) -> Model:
    """A random finite model: a subset of a simplex grid with random
    tabulated plausibilities, occasionally pre-conditioned on evidence."""
    alphabet = make_alphabet(rng.choice(DEFAULT_ALPHABETS))
    grid = simplex_grid(alphabet, rng.choice([3, 4, 5, 6]))
    size = rng.randint(2, min(max_worlds, len(grid)))
    worlds = [grid[i] for i in sorted(rng.sample(range(len(grid)), size))]
    values = [rng.uniform(0.05, 10.0) for _ in worlds]
    if rng.random() < 0.1:
        values[rng.randrange(len(values))] = 0.0
    model = init_state(worlds, tabulated(values))
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
        return {**asdict(self), "ok": self.ok}


#: The validity schemas: name -> (draws, builder).  Each letter of `draws`
#: is one argument of the builder, drawn in that order: "f" a random formula,
#: "a" a random atom, "o" a random outcome, "l" a random observation list,
#: "A" the alphabet's outcome names (which draws nothing).
_SCHEMAS = {
    "w_nonneg": ("o", lambda o: LinIneq(((Fraction(1), o),), Fraction(0))),
    "w_sum_one": ("A", lambda names: _desugar_lin(
        tuple((Fraction(1), o) for o in names), Fraction(1), "=")),
    "K_distribution": ("ff", lambda p, q: implies(
        K(implies(p, q)), implies(K(p), K(q)))),
    "K_truth": ("f", lambda p: implies(K(p), p)),
    "K_pos_introspection": ("f", lambda p: implies(K(p), K(K(p)))),
    "K_neg_introspection": ("f", lambda p: implies(Not(K(p)), K(Not(K(p))))),
    "B_distribution": ("ff", lambda p, q: implies(
        belief(implies(p, q)), implies(belief(p), belief(q)))),
    "K_entails_B": ("f", lambda p: implies(K(p), belief(p))),
    "B_pos_introspection": ("f", lambda p: implies(belief(p), belief(belief(p)))),
    "B_neg_introspection": ("f", lambda p: implies(
        Not(belief(p)), belief(Not(belief(p))))),
    "B_reflexive_cond": ("f", lambda p: BelCond(p, p)),
    "B_cumulative": ("fff", lambda p, q, r: implies(
        BelCond(q, p), iff(BelCond(r, And(p, q)), BelCond(r, p)))),
    "B_rational_monotony": ("fff", lambda p, q, r: implies(
        Not(BelCond(Not(q), p)),
        iff(BelCond(r, And(p, q)), BelCond(implies(q, r), p)))),
    "announce_atom": ("fa", lambda p, q: iff(DynAnn(p, q), implies(p, q))),
    "observe_atom": ("ao", lambda q, o: iff(DynObs((o,), q), q)),
    "announce_negation": ("ff", lambda p, q: iff(
        DynAnn(p, Not(q)), implies(p, Not(DynAnn(p, q))))),
    "observe_negation": ("of", lambda o, q: iff(
        DynObs((o,), Not(q)), Not(DynObs((o,), q)))),
    "announce_conjunction": ("fff", lambda p, q, r: iff(
        DynAnn(p, And(q, r)), And(DynAnn(p, q), DynAnn(p, r)))),
    "observe_conjunction": ("off", lambda o, q, r: iff(
        DynObs((o,), And(q, r)), And(DynObs((o,), q), DynObs((o,), r)))),
    "announce_knowledge": ("ff", lambda p, q: iff(
        DynAnn(p, K(q)), implies(p, K(DynAnn(p, q))))),
    "observe_knowledge": ("of", lambda o, q: iff(
        DynObs((o,), K(q)), K(DynObs((o,), q)))),
    "announce_belief": ("fff", lambda p, q, r: iff(
        DynAnn(p, BelCond(q, r)),
        implies(p, BelCond(DynAnn(p, q), And(p, DynAnn(p, r)))))),
    "observe_belief": ("oof", lambda o, o2, q: iff(
        DynObs((o,), BelObs(q, (o2,))), BelObs(DynObs((o,), q), (o, o2)))),
}


def _draw(letter: str, rng: random.Random, alphabet, depth: int):
    """One argument of a schema builder (see `_SCHEMAS`)."""
    if letter == "f":
        return random_formula(rng, alphabet, depth)
    if letter == "a":
        return random_atom(rng, alphabet)
    if letter == "o":
        return rng.choice(alphabet.names)
    if letter == "l":
        return tuple(rng.choice(alphabet.names) for _ in range(rng.choice([1, 1, 2, 3])))
    return alphabet.names


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
    counterexamples: list[Counterexample] = []

    def record(name: str, model: Model, instance: Formula):
        ext = extension(model, instance, skip_relativization=skip_relativization)
        failing = sorted(set(range(len(model.worlds))) - ext.members)
        worlds = [str(w) for w in model.worlds]
        counterexamples.append(
            Counterexample(name, print_formula(instance), worlds, failing)
        )

    for _ in range(trials):
        model = random_model(rng, max_worlds)
        alphabet = model.alphabet
        for name, (draws, builder) in _SCHEMAS.items():
            instance = builder(
                *(_draw(letter, rng, alphabet, formula_depth) for letter in draws)
            )
            if not valid_in_model(
                model, instance, skip_relativization=skip_relativization
            ):
                record(name, model, instance)
        violated = _check_cond_equivalence(model, rng, alphabet, formula_depth)
        if violated is not None:
            record("B_cond_equivalence", model, violated)

    checked = dict.fromkeys([*_SCHEMAS, "B_cond_equivalence"], trials)
    return ValidityReport(trials, seed, checked, counterexamples)
