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

Model checking labels every subformula with its extension, a Python int
bitset over the model's worlds, bottom up (Clarke, Grumberg & Peled, *Model
Checking*), under the conditional-belief and update semantics of Baltag &
Smets (2008).  An evaluator labels each subformula object once in each state
that updates reach, in one walk over an explicit stack, so a formula of any
depth checks.  Each entry point uses one evaluator per call, and
`axiom_suite` one per random model, for all of that trial's instances.
Equal linear atoms are decided once per evaluator, for every world at once,
exactly, by one integer dot product with the world weights over their common
denominator.
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
    _INT64_MAX,
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


#: A token; its one group makes `re.split` keep the tokens.  A token's first
#: character tells its kind: a digit starts a number (an INT, or a DECIMAL if
#: it holds a "."), a letter or "_" an identifier, and any other an operator.
_TOKEN_RE = re.compile(
    r"(\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|->|>=|<=|[=><~&|()\[\],*+/-])"
)


def _tokenize(text: str) -> list[str]:
    """The token texts of `text`, then "" to mark the end."""
    parts = _TOKEN_RE.split(text)  # gap, token, gap, ..., token, gap
    if "".join(parts[::2]).strip():  # a character in a gap starts no token
        rest = _TOKEN_RE.sub(lambda m: " " * len(m[0]), text)  # blank the tokens
        pos = len(rest) - len(rest.lstrip())
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return parts[1::2] + [""]


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, alphabet):
        self.text = text
        self.tokens = _tokenize(text)
        self.alphabet = alphabet
        self.i, self.tok = 0, self.tokens[0]

    def advance(self) -> str:
        tok = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return tok

    def accept(self, op: str) -> bool:
        """Consume the current token if it is `op`."""
        if self.tok != op:
            return False
        self.advance()
        return True

    def expect_op(self, *ops: str) -> str:
        if self.tok not in ops:
            raise self.error(f"unexpected token {self.tok!r}", ops)
        return self.advance()

    def error(self, message: str, expected=()) -> ParseError:
        """A parse error at the current token, found by scanning the text again."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        return ParseError(message, [*starts, len(self.text)][self.i], expected)

    # formula := impl; impl := or ("->" impl)?
    def formula(self, level: int = 0) -> Formula:
        left = self.connectives(level)
        if self.accept("->"):
            return implies(left, self.formula(level))
        return left

    def connectives(self, level: int) -> Formula:
        """Unary operands joined by the connectives at `level` and tighter, by
        precedence climbing: each nests to the left over tighter right operands."""
        ops = [op for op, _ in _CONNECTIVES]
        node = self.unary()
        while self.tok in ops[level:]:
            at = ops.index(self.advance())
            node = _CONNECTIVES[at][1](node, self.connectives(at + 1))
        return node

    def unary(self) -> Formula:
        tok = self.tok
        if tok not in ("~", "K", "B", "["):
            return self.atom()
        self.advance()
        if tok == "~":
            return Not(self.unary())
        if tok == "K":
            return K(self.unary())
        if tok == "B":
            return self.after_belief()
        obs = self.try_obslist("]")
        if obs is not None:
            return DynObs(obs, self.unary())
        ann = self.formula()
        self.expect_op("]")
        return DynAnn(ann, self.unary())

    def after_belief(self) -> Formula:
        if not self.accept("("):
            return belief(self.unary())
        # Body may not use a bare top-level "|": that separates the
        # condition.  Parenthesise a top-level disjunction in the body.
        body = self.formula(_LVL_BODY)
        if self.accept(")"):
            return belief(body)
        self.expect_op("|")
        obs = self.try_obslist(")")
        if obs is not None:
            return BelObs(body, obs)
        cond = self.formula()
        self.expect_op(")")
        return BelCond(body, cond)

    def try_obslist(self, closer: str) -> tuple[str, ...] | None:
        """Consume ``OUTCOME ("," OUTCOME)*`` and `closer` if the upcoming
        tokens are exactly that; otherwise consume nothing."""
        tokens, j = self.tokens, self.i
        while tokens[j].isidentifier() and tokens[j] in self.alphabet:
            if tokens[j + 1] == closer:
                names = tuple(tokens[self.i : j + 1 : 2])
                self.i, self.tok = j + 2, tokens[j + 2]
                return names
            if tokens[j + 1] != ",":
                return None
            j += 2
        return None

    def atom(self) -> Formula:
        if self.accept("T"):
            return TOP
        if self.accept("("):
            node = self.formula()
            self.expect_op(")")
            return node
        tok = self.tok
        if tok[:1].isdecimal() or tok in ("-", "w"):
            return self.lin()
        raise self.error(
            f"unexpected token {tok or 'end of input'!r}",
            {"T", "w(", "(", "~", "K", "B", "["},
        )

    def lin(self) -> Formula:
        terms = [self.term(allow_leading_minus=True)]
        while self.tok in ("+", "-"):
            sign = self.advance()
            coeff, name = self.term()
            if sign == "-":
                coeff = -coeff
            terms.append((coeff, name))
        rel = self.expect_op(">=", "<=", "=", ">", "<")
        bound = self.rational()
        return _desugar_lin(tuple(terms), bound, rel)

    def term(self, allow_leading_minus: bool = False) -> tuple[Fraction, str]:
        negate = allow_leading_minus and self.accept("-")
        coeff = Fraction(1)
        if self.tok[:1].isdecimal():
            coeff = self.rational()
            self.expect_op("*")
        if negate:
            coeff = -coeff
        if self.tok != "w":
            raise self.error(f"unexpected token {self.tok!r}", {"w("})
        self.advance()
        self.expect_op("(")
        name = self.tok
        if not name.isidentifier():
            raise self.error("expected outcome name")
        if name not in self.alphabet:
            raise UnknownOutcomeError(f"unknown outcome {name!r}")
        self.advance()
        self.expect_op(")")
        return coeff, name

    def rational(self) -> Fraction:
        negate = self.accept("-")
        tok = self.tok
        if not tok[:1].isdecimal():
            raise self.error(f"unexpected token {tok!r}", {"INT", "DECIMAL"})
        self.advance()
        value = Fraction(tok)
        if tok.isdecimal() and self.accept("/"):  # an INT may take a denominator
            den = self.tok
            if not den.isdecimal():
                raise self.error("expected denominator", {"INT"})
            if int(den) == 0:
                raise self.error("zero denominator")
            self.advance()
            value /= int(den)
        return -value if negate else value


def _desugar_lin(terms, bound: Fraction, rel: str) -> Formula:
    if rel == ">=":
        return LinIneq(terms, bound)
    ge = LinIneq(terms, bound)
    le = LinIneq(tuple((-a, o) for a, o in terms), -bound)
    return {"<=": le, "=": And(ge, le), ">": Not(le), "<": Not(ge)}[rel]


def parse(text: str, alphabet) -> Formula:
    """Parse the surface syntax into a formula AST.

    `alphabet` is needed to distinguish observation lists from formulas
    in condition and box positions, and to validate outcome names.
    """
    parser = _Parser(text, alphabet)
    try:
        node = parser.formula()
    except RecursionError:
        raise parser.error("formula nests too deeply") from None
    if parser.tok:
        raise parser.error(f"trailing input {parser.tok!r}")
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
            # A left spine of one connective prints without parentheses; a
            # loop walks it, so a flat chain of any length prints.  A right
            # operand costs one stack frame, as a "->" does in the parser.
            rights = []
            while isinstance(node, kind):
                rights.append(node.right)
                node = node.left
            parts = [_print(node, at)]
            for right in reversed(rights):
                parts.append(_print(right, at + 1))
            text = f" {op} ".join(parts)
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
# Sampling changes only the plausibilities and an announcement only drops
# worlds, so an update makes a state of the root model: a domain, an int bitset
# over the root's worlds (bit i for world i), and the evidence.  A state is an
# integer handle owned by the evaluator (the root is 0), and an extension is a
# bitset over the root's worlds, read only in its state's domain; both become
# objects only at the public boundary, and a bitset becomes a numpy bool mask
# only at the atom and argmax kernels.  Each subformula object is labelled once
# in each state that reaches it; equal linear atoms are decided, the evidence
# after an observation list is built, and the argmax of a domain under an
# evidence is found once per evaluator.  An evaluator lives as long as its
# caller keeps it: one public call, or one trial of the axiom suite.


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
    """Extensions of formulas in the states of one root model.

    An extension or a domain is a Python int bitset, bit i for world i of
    the root; it becomes a bool mask only at the atom and argmax kernels.
    Labels are keyed by (state handle, id(subformula)).  The evaluator keeps
    a reference to every formula it labels, and so to each subformula, so no
    id it has keyed is reused while it lives: one evaluator can serve any
    number of calls on its model."""

    def __init__(self, model: Model, skip_relativization: bool = False):
        self.model = model
        self.skip_relativization = skip_relativization
        self.size = len(model.worlds)
        self.full = (1 << self.size) - 1
        self.states, self.state_ids = [], {}  # handle -> (domain, event), and back
        self._state(self.full, model.event)  # the root
        self.values = {model.event: model.log_values}  # event -> log values
        self.updates: dict = {}  # (event, observations) -> event after them
        self.best: dict = {}  # (event, domain) -> argmax bitset
        self.atoms: dict = {}  # LinIneq -> bitset, the same in every state
        self.labels: dict = {}  # (handle, id(subformula)) -> bitset
        self.kept: list = []  # every formula labelled, keeping its ids in use

    def label(self, handle: int, f: Formula) -> int:
        """Extension of `f` in state `handle`, as a bitset.

        One loop drives an explicit stack of `_compute` generators, so a
        formula of any depth is labelled without recursion: each generator
        yields the (state, subformula) pairs it needs, in order, and is sent
        back their bitsets."""
        key = (handle, id(f))
        if key in self.labels:
            return self.labels[key]
        self.kept.append(f)
        stack, bits = [(key, self._compute(handle, f))], None
        while stack:
            key, walk = stack[-1]
            try:
                handle, f = walk.send(bits)
            except StopIteration as done:
                stack.pop()
                bits = self.labels[key] = done.value
                continue
            key = (handle, id(f))
            bits = self.labels.get(key)
            if bits is None:
                stack.append((key, self._compute(handle, f)))
        return bits

    def valid(self, f: Formula) -> bool:
        """True iff `f` holds at every world of the root."""
        return self.label(0, f) == self.full

    def _compute(self, handle: int, f: Formula):
        """Generator of the extension of `f` in state `handle`."""
        domain, event = self.states[handle]
        kind = type(f)
        if kind is Top:
            return self.full
        if kind is LinIneq:
            bits = self.atoms.get(f)
            if bits is None:
                mask = _decide_atom(self.model, f.terms, f.bound)
                bits = self.atoms[f] = _bits(mask)
            return bits
        if kind is Not:
            return self.full ^ (yield handle, f.operand)
        if kind is And:
            return (yield handle, f.left) & (yield handle, f.right)
        if kind is Or:
            return (yield handle, f.left) | (yield handle, f.right)
        if kind is K:
            return self._all((yield handle, f.operand) & domain == domain)
        if kind is BelCond:
            # Belief in the body among the most plausible cond-worlds;
            # vacuously true when there are none, and then the body is not
            # labelled at all.
            best = self._argmax(event, domain & (yield handle, f.cond))
            return self._all(not best or (yield handle, f.body) & best == best)
        if kind is BelObs:
            best = self._argmax(self._after(event, f.obs), domain)
            return self._all((yield handle, f.body) & best == best)
        if kind is DynObs:
            return (yield self._state(domain, self._after(event, f.obs)), f.body)
        if kind is DynAnn:
            return (yield from self._announce(handle, f))
        raise TypeError(f"not a formula: {f!r}")

    def _all(self, holds: bool) -> int:
        """The extension of a verdict that is the same at every world."""
        return self.full if holds else 0

    def _after(self, event: ObservationEvent, obs) -> ObservationEvent:
        key = (event, obs)
        if key not in self.updates:
            self.updates[key] = event_concat(event, observe(self.model.alphabet, obs))
        return self.updates[key]

    def _values(self, event: ObservationEvent) -> np.ndarray:
        """Log-plausibilities of the root's worlds given `event`, computed by
        the conditioning kernel once per event."""
        if event not in self.values:
            m = self.model
            counts = _float_counts(event)
            self.values[event] = _log_plausibilities(m.base_log, m.log_weights, counts)
        return self.values[event]

    def _argmax(self, event: ObservationEvent, within: int) -> int:
        """The most plausible worlds of `within` given `event`."""
        key = (event, within)
        if key not in self.best:
            mask = _argmax_mask(self._values(event), _mask(within, self.size))
            self.best[key] = _bits(mask)
        return self.best[key]

    def _state(self, domain: int, event: ObservationEvent) -> int:
        """Handle of the state (domain, event), however the updates reach it."""
        key = (domain, event)
        if key not in self.state_ids:
            self.state_ids[key] = len(self.states)
            self.states.append(key)
        return self.state_ids[key]

    def _announce(self, handle: int, f: DynAnn):
        """Generator of the extension of the announcement `f` in state `handle`."""
        domain, event = self.states[handle]
        ann = domain & (yield handle, f.ann)
        if self.skip_relativization:
            # Deliberately broken semantics for mutation testing: evaluate
            # the body after the announcement regardless of whether the
            # world satisfies it (keeping the world in the domain).
            out = 0
            for i in range(self.size):
                bit = 1 << i
                if domain & bit:
                    out |= (yield self._state(ann | bit, event), f.body) & bit
            return out
        if not ann:
            return self.full
        return (self.full ^ ann) | (yield self._state(ann, event), f.body)


def _bits(mask: np.ndarray) -> int:
    """The bitset of a bool mask: bit i is set where mask[i] is True."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _mask(bits: int, size: int) -> np.ndarray:
    """The bool mask of the first `size` bits of a bitset."""
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool)


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
    return bool(_Evaluator(model).label(0, f) >> index & 1)


def check(model: Model, world, f: Formula) -> CheckResult:
    """Like `satisfies`, with verdicts for the immediate subformulas."""
    index = _world_index(model, world)
    ev = _Evaluator(model)
    verdict = bool(ev.label(0, f) >> index & 1)
    subs = [sub for sub in vars(f).values() if isinstance(sub, Formula)]
    if type(f) is BelCond and f.cond == TOP:
        subs = subs[:1]  # a simple belief: its condition T is implicit
    trace = [(print_formula(sub), bool(ev.label(0, sub) >> index & 1)) for sub in subs]
    return CheckResult(verdict, index, trace)


def extension(model: Model, f: Formula, *, skip_relativization=False) -> Proposition:
    """The set of worlds of `model` satisfying `f`."""
    ev = _Evaluator(model, skip_relativization)
    return Proposition.of(np.flatnonzero(_mask(ev.label(0, f), ev.size)).tolist())


def valid_in_model(model: Model, f: Formula, *, skip_relativization=False) -> bool:
    """True iff `f` holds at every world of `model`."""
    return _Evaluator(model, skip_relativization).valid(f)


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


def _check_cond_equivalence(ev: _Evaluator, rng, alphabet, depth) -> Formula | None:
    """Substitution-of-equivalents: when p <-> q is valid in the model,
    B(r | p) <-> B(r | q) must be too.  Returns a violated instance."""
    p = random_formula(rng, alphabet, depth)
    q = random_formula(rng, alphabet, depth)
    equivalence = iff(p, q)
    if not ev.valid(equivalence):
        # Nudge the check to fire sometimes: q := p & T is always equivalent.
        q = And(p, TOP)
        equivalence = iff(p, q)
    r = random_formula(rng, alphabet, depth)
    instance = iff(BelCond(r, p), BelCond(r, q))
    if ev.valid(equivalence) and not ev.valid(instance):
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
    for the suite itself).  Each trial's model is checked by one evaluator.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    counterexamples: list[Counterexample] = []

    def record(name: str, ev: _Evaluator, instance: Formula):
        bits = ev.label(0, instance)
        failing = [i for i in range(ev.size) if not bits >> i & 1]
        worlds = [str(w) for w in ev.model.worlds]
        counterexamples.append(
            Counterexample(name, print_formula(instance), worlds, failing)
        )

    for _ in range(trials):
        ev = _Evaluator(random_model(rng, max_worlds), skip_relativization)
        alphabet = ev.model.alphabet
        for name, (draws, builder) in _SCHEMAS.items():
            instance = builder(
                *(_draw(letter, rng, alphabet, formula_depth) for letter in draws)
            )
            if not ev.valid(instance):
                record(name, ev, instance)
        violated = _check_cond_equivalence(ev, rng, alphabet, formula_depth)
        if violated is not None:
            record("B_cond_equivalence", ev, violated)

    checked = dict.fromkeys([*_SCHEMAS, "B_cond_equivalence"], trials)
    return ValidityReport(trials, seed, checked, counterexamples)
