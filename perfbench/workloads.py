"""The three workloads: their set-up, their seeded inputs, their ops, and
the checks that decide whether each op's output is right.

Each workload yields `(kind, input, expect)` triples forever from its seed.
`kind` is "op" or "paired"; the program receives only `input`; `expect` is
what the benchmark itself knows about the input and uses only in checks.
A "paired" op always repeats the input of the op before it in another form.

Importing this module imports plausilearn, so it belongs to set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

from plausilearn import cli, convergence, doxastic, logic, plausibility, simplex

URN = ("R", "B", "G")


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run a `plausilearn` subcommand in this process, capturing stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Settle:
    """Settling experiments on a 3-outcome urn grid, `plausilearn simulate`
    shaped: two learner-only ops, then a paired op with the Bayesian
    baseline on the second one's seed."""

    name = "settle"
    trace_ops = 15
    trials = 1
    truth = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
    epsilon = 0.15

    def __init__(self, tiny: bool = False):
        self.resolution, self.horizon = (10, 200) if tiny else (30, 2000)
        self._references: dict[int, list] = {}

    def setup(self, workdir: str) -> None:
        urn = simplex.make_alphabet(URN)
        self.cfg = convergence.TrialConfig(
            worlds=tuple(simplex.simplex_grid(urn, self.resolution)),
            plausibility=plausibility.ENTROPY,
            truth=simplex.mass_function(urn, self.truth),
            horizon=self.horizon,
            seed=0,
            epsilon=self.epsilon,
        )

    def inputs(self, seed: int):
        rng = random.Random(seed)
        while True:
            first, second = rng.getrandbits(32), rng.getrandbits(32)
            yield "op", first, None
            yield "op", second, None
            yield "paired", second, None

    def run(self, kind: str, base_seed: int):
        return convergence.run_experiment(
            self.cfg, self.trials, base_seed, include_baseline=kind == "paired"
        )

    def compact(self, kind: str, summary):
        return summary

    @staticmethod
    def _trials(summary) -> list:
        return [
            [t.settled, t.settle_time, sorted(t.final_argmax)]
            for t in summary.trial_results
        ]

    def canonical(self, kind: str, summary):
        out = {"summary": summary.to_dict(), "trials": self._trials(summary)}
        if summary.baseline is not None:
            out["baseline"] = self._trials(summary.baseline)
        return out

    # -- checks -------------------------------------------------------------

    def _reference(self, stream_seed: int) -> list:
        """[settled, settle_time, final argmax] of one learner trial,
        recomputed for the whole horizon at once from cumulative counts.

        A step fails when a world outside the ball ties the maximum.  The
        most plausible outside world is the one that ties first, so the
        ball's worlds come first in `order` and two row maxima decide it.
        """
        if stream_seed in self._references:
            return self._references[stream_seed]
        cfg = self.cfg
        if not self._references:
            ball = simplex.epsilon_ball(cfg.truth, self.epsilon, list(cfg.worlds)).members
            self._order = sorted(range(len(cfg.worlds)), key=lambda i: i not in ball)
            self._inside = len(ball)
            self._logw = np.stack([cfg.worlds[i].log_weights() for i in self._order])
            base = plausibility.init_state(cfg.worlds, cfg.plausibility).base_log
            self._base = base[self._order]
        stream = simplex.sample_stream(cfg.truth, self.horizon, stream_seed)
        counts = np.cumsum(np.eye(self._logw.shape[1])[list(stream.outcomes)], axis=0)
        tol = plausibility.TIE_TOLERANCE
        with np.errstate(invalid="ignore"):
            # Left to right over the outcomes, leaving unseen ones out: the
            # same float sums as conditioning itself.
            total = 0.0
            for j in range(counts.shape[1]):
                c = counts[:, j:j + 1]
                total = total + np.where(c > 0, self._logw[:, j] * c, 0.0)
            values = self._base + total
            outside = values[:, self._inside:].max(axis=1, initial=-math.inf)
            best = np.maximum(values[:, :self._inside].max(axis=1, initial=-math.inf),
                              outside)
            fails = (outside > -math.inf) & (
                np.abs(outside - best)
                <= tol * np.maximum(1.0, np.maximum(np.abs(outside), np.abs(best)))
            )
            fails |= (best == -math.inf) & (self._inside < len(self._order))
            last = values[-1]
            ties = (last > -math.inf) & (
                np.abs(last - best[-1])
                <= tol * np.maximum(1.0, np.maximum(np.abs(last), abs(best[-1])))
            )
        if best[-1] == -math.inf:
            ties[:] = True
        failing = np.flatnonzero(fails)
        last_failure = int(failing[-1]) + 1 if failing.size else 0
        settled = last_failure < self.horizon
        reference = [settled, last_failure + 1 if settled else None,
                     sorted(self._order[k] for k in np.flatnonzero(ties))]
        self._references[stream_seed] = reference
        return reference

    def step_by_step(self, stream_seed: int) -> int | None:
        """Settle time of one trial, one observation at a time through the
        public conditioning and argmax functions."""
        cfg = self.cfg
        urn = cfg.truth.alphabet
        state = plausibility.init_state(cfg.worlds, cfg.plausibility)
        ball = simplex.epsilon_ball(cfg.truth, self.epsilon, list(cfg.worlds))
        last_failure = 0
        stream = simplex.sample_stream(cfg.truth, self.horizon, stream_seed)
        for m, outcome in enumerate(stream.outcomes, start=1):
            unit = tuple(int(i == outcome) for i in range(urn.size))
            state = plausibility.condition(state, simplex.ObservationEvent(urn, unit))
            if not plausibility.argmax_worlds(state) <= ball:
                last_failure = m
        return last_failure + 1 if last_failure < self.horizon else None

    def _malformed(self, summary) -> bool:
        trials = summary.trial_results
        times = [t.settle_time for t in trials if t.settled]
        expected = {
            "trials": len(trials),
            "settle_fraction": len(times) / len(trials),
            "settle_time_median": float(np.median(times)) if times else None,
            "settle_time_max": max(times) if times else None,
        }
        d = summary.to_dict()
        return any(d[k] != v for k, v in expected.items()) or any(
            t.settled != (t.settle_time is not None)
            or not 1 <= (t.settle_time or 1) <= self.horizon
            for t in trials
        )

    def check_op(self, ops, i: int) -> str | None:
        op = ops[i]
        summary = op.output
        seeds = convergence.trial_seeds(op.input, self.trials)
        if self._malformed(summary):
            return "summary disagrees with its trials"
        if self._trials(summary) != [self._reference(s) for s in seeds]:
            return "learner trial differs from the reference recomputation"
        if op.kind == "paired":
            before = ops[i - 1].output
            learner = {k: v for k, v in summary.to_dict().items() if k != "baseline"}
            if self._trials(before) != self._trials(summary) or before.to_dict() != learner:
                return "paired learner results differ from the learner op"
            if summary.baseline is None or self._malformed(summary.baseline):
                return "baseline results are malformed"
        # The sampled trial: the first op's first trial, through the public API.
        if i == 0 and self.step_by_step(seeds[0]) != summary.trial_results[0].settle_time:
            return "settle time differs from step-by-step conditioning"
        return None


class Axioms:
    """The clean randomized axiom suite: three direct `axiom_suite` calls,
    then the third one's seed again through `plausilearn axioms`."""

    name = "axioms"
    trace_ops = 60
    depth, max_worlds = 2, 10
    schemas = 24  # validity schemas in the suite at the benchmark's seed commit

    def __init__(self, tiny: bool = False):
        self.trials = 1 if tiny else 4

    def setup(self, workdir: str) -> None:
        pass  # nothing to build: set-up is the import alone

    def inputs(self, seed: int):
        rng = random.Random(seed)
        while True:
            seeds = [rng.getrandbits(32) for _ in range(3)]
            for s in seeds:
                yield "op", s, None
            yield "paired", seeds[-1], None

    def run(self, kind: str, seed: int):
        if kind == "op":
            return logic.axiom_suite(
                trials=self.trials, seed=seed,
                formula_depth=self.depth, max_worlds=self.max_worlds,
            )
        return cli_call(["axioms", "--trials", str(self.trials), "--seed", str(seed),
                         "--depth", str(self.depth)])

    def compact(self, kind: str, output):
        return output

    def canonical(self, kind: str, output):
        return output.to_dict() if kind == "op" else list(output)

    def check_op(self, ops, i: int) -> str | None:
        op = ops[i]
        if op.kind == "paired":
            code, stdout = op.output
            if code != 0 or json.loads(stdout) != ops[i - 1].output.to_dict():
                return "CLI report differs from the direct call"
            return None
        d = op.output.to_dict()
        if not d["ok"] or d["counterexamples"]:
            return "the clean suite reported a counterexample"
        if (d["trials"], d["seed"]) != (self.trials, op.input) or (
            len(d["checked"]) != self.schemas
            or set(d["checked"].values()) != {self.trials}
        ):
            return "not every schema was checked once per trial"
        return None


class Check:
    """Model checking of seeded depth-3 random formulas, given as text, on
    one large urn grid model: five direct parse/extension/print ops, one
    per length stratum in a seeded order, then the fifth formula again
    through `plausilearn check`."""

    name = "check"
    trace_ops = 96
    depth = 3
    complement_every = 8
    # An op's cost grows with its formula's length.  These cuts split the
    # text lengths of depth-3 formulas over R,B,G into fifths (measured on
    # 2,000 of them), and every cycle of ops takes one formula from each
    # fifth, so the mix of cheap and costly ops does not drift with the seed.
    length_cuts = (21, 36, 58, 89)

    def __init__(self, tiny: bool = False):
        self.resolution = 10 if tiny else 60

    def setup(self, workdir: str) -> None:
        self.path = os.path.join(workdir, "grid.json")
        code, _ = cli_call(["grid", "--alphabet", ",".join(URN), "--resolution",
                            str(self.resolution), "--plausibility", "entropy",
                            "-o", self.path])
        if code != 0:
            raise RuntimeError(f"plausilearn grid exited with {code}")
        self.model = doxastic.load_model(self.path)

    def inputs(self, seed: int):
        rng = random.Random(seed)
        alphabet = self.model.alphabet
        waiting: list[list] = [[] for _ in range(len(self.length_cuts) + 1)]

        def drawn(stratum: int):
            while not waiting[stratum]:
                formula = logic.random_formula(rng, alphabet, self.depth)
                text = logic.print_formula(formula)
                waiting[sum(len(text) >= cut for cut in self.length_cuts)].append(
                    (text, formula))
            return waiting[stratum].pop(0)

        while True:
            for stratum in rng.sample(range(len(waiting)), len(waiting)):
                text, formula = drawn(stratum)
                yield "op", text, formula
            yield "paired", text, formula

    def run(self, kind: str, text: str):
        if kind == "op":
            ast = logic.parse(text, self.model.alphabet)
            ext = logic.extension(self.model, ast)
            return ast, ext, logic.print_formula(ast)
        return cli_call(["check", "--model", self.path, "--formula", text])

    def compact(self, kind: str, output):
        """The extension as a bitmask: kept for every op until the checks,
        frozensets of up to 1,891 worlds would grow the process."""
        if kind == "paired":
            return output
        ast, ext, printed = output
        return ast, sum(1 << world for world in ext.members), printed

    def canonical(self, kind: str, output):
        return list(output[1:]) if kind == "op" else list(output)

    def check_op(self, ops, i: int) -> str | None:
        op = ops[i]
        n = len(self.model.worlds)
        if op.kind == "paired":
            code, stdout = op.output
            _, ext, printed = ops[i - 1].output
            verdicts = [bool(ext >> world & 1) for world in range(n)]
            expected = {"formula": printed, "verdicts": verdicts, "valid": all(verdicts)}
            if json.loads(stdout) != expected or code != (0 if all(verdicts) else 1):
                return "CLI verdicts differ from the direct call"
            return None
        ast, ext, printed = op.output
        if ast != op.expect or printed != op.input:
            return "formula did not survive parse and print"
        if logic.parse(printed, self.model.alphabet) != ast:
            return "parse(print_formula(ast)) != ast"
        if ext >> n:
            return "extension names a world outside the model"
        if i % self.complement_every == 0:
            negated = logic.extension(self.model, logic.Not(ast)).members
            if sum(1 << world for world in negated) != ext ^ ((1 << n) - 1):
                return "extension of ~f is not the complement of the extension of f"
        return None


def check_all(workload, ops) -> list[str | None]:
    """Why each op's output is wrong, or None where it is right."""
    reasons: list[str | None] = []
    for i, op in enumerate(ops):
        if op.error is not None:
            reasons.append(op.error)
        elif op.kind == "paired" and ops[i - 1].error is not None:
            reasons.append("the op it repeats failed")
        else:
            try:
                reasons.append(workload.check_op(ops, i))
            except Exception as exc:  # a malformed output fails its op
                reasons.append(f"checking raised {exc!r}")
    return reasons


WORKLOADS = {w.name: w for w in (Settle, Axioms, Check)}
