"""Command-line entry point: grid, check, axioms, simulate.

Exit codes: 0 on success (and true verdicts), 1 when a checked formula is
not valid or the axiom suite finds a counterexample, 2 on usage or I/O
errors.  All randomness is seeded, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import textwrap
from fractions import Fraction

from . import convergence, doxastic, logic, simplex
from .plausibility import Model, init_state

# The grammar has one source: the EBNF block of the `logic` docstring.
_EBNF = re.search(r"EBNF\)::\n\n(.*?)\n\n", logic.__doc__ or "", re.S)
_GRAMMAR_HELP = (
    "Formula syntax:\n"
    + (textwrap.indent(textwrap.dedent(_EBNF.group(1)), "  ") + "\n" if _EBNF else "")
    + "Identifiers naming alphabet outcomes parse as observations inside B(.|.)\n"
    "and [.]; anything else parses as a formula.\n"
)


class _UsageError(Exception):
    pass


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load_model(path: str) -> Model:
    try:
        return doxastic.load_model(path)
    except OSError as exc:
        raise _UsageError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:  # before ValueError, its base class
        raise _UsageError(
            f"malformed model JSON in {path} at line {exc.lineno}: {exc.msg}"
        ) from exc
    except (KeyError, ValueError) as exc:  # UnicodeDecodeError included
        raise _UsageError(f"bad model file {path}: {exc}") from exc


def _cmd_grid(args) -> int:
    if args.resolution < 1:
        raise _UsageError("--resolution must be at least 1")
    try:
        alphabet = simplex.make_alphabet(args.alphabet.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad --alphabet: {exc}") from exc
    worlds = simplex.simplex_grid(alphabet, args.resolution)
    model = init_state(worlds, doxastic.PLAUSIBILITY_NAMES[args.plausibility])
    if args.condition:
        try:
            event = simplex.parse_event(alphabet, args.condition)
        except simplex.UnknownOutcomeError as exc:
            raise _UsageError(f"bad --condition: {exc}") from exc
        model = doxastic.update_sampling(model, event)
    if args.output:
        try:
            doxastic.save_model(args.output, model)
        except OSError as exc:
            raise _UsageError(f"cannot write model file {args.output}: {exc}") from exc
        sys.stdout.write(
            f"wrote model with {len(worlds)} worlds to {args.output}\n"
        )
    else:
        _emit_json(doxastic.model_to_dict(model))
    return 0


def _cmd_check(args) -> int:
    model = _load_model(args.model)
    try:
        formula = logic.parse(args.formula, model.alphabet)
    except (logic.ParseError, simplex.UnknownOutcomeError) as exc:
        raise _UsageError(f"bad formula: {exc}") from exc
    ext = logic.extension(model, formula)
    verdicts = [i in ext for i in range(len(model.worlds))]
    valid = all(verdicts)
    if args.format == "table":
        for i, (world, verdict) in enumerate(zip(model.worlds, verdicts)):
            sys.stdout.write(f"{i}\t{world}\t{verdict}\n")
        sys.stdout.write(f"valid\t{valid}\n")
    else:
        _emit_json(
            {
                "formula": logic.print_formula(formula),
                "verdicts": verdicts,
                "valid": valid,
            }
        )
    return 0 if valid else 1


def _cmd_axioms(args) -> int:
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.depth < 0:
        raise _UsageError("--depth must be at least 0")
    try:
        report = logic.axiom_suite(
            trials=args.trials,
            seed=args.seed,
            formula_depth=args.depth,
            skip_relativization=args.skip_relativization,
        )
    except RecursionError:
        # `random_formula` still recurses, on purpose.  Each level of a draw
        # has 1.09 formula children in expectation (`logic._FORMULA_BANDS`),
        # so a draw's expected size grows about 1.09 times a level: 3 trials
        # take about 0.1 s at --depth 30 and over 1 s at --depth 60 (2-vCPU
        # Xeon).  The recursion limit is what ends --depth 2000 at once.
        raise _UsageError(f"--depth {args.depth} nests formulas too deeply") from None
    _emit_json(report.to_dict())
    return 0 if report.ok else 1


def _parse_truth(alphabet, text: str) -> simplex.MassFunction:
    weights = [Fraction(part) for part in text.split(",")]
    return simplex.mass_function(alphabet, weights)


def _cmd_simulate(args) -> int:
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.horizon < 1:
        raise _UsageError("--horizon must be at least 1")
    if args.eps is not None and not args.eps > 0:
        raise _UsageError("--eps must be positive")
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    model = _load_model(args.model)
    if not model.event.is_empty:
        raise _UsageError(f"model {args.model} has non-empty conditioned_on, "
                          "which simulate does not support")
    try:
        truth = _parse_truth(model.alphabet, args.truth)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad truth vector: {exc}") from exc
    cfg = convergence.TrialConfig(
        worlds=model.worlds,
        plausibility=model.fn,
        truth=truth,
        horizon=args.horizon,
        seed=args.seed,
        epsilon=args.eps,
    )
    try:
        summary = convergence.run_experiment(
            cfg, args.trials, args.seed, include_baseline=args.baseline
        )
    except (
        convergence.TruthNotInWorldsError,
        convergence.ZeroPlausibilityTruthError,
    ) as exc:
        raise _UsageError(str(exc)) from exc
    if args.trace:
        try:
            with open(args.trace, "w", newline="") as fh:
                writer = csv.writer(fh)
                header = ["trial", "settled", "settle_time"]
                if args.baseline:
                    header.append("baseline_settle_time")
                writer.writerow(header)
                for i, result in enumerate(summary.trial_results):
                    row = [i, int(result.settled), result.settle_time]
                    if args.baseline:
                        row.append(summary.baseline.trial_results[i].settle_time)
                    writer.writerow(row)
        except OSError as exc:
            raise _UsageError(f"cannot write trace file {args.trace}: {exc}") from exc
    _emit_json(summary.to_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plausilearn",
        description="Belief formation over unknown probability distributions.",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grid = sub.add_parser("grid", help="enumerate a simplex grid model file")
    grid.add_argument("--alphabet", required=True, help="comma-separated outcomes")
    grid.add_argument("--resolution", type=int, required=True)
    grid.add_argument(
        "--plausibility",
        choices=list(doxastic.PLAUSIBILITY_NAMES),
        default="entropy",
    )
    grid.add_argument(
        "--condition", help='pre-condition on observations, e.g. "H H H"'
    )
    grid.add_argument("-o", "--output")
    grid.set_defaults(func=_cmd_grid)

    chk = sub.add_parser("check", help="model-check a formula")
    chk.add_argument("--model", required=True)
    chk.add_argument("--formula", required=True)
    chk.add_argument("--format", choices=["json", "table"], default="json")
    chk.set_defaults(func=_cmd_check)

    ax = sub.add_parser("axioms", help="randomized validity suite")
    ax.add_argument("--trials", type=int, default=100)
    ax.add_argument("--seed", type=int, default=0)
    ax.add_argument("--depth", type=int, default=2)
    ax.add_argument(
        "--skip-relativization",
        action="store_true",
        help="mutation-testing hook: corrupt the announcement semantics",
    )
    ax.set_defaults(func=_cmd_axioms)

    sim = sub.add_parser("simulate", help="convergence-of-belief experiment")
    sim.add_argument("--model", required=True)
    sim.add_argument("--truth", required=True, help='e.g. "5/10,3/10,2/10"')
    sim.add_argument("--eps", type=float, default=None)
    sim.add_argument("--horizon", type=int, required=True)
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--baseline", action="store_true")
    sim.add_argument("--trace", help="per-trial CSV output path")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
