"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the six plausilearn
modules, wherever a plausilearn module holds a reference to it, with a
wrapper that records one span per call; `uninstall` puts the functions
back, and installing again reuses the same wrappers.  Spans are aggregated as they
close: calls and self time (span duration minus the duration of its
direct child spans) per function, plus the counters that need the caller,
so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("simplex", "plausibility", "doxastic", "logic", "convergence", "cli")

# A "check" is a model-checking entry point; a submodel is an update the
# checker builds while one is open.
_CHECKS = {"logic.extension", "logic.valid_in_model"}
_SUBMODELS = {"doxastic.update_sampling", "doxastic.update_proposition"}

# Functions whose self time, call count or time per simulated step a
# traced run reports (see `Tracer.metrics`).
SELF_MS = (
    "simplex.sample_stream",
    "simplex.epsilon_ball",
    "simplex.simplex_grid",
    "simplex.mass_function",
    "plausibility.init_state",
    "plausibility.condition",
    "plausibility.argmax_worlds",
    "plausibility.argmax_restricted",
    "plausibility.restrict_state",
    "doxastic.update_sampling",
    "doxastic.update_proposition",
    "doxastic.conditional_belief_prop",
    "doxastic.conditional_belief_event",
    "doxastic.model_from_dict",
    "logic.valid_in_model",
    "logic.random_model",
    "logic.random_formula",
    "logic.extension",
    "logic.parse",
    "logic.print_formula",
    "cli.run",
)
CALLS = (
    "simplex.mass_function",
    "plausibility.init_state",
    "plausibility.condition",
    "plausibility.argmax_worlds",
    "plausibility.argmax_restricted",
    "plausibility.restrict_state",
    "doxastic.update_sampling",
    "doxastic.update_proposition",
    "doxastic.conditional_belief_prop",
    "doxastic.conditional_belief_event",
)
PER_STEP = ("convergence.run_trial", "convergence.bayesian_baseline_trial")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.checks = 0  # check spans with no check span around them
        self.submodels = 0  # update spans opened inside a check span
        self._open_checks = 0
        self._child_ns: list[int] = []  # one entry per open span
        self._patches: list[tuple[object, str, object, object]] = []
        self.wall_ns = 0  # time spent installed: every span lies within it
        self._installed_at = 0

    def _wrap(self, name: str, fn):
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        child_ns, calls, self_ns = self._child_ns, self.calls, self.self_ns
        is_check, is_submodel = name in _CHECKS, name in _SUBMODELS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_check:
                if not self._open_checks:
                    self.checks += 1
                self._open_checks += 1
            elif is_submodel and self._open_checks:
                self.submodels += 1
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_ns[name] += elapsed - child_ns.pop()
                if child_ns:
                    child_ns[-1] += elapsed
                if is_check:
                    self._open_checks -= 1

        return span

    def _holders(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, function, wrapper) for every reference a
        plausilearn module holds to a public function of the six modules;
        `from .x import f` copies the reference, so each holder is patched."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"plausilearn.{short}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        holders = []
        for name, module in list(sys.modules.items()):
            if name != "plausilearn" and not name.startswith("plausilearn."):
                continue
            for attr, obj in vars(module).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    holders.append((module, attr, obj, entry[1]))
        return holders

    def install(self) -> None:
        if not self._patches:
            self._patches = self._holders()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._installed_at = time.perf_counter_ns()

    def uninstall(self) -> None:
        self.wall_ns += time.perf_counter_ns() - self._installed_at
        for module, attr, function, _ in self._patches:
            setattr(module, attr, function)

    def metrics(self, horizon: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics; `horizon` is the steps per settling trial."""
        out: dict[str, tuple[float, str]] = {}
        for name in PER_STEP:
            steps = self.calls.get(name, 0) * horizon
            us = self.self_ns.get(name, 0) / 1e3
            out[f"{name}.us_per_step"] = (us / steps if steps else 0.0, "us")
        for name in SELF_MS:
            out[f"{name}.self_ms"] = (self.self_ns.get(name, 0) / 1e6, "ms")
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        ratio = self.submodels / self.checks if self.checks else 0.0
        out["logic.submodels_per_check"] = (ratio, "count")
        return out
