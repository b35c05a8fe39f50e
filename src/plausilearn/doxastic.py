"""Belief operators and the two updates on plausibility models; model files.

Knowledge is truth in every world of the model; belief is truth in every
maximally plausible world (the two coincide with the "plausible enough"
definitions on finite world sets).  Two updates are supported: sampling
evidence reweights plausibility and keeps the world set, higher-order
propositional information shrinks the world set and keeps plausibility.
The model type itself, `plausibility.Model`, carries its plausibility
function, so a model file records everything needed to rebuild it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .plausibility import (
    CENTRE_OF_MASS,
    ENTROPY,
    Model,
    PlausibilityFn,
    argmax_restricted,
    argmax_worlds,
    condition,
    init_state,
    restrict_state,
    tabulated,
)
from .simplex import (
    ObservationEvent,
    Proposition,
    make_alphabet,
    mass_function,
    simplex_grid,
)


class EmptyUpdateError(ValueError):
    """Propositional update with the empty proposition."""


def knowledge_holds(model: Model, p: Proposition) -> bool:
    """True iff every world of the model is in `p`."""
    return p.members.issuperset(range(len(model)))


def belief_holds(model: Model, p: Proposition) -> bool:
    """True iff every maximally plausible world is in `p`."""
    return argmax_worlds(model) <= p


def conditional_belief_event(
    model: Model, p: Proposition, e: ObservationEvent
) -> bool:
    """Belief in `p` after conditioning plausibility on the evidence `e`.

    The model itself is not mutated.
    """
    return argmax_worlds(condition(model, e)) <= p


def conditional_belief_prop(model: Model, p: Proposition, q: Proposition) -> bool:
    """Belief in `p` given the higher-order information `q`.

    True iff the most plausible q-worlds are all in p; vacuously true when
    q is empty.
    """
    if not q.members:
        return True
    return argmax_restricted(model, q) <= p


def update_sampling(model: Model, e: ObservationEvent) -> Model:
    """Model after sampling evidence: same worlds, conditioned plausibility."""
    return condition(model, e)


def update_proposition(model: Model, p: Proposition) -> Model:
    """Model after learning the proposition `p`: worlds restricted to `p`,
    plausibility values carried over unchanged."""
    if not p.members:
        raise EmptyUpdateError("cannot update with the empty proposition")
    return restrict_state(model, p)


# ---------------------------------------------------------------------------
# Model files

_PLAUSIBILITY_NAMES = {"entropy": ENTROPY, "centre_of_mass": CENTRE_OF_MASS}

_MODEL_KEYS = {
    "alphabet", "worlds", "grid_resolution", "plausibility", "conditioned_on"
}


def _plausibility_from_spec(spec) -> PlausibilityFn:
    if isinstance(spec, str):
        if spec not in _PLAUSIBILITY_NAMES:
            raise ValueError(f"unknown plausibility {spec!r}")
        return _PLAUSIBILITY_NAMES[spec]
    if isinstance(spec, dict) and spec.keys() == {"table"}:
        return tabulated(spec["table"])
    raise ValueError(f"bad plausibility spec {spec!r}")


def _plausibility_to_spec(fn: PlausibilityFn):
    if fn.kind == "tabulated":
        return {"table": {str(k): v for k, v in fn.table.items()}}
    return fn.kind


def model_from_dict(payload: dict) -> Model:
    """Build a model from its JSON dictionary form.

    Schema: ``{"alphabet": [...], "grid_resolution": N | "worlds": [...],
    "plausibility": "entropy" | "centre_of_mass" | {"table": ...},
    "conditioned_on": [counts]}``, exactly one of ``worlds`` and
    ``grid_resolution``; any other key is an error.
    """
    if not isinstance(payload, dict):
        raise ValueError("a model must be a JSON object")
    unknown = sorted(payload.keys() - _MODEL_KEYS)
    if unknown:
        raise ValueError(f"unknown model keys {unknown}")
    names = payload["alphabet"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError("'alphabet' must be a list of outcome names")
    alphabet = make_alphabet(names)
    if ("worlds" in payload) == ("grid_resolution" in payload):
        raise ValueError("model needs exactly one of 'worlds' and 'grid_resolution'")
    if "worlds" in payload:
        try:
            worlds = [
                mass_function(alphabet, [Fraction(num, den) for num, den in vec])
                for vec in payload["worlds"]
            ]
        except TypeError as exc:
            raise ValueError(
                f"'worlds' must list [numerator, denominator] integer pairs: {exc}"
            ) from exc
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in 'worlds': {exc}") from exc
    else:
        worlds = simplex_grid(alphabet, int(payload["grid_resolution"]))
    fn = _plausibility_from_spec(payload.get("plausibility", "entropy"))
    model = init_state(worlds, fn)
    conditioned = payload.get("conditioned_on")
    if conditioned:
        event = ObservationEvent(alphabet, tuple(int(c) for c in conditioned))
        model = update_sampling(model, event)
    return model


def model_to_dict(model: Model) -> dict:
    """Serialize a model, its plausibility function and accumulated evidence."""
    return {
        "alphabet": list(model.alphabet.names),
        "worlds": [
            [[w.numerator, w.denominator] for w in world.weights]
            for world in model.worlds
        ],
        "plausibility": _plausibility_to_spec(model.fn),
        "conditioned_on": list(model.event.counts),
    }


def load_model(path) -> Model:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def save_model(path, model: Model) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=1)
        fh.write("\n")
