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
    q is empty, as there are none.
    """
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

#: The plausibility maps that a model file or `grid --plausibility` names.
PLAUSIBILITY_NAMES = {"entropy": ENTROPY, "centre_of_mass": CENTRE_OF_MASS}

_MODEL_KEYS = {
    "alphabet", "worlds", "grid_resolution", "plausibility", "conditioned_on"
}


def _plausibility_from_spec(spec, n_worlds: int) -> PlausibilityFn:
    if isinstance(spec, str):
        if spec not in PLAUSIBILITY_NAMES:
            raise ValueError(f"unknown plausibility {spec!r}")
        return PLAUSIBILITY_NAMES[spec]
    if isinstance(spec, dict) and spec.keys() == {"table"}:
        return _table_from_spec(spec["table"], n_worlds)
    raise ValueError(f"bad plausibility spec {spec!r}")


def _table_from_spec(table, n_worlds: int) -> PlausibilityFn:
    """A plausibility table read exactly: each key is the decimal index of
    one world, so "01" names no world, and each value is a JSON number."""
    if not isinstance(table, dict):
        raise ValueError(f"plausibility table must be a JSON object, not {table!r}")
    unknown = sorted(table.keys() - {str(i) for i in range(n_worlds)})
    if unknown:
        raise ValueError(
            f"plausibility table has keys {unknown[:5]} that name none of the "
            f"{n_worlds} worlds"
        )
    bad = [v for v in table.values() if not _is_int(v) and type(v) is not float]
    if bad:
        raise ValueError(f"plausibility table values must be numbers, not {bad[:5]}")
    return tabulated({int(k): v for k, v in table.items()})


def _is_int(value) -> bool:
    """True for a JSON integer; JSON true and false load as bools."""
    return isinstance(value, int) and not isinstance(value, bool)


def _world_weights(index: int, world) -> list[Fraction]:
    """The weights of world `index` of a model file, read from its list of
    [numerator, denominator] integer pairs."""
    if not isinstance(world, list):
        raise ValueError(f"world {index} is {world!r}, not a list of pairs")
    for pair in world:
        shaped = isinstance(pair, list) and len(pair) == 2
        if not (shaped and _is_int(pair[0]) and _is_int(pair[1])):
            raise ValueError(
                f"world {index} has {pair!r}, not a [numerator, denominator] "
                "integer pair"
            )
        if pair[1] == 0:
            raise ValueError(f"world {index} has {pair!r}, a zero denominator")
    return [Fraction(*pair) for pair in world]


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
        worlds = payload["worlds"]
        if not isinstance(worlds, list):
            raise ValueError(f"'worlds' must be a list of worlds, not {worlds!r}")
        worlds = [
            mass_function(alphabet, _world_weights(i, world))
            for i, world in enumerate(worlds)
        ]
    else:
        resolution = payload["grid_resolution"]
        if not _is_int(resolution):
            raise ValueError(f"'grid_resolution' must be an integer, not {resolution!r}")
        worlds = simplex_grid(alphabet, resolution)
    fn = _plausibility_from_spec(payload.get("plausibility", "entropy"), len(worlds))
    model = init_state(worlds, fn)
    conditioned = payload.get("conditioned_on")
    if conditioned is not None and not (
        isinstance(conditioned, list) and all(map(_is_int, conditioned))
    ):
        raise ValueError(
            f"'conditioned_on' must list integer counts, not {conditioned!r}"
        )
    if conditioned:
        model = update_sampling(model, ObservationEvent(alphabet, tuple(conditioned)))
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
    """Read a model file: UTF-8 JSON in the schema of `model_from_dict`."""
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(path, model: Model) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=1)
        fh.write("\n")
