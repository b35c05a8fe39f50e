"""Belief formation and revision over unknown probability distributions.

Candidate distributions over a finite outcome alphabet are ranked by a
plausibility map; sampling evidence reweights the ranking by likelihood
while higher-order information shrinks the candidate set.  The package
also ships a model checker for a dynamic doxastic formula language and a
Monte Carlo harness verifying that belief settles on the true
distribution.
"""

from .simplex import (
    MassFunction,
    ObservationEvent,
    ObservationStream,
    OutcomeAlphabet,
    Proposition,
    epsilon_ball,
    euclidean_distance,
    event_concat,
    make_alphabet,
    mass_function,
    observe,
    parse_event,
    sample_stream,
    simplex_grid,
)
from .plausibility import (
    CENTRE_OF_MASS,
    ENTROPY,
    Model,
    PlausibilityFn,
    argmax_worlds,
    centre_of_mass_plausibility,
    condition,
    entropy_plausibility,
    init_state,
    log_likelihood,
    tabulated,
)
from .doxastic import (
    belief_holds,
    conditional_belief_event,
    conditional_belief_prop,
    knowledge_holds,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    update_proposition,
    update_sampling,
)
from .logic import (
    Formula,
    axiom_suite,
    check,
    extension,
    parse,
    print_formula,
    satisfies,
    valid_in_model,
)
from .convergence import (
    ExperimentSummary,
    TrialConfig,
    TrialResult,
    bayesian_baseline_trial,
    run_experiment,
    run_trial,
    trial_seeds,
)

__version__ = "0.1.0"
