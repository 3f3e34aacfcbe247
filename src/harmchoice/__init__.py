"""harmchoice: classify choice data by its degree of self-punishment.

A total choice function on a finite ground set either maximizes a single
preference on every menu or it does not. When it does not, this package
measures how deep the distortions of one base preference must reach to
explain every pick, identifies the preferences achieving that minimum, and
surveys how the hardest-to-explain behavior dominates choice space.
"""

from .axioms import (
    REVERSAL_CAP,
    CnsWitness,
    Reversal,
    check_cns,
    constant_selection_witnesses,
    find_reversals,
    is_cns_witness_set,
    is_inconsistent,
    reversal_count,
    satisfies_warp,
)
from .census import (
    DEFAULT_SEED,
    MAX_EXACT_CENSUS_N,
    MAX_SAMPLE_N,
    CensusReport,
    ExplicitIndexPolicy,
    FixedIndexPolicy,
    UniformIndexPolicy,
    construct_inconsistent,
    enumerate_census,
    generate_harmful,
    inconsistent_ground_set,
    sample_census,
    total_choice_functions,
)
from .core import (
    MAX_ENUM_N,
    ChoiceFunction,
    GroundSet,
    LinearOrder,
    Menu,
    all_menu_masks,
    max_of,
    rational_choice,
    validate_choice,
)
from .degree import MINIMIZING_ORDER_CAP, SpReport, sp, sp_axiomatic, sp_bruteforce
from .distortion import harmful_distortion
from .elicit import (
    LinearExtensions,
    StrictPartialOrder,
    all_extensions,
    elicit_partial,
    elicit_weakly_harmful,
)
from .rationalize import (
    SelfPunishmentRationalization,
    canonical_rationalization,
    distortion_max_tables,
    min_max_index,
    validate_rationalization,
)

__version__ = "0.1.0"


def active_backend() -> str:
    """The array backend the kernels run on; numpy is the only one."""
    return "numpy"


__all__ = [
    "CensusReport",
    "ChoiceFunction",
    "CnsWitness",
    "DEFAULT_SEED",
    "ExplicitIndexPolicy",
    "FixedIndexPolicy",
    "GroundSet",
    "LinearExtensions",
    "LinearOrder",
    "MAX_ENUM_N",
    "MAX_EXACT_CENSUS_N",
    "MAX_SAMPLE_N",
    "MINIMIZING_ORDER_CAP",
    "Menu",
    "REVERSAL_CAP",
    "Reversal",
    "SelfPunishmentRationalization",
    "SpReport",
    "StrictPartialOrder",
    "UniformIndexPolicy",
    "active_backend",
    "all_extensions",
    "all_menu_masks",
    "canonical_rationalization",
    "check_cns",
    "constant_selection_witnesses",
    "construct_inconsistent",
    "distortion_max_tables",
    "elicit_partial",
    "elicit_weakly_harmful",
    "enumerate_census",
    "find_reversals",
    "generate_harmful",
    "harmful_distortion",
    "inconsistent_ground_set",
    "is_cns_witness_set",
    "is_inconsistent",
    "max_of",
    "min_max_index",
    "rational_choice",
    "reversal_count",
    "sample_census",
    "satisfies_warp",
    "sp",
    "sp_axiomatic",
    "sp_bruteforce",
    "total_choice_functions",
    "validate_choice",
    "validate_rationalization",
]
