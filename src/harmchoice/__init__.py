"""harmchoice: classify choice data by its degree of self-punishment.

A total choice function on a finite ground set either maximizes a single
preference on every menu or it does not. When it does not, this package
measures how deep the distortions of one base preference must reach to
explain every pick, identifies the preferences achieving that minimum, and
surveys how the hardest-to-explain behavior dominates choice space.

The public names are resolved lazily (PEP 562): ``import harmchoice``
loads no submodule and so not numpy, and the first read of a name imports
the submodule that defines it. This lets :mod:`harmchoice.cli` set its
environment before numpy loads.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "axioms": (
        "REVERSAL_CAP",
        "CnsWitness",
        "Reversal",
        "check_cns",
        "constant_selection_witnesses",
        "find_reversals",
        "is_cns_witness_set",
        "is_inconsistent",
        "reversal_count",
        "satisfies_warp",
    ),
    "census": (
        "DEFAULT_SEED",
        "MAX_EXACT_CENSUS_N",
        "MAX_SAMPLE_N",
        "MAX_SAMPLE_DRAWS",
        "CensusReport",
        "ExplicitIndexPolicy",
        "FixedIndexPolicy",
        "UniformIndexPolicy",
        "construct_inconsistent",
        "enumerate_census",
        "generate_harmful",
        "inconsistent_ground_set",
        "sample_census",
        "total_choice_functions",
    ),
    "core": (
        "MAX_ENUM_N",
        "ChoiceFunction",
        "GroundSet",
        "LinearOrder",
        "Menu",
        "all_menu_masks",
        "rational_choice",
        "validate_choice",
    ),
    "degree": ("MINIMIZING_ORDER_CAP", "SpReport", "sp", "sp_axiomatic", "sp_bruteforce"),
    "distortion": ("harmful_distortion",),
    "elicit": (
        "LinearExtensions",
        "StrictPartialOrder",
        "all_extensions",
        "elicit_partial",
        "elicit_weakly_harmful",
    ),
    "rationalize": (
        "SelfPunishmentRationalization",
        "canonical_rationalization",
        "distortion_max_tables",
        "min_max_index",
        "validate_rationalization",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def active_backend() -> str:
    """The array backend the kernels run on; numpy is the only one."""
    return "numpy"


__all__ = sorted([*_SOURCE, "active_backend"])


def __getattr__(name: str) -> object:
    """Import the submodule defining a public name and keep the name here."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
