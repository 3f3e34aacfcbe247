"""Exception and warning types shared across the package."""


class HarmchoiceError(Exception):
    """Base class for all package-specific errors."""


class DatasetError(HarmchoiceError):
    """The input dataset is not a valid total choice function."""


class ParseError(DatasetError):
    """A dataset file could not be parsed."""


class MissingMenu(DatasetError):
    """One or more nonempty menus have no recorded pick."""

    def __init__(self, menus, total=None):
        self.menus = list(menus)
        self.total = total if total is not None else len(self.menus)
        shown = ", ".join("{" + ", ".join(str(e) for e in m.members) + "}" for m in self.menus)
        suffix = "" if self.total == len(self.menus) else f" (and {self.total - len(self.menus)} more)"
        super().__init__(f"dataset is missing {self.total} menu(s): {shown}{suffix}")


class DuplicateMenu(DatasetError):
    """The same menu appears more than once in the dataset."""


class PickNotInMenu(DatasetError):
    """A recorded pick is not a member of its menu."""


class GroundSetTooLarge(HarmchoiceError):
    """The ground set exceeds the size cap of the requested operation."""


class IndexOutOfRange(HarmchoiceError):
    """A distortion index lies outside 0..n-1."""


class InvalidJ(HarmchoiceError):
    """The witness-set size is outside 1..n-1."""


class NotWeaklyHarmful(HarmchoiceError):
    """Preference elicitation for minimally self-punishing data was asked of
    a choice that is not of that kind."""


class InvalidWitness(HarmchoiceError):
    """The supplied item set is not a valid witness for this choice."""


class CycleDetected(HarmchoiceError):
    """A relation that should be a strict partial order contains a cycle."""


class CrossCheckMismatch(HarmchoiceError):
    """The exhaustive and the axiomatic computation disagree.

    This never happens for valid inputs; it signals an internal defect.
    """


class DatasetWarning(UserWarning):
    """Non-fatal dataset repair, e.g. forced singleton picks filled in."""
