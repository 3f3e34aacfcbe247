"""Exception and warning types shared across the package, and the cut that
every error message applies to a value it echoes from the input."""


def _shown(text: str) -> str:
    """``text`` cut to 80 characters: an error message echoes no megabytes."""
    return text if len(text) <= 80 else text[:77] + "..."


class HarmchoiceError(Exception):
    """Base class for all package-specific errors."""


class DatasetError(HarmchoiceError):
    """The input dataset is not a valid total choice function."""


class ParseError(DatasetError):
    """A dataset file could not be parsed."""


class MissingMenu(DatasetError):
    """One or more nonempty menus have no recorded pick.

    ``menus`` holds the first few missing menus, ``total`` counts them all.
    """

    def __init__(self, menus, total, ground):
        self.menus = list(menus)
        self.total = total
        shown = ", ".join(_shown(m.to_text(ground)) for m in self.menus)
        suffix = "" if total == len(self.menus) else f" (and {total - len(self.menus)} more)"
        super().__init__(f"dataset is missing {total} menu(s): {shown}{suffix}")


class RowError(DatasetError):
    """A dataset row is invalid.

    ``rows`` holds the 0-based positions of the offending rows. The message
    calls row ``i`` "row i" until :meth:`at` gives the rows their names.
    """

    def __init__(self, rows, describe, names=None):
        self.rows = tuple(rows)
        self._describe = describe
        super().__init__(describe(*(names or [f"row {r}" for r in self.rows])))

    def at(self, names):
        """The same error with row ``i`` called ``names[i]``."""
        return type(self)(self.rows, self._describe, [names[r] for r in self.rows])


class DuplicateMenu(RowError):
    """The same menu appears more than once in the dataset."""


class PickNotInMenu(RowError):
    """A recorded pick is not a member of its menu."""


class GroundSetTooLarge(HarmchoiceError):
    """The ground set exceeds the size cap of the requested operation."""


class ReportTooLarge(HarmchoiceError):
    """A report would list more rows than its command's documented cap."""


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
    """An internal cross-check failed.

    This never happens for valid inputs; it signals an internal defect.
    """


class DatasetWarning(UserWarning):
    """Non-fatal dataset repair, e.g. forced singleton picks filled in."""
