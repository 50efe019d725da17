"""Exception types raised by the library.

Every error carries enough context to be reported verbatim by the CLI.
"""

from __future__ import annotations


class SelfsimError(Exception):
    """Base class for all library errors."""


class EmptySet(SelfsimError):
    """An operation that needs a nonempty interval set received an empty one."""


class NonpositiveDelta(SelfsimError):
    """A neighborhood radius must be strictly positive."""


class ParameterOutOfRange(SelfsimError):
    """A constructor parameter violates its admissible range.

    The message names the violated inequality, e.g. ``"rho < 1/3"``.
    """


class AlphabetMismatch(SelfsimError):
    """A word's alphabet size does not match the system it is applied to."""


class BudgetExceeded(SelfsimError):
    """A cylinder enumeration would exceed the configured budget."""

    def __init__(self, requested: int | str, budget: int):
        super().__init__(f"cylinder count {requested} exceeds budget {budget}")
        self.requested = requested
        self.budget = budget


class UntaggedFamily(SelfsimError):
    """A closed-form gap value was requested for an untagged system.

    Use the cover-based largest gap instead.
    """


class HypothesisViolated(SelfsimError):
    """The gap-versus-separation hypothesis of piece location fails."""


class NotCovered(SelfsimError):
    """The target set escapes the union of the candidate pieces."""


class StepBudgetExceeded(SelfsimError):
    """Greedy decomposition did not terminate within the step budget."""


class WrongFamilyRange(SelfsimError):
    """Mirror reduction applies only to the upper offset range of its family."""
