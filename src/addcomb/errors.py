"""Error types shared across the workbench.

Exit-code mapping used by the CLI: usage errors are ValueError (or argparse),
budget exhaustion is BudgetExceededError, range violations are
IntegerOverflowError.
"""


class IntegerOverflowError(OverflowError):
    """A computation left the declared integer range (64-bit elements,
    128-bit accumulators).  The message names the offending operands."""


class BudgetExceededError(RuntimeError):
    """A work limit, one of the modules' DEFAULT_*_BUDGET constants
    (enumeration size, pair count, scan cells, tuple iterations), would be
    exceeded."""


class UnsupportedCurveError(ValueError):
    """The curve is outside the two supported genus families."""
