"""Exception hierarchy shared by all crbmkit modules.

Every domain error derives from :class:`CrbmKitError` so the CLI can map any
of them to exit code 1.  Names follow the operation contracts.
"""

from __future__ import annotations


class CrbmKitError(Exception):
    """Base class for all domain errors raised by crbmkit."""


class CapExceeded(CrbmKitError, ValueError):
    """An enumeration would exceed the cell limit ``bitspace.MAX_CELLS``."""


class TooLarge(CapExceeded):
    """Exact combinatorial search requested beyond its length cap."""


class ShapeMismatch(CrbmKitError, ValueError):
    """Array shapes are inconsistent with the declared widths."""


class ZeroInputMass(CrbmKitError, ValueError):
    """Conditioning on an input state that carries no probability mass."""

    def __init__(self, x: int):
        super().__init__(f"input state {x} has zero mass")
        self.x = x


class DegenerateStep(CrbmKitError, ValueError):
    """A sharing step cannot be represented with finite parameters."""


class InfeasibleProfile(CrbmKitError, ValueError):
    """A mixture-weight profile left [0, 1]; indicates an invalid target."""


class InfeasibleDepth(CrbmKitError, ValueError):
    """Requested packing depth r needs more coordinates than available."""


class BudgetExceeded(CrbmKitError, RuntimeError):
    """The sharpness schedule was exhausted before reaching the tolerance."""


class SupportTooLarge(CrbmKitError, ValueError):
    """Target support exceeds the declared support-class budget."""


class SupportsDiffer(CrbmKitError, ValueError):
    """Rows of the target do not share a common support set."""


class NotBlockConstant(CrbmKitError, ValueError):
    """Target rows are not constant on the declared partition blocks."""


class UnstableRank(CrbmKitError, RuntimeError):
    """Numeric rank changed under tolerance perturbation."""


class NoBracket(CrbmKitError, RuntimeError):
    """Coefficient solver could not bracket the requested value."""


class BudgetMismatch(CrbmKitError, RuntimeError):
    """Face cancellation did not consume the expected hidden-unit budget."""


class TieEncountered(CrbmKitError, ValueError):
    """A Heaviside pre-activation is exactly zero."""

    def __init__(self, layer: int, unit: int):
        super().__init__(f"zero pre-activation at layer {layer}, unit {unit}")
        self.layer = layer
        self.unit = unit


class NotGeneric(CrbmKitError, ValueError):
    """Threshold network violates the genericity hypothesis."""


class ScaleCapExceeded(CrbmKitError, RuntimeError):
    """Embedding scale doubled past its cap without meeting the tolerance."""
