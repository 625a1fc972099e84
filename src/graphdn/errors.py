"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Input or graph-structure validation failure.

    ``element`` names the offending item, e.g. ``("edge", 3)`` or
    ``("vertex", 7)``, when one can be identified.
    """

    def __init__(self, message: str, element: tuple[str, int] | None = None):
        super().__init__(message)
        self.element = element


class DomainError(ValueError):
    """A value is outside the domain of an operation (offset, prefix, depth).

    ``argument`` names the offending parameter when the message opens with
    it, e.g. ``"n_max"``, so that a front end can name its own option.
    """

    def __init__(self, message: str, argument: str | None = None):
        super().__init__(message)
        self.argument = argument


class SingularInteriorError(RuntimeError):
    """The interior block of a vertex system is singular.

    Happens exactly when an interior component has no boundary contact;
    ``component`` lists the vertices of one such component.
    """

    def __init__(self, message: str, component: tuple[int, ...] = ()):
        super().__init__(message)
        self.component = component
