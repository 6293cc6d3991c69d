"""Exception types shared across the package.

Every error category maps to a distinct CLI exit-code channel: malformed
input, stray labels included (1), verification rejection (2, a Verdict
rather than an exception), and resource limits (3).
"""


class GridirrError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(GridirrError, ValueError):
    """A numeric argument violates its precondition (e.g. nonpositive size)."""


class InvalidEdgeError(GridirrError, ValueError):
    """Endpoints do not form a valid edge (equal, or not grid-adjacent)."""


class ScopeError(GridirrError, ValueError):
    """Window parameters fall outside the supported 2 <= m <= c <= n range."""


class MalformedFamilyError(GridirrError, ValueError):
    """A covering family is inconsistent with its host graph."""


class FormatError(GridirrError, ValueError):
    """A labeling or family file does not match its documented schema."""


class IncompleteLabelingError(GridirrError, ValueError):
    """A labeling is missing a label for an element its kind requires."""


class StrayLabelError(GridirrError, ValueError):
    """A label on an element outside the host or of another kind."""


class ResourceLimitError(GridirrError, RuntimeError):
    """An exhaustive search exceeds the configured size cap.

    Deliberately distinct from a negative search result: "too big to
    search" must never be read as "no labeling exists".
    """
