"""Exception types shared across the toolkit."""


class TrustModelError(Exception):
    """Base class for all toolkit errors."""


class OntologyError(TrustModelError):
    """Raised when an ontology merge or lookup fails."""


class DatasetError(TrustModelError):
    """Raised for inconsistent or infeasible dataset inputs."""


class PredicateSyntaxError(TrustModelError):
    """Predicate text failed to parse.  Carries 1-based line/column."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BeliefFormatError(TrustModelError):
    """A belief document is syntactically or semantically malformed."""

    def __init__(self, message, path=None):
        self.path = path  # e.g. "trust[3]"; messages already embed it
        super().__init__(message)


class EditError(TrustModelError):
    """A structural edit could not be applied (cycle, duplicate id, ...)."""


class CompileError(TrustModelError):
    """Belief-to-network translation failed (overlapping CE scopes, ...)."""


class NetworkTooLargeError(TrustModelError):
    """Exact enumeration was requested above the node-count cap."""
