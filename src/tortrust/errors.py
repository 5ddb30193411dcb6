"""Exception types shared across the toolkit.  The class of an error is
the one rule that sets the CLI's exit code, the `exit_code` of its base:
TrustModelError 1; ParseError 2, input that does not parse (JsonSyntaxError,
also a json.JSONDecodeError, PredicateSyntaxError, BeliefFormatError,
DatasetError); InvalidInputError 3, input that breaks a rule, also a
ValueError (UnknownIdError, also a KeyError, EditError, CompileError,
OntologyError, NetworkTooLargeError).  An OSError exits 4 and a MemoryError 3;
any other error, a stray stdlib or numpy one among them, is a bug and exits 1.
"""

import json


class TrustModelError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 1


class ParseError(TrustModelError):
    exit_code = 2


class InvalidInputError(TrustModelError, ValueError):
    exit_code = 3


class UnknownIdError(InvalidInputError, KeyError):
    """An id that names nothing; `str()` is the plain message."""
    __str__ = Exception.__str__


class JsonSyntaxError(ParseError, json.JSONDecodeError):
    """Text that is not strict JSON (RFC 8259)."""


class OntologyError(InvalidInputError):
    """Raised when an ontology merge or lookup fails."""


class DatasetError(ParseError):
    """Raised for inconsistent or infeasible dataset inputs."""


class PredicateSyntaxError(ParseError):
    """Predicate text failed to parse; the message ends with its place."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")


class BeliefFormatError(ParseError):
    """A malformed belief document; the message begins with the place."""


class EditError(InvalidInputError):
    """A structural edit could not be applied (cycle, duplicate id, ...)."""


class CompileError(InvalidInputError):
    """Belief-to-network translation failed (overlapping CE scopes, ...)."""


class NetworkTooLargeError(InvalidInputError):
    """Exact enumeration was requested above the exact-enumeration limit."""
