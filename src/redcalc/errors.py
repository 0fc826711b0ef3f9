"""Shared exception types with CLI exit-code mapping, and the enumeration
size caps that ResourceCapError enforces."""

# default caps of the exhaustive scans: 4^13 paths and C_15 trees; here,
# not in oracle, so that the CLI can show them without loading numpy
TREE_CAP = 15
PATH_CAP = 13


class RedcalcError(Exception):
    exit_code = 1


class ParseError(RedcalcError):
    """Malformed tree or path text; carries the byte offset of the problem."""

    exit_code = 2

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(RedcalcError):
    """Operation applied outside its domain (e.g. reducing an atomic object)."""

    exit_code = 3


class MismatchError(RedcalcError):
    """Cross-backend disagreement detected by a --check run."""

    exit_code = 4


class ResourceCapError(RedcalcError):
    """Requested enumeration exceeds the configured size cap."""

    exit_code = 5
