"""Exception types shared across the package, and the id check that the
line-oriented parsers raise them from."""

import re


class CutnetsError(Exception):
    """Base class for all library errors."""


class InputError(CutnetsError):
    """Bad input or an unmet precondition; the CLI exits 2 on it, never 1,
    which means "no"."""


# --- graph surgery -----------------------------------------------------------

class UnknownEdge(CutnetsError):
    pass


class NotDegreeTwo(CutnetsError):
    pass


class WouldCreateParallelEdge(CutnetsError):
    """A reduction asked for an edge that already exists; networks stay simple."""


class IsCutEdge(CutnetsError):
    pass


class EndpointIsLeaf(CutnetsError):
    pass


class NotCutEdge(CutnetsError):
    pass


class LabelSetMismatch(InputError):
    pass


# --- recognition and budgets -------------------------------------------------

class InvalidQ(InputError):
    pass


class TooLarge(CutnetsError):
    """Input exceeds the configured budget of a desk-scale operation."""


class BudgetExceeded(CutnetsError):
    """An exhaustive search ran out of its node budget before deciding."""


# --- orientations ------------------------------------------------------------

class DegreeViolation(CutnetsError):
    pass


class CyclicOrientation(CutnetsError):
    pass


class NotTwoCuttable(CutnetsError):
    pass


class NotReducible(CutnetsError):
    pass


# --- SAT gadgetry ------------------------------------------------------------

class NotTwoBalanced(InputError):
    pass


class UnsatisfiedAssignment(CutnetsError):
    pass


class InconsistentGadgetState(InputError):
    pass


class NotTreeChild(InputError):
    pass


class InvalidN(InputError):
    pass


# --- tree containment --------------------------------------------------------

class TrivialCutEdge(CutnetsError):
    pass


class NoMatchingTreeEdge(CutnetsError):
    pass


class NotSimple(CutnetsError):
    pass


class NotThreeCuttable(InputError):
    pass


class TooFewLeaves(CutnetsError):
    pass


# --- parsing -----------------------------------------------------------------

class ParseError(InputError):
    """Syntax error with a 1-based line/column position."""

    def __init__(self, message, line=None, col=None):
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(f"{message}{where}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"\S+")


def token_column(raw: str, i: int) -> int:
    """The column where the ``i``-th white-space separated token of ``raw`` starts."""
    return [m.start() for m in _TOKEN_RE.finditer(raw)][i] + 1


def parse_id(token: str, raw: str, i: int, line: int, offset: int = 0) -> int:
    """The positive integer id ``token``, which starts ``offset`` characters
    into the ``i``-th token of the line ``raw``, the ``line``-th; a
    ParseError names the line and the id's column otherwise.

    Only ASCII decimal digits pass: ``str.isdigit`` is true for '²', which
    ``int`` rejects, and ``int`` also refuses a token of more than 4300
    digits (Python's limit on converting a string to an int).
    """
    if token.isascii() and token.isdecimal():
        try:
            if (value := int(token)) > 0:
                return value
        except ValueError:
            pass
    raise ParseError(f"expected a positive integer id, found {token!r}", line,
                     token_column(raw, i) + offset)


class ClauseArityError(ParseError):
    pass


class NotBinary(ParseError):
    pass


class DegreeError(InputError):
    pass


class CycleError(InputError):
    pass


class ValidationError(InputError):
    """The file was well formed but describes an invalid network."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
