"""Exception types raised across the package.

Every contract violation has its own class so callers (and the CLI) can
distinguish operational errors from mathematical answers.
"""


class TreescarfError(Exception):
    """Base class for all errors raised by this package."""


# -- simplicial complexes ---------------------------------------------------

class EmptyInputError(TreescarfError):
    """A complex was constructed from an empty facet list."""


class EmptyFaceError(TreescarfError):
    """A candidate facet was the empty set."""


class NotAFaceError(TreescarfError):
    """The given set is not a face of the complex."""


# -- collapses ---------------------------------------------------------------

class InvalidStepError(TreescarfError):
    """A collapse step is not valid on the current complex."""


class NotATreeError(TreescarfError):
    """The complex is not a simplicial tree.

    Carries the evidence: a leafless subcollection in ``witness``, or a
    ``reason`` string for disconnected/empty inputs.
    """

    def __init__(self, message, witness=None, reason=None):
        super().__init__(message)
        self.witness = witness
        self.reason = reason


class NotAForestError(TreescarfError):
    """The complex is not a simplicial forest."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# -- monomials ---------------------------------------------------------------

class EmptyListError(TreescarfError):
    """lcm of an empty list of monomials."""


class MonomialParseError(TreescarfError):
    """Monomial text did not match the grammar; ``position`` is the offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- Scarf ideal constructions ------------------------------------------------

class BoundaryOfSimplexError(TreescarfError):
    """The complex is the boundary of a simplex, which has no Scarf ideal."""


class DegenerateVertexFacetError(TreescarfError):
    """A single-vertex facet makes the reduced Scarf ideal undefined."""


class BadHError(TreescarfError):
    """An intermediate-family factor does not divide its allowed cofactor."""

    def __init__(self, message, vertex):
        super().__init__(message)
        self.vertex = vertex


class ArityMismatchError(TreescarfError):
    """An ideal's generator count does not match a complex's vertex count."""


# -- file formats --------------------------------------------------------------

class InputFileError(TreescarfError):
    """An input file failed to parse or validate.

    ``location`` describes where (JSON path or line/column) when known.
    """

    def __init__(self, message, path=None, location=None):
        detail = message
        if location is not None:
            detail = f"{detail} [{location}]"
        if path is not None:
            detail = f"{path}: {detail}"
        super().__init__(detail)
        self.path = path
        self.location = location
