"""Exception taxonomy.

Every domain error raised by this package derives from ChromabraidError so
the command line layer can map the whole family to a single exit code.
"""

from __future__ import annotations


class ChromabraidError(Exception):
    """Base class for all errors raised by chromabraid."""


class ParseError(ChromabraidError, ValueError):
    """Malformed textual input (braid word or graph file)."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at token {position})"
        super().__init__(message)
        self.position = position


class IndexRangeError(ChromabraidError, ValueError):
    """Letter index, vertex index, or size parameter outside its valid range."""


class StrandMismatchError(ChromabraidError, ValueError):
    """Binary operation on words over different strand counts."""


class GraphInputError(ChromabraidError, ValueError):
    """Invalid graph data: loop edge, out-of-range vertex, repeated vertex, bad file."""


class AutBoundError(ChromabraidError, ValueError):
    """Exhaustive automorphism search refused: vertex count above
    graphs.MAX_AUT_VERTICES, or more automorphisms than graphs.MAX_AUTOMORPHISMS."""


class NotPureError(ChromabraidError, ValueError):
    """Operation requires a pure braid word but the underlying permutation is not the identity."""


class NotAutomorphismError(ChromabraidError, ValueError):
    """Permutation of a word is not an automorphism of the conditioning graph."""


class OutOfScopeError(ChromabraidError, ValueError):
    """Graph outside the decidable fragment: has a 3-circuit and is not complete."""


class ResourceLimitError(ChromabraidError, ValueError):
    """Computation refused: its worst-case memory exceeds a fixed limit."""
