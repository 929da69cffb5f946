"""Typed error hierarchy.

Three families, matching the CLI exit-code contract:

* ``UsageError`` (exit 2): violated argument or format contracts.
* ``GenericityError`` (exit 3): mathematically meaningful failures on
  degenerate or unlucky input; retrying with another seed, prime, or
  input is the expected remedy.
* ``InternalError`` (exit 4): invariants that can only break through a
  bug; never expected on any input.
"""

from __future__ import annotations

#: The most characters of a user token that an error message repeats.
QUOTE_LIMIT = 100


def quoted(token) -> str:
    """``repr(token)`` as a message quotes it, clipped when it is long.

    Past ``QUOTE_LIMIT`` characters the message keeps that many and
    states the length: of the text for a string, of its ``repr``
    otherwise.  So a megabyte literal costs a line of stderr.  An int
    too long for ``repr`` (past Python's 4,300 digits) is given by its
    bit length.
    """
    try:
        text = repr(token)
    except ValueError:
        return f"an integer of {token.bit_length()} bits"
    if len(text) <= QUOTE_LIMIT:
        return text
    size = len(token) if isinstance(token, str) else len(text)
    return f"{text[:QUOTE_LIMIT]}... ({size} characters)"


class SkewlabError(Exception):
    """Base class for every error raised by this package."""


class UsageError(SkewlabError, ValueError):
    """An argument, range, or format contract was violated."""


class RangeError(UsageError):
    """A numeric parameter is outside its documented range."""


class AlphabetMismatch(UsageError):
    """Operands live over different variable alphabets."""


class DegreeMismatch(UsageError):
    """Operands have incompatible homogeneous degrees."""


class OddDegree(UsageError):
    """An even degree was required (catalecticant middle, flips)."""


class OddOrder(UsageError):
    """Pfaffians require even matrix order."""


class EvenOrder(UsageError):
    """Sub-Pfaffian vectors require odd matrix order."""


class NotSkew(UsageError):
    """A matrix expected to be skew-symmetric is not."""


class FormatError(UsageError):
    """Text or JSON input does not match the documented file formats."""


class GenericityError(SkewlabError):
    """Degenerate or non-generic input; retry with different data."""


class NotGorensteinSocle(GenericityError):
    """The joint annihilator in the requested degree is not a line."""


class DegenerateInput(GenericityError):
    """A matrix input fails the genericity needed by the construction."""


class DegenerateForm(GenericityError):
    """A form input fails the nondegeneracy needed by the construction."""


class DegenerateG(DegenerateForm):
    """The projection center construction received a degenerate form."""


class SyzygyDefect(GenericityError):
    """The linear-syzygy space does not have the expected dimension."""


class SkewNormalizationFailure(GenericityError):
    """The skew solution is not a line, or its pencil's sub-Pfaffians
    do not span the annihilator."""


class NoPointsFound(GenericityError):
    """A finite-field scan exhausted the point set without a hit."""


class InternalError(SkewlabError):
    """An internal invariant failed; this signals a bug, not bad input."""
