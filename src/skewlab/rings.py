"""Graded polynomial rings with fixed monomial order.

Three variable alphabets appear throughout: ``y0..y(m-1)`` for the base
coordinates, ``d0..d(m-1)`` for the dual (operator) coordinates, and
``x0..x(n-1)`` for the ambient projective space of a pencil. Homogeneous
pieces are stored densely over the graded-lex monomial basis (larger
exponent on the earlier variable first: ``y0^2 > y0*y1 > ... > y2^2``).
No Groebner machinery anywhere; every question is a linear-algebra
question about one graded slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import (
    AlphabetMismatch,
    DegreeMismatch,
    FormatError,
    RangeError,
    SkewlabError,
    UsageError,
    quoted,
)
from .fields import MAX_ORDER, Field, check_size, json_int
from .linalg import Matrix, row_space_canonical

_PREFIX = {"Y": "y", "D": "d", "X": "x"}


@dataclass(frozen=True)
class Alphabet:
    """A named tuple of variables, e.g. y0..y2."""

    key: str
    nvars: int

    def __post_init__(self):
        if self.key not in _PREFIX:
            raise UsageError(f"unknown alphabet key {quoted(self.key)}")
        if self.nvars < 1:
            raise UsageError("alphabet needs at least one variable")

    @property
    def prefix(self) -> str:
        return _PREFIX[self.key]

    def dual(self) -> "Alphabet":
        if self.key == "Y":
            return Alphabet("D", self.nvars)
        if self.key == "D":
            return Alphabet("Y", self.nvars)
        raise UsageError("the x alphabet has no dual")

    def var_name(self, i: int) -> str:
        return f"{self.prefix}{i}"


def y_vars(m: int = 3) -> Alphabet:
    return Alphabet("Y", m)


def d_vars(m: int = 3) -> Alphabet:
    return Alphabet("D", m)


def x_vars(n: int) -> Alphabet:
    return Alphabet("X", n)


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree ``degree`` in graded-lex order."""
    if degree < 0:
        return ()

    def gen(k: int, d: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            yield (d,)
            return
        for e in range(d, -1, -1):
            for rest in gen(k - 1, d - e):
                yield (e,) + rest

    return tuple(gen(nvars, degree))


@lru_cache(maxsize=None)
def mono_index(nvars: int, degree: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(monomials(nvars, degree))}


def dim_homog(nvars: int, degree: int) -> int:
    """Dimension of the degree-``degree`` homogeneous piece."""
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


class HomogPoly:
    """A homogeneous polynomial: dense coefficients over the grlex basis."""

    __slots__ = ("alphabet", "degree", "field", "coeffs")

    def __init__(self, alphabet: Alphabet, degree: int, field: Field, coeffs: Sequence):
        if degree < 0:
            raise DegreeMismatch("negative degree")
        coeffs = tuple(coeffs)
        if len(coeffs) != dim_homog(alphabet.nvars, degree):
            raise DegreeMismatch("coefficient vector has wrong length")
        self.alphabet = alphabet
        self.degree = degree
        self.field = field
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, degree: int, field: Field) -> "HomogPoly":
        return cls(alphabet, degree, field, [field.zero] * dim_homog(alphabet.nvars, degree))

    @classmethod
    def from_terms(
        cls,
        alphabet: Alphabet,
        degree: int,
        field: Field,
        terms: Iterable[tuple[object, tuple[int, ...]]],
    ) -> "HomogPoly":
        coeffs = [field.zero] * dim_homog(alphabet.nvars, degree)
        idx = mono_index(alphabet.nvars, degree)
        for c, expo in terms:
            expo = tuple(expo)
            if expo not in idx:
                raise DegreeMismatch(f"exponent {quoted(expo)} is not homogeneous of degree {degree}")
            coeffs[idx[expo]] = field.from_int(coeffs[idx[expo]] + c)
        return cls(alphabet, degree, field, coeffs)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, expo: Sequence[int]):
        return self.coeffs[mono_index(self.alphabet.nvars, self.degree)[tuple(expo)]]

    def terms(self) -> Iterator[tuple[object, tuple[int, ...]]]:
        """Nonzero (coefficient, exponent) pairs in grlex order."""
        basis = monomials(self.alphabet.nvars, self.degree)
        for c, e in zip(self.coeffs, basis):
            if c != 0:
                yield c, e

    def _check_compatible(self, other: "HomogPoly", same_degree: bool) -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(f"{self.alphabet} vs {other.alphabet}")
        if self.field != other.field:
            raise UsageError("field mismatch")
        if same_degree and self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other, same_degree=True)
        f = self.field
        return HomogPoly(
            self.alphabet,
            self.degree,
            f,
            [f.from_int(a + b) for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other, same_degree=True)
        f = self.field
        return HomogPoly(
            self.alphabet,
            self.degree,
            f,
            [f.from_int(a - b) for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self) -> "HomogPoly":
        f = self.field
        return HomogPoly(self.alphabet, self.degree, f, [f.from_int(-a) for a in self.coeffs])

    def scale(self, c) -> "HomogPoly":
        f = self.field
        return HomogPoly(self.alphabet, self.degree, f, [f.from_int(c * a) for a in self.coeffs])

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        self._check_compatible(other, same_degree=False)
        f = self.field
        nvars = self.alphabet.nvars
        tdeg = self.degree + other.degree
        out = [f.zero] * dim_homog(nvars, tdeg)
        idx = mono_index(nvars, tdeg)
        reduce = f.from_int
        sterms = list(self.terms())
        oterms = list(other.terms())
        for c1, e1 in sterms:
            for c2, e2 in oterms:
                e = tuple(a + b for a, b in zip(e1, e2))
                i = idx[e]
                out[i] = reduce(out[i] + c1 * c2)
        return HomogPoly(self.alphabet, tdeg, f, out)

    def evaluate(self, point: Sequence):
        """Value at a point given as field scalars in variable order."""
        if len(point) != self.alphabet.nvars:
            raise DegreeMismatch("point has wrong length")
        total = 0
        for c, expo in self.terms():
            for x, e in zip(point, expo):
                if e:
                    c *= x**e
            total += c
        return self.field.from_int(total)

    def leading_normalized(self) -> "HomogPoly":
        """Scale so the first nonzero grlex coefficient is 1."""
        for c in self.coeffs:
            if c != 0:
                return self.scale(self.field.inv(c))
        return self

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HomogPoly)
            and other.alphabet == self.alphabet
            and other.degree == self.degree
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.degree, self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"HomogPoly({format_poly(self)!r})"


# -- text format -------------------------------------------------------------


def _format_monomial(alphabet: Alphabet, expo: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 1:
            parts.append(alphabet.var_name(i))
        elif e > 1:
            parts.append(f"{alphabet.var_name(i)}^{e}")
    return "*".join(parts)


def format_poly(poly: HomogPoly) -> str:
    """Canonical text form, e.g. ``3*y0^2*y1 - y2^3``; zero prints ``0``."""
    pieces = []
    for c, expo in poly.terms():
        mono = _format_monomial(poly.alphabet, expo)
        txt = str(c)
        neg = txt.startswith("-")
        mag = txt[1:] if neg else txt
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces) if pieces else "0"


def parse_poly(
    text: str,
    alphabet: Alphabet,
    field: Field,
    degree: int | None = None,
) -> HomogPoly:
    """Parse the canonical text form.

    ``degree`` may be omitted when the text has at least one term; it is
    required to give the zero polynomial a grade.
    """
    if not isinstance(text, str):
        raise FormatError(f"polynomial text must be a string, got {quoted(text)}")
    src = text.replace(" ", "")
    if not src:
        raise FormatError("empty polynomial text")
    terms: list[tuple[object, tuple[int, ...]]] = []
    # split into signed chunks
    chunks: list[str] = []
    cur = []
    for i, ch in enumerate(src):
        if ch in "+-" and i > 0 and src[i - 1] not in "+-/^*":
            chunks.append("".join(cur))
            cur = [ch]
        else:
            cur.append(ch)
    chunks.append("".join(cur))
    prefix = alphabet.prefix
    for chunk in chunks:
        if chunk in ("", "+"):
            continue
        sign = 1
        body = chunk
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise FormatError(f"dangling sign in {quoted(text)}")
        coeff = field.one
        expo = [0] * alphabet.nvars
        deg = 0
        for factor in body.split("*"):
            if not factor:
                raise FormatError(f"empty factor in {quoted(text)}")
            if factor[0].isdigit() or factor[0] == ".":
                coeff = field.from_int(coeff * field.parse_scalar(factor))
                continue
            if not factor.startswith(prefix):
                raise FormatError(f"unknown variable in factor {quoted(factor)}")
            var, _, exp_txt = factor.partition("^")
            try:
                vi = int(var[len(prefix):])
            except ValueError as exc:
                raise FormatError(f"bad variable {quoted(var)}") from exc
            if not 0 <= vi < alphabet.nvars:
                raise FormatError(f"variable index out of range in {quoted(factor)}")
            e = 1
            if exp_txt:
                try:
                    e = int(exp_txt)
                except ValueError as exc:
                    raise FormatError(f"bad exponent in {quoted(factor)}") from exc
                if e < 0:
                    raise FormatError("negative exponent")
            expo[vi] += e
            deg += e
        if sign < 0:
            coeff = field.from_int(-coeff)
        if degree is None:
            degree = deg
        if deg != degree and coeff != 0:
            raise DegreeMismatch(f"term of degree {quoted(deg)} in degree-{degree} polynomial")
        if body == "0" or (deg == 0 and coeff == 0):
            continue
        terms.append((coeff, tuple(expo)))
    if degree is None:
        raise FormatError("cannot infer the degree of the zero polynomial")
    return HomogPoly.from_terms(alphabet, degree, field, terms)


# -- JSON format --------------------------------------------------------------


def grading_from_json(obj: dict) -> tuple[Alphabet, int]:
    """The alphabet and degree of a JSON polynomial or matrix, each capped."""
    alphabet = Alphabet(str(obj["alphabet"]), check_size(obj["nvars"], "nvars"))
    degree = check_size(obj["degree"], "degree")
    # their monomials too, before anything is built: no command reads more than a ternary form has
    cap = dim_homog(3, MAX_ORDER)
    if dim_homog(alphabet.nvars, degree) > cap:
        raise RangeError(f"{alphabet.nvars} variables in degree {degree} span more than {cap} monomials")
    return alphabet, degree


def poly_to_json(poly: HomogPoly) -> dict:
    field = poly.field
    return {
        "alphabet": poly.alphabet.key,
        "nvars": poly.alphabet.nvars,
        "degree": poly.degree,
        "field": field.to_json(),
        "terms": [[field.scalar_to_json(c), list(e)] for c, e in poly.terms()],
    }


def poly_from_json(obj: dict) -> HomogPoly:
    try:
        alphabet, degree = grading_from_json(obj)
        field = Field.from_json(obj["field"])
        terms = [
            (field.scalar_from_json(c), tuple(json_int(x, "exponent") for x in e))
            for c, e in obj["terms"]
        ]
    except SkewlabError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: a term is not a pair
        raise FormatError(f"bad polynomial JSON: {exc}") from exc
    return HomogPoly.from_terms(alphabet, degree, field, terms)


# -- graded slices -------------------------------------------------------------


class GradedSlice:
    """A subspace of one homogeneous piece, stored canonically.

    ``basis`` is a list of coefficient vectors over the monomial basis:
    the nonzero rows of the reduced echelon form of any spanning set
    (``row_space_canonical``), so two slices are equal as subspaces
    exactly when their bases are equal, and ``dim`` is their count.
    """

    __slots__ = ("alphabet", "degree", "field", "basis")

    def __init__(self, alphabet: Alphabet, degree: int, field: Field, vectors: Sequence[Sequence]):
        if degree < 0:
            raise DegreeMismatch("negative degree")
        amb = dim_homog(alphabet.nvars, degree)
        if any(len(v) != amb for v in vectors):
            raise DegreeMismatch("slice vector has wrong ambient dimension")
        self.alphabet = alphabet
        self.degree = degree
        self.field = field
        self.basis = row_space_canonical(Matrix(field, vectors, amb))

    @classmethod
    def from_polys(cls, polys: Sequence[HomogPoly]) -> "GradedSlice":
        """The span of a nonempty list of polynomials of one grading."""
        first = polys[0]
        for q in polys[1:]:
            first._check_compatible(q, same_degree=True)
        return cls(first.alphabet, first.degree, first.field, [q.coeffs for q in polys])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_polys(self) -> list[HomogPoly]:
        return [HomogPoly(self.alphabet, self.degree, self.field, v) for v in self.basis]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedSlice)
            and other.alphabet == self.alphabet
            and other.degree == self.degree
            and other.field == self.field
            and other.basis == self.basis
        )

    def __repr__(self) -> str:
        return f"GradedSlice({self.alphabet.key}{self.alphabet.nvars}, deg={self.degree}, dim={self.dim})"

    def to_json(self) -> dict:
        return {
            "alphabet": self.alphabet.key,
            "nvars": self.alphabet.nvars,
            "degree": self.degree,
            "field": self.field.to_json(),
            "basis": [format_poly(q) for q in self.basis_polys()],
        }


def slices_equal(a: GradedSlice, b: GradedSlice) -> bool:
    """Subspace equality (same grading required)."""
    if (a.alphabet, a.degree, a.field) != (b.alphabet, b.degree, b.field):
        raise UsageError("comparing slices of different gradings")
    return a.basis == b.basis
