"""Skew matrices of linear forms, Pfaffians, and the tensor flip.

A square skew matrix N with entries linear in y0..y(m-1) and an n x m
pencil M with entries linear in x0..x(n-1) are two slices of one tensor
(a^k_{i,j}); ``tensor_flip`` turns the first into the second.
Scalar Pfaffians come from skew elimination in O(n^3), fraction-free on
integers; the same elimination, run on an odd matrix bordered by a row
and a column of unknowns, gives all its sub-Pfaffians at once.
Polynomial Pfaffians and sub-Pfaffians are evaluated at the points of
the principal lattice (y0 = 1, the other coordinates non-negative
integers of sum at most the degree) and interpolated by Newton forward
differences, all on integers: the pencil is lifted to integers once and
the exact result is reduced through its field.
"""

from __future__ import annotations

from math import factorial, lcm, prod
from typing import Sequence

from .errors import (
    AlphabetMismatch,
    DegreeMismatch,
    EvenOrder,
    FormatError,
    NotSkew,
    OddOrder,
    UsageError,
    quoted,
)
from .fields import Field, check_size
from .linalg import Matrix
from .rings import Alphabet, HomogPoly, format_poly, grading_from_json, mono_index, monomials, parse_poly


class PolyMatrix:
    """Rectangular matrix of homogeneous polynomials of one degree.

    Stored as coefficient layers: ``layers[k]`` is the scalar matrix of
    the coefficients of the k-th grlex monomial of the entry degree, so
    the matrix is ``sum_k m_k layers[k]``.  A skew pencil in y0..y(m-1)
    is its m skew forms; the flipped pencil has one layer per x_i.
    """

    __slots__ = ("alphabet", "degree", "field", "layers", "nrows", "ncols")

    def __init__(self, alphabet: Alphabet, degree: int, field: Field, layers: Sequence):
        layers = [[list(row) for row in layer] for layer in layers]
        if len(layers) != len(monomials(alphabet.nvars, degree)):
            raise DegreeMismatch("one coefficient layer per monomial is needed")
        if not layers[0] or not layers[0][0]:
            raise UsageError("empty polynomial matrix")
        self.nrows, self.ncols = len(layers[0]), len(layers[0][0])
        if any(list(map(len, layer)) != [self.ncols] * self.nrows for layer in layers):
            raise UsageError(f"every coefficient layer must be {self.nrows} x {self.ncols}")
        self.alphabet = alphabet
        self.degree = degree
        self.field = field
        self.layers = layers

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[HomogPoly]]) -> "PolyMatrix":
        """The matrix of a grid of polynomials of one alphabet, field and degree."""
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise UsageError("empty polynomial matrix")
        ncols = len(entries[0])
        if any(len(row) != ncols for row in entries):
            raise UsageError("ragged rows")
        first = entries[0][0]
        for row in entries:
            for q in row:
                if q.alphabet != first.alphabet:
                    raise AlphabetMismatch("mixed alphabets in one matrix")
                if q.field != first.field:
                    raise UsageError("mixed fields in one matrix")
                if q.degree != first.degree:
                    raise DegreeMismatch("mixed degrees in one matrix")
        layers = [[[q.coeffs[k] for q in row] for row in entries] for k in range(len(first.coeffs))]
        return cls(first.alphabet, first.degree, first.field, layers)

    def entry(self, i: int, j: int) -> HomogPoly:
        return HomogPoly(self.alphabet, self.degree, self.field, [a[i][j] for a in self.layers])

    @property
    def entries(self) -> tuple[tuple[HomogPoly, ...], ...]:
        return tuple(tuple(self.entry(i, j) for j in range(self.ncols)) for i in range(self.nrows))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and other.alphabet == self.alphabet
            and other.degree == self.degree
            and other.field == self.field
            and other.layers == self.layers
        )

    def __repr__(self) -> str:
        return f"PolyMatrix({self.nrows}x{self.ncols}, deg={self.degree}, {self.alphabet.key})"


def is_skew_matrix(pm: PolyMatrix) -> bool:
    n = pm.nrows
    reduce = pm.field.from_int
    return n == pm.ncols and all(
        a[i][i] == 0 and all(a[i][j] == reduce(-a[j][i]) for j in range(i + 1, n))
        for a in pm.layers
        for i in range(n)
    )


def skew_linear(entries: Sequence[Sequence[HomogPoly]] | PolyMatrix) -> PolyMatrix:
    """Validated skew matrix of linear forms."""
    pm = entries if isinstance(entries, PolyMatrix) else PolyMatrix.from_entries(entries)
    if pm.degree != 1:
        raise DegreeMismatch("skew pencil entries must be linear forms")
    if not is_skew_matrix(pm):
        raise NotSkew("matrix is not skew-symmetric")
    return pm


# -- pfaffian core --------------------------------------------------------


def _pfaffian(a: list[list[int]]) -> list[int]:
    """Pfaffian coefficients of a skew matrix of ints.

    Even order: ``[pf(a)]``.  Odd order n: the ``s_i = (-1)^i pf(a without
    row and column i)`` with ``pf([[a, z], [-z^T, 0]]) = sum_i s_i z_i``;
    row i carries the z-coefficients of its border entry as n extra
    columns, e_i at the start.

    Skew elimination, one 2 x 2 block per step.  Symmetric swaps, each
    flipping the sign, move the first nonzero entry of the square part to
    (0, 1).  With pivot ``E[0][1]``, rows ``u = E[0]`` and ``w = E[1]``
    and the previous pivot ``prev`` (1 at the start), every other row,
    extra columns included, becomes

        E'[i][j] = (E[0][1] * E[i][j] + w_i u_j - u_i w_j) / prev.

    Every entry of every E is, up to sign, the Pfaffian of a principal
    submatrix of the bordered input, so the division is exact and the
    loop is fraction-free.  The result, signed by the swaps, is the last
    pivot or the last row's extra columns; an all-zero square part gives
    0.  The rows of ``a`` are consumed.
    """
    n = len(a)
    if n % 2:
        for i, row in enumerate(a):
            row.extend(int(i == k) for k in range(n))
    sign = 1
    prev = 1
    while len(a) > 1:
        r = len(a)
        ij = next(((i, j) for i in range(r) for j in range(i + 1, r) if a[i][j]), None)
        if ij is None:
            return [0] * (n if n % 2 else 1)
        for s, t in enumerate(ij):
            if s != t:
                a[s], a[t] = a[t], a[s]
                for row in a:
                    row[s], row[t] = row[t], row[s]
                sign = -sign
        u = a[0]
        piv = u[1]
        u2, w2 = u[2:], a[1][2:]
        a = [
            [(piv * x + wi * uj - ui * wj) // prev for x, uj, wj in zip(row[2:], u2, w2)]
            for row, ui, wi in zip(a[2:], u2, w2)
        ]
        prev = piv
    return [sign * x for x in (a[0][1:] if a else [prev])]


def _lattice_lines(nvars: int, deg: int) -> list[list[list[int]]]:
    """Lines of the principal lattice, per direction, as coefficient indices.

    The lattice point ``(1, e1, .., e(nvars-1))`` with ``e1 + .. <= deg``
    is stored at the grlex index of ``y0^(deg - |e|) y1^e1 ..``.  A line
    in direction ``t`` starts where ``e_t = 0`` and steps ``e_t`` up.
    """
    idx = mono_index(nvars, deg)
    out = []
    for t in range(1, nvars):
        lines = []
        for expo in monomials(nvars, deg):
            if expo[t]:
                continue
            e = list(expo)
            line = []
            for _ in range(expo[0] + 1):
                line.append(idx[tuple(e)])
                e[0] -= 1
                e[t] += 1
            lines.append(line)
        out.append(lines)
    return out


def _binomial_to_monomial(deg: int) -> list[list[int]]:
    """``rows[i][k]``: coefficient of ``x^k`` in ``deg! * binom(x, i)``."""
    rows = []
    falling = [1]  # x (x - 1) .. (x - i + 1), by ascending power
    for i in range(deg + 1):
        if i:
            falling = [
                (falling[k - 1] if k else 0) - (i - 1) * (falling[k] if k < i else 0)
                for k in range(i + 1)
            ]
        rows.append([c * (factorial(deg) // factorial(i)) for c in falling])
    return rows


def _interpolate(values: list[list[int]], nvars: int, deg: int) -> None:
    """Lattice values to ``deg!^(nvars-1)`` times monomial coefficients, in place.

    ``values[i]`` holds the values of some forms of degree ``deg`` at the
    lattice point of monomial ``i``.  Forward differences along every
    direction give the Newton coefficients ``Delta^e f(0)`` of
    ``f = sum_e Delta^e f(0) prod_t binom(x_t, e_t)``; expanding each
    binomial in monomials then gives the coefficients.  Both passes run
    along lattice lines, so they stay inside the lattice.
    """
    lines = _lattice_lines(nvars, deg)
    for per_direction in lines:
        for line in per_direction:
            for k in range(1, len(line)):
                for i in range(len(line) - 1, k - 1, -1):
                    hi, lo = values[line[i]], values[line[i - 1]]
                    values[line[i]] = [x - y for x, y in zip(hi, lo)]
    expand = _binomial_to_monomial(deg)
    for per_direction in lines:
        for line in per_direction:
            for k in range(len(line)):
                acc = [0] * len(values[line[k]])
                for i in range(k, len(line)):
                    c = expand[i][k]
                    if c:
                        acc = [s + c * x for s, x in zip(acc, values[line[i]])]
                values[line[k]] = acc


def _at_point(layers: Sequence, monos: Sequence[tuple[int, ...]], point: Sequence) -> list[list]:
    """``sum_k m_k(point) layers[k]``, unreduced, for the monomials ``m_k``."""
    out = [[0] * len(layers[0][0]) for _ in layers[0]]
    for m, layer in zip(monos, layers):
        c = prod(x**e for x, e in zip(point, m))
        if c:
            out = [[s + c * x for s, x in zip(row, lrow)] for row, lrow in zip(out, layer)]
    return out


def _lattice_forms(pm: PolyMatrix) -> list[HomogPoly]:
    """Pfaffian coefficients of ``pm`` as forms, from their lattice values.

    The forms are the output of ``_pfaffian`` on ``pm``, of degree
    ``(pm.nrows // 2) * pm.degree``.  The pencil is scaled by the common
    denominator ``L`` of its entries (1 over F_p, whose scalars are ints)
    and lifted to integers, so every lattice value is an exact integer
    Pfaffian.  The interpolated coefficients are exact integers times
    ``deg!^(nvars-1)``; each is divided by that exactly, then reduced
    into the field and divided there by ``L^half``.  This is right over
    every field because a Pfaffian is an integer polynomial in the
    entries.
    """
    field = pm.field
    nvars = pm.alphabet.nvars
    half = pm.nrows // 2
    deg = pm.degree * half
    scale = lcm(*(c.denominator for a in pm.layers for row in a for c in row))
    lift = lambda c: c.numerator * (scale // c.denominator)
    # each layer is lifted from its upper triangle, so that a lift from
    # F_p is skew over the integers
    n = pm.nrows
    layers = [
        [[lift(a[i][j]) if i <= j else -lift(a[j][i]) for j in range(n)] for i in range(n)]
        for a in pm.layers
    ]
    entry_monos = monomials(nvars, pm.degree)
    values = [
        _pfaffian(_at_point(layers, entry_monos, (1,) + expo[1:]))
        for expo in monomials(nvars, deg)
    ]
    _interpolate(values, nvars, deg)
    denom = factorial(deg) ** (nvars - 1)
    inv = field.inv(field.from_int(scale**half))
    coeff = lambda v: field.from_int(v // denom * inv)
    return [
        HomogPoly(pm.alphabet, deg, field, [coeff(vec[c]) for vec in values])
        for c in range(len(values[0]))
    ]


def pfaffian_poly(pm: PolyMatrix) -> HomogPoly:
    """Pfaffian of an even-order skew polynomial matrix.

    Convention: pf of [[0, a], [-a, 0]] is ``a``; the empty product
    convention gives the order-0 matrix Pfaffian 1.
    """
    if pm.nrows != pm.ncols:
        raise UsageError("pfaffian of a non-square matrix")
    if pm.nrows % 2:
        raise OddOrder("pfaffian needs even order")
    if not is_skew_matrix(pm):
        raise NotSkew("pfaffian of a non-skew matrix")
    (pf,) = _lattice_forms(pm)
    return pf


def sub_pfaffians(pm: PolyMatrix) -> tuple[tuple[HomogPoly, ...], tuple[HomogPoly, ...]]:
    """Principal sub-Pfaffians of an odd-order skew matrix.

    Returns ``(pf, signed)`` where ``pf[i]`` is the Pfaffian with row and
    column ``i`` deleted and ``signed[i] = (-1)^i pf[i]``. The signed
    vector satisfies ``N signed = 0`` identically; that identity fixes
    the sign convention.
    """
    if pm.nrows != pm.ncols:
        raise UsageError("sub-Pfaffians of a non-square matrix")
    if pm.nrows % 2 == 0:
        raise EvenOrder("sub-Pfaffian vector needs odd order")
    if not is_skew_matrix(pm):
        raise NotSkew("sub-Pfaffians of a non-skew matrix")
    signed = tuple(_lattice_forms(pm))
    pfs = tuple(q if i % 2 == 0 else -q for i, q in enumerate(signed))
    return pfs, signed


# -- tensor flip ------------------------------------------------------------


def tensor_flip(pm: PolyMatrix) -> PolyMatrix:
    """Skew n x n matrix over y0..y(m-1) -> n x m pencil over x0..x(n-1).

    Writing N[i][j] = sum_k a^k_{i,j} y_k, the flip is
    M[j][k] = sum_i a^k_{i,j} x_i: layer i of M is row i of the layers of N.
    """
    skew_linear(pm)
    n = pm.nrows
    layers = [[[a[i][j] for a in pm.layers] for j in range(n)] for i in range(n)]
    return PolyMatrix(Alphabet("X", n), 1, pm.field, layers)


# -- evaluation ----------------------------------------------------------------


def evaluate_matrix(pm: PolyMatrix, point: Sequence) -> Matrix:
    """Scalar matrix of entry values at a point."""
    if len(point) != pm.alphabet.nvars:
        raise DegreeMismatch("point has wrong length")
    f = pm.field
    a = _at_point(pm.layers, monomials(pm.alphabet.nvars, pm.degree), point)
    return Matrix(f, [[f.from_int(s) for s in row] for row in a], pm.ncols)


# -- serialization ---------------------------------------------------------------


def poly_matrix_to_json(pm: PolyMatrix, kind: str) -> dict:
    """Matrix JSON; ``kind`` is ``"skew-linear"`` or ``"pencil"``.

    For a skew matrix ``n`` is the order and ``m`` the number of base
    variables; for a pencil ``n`` is the row count (and the number of x
    variables) and ``m`` the column count.
    """
    if kind == "skew-linear":
        n, m = pm.nrows, pm.alphabet.nvars
    elif kind == "pencil":
        n, m = pm.nrows, pm.ncols
    else:
        raise UsageError(f"unknown matrix kind {kind!r}")
    return {
        "kind": kind,
        "n": n,
        "m": m,
        "alphabet": pm.alphabet.key,
        "nvars": pm.alphabet.nvars,
        "degree": pm.degree,
        "field": pm.field.to_json(),
        "entries": [[format_poly(q) for q in row] for row in pm.entries],
    }


def poly_matrix_from_json(obj: dict) -> PolyMatrix:
    """Load matrix JSON; skew matrices are re-validated on load."""
    try:
        kind = obj["kind"]
        field = Field.from_json(obj["field"])
        alphabet, degree = grading_from_json(obj)
        check_size(len(obj["entries"]), "matrix order")
        entries = [
            [parse_poly(t, alphabet, field, degree) for t in row] for row in obj["entries"]
        ]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad matrix JSON: {exc}") from exc
    pm = PolyMatrix.from_entries(entries)
    if kind == "skew-linear":
        return skew_linear(pm)
    if kind == "pencil":
        return pm
    raise FormatError(f"unknown matrix kind {quoted(kind)}")
