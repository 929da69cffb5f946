"""Exact dense linear algebra over QQ and F_p.

Every row operation over F_p happens in one kernel, ``_forward``: forward
elimination that takes the first nonzero entry in scan order as pivot,
clears below each pivot only and returns the pivot columns, leaving a
row echelon form.  ``rank`` reads the pivot count off it.  One back
pass, ``_back``, turns the echelon rows into the free columns of the
reduced echelon form, bottom-up; its other columns are known (a unit at
each row's own pivot, zeros at the other pivots).  ``kernel_basis``,
``kernel_line`` and ``row_space_canonical`` are thin wrappers over those
free columns, ``_echelon``; ``kernel_line`` reduces only a prefix of the
rows and checks the rest against the vector it finds.  Reduced echelon
forms are fully normalized and kernel bases put a unit at their own free
coordinate, so every result is canonical.
Matrices are dense lists of lists, and a subspace is a list of its
basis vectors: ``kernel_basis`` and ``kernel_line`` return the kernel
that way, and ``row_space_canonical`` the nonzero rows of the reduced
echelon form.  Inside the kernel the field holds each row in its packed
form (``GF.pack``), and one call per column (``GF.drop_column``) clears
it below the pivot, one big-integer multiply-add per row, and shifts it
off those rows.  So the pivot search and the update factors read only
each row's lowest entry (``GF.low_entry``), and the rows get shorter as
the elimination runs.  ``Matrix.mul`` adds rows with ``Field.axpy``.
Only the field reads, reduces and tells apart scalars.

Over QQ there is one elimination path, and it is multimodular.
``_multimodular_rref`` clears each row's denominators, runs the forward
pass modulo primes between 2**60 and 2**61, combines the primes with the
best (rank, pivots) by CRT, reconstructs the free columns of each
prime's back pass as rationals and accepts the result only when it
reproduces the integer rows exactly.  A Hadamard bound on the minors of
the integer rows fixes how many primes that can take; past it the input
has broken a proof, and ``InternalError`` says so.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import mul
from typing import Sequence

from .errors import DegreeMismatch, InternalError, UsageError
from .fields import Field, crt, integer_rows, modular_field, rational_vector


class Matrix:
    """Immutable-by-convention dense matrix over a ``Field``."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: int):
        rows = [list(r) for r in rows]
        if any(len(r) != ncols for r in rows):
            raise UsageError(f"every row needs {ncols} entries")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[row[j] for row in self.rows] for j in range(self.ncols)], self.nrows)

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise UsageError("field mismatch")
        if self.ncols != other.nrows:
            raise DegreeMismatch("inner dimensions differ")
        f = self.field
        ocols = other.ncols
        out = []
        for row in self.rows:
            acc = [f.zero] * ocols
            for a, orow in zip(row, other.rows):
                if a != 0:
                    acc = f.axpy(a, acc, orow)
            out.append(acc)
        return Matrix(f, out, ocols)

    # -- comparison and serialization ---------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"

    def to_json(self) -> dict:
        f = self.field
        return {
            "rows": self.nrows,
            "cols": self.ncols,
            "field": f.to_json(),
            "entries": [[f.scalar_to_json(a) for a in r] for r in self.rows],
        }


# -- elimination core ----------------------------------------------------


def _forward(rows: list[list], field: Field) -> list[int]:
    """Reduce the F_p ``rows`` to row echelon form in place; return the pivot columns.

    Each column's pivot is the first row at or below the current one with
    a nonzero entry there.  Its row moves up, is scaled to a unit pivot
    and clears that column in the rows below it only.  The field packs
    the rows while they are reduced.  When a column is done, the field
    clears it and shifts it off every row below the pivot row in one call
    (``drop_column``), whether it had a pivot or not, so column c is the
    lowest entry of those rows when the pivot search reads it
    (``low_entry``).  A pivot row is unpacked from column c on, once, and
    its zeros left of c are put back.  ``rows`` ends as those r unpacked
    rows: unit pivots, zeros left of each pivot and below it; the zero
    rows are dropped.
    """
    pivots: list[int] = []
    m = len(rows)
    if m == 0:
        return pivots
    ncols = len(rows[0])
    w = field.pack_width(min(m, ncols))
    for i in range(m):
        rows[i] = field.pack(rows[i], w)
    low, drop = field.low_entry, field.drop_column
    r = 0
    for c in range(ncols):
        for pr in range(r, m):
            piv = low(rows[pr], w)
            if piv:
                break
        else:
            # no pivot: the low entries of rows r on are multiples of p already
            rows[r:] = drop(rows[r:], 0, w)
            continue
        tail = field.unpack(rows[pr], ncols - c, w, field.inv(piv))
        rows[pr], rows[r] = rows[r], [field.zero] * c + tail
        pivots.append(c)
        r += 1
        if r == m:
            break
        rows[r:] = drop(rows[r:], field.pack(tail, w), w)
    del rows[r:]
    return pivots


def _back(rows: list[list], pivots: list[int], ncols: int, field: Field) -> tuple[list[int], list[list]]:
    """The free columns F and the columns R[:, F] of the reduced form of the echelon ``rows``.

    R has a unit at each row's own pivot and zeros at the other pivots,
    so only its free columns are computed, bottom-up.  In a free column
    f, row i of R is 0 when the pivot of row i lies right of f; otherwise
    it is rows[i][f] less rows[i] times the column's entries found so
    far, set at their pivot columns.  Those entries all lie right of
    row i's pivot, so the product runs over the columns from there to f.
    """
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero, reduce = field.zero, field.from_int
    cols = []
    for f in free:
        left = bisect_left(pivots, f)
        x = [zero] * f
        for i in range(left - 1, -1, -1):
            row, s = rows[i], pivots[i]
            x[s] = reduce(row[f] - sum(map(mul, row[s + 1 : f], x[s + 1 : f])))
        cols.append([x[pc] for pc in pivots[:left]] + [zero] * (len(pivots) - left))
    return free, cols


def _multimodular_rref(rows: list[list], ncols: int) -> tuple[list[int], list[int], list[list]]:
    """Pivots P, free columns F and columns R[:, F] of the reduced echelon form R of the QQ ``rows``.

    The integer rows A (``integer_rows``) are reduced modulo the primes of
    ``modular_field`` by the forward pass.  Rank mod q is at most the rank
    over QQ, and a prime that keeps the rank gives the QQ pivots or later
    ones, so the best (rank, pivots) seen counts: the largest rank, then
    the lexicographically first pivots.  A better prime restarts the CRT
    and a worse one is skipped.  A prime that counts adds the residues of
    the free columns F of R from its back pass; they are reconstructed
    as rationals from the combined residues, and R is
    accepted when A[:, F] = A[:, P] R[:, F] holds over ZZ for its pivot
    columns P, each column scaled to integers.  That puts the row space
    of A inside the row space of R, so rank A <= |P|, and the prime gives
    rank A >= |P|: R is the reduced echelon form of A.  At full column
    rank there is no free column, R is the identity and the first prime
    proves it.

    The prime count is bounded (Cabay).  A minor is at most the product
    of its rows' Euclidean norms (Hadamard), and a row of entries below
    2**b has norm below 2**(b + ceil(bits(ncols) / 2)), so the sum h of
    those exponents over the min(rows, ncols) largest rows bounds every
    minor by H = 2**h.  The entries of R are ratios of minors, so good
    primes above 2**60 reconstruct them once their product exceeds
    2 H**2, after (2h + 1) // 60 + 1 of them.  A bad prime divides every
    nonzero minor on the pivot columns, so at most h // 60 primes are bad.
    ``InternalError`` means that no prime within the sum gave an R that
    passes, which those two facts rule out.
    """
    ints = integer_rows(rows)
    half = (ncols.bit_length() + 1) // 2
    sizes = [max(map(abs, row), default=0).bit_length() + half for row in ints]
    h = sum(sorted(sizes, reverse=True)[:ncols])
    best = None
    for i in range((2 * h + 1) // 60 + 1 + h // 60):
        fq = modular_field(i)
        red = list(ints)
        pivots = _forward(red, fq)
        r = len(pivots)
        if best is None or r > len(best) or r == len(best) and pivots < best:
            # the first prime, or a better one: the primes kept so far were bad
            best, residues, modulus = pivots, [0] * (r * (ncols - r)), 1
        elif pivots != best:
            continue  # a lower rank or later pivots: q is a bad prime
        free, cols = _back(red, pivots, ncols, fq)
        vec = [a for col in cols for a in col]
        residues, modulus = crt(residues, modulus, vec, fq.p), modulus * fq.p
        values = rational_vector(residues, modulus)
        if values is None:
            continue
        cols = [values[k * r : (k + 1) * r] for k in range(len(free))]
        if _solves(ints, best, free, cols):
            return best, free, cols
    raise InternalError(f"no verified echelon form within the Hadamard bound of {h} bits")


def _solves(ints: list[list[int]], pivots: list[int], free: list[int], cols: list[list]) -> bool:
    """True when ``ints[:, free] == ints[:, pivots] * cols`` over ZZ, column by column."""
    left = [[row[pc] for pc in pivots] for row in ints]
    for c, col in zip(free, cols):
        d = math.lcm(*[a.denominator for a in col])
        z = [a.numerator * (d // a.denominator) for a in col]
        if any(sum(map(mul, a, z)) != d * row[c] for a, row in zip(left, ints)):
            return False
    return True


def _echelon(rows: list[list], field: Field, ncols: int) -> tuple[list[int], list[int], list[list]]:
    """Pivot columns P, free columns F and columns R[:, F] of the reduced echelon form R of ``rows``.

    Over QQ the multimodular form answers, over F_p the forward pass and
    the back pass.  The row list is not changed.
    """
    if field.is_rational:
        return _multimodular_rref(rows, ncols)
    rows = list(rows)
    pivots = _forward(rows, field)
    return (pivots, *_back(rows, pivots, ncols, field))


def rank(mat: Matrix) -> int:
    """The rank: over F_p the pivot count of the forward pass.

    Over QQ a wide matrix is transposed, so that full rank has no free column.
    """
    if not mat.field.is_rational:
        return len(_forward(list(mat.rows), mat.field))
    if mat.nrows < mat.ncols:
        mat = mat.transpose()
    return len(_echelon(mat.rows, mat.field, mat.ncols)[0])


def kernel_basis(mat: Matrix) -> list[list]:
    """Basis of the right kernel, a list of vectors of length ``ncols``.

    Each basis vector carries a unit at its own free coordinate and zeros
    at the other free coordinates, which makes the basis canonical.
    """
    field, ncols = mat.field, mat.ncols
    pivots, free, cols = _echelon(mat.rows, field, ncols)
    basis = []
    for fc, col in zip(free, cols):
        v = [field.zero] * ncols
        v[fc] = field.one
        for pc, a in zip(pivots, col):
            v[pc] = field.from_int(-a)
        basis.append(v)
    return basis


def kernel_line(mat: Matrix, prefix: int) -> list[list]:
    """``kernel_basis(mat)``, eliminating only the first ``prefix`` rows if that gives at most a line.

    The kernel of ``mat`` lies inside the kernel of its first ``prefix``
    rows.  A zero prefix kernel is the answer.  A prefix line is the
    answer when every later row annihilates its vector v, and otherwise
    the kernel is zero; v is the canonical basis vector of the full
    kernel too, since both carry the unit at their last nonzero
    coordinate.  A larger prefix kernel falls back to the whole system.
    """
    field, ncols = mat.field, mat.ncols
    ker = kernel_basis(Matrix(field, mat.rows[:prefix], ncols))
    if len(ker) > 1 and prefix < mat.nrows:
        return kernel_basis(mat)
    if len(ker) == 1:
        v, rest = ker[0], mat.rows[prefix:]
        if field.is_rational:
            # rescaled to integers, the rows and v check without Fraction arithmetic
            (v,), rest = integer_rows([v]), integer_rows(rest)
        if any(field.from_int(sum(map(mul, row, v))) for row in rest):
            return []
    return ker


def row_space_canonical(mat: Matrix) -> list[list]:
    """Canonical basis of the row space: the nonzero rows of the reduced echelon form.

    Unique for the subspace, so equality of results decides equality of
    row spans.
    """
    field, ncols = mat.field, mat.ncols
    pivots, free, cols = _echelon(mat.rows, field, ncols)
    basis = [[field.zero] * ncols for _ in pivots]
    for row, pc in zip(basis, pivots):
        row[pc] = field.one
    for fc, col in zip(free, cols):
        for row, a in zip(basis, col):
            row[fc] = a
    return basis
