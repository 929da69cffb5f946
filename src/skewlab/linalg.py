"""Exact dense linear algebra over QQ and F_p.

Every row operation over F_p happens in one kernel, ``_rref_inplace``:
Gauss-Jordan elimination that takes the first nonzero entry in scan
order as pivot and returns the pivot columns.  ``rank``,
``kernel_basis``, ``kernel_line``, ``solve`` and
``column_space_canonical`` are thin wrappers over one reduced echelon
form, ``_echelon``; ``kernel_line`` reduces only a prefix of the rows
and checks the rest against the vector it finds.  Reduced
echelon forms are fully normalized and kernel bases put a unit at their
own free coordinate, so every result is canonical.  Matrices are dense
lists of lists.  Inside the kernel the field holds each row in its
packed form (``Field.pack``): the row update is ``Field.packed_axpy``,
one big-integer multiply-add, and ``Matrix.mul`` adds rows with
``Field.axpy``.  Only the field reads, reduces and tells apart scalars.

Over QQ there is one elimination path, and it is multimodular.
``_multimodular_rref`` clears each row's denominators, eliminates modulo
primes between 2**60 and 2**61, combines the primes with the best
(rank, pivots) by CRT, reconstructs the free columns as rationals and
accepts the result only when it reproduces the integer rows exactly.  A
Hadamard bound on the minors of the integer rows fixes how many primes
that can take; past it the input has broken a proof, and
``InternalError`` says so.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .errors import DegreeMismatch, InternalError, UsageError
from .fields import QQ, Field, crt, integer_rows, modular_field, rational_vector


class Matrix:
    """Immutable-by-convention dense matrix over a ``Field``."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Sequence[Sequence], ncols: int | None = None):
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise UsageError("ragged rows")
        elif ncols is None:
            raise UsageError("empty matrix needs an explicit column count")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence], nrows: int) -> "Matrix":
        cols = [list(c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise UsageError("column length mismatch")
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

    # -- access ----------------------------------------------------------

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [self.column(j) for j in range(self.ncols)], self.nrows)

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


def _rref_inplace(rows: list[list], field: Field) -> list[int]:
    """Reduce the F_p ``rows`` to reduced row echelon form in place; return the pivot columns.

    The field packs each row while it is reduced and unpacks it at the
    end; the list items are replaced, and no row list is changed.
    """
    pivots: list[int] = []
    m = len(rows)
    if m == 0:
        return pivots
    ncols = len(rows[0])
    w = field.pack_width(min(m, ncols))
    for i in range(m):
        rows[i] = field.pack(rows[i], w)
    entry = field.entry
    r = 0
    for c in range(ncols):
        for pr in range(r, m):
            piv = entry(rows[pr], c, w)
            if piv:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = prow = field.pack(field.unpack(rows[r], ncols, w, field.inv(piv)), w)
        for i in range(m):
            if i != r:
                fac = entry(rows[i], c, w)
                if fac:
                    rows[i] = field.packed_axpy(-fac, rows[i], prow)
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(m):
        # every row below the last pivot row is zero
        rows[i] = field.unpack(rows[i], ncols, w) if i < r else [field.zero] * ncols
    return pivots


def _multimodular_rref(rows: list[list], ncols: int) -> tuple[list[int], list[list]]:
    """Pivots P and nonzero rows of the reduced echelon form R of the QQ ``rows``.

    The integer rows A (``integer_rows``) are reduced modulo the primes of
    ``modular_field``.  Rank mod q is at most the rank over QQ, and a
    prime that keeps the rank gives the QQ pivots or later ones, so the
    best (rank, pivots) seen counts: the largest rank, then the
    lexicographically first pivots.  A better prime restarts the CRT and
    a worse one is skipped.  After each prime the free columns F of R are
    reconstructed as rationals from the combined residues, and R is
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
        pivots = _rref_inplace(red, fq)
        r = len(pivots)
        if best is None or r > len(best) or r == len(best) and pivots < best:
            # the first prime, or a better one: the primes kept so far were bad
            pivot_set = set(pivots)
            free = [c for c in range(ncols) if c not in pivot_set]
            best, residues, modulus = pivots, [0] * (r * len(free)), 1
        elif pivots != best:
            continue  # a lower rank or later pivots: q is a bad prime
        vec = [row[c] for row in red[:r] for c in free]
        residues, modulus = crt(residues, modulus, vec, fq.p), modulus * fq.p
        values = rational_vector(residues, modulus)
        if values is None:
            continue
        cols = [values[k :: len(free)] for k in range(len(free))]
        if _solves(ints, best, free, cols):
            out = []
            for k, pc in enumerate(best):
                row = [QQ.zero] * ncols
                row[pc] = QQ.one
                for c, col in zip(free, cols):
                    row[c] = col[k]
                out.append(row)
            return best, out
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


def _echelon(rows: list[list], field: Field, ncols: int) -> tuple[list[int], list[list]]:
    """Pivot columns and nonzero rows of the reduced row echelon form of ``rows``.

    Over QQ the multimodular form answers, over F_p the kernel.  The row
    list is not changed.
    """
    if field.is_rational:
        return _multimodular_rref(rows, ncols)
    rows = list(rows)
    pivots = _rref_inplace(rows, field)
    return pivots, rows[: len(pivots)]


def rank(mat: Matrix) -> int:
    """The rank; over QQ a wide matrix is transposed, so that full rank has no free column."""
    if mat.field.is_rational and mat.nrows < mat.ncols:
        mat = mat.transpose()
    return len(_echelon(mat.rows, mat.field, mat.ncols)[0])


def kernel_basis(mat: Matrix) -> Matrix:
    """Basis of the right kernel, as columns of a ``ncols x k`` matrix.

    Each basis vector carries a unit at its own free coordinate and zeros
    at the other free coordinates, which makes the basis canonical.
    """
    field, ncols = mat.field, mat.ncols
    pivots, rows = _echelon(mat.rows, field, ncols)
    pivot_set = set(pivots)
    cols = []
    for fc in range(ncols):
        if fc not in pivot_set:
            v = [field.zero] * ncols
            v[fc] = field.one
            for row, pc in zip(rows, pivots):
                v[pc] = field.from_int(-row[fc])
            cols.append(v)
    return Matrix.from_columns(field, cols, ncols)


def kernel_line(mat: Matrix, prefix: int) -> Matrix:
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
    if ker.ncols > 1 and prefix < mat.nrows:
        return kernel_basis(mat)
    if ker.ncols == 1:
        v, rest = ker.column(0), mat.rows[prefix:]
        if field.is_rational:
            # rescaled to integers, the rows and v check without Fraction arithmetic
            (v,), rest = integer_rows([v]), integer_rows(rest)
        if any(field.from_int(sum(map(mul, row, v))) for row in rest):
            return Matrix.from_columns(field, [], ncols)
    return ker


def solve(mat: Matrix, rhs: Sequence) -> list | None:
    """One solution of ``mat x = rhs`` with free variables set to zero.

    Returns ``None`` when the system is inconsistent (a signal, not an
    error).
    """
    if len(rhs) != mat.nrows:
        raise DegreeMismatch("right-hand side length mismatch")
    field, ncols = mat.field, mat.ncols
    pivots, rows = _echelon([r + [b] for r, b in zip(mat.rows, rhs)], field, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[ncols]
    return x


def column_space_canonical(mat: Matrix) -> Matrix:
    """Canonical basis of the column space (reduced column echelon form).

    Unique for the subspace, so equality of results decides equality of
    column spans.
    """
    _, rows = _echelon(mat.columns(), mat.field, mat.nrows)
    return Matrix.from_columns(mat.field, rows, mat.nrows)
