"""Exact dense linear algebra over QQ and F_p.

Every row operation happens in one kernel, ``_rref_inplace``:
Gauss-Jordan elimination that takes the first nonzero entry in scan
order as pivot and returns the pivot columns together with the
determinant factor.  ``rref``, ``rank``, ``kernel_basis``, ``solve``,
``det``, ``inverse`` and ``column_space_canonical`` are thin wrappers
over it.  Reduced echelon forms are fully normalized and kernel bases
put a unit at their own free coordinate, so every result is canonical.
Matrices are dense lists of lists.  Inside the kernel the field holds
each row in its packed form (``Field.pack``): the row update is
``Field.packed_axpy``, which over F_p is one big-integer multiply-add,
and ``Matrix.mul`` adds rows with ``Field.axpy``.  Only the field reads,
reduces and tells apart scalars.

Over QQ, ``kernel_basis`` first solves modulo primes below 2**61.  It
clears each row's denominators and eliminates mod the first prime: an
empty kernel there is the answer, and a kernel of dimension 2 or more
goes to Fraction elimination, which gives its exact dimension.  A line
is combined over more primes by CRT, reconstructed as rationals and
accepted only when the integer rows annihilate it; the QQ kernel is then
that line, and the vector is the one Fraction elimination gives.  If
``MODULAR_PRIMES`` primes give no such vector, Fractions decide.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .errors import DegreeMismatch, SingularMatrix, UsageError
from .fields import Field, crt, integer_rows, modular_field, rational_vector

#: Primes the QQ kernel tries before it falls back to Fraction elimination:
#: rationals of up to about 3,900 bits over 3,900 bits.  The dual socle line
#: of a QQ correspondence needs 20 primes at n = 11 and 84 at n = 17.
MODULAR_PRIMES = 128


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

    def mul_vec(self, vec: Sequence) -> list:
        if len(vec) != self.ncols:
            raise DegreeMismatch("vector length mismatch")
        f = self.field
        return [f.from_int(sum(a * b for a, b in zip(row, vec))) for row in self.rows]

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


def _rref_inplace(rows: list[list], field: Field) -> tuple[list[int], object]:
    """Reduce ``rows`` to reduced row echelon form in place.

    Returns the pivot columns and the determinant factor: the product of
    the raw pivots, negated once per row swap.  For a square matrix of
    full rank that factor is the determinant.  The field packs each row
    while it is reduced and unpacks it at the end; the list items are
    replaced, and no row list is changed.
    """
    pivots: list[int] = []
    factor = field.one
    m = len(rows)
    if m == 0:
        return pivots, factor
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
            factor = field.neg(factor)
        factor = field.mul(factor, piv)
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
    return pivots, factor


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows = list(mat.rows)
    pivots, _ = _rref_inplace(rows, mat.field)
    return Matrix(mat.field, rows, mat.ncols), pivots


def rank(mat: Matrix) -> int:
    return len(_rref_inplace(list(mat.rows), mat.field)[0])


def _kernel_columns(rows: list[list], field: Field, ncols: int) -> list[list]:
    """The canonical kernel basis vectors of ``rows``; the row list is not changed."""
    rows = list(rows)
    pivots, _ = _rref_inplace(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    cols = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(rows[i][fc])
        cols.append(v)
    return cols


def _annihilates(ints: list[list[int]], v: list) -> bool:
    """True when the integer rows ``ints`` times the rational vector ``v`` is zero."""
    (w,) = integer_rows([v])
    return not any(sum(map(mul, row, w)) for row in ints)


def _multimodular_kernel(mat: Matrix) -> list[list] | None:
    """The QQ kernel of ``mat`` from its kernels mod large primes, or ``None``.

    Rank mod q is at most rank over QQ, so an empty kernel mod the first
    prime is the answer, and a line mod q bounds the QQ kernel to a line.
    The line mod q, with its unit at its last nonzero coordinate, is the
    QQ kernel vector mod q, unless q divides that vector's last coordinate
    and the vector mod q ends earlier: such primes are dropped, and a
    later end restarts the CRT.  After each prime the rationals of the
    combined residues are tried; a vector that ends in 1 and that the
    integer rows annihilate spans the QQ kernel, and is its canonical
    basis vector.  ``None`` asks for Fraction elimination: the kernel
    mod the first prime has dimension 2 or more, so the exact dimension
    is needed, or no prime among ``MODULAR_PRIMES`` gave a vector.
    """
    ints = integer_rows(mat.rows)
    residues, modulus, last = [], 1, -1
    for i in range(MODULAR_PRIMES):
        fq = modular_field(i)
        cols = _kernel_columns(ints, fq, mat.ncols)
        if not cols:
            return []
        if len(cols) > 1:
            if i == 0:
                return None
            continue
        (vec,) = cols
        end = max(j for j, a in enumerate(vec) if a)
        if end < last:
            continue
        if end > last:
            residues, modulus, last = vec, fq.p, end
        else:
            residues, modulus = crt(residues, modulus, vec, fq.p), modulus * fq.p
        v = rational_vector(residues, modulus)
        if v is not None and v[last] == 1 and _annihilates(ints, v):
            return [v]
    return None


def kernel_basis(mat: Matrix) -> Matrix:
    """Basis of the right kernel, as columns of a ``ncols x k`` matrix.

    Each basis vector carries a unit at its own free coordinate and zeros
    at the other free coordinates, which makes the basis canonical.  Over
    QQ the kernel is first sought modulo large primes.
    """
    field = mat.field
    cols = _multimodular_kernel(mat) if field.is_rational else None
    if cols is None:
        cols = _kernel_columns(mat.rows, field, mat.ncols)
    return Matrix.from_columns(field, cols, mat.ncols)


def solve(mat: Matrix, rhs: Sequence) -> list | None:
    """One solution of ``mat x = rhs`` with free variables set to zero.

    Returns ``None`` when the system is inconsistent (a signal, not an
    error).
    """
    if len(rhs) != mat.nrows:
        raise DegreeMismatch("right-hand side length mismatch")
    field = mat.field
    rows = [r + [b] for r, b in zip(mat.rows, rhs)]
    if mat.nrows == 0:
        return [field.zero] * mat.ncols
    pivots, _ = _rref_inplace(rows, field)
    if pivots and pivots[-1] == mat.ncols:
        return None
    x = [field.zero] * mat.ncols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][mat.ncols]
    return x


def det(mat: Matrix):
    """Determinant: the elimination's determinant factor, or zero when singular."""
    if mat.nrows != mat.ncols:
        raise UsageError("determinant of a non-square matrix")
    pivots, factor = _rref_inplace(list(mat.rows), mat.field)
    return factor if len(pivots) == mat.nrows else mat.field.zero


def inverse(mat: Matrix) -> Matrix:
    """Inverse matrix; raises ``SingularMatrix`` when not invertible."""
    if mat.nrows != mat.ncols:
        raise UsageError("inverse of a non-square matrix")
    field = mat.field
    n = mat.nrows
    ident = Matrix.identity(field, n)
    rows = [r + e for r, e in zip(mat.rows, ident.rows)]
    pivots, _ = _rref_inplace(rows, field)
    if len(pivots) < n or pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix(field, [r[n:] for r in rows], n)


def column_space_canonical(mat: Matrix) -> Matrix:
    """Canonical basis of the column space (reduced column echelon form).

    Unique for the subspace, so equality of results decides equality of
    column spans.
    """
    rows = [mat.column(j) for j in range(mat.ncols)]
    pivots, _ = _rref_inplace(rows, mat.field)
    return Matrix.from_columns(mat.field, rows[: len(pivots)], mat.nrows)

