"""Apolarity: differential operators acting on dual polynomials.

The base alphabet acts on its dual (and conversely) by the rule

    y^a (d^b) = a! * binom(b, a) * d^(b-a)   when b >= a, else 0,

with multi-index factorials and binomials; the scaling equals the true
partial-derivative coefficient prod_i b_i!/(b_i - a_i)!.  Every action
here is filled from one walk, ``_contractions``, over the pairs of an
operator monomial a and a result monomial g, with b = a + g:
``pairing_matrix`` (and through it ``perp_slice``, ``partials_slice``
and the Hilbert function) and each generator block of
``dual_socle_generator``.  The exact integer scaling is reduced by the
field; over F_p it can vanish, so workflows that rely on invertible
factorials must check ``field.char_exceeds(degree)`` first.
``hilbert_function`` is the one such check inside this module: it ranks
the middle catalecticant, walks down only while a rank is short of full,
and mirrors the upper half only when the characteristic exceeds the
degree, ranking it otherwise.
"""

from __future__ import annotations

from math import perm, prod
from typing import Sequence

from .errors import AlphabetMismatch, NotGorensteinSocle, OddDegree, UsageError
from .linalg import Matrix, kernel_basis, kernel_line, rank
from .rings import (
    GradedSlice,
    HomogPoly,
    dim_homog,
    mono_index,
    monomials,
)


def _contractions(nvars: int, op_degree: int, out_deg: int):
    """Every action of an operator monomial on a form monomial.

    Walks each operator monomial a of degree ``op_degree`` and each
    result monomial g of degree ``out_deg``, sets b = a + g, and yields
    ``(j, i, l, scale)``: the indices of a, g and b in their grlex bases
    and the exact integer scale b!/g! with which y^a sends d^b to d^g.
    Each pair fills its own cell, so a scale that the field reduces to 0
    writes the 0 the cell already holds.
    """
    b_idx = mono_index(nvars, op_degree + out_deg)
    gammas = monomials(nvars, out_deg)
    for j, a in enumerate(monomials(nvars, op_degree)):
        for i, g in enumerate(gammas):
            b = tuple(x + y for x, y in zip(a, g))
            yield j, i, b_idx[b], prod(map(perm, b, a))


def mirror(poly: HomogPoly) -> HomogPoly:
    """Same coefficient vector read over the dual alphabet."""
    return HomogPoly(poly.alphabet.dual(), poly.degree, poly.field, poly.coeffs)


def pairing_matrix(target: HomogPoly, op_degree: int) -> Matrix:
    """Matrix of op |-> op(target) on the degree-``op_degree`` dual piece.

    Rows are indexed by the monomial basis of the result degree, columns
    by the monomial basis of the operator degree.
    """
    field = target.field
    nvars = target.alphabet.nvars
    out_deg = target.degree - op_degree
    n_ops = dim_homog(nvars, op_degree)
    mat = [[field.zero] * n_ops for _ in range(dim_homog(nvars, out_deg))]
    coeffs = target.coeffs
    for j, i, l, scale in _contractions(nvars, op_degree, out_deg):
        if coeffs[l]:
            mat[i][j] = field.from_int(coeffs[l] * scale)
    return Matrix(field, mat, n_ops)


def apolar_rank(target: HomogPoly, op_degree: int) -> int:
    """Rank of the apolarity pairing against degree-``op_degree`` operators."""
    return rank(pairing_matrix(target, op_degree))


def perp_slice(target: HomogPoly, op_degree: int) -> GradedSlice:
    """The annihilator slice in the dual alphabet at ``op_degree``.

    Above the target degree the pairing matrix has no rows, so every
    operator annihilates and the kernel is the full slice.
    """
    if op_degree < 0:
        raise UsageError("negative operator degree")
    ker = kernel_basis(pairing_matrix(target, op_degree))
    return GradedSlice(target.alphabet.dual(), op_degree, target.field, ker)


def partials_slice(target: HomogPoly, op_degree: int) -> GradedSlice:
    """Span of all order-``op_degree`` derivatives of ``target``.

    That is the column span of ``pairing_matrix``, whose columns are the
    derivatives by the operator monomials.
    """
    if op_degree < 0:
        raise UsageError("negative derivative order")
    derivatives = pairing_matrix(target, op_degree).transpose().rows
    return GradedSlice(target.alphabet, target.degree - op_degree, target.field, derivatives)


def catalecticant_rank(target: HomogPoly) -> int:
    """Rank of the middle catalecticant; requires even degree."""
    if target.degree % 2:
        raise OddDegree("catalecticant middle needs an even degree")
    return apolar_rank(target, target.degree // 2)


def is_nondegenerate(target: HomogPoly) -> bool:
    """True when the middle catalecticant has full rank."""
    half = target.degree // 2
    return catalecticant_rank(target) == dim_homog(target.alphabet.nvars, half)


def hilbert_function(target: HomogPoly) -> tuple[int, ...]:
    """Hilbert function of the apolar algebra, degrees 0..k = deg(target).

    Degree d is the rank of the catalecticant Cat_d, the pairing against
    degree-d operators.  The loop ranks Cat_t at t = k // 2 and walks
    down from there, and two facts fill the other degrees unranked:

    * below t, once Cat_{d+1} is injective, Cat_d is too, in every
      characteristic: a nonzero degree-d operator g with g(F) = 0
      would give the nonzero y0 g with (y0 g)(F) = y0(g(F)) = 0 one
      degree up;
    * above t, when the characteristic exceeds k, Cat_d is Cat_{k-d}
      transposed, with the column of an operator monomial a scaled by a!
      and the row of a result monomial g by 1/g!, so h[d] = h[k - d].
      Over a smaller characteristic those factorials can vanish, and
      these degrees are ranked.

    A nondegenerate form with char > k thus costs one rank, not k + 1.
    """
    if target.is_zero():
        raise UsageError("hilbert_function of the zero form")
    k, nvars = target.degree, target.alphabet.nvars
    mirrored = target.field.char_exceeds(k)
    t = k // 2
    h = [0] * (k + 1)
    for d in (*range(t, -1, -1), *range(t + 1, k + 1)):
        if d < t and h[d + 1] == dim_homog(nvars, d + 1):
            h[d] = dim_homog(nvars, d)
        elif d > t and mirrored:
            h[d] = h[k - d]
        else:
            h[d] = apolar_rank(target, d)
    return tuple(h)


def dual_socle_generator(gens: Sequence[HomogPoly], k: int) -> HomogPoly:
    """The degree-``k`` dual form annihilated by every generator.

    The joint annihilator of ``gens`` inside the degree-``k`` dual piece
    must be a line; its generator is returned with the first nonzero
    grlex coefficient normalized to 1. Raises ``NotGorensteinSocle``
    otherwise.  Only the generator blocks up to the first with at least
    n_cols - 1 rows in all are eliminated; the later blocks check the
    vector found (``kernel_line``).  A generator above degree k
    annihilates the whole piece: its block has no rows.
    """
    if not gens:
        raise UsageError("need at least one generator")
    field = gens[0].field
    alphabet = gens[0].alphabet
    for g in gens[1:]:
        if g.alphabet != alphabet or g.field != field:
            raise AlphabetMismatch("generators must share alphabet and field")
    nvars = alphabet.nvars
    n_cols = dim_homog(nvars, k)
    walks: dict[int, list] = {}  # one contraction walk per generator degree
    rows: list[list] = []
    bounds = []
    for g in gens:
        if g.degree not in walks:
            walks[g.degree] = list(_contractions(nvars, g.degree, k - g.degree))
        block = [[field.zero] * n_cols for _ in range(dim_homog(nvars, k - g.degree))]
        coeffs = g.coeffs
        for j, i, l, scale in walks[g.degree]:
            if coeffs[j]:
                block[i][l] = field.from_int(coeffs[j] * scale)
        rows.extend(block)
        bounds.append(len(rows))
    # fewer than n_cols - 1 rows leave at least a plane, so no shorter prefix can give a line
    prefix = next((b for b in bounds if b >= n_cols - 1), len(rows))
    ker = kernel_line(Matrix(field, rows, n_cols), prefix)
    if len(ker) != 1:
        raise NotGorensteinSocle(
            f"joint annihilator in degree {k} has dimension {len(ker)}, expected 1"
        )
    poly = HomogPoly(alphabet.dual(), k, field, ker[0])
    return poly.leading_normalized()
