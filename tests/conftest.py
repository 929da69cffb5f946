"""Shared fixtures and oracles.

Base fields, a pencil whose rank-drop locus is empty, and the list
Gauss-Jordan elimination with its determinant factor, which the tests
use as the oracle for echelon forms and determinants.
"""

import pytest

from skewlab import GF, QQ, Alphabet, HomogPoly, skew_linear


@pytest.fixture
def fp():
    return GF(32003)


@pytest.fixture
def qq():
    return QQ


def norm_form_pencil():
    """6x6 skew pencil over F_5 whose Pfaffian has no rational zeros.

    Built from the companion matrix C of t^3 + t + 1 (irreducible over
    F_5): the block pencil [[0, M], [-M^T, 0]] with M = y0 I + y1 C +
    y2 C^2 has Pfaffian +-det(M), the norm form of F_125 / F_5, a plane
    cubic without F_5 points.
    """
    field = GF(5)
    alpha = Alphabet("Y", 3)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    comp = ((0, 0, 4), (1, 0, 4), (0, 1, 0))
    comp2 = ((0, 4, 0), (0, 4, 4), (1, 0, 4))
    mats = (ident, comp, comp2)
    block = []
    for i in range(3):
        row = []
        for j in range(3):
            terms = [
                (mats[k][i][j], tuple(1 if t == k else 0 for t in range(3)))
                for k in range(3)
            ]
            row.append(HomogPoly.from_terms(alpha, 1, field, terms))
        block.append(row)
    zero = HomogPoly.zero(alpha, 1, field)
    neg = [[block[j][i].scale(4) for j in range(3)] for i in range(3)]
    grid = [[zero] * 3 + block[i] for i in range(3)]
    grid += [neg[i] + [zero] * 3 for i in range(3)]
    return skew_linear(grid)


@pytest.fixture
def pointless_pencil():
    return norm_form_pencil()


# -- the list elimination oracle ------------------------------------------------


def rref_oracle(rows, field):
    """The list elimination the packed kernel replaced: one reduced row update per row.

    Works over QQ and F_p.  Returns the pivot columns and the determinant
    factor: the product of the raw pivots, negated once per row swap.
    """
    pivots = []
    factor = field.one
    m = len(rows)
    if m == 0:
        return pivots, factor
    mul = field.mul
    r = 0
    for c in range(len(rows[0])):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            factor = field.neg(factor)
        piv = rows[r][c]
        factor = mul(factor, piv)
        inv = field.inv(piv)
        if inv != 1:
            rows[r] = [mul(x, inv) for x in rows[r]]
        prow = rows[r]
        for i in range(m):
            fac = rows[i][c]
            if i != r and fac:
                rows[i] = field.axpy(-fac, rows[i], prow)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, factor


def det(mat):
    """The determinant of a square ``Matrix``: the oracle's factor, or zero when singular."""
    pivots, factor = rref_oracle([list(r) for r in mat.rows], mat.field)
    return factor if len(pivots) == mat.nrows else mat.field.zero
