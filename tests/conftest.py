"""Shared fixtures, oracles and helpers.

Base fields, a pencil whose rank-drop locus is empty, the list
Gauss-Jordan elimination with its determinant factor, which the tests
use as the oracle for echelon forms and determinants, the point-by-point
scan of the plane that is the oracle for even-order scroll sampling, and
small helpers built on the package: scalar Pfaffians, products with
matrices, random scalar matrices, unit vectors, slice membership and
Euler characteristics.
"""

import pytest

from skewlab import (
    GF,
    QQ,
    Alphabet,
    HomogPoly,
    Matrix,
    PolyMatrix,
    evaluate_matrix,
    incidence_check,
    kernel_basis,
    pfaffian_poly,
    rank,
    skew_linear,
    tensor_flip,
)
from skewlab.degeneracy import LINE_SAMPLES, ScrollPoint, ScrollSample
from skewlab.randomness import random_scalar


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


def diagonal_pencil(field, forms):
    """Skew pencil with 2x2 diagonal blocks [[0, L], [-L, 0]], one per linear form L.

    Each form is its three coefficients on y0, y1, y2.  The Pfaffian is
    the product of the forms, and the corank at a point is twice the
    number of forms vanishing there.
    """
    alpha = Alphabet("Y", 3)
    n = 2 * len(forms)
    zero = HomogPoly.zero(alpha, 1, field)
    grid = [[zero] * n for _ in range(n)]
    for i, coeffs in enumerate(forms):
        terms = [(c, tuple(int(t == k) for t in range(3))) for k, c in enumerate(coeffs)]
        form = HomogPoly.from_terms(alpha, 1, field, terms)
        grid[2 * i][2 * i + 1] = form
        grid[2 * i + 1][2 * i] = form.scale(-1)
    return skew_linear(grid)


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
    reduce = field.from_int
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
            factor = reduce(-factor)
        piv = rows[r][c]
        factor = reduce(factor * piv)
        inv = field.inv(piv)
        if inv != 1:
            rows[r] = [reduce(x * inv) for x in rows[r]]
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


# -- the point-by-point scroll scan ---------------------------------------------


def scan_oracle(pencil, count):
    """The full scan that even-order sampling replaced, as a ``ScrollSample``.

    Tests every point of the plane in chart order, (1, a, b) for a, b in
    F_p, then (0, 1, b), then (0, 0, 1), against the Pfaffian, and counts
    each tested point in ``scanned``.  Unlike ``even_scroll_sample`` it
    returns a sample without points instead of raising ``NoPointsFound``.
    """
    pm = skew_linear(pencil)
    field = pm.field
    p = field.p
    pf = pfaffian_poly(pm)
    flipped = tensor_flip(pm)
    chart = [(1, a, b) for a in range(p) for b in range(p)]
    chart += [(0, 1, b) for b in range(p)] + [(0, 0, 1)]
    points = []
    skipped = 0
    scanned = 0
    for nu in chart:
        if len(points) >= count:
            break
        scanned += 1
        if pf.evaluate(nu) != field.zero:
            continue
        ker = kernel_basis(evaluate_matrix(pm, nu))
        if len(ker) != 2:
            skipped += 1
            continue
        b1, b2 = ker
        xs = [tuple(field.axpy(t, b1, b2)) for t in range(min(LINE_SAMPLES, p))]
        ranks = [incidence_check(flipped, x).rank for x in xs]
        points.append(ScrollPoint(nu=nu, kernel=(tuple(b1), tuple(b2)), x_samples=xs, incidence_ranks=ranks))
    return ScrollSample(
        n=pm.nrows,
        p=p,
        curve_degree=pf.degree,
        points=points,
        skipped_corank=skipped,
        scanned=scanned,
        exhausted=len(points) < count,
    )


def det(mat):
    """The determinant of a square ``Matrix``: the oracle's factor, or zero when singular."""
    pivots, factor = rref_oracle([list(r) for r in mat.rows], mat.field)
    return factor if len(pivots) == mat.nrows else mat.field.zero


# -- helpers built on the package ---------------------------------------------------


def pfaffian_scalar(mat):
    """The Pfaffian of a skew scalar ``Matrix``: ``pfaffian_poly`` of it as a degree-0 pencil."""
    pm = PolyMatrix(Alphabet("Y", 1), 0, mat.field, [mat.rows])
    return pfaffian_poly(pm).coeffs[0]


def mul_vec(mat, vec):
    """The product of a scalar ``Matrix`` with a vector of scalars."""
    f = mat.field
    return [f.from_int(sum(a * b for a, b in zip(row, vec))) for row in mat.rows]


def mat_vec_poly(pm, vec):
    """The product of a ``PolyMatrix`` with a vector of polynomials."""
    tdeg = pm.degree + vec[0].degree
    out = []
    for row in pm.entries:
        acc = HomogPoly.zero(pm.alphabet, tdeg, pm.field)
        for a, b in zip(row, vec):
            acc = acc + a * b
        out.append(acc)
    return out


def tensor_unflip(pm):
    """The skew matrix over y0..y(m-1) whose ``tensor_flip`` is the n x m pencil ``pm``."""
    n, m = pm.nrows, pm.ncols
    layers = [[[pm.layers[i][j][k] for j in range(n)] for i in range(n)] for k in range(m)]
    return skew_linear(PolyMatrix(Alphabet("Y", m), 1, pm.field, layers))


def congruence(pm, p_mat):
    """P^T (pm) P for a constant square ``Matrix`` P, one coefficient layer at a time."""
    p_t = p_mat.transpose()
    layers = [p_t.mul(Matrix(pm.field, a, pm.ncols)).mul(p_mat).rows for a in pm.layers]
    return PolyMatrix(pm.alphabet, pm.degree, pm.field, layers)


def random_scalar_skew(n, field, rng):
    """Random skew scalar ``Matrix``; the upper triangle is drawn row-major."""
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = random_scalar(field, rng)
            rows[j][i] = field.from_int(-rows[i][j])
    return Matrix(field, rows, n)


def random_invertible(n, field, rng):
    """Random invertible scalar ``Matrix``; entries are drawn row-major until the rank is full."""
    while True:
        mat = Matrix(field, [[random_scalar(field, rng) for _ in range(n)] for _ in range(n)], n)
        if rank(mat) == n:
            return mat


def contains(slc, poly):
    """True when ``poly`` lies in the graded slice ``slc``."""
    if (poly.alphabet, poly.degree) != (slc.alphabet, slc.degree):
        return False
    return rank(Matrix(slc.field, slc.basis + [poly.coeffs], len(poly.coeffs))) == slc.dim


def unit_vectors(field, n):
    """The rows of the n x n identity over ``field``."""
    return [[field.from_int(int(i == j)) for j in range(n)] for i in range(n)]


def variable(alphabet, i, field):
    """The i-th variable of ``alphabet``, a linear form."""
    expo = tuple(int(j == i) for j in range(alphabet.nvars))
    return HomogPoly.from_terms(alphabet, 1, field, [(field.one, expo)])


def chi_of(vec):
    """The alternating sum of a cohomology vector."""
    return sum(v if q % 2 == 0 else -v for q, v in enumerate(vec))
