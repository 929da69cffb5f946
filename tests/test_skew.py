"""Skew pencils: Pfaffians, sub-Pfaffians, the tensor flip, minors, transport."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import (
    GF,
    QQ,
    AlphabetMismatch,
    DegreeMismatch,
    EvenOrder,
    HomogPoly,
    Matrix,
    NotSkew,
    OddOrder,
    PolyMatrix,
    SplitMix64,
    UsageError,
    evaluate_matrix,
    is_skew_matrix,
    parse_poly,
    pfaffian_poly,
    poly_matrix_from_json,
    poly_matrix_to_json,
    skew_linear,
    sub_pfaffians,
    tensor_flip,
    x_vars,
    y_vars,
)
from skewlab.randomness import random_skew_linear

from conftest import (
    congruence,
    det,
    mat_vec_poly,
    pfaffian_scalar,
    random_invertible,
    random_scalar_skew,
    tensor_unflip,
    variable,
)


def perm_sign(seq):
    sign = 1
    seen = [False] * len(seq)
    for i in range(len(seq)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = seq[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def matchings(indices):
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for k, second in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for tail in matchings(remaining):
            yield ((first, second),) + tail


def det_poly(rows):
    """Determinant of a small square polynomial matrix by Laplace expansion."""
    n = len(rows)
    first = rows[0][0]

    def expand(row_ids, col_ids):
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        acc = HomogPoly.zero(first.alphabet, first.degree * len(row_ids), first.field)
        for t, j in enumerate(col_ids):
            e = rows[row_ids[0]][j]
            if e.is_zero():
                continue
            term = e * expand(row_ids[1:], col_ids[:t] + col_ids[t + 1 :])
            acc = acc - term if t % 2 else acc + term
        return acc

    return expand(tuple(range(n)), tuple(range(n)))


def maximal_minors(pm):
    """All maximal minors of a tall pencil, row subsets in lex order."""
    return [
        det_poly([pm.entries[i] for i in rows_sel])
        for rows_sel in itertools.combinations(range(pm.nrows), pm.ncols)
    ]


def pfaffian_by_matchings(rows, one):
    """Sum over perfect matchings with permutation sign: the definition.

    ``rows`` is a square skew array of ``HomogPoly`` or of scalars, and
    ``one`` the unit of their ring; F_p scalars give an integer to be
    reduced mod p.
    """
    total = None
    for match in matchings(tuple(range(len(rows)))):
        flat = [v for pair in match for v in pair]
        term = one
        for i, j in match:
            term = term * rows[i][j]
        signed = term if perm_sign(flat) == 1 else -term
        total = signed if total is None else total + signed
    return total


def sub_pfaffians_by_matchings(pm):
    """``pf[i]``: the matching sum of ``pm`` without row and column ``i``."""
    one = HomogPoly(pm.alphabet, 0, pm.field, [pm.field.one])
    n = pm.nrows
    return tuple(
        pfaffian_by_matchings(
            [[pm.entries[r][c] for c in range(n) if c != i] for r in range(n) if r != i],
            one,
        )
        for i in range(n)
    )


def pencil_with_denominators(n, rng):
    """Random QQ skew pencil whose entries have denominators 1 to 4."""
    pm = skew_linear(random_skew_linear(n, 3, QQ, rng))
    grid = [list(row) for row in pm.entries]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = grid[i][j].scale(Fraction(1, 1 + (i + 2 * j) % 4))
            grid[j][i] = -grid[i][j]
    return skew_linear(grid)


def pencil_with_zeros(n, field, rng, is_zero):
    """Random skew pencil whose entry (i, j) is zero where ``is_zero(i, j)``."""
    pm = skew_linear(random_skew_linear(n, 3, field, rng))
    zero = HomogPoly.zero(pm.alphabet, 1, field)
    return skew_linear(
        [
            [zero if is_zero(i, j) else pm.entries[i][j] for j in range(n)]
            for i in range(n)
        ]
    )


def ylin(text):
    return parse_poly(text, y_vars(), QQ, degree=1)


def skew_from_upper(alphabet_text_rows):
    n = len(alphabet_text_rows) + 1
    zero = HomogPoly.zero(y_vars(), 1, QQ)
    grid = [[zero] * n for _ in range(n)]
    for i, row in enumerate(alphabet_text_rows):
        for k, text in enumerate(row):
            j = i + 1 + k
            p = ylin(text)
            grid[i][j] = p
            grid[j][i] = -p
    return skew_linear(grid)


# -- Pfaffians ----------------------------------------------------------------


def test_pfaffian_two_by_two():
    pm = skew_from_upper([["y0"]])
    assert pfaffian_poly(pm) == ylin("y0")
    mat = Matrix(QQ, [[0, 7], [-7, 0]], 2)
    assert pfaffian_scalar(mat) == 7


def test_pfaffian_matches_matching_sum():
    rng = SplitMix64(303)
    for field in (QQ, GF(32003)):
        for n in (2, 4, 6):
            for _ in range(3):
                mat = random_scalar_skew(n, field, rng)
                expected = pfaffian_by_matchings(mat.rows, field.one)
                if field.p is not None:
                    expected %= field.p
                assert pfaffian_scalar(mat) == expected


def test_pfaffian_scalar_clears_denominators():
    mat = Matrix(
        QQ,
        [
            [0, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)],
            [Fraction(-1, 2), 0, Fraction(3, 4), 1],
            [Fraction(2, 3), Fraction(-3, 4), 0, Fraction(-1, 6)],
            [Fraction(-5, 7), -1, Fraction(1, 6), 0],
        ],
        4,
    )
    assert pfaffian_scalar(mat) == pfaffian_by_matchings(mat.rows, Fraction(1))


def test_pfaffian_poly_matches_matching_sum():
    rng = SplitMix64(313)
    cases = [(QQ, n) for n in (2, 4, 6)] + [(GF(32003), n) for n in (2, 4, 6, 8)]
    cases.append((GF(3), 8))  # degree 4 > p - 1: the integer lift
    for field, n in cases:
        if field.p is None:
            pm = pencil_with_denominators(n, rng)
        else:
            pm = skew_linear(random_skew_linear(n, 3, field, rng))
        one = HomogPoly(pm.alphabet, 0, field, [field.one])
        assert pfaffian_poly(pm) == pfaffian_by_matchings(pm.entries, one)


def test_pfaffian_squares_to_determinant_scalar():
    rng = SplitMix64(304)
    for field in (QQ, GF(32003)):
        for n in (2, 4, 6, 8, 10):
            mat = random_scalar_skew(n, field, rng)
            pf = pfaffian_scalar(mat)
            assert field.from_int(pf * pf) == det(mat)


def test_pfaffian_squares_to_determinant_poly():
    rng = SplitMix64(305)
    for n in (4, 6):
        pm = skew_linear(random_skew_linear(n, 3, GF(32003), rng))
        pf = pfaffian_poly(pm)
        assert pf.degree == n // 2
        assert pf * pf == det_poly(pm.entries)


def test_pfaffian_guards():
    with pytest.raises(OddOrder):
        pfaffian_scalar(Matrix(QQ, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]], 3))
    with pytest.raises(NotSkew):
        pfaffian_scalar(Matrix(QQ, [[0, 1], [1, 0]], 2))
    with pytest.raises(NotSkew):
        pfaffian_scalar(Matrix(QQ, [[1, 1], [-1, 0]], 2))


def test_zero_pencil_pfaffian_is_graded_zero():
    zero = HomogPoly.zero(y_vars(), 1, QQ)
    pm = skew_linear([[zero] * 4 for _ in range(4)])
    pf = pfaffian_poly(pm)
    assert pf.is_zero() and pf.degree == 2


# -- sub-Pfaffians and the syzygy --------------------------------------------


def test_sub_pfaffians_order_three():
    pm = skew_from_upper([["y0", "y1"], ["y2"]])
    pfs, signed = sub_pfaffians(pm)
    assert pfs == (ylin("y2"), ylin("y1"), ylin("y0"))
    assert signed == (ylin("y2"), -ylin("y1"), ylin("y0"))


def test_signed_vector_is_in_the_kernel():
    rng = SplitMix64(306)
    for n in (3, 5, 7):
        pm = skew_linear(random_skew_linear(n, 3, GF(32003), rng))
        _, signed = sub_pfaffians(pm)
        assert all(p.is_zero() for p in mat_vec_poly(pm, signed))


def test_sub_pfaffians_match_matching_sums():
    rng = SplitMix64(314)
    cases = [(field, n) for field in (QQ, GF(32003)) for n in (1, 3, 5, 7, 9)]
    cases.append((GF(5), 11))  # degree 5 >= p: the integer lift
    for field, n in cases:
        if field.p is None:
            pm = pencil_with_denominators(n, rng)
        else:
            pm = skew_linear(random_skew_linear(n, 3, field, rng))
        pfs, signed = sub_pfaffians(pm)
        assert pfs == sub_pfaffians_by_matchings(pm)
        assert signed == tuple(q if i % 2 == 0 else -q for i, q in enumerate(pfs))


def test_degenerate_pencils_match_matching_sums():
    rng = SplitMix64(315)
    for field in (QQ, GF(32003), GF(5)):
        for n in (5, 7):
            zero = HomogPoly.zero(y_vars(), 1, field)
            # the zero pencil, then two zero rows: corank 3 or more everywhere
            for pm in (
                skew_linear([[zero] * n for _ in range(n)]),
                pencil_with_zeros(n, field, rng, lambda i, j: {i, j} & {1, 3}),
            ):
                pfs, _ = sub_pfaffians(pm)
                assert pfs == sub_pfaffians_by_matchings(pm)
                assert all(q.is_zero() and q.degree == (n - 1) // 2 for q in pfs)
            # row 1 lives in column 0 only, so pf[0] vanishes and the
            # kernel vectors start at an odd coordinate
            pm = pencil_with_zeros(n, field, rng, lambda i, j: 1 in (i, j) and 0 not in (i, j))
            pfs, _ = sub_pfaffians(pm)
            assert pfs == sub_pfaffians_by_matchings(pm)
            assert pfs[0].is_zero() and not pfs[1].is_zero()
            # exactly one zero row, first row 0 and then a middle row: the
            # pivot search must look past it, and only its own entry
            # survives
            for r in (0, n // 2):
                pm = pencil_with_zeros(n, field, rng, lambda i, j, r=r: r in (i, j))
                pfs, _ = sub_pfaffians(pm)
                assert pfs == sub_pfaffians_by_matchings(pm)
                assert [i for i, q in enumerate(pfs) if not q.is_zero()] == [r]
        one = HomogPoly(y_vars(), 0, field, [field.one])
        for pm in (
            skew_linear([[zero] * 6 for _ in range(6)]),
            pencil_with_zeros(6, field, rng, lambda i, j: 2 in (i, j)),
        ):
            pf = pfaffian_poly(pm)
            assert pf == pfaffian_by_matchings(pm.entries, one)
            assert pf.is_zero() and pf.degree == 3


def test_sub_pfaffians_growth_budget():
    # the subset memo took about 9 s here; elimination and interpolation
    # are polynomial in n
    pm = skew_linear(random_skew_linear(19, 3, GF(32003), SplitMix64(316)))
    start = time.monotonic()
    _, signed = sub_pfaffians(pm)
    elapsed = time.monotonic() - start
    assert elapsed < 2, f"sub_pfaffians at n = 19 took {elapsed:.2f}s"
    assert all(q.degree == 9 for q in signed)
    assert all(p.is_zero() for p in mat_vec_poly(pm, signed))


def test_sub_pfaffians_need_odd_order():
    rng = SplitMix64(307)
    pm = skew_linear(random_skew_linear(4, 3, QQ, rng))
    with pytest.raises(EvenOrder):
        sub_pfaffians(pm)


# -- tensor flip ---------------------------------------------------------------


def test_tensor_flip_worked_example():
    # lone coefficient a^0_{01} = 1: column y0 of the flip reads (-x1, x0, 0, 0)
    zero = HomogPoly.zero(y_vars(), 1, QQ)
    y0 = ylin("y0")
    grid = [[zero] * 4 for _ in range(4)]
    grid[0][1] = y0
    grid[1][0] = -y0
    m = tensor_flip(skew_linear(grid))
    assert (m.nrows, m.ncols) == (4, 3)
    assert m.entries[0][0] == -variable(x_vars(4), 1, QQ)
    assert m.entries[1][0] == variable(x_vars(4), 0, QQ)
    assert m.entries[2][0].is_zero() and m.entries[3][0].is_zero()
    assert all(m.entries[i][k].is_zero() for i in range(4) for k in (1, 2))


def test_flip_unflip_roundtrip():
    rng = SplitMix64(308)
    for field in (QQ, GF(101)):
        pm = skew_linear(random_skew_linear(5, 3, field, rng))
        assert tensor_unflip(tensor_flip(pm)) == pm
    flipped = tensor_flip(pm)
    assert tensor_flip(tensor_unflip(flipped)) == flipped


# -- determinants and minors ---------------------------------------------------


def test_det_poly_matches_evaluation():
    rng = SplitMix64(309)
    field = GF(32003)
    pm = skew_linear(random_skew_linear(4, 3, field, rng))
    d = det_poly(pm.entries)
    for _ in range(5):
        point = tuple(rng.below(field.p) for _ in range(3))
        assert d.evaluate(point) == det(evaluate_matrix(pm, point))


def test_maximal_minors_lex_order_and_values():
    rng = SplitMix64(310)
    field = GF(32003)
    pm = tensor_flip(skew_linear(random_skew_linear(5, 3, field, rng)))
    minors = maximal_minors(pm)
    assert len(minors) == 10  # C(5, 3)
    rowsets = list(itertools.combinations(range(5), 3))
    point = tuple(rng.below(field.p) for _ in range(pm.alphabet.nvars))
    a = evaluate_matrix(pm, point)
    for minor, rows in zip(minors, rowsets):
        sub = Matrix(field, [a.rows[i] for i in rows], 3)
        assert minor.evaluate(point) == det(sub)


# -- congruence ---------------------------------------------------------------


def congruence_by_entries(pm, p):
    """P^T N P entry by entry, as sums of scaled polynomials."""
    n, field = pm.nrows, pm.field
    zero = HomogPoly.zero(pm.alphabet, pm.degree, field)
    out = [[zero] * n for _ in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        c = field.from_int(p.rows[k][i] * p.rows[l][j])
        out[i][j] = out[i][j] + pm.entries[k][l].scale(c)
    return out


def test_congruence_pfaffian_scaling():
    # pf(P^T N P) = det(P) pf(N), over F_p, over QQ with denominators, and
    # for a pencil of quadrics (every entry times one fixed linear form)
    rng = SplitMix64(311)
    field = GF(32003)
    linear = skew_linear(random_skew_linear(6, 3, field, rng))
    ell = parse_poly("2*y0 - y1 + 5*y2", y_vars(), QQ)
    rational = pencil_with_denominators(6, rng)
    quadric = PolyMatrix.from_entries([[q * ell for q in row] for row in rational.entries])
    for pm in (linear, rational, quadric):
        p = random_invertible(6, pm.field, rng)
        moved = congruence(pm, p)
        assert is_skew_matrix(moved) and moved.degree == pm.degree
        assert pfaffian_poly(moved) == pfaffian_poly(pm).scale(det(p))
        assert [list(row) for row in moved.entries] == congruence_by_entries(pm, p)


# -- grids of polynomials ------------------------------------------------------


def test_from_entries_keeps_its_checks():
    y0 = variable(y_vars(), 0, QQ)
    bad_grids = [
        ([], UsageError),
        ([[]], UsageError),
        ([[y0, y0], [y0]], UsageError),
        ([[y0, variable(x_vars(3), 0, QQ)]], AlphabetMismatch),
        ([[y0, variable(y_vars(), 0, GF(7))]], UsageError),
        ([[y0, y0 * y0]], DegreeMismatch),
    ]
    for grid, cls in bad_grids:
        for build in (PolyMatrix.from_entries, skew_linear):
            with pytest.raises(UsageError) as info:
                build(grid)
            assert info.type is cls, (grid, info.type)
    pm = PolyMatrix.from_entries([[y0, -y0], [HomogPoly.zero(y_vars(), 1, QQ), y0]])
    assert pm.layers == [[[1, -1], [0, 1]], [[0] * 2] * 2, [[0] * 2] * 2]
    assert pm.entry(0, 1) == -y0 and pm.entries[1][1] == y0


def test_poly_matrix_checks_every_layer_shape():
    # a short row in the one layer, and a 2 x 3 layer beside a 2 x 2 one
    with pytest.raises(UsageError, match="every coefficient layer must be 2 x 2"):
        skew_linear(PolyMatrix(y_vars(1), 1, QQ, [[[0, 0], [0]]]))
    with pytest.raises(UsageError, match="every coefficient layer must be 2 x 2"):
        skew_linear(PolyMatrix(y_vars(2), 1, QQ, [[[0, 1], [-1, 0]], [[0, 1, 2], [-1, 0, 3]]]))


# -- JSON ----------------------------------------------------------------------


def test_poly_matrix_json_roundtrip():
    rng = SplitMix64(312)
    pm = skew_linear(random_skew_linear(5, 3, GF(101), rng))
    obj = poly_matrix_to_json(pm, "skew-linear")
    assert poly_matrix_from_json(obj) == pm
    flipped = tensor_flip(pm)
    obj2 = poly_matrix_to_json(flipped, "pencil")
    assert poly_matrix_from_json(obj2) == flipped


def test_poly_matrix_json_revalidates():
    pm = skew_from_upper([["y0", "y1"], ["y2"]])
    obj = poly_matrix_to_json(pm, "skew-linear")
    obj["entries"][0][1] = obj["entries"][1][0]
    with pytest.raises(NotSkew):
        poly_matrix_from_json(obj)
    with pytest.raises(UsageError):
        poly_matrix_to_json(pm, "wobbly")


# -- properties ----------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_pfaffian_square_is_det_order_four(uppers):
    vals = [Fraction(v) for v in uppers]
    rows = [
        [0, vals[0], vals[1], vals[2]],
        [-vals[0], 0, vals[3], vals[4]],
        [-vals[1], -vals[3], 0, vals[5]],
        [-vals[2], -vals[4], -vals[5], 0],
    ]
    mat = Matrix(QQ, rows, 4)
    pf = pfaffian_scalar(mat)
    assert pf * pf == det(mat)
    # order 4 in closed form: a01 a23 - a02 a13 + a03 a12
    assert pf == vals[0] * vals[5] - vals[1] * vals[4] + vals[2] * vals[3]
