"""Rank-drop loci: numerology, incidence, parametrization, projection, scrolls."""

import itertools
import math

import pytest

from skewlab import degeneracy, randomness
from skewlab import (
    GF,
    QQ,
    DegenerateG,
    IncidenceResult,
    InternalError,
    Matrix,
    NoPointsFound,
    PolyMatrix,
    RangeError,
    SplitMix64,
    d_vars,
    dim_homog,
    evaluate_matrix,
    even_scroll_sample,
    incidence_check,
    kernel_basis,
    locus_profile,
    matrix_to_form,
    mirror,
    parametrization_points,
    parse_poly,
    pfaffian_poly,
    skew_linear,
    sub_pfaffians,
    tensor_flip,
    veronese_projection,
    verify_in_image,
    x_vars,
    y_vars,
)
from skewlab.randomness import (
    random_nondegenerate_dual_form,
    random_point,
    random_skew_linear,
)

from skewlab.degeneracy import _line_roots

from conftest import det, diagonal_pencil, norm_form_pencil, scan_oracle


def seeded_pencil(n, field, seed, m=3):
    return skew_linear(random_skew_linear(n, m, field, SplitMix64(seed)))


# -- numerology ----------------------------------------------------------------


def test_locus_profile_values():
    p = locus_profile(7, 3)
    assert (p.ambient_dim, p.dim, p.codim) == (6, 2, 4)
    assert p.corank_two_codim == 2 * (7 - 3 + 1)
    assert p.sing_codim == 7 + 2 - 3
    assert p.smooth  # 7 > 2*3 - 3
    q = locus_profile(7, 5)
    assert (q.ambient_dim, q.dim, q.codim) == (6, 4, 2)
    assert not q.smooth  # 7 <= 2*5 - 3: corank-two points survive
    assert locus_profile(5, 3).smooth is True
    assert locus_profile(9, 6).smooth is False


def test_locus_profile_guards():
    with pytest.raises(RangeError):
        locus_profile(5, 2)
    with pytest.raises(RangeError):
        locus_profile(5, 4)


def test_locus_profile_json():
    obj = locus_profile(7, 3).to_json()
    assert obj["n"] == 7 and obj["m"] == 3 and obj["smooth"] is True


# -- incidence and parametrization ----------------------------------------------


def test_incidence_requires_tall_pencil():
    pm = seeded_pencil(5, GF(32003), 1)
    with pytest.raises(RangeError):
        incidence_check(pm, (1, 2, 3, 4, 5))


def test_parametrization_points_land_on_locus():
    field = GF(32003)
    for n in (5, 7):
        pm = seeded_pencil(n, field, 30 + n)
        flipped = tensor_flip(pm)
        pts, skipped = parametrization_points(pm, 8, SplitMix64(99))
        assert len(pts) == 8 and skipped >= 0
        for nu, x in pts:
            assert len(nu) == 3 and len(x) == n
            res = incidence_check(flipped, x)
            assert res.ok and res.rank <= 2 and res.minors_zero
            assert res.n_minors == math.comb(n, 3)


def test_random_points_miss_the_locus():
    field = GF(32003)
    pm = seeded_pencil(7, field, 31)
    flipped = tensor_flip(pm)
    rng = SplitMix64(500)
    for _ in range(10):
        res = incidence_check(flipped, random_point(7, field, rng))
        assert res.rank == 3 and not res.ok


def test_random_point_gives_up_when_every_draw_is_zero(monkeypatch):
    monkeypatch.setattr(randomness, "random_scalar", lambda field, rng: field.zero)
    with pytest.raises(InternalError, match="failed to draw a nonzero point"):
        random_point(3, GF(101), SplitMix64(1))


def test_incidence_check_detects_rank_and_minors_disagreeing(monkeypatch):
    # a locus point whose rank is misread as full: its 3 x 3 minors still vanish
    pm = seeded_pencil(5, GF(32003), 35)
    [(_nu, x)], _skipped = parametrization_points(pm, 1, SplitMix64(99))
    monkeypatch.setattr(degeneracy, "rank", lambda a: a.ncols)
    with pytest.raises(InternalError, match="rank and minor tests disagree"):
        incidence_check(tensor_flip(pm), x)


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=repr)
def test_incidence_with_four_columns_tests_each_minor_by_rank(field):
    # the flip of an odd skew pencil in four variables is a tall 7 x 4
    # pencil; a kernel vector x of the skew matrix at a point c gives
    # M(x) c = 0, a point where the rank drops
    pm = seeded_pencil(7, field, 33, m=4)
    flipped = tensor_flip(pm)
    assert (flipped.nrows, flipped.ncols) == (7, 4)
    rng = SplitMix64(501)
    x = kernel_basis(evaluate_matrix(pm, random_point(4, field, rng)))[0]
    res = incidence_check(flipped, x)
    assert res.ok and res.rank <= 3 and res.minors_zero
    assert res.n_minors == math.comb(7, 4)
    a = evaluate_matrix(flipped, x)
    for rows_sel in itertools.combinations(a.rows, 4):
        assert det(Matrix(field, rows_sel, a.ncols)) == field.zero
    # at random points the rank is full and some minor is not zero
    for _ in range(3):
        res = incidence_check(flipped, random_point(7, field, rng))
        assert res.rank == 4 and not res.ok and not res.minors_zero


def test_incidence_sweep_visits_every_row_triple():
    # at x0 = 1 the tall 6 x 3 pencil has rows e1, e2, e3 at i, j, k and zero
    # elsewhere, so the one nonzero 3 x 3 minor is the one on rows i, j, k
    field = GF(32003)
    point = (1, 0, 0, 0, 0, 0)
    for triple in itertools.combinations(range(6), 3):
        at_x0 = [[0, 0, 0] for _ in range(6)]
        for col, row in enumerate(triple):
            at_x0[row][col] = 1
        zeros = [[0, 0, 0] for _ in range(6)]
        pencil = PolyMatrix(x_vars(6), 1, field, [at_x0] + [zeros] * 5)
        res = incidence_check(pencil, point)
        assert res.rank == 3
        assert res.ok is False and res.minors_zero is False
        assert res.n_minors == 20


@pytest.mark.parametrize(
    "field, n, seed, skips",
    [(GF(32003), 13, 36, False), (GF(5), 13, 39, True), (QQ, 7, 38, False)],
    ids=repr,
)
def test_parametrization_values_match_evaluate(field, n, seed, skips):
    # a replay of the same draws through HomogPoly.evaluate gives every
    # kept point and every skipped one; over F_5 the sub-Pfaffians have
    # degree 6 >= 5, and this pencil's vanish together at four draws
    pm = seeded_pencil(n, field, seed)
    _pfs, signed = sub_pfaffians(pm)
    pts, skipped = parametrization_points(pm, 30, SplitMix64(seed))
    replay = SplitMix64(seed)
    expected, vanished = [], 0
    while len(expected) < len(pts):
        nu = random_point(3, field, replay)
        x = tuple(q.evaluate(nu) for q in signed)
        if all(v == field.zero for v in x):
            vanished += 1
        else:
            expected.append((nu, x))
    assert pts == expected and skipped == vanished
    assert (skipped > 0) == skips


def test_parametrization_is_deterministic():
    pm = seeded_pencil(5, GF(32003), 32)
    a, _ = parametrization_points(pm, 5, SplitMix64(7))
    b, _ = parametrization_points(pm, 5, SplitMix64(7))
    assert a == b


# -- projection away from the partials ------------------------------------------


def test_veronese_projection_dimensions():
    for n, seed in ((5, 1), (7, 2), (9, 3)):
        rng = SplitMix64(seed)
        g = mirror(random_nondegenerate_dual_form(n - 3, GF(32003), rng))
        datum = veronese_projection(g)
        assert datum.n == n
        assert datum.center.dim == (n - 1) * (n - 3) // 8
        assert datum.complement.dim == n
        assert datum.direct_sum_ok
        assert datum.r + 1 == dim_homog(3, (n - 1) // 2)
        assert datum.center.dim + n == dim_homog(3, (n - 1) // 2)


def test_veronese_projection_guards():
    with pytest.raises(RangeError):
        veronese_projection(parse_poly("d0^2", d_vars(), QQ))
    with pytest.raises(RangeError):
        veronese_projection(parse_poly("y0^3", y_vars(), QQ))
    with pytest.raises(DegenerateG):
        veronese_projection(parse_poly("0", y_vars(), QQ, degree=2))
    # the same check and message as the correspondence's
    with pytest.raises(RangeError, match="must exceed 6 for exact apolarity"):
        veronese_projection(parse_poly("y0^6 + y1^6 + y2^6", y_vars(), GF(5)))


def test_veronese_projection_rejects_degenerate_form():
    # partials of y0^4 span a line, not the expected 3 dimensions
    with pytest.raises(DegenerateG):
        veronese_projection(parse_poly("y0^4", y_vars(), QQ))


def test_verify_in_image_closes_the_loop():
    for n, seed in ((5, 11), (7, 12)):
        rng = SplitMix64(seed)
        g = mirror(random_nondegenerate_dual_form(n - 3, GF(32003), rng))
        datum = veronese_projection(g)
        pencil, a_mat, cert = verify_in_image(datum)
        assert cert.ok
        assert a_mat.nrows == n and a_mat.ncols == n
        form, _ = matrix_to_form(pencil)
        assert form == mirror(g).leading_normalized()


def test_verify_in_image_refuses_an_annihilator_outside_the_span():
    # the annihilator of another form is not spanned by this pencil's sub-Pfaffians
    g, other = (mirror(random_nondegenerate_dual_form(4, GF(32003), SplitMix64(seed))) for seed in (11, 12))
    datum = veronese_projection(g)
    datum.complement = veronese_projection(other).complement
    with pytest.raises(InternalError, match="annihilator basis not in the sub-Pfaffian span"):
        verify_in_image(datum)


def test_projection_datum_json():
    rng = SplitMix64(13)
    g = mirror(random_nondegenerate_dual_form(2, GF(32003), rng))
    obj = veronese_projection(g).to_json()
    assert obj["n"] == 5 and obj["direct_sum_ok"] is True
    assert obj["center_dim"] == 1 and obj["complement_dim"] == 5


# -- even scrolls ----------------------------------------------------------------


def test_even_scroll_samples_pass_incidence():
    field = GF(101)
    pm = seeded_pencil(6, field, 41)
    sample = even_scroll_sample(pm, count=4)
    assert sample.n == 6 and sample.p == 101
    assert sample.curve_degree == 3
    assert len(sample.points) == 4
    flipped = tensor_flip(pm)
    pf = pfaffian_poly(pm)
    assert pf.degree == 3 and not pf.is_zero()
    for pt in sample.points:
        assert pf.evaluate(pt.nu) == 0
        assert pt.incidence_ranks and all(r == 2 for r in pt.incidence_ranks)
        for x in pt.x_samples:
            assert incidence_check(flipped, x).ok


def test_even_scroll_is_deterministic():
    pm = seeded_pencil(8, GF(32003), 42)
    a = even_scroll_sample(pm, count=3)
    b = even_scroll_sample(pm, count=3)
    assert a.to_json() == b.to_json()
    assert a.curve_degree == 4


def test_even_scroll_guards():
    with pytest.raises(RangeError):
        even_scroll_sample(seeded_pencil(5, GF(101), 1), 5)
    with pytest.raises(RangeError):
        even_scroll_sample(seeded_pencil(6, QQ, 1), 5)
    # a count below 1 used to return one point with exhausted false
    for count in (0, -5):
        with pytest.raises(RangeError, match=f"sample count must be at least 1, got {count}"):
            even_scroll_sample(seeded_pencil(6, GF(101), 41), count)


def test_even_scroll_sample_detects_a_kernel_line_off_the_locus(monkeypatch):
    off = IncidenceResult(rank=3, n_minors=20, minors_zero=False, ok=False)
    monkeypatch.setattr(degeneracy, "incidence_check", lambda pencil, point: off)
    with pytest.raises(InternalError, match="kernel line sample failed incidence"):
        even_scroll_sample(seeded_pencil(6, GF(101), 41), count=1)


def test_pointless_curve_raises(pointless_pencil):
    pf = pfaffian_poly(pointless_pencil)
    assert not pf.is_zero() and pf.degree == 3
    with pytest.raises(NoPointsFound):
        even_scroll_sample(pointless_pencil, count=2)


# -- roots on a chart line -------------------------------------------------------

ROOT_PRIMES = (2, 3, 5, 7, 101)


def brute_roots(coeffs, p):
    return [b for b in range(p) if sum(c * b**k for k, c in enumerate(coeffs)) % p == 0]


def poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def root_cases(p):
    """Coefficient lists by degree, the corner cases first, then random ones."""
    rng = SplitMix64(p)
    yield []
    yield [0, 0, 0]
    yield [p, -2 * p, 5 * p]  # zero mod p
    yield [1]
    yield [p - 1, p, 0, 2 * p]  # a nonzero constant mod p
    yield [1, 1, 1, p]  # leading coefficient 0 mod p
    yield [0, 2, p, 3 * p]
    repeated = [1]
    for r in (1, 1, 1, 2 % p, 0, 0):  # (b - 1)^3 (b - 2) b^2
        repeated = poly_product(repeated, [-r, 1])
    yield repeated
    frobenius = [0, -1] + [0] * (p - 2) + [1]  # b^p - b
    yield frobenius
    for _ in range(3):
        cofactor = [rng.below(p) for _ in range(rng.randint(1, 4))]
        yield poly_product(frobenius, cofactor)
    for _ in range(60):
        yield [rng.below(p) for _ in range(rng.randint(1, 21))]
    for _ in range(20):  # many roots, so the splitting recurses
        f = [rng.randint(1, p - 1)]
        for _ in range(rng.randint(1, 20)):
            f = poly_product(f, [-rng.below(p), 1])
        yield f


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_line_roots_match_brute_force(p):
    for coeffs in root_cases(p):
        assert list(_line_roots(coeffs, p)) == brute_roots(coeffs, p), coeffs


# -- the root finder against the point-by-point scan ------------------------------


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_even_scroll_matches_the_full_scan(p):
    exhausted = 0
    for n in (4, 6, 8):
        for count in (1, 5):
            for seed in range(5):
                pm = seeded_pencil(n, GF(p), seed)
                if pfaffian_poly(pm).is_zero():
                    continue
                want = scan_oracle(pm, count)
                if not want.points:
                    with pytest.raises(NoPointsFound):
                        even_scroll_sample(pm, count)
                    continue
                assert even_scroll_sample(pm, count).to_json() == want.to_json()
                exhausted += want.exhausted
    if p < 101:
        assert exhausted  # planes with too few points, scanned = p^2 + p + 1


def test_full_scan_of_the_pointless_plane(pointless_pencil):
    want = scan_oracle(pointless_pencil, 2)
    assert want.exhausted and not want.points and want.scanned == 5 * 5 + 5 + 1
    with pytest.raises(NoPointsFound):
        even_scroll_sample(pointless_pencil, count=2)


@pytest.mark.parametrize(
    "p, forms",
    [
        # y1 divides the Pfaffian: the chart line a = 0 lies on the curve
        (7, [(0, 1, 0), (1, 2, 3), (3, 1, 5)]),
        (101, [(0, 1, 0), (1, 2, 3), (3, 1, 5)]),
        # y0 divides it: chart two lies on the curve
        (5, [(1, 0, 0), (1, 1, 1), (2, 0, 1)]),
        # b (b + 1) divides every chart-one line over F_2 and F_3, (b + 2) too over F_3
        (2, [(0, 0, 1), (1, 0, 1), (1, 1, 1)]),
        (3, [(0, 0, 1), (1, 0, 1), (2, 0, 1)]),
    ],
)
def test_even_scroll_on_a_line_component_matches_the_full_scan(p, forms):
    pm = diagonal_pencil(GF(p), forms)
    for count in (1, 3, p + 2, 3 * p):
        assert even_scroll_sample(pm, count).to_json() == scan_oracle(pm, count).to_json()
