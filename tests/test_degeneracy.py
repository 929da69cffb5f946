"""Rank-drop loci: numerology, incidence, parametrization, projection, scrolls."""

import itertools
import math

import pytest

from skewlab import (
    GF,
    QQ,
    DegenerateG,
    Matrix,
    NoPointsFound,
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
    tensor_flip,
    veronese_projection,
    verify_in_image,
    y_vars,
)
from skewlab.randomness import (
    random_nondegenerate_dual_form,
    random_point,
    random_skew_linear,
)

from conftest import det, norm_form_pencil


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


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=repr)
def test_incidence_with_four_columns_tests_each_minor_by_rank(field):
    # the flip of an odd skew pencil in four variables is a tall 7 x 4
    # pencil; a kernel vector x of the skew matrix at a point c gives
    # M(x) c = 0, a point where the rank drops
    pm = seeded_pencil(7, field, 33, m=4)
    flipped = tensor_flip(pm)
    assert (flipped.nrows, flipped.ncols) == (7, 4)
    rng = SplitMix64(501)
    x = kernel_basis(evaluate_matrix(pm, random_point(4, field, rng))).column(0)
    res = incidence_check(flipped, x)
    assert res.ok and res.rank <= 3 and res.minors_zero
    assert res.n_minors == math.comb(7, 4)
    a = evaluate_matrix(flipped, x)
    for rows_sel in itertools.combinations(a.rows, 4):
        assert det(Matrix(field, rows_sel)) == field.zero
    # at random points the rank is full and some minor is not zero
    for _ in range(3):
        res = incidence_check(flipped, random_point(7, field, rng))
        assert res.rank == 4 and not res.ok and not res.minors_zero


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


def test_pointless_curve_raises(pointless_pencil):
    pf = pfaffian_poly(pointless_pencil)
    assert not pf.is_zero() and pf.degree == 3
    with pytest.raises(NoPointsFound):
        even_scroll_sample(pointless_pencil, count=2)
