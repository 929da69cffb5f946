"""Acceptance suite: nine headline properties, each with a hard time budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every check is exact; the stated wall-clock limits
are asserted, not aspirational.
"""

import itertools
import math
import time
from contextlib import contextmanager

from skewlab import (
    GF,
    QQ,
    GradedSlice,
    SplitMix64,
    agreement,
    bott,
    closed_form_tables,
    dim_gr,
    dim_homog,
    dimension_ledger,
    euler_chi_omega,
    even_scroll_sample,
    form_to_matrix,
    grid_rows,
    incidence_check,
    matrix_to_form,
    mirror,
    parametrization_points,
    pfaffian_poly,
    skew_linear,
    slices_equal,
    sub_pfaffians,
    tensor_flip,
    veronese_projection,
    verify_in_image,
)
from skewlab.randomness import (
    random_nondegenerate_dual_form,
    random_point,
    random_skew_linear,
)

from conftest import chi_of, det, mat_vec_poly, pfaffian_scalar, random_scalar_skew

FP = GF(32003)


@contextmanager
def budget(seconds, label):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"{label}: PASS in {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s, budget {seconds}s"


def seeded_pencil(n, field, seed):
    return skew_linear(random_skew_linear(n, 3, field, SplitMix64(seed)))


def pf_span(pm):
    pfs, _ = sub_pfaffians(pm)
    return GradedSlice.from_polys(pfs)


def test_criterion_1_pfaffian_squares_to_determinant():
    with budget(10, "criterion 1 (pfaffian vs determinant, 200 matrices per field)"):
        orders = [2, 4, 6, 8, 10, 12]
        for field in (QQ, FP):
            rng = SplitMix64(1001)
            for i in range(200):
                n = orders[i % len(orders)]
                mat = random_scalar_skew(n, field, rng)
                pf = pfaffian_scalar(mat)
                assert field.from_int(pf * pf) == det(mat)


def test_criterion_2_signed_subpfaffians_are_a_syzygy():
    with budget(30, "criterion 2 (symbolic kernel identity, n up to 11)"):
        for n in (3, 5, 7, 9, 11):
            pm = seeded_pencil(n, FP, 2000 + n)
            _, signed = sub_pfaffians(pm)
            assert all(p.is_zero() for p in mat_vec_poly(pm, signed))


def _certificate_facts(cert, n):
    k = n - 3
    assert cert.ok, cert.failed()
    assert cert.ideal_slice.dim == n  # annihilator in degree (n-1)/2
    h = cert.hilbert
    assert len(h) == k + 1
    assert all(h[d] == dim_homog(3, d) for d in range((n - 3) // 2 + 1))
    assert h[k] == 1
    assert h == tuple(reversed(h))
    assert cert.checks["perp_full_above_degree"]  # generated one degree up too


def test_criterion_3_correspondence_round_trip():
    with budget(120, "criterion 3 (round trips, 20 seeds x odd n plus rational runs)"):
        for n in (5, 7, 9):
            for seed in range(20):
                pm = seeded_pencil(n, FP, 100 * n + seed)
                form, cert_a = matrix_to_form(pm)
                _certificate_facts(cert_a, n)
                back, cert_b = form_to_matrix(form)
                _certificate_facts(cert_b, n)
                assert slices_equal(pf_span(pm), pf_span(back))
                form_again, _ = matrix_to_form(back)
                assert form_again == form
        for n in (5, 7):
            for seed in (1, 2, 3):
                pm = seeded_pencil(n, QQ, seed)
                form, cert_a = matrix_to_form(pm)
                _certificate_facts(cert_a, n)
                back, cert_b = form_to_matrix(form)
                _certificate_facts(cert_b, n)
                assert slices_equal(pf_span(pm), pf_span(back))
                form_again, _ = matrix_to_form(back)
                assert form_again == form


def test_criterion_4_parametrized_points_hit_the_locus():
    with budget(120, "criterion 4 (incidence at 50 points x 10 seeds x 4 orders)"):
        for n in (5, 7, 9, 11):
            n_minors = math.comb(n, 3)
            for seed in range(10):
                pm = seeded_pencil(n, FP, 40 * n + seed)
                flipped = tensor_flip(pm)
                rng = SplitMix64(7_000 + 10 * n + seed)
                points, _skipped = parametrization_points(pm, 50, rng)
                assert len(points) == 50
                for _nu, x in points:
                    res = incidence_check(flipped, x)
                    assert res.ok and res.rank <= 2
                    assert res.minors_zero and res.n_minors == n_minors
                control_rng = SplitMix64(8_000 + 10 * n + seed)
                for _ in range(50):
                    res = incidence_check(flipped, random_point(n, FP, control_rng))
                    assert res.rank == 3


def test_criterion_5_even_scroll_sampling():
    with budget(60, "criterion 5 (scroll samples over two primes)"):
        for p in (101, 32003):
            field = GF(p)
            for n in (6, 8):
                for seed in range(5):
                    pm = skew_linear(
                        random_skew_linear(n, 3, field, SplitMix64(50 * n + seed))
                    )
                    pf = pfaffian_poly(pm)
                    assert pf.degree == n // 2 and not pf.is_zero()
                    sample = even_scroll_sample(pm, 5)
                    assert sample.curve_degree == n // 2
                    flipped = tensor_flip(pm)
                    for pt in sample.points:
                        assert pf.evaluate(pt.nu) == 0
                        assert all(r == 2 for r in pt.incidence_ranks)
                        for x in pt.x_samples:
                            assert incidence_check(flipped, x).ok


def test_criterion_6_chase_agrees_with_closed_tables():
    with budget(10, "criterion 6 (interval chase vs closed forms, full grid)"):
        for n in range(5, 14):
            for m in range(3, n - 1):
                report = agreement(m, n)
                for sheaf, block in report.items():
                    assert block["exact"], (m, n, sheaf)
                    assert block["max_width"] == 0, (m, n, sheaf)
                    assert block["match"], (m, n, sheaf)
        assert closed_form_tables(3, 7)["omega"][0] == 69
        assert closed_form_tables(3, 6)["structure"][1] == 1
        assert closed_form_tables(3, 8)["twist"][1] == 3


def test_criterion_7_dimension_ledger():
    with budget(1, "criterion 7 (dimension ledger identities)"):
        deltas = {(3, 5): 0, (3, 6): 0, (3, 7): 7, (3, 8): 3, (3, 9): 27}
        for (m, n), want in deltas.items():
            led = dimension_ledger(m, n)
            assert led.delta == (want, want) and led.delta_matches_codim
        for row in grid_rows():
            if row["m"] < 4:
                continue
            if row["flagged"]:
                assert row["m"] == 4 and row["n"] % 2 == 0 and row["n"] >= 8
                assert row["delta_lo"] == 0 and row["delta_hi"] == 1
            else:
                assert row["delta_lo"] == 0 and row["delta_hi"] == 0
        for n in (5, 7, 9, 11):
            led = dimension_ledger(3, n)
            assert led.identity_ok
            assert led.dim_gr + led.delta[0] == n * (n + 3) * (n + 1) // 8 - 9


def test_criterion_8_projection_characterization_loop():
    with budget(60, "criterion 8 (projection loop, 10 seeds x three orders)"):
        for n in (5, 7, 9):
            for seed in range(10):
                rng = SplitMix64(90 * n + seed)
                g = mirror(random_nondegenerate_dual_form(n - 3, FP, rng))
                datum = veronese_projection(g)
                assert datum.center.dim + n == dim_homog(3, (n - 1) // 2)
                pencil, _a_mat, cert = verify_in_image(datum)
                assert cert.ok
                form, _ = matrix_to_form(pencil)
                assert form == mirror(g).leading_normalized()


def test_criterion_9_bott_oracle():
    with budget(5, "criterion 9 (closed form vs Euler recursion)"):
        for big_n in range(13):
            for p in range(big_n + 1):
                for k in range(-12, 13):
                    assert chi_of(bott(big_n, p, k)) == euler_chi_omega(big_n, p, k)
