"""Round trip between odd skew pencils and their apolar dual forms."""

from collections import Counter

import pytest

from skewlab import (
    GF,
    QQ,
    DegenerateForm,
    DegenerateInput,
    GenericityError,
    GradedSlice,
    HomogPoly,
    RangeError,
    SkewNormalizationFailure,
    SplitMix64,
    SyzygyDefect,
    UsageError,
    d_vars,
    dim_homog,
    form_to_matrix,
    hilbert_function,
    matrix_to_form,
    parse_poly,
    slices_equal,
    sub_pfaffians,
    y_vars,
)
from skewlab import correspond, linalg
from skewlab.linalg import Matrix
from skewlab.randomness import (
    random_form,
    random_nondegenerate_dual_form,
    random_skew_linear,
)
from skewlab.apolarity import catalecticant_rank, perp_slice
from skewlab.correspond import _build_certificate, _skew_combinations
from skewlab.skew import skew_linear

from conftest import congruence, random_invertible, variable


def seeded_pencil(n, field, seed):
    return skew_linear(random_skew_linear(n, 3, field, SplitMix64(seed)))


def pf_slice(pm):
    pfs, _ = sub_pfaffians(pm)
    return GradedSlice.from_polys(pfs)


def test_matrix_to_form_produces_checked_certificate():
    pm = seeded_pencil(5, GF(32003), 1)
    form, cert = matrix_to_form(pm)
    assert form.alphabet == d_vars() and form.degree == 2
    assert form == form.leading_normalized()
    assert cert.ok and cert.direction == "matrix-to-form"
    assert cert.hilbert == (1, 3, 1)
    assert cert.cat_rank == 3
    assert set(cert.checks) == {
        "annihilator_dim",
        "generators_match_annihilator",
        "hilbert_symmetric",
        "hilbert_maximal",
        "socle_dim",
        "perp_full_above_degree",
    }
    assert cert.ideal_slice.dim == 5
    assert hilbert_function(form) == (1, 3, 1)


def test_certificate_reuses_hilbert_function_and_can_fail():
    pm = seeded_pencil(9, GF(32003), 4)
    form, cert = matrix_to_form(pm)
    assert cert.cat_rank == catalecticant_rank(form) == 10
    assert cert.ideal_slice == perp_slice(form, 4)
    # a span other than the annihilator fails its check
    wrong = GradedSlice.from_polys(cert.ideal_slice.basis_polys()[:-1])
    bad = _build_certificate(form, wrong, 9, "matrix-to-form", perp_slice(form, 4))
    assert bad.failed() == ["generators_match_annihilator"]
    # an annihilator handed in is used as is, and checked
    bad = _build_certificate(form, wrong, 9, "form-to-matrix", wrong)
    assert bad.failed() == ["annihilator_dim"]


def test_a_pencil_can_fail_hilbert_maximal():
    # the CLI's ``correspond from-matrix --n 5 --p 5 --seed 1``, which exits 3
    failed = "hilbert_maximal, perp_full_above_degree"
    with pytest.raises(DegenerateInput, match=f"^pencil fails correspondence checks: {failed}$"):
        matrix_to_form(random_skew_linear(5, 3, GF(5), SplitMix64(1)))


def test_products_of_the_generators_must_fill_the_next_degree():
    # d0^4 + d1^4 has an annihilator generator in degree 4 = (n + 1) / 2,
    # y0^4 - y1^4, that no cubic in the annihilator times a linear form gives
    form = parse_poly("d0^4 + d1^4", d_vars(), GF(101))
    ann = perp_slice(form, 3)
    cert = _build_certificate(form, ann, 7, "form-to-matrix", ann)
    assert not cert.checks["perp_full_above_degree"]
    assert cert.checks["generators_match_annihilator"]
    # a generic form passes it
    _, good = form_to_matrix(random_nondegenerate_dual_form(4, GF(101), SplitMix64(3)))
    assert good.checks["perp_full_above_degree"]


def test_roundtrip_matrix_form_matrix():
    for n in (5, 7):
        pm = seeded_pencil(n, GF(32003), 10 + n)
        form, _ = matrix_to_form(pm)
        back, cert = form_to_matrix(form)
        assert cert.ok
        assert slices_equal(pf_slice(pm), pf_slice(back))
        form2, _ = matrix_to_form(back)
        assert form2 == form


def test_roundtrip_form_matrix_form():
    rng = SplitMix64(77)
    form = random_nondegenerate_dual_form(4, GF(32003), rng).leading_normalized()
    pm, cert = form_to_matrix(form)
    assert cert.ok and cert.direction == "form-to-matrix"
    assert pm.nrows == 7 and is_linear_skew(pm)
    recovered, _ = matrix_to_form(pm)
    assert recovered == form


def is_linear_skew(pm):
    from skewlab import is_skew_matrix

    return pm.degree == 1 and is_skew_matrix(pm)


def test_roundtrip_over_rationals():
    pm = seeded_pencil(5, QQ, 4)
    form, cert = matrix_to_form(pm)
    assert cert.ok
    back, cert2 = form_to_matrix(form)
    assert cert2.ok
    assert slices_equal(pf_slice(pm), pf_slice(back))


def test_certificate_json_shape():
    pm = seeded_pencil(5, GF(32003), 6)
    _, cert = matrix_to_form(pm)
    obj = cert.to_json()
    assert obj["ok"] is True and obj["n"] == 5
    assert obj["hilbert"] == [1, 3, 1]
    assert set(obj["checks"]) == set(cert.checks)


def test_matrix_to_form_guards():
    with pytest.raises(UsageError):
        matrix_to_form(seeded_pencil(4, GF(32003), 1))  # even order
    with pytest.raises(UsageError):
        matrix_to_form(seeded_pencil(3, GF(32003), 1))  # too small
    with pytest.raises(UsageError):
        matrix_to_form(skew_linear(random_skew_linear(5, 4, GF(32003), SplitMix64(1))))
    with pytest.raises(UsageError):
        matrix_to_form(seeded_pencil(7, GF(3), 1))  # characteristic too small


def test_matrix_to_form_rejects_degenerate_span():
    # every entry a multiple of y0: sub-Pfaffians span a line, not n dims
    y0 = variable(y_vars(), 0, QQ)
    zero = HomogPoly.zero(y_vars(), 1, QQ)
    grid = [[zero] * 5 for _ in range(5)]
    scale = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23]
    k = 0
    for i in range(5):
        for j in range(i + 1, 5):
            grid[i][j] = y0.scale(scale[k])
            grid[j][i] = -grid[i][j]
            k += 1
    with pytest.raises(DegenerateInput):
        matrix_to_form(skew_linear(grid))


def test_form_to_matrix_guards():
    with pytest.raises(UsageError):
        form_to_matrix(parse_poly("y0^2", y_vars(), QQ))  # wrong alphabet
    with pytest.raises(RangeError):
        form_to_matrix(parse_poly("d0", d_vars(), QQ))  # odd degree, n even
    with pytest.raises(GenericityError):
        form_to_matrix(parse_poly("0", d_vars(), QQ, degree=2))


def test_form_to_matrix_rejects_degenerate_form():
    # d0^4 has a 9-dimensional annihilator in degree 3, not 7
    with pytest.raises(DegenerateForm):
        form_to_matrix(parse_poly("d0^4", d_vars(), QQ))


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["QQ", "GF101"])
@pytest.mark.parametrize(
    "text, error",
    [
        ("d0^2", SyzygyDefect),
        # the skew solution is a line, but Q is singular
        ("d0^2 + d1^2", SkewNormalizationFailure),
        # the skew solutions form a 3-dimensional space
        ("d0^2*d1*d2", SkewNormalizationFailure),
    ],
)
def test_form_to_matrix_genericity_exits(field, text, error):
    with pytest.raises(error):
        form_to_matrix(parse_poly(text, d_vars(), field))


def test_form_to_matrix_needs_a_line_of_skew_solutions():
    # the first basis vector of a larger solution space is not tried; the
    # first two layers leave more than a line here, so the message counts
    # the solutions of all three
    for field in (GF(101), QQ):
        with pytest.raises(SkewNormalizationFailure, match="skew solution space has dimension 3"):
            form_to_matrix(parse_poly("d0^2*d1*d2", d_vars(), field))


def test_line_solves_eliminate_only_the_rows_they_need(monkeypatch):
    # the skew solve reduces [T_0 | I] and its prefix, S W_0 = 0 and the T_1
    # rows, in C(n, 2) + n r_0 unknowns; the T_2 rows are only checked.  The
    # socle solve reduces the generator blocks up to the first boundary with
    # at least n_cols - 1 rows
    n, field = 11, GF(32003)
    shapes = []
    echelon = linalg._echelon

    def spy(rows, fld, ncols):
        shapes.append((len(rows), ncols))
        return echelon(rows, fld, ncols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    form_to_matrix(random_nondegenerate_dual_form(n - 3, field, SplitMix64(1)))
    r0, width = 1, n * (n - 1) // 2 + n
    prefix = n * r0 + n * (n + 1) // 2
    assert (prefix, width) == (77, 66)
    assert shapes.count((n, 2 * n)) == 1
    assert [rows for rows, ncols in shapes if ncols == width] == [prefix]
    assert not [shape for shape in shapes if shape[1] == n * n]

    shapes.clear()
    matrix_to_form(seeded_pencil(n, field, 1))
    n_cols, block = dim_homog(3, n - 3), dim_homog(3, n - 3 - (n - 1) // 2)
    boundary = -(-(n_cols - 1) // block) * block
    socle_rows = [rows for rows, ncols in shapes if ncols == n_cols]
    assert boundary == 50 and max(socle_rows) == boundary < n * block


def test_qq_skew_failure_states_the_exact_dimension():
    # with zero layers every Q is a solution: the kernel is all n^2 entries
    zero = Matrix(QQ, [[QQ.zero] * 5 for _ in range(5)], 5)
    with pytest.raises(SkewNormalizationFailure, match="has dimension 25, expected 1"):
        _skew_combinations([zero] * 3, 5, QQ)


def skew_combinations_in_n2_unknowns(layers, n, field):
    """The skew normalization solved for all n^2 entries of Q, row-major.

    For every layer T_k and pair i <= j the row is (Q T_k)_{ij} +
    (Q T_k)_{ji} = 0, whose coefficients on row i of Q are column j of
    T_k and vice versa (for i = j, (Q T_k)_{ii} = 0).  The T_0 and T_1
    rows, n^2 + n of them, are eliminated and the T_2 rows checked.
    """
    rows = []
    for t in layers:
        ck = t.transpose().rows
        for i in range(n):
            for j in range(i, n):
                row = [field.zero] * (n * n)
                row[i * n : (i + 1) * n] = ck[j]
                row[j * n : (j + 1) * n] = ck[i]
                rows.append(row)
    q_space = linalg.kernel_line(Matrix(field, rows, n * n), n * n + n)
    if len(q_space) != 1:
        raise SkewNormalizationFailure(
            f"skew solution space has dimension {len(q_space)}, expected 1"
        )
    return q_space[0]


SKEW_ORACLE_FORMS = (
    [("nondegenerate", GF(32003), n, 1, 1) for n in (7, 9, 11, 13)]
    + [("nondegenerate", QQ, n, 1, 1) for n in (5, 7)]
    # T_0 of corank 2: Q is a line but singular, or a 3-dimensional space
    + [("random", GF(p), n, seed, 2) for p, n, seed in ((7, 5, 0), (11, 7, 59), (13, 5, 10), (7, 7, 30))]
    + [("d0^2*d1*d2", field, 7, None, 3) for field in (GF(101), QQ)]
)


@pytest.mark.parametrize(
    "kind, field, n, seed, r0",
    SKEW_ORACLE_FORMS,
    ids=lambda v: v if isinstance(v, str) else repr(v),
)
def test_skew_combinations_match_the_n2_unknown_system(monkeypatch, kind, field, n, seed, r0):
    if kind == "nondegenerate":
        form = random_nondegenerate_dual_form(n - 3, field, SplitMix64(seed))
    elif kind == "random":
        form = random_form(d_vars(), n - 3, field, SplitMix64(seed))
    else:
        form = parse_poly(kind, d_vars(), field)
    calls = []

    def spy(layers, n, field):
        calls.append((layers, n, field))
        return _skew_combinations(layers, n, field)

    monkeypatch.setattr(correspond, "_skew_combinations", spy)
    try:
        form_to_matrix(form)
    except GenericityError:
        pass
    (args,) = calls
    assert args[1] - linalg.rank(args[0][0]) == r0
    results = []
    for solve in (skew_combinations_in_n2_unknowns, _skew_combinations):
        try:
            results.append(solve(*args))
        except SkewNormalizationFailure as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    assert list(map(type, results[0])) == list(map(type, results[1]))


def test_congruence_transport_preserves_the_form():
    # P^T N P for an invertible P has the same dual form, up to the scale det(P)
    for field in (GF(32003), QQ):
        pm = seeded_pencil(7, field, 21)
        rng = SplitMix64(22)
        moved = skew_linear(congruence(pm, random_invertible(7, field, rng)))
        form_a, _ = matrix_to_form(pm)
        form_b, cert = matrix_to_form(moved)
        assert cert.ok
        assert form_a == form_b


# Outcomes of form_to_matrix on unfiltered random forms, seeds 0..count-1:
# every form gives a certified pencil or a genericity error.  The tally per
# (prime, n, count) pins which of the two each form gives.
RANDOM_FORM_OUTCOMES = {
    (7, 5, 60): {"ok": 47, "SkewNormalizationFailure": 13},
    (7, 7, 40): {"ok": 36, "SkewNormalizationFailure": 4},
    (101, 7, 40): {"ok": 39, "SkewNormalizationFailure": 1},
    (13, 9, 10): {"ok": 10},
}


@pytest.mark.parametrize("cell", list(RANDOM_FORM_OUTCOMES), ids=lambda c: "F%d-n%d" % c[:2])
def test_random_form_outcomes_are_pinned(cell):
    p, n, count = cell
    tally = Counter()
    for seed in range(count):
        form = random_form(d_vars(), n - 3, GF(p), SplitMix64(seed))
        try:
            _, cert = form_to_matrix(form)
        except GenericityError as exc:
            tally[type(exc).__name__] += 1
        else:
            assert cert.ok
            tally["ok"] += 1
    assert tally == RANDOM_FORM_OUTCOMES[cell]
