"""Graded polynomial layer: monomial order, arithmetic, text and slices."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import (
    GF,
    QQ,
    AlphabetMismatch,
    DegreeMismatch,
    FormatError,
    GradedSlice,
    HomogPoly,
    PolyMatrix,
    RangeError,
    SplitMix64,
    UsageError,
    d_vars,
    dim_homog,
    format_poly,
    mono_index,
    monomials,
    parse_poly,
    poly_from_json,
    poly_matrix_from_json,
    poly_matrix_to_json,
    poly_to_json,
    slices_equal,
    x_vars,
    y_vars,
)
from skewlab.randomness import random_form

from conftest import contains, rref_oracle, unit_vectors, variable


def test_alphabets():
    y = y_vars()
    assert y.key == "Y" and y.nvars == 3 and y.prefix == "y"
    assert y.dual().key == "D" and y.dual().dual() == y
    assert d_vars().var_name(2) == "d2"
    assert x_vars(5).nvars == 5 and x_vars(5).var_name(0) == "x0"


def test_monomials_degree_two_order():
    # graded lex within a fixed degree: exponent tuples descending
    assert monomials(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_dim_homog_and_index():
    for nvars in (1, 2, 3, 5):
        for deg in range(5):
            basis = monomials(nvars, deg)
            assert len(basis) == dim_homog(nvars, deg)
            assert dim_homog(nvars, deg) == math.comb(deg + nvars - 1, nvars - 1)
            idx = mono_index(nvars, deg)
            assert [idx[e] for e in basis] == list(range(len(basis)))


def test_terms_iterate_in_descending_lex():
    rng = SplitMix64(5)
    poly = random_form(y_vars(), 3, QQ, rng)
    expos = [e for _, e in poly.terms()]
    assert expos == sorted(expos, reverse=True)


def sympy_expr(poly, symbols):
    total = sympy.Integer(0)
    for c, e in poly.terms():
        mono = sympy.Integer(1)
        for s, k in zip(symbols, e):
            mono *= s**k
        total += sympy.Rational(c) * mono
    return sympy.expand(total)


def test_product_matches_sympy():
    rng = SplitMix64(81)
    y = y_vars()
    syms = sympy.symbols("s0 s1 s2")
    for _ in range(5):
        a = random_form(y, 2, QQ, rng)
        b = random_form(y, 3, QQ, rng)
        prod = a * b
        assert prod.degree == 5
        assert sympy_expr(prod, syms) == sympy.expand(sympy_expr(a, syms) * sympy_expr(b, syms))


def test_evaluate_matches_sympy():
    rng = SplitMix64(82)
    y = y_vars()
    syms = sympy.symbols("s0 s1 s2")
    poly = random_form(y, 4, QQ, rng)
    point = (Fraction(2), Fraction(-1, 3), Fraction(5))
    want = sympy_expr(poly, syms).subs(dict(zip(syms, [sympy.Rational(v) for v in point])))
    assert poly.evaluate(point) == Fraction(want)


def test_arithmetic_guards():
    y = y_vars()
    a = variable(y, 0, QQ)
    b = variable(d_vars(), 0, QQ)
    with pytest.raises(AlphabetMismatch):
        a + b
    with pytest.raises(DegreeMismatch):
        a + a * a


def test_leading_normalized():
    y = y_vars()
    p = HomogPoly.from_terms(y, 2, QQ, [(Fraction(3), (1, 1, 0)), (Fraction(6), (0, 0, 2))])
    q = p.leading_normalized()
    assert q.coeff((1, 1, 0)) == 1 and q.coeff((0, 0, 2)) == 2
    assert p.scale(Fraction(-7)).leading_normalized() == q
    z = HomogPoly.zero(y, 2, QQ)
    assert z.leading_normalized() == z


def test_text_roundtrip_and_format():
    rng = SplitMix64(11)
    for field in (QQ, GF(32003)):
        for deg in (1, 2, 4):
            poly = random_form(y_vars(), deg, field, rng)
            assert parse_poly(format_poly(poly), y_vars(), field) == poly
    p = parse_poly("y0^2*y1 + 3*y2^3 - y0*y1*y2", y_vars(), QQ)
    assert p.coeff((2, 1, 0)) == 1 and p.coeff((0, 0, 3)) == 3 and p.coeff((1, 1, 1)) == -1
    assert format_poly(p) == "y0^2*y1 - y0*y1*y2 + 3*y2^3"


def test_parse_rejects_malformed():
    with pytest.raises(FormatError):
        parse_poly("z0^2", y_vars(), QQ)
    with pytest.raises(DegreeMismatch):
        parse_poly("y0 + y1^2", y_vars(), QQ)
    with pytest.raises(FormatError):
        parse_poly("", y_vars(), QQ)


def test_parse_zero():
    assert parse_poly("0", y_vars(), QQ).degree == 0
    z = parse_poly("0", y_vars(), QQ, degree=3)
    assert z.is_zero() and z.degree == 3


def test_poly_json_roundtrip():
    rng = SplitMix64(13)
    for field in (QQ, GF(101)):
        poly = random_form(d_vars(), 3, field, rng)
        assert poly_from_json(poly_to_json(poly)) == poly


# -- graded slices ------------------------------------------------------------


def test_slice_canonical_under_generator_changes():
    rng = SplitMix64(21)
    y = y_vars()
    polys = [random_form(y, 2, QQ, rng) for _ in range(3)]
    a = GradedSlice.from_polys(polys)
    shuffled = [polys[2].scale(Fraction(5)), polys[0], polys[1] + polys[2]]
    b = GradedSlice.from_polys(shuffled)
    assert a == b and slices_equal(a, b)
    assert a.dim == 3 and all(len(v) == 6 for v in a.basis)
    # a vector of another length is not in the degree-2 piece
    with pytest.raises(DegreeMismatch):
        GradedSlice(y, 2, QQ, a.basis + [[QQ.one] * 5])


def test_slice_contains_and_sum():
    y = y_vars()
    y0 = variable(y, 0, QQ)
    y1 = variable(y, 1, QQ)
    y2 = variable(y, 2, QQ)
    a = GradedSlice.from_polys([y0])
    b = GradedSlice.from_polys([y1])
    assert contains(a, y0.scale(Fraction(4)))
    assert not contains(a, y1) and not contains(b, y0)
    full = GradedSlice(y, 1, QQ, unit_vectors(QQ, 3))
    assert full.dim == 3 and contains(full, y2)
    assert GradedSlice(y, 1, QQ, []).dim == 0


def test_slices_equal_requires_same_grading():
    y = y_vars()
    a = GradedSlice(y, 1, QQ, unit_vectors(QQ, 3))
    b = GradedSlice(y, 2, QQ, unit_vectors(QQ, 6))
    with pytest.raises(UsageError):
        slices_equal(a, b)


@st.composite
def spanning_sets(draw, field):
    """Polynomials of one grading over ``field``: drawn ones, then combinations of them, in a drawn order.

    The grading has 2 to 10 monomials, so most slices have several basis
    vectors, and the combinations make some rows dependent.
    """
    alphabet = y_vars(draw(st.integers(2, 3)))
    degree = draw(st.integers(1, 3))
    amb = dim_homog(alphabet.nvars, degree)
    scalar = st.builds(lambda a, b: field.from_int(Fraction(a, b)), st.integers(-50, 50), st.integers(1, 9))
    if not field.is_rational:
        scalar = st.integers(0, field.p - 1)
    drawn = [[draw(scalar) for _ in range(amb)] for _ in range(draw(st.integers(1, amb)))]
    for _ in range(draw(st.integers(1, 3))):
        coeffs = [draw(st.integers(-4, 4)) for _ in drawn]
        drawn.append([field.from_int(sum(c * v[j] for c, v in zip(coeffs, drawn))) for j in range(amb)])
    return [HomogPoly(alphabet, degree, field, v) for v in draw(st.permutations(drawn))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spanning_sets(QQ))
def test_slice_basis_is_sympy_rref_over_qq(polys):
    rref = sympy.Matrix([[sympy.Rational(c) for c in q.coeffs] for q in polys]).rref()[0]
    rows = [[Fraction(int(a.p), int(a.q)) for a in rref.row(i)] for i in range(rref.rows)]
    assert GradedSlice.from_polys(polys).basis == [row for row in rows if any(row)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(spanning_sets(GF(32003)))
def test_slice_basis_is_the_rref_oracle_over_fp(polys):
    rows = [list(q.coeffs) for q in polys]
    pivots, _ = rref_oracle(rows, GF(32003))
    assert GradedSlice.from_polys(polys).basis == rows[: len(pivots)]


def test_slice_json_roundtrip():
    # a slice is written, never loaded: its basis texts parse back to the slice
    rng = SplitMix64(23)
    y = y_vars()
    slc = GradedSlice.from_polys([random_form(y, 2, GF(101), rng) for _ in range(2)])
    doc = slc.to_json()
    assert (doc["alphabet"], doc["nvars"], doc["degree"], doc["field"]) == ("Y", 3, 2, GF(101).to_json())
    basis = [parse_poly(text, y, GF(101), 2) for text in doc["basis"]]
    assert basis == slc.basis_polys() and GradedSlice.from_polys(basis) == slc


# Integer fields of the polynomial formats: a bool, a float or a string is
# rejected, never truncated or parsed; so is a term that is not a pair.
NOT_INTEGERS = ["abc", "3", 2.9, 3.0, True, None]


@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_poly_json_integer_fields_are_checked(value):
    good = poly_to_json(parse_poly("d0^2 - 3*d1*d2", d_vars(), GF(101)))
    assert poly_from_json(good) == parse_poly("d0^2 - 3*d1*d2", d_vars(), GF(101))
    for key in ("nvars", "degree"):
        with pytest.raises(FormatError):
            poly_from_json(dict(good, **{key: value}))
    bad_exponent = dict(good, terms=[[1, [value, 0, 0]]])
    with pytest.raises(FormatError):
        poly_from_json(bad_exponent)


def test_poly_json_bad_terms_and_grading_caps():
    good = poly_to_json(parse_poly("d0^2", d_vars(), QQ))
    for terms in ([[1, [2, 0, 0], 5]], [[1]], [7], "d0"):
        with pytest.raises(FormatError):
            poly_from_json(dict(good, terms=terms))
    # errors of the package raised inside the loader keep their class
    with pytest.raises(RangeError):
        poly_from_json(dict(good, field={"kind": "fp", "p": 9}))
    with pytest.raises(DegreeMismatch):
        poly_from_json(dict(good, terms=[[1, [2, 0]]]))
    pencil = poly_matrix_to_json(PolyMatrix.from_entries([[parse_poly("y0 + y1", y_vars(), QQ)]]), "pencil")
    for loader, doc in ((poly_from_json, good), (poly_matrix_from_json, pencil)):
        for bad in ({"nvars": "3"}, {"degree": 1.0}):
            with pytest.raises(FormatError):
                loader(dict(doc, **bad))
        with pytest.raises(FormatError):
            loader({"alphabet": "Y"})
        # each of nvars and degree within its cap, but not the monomials they span
        with pytest.raises(RangeError, match="41 variables in degree 41 span more than 903 monomials"):
            loader(dict(doc, nvars=41, degree=41))
    with pytest.raises(FormatError):
        parse_poly(5, y_vars(), QQ)
