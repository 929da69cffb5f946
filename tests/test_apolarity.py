"""Differentiation pairing, annihilators, Hilbert functions, socle recovery."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import (
    GF,
    QQ,
    DegreeMismatch,
    HomogPoly,
    Matrix,
    NotGorensteinSocle,
    OddDegree,
    SplitMix64,
    UsageError,
    apolar_rank,
    apolarity,
    catalecticant_rank,
    d_vars,
    dim_homog,
    dual_socle_generator,
    hilbert_function,
    is_nondegenerate,
    kernel_basis,
    mirror,
    mono_index,
    monomials,
    pairing_matrix,
    partials_slice,
    parse_poly,
    perp_slice,
    row_space_canonical,
    y_vars,
)
from skewlab.randomness import random_form, random_nondegenerate_dual_form, random_scalar

from conftest import contains, mul_vec, unit_vectors

SYMS = sympy.symbols("t0 t1 t2")


def dpoly(text, field=QQ, degree=None):
    return parse_poly(text, d_vars(), field, degree=degree)


def ypoly(text, field=QQ, degree=None):
    return parse_poly(text, y_vars(), field, degree=degree)


def act(op, target):
    """``op`` applied to ``target``: its pairing matrix times the operator's coefficients."""
    coeffs = mul_vec(pairing_matrix(target, op.degree), op.coeffs)
    return HomogPoly(target.alphabet, target.degree - op.degree, target.field, coeffs)


def test_single_action_worked_example():
    # y0*y1 applied to d0^2*d1*d2 leaves 2*d0*d2
    got = act(ypoly("y0*y1"), dpoly("d0^2*d1*d2"))
    assert got == dpoly("2*d0*d2")


def test_falling_factorial_scale():
    # y0^2 on d0^3 is 3*2 = 6 copies of d0
    assert act(ypoly("y0^2"), dpoly("d0^3")) == dpoly("6*d0")
    # mismatched exponents annihilate
    assert act(ypoly("y1^2"), dpoly("d0^2*d1")).is_zero()


def test_differentiate_matches_sympy():
    rng = SplitMix64(3)
    syms = SYMS

    def expr_of(poly):
        total = sympy.Integer(0)
        for c, e in poly.terms():
            mono = sympy.Integer(1)
            for s, k in zip(syms, e):
                mono *= s**k
            total += sympy.Rational(c) * mono
        return total

    for _ in range(4):
        target = random_form(d_vars(), 4, QQ, rng)
        op = random_form(y_vars(), 2, QQ, rng)
        got = act(op, target)
        want = sympy.Integer(0)
        for c, e in op.terms():
            term = expr_of(target)
            for s, k in zip(syms, e):
                term = sympy.diff(term, s, k)
            want += sympy.Rational(c) * term
        assert sympy.expand(expr_of(got) - want) == 0


def test_mirror_is_degree_preserving_involution():
    rng = SplitMix64(9)
    poly = random_form(y_vars(), 3, GF(101), rng)
    m = mirror(poly)
    assert m.alphabet == d_vars() and m.coeffs == poly.coeffs
    assert mirror(m) == poly


def test_apolar_pairing_diagonal():
    # <y^a, d^a> is the product of the factorials of the exponents
    assert act(ypoly("y0*y1*y2"), dpoly("d0*d1*d2")).coeffs == (1,)
    assert act(ypoly("y0^3"), dpoly("d0^3")).coeffs == (6,)
    assert act(ypoly("y0^2*y1"), dpoly("d0*d1^2")).coeffs == (0,)


def test_perp_slice_of_monomial_power():
    for field in (QQ, GF(101)):
        # operators of degree 2 killing d0^4: everything except y0^2
        f = dpoly("d0^4", field)
        perp = perp_slice(f, 2)
        assert perp.alphabet == y_vars() and perp.degree == 2
        assert perp.dim == dim_homog(3, 2) - 1
        assert contains(perp, ypoly("y1^2", field))
        assert not contains(perp, ypoly("y0^2", field))
        # beyond the degree of the form everything annihilates: the pairing
        # matrix has no rows, and its kernel is the full slice
        above = perp_slice(f, 5)
        assert (above.alphabet, above.degree, above.field) == (y_vars(), 5, field)
        assert above.basis == unit_vectors(field, dim_homog(3, 5))


def test_perp_slice_rejects_a_negative_degree():
    # it used to return a dimension-0 slice in degree -1
    with pytest.raises(UsageError, match="negative operator degree"):
        perp_slice(dpoly("d0^4"), -1)


def test_partials_slice_dims():
    f = dpoly("d0^4")
    assert partials_slice(f, 1).dim == 1
    rng = SplitMix64(14)
    g = random_nondegenerate_dual_form(4, QQ, rng)
    assert partials_slice(g, 1).dim == 3
    assert partials_slice(g, 2).dim == 6


def test_pairing_matrix_and_rank():
    rng = SplitMix64(15)
    g = random_nondegenerate_dual_form(4, GF(32003), rng)
    m = pairing_matrix(g, 2)
    assert (m.nrows, m.ncols) == (6, 6)
    assert apolar_rank(g, 2) == 6
    assert apolar_rank(dpoly("d0^4"), 2) == 1


def test_hilbert_function_values():
    assert hilbert_function(dpoly("d0^4")) == (1, 1, 1, 1, 1)
    rng = SplitMix64(16)
    g = random_nondegenerate_dual_form(4, GF(32003), rng)
    assert hilbert_function(g) == (1, 3, 6, 3, 1)
    g6 = random_nondegenerate_dual_form(6, GF(32003), rng)
    assert hilbert_function(g6) == (1, 3, 6, 10, 6, 3, 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=15, max_size=15))
def test_hilbert_function_is_symmetric(coeffs):
    f = HomogPoly(d_vars(), 4, QQ, [Fraction(c) for c in coeffs])
    if f.is_zero():
        return
    # hilbert_function mirrors its lower half over QQ, so its symmetry is
    # checked on the rank of every catalecticant, each computed on its own
    h = hilbert_function(f)
    ranks = tuple(apolar_rank(f, d) for d in range(5))
    assert h == ranks == tuple(reversed(ranks))
    assert all(v <= dim_homog(3, t) for t, v in enumerate(h))


HILBERT_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(32003), QQ]


def sparse_form(k, field, rng):
    """A degree-k form with 1 to 4 random terms (possibly the zero form)."""
    coeffs = [field.zero] * dim_homog(3, k)
    for _ in range(rng.randint(1, 4)):
        coeffs[rng.below(len(coeffs))] = random_scalar(field, rng)
    return HomogPoly(d_vars(), k, field, coeffs)


@pytest.mark.parametrize("field", HILBERT_FIELDS, ids=repr)
def test_hilbert_function_matches_every_catalecticant_rank(field):
    rng = SplitMix64(60)
    checked = 0
    for k in range(9):
        forms = [sparse_form(k, field, rng) for _ in range(4)]
        forms += [random_form(d_vars(), k, field, rng) for _ in range(2)]
        for f in forms:
            if f.is_zero():
                continue
            assert hilbert_function(f) == tuple(apolar_rank(f, d) for d in range(k + 1))
            checked += 1
    assert checked >= 40


def test_hilbert_function_pinned_values():
    # y0 kills d0^3 mod 3, so h is not symmetric: mirroring would give (1, 0, 0, 1)
    assert hilbert_function(dpoly("d0^3", GF(3))) == (1, 0, 0, 0)
    assert hilbert_function(dpoly("d0^2*d1^2*d2", GF(2))) == (1, 1, 0, 0, 0, 0)
    # no degree up to the middle is injective, so the walk down reaches degree 0
    assert hilbert_function(dpoly("d0^4 + d1^4", GF(101))) == (1, 2, 2, 2, 1)


def count_ranks(monkeypatch):
    """The operator degrees of every ``apolar_rank`` call from now on."""
    degrees, real = [], apolarity.apolar_rank

    def spy(target, op_degree):
        degrees.append(op_degree)
        return real(target, op_degree)

    monkeypatch.setattr(apolarity, "apolar_rank", spy)
    return degrees


def test_hilbert_function_ranks_one_catalecticant_when_nondegenerate(monkeypatch):
    # the degree-12 dual form of an n = 15 pencil: the middle is injective
    # and the characteristic exceeds 12, so no other degree is ranked
    g = random_nondegenerate_dual_form(12, GF(32003), SplitMix64(22))
    degrees = count_ranks(monkeypatch)
    assert hilbert_function(g) == (1, 3, 6, 10, 15, 21, 28, 21, 15, 10, 6, 3, 1)
    assert degrees == [6]


def test_hilbert_function_walks_down_while_not_injective(monkeypatch):
    degrees = count_ranks(monkeypatch)
    hilbert_function(dpoly("d0^4 + d1^4", GF(101)))
    assert degrees == [2, 1, 0]


@pytest.mark.parametrize("field, k", [(GF(5), 5), (GF(3), 4), (GF(7), 8)], ids=repr)
def test_hilbert_function_ranks_the_upper_half_in_small_characteristic(monkeypatch, field, k):
    f = random_form(d_vars(), k, field, SplitMix64(23))
    want = tuple(apolar_rank(f, d) for d in range(k + 1))
    degrees = count_ranks(monkeypatch)
    assert hilbert_function(f) == want
    assert [d for d in degrees if d > k // 2] == list(range(k // 2 + 1, k + 1))


def test_catalecticant_rank():
    rng = SplitMix64(17)
    g = random_nondegenerate_dual_form(4, QQ, rng)
    assert catalecticant_rank(g) == 6
    assert is_nondegenerate(g)
    assert catalecticant_rank(dpoly("d0^4")) == 1
    assert not is_nondegenerate(dpoly("d0^4"))
    with pytest.raises(OddDegree):
        catalecticant_rank(dpoly("d0^3"))


def test_is_nondegenerate_refuses_an_odd_degree():
    with pytest.raises(OddDegree):
        is_nondegenerate(dpoly("d0^3 + d1^3 + d2^3"))


def test_dual_socle_generator_complete_intersection():
    # annihilator of (y0^2, y1^2, y2^2) in degree 3 is spanned by d0*d1*d2
    gens = [ypoly("y0^2"), ypoly("y1^2"), ypoly("y2^2")]
    f = dual_socle_generator(gens, 3)
    assert f == dpoly("d0*d1*d2")
    # generators of degree 4 annihilate every cubic: their blocks are empty
    assert dual_socle_generator(gens + [ypoly("y0^4"), ypoly("y1^3*y2")], 3) == f


def test_dual_socle_generator_degree_zero():
    gens = [ypoly("y0"), ypoly("y1"), ypoly("y2")]
    f = dual_socle_generator(gens, 0)
    assert f.degree == 0 and f.coeffs == (Fraction(1),)


def test_dual_socle_generator_rejects_fat_annihilator():
    # a single quadric kills a 5-dimensional space of quadratic operators
    with pytest.raises(NotGorensteinSocle, match="in degree 2 has dimension 5, expected 1"):
        dual_socle_generator([ypoly("y0^2")], 2)


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["GF101", "QQ"])
def test_socle_solve_past_a_fat_prefix_keeps_its_dimension(field):
    # two linear blocks fill the 6 - 1 rows a line needs; y0 twice leaves the
    # three quadrics in d1, d2, so the later blocks decide the dimension
    y0, y1 = ypoly("y0", field), ypoly("y1", field)
    with pytest.raises(NotGorensteinSocle, match="in degree 2 has dimension 3, expected 1"):
        dual_socle_generator([y0, y0, y0], 2)
    got = dual_socle_generator([y0, y0, y1, y1], 2)
    assert got == dpoly("d2^2", field)


@pytest.mark.parametrize("count", [3, 13])
def test_qq_socle_failure_states_the_exact_dimension(count):
    # independent degree-4 operators cut the 15 quartics down by one each
    target = random_form(d_vars(), 4, QQ, SplitMix64(1))
    gens = perp_slice(target, 4).basis_polys()[:count]
    want = f"joint annihilator in degree 4 has dimension {15 - count}, expected 1"
    with pytest.raises(NotGorensteinSocle, match=want):
        dual_socle_generator(gens, 4)


def test_perp_of_socle_recovers_generators():
    # closing the loop: gens -> socle -> annihilator contains the gens
    gens = [ypoly("y0^2"), ypoly("y1^2"), ypoly("y2^2")]
    f = dual_socle_generator(gens, 3)
    perp = perp_slice(f, 2)
    for g in gens:
        assert contains(perp, g)


# -- per-monomial oracle ---------------------------------------------------------

# QQ and a large prime, then primes where some scales b!/g! vanish mod p
ORACLE_CASES = [(QQ, 4), (GF(32003), 6), (GF(5), 6), (GF(3), 4)]
ORACLE_IDS = ["QQ-deg4", "F32003-deg6", "F5-deg6", "F3-deg4"]


@lru_cache(maxsize=None)
def power_derivative(a, b):
    """The integer c with (d/dt)^a t^b = c * t^(b - a), by sympy.diff."""
    t = SYMS[0]
    return int(sympy.diff(t**b, t, a).as_coeff_Mul()[0])


def monomial_action(a, b):
    """The integer c with y^a (d^b) = c * d^(b - a).

    The variables act independently, so c is a product of one-variable
    derivatives.
    """
    return math.prod(power_derivative(x, y) for x, y in zip(a, b))


def oracle_matrix(field, blocks, k):
    """Stacked blocks whose rows are the d^g coefficients of y^a (d^b), |b| = k.

    ``blocks`` holds (coefficients, operator degree, carrier).  With
    carrier "b" the coefficients are a form's and the block is its
    pairing matrix, one column per operator monomial a.  With carrier "a"
    they are an operator's and the block is its rows of the joint
    annihilator system, one column per form monomial b.
    """
    rows = []
    for coeffs, e, carrier in blocks:
        g_idx = mono_index(3, k - e)
        ops = monomials(3, e)
        forms = monomials(3, k)
        ncols = len(ops) if carrier == "b" else len(forms)
        block = [[field.zero] * ncols for _ in g_idx]
        for j, a in enumerate(ops):
            for l, b in enumerate(forms):
                c = monomial_action(a, b)
                if c == 0:
                    continue
                i = g_idx[tuple(x - y for x, y in zip(b, a))]
                col, coeff = (j, coeffs[l]) if carrier == "b" else (l, coeffs[j])
                block[i][col] = field.from_int(block[i][col] + coeff * field.from_int(c))
        rows.extend(block)
    ncols = dim_homog(3, blocks[0][1]) if blocks[0][2] == "b" else dim_homog(3, k)
    return Matrix(field, rows, ncols)


@pytest.mark.parametrize("field, k", ORACLE_CASES, ids=ORACLE_IDS)
def test_action_matrices_match_monomial_oracle(field, k):
    rng = SplitMix64(40 + k)
    target = random_form(d_vars(), k, field, rng)
    for d in range(k + 2):
        want = oracle_matrix(field, [(target.coeffs, d, "b")], k)
        assert pairing_matrix(target, d) == want
        if d <= k:
            assert partials_slice(target, d).basis == row_space_canonical(want.transpose())
        else:
            with pytest.raises(DegreeMismatch):
                partials_slice(target, d)


@pytest.mark.parametrize("field, k", ORACLE_CASES, ids=ORACLE_IDS)
def test_dual_socle_generator_matches_monomial_oracle(field, k):
    rng = SplitMix64(50 + k)
    target = random_form(d_vars(), k, field, rng)
    annihilator = perp_slice(target, k - 1).basis_polys() + perp_slice(target, k).basis_polys()
    quadrics = [random_form(y_vars(), 2, field, rng) for _ in range(3)]
    lines = 0
    for gens in (annihilator, quadrics, quadrics[:1] + annihilator):
        blocks = [(g.coeffs, g.degree, "a") for g in gens]
        ker = kernel_basis(oracle_matrix(field, blocks, k))
        if len(ker) == 1:
            lines += 1
            want = HomogPoly(d_vars(), k, field, ker[0]).leading_normalized()
            assert dual_socle_generator(gens, k) == want
        else:
            with pytest.raises(NotGorensteinSocle):
                dual_socle_generator(gens, k)
    if field.char_exceeds(k):
        # the annihilator in degrees k - 1 and k cuts out the target's line
        assert dual_socle_generator(annihilator, k) == target.leading_normalized()
        assert lines >= 1
    else:
        # mod p, y^a (d_i^p F) = d_i^p y^a(F).  Every generator here has
        # degree above k - p, so it kills each F of degree k - p, and with
        # it d0^p F, d1^p F and d2^p F: the annihilator is never a line
        assert lines == 0
