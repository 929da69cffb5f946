"""Field arithmetic and exact dense linear algebra, cross-checked with sympy."""

import ast
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import tokenize
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import skewlab
from skewlab import (
    GF,
    QQ,
    FormatError,
    InternalError,
    Matrix,
    RangeError,
    SplitMix64,
    UsageError,
    is_prime,
    kernel_basis,
    rank,
    row_space_canonical,
)
from skewlab import apolarity, cli, cohomology, correspond, degeneracy, fields, linalg, rings, skew
from skewlab.fields import Field
from skewlab.randomness import random_nondegenerate_dual_form

from conftest import det, mul_vec, random_invertible, rref_oracle


def random_matrix(field, nrows, ncols, rng):
    if field.is_rational:
        entries = lambda: Fraction(rng.randint(-9, 9))
    else:
        entries = lambda: rng.below(field.p)
    return Matrix(field, [[entries() for _ in range(ncols)] for _ in range(nrows)], ncols)


def to_sympy(mat):
    return sympy.Matrix(mat.nrows, mat.ncols, lambda i, j: sympy.Rational(mat.rows[i][j]))


def reduced_rows(echelon, field, ncols):
    """Pivots and nonzero rows of the reduced echelon form R, from ``_echelon``'s pivots and free columns.

    R has a unit at each row's own pivot and zeros at the other pivots;
    its free columns are the given ones, in order, one entry per row.
    """
    pivots, free, cols = echelon
    assert free == [c for c in range(ncols) if c not in pivots]
    assert len(cols) == len(free) and all(len(col) == len(pivots) for col in cols)
    rows = [[field.one if c == pc else field.zero for c in range(ncols)] for pc in pivots]
    for c, col in zip(free, cols):
        for row, a in zip(rows, col):
            row[c] = a
    return pivots, rows


# -- fields ----------------------------------------------------------------


def test_is_prime_spot_values():
    assert is_prime(2) and is_prime(3) and is_prime(101) and is_prime(32003)
    assert not is_prime(0) and not is_prime(1) and not is_prime(9)
    # Carmichael number: a Fermat-style pseudoprime must still be rejected
    assert not is_prime(561)


def test_gf_rejects_composite():
    with pytest.raises(UsageError):
        GF(15)


def test_moduli_beyond_the_deterministic_range_are_rejected():
    # the least strong pseudoprime to the twelve Miller-Rabin bases
    pseudoprime = 3317044064679887385961981
    assert is_prime(pseudoprime - 2) is False
    with pytest.raises(RangeError):
        is_prime(pseudoprime)
    with pytest.raises(RangeError):
        GF(pseudoprime)
    assert is_prime(2**61 - 1)


def test_gf_arithmetic():
    f = GF(7)
    assert f.from_int(5 + 4) == 2
    assert f.from_int(5 * 4) == 6
    assert f.from_int(2 - 5) == 4
    assert f.from_int(-1) == 6
    for a in range(1, 7):
        assert f.from_int(a * f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_qq_is_exact():
    assert QQ.from_int(1 * QQ.inv(3)) == Fraction(1, 3)
    assert QQ.from_int(Fraction(1, 3) + Fraction(1, 6)) == Fraction(1, 2)
    assert QQ.is_rational and QQ.p is None
    # ints are wrapped, and a Fraction comes back as it is, not copied
    assert type(QQ.from_int(3)) is Fraction and QQ.from_int(3) == 3
    half = Fraction(1, 2)
    assert QQ.from_int(half) is half


def test_char_exceeds():
    assert QQ.char_exceeds(10**9)
    assert GF(7).char_exceeds(6)
    assert not GF(7).char_exceeds(7)


def test_scalar_text_roundtrip():
    for f, values in ((QQ, [Fraction(-3, 7), Fraction(5)]), (GF(11), [0, 1, 10])):
        for v in values:
            assert f.parse_scalar(str(v)) == v


def test_scalar_text_is_an_integer_or_p_over_q():
    assert GF(5).parse_scalar("10/5") == 2 and GF(5).parse_scalar(" -2/3 ") == 1
    assert QQ.parse_scalar("+4/6") == Fraction(2, 3)
    # decimals, exponents and underscores are refused, and so is a
    # denominator that is zero in the field
    for f, text in ((QQ, "0.5"), (QQ, "1e3"), (QQ, "1_0"), (QQ, "1/0"), (GF(5), "1/5"), (GF(5), "")):
        with pytest.raises(FormatError, match="bad scalar literal"):
            f.parse_scalar(text)


def test_field_axpy_reduces():
    assert GF(7).axpy(3, [1, 6], [2, 5]) == [0, 0]
    assert QQ.axpy(Fraction(1, 2), [Fraction(1)], [Fraction(3)]) == [Fraction(5, 2)]


#: Every module of the package, ``skewlab`` itself for ``__init__.py``.
PACKAGE_MODULES = [
    importlib.import_module("skewlab" if name == "__init__.py" else f"skewlab.{name[:-3]}")
    for name in sorted(os.listdir(os.path.dirname(skewlab.__file__)))
    if name.endswith(".py")
]


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=lambda m: m.__name__)
def test_only_field_tells_the_fields_apart(module):
    # a field is decided when its class is built: no module, fields included, asks again
    source = inspect.getsource(module)
    assert "p is None" not in source and "p is not None" not in source


def test_the_fields_reduce_only_through_from_int():
    # the arithmetic verbs are gone: callers reduce plain expressions with from_int
    for cls in (Field, type(QQ), GF):
        for verb in ("add", "sub", "mul", "neg", "format_scalar"):
            assert not hasattr(cls, verb), (cls.__name__, verb)
    assert isinstance(QQ, Field) and isinstance(GF(7), Field)
    assert (QQ.zero, QQ.one, GF(7).zero, GF(7).one) == (0, 1, 0, 1)
    assert type(QQ.zero) is Fraction and type(GF(7).one) is int
    with pytest.raises(RangeError, match="field modulus must be prime, got 4"):
        Field.from_json({"kind": "fp", "p": 4})
    with pytest.raises(RangeError, match="field modulus must be prime, got 4"):
        GF(4)


#: The names ``skewlab/__init__.py`` exports that no package module calls, and why they stay.
UNCALLED_EXPORTS = {
    "x_vars": "one of the three alphabet constructors; tools/outcomes.py calls d_vars",
    "y_vars": "one of the three alphabet constructors; tools/outcomes.py calls d_vars",
    "d_vars": "tools/outcomes.py draws its forms over it",
    "euler_chi_omega": "the Euler recursion (with euler_chi_o, which only it calls) that cross-checks bott",
}


def package_references(pkg):
    """The names each module of ``pkg`` but ``__init__`` refers to outside their own definition."""
    seen = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name) and child.id not in enclosing:
                seen.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in enclosing:
                seen.add(child.attr)
            visit(child, enclosing)

    for name in os.listdir(pkg):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), frozenset())
    return seen


def test_every_export_has_a_caller_or_a_reason():
    # an exported name that only tests call is dead library surface
    pkg = os.path.dirname(skewlab.__file__)
    with open(os.path.join(pkg, "__init__.py"), encoding="utf-8") as fh:
        init = ast.parse(fh.read())
    exported = {a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    uncalled = exported - package_references(pkg)
    assert uncalled == set(UNCALLED_EXPORTS)


#: Every parameter default in the package, as ``module.function(parameter)``, and why it stays.
PARAMETER_DEFAULTS = {
    "cli.main(argv)": "None parses sys.argv, as the console script calls it",
    "cohomology.agreement(chases)": "cmd_cohomology hands in the chases it ran; the grid lets agreement run them",
    "rings.y_vars(m)": "the three base variables of every pencil in the paper",
    "rings.d_vars(m)": "the three dual variables of every form in the paper",
    "rings.parse_poly(degree)": "None reads the degree off the text; only the zero form needs it given",
}


def test_every_parameter_default_is_listed_with_a_reason():
    # a default that no caller varies is a second way to call; adding one means listing it
    pkg = os.path.dirname(skewlab.__file__)
    found = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    args = node.args
                    positional = args.posonlyargs + args.args
                    with_default = positional[len(positional) - len(args.defaults) :] + [
                        a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                    ]
                    where = getattr(node, "name", "<lambda>")
                    found |= {f"{name[:-3]}.{where}({a.arg})" for a in with_default}
    assert found == set(PARAMETER_DEFAULTS)


#: Every ``raise InternalError`` in the package, as ``module.function``, and the Tier-1 test
#: that makes it fire.
INTERNAL_ERRORS = {
    "linalg._multimodular_rref": "test_the_integer_check_rejects_a_wrong_reconstruction",
    "degeneracy.incidence_check": "test_incidence_check_detects_rank_and_minors_disagreeing",
    "degeneracy.verify_in_image": "test_verify_in_image_refuses_an_annihilator_outside_the_span",
    "degeneracy.even_scroll_sample": "test_even_scroll_sample_detects_a_kernel_line_off_the_locus",
    "cohomology.new_rank_var": "test_chase_context_detects_infeasible",
    "cohomology.slot3": "test_slot3_refuses_mismatched_lengths",
    "cohomology.h0F": "test_h0f_refuses_a_contracted_interval_outside_the_chase",
    "randomness.random_point": "test_random_point_gives_up_when_every_draw_is_zero",
}


def test_every_internal_error_is_listed_with_a_test_that_fires_it():
    # a cross-check that no test can make fail shows nothing; adding one means listing it
    pkg = os.path.dirname(skewlab.__file__)
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "InternalError":
                    found.append(where)
            visit(child, where)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), name[:-3])
    # one entry per raise site, so a second raise in a listed function fails too
    assert sorted(found) == sorted(INTERNAL_ERRORS)
    here, tests = os.path.dirname(__file__), {}
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), encoding="utf-8") as fh:
                body = ast.parse(fh.read()).body
            tests.update((f.name, f) for f in body if isinstance(f, ast.FunctionDef))
    for site, test in INTERNAL_ERRORS.items():
        assert "pytest.raises(InternalError" in ast.unparse(tests[test]), (site, test)


def test_the_package_has_no_floats():
    # exact arithmetic only: no ``float`` name and no float or complex literal
    pkg = os.path.dirname(skewlab.__file__)
    modules = sorted(name for name in os.listdir(pkg) if name.endswith(".py"))
    assert "fields.py" in modules
    for name in modules:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                where = f"{name}:{tok.start[0]}"
                assert not (tok.type == tokenize.NAME and tok.string == "float"), where
                if tok.type == tokenize.NUMBER:
                    assert isinstance(ast.literal_eval(tok.string), int), where


def test_field_json_roundtrip():
    from skewlab.fields import Field

    for f in (QQ, GF(101)):
        assert Field.from_json(f.to_json()) == f


@pytest.mark.parametrize(
    "stanza",
    [{"kind": "fp"}, {"kind": "fp", "p": "abc"}, {"kind": "fp", "p": None}],
    ids=["missing", "not-an-integer", "null"],
)
def test_field_json_rejects_bad_modulus(stanza):
    from skewlab.fields import Field

    with pytest.raises(FormatError):
        Field.from_json(stanza)


def test_matrix_requires_and_checks_its_column_count():
    with pytest.raises(UsageError, match="every row needs 3 entries"):
        Matrix(QQ, [[1, 2]], 3)
    with pytest.raises(UsageError, match="every row needs 2 entries"):
        Matrix(GF(7), [[1, 2], [3]], 2)
    with pytest.raises(TypeError):
        Matrix(QQ, [[1, 2]])
    # with no rows the count is the one given, and the transpose has that many empty rows
    empty = Matrix(GF(7), [], 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
    flipped = empty.transpose()
    assert (flipped.nrows, flipped.ncols, flipped.rows) == (3, 0, [[], [], []])
    assert flipped.transpose() == empty
    assert Matrix(QQ, [[1, 2, 3]], 3).transpose() == Matrix(QQ, [[1], [2], [3]], 1)


# -- echelon form / rank / kernel ------------------------------------------


def test_rref_matches_sympy_over_qq():
    rng = SplitMix64(2024)
    for nrows, ncols in ((3, 5), (4, 4), (5, 3), (6, 6)):
        for _ in range(4):
            a = random_matrix(QQ, nrows, ncols, rng)
            pivots, rows = reduced_rows(linalg._echelon(a.rows, QQ, a.ncols), QQ, a.ncols)
            want, want_pivots = to_sympy(a).rref()
            assert pivots == list(want_pivots)
            assert to_sympy(Matrix(QQ, rows, ncols)) == want[: len(pivots), :]
            assert want[len(pivots) :, :].is_zero_matrix


def test_rref_shape_fp():
    rng = SplitMix64(7)
    f = GF(101)
    a = random_matrix(f, 5, 7, rng)
    pivots, rows = reduced_rows(linalg._echelon(a.rows, f, a.ncols), f, a.ncols)
    assert pivots == sorted(pivots)
    assert reduced_rows(linalg._echelon(rows, f, a.ncols), f, a.ncols) == (pivots, rows)
    for i, pc in enumerate(pivots):
        assert rows[i][pc] == 1
        assert all(rows[k][pc] == 0 for k in range(len(rows)) if k != i)


def test_kernel_basis_properties():
    rng = SplitMix64(31)
    for field in (QQ, GF(32003)):
        for _ in range(6):
            a = random_matrix(field, 4, 6, rng)
            ker = kernel_basis(a)
            assert len(ker) == a.ncols - rank(a)
            for vec in ker:
                assert all(v == 0 for v in mul_vec(a, vec))
            # each kernel vector carries a unit at its own free coordinate
            _, free, _ = linalg._echelon(a.rows, field, a.ncols)
            assert len(free) == len(ker)
            for idx, vec in enumerate(ker):
                assert vec[free[idx]] == field.one
                assert all(vec[f] == field.zero for k, f in enumerate(free) if k != idx)


def test_kernel_spans_sympy_nullspace():
    rng = SplitMix64(55)
    a = random_matrix(QQ, 5, 8, rng)
    ours = kernel_basis(a)
    theirs = to_sympy(a).nullspace()
    assert len(ours) == len(theirs)
    stacked = ours + [[Fraction(v.p, v.q) for v in col] for col in theirs]
    assert rank(Matrix(QQ, stacked, a.ncols)) == len(ours)


#: Prefixes with kernel zero, the line (1, 2, 3, 1), and a plane around that line.
ZERO = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
LINE = [[1, 0, 0, -1], [0, 1, 0, -2], [0, 0, 1, -3]]
PLANE = LINE[:2]

#: (prefix rows, later rows, full kernel dimension, eliminations) for each exit of ``kernel_line``.
KERNEL_LINE_EXITS = {
    "prefix-zero": (ZERO, [[1, 1, 1, 1]], 0, 1),
    "line-kept": (LINE, [[2, 1, 0, -4], [0, 3, -1, -3]], 1, 1),
    "line-rejected": (LINE, [[2, 1, 0, -4], [0, 0, 0, 1]], 0, 1),
    "plane-to-line": (PLANE, [[0, 0, 1, -3]], 1, 2),
    "plane-stays": (PLANE, [[2, 1, 0, -4]], 2, 2),
}


@pytest.mark.parametrize("field", [GF(101), QQ], ids=["GF101", "QQ"])
@pytest.mark.parametrize("case", list(KERNEL_LINE_EXITS))
def test_kernel_line_matches_kernel_basis_on_each_exit(monkeypatch, field, case):
    head, tail, dim, eliminations = KERNEL_LINE_EXITS[case]
    mat = Matrix(field, [[field.from_int(a) for a in row] for row in head + tail], len(head[0]))
    want = kernel_basis(mat)
    calls = []
    echelon = linalg._echelon

    def spy(rows, fld, ncols):
        calls.append(len(rows))
        return echelon(rows, fld, ncols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    assert linalg.kernel_line(mat, len(head)) == want
    assert len(want) == dim
    # the prefix is eliminated first, and only a prefix kernel above a line reduces every row
    assert calls == [len(head), mat.nrows][:eliminations]


def test_kernel_line_equals_kernel_basis_at_every_prefix():
    rng = SplitMix64(15)
    for field in (GF(5), QQ):
        for _ in range(40):
            nrows, ncols = 1 + rng.below(7), 1 + rng.below(6)
            entries = [[field.from_int(rng.randint(-1, 1)) for _ in range(ncols)] for _ in range(nrows)]
            mat = Matrix(field, entries, ncols)
            want = kernel_basis(mat)
            for prefix in range(nrows + 1):
                assert linalg.kernel_line(mat, prefix) == want


# -- the determinant oracle ------------------------------------------------------


def test_det_matches_sympy():
    # ``det`` is the test oracle of conftest, the determinant factor of ``rref_oracle``
    rng = SplitMix64(4242)
    for field in (QQ, GF(13)):
        for n in (1, 2, 3, 5, 7):
            a = random_matrix(field, n, n, rng)
            # a zero leading entry makes the elimination swap rows
            swapped = Matrix(field, [[field.zero] + a.rows[0][1:]] + a.rows[1:], n)
            # a repeated row makes the matrix singular
            singular = Matrix(field, a.rows[:-1] + [a.rows[0]], n)
            for mat in (a, swapped, singular):
                want = Fraction(to_sympy(mat).det())
                if field.p is not None:
                    want = want.numerator % field.p
                assert det(mat) == want
    # two swaps cancel, one swap negates
    f = GF(13)
    assert det(Matrix(f, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 3)) == 1
    assert det(Matrix(f, [[0, 1], [1, 0]], 2)) == 12
    assert det(Matrix(QQ, [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(4)]], 2)) == -6
    assert det(Matrix(f, [[0, 0], [0, 5]], 2)) == 0


def test_det_multiplicative():
    # the oracle's determinant checks ``Matrix.mul``
    rng = SplitMix64(8)
    for field in (QQ, GF(32003)):
        a = random_matrix(field, 4, 4, rng)
        b = random_matrix(field, 4, 4, rng)
        assert det(a.mul(b)) == field.from_int(det(a) * det(b))


# -- canonical row spaces -----------------------------------------------------


def test_row_space_canonical_is_basis_independent():
    rng = SplitMix64(60)
    for field in (QQ, GF(32003)):
        a = random_matrix(field, 3, 6, rng)
        p = random_invertible(3, field, rng)
        assert row_space_canonical(a) == row_space_canonical(p.mul(a))


# -- properties ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=3, max_size=3))
def test_rank_equals_transpose_rank(rows):
    for field in (QQ, GF(13)):
        a = Matrix(field, [[field.from_int(v) for v in row] for row in rows], 4)
        assert rank(a) == rank(a.transpose())


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_transpose_invariant(rows):
    a = Matrix(QQ, [[Fraction(v) for v in row] for row in rows], 3)
    assert det(a) == det(a.transpose())
    # the package tells a zero determinant by rank, over QQ and F_p
    for field in (QQ, GF(13)):
        b = Matrix(field, [[field.from_int(v) for v in row] for row in rows], 3)
        assert (rank(b) < 3) == (det(b) == field.zero)


# -- the packed elimination kernel --------------------------------------------


KERNEL_PRIMES = (2, 3, 5, 7, 101, 32003, 2**61 - 1)


def assert_kernel_matches_oracle(field, rows):
    ncols = len(rows[0]) if rows else 0
    got_rows, want_rows = [r[:] for r in rows], [r[:] for r in rows]
    got = linalg._forward(got_rows, field)
    want, _ = rref_oracle(want_rows, field)
    assert got == want
    # the forward pass leaves the r rows of a row echelon form, reduced, with
    # unit pivots and zeros left of each pivot and below it
    assert len(got_rows) == len(got)
    for i, (row, pc) in enumerate(zip(got_rows, got)):
        assert len(row) == ncols and all(0 <= a < field.p for a in row)
        assert row[pc] == 1 and not any(row[:pc])
        assert all(below[pc] == 0 for below in got_rows[i + 1 :])
    # the back pass turns them into the oracle's reduced rows, and the oracle's other rows are zero
    echelon = (got, *linalg._back(got_rows, got, ncols, field))
    assert reduced_rows(echelon, field, ncols) == (want, want_rows[: len(want)])
    assert not any(map(any, want_rows[len(want) :]))


@st.composite
def kernel_inputs(draw):
    """A prime field and a matrix: empty, zero, rank-deficient, tall or wide."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    field, top = GF(p), p - 1
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    entry = st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top))
    rows = [[field.from_int(draw(entry)) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        # a multiple of an earlier row (zero when the factor is zero)
        if draw(st.booleans()):
            j, c = draw(st.integers(0, i - 1)), field.from_int(draw(st.integers(0, top)))
            rows[i] = [field.from_int(c * a) for a in rows[j]]
    return field, rows


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_packed_kernel_matches_the_list_oracle(case):
    field, rows = case
    assert_kernel_matches_oracle(field, rows)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_fields_never_carry(monkeypatch, p):
    # A field starts below p, and each update adds (p - fac) times an entry of
    # the reduced pivot row, less than p**2, once per pivot: so it stays below
    # p + k (p - 1)**2 for k = min(m, n), which the width must hold.  The low
    # field is bounded the same way before it is shifted off.
    field = GF(p)
    for k in (0, 1, 2, 3, 7, 8, 12, 100, 10**4):
        assert 1 << field.pack_width(k) > p + k * (p - 1) ** 2
    widths, updates = [], []
    real_width, real_drop = GF.pack_width, GF.drop_column

    def pack_width(self, k):
        widths.append(real_width(self, k))
        return widths[-1]

    def drop_column(self, rows, prow, w):
        assert w == widths[-1]
        mask = (1 << w) - 1
        out = real_drop(self, rows, prow, w)
        assert len(out) == len(rows)
        # the pivot row starts at its unit pivot, reduced; 0 means no pivot
        assert prow == 0 or prow & mask == 1
        for x, o in zip(rows, out):
            fac = (p - (x & mask) % p) % p if prow else 0
            if fac:
                updates.append(fac)
            nfields = max(x.bit_length(), prow.bit_length()) // w + 1
            for j in range(nfields):
                fx, fy = x >> j * w & mask, prow >> j * w & mask
                total = fx + fac * fy
                assert fy < p and total < 1 << w
                if j == 0:
                    assert total % p == 0  # the dropped low field
                else:
                    assert o >> (j - 1) * w & mask == total
            assert o >> (nfields - 1) * w == 0
        return out

    monkeypatch.setattr(GF, "pack_width", pack_width)
    monkeypatch.setattr(GF, "drop_column", drop_column)
    # dense matrices of p - 1, and of 1 (every first update then adds
    # (p - 1) times a pivot row entry), with the diagonal shifted by one to
    # keep the rank full at every shape (p = 2 excepted)
    for fill in (p - 1, 1):
        for nrows, ncols in ((12, 12), (6, 12), (12, 6), (1, 20), (20, 1)):
            rows = [[fill] * ncols for _ in range(nrows)]
            for i in range(min(nrows, ncols)):
                rows[i][i] = (fill - 1) % p
            pivots, _ = rref_oracle([r[:] for r in rows], field)
            assert_kernel_matches_oracle(field, rows)
            if p > 3:
                assert len(pivots) == min(nrows, ncols)
    # every row update of the kernel went through the checked drop_column
    assert updates


def hard_layouts(field, rng):
    """Matrices whose columns the shift must drop with care, by name."""
    p = field.p

    def dense(nrows, ncols):
        return [[field.from_int(rng.below(p)) for _ in range(ncols)] for _ in range(nrows)]

    def zero_columns(rows, cols):
        return [[0 if j in cols else a for j, a in enumerate(row)] for row in rows]

    layouts = {
        "zero-first": zero_columns(dense(5, 6), {0, 1}),
        "zero-middle": zero_columns(dense(5, 7), {3}),
        "zero-last": zero_columns(dense(5, 6), {4, 5}),
        "zero-spread": zero_columns(dense(8, 9), {0, 4, 8}),
        "rank-0": [[0] * 4 for _ in range(3)],
        "rank-0-row": [[0] * 5],
        "rank-0-column": [[0] for _ in range(5)],
        "row": dense(1, 7),
        "row-zero-first": zero_columns(dense(1, 7), {0, 1, 2}),
        "column": dense(6, 1),
        "column-zero-top": [[0], [0], [0], *dense(3, 1)],
        "single": dense(1, 1),
        # every row is p - 1, so clearing column 0 leaves p in the rows
        # below: column 1 has no pivot, and its low fields are nonzero
        # multiples of p when it is shifted off
        "dense-p-1": [[p - 1] * 6 for _ in range(5)],
        "dense-p-1-then-free": [[p - 1] * 3 + row for row in dense(5, 4)],
    }
    # a rank-deficient one: every row a multiple of the first
    first = dense(1, 6)[0]
    layouts["multiples"] = [[field.from_int(c * a) for a in first] for c in (1, 0, 2, p - 1, 3)]
    return layouts


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(32003), GF(2**61 - 1)], ids=repr)
def test_forward_shift_on_hard_layouts(monkeypatch, field):
    # multiples of p the shift dropped in a column without a pivot
    dropped = []
    real_drop = GF.drop_column

    def drop_column(self, rows, prow, w):
        if not prow:
            dropped.extend(x & (1 << w) - 1 for x in rows)
        return real_drop(self, rows, prow, w)

    monkeypatch.setattr(GF, "drop_column", drop_column)
    for rows in hard_layouts(field, SplitMix64(29)).values():
        # pivots from the oracle, and the oracle's reduced rows from the back pass
        assert_kernel_matches_oracle(field, rows)
    if field.p == 3:
        assert any(x and x % 3 == 0 for x in dropped)


@pytest.mark.parametrize("field", [GF(2), GF(32003), GF(2**61 - 1)], ids=repr)
def test_pack_unpack_round_trip(field):
    rng = SplitMix64(17)
    for ncols in (0, 1, 7, 40):
        row = random_matrix(field, 1, ncols, rng).rows[0] if ncols else []
        for k in (1, 7, 1000):
            w = field.pack_width(k)
            packed = field.pack(row, w)
            assert field.unpack(packed, ncols, w, 1) == row
            # each entry is the low entry once the columns left of it are shifted off
            for c in range(ncols):
                assert field.low_entry(packed, w) == row[c]
                (packed,) = field.drop_column([packed], 0, w)
            assert packed == 0


def test_an_fp_rank_runs_the_forward_pass_only(monkeypatch):
    # rank reads the pivot count off the row echelon form; no reduced form is built
    backs, real_back = [], linalg._back

    def spy(rows, pivots, ncols, field):
        backs.append(len(pivots))
        return real_back(rows, pivots, ncols, field)

    monkeypatch.setattr(linalg, "_back", spy)
    calls = record_eliminations(monkeypatch)
    field, rng = GF(32003), SplitMix64(41)
    for nrows, ncols in ((4, 7), (7, 4), (5, 5)):
        a = random_matrix(field, nrows, ncols, rng)
        assert rank(a) == len(rref_oracle([r[:] for r in a.rows], field)[0])
    target = random_nondegenerate_dual_form(6, field, rng)
    assert apolarity.is_nondegenerate(target)
    assert apolarity.hilbert_function(target) == (1, 3, 6, 10, 6, 3, 1)
    assert len(calls) > 4 and backs == []
    # the reduced form's callers do run the back pass, once per forward pass
    calls.clear()
    kernel_basis(random_matrix(field, 3, 5, rng))
    assert len(calls) == 1 and backs == [len(calls[0][1])]


def test_one_function_updates_packed_rows():
    # one forward elimination loop: it is the one place that names drop_column
    pkg = os.path.dirname(skewlab.__file__)
    users = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    for node in ast.walk(fn):
                        if getattr(node, "attr", getattr(node, "id", None)) == "drop_column":
                            users.add(f"{name[:-3]}.{getattr(fn, 'name', 'lambda')}")
    assert users == {"linalg._forward"}


# -- the multimodular QQ echelon form ---------------------------------------------


def oracle_echelon(rows):
    """Pivots and nonzero rows of the RREF from Fraction Gauss-Jordan (``rref_oracle``)."""
    rows = [list(r) for r in rows]
    pivots, _ = rref_oracle(rows, QQ)
    return pivots, rows[: len(pivots)]


def oracle_kernel(mat):
    """The QQ kernel from Fraction Gauss-Jordan (``rref_oracle``), canonical basis."""
    pivots, rows = oracle_echelon(mat.rows)
    basis = []
    for fc in (c for c in range(mat.ncols) if c not in pivots):
        v = [QQ.zero] * mat.ncols
        v[fc] = QQ.one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def record_eliminations(monkeypatch):
    """The field and pivot columns of every forward pass from here on."""
    calls = []
    real = linalg._forward

    def recorded(rows, field):
        out = real(rows, field)
        calls.append((field, out))
        return out

    monkeypatch.setattr(linalg, "_forward", recorded)
    return calls


def prime_bound(rows, ncols):
    """The primes an echelon form of the QQ ``rows`` may try, from the Hadamard bound.

    Every minor of the integer rows is at most 2**h, with h the sum over
    the min(rows, ``ncols``) largest rows of bits(max |a|) plus
    ceil(bits(ncols) / 2); (2h + 1) // 60 + 1 good primes above 2**60
    reconstruct R, and at most h // 60 such primes are bad.
    """
    half = -(-ncols.bit_length() // 2)
    ints = fields.integer_rows(rows)
    sizes = sorted(max([abs(a) for a in row] + [0]).bit_length() + half for row in ints)
    h = sum(sizes[::-1][: min(len(ints), ncols)])
    return (2 * h + 1) // 60 + 1 + h // 60


def record_prime_counts(monkeypatch, calls):
    """(bound, eliminations) of every multimodular echelon form from here on.

    ``calls`` is the list of ``record_eliminations``.
    """
    counts = []
    real = linalg._multimodular_rref

    def recorded(rows, ncols):
        before = len(calls)
        out = real(rows, ncols)
        counts.append((prime_bound(rows, ncols), len(calls) - before))
        return out

    monkeypatch.setattr(linalg, "_multimodular_rref", recorded)
    return counts


BIG = st.tuples(st.integers(1 << 100, 1 << 130), st.sampled_from([1, -1])).map(
    lambda t: t[0] * t[1]
)
RATIONAL = st.builds(Fraction, BIG | st.integers(-3, 3), st.integers(1, 1000))


def combinations(draw, basis, count, ncols):
    """``count`` rational combinations of the rows ``basis`` (zero rows when it is empty)."""
    rows = []
    for _ in range(count):
        coeffs = [draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7))) for _ in basis]
        row = [sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(ncols)]
        rows.append(row)
    return rows


@st.composite
def rational_kernel_inputs(draw):
    """A QQ matrix of entries over 100 bits with denominators, kernel dimension 0-3.

    ``rank`` random rows span the row space (a generic kernel of dimension
    ncols - rank); the other rows are rational combinations of them, and
    the rows come in a drawn order.
    """
    ncols = draw(st.integers(1, 6))
    rank = draw(st.integers(max(0, ncols - 3), ncols))
    basis = [[draw(RATIONAL) for _ in range(ncols)] for _ in range(rank)]
    rows = basis + combinations(draw, basis, draw(st.integers(0, 3)) if basis else 0, ncols)
    rows = draw(st.permutations(rows)) if rows else rows
    return Matrix(QQ, rows, ncols)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rational_kernel_inputs())
def test_qq_kernel_matches_the_fraction_oracle(mat):
    assert kernel_basis(mat) == oracle_kernel(mat)
    # the kernel of every dimension is read off the multimodular echelon form
    echelon = linalg._multimodular_rref(mat.rows, mat.ncols)
    assert reduced_rows(echelon, QQ, mat.ncols) == oracle_echelon(mat.rows)


@st.composite
def rational_matrices(draw):
    """A QQ matrix with entries as above: zero, rank-deficient, tall or wide.

    ``rank`` random rows and ``nrows - rank`` rational combinations of them,
    in a drawn order; rank 0 gives the zero matrix.
    """
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rank = draw(st.integers(0, min(nrows, ncols)))
    basis = [[draw(RATIONAL) for _ in range(ncols)] for _ in range(rank)]
    rows = draw(st.permutations(basis + combinations(draw, basis, nrows - rank, ncols)))
    return Matrix(QQ, rows, ncols)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rational_matrices())
def test_qq_echelon_forms_match_the_fraction_oracle(mat):
    pivots, rows = oracle_echelon(mat.rows)
    _, col_rows = oracle_echelon(mat.transpose().rows)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_eliminations(mp)
        counts = record_prime_counts(mp, calls)
        assert rank(mat) == len(pivots)
        assert row_space_canonical(mat.transpose()) == col_rows
        assert kernel_basis(mat) == oracle_kernel(mat)
        assert reduced_rows(linalg._echelon(mat.rows, QQ, mat.ncols), QQ, mat.ncols) == (pivots, rows)
    # the primes answer every call within the bound, and no Fraction elimination runs
    assert calls and all(field != QQ for field, _ in calls)
    assert len(counts) == 4 and all(0 < used <= bound for bound, used in counts)


def line_ending_in(last):
    """A QQ matrix whose kernel is spanned by the integer vector (1, ..., ``last``).

    The rows e_j - w_j e_0 span the integer lattice orthogonal to the
    primitive vector w, so every reduction mod a prime keeps their rank;
    the matrix rows are small combinations of them, with denominators.
    """
    rng = SplitMix64(5)
    w = [1] + [rng.randint(-(10**18), 10**18) for _ in range(4)] + [last]
    basis = [[-w[j]] + [int(i == j) for i in range(1, 6)] for j in range(1, 6)]
    return small_combinations(basis, 7, rng), w


def small_combinations(basis, count, rng):
    """``count`` small combinations of the integer rows ``basis``, over small denominators."""
    rows = []
    for _ in range(count):
        coeffs = [rng.randint(-9, 9) for _ in basis]
        den = rng.randint(1, 50)
        row = [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(len(basis[0]))]
        rows.append([Fraction(a, den) for a in row])
    return Matrix(QQ, rows, len(basis[0]))


@pytest.mark.parametrize("index", [0, 1], ids=["first-prime-restarts", "second-prime-dropped"])
def test_a_prime_dividing_the_last_coordinate_is_dropped(monkeypatch, index):
    q = fields.modular_field(index).p
    mat, w = line_ending_in(3 * q)
    calls = record_eliminations(monkeypatch)
    ker = kernel_basis(mat)
    assert ker == oracle_kernel(mat)
    assert ker == [[Fraction(a, 3 * q) for a in w]]
    # mod q the kernel vector ends a coordinate early; the other primes see
    # its true end, three of them reconstruct it, and no Fraction
    # elimination runs
    assert [f for f, _ in calls] == [fields.modular_field(i) for i in range(4)]
    assert [pivots[-1] for _, pivots in calls] == [5 if i == index else 4 for i in range(4)]


def rank_dropped_by(q):
    """A 5 x 6 QQ matrix of rank 3 whose integer rows have rank 2 mod the prime q."""
    rng = SplitMix64(6)
    basis = [[rng.randint(-999, 999) for _ in range(6)] for _ in range(3)]
    basis[2] = [q * c + a + b for a, b, c in zip(*basis)]
    return small_combinations(basis, 5, rng)


def pivots_delayed_by(q):
    """A 5 x 6 QQ matrix of rank 3 with pivots 0, 1, 2 whose first column q divides."""
    rng = SplitMix64(7)
    basis = [
        [q * rng.randint(1, 999)] + [rng.randint(-999, 999) for _ in range(5)] for _ in range(3)
    ]
    return small_combinations(basis, 5, rng)


@pytest.mark.parametrize("index", [0, 1], ids=["first-prime-restarts", "second-prime-skipped"])
@pytest.mark.parametrize(
    "build, bad",
    [(rank_dropped_by, [0, 1]), (pivots_delayed_by, [1, 2, 3])],
    ids=["rank", "pivots"],
)
def test_a_bad_prime_restarts_the_crt_or_is_skipped(monkeypatch, build, bad, index):
    q = fields.modular_field(index).p
    mat = build(q)
    pivots, rows = oracle_echelon(mat.rows)
    assert pivots == [0, 1, 2]
    calls = record_eliminations(monkeypatch)
    assert kernel_basis(mat) == oracle_kernel(mat)
    # only the prime q gives a lower rank or later pivots, and the primes
    # answer without Fractions
    assert [f for f, _ in calls] == [fields.modular_field(i) for i in range(len(calls))]
    assert [p for _, p in calls] == [bad if i == index else pivots for i in range(len(calls))]
    calls.clear()
    assert rank(mat) == 3
    assert row_space_canonical(mat) == rows
    assert all(f != QQ for f, _ in calls)


def big_rational_matrix(nrows, ncols, rng):
    entry = lambda: Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 1000))
    return Matrix(QQ, [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols)


def test_a_full_rank_qq_rank_takes_one_prime(monkeypatch):
    rng = SplitMix64(9)
    calls = record_eliminations(monkeypatch)
    for nrows, ncols in ((4, 7), (7, 4), (5, 5)):
        k = min(nrows, ncols)
        calls.clear()
        assert rank(big_rational_matrix(nrows, ncols, rng)) == k
        assert calls == [(fields.modular_field(0), list(range(k)))]
        # one short of full rank, the free column takes more primes
        short = big_rational_matrix(nrows, k - 1, rng).mul(big_rational_matrix(k - 1, ncols, rng))
        calls.clear()
        assert rank(short) == k - 1
        assert len(calls) > 1 and all(f != QQ for f, _ in calls)


def test_the_integer_check_rejects_a_wrong_reconstruction(monkeypatch):
    mat, _ = line_ending_in(7)
    real = linalg.rational_vector

    def off_by_one(residues, m):
        v = real(residues, m)
        if v is not None:
            v[0] += 1
        return v

    monkeypatch.setattr(linalg, "rational_vector", off_by_one)
    calls = record_eliminations(monkeypatch)
    with pytest.raises(InternalError):
        kernel_basis(mat)
    # every prime within the bound gives an echelon form that fails the
    # check, and nothing else runs
    primes = [fields.modular_field(i) for i in range(prime_bound(mat.rows, mat.ncols))]
    assert [f for f, _ in calls] == primes


def test_a_qq_correspondence_runs_no_fraction_elimination(monkeypatch, capsys):
    # the nine seed-1 qq-correspond cases of the benchmark, through the CLI
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    calls = record_eliminations(monkeypatch)
    argvs = [argv for _, argv in workloads.case_argvs("qq-correspond", 1)]
    assert len(argvs) == 9
    for argv in argvs:
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["ok"]
    assert calls and not [f for f, _ in calls if f == QQ]


def test_rational_reconstruction_round_trip():
    rng = SplitMix64(3)
    primes = [fields.modular_field(i).p for i in range(3)]
    m = primes[0] * primes[1] * primes[2]
    bound = math.isqrt(m // 2)
    values = [Fraction(0), Fraction(1), Fraction(-bound), Fraction(1, bound), Fraction(bound, bound - 1)]
    values += [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(20)]
    residues = [a.numerator * pow(a.denominator, -1, m) % m for a in values]
    assert fields.rational_vector(residues, m) == values
    # the CRT of the residues mod each prime gives them back
    combined, modulus = [r % primes[0] for r in residues], primes[0]
    for q in primes[1:]:
        combined = fields.crt(combined, modulus, [r % q for r in residues], q)
        modulus *= q
    assert combined == residues
    # a fraction past the bound has no reconstruction within it
    too_big = Fraction(bound + 1, bound + 2)
    assert fields.rational_vector([too_big.numerator * pow(too_big.denominator, -1, m) % m], m) is None
    assert fields.integer_rows([[Fraction(1, 6), Fraction(-3, 4), 2], []]) == [[2, -9, 24], []]


def entrywise_rational_vector(residues, m):
    """Wang's reconstruction with one half-extended Euclid per entry: the oracle."""
    bound = math.isqrt(m // 2)
    out = []
    for c in residues:
        r0, r1, s0, s1 = m, c, 0, 1
        while r1 > bound:
            t = r0 // r1
            r0, r1, s0, s1 = r1, r0 - t * r1, s1, s0 - t * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1))
    return out


def test_the_shared_denominator_reconstructs_what_the_entrywise_euclid_does():
    rng = SplitMix64(30)
    primes = [fields.modular_field(i).p for i in range(4)]
    for k in range(1, 5):
        m = math.prod(primes[:k])
        n = math.isqrt(m // 2)
        residues = lambda values: [a.numerator * pow(a.denominator, -1, m) % m for a in values]
        small = [rng.randint(2, 4 * math.isqrt(n)) for _ in range(3)]
        # every entry within the bounds: one denominator (1, N or drawn),
        # the bounds themselves, and denominators whose lcm passes N
        within = [[Fraction(rng.randint(-n, n), den) for _ in range(9)] for den in (1, n, rng.randint(1, n))]
        within += [
            [Fraction(0), Fraction(n), Fraction(-n), Fraction(1, n), Fraction(-n, n - 1), Fraction(0, n)],
            [Fraction(1, n), Fraction(-n, n - 1), Fraction(n - 2, n), Fraction(3, n - 1), Fraction(n)],
            [Fraction(rng.randint(-n, n), small[rng.below(3)]) for _ in range(12)],
            [Fraction(rng.randint(-n, n), rng.randint(1, n)) for _ in range(6)],
        ]
        # one entry past the bounds, just past N or with the lcm the
        # running denominator may not take as its denominator: it has no
        # reconstruction, or one that is another rational
        beyond = [
            [Fraction(n + 1)],
            [Fraction(-n - 1)],
            [Fraction(1, n), Fraction(n + 1, n)],
            [Fraction(7), Fraction(-n - 1)],
            [Fraction(1, n), Fraction(1, n - 1), Fraction(1, n * (n - 1))],
            [Fraction(1, small[0]), Fraction(1, n), Fraction(-1, small[0] * n)],
        ]
        for values in within:
            res = residues(values)
            assert entrywise_rational_vector(res, m) == values
            assert fields.rational_vector(res, m) == values
        for values in beyond:
            res = residues(values)
            expected = entrywise_rational_vector(res, m)
            assert expected != values
            assert fields.rational_vector(res, m) == expected
        assert [entrywise_rational_vector(residues(values), m) for values in beyond[:5]] == [None] * 5
        for _ in range(20):
            res = [rng.below(m) for _ in range(rng.below(5) + 1)]
            assert fields.rational_vector(res, m) == entrywise_rational_vector(res, m)


def test_modular_primes_are_found_on_first_use():
    code = (
        "import skewlab, skewlab.fields as f; assert not f._MODULAR_FIELDS; "
        "ps = [f.modular_field(i).p for i in range(4)]; "
        "assert ps[0] == 2**61 - 1 and ps == sorted(ps, reverse=True); print(ps)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(skewlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert all(is_prime(p) for p in ast.literal_eval(out.stdout))
