"""Twisted-form cohomology: closed formulas, Koszul chases, dimension ledger."""

import copy
import dataclasses
import json
import math

import pytest

from skewlab import cohomology
from skewlab import (
    AffineForm,
    ChaseContext,
    InternalError,
    RangeError,
    agreement,
    bott,
    closed_form_tables,
    codim_rho,
    dim_gr,
    dim_h,
    dimension_ledger,
    euler_chi_o,
    euler_chi_omega,
    g_r_vector,
    grid_rows,
    h0F,
    koszul_chase,
    koszul_term_cohomology,
    kunneth,
    sheaf_chase,
    slot3,
)

from skewlab.fields import MAX_LEDGER_ORDER

from conftest import chi_of

GRID = [(m, n) for n in range(5, 14) for m in range(3, n - 1)]


# -- closed cohomology of twisted forms ------------------------------------------


def test_bott_textbook_values():
    # standard plane values: h^0(Omega^1(2)) = 3, h^1(Omega^1) = 1,
    # h^0(Omega^2(3)) = h^0(O) = 1, and Serre duality h^2(O(-4)) = h^0(O(1))
    assert bott(2, 1, 2) == (3, 0, 0)
    assert bott(2, 1, 0) == (0, 1, 0)
    assert bott(2, 2, 3) == (1, 0, 0)
    assert bott(2, 0, -4) == (0, 0, 3)
    # Omega^2(3) on the 3-space is T(-1); the Euler sequence gives h^0 = 4
    assert bott(3, 2, 3) == (4, 0, 0, 0)
    # k = p (nonzero) falls in the dead zone between the three regimes
    assert bott(2, 1, 1) == (0, 0, 0)


def test_bott_has_at_most_one_nonzero_entry():
    for big_n in range(1, 8):
        for p in range(big_n + 1):
            for k in range(-10, 11):
                vec = bott(big_n, p, k)
                assert len(vec) == big_n + 1
                assert sum(1 for v in vec if v) <= 1
                assert all(v >= 0 for v in vec)


def test_bott_guards():
    with pytest.raises(RangeError):
        bott(2, 3, 1)
    with pytest.raises(RangeError):
        bott(2, -1, 1)


def test_euler_characteristics():
    assert euler_chi_o(2, 3) == 10
    assert euler_chi_o(2, -1) == 0
    assert euler_chi_o(3, 2) == 10
    # recursion consistency between the two Euler routes
    assert euler_chi_omega(2, 0, 3) == euler_chi_o(2, 3)


def test_bott_matches_euler_recursion_small():
    for big_n in range(1, 7):
        for p in range(big_n + 1):
            for k in range(-8, 9):
                assert chi_of(bott(big_n, p, k)) == euler_chi_omega(big_n, p, k)


def test_kunneth_is_convolution():
    a = (2, 1, 0)
    b = (0, 3, 4)
    got = kunneth(a, b)
    want = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            want[i + j] += av * bv
    assert got == tuple(want)


# -- the twisted syzygy bundle -----------------------------------------------------


def test_g_r_vector_boundary_cases():
    for n in (5, 6, 7, 8):
        assert g_r_vector(n, 0) == bott(n - 1, 1, 2)
        one = [0] * n
        one[0] = 1
        assert g_r_vector(n, 1) == tuple(one)
        assert g_r_vector(n, n - 1) == bott(n - 1, 1, 4 - n)


def test_g_r_vector_euler_identity():
    # 0 -> G_r -> n E(1) -> E(2) -> 0 with E = Omega^{n-r-1}(n-2r)
    for n in range(5, 13):
        for r in range(n):
            chi_g = chi_of(g_r_vector(n, r))
            e1 = chi_of(bott(n - 1, n - r - 1, n - 2 * r + 1))
            e2 = chi_of(bott(n - 1, n - r - 1, n - 2 * r + 2))
            assert chi_g == n * e1 - e2


def test_g_r_vector_bott_supports_never_meet():
    # why g_r_vector needs no chase for 2 <= r <= n - 2: E(1) and E(2) are
    # never nonzero in one degree, so every map H^i(E(1)^n) -> H^i(E(2)) is zero
    pairs = 0
    for n in range(4, 201):
        for r in range(2, n - 1):
            p = n - r - 1
            e1 = bott(n - 1, p, n - 2 * r + 1)
            e2 = bott(n - 1, p, n - 2 * r + 2)
            assert not any(a and b for a, b in zip(e1, e2)), (n, r)
            pairs += 1
    assert pairs == 19_503


def test_koszul_term_worked_examples():
    # single surviving Kunneth products, middle of the complex
    vec = koszul_term_cohomology(3, 6, 3, "plain")
    assert vec == (0, 0, 0, 0, 1, 0, 0, 0)
    vec = koszul_term_cohomology(3, 7, 4, "omega2-u1")
    assert len(vec) == 3 + 7 - 1
    assert vec == (0, 0, 0, 0, 7, 0, 0, 0, 0)


def test_koszul_term_guards():
    with pytest.raises(RangeError):
        koszul_term_cohomology(2, 6, 1, "plain")
    with pytest.raises(RangeError):
        koszul_term_cohomology(3, 6, 6, "plain")
    with pytest.raises(RangeError):
        koszul_term_cohomology(3, 6, 1, "omega3")


# -- affine interval chase ----------------------------------------------------------


def test_affine_form_algebra():
    x = AffineForm.var("x")
    y = AffineForm.var("y")
    f = 2 + x - y + 3
    assert f.const == 5 and f.coeffs == {"x": 1, "y": -1}
    assert x + y == y + x
    assert str(x - y + 1) in ("1 + x - y", "1 - y + x")


def test_affine_form_mixes_with_ints():
    x = AffineForm.var("x")
    y = AffineForm.var("y")
    g = 3 - x
    assert isinstance(g, AffineForm) and g.const == 3 and g.coeffs == {"x": -1}
    assert str(g) == "3 - x"
    assert x + 0 == x and 0 + x == x and x - 0 == x
    # once every variable cancels the result is a plain int
    assert type(x - x) is int and x - x == 0
    assert type(x + y + 4 - y - x) is int and x + y + 4 - y - x == 4
    # a form with a variable never equals a constant
    assert x != 0 and 0 != x and x + 2 != 2
    assert str(7 + x) == str(x + 7) == "7 + x"


def test_chase_context_on_int_bounds():
    ctx = ChaseContext()
    # a forced rank is returned as the int itself, and no variable is made:
    # B = 0 forces s = A, and A = 0 forces s = 0
    got = ctx.new_rank_var(2, 0)
    assert type(got) is int and got == 2
    got = ctx.new_rank_var(0, 3)
    assert type(got) is int and got == 0
    assert ctx.interval(5) == (5, 5)
    # an open box is (max(0, A - B), A)
    fresh = ctx.new_rank_var(4, 3)
    assert str(fresh) == "v0" and ctx.interval(fresh) == (1, 4)
    assert ctx.interval(3 - fresh) == (-1, 2)
    clipped = ctx.new_rank_var(2, 5)
    assert str(clipped) == "v1" and ctx.interval(clipped) == (0, 2)


def test_grid_chase_builds_forms_only_for_rank_variables(monkeypatch):
    import skewlab.cohomology as cohomology_module

    built = []
    init = AffineForm.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    entries = []
    inner = cohomology_module.slot3

    def spy(a_forms, b_ints, ctx):
        out = inner(a_forms, b_ints, ctx)
        entries.extend(out)
        return out

    monkeypatch.setattr(AffineForm, "__init__", counting_init)
    monkeypatch.setattr(cohomology_module, "slot3", spy)
    grid_rows()
    # one form per chase entry would be 173,982 forms for this grid
    assert len(built) < 1000
    assert len(entries) > 20000
    for f in entries:
        assert type(f) is int or (type(f) is AffineForm and f.coeffs), f


def test_chase_context_substitutes_forced_variables():
    ctx = ChaseContext()
    x = ctx.new_rank_var(3, 1)
    assert str(x) == "v0" and ctx.interval(x) == (2, 3)
    # B = 0 returns the form A itself: no new variable
    got = ctx.new_rank_var(x + 1, 0)
    assert got == x + 1 and type(got) is AffineForm
    # an open box over forms reads the boxes of the earlier variables:
    # x + 1 lies in [3, 4] and x + 1 - 2 in [1, 2]
    fresh = ctx.new_rank_var(x + 1, 2)
    assert str(fresh) == "v1" and ctx.interval(fresh) == (1, 4)
    # 5 - x lies in [2, 3], and 5 - x - 4 in [-2, -1] is clipped to 0
    fresh = ctx.new_rank_var(5 - x, 4)
    assert str(fresh) == "v2" and ctx.interval(fresh) == (0, 3)
    assert ctx.interval(fresh - x) == (-3, 1)


def test_chase_context_detects_infeasible():
    ctx = ChaseContext()
    # a negative A leaves no room for a rank: max(0, A - B) > A
    with pytest.raises(InternalError, match="infeasible chase bounds for v0"):
        ctx.new_rank_var(-1, 1)


def test_slot3_exact_sequence_arithmetic():
    # 0 -> A -> B -> C -> 0 with A = (1,0), B = (3,2,0): forced C = (2,2,0)
    ctx = ChaseContext()
    c_forms = slot3([1, 0, 0], (3, 2, 0), ctx)
    assert [ctx.interval(f) for f in c_forms] == [(2, 2), (2, 2), (0, 0)]
    # forced entries of int inputs come back as ints
    assert c_forms == [2, 2, 0] and all(type(f) is int for f in c_forms)


def test_slot3_refuses_mismatched_lengths():
    with pytest.raises(InternalError, match="mismatched vector lengths in chase"):
        slot3([1, 0], (3, 2, 0), ChaseContext())


def test_koszul_chase_trivial_complex():
    # resolution 0 -> T1 -> T0 -> F -> 0 with exact middle cohomology
    res = koszul_chase([(5, 0, 0), (2, 0, 0)], name="toy")
    assert res.exact and res.vector == (3, 0, 0)


def test_koszul_chase_one_term_complex():
    # 0 -> T0 -> F -> 0: F is T0, and the trace has no kernel line
    res = koszul_chase([(4, 0, 1)], name="one")
    assert res.intervals == ((4, 4), (0, 0), (1, 1)) and res.vector == (4, 0, 1)
    assert res.trace == ["F = [4, 0, 1]"]
    # the trace names each kernel from K_{L-1} = T_L down to K_0
    res = koszul_chase([(5, 0, 0), (2, 0, 0)], name="toy")
    assert res.trace == ["K0 = [2, 0, 0]", "F = [3, 0, 0]"]
    with pytest.raises(RangeError, match="empty complex"):
        koszul_chase([], name="none")


# -- chases against closed forms -----------------------------------------------------


def test_sheaf_chase_matches_closed_tables_spot():
    for m, n in ((3, 6), (3, 8), (4, 7), (5, 9)):
        tables = closed_form_tables(m, n)
        for twist, key in (("plain", "structure"), ("u1", "twist"), ("omega2-u1", "omega")):
            res = sheaf_chase(m, n, twist)
            assert res.exact, (m, n, twist)
            got = res.vector
            if twist == "u1":
                got = tuple(m * v for v in got)
            want = tables[key] + (0,) * (len(got) - len(tables[key]))
            assert got == want, (m, n, twist)


def test_agreement_zero_width_on_small_grid():
    for m, n in ((3, 5), (3, 7), (4, 6), (6, 9)):
        rep = agreement(m, n)
        assert set(rep) == {"structure", "twist", "omega"}
        for block in rep.values():
            assert block["match"] and block["exact"] and block["max_width"] == 0


def test_closed_omega_h0_frozen_values():
    want = {5: 29, 6: 45, 7: 69, 8: 86, 9: 134, 10: 140}
    for n, h0 in want.items():
        assert closed_form_tables(3, n)["omega"][0] == h0


def test_closed_omega_h0_at_m3_is_its_cubic():
    # an identity in n, so closed_form_tables does not recheck it per call;
    # checked up to 2,000 and at the ledger cap
    for n in [*range(5, 2001), MAX_LEDGER_ORDER]:
        cubic = n * (13 * n - 18) // 8 if n % 2 == 0 else (n - 1) * (n * n + 5 * n + 8) // 8
        assert closed_form_tables(3, n)["omega"][0] == cubic, n


def test_closed_structure_and_twist_spots():
    assert closed_form_tables(3, 6)["structure"][1] == 1
    assert closed_form_tables(3, 8)["twist"][1] == 3
    odd_struct = closed_form_tables(3, 7)["structure"]
    assert odd_struct[0] == 1 and not any(odd_struct[1:])
    assert closed_form_tables(4, 8)["twist"][0] == 16


def test_closed_tables_guards():
    with pytest.raises(RangeError):
        closed_form_tables(2, 5)
    with pytest.raises(RangeError):
        closed_form_tables(4, 5)


# -- the dimension ledger -------------------------------------------------------------


def test_h0f_frozen_values():
    want = {(3, 5): 21, (3, 6): 36, (3, 7): 61, (3, 8): 78, (3, 9): 126, (4, 6): 44, (4, 7): 68}
    for (m, n), value in want.items():
        res = h0F(m, n)
        assert res.exact and res.interval == (value, value) and not res.flagged


def test_h0f_and_ledger_guards():
    for fn in (h0F, dimension_ledger):
        with pytest.raises(RangeError):
            fn(2, 5)


def test_h0f_flagged_family():
    raws = {8: (96, 97), 10: (164, 168), 12: (248, 258)}
    for n, raw in raws.items():
        res = h0F(4, n)
        assert res.flagged and res.raw_interval == raw
        assert res.interval == (dim_gr(4, n), dim_gr(4, n) + 1)
        assert res.note is not None and "resolved externally" in res.note
        assert res.raw_interval[0] <= res.interval[0] <= res.interval[1] <= res.raw_interval[1]


def test_h0f_refuses_a_contracted_interval_outside_the_chase(monkeypatch):
    # the one hand-set value must lie inside what the chase proves: at
    # (4, 8) the chase gives (96, 97), and a dimension one too high escapes it
    monkeypatch.setattr(cohomology, "dim_gr", lambda m, n: 97)
    with pytest.raises(InternalError, match=r"interval \(97, 98\) escapes the chase \(96, 97\)"):
        h0F(4, 8)


def test_dimension_formulas():
    assert dim_gr(3, 5) == 21 and dim_gr(4, 8) == 96 and dim_gr(4, 10) == 164
    assert codim_rho(3, 5) == 0 and codim_rho(3, 7) == 7 and codim_rho(3, 8) == 3
    assert codim_rho(3, 9) == 27 and codim_rho(3, 10) == 9 and codim_rho(4, 9) == 0
    assert dim_h(3, 5) == 21 and dim_h(3, 7) == 61 and dim_h(3, 9) == 126
    assert dim_h(3, 6) is None and dim_h(4, 7) is None


def test_dimension_ledger_identity_odd_n():
    for n in (5, 7, 9, 11):
        led = dimension_ledger(3, n)
        assert led.identity_ok
        assert led.dim_gr + led.delta[0] == n * (n + 3) * (n + 1) // 8 - 9
        assert led.delta_matches_codim


def test_dimension_ledger_flagged_row():
    led = dimension_ledger(4, 10)
    assert led.flagged and led.delta == (0, 1)
    assert led.delta_matches_codim and led.codim_rho == 0
    assert led.identity_ok is None


def test_ledger_to_json_copies_nothing(monkeypatch):
    led = dimension_ledger(9997, 10000)
    want = {
        **dataclasses.asdict(led),
        "h0f": {**dataclasses.asdict(led.h0f), "exact": led.h0f.exact},
    }
    copies = []
    deepcopy = copy.deepcopy

    def counting_deepcopy(*args, **kwargs):
        copies.append(1)
        return deepcopy(*args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
    got = led.to_json()
    assert not copies
    # the same dict, key order included, as the asdict-based serialization
    assert got == want and json.dumps(got) == json.dumps(want)


def test_grid_rows_all_match():
    rows = grid_rows()
    assert len(rows) == len(GRID) == 45
    for row in rows:
        assert row["structure_match"] and row["twist_match"] and row["omega_match"]
        assert row["max_width"] == 0
        assert row["delta_matches_codim"]
        flagged = row["m"] == 4 and row["n"] % 2 == 0 and row["n"] >= 8
        assert row["flagged"] == flagged
        if not flagged:
            assert row["delta_lo"] == row["delta_hi"]
