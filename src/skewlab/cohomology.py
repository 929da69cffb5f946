"""Sheaf-cohomology dimension calculus on products of projective spaces.

Everything here is exact integer combinatorics: the classical closed
formula for twisted differential forms on projective space, Kunneth
products, and a constraint propagator that peels an exact complex into
kernel short exact sequences and chases dimensions through the long
exact sequences.  The chase never guesses a connecting-map rank; where
the data does not force a value it returns an interval, and symbolic
cancellation between stages still recovers exact answers in the cases
where colliding terms cancel.  A dimension the data forces is a plain
``int``; an ``AffineForm`` appears only where a rank variable is left,
so every chase entry is an ``int | AffineForm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .errors import InternalError, RangeError

TWISTS = ("plain", "u1", "omega2-u1")


def comb0(a: int, b: int) -> int:
    """Binomial coefficient that is zero outside 0 <= b <= a."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


# -- Euler characteristics and the closed cohomology formula ------------------


@lru_cache(maxsize=None)
def euler_chi_o(big_n: int, k: int) -> int:
    """chi of O(k) on projective big_n-space, as a polynomial in k."""
    num = 1
    for i in range(1, big_n + 1):
        num *= k + i
    return num // factorial(big_n)


@lru_cache(maxsize=None)
def euler_chi_omega(big_n: int, p: int, k: int) -> int:
    """chi of the p-th twisted form sheaf via the exterior-power recursion.

    Independent of ``bott``: peeled from the twisted exterior powers of
    the tautological sequence, so the two can cross-check each other.
    """
    if p == 0:
        return euler_chi_o(big_n, k)
    return comb(big_n + 1, p) * euler_chi_o(big_n, k - p) - euler_chi_omega(
        big_n, p - 1, k
    )


def bott(big_n: int, p: int, k: int) -> tuple[int, ...]:
    """All cohomology dimensions of the twisted form sheaf Omega^p(k).

    Returns (h^0, ..., h^big_n).  At most one entry is nonzero: q=0 for
    k > p, q=p for k = 0, q=big_n for k < p - big_n.
    """
    if big_n < 0 or not 0 <= p <= big_n:
        raise RangeError(f"need 0 <= p <= N, got p={p}, N={big_n}")
    vec = [0] * (big_n + 1)
    if k > p:
        vec[0] = comb0(k + big_n - p, k) * comb0(k - 1, p)
    elif k == 0:
        vec[p] = 1
    elif k < p - big_n:
        vec[big_n] = comb0(-k + p, -k) * comb0(-k - 1, big_n - p)
    return tuple(vec)


def kunneth(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Cohomology of an external tensor product of sheaves."""
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if va == 0:
            continue
        for j, vb in enumerate(b):
            if vb:
                out[i + j] += va * vb
    return tuple(out)


# -- the middle-factor bundles of the omega twist ---------------------------------


def g_r_vector(n: int, r: int) -> tuple[int, ...]:
    """Cohomology of the r-th twisted syzygy bundle on projective (n-1)-space.

    Defined by 0 -> G_r -> E(1)^n -> E(2) -> 0 with E the form sheaf
    Omega^p(n-2r), p = n-r-1.  The ends r=0 and r=1 are closed forms (r=1
    is the endomorphism bundle of the tangent sheaf, with only h^0 = 1).
    For 2 <= r <= n-2 the chase is forced, so this is a closed form too:
    h^i(G_r) = n h^i(E(1)) + h^{i-1}(E(2)), with h^{-1} = 0.  By Bott,
    E(1) = Omega^p(n-2r+1) lives only in degree p, and only when
    n-2r+1 = 0; E(2) lives only in degree 0 (at r = 2) or in degree p
    (when n-2r+2 = 0).  Those never meet, so every map
    H^i(E(1)^n) -> H^i(E(2)) is zero, and H^i(E(2)) injects into
    H^{i+1}(G_r).
    """
    if not 0 <= r <= n - 1:
        raise RangeError(f"need 0 <= r <= n-1, got r={r}, n={n}")
    if r == 0:
        return bott(n - 1, 1, 2)
    if r == 1:
        return (1,) + (0,) * (n - 1)
    if r == n - 1:
        return bott(n - 1, 1, 4 - n)
    p = n - r - 1
    e1 = bott(n - 1, p, n - 2 * r + 1)
    e2_shifted = (0,) + bott(n - 1, p, n - 2 * r + 2)
    return tuple(n * a + b for a, b in zip(e1, e2_shifted))


def koszul_term_cohomology(m: int, n: int, r: int, twist: str) -> tuple[int, ...]:
    """Cohomology vector of the r-th term of the resolving complex.

    The term is an external product over the two factors: the first
    carries O(-r) (``plain``) or O(1-r) (``u1`` and ``omega2-u1``), the
    second the form sheaf Omega^{n-r-1}(n-2r), replaced by the twisted
    syzygy bundle G_r for ``omega2-u1``.
    """
    if m < 3:
        raise RangeError(f"need m >= 3, got {m}")
    if not 0 <= r <= n - 1:
        raise RangeError(f"need 0 <= r <= n-1, got r={r}")
    if twist not in TWISTS:
        raise RangeError(f"unknown twist {twist!r}")
    u_twist = -r if twist == "plain" else 1 - r
    u_vec = bott(m - 1, 0, u_twist)
    if twist == "omega2-u1":
        v_vec = g_r_vector(n, r)
    else:
        v_vec = bott(n - 1, n - r - 1, n - 2 * r)
    return kunneth(u_vec, v_vec)


# -- affine interval arithmetic ----------------------------------------------------


class AffineForm:
    """An integer combination of rank variables plus an integer constant.

    A form holds at least one variable: a constant is a plain ``int``,
    and arithmetic returns an ``int`` once every variable cancels.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const: int, coeffs: dict[str, int]):
        self.const = const
        self.coeffs = coeffs

    @classmethod
    def var(cls, name: str) -> "AffineForm":
        return cls(0, {name: 1})

    def __add__(self, other) -> "int | AffineForm":
        if not isinstance(other, AffineForm):
            return AffineForm(self.const + other, self.coeffs)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        const = self.const + other.const
        return AffineForm(const, coeffs) if coeffs else const

    __radd__ = __add__

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other) -> "int | AffineForm":
        return self + -other

    def __rsub__(self, other) -> "AffineForm":
        return -self + other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineForm)
            and self.const == other.const
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        parts = [str(self.const)] if self.const else []
        for name in sorted(self.coeffs, key=lambda s: (len(s), s)):
            c = self.coeffs[name]
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__


class ChaseContext:
    """Boxes of the rank variables created during a chase.

    A variable is the rank s of a connecting map, bounded by
    max(0, A - B) <= s <= A.  Where that forces s (A = 0 or B = 0) no
    variable is made and A is returned, which lets colliding terms
    cancel symbolically later.  A bound involves only earlier variables,
    so every box is final, and finite, when it is made.
    """

    def __init__(self):
        self._box: dict[str, tuple[int, int]] = {}

    def new_rank_var(self, a: int | AffineForm, b: int) -> int | AffineForm:
        if a == 0 or b == 0:
            return a
        name = f"v{len(self._box)}"
        box = (max(0, self.interval(a - b)[0]), self.interval(a)[1])
        if box[0] > box[1]:
            raise InternalError(f"infeasible chase bounds for {name}")
        self._box[name] = box
        return AffineForm.var(name)

    def interval(self, form: int | AffineForm) -> tuple[int, int]:
        if not isinstance(form, AffineForm):
            return form, form
        lo = hi = form.const
        for name, c in form.coeffs.items():
            ends = [c * b for b in self._box[name]]
            lo += min(ends)
            hi += max(ends)
        return lo, hi


def slot3(
    a_forms: Sequence, b_ints: Sequence[int], ctx: ChaseContext
) -> list[int | AffineForm]:
    """Cohomology of C in 0 -> A -> B -> C -> 0 with A affine, B known.

    Each entry of A and of the result is an ``int`` or, where a rank
    variable is left in it, an ``AffineForm``.  From the long exact
    sequence, C^i = B^i - A^i + s_{i-1} + s_i with s_i the rank of the
    connecting map C^i -> A^{i+1}, bounded by
    max(0, A^{i+1} - B^{i+1}) <= s_i <= A^{i+1}.
    """
    length = len(b_ints)
    if len(a_forms) != length:
        raise InternalError("mismatched vector lengths in chase")
    out = []
    s_prev = 0
    for i in range(length):
        a_next = a_forms[i + 1] if i + 1 < length else 0
        b_next = b_ints[i + 1] if i + 1 < length else 0
        s_i = ctx.new_rank_var(a_next, b_next)
        out.append(b_ints[i] - a_forms[i] + s_prev + s_i)
        s_prev = s_i
    return out


# -- chase results -------------------------------------------------------------


@dataclass
class ChaseResult:
    """Interval cohomology vector produced by a dimension chase."""

    name: str
    intervals: tuple[tuple[int, int], ...]
    trace: list

    @property
    def exact(self) -> bool:
        return all(lo == hi for lo, hi in self.intervals)

    @property
    def vector(self) -> tuple[int, ...] | None:
        if not self.exact:
            return None
        return tuple(lo for lo, _hi in self.intervals)

    def to_json(self) -> dict:
        return {**vars(self), "exact": self.exact, "vector": self.vector}


def koszul_chase(terms: Sequence[Sequence[int]], name: str) -> ChaseResult:
    """Chase the augmentation target of an exact complex from its term vectors.

    For 0 -> T_L -> ... -> T_1 -> T_0 -> F -> 0 with known term
    cohomology, peels kernel sequences 0 -> K_j -> T_j -> K_{j-1} -> 0
    from the left, starting at K_{L-1} = T_L, and chases F: an ``int``
    where the chase forces the value, an ``AffineForm`` where a rank
    variable is left.
    """
    if not terms:
        raise RangeError("empty complex")
    ctx = ChaseContext()
    trace: list[str] = []
    forms = list(terms[-1])
    for j in range(len(terms) - 2, -1, -1):
        trace.append(f"K{j} = [{', '.join(str(f) for f in forms)}]")
        forms = slot3(forms, terms[j], ctx)
    trace.append(f"F = [{', '.join(str(f) for f in forms)}]")
    intervals = tuple(ctx.interval(f) for f in forms)
    return ChaseResult(name=name, intervals=intervals, trace=trace)


def sheaf_chase(m: int, n: int, twist: str) -> ChaseResult:
    """Full Koszul chase for one of the three resolved sheaves."""
    terms = [koszul_term_cohomology(m, n, r, twist) for r in range(n)]
    return koszul_chase(terms, name=twist)


# -- closed-form tables ------------------------------------------------------------


def _require_grid(m: int, n: int) -> None:
    if not (2 < m < n - 1):
        raise RangeError(f"need 2 < m < n - 1, got m={m}, n={n}")


def closed_form_tables(m: int, n: int) -> dict[str, tuple[int, ...]]:
    """The three printed cohomology tables, as length m+n-1 vectors.

    ``structure``: h^0 = 1 plus a possible h^{m-2} term for even n.
    ``twist``: h^0 = m^2 plus a possible h^{m-2} term for even n.
    ``omega``: h^0 = m*C(n,2) - 1 plus an h^{m-3} term; for m = 3 both
    land in h^0.
    """
    _require_grid(m, n)
    length = m + n - 1
    half = n // 2

    structure = [0] * length
    structure[0] = 1
    if n % 2 == 0:
        structure[m - 2] += comb0(half - 1, half - m)

    twist = [0] * length
    twist[0] = m * m
    if n % 2 == 0:
        twist[m - 2] += m * comb0(half - 2, half - m - 1)

    omega = [0] * length
    omega[0] = m * comb(n, 2) - 1
    if n % 2 == 0:
        omega[m - 3] += comb0(half - 1, half - m)
    else:
        omega[m - 3] += n * comb0((n - 3) // 2, (n - 1) // 2 - m)

    return {
        "structure": tuple(structure),
        "twist": tuple(twist),
        "omega": tuple(omega),
    }


def agreement(m: int, n: int, chases: dict[str, ChaseResult] | None = None) -> dict[str, dict]:
    """Chase-versus-closed-form comparison for the three tables.

    The ``twist`` chase computes a single summand, so it is scaled by m
    before comparison.  ``chases`` maps each twist name to its
    ``sheaf_chase``, when the caller has run them already.
    """
    tables = closed_form_tables(m, n)
    out = {}
    for key, twist_name, scale in (
        ("structure", "plain", 1),
        ("twist", "u1", m),
        ("omega", "omega2-u1", 1),
    ):
        chase = chases[twist_name] if chases else sheaf_chase(m, n, twist_name)
        intervals = tuple((scale * lo, scale * hi) for lo, hi in chase.intervals)
        out[key] = {
            "closed": tables[key],
            "intervals": intervals,
            "exact": chase.exact,
            "match": chase.exact and tuple(scale * v for v in chase.vector) == tables[key],
            "max_width": max(hi - lo for lo, hi in intervals),
        }
    return out


# -- the section count of the cokernel sheaf ------------------------------------


@dataclass
class H0FResult:
    """Global-section count of the cokernel sheaf, exact or an interval.

    ``interval`` is the reported value; ``raw_interval`` is the honest
    chase output.  In the one family where the chase alone cannot close
    the gap (m = 4, n even >= 8) the report is contracted to the
    width-one interval starting at the expected dimension and flagged.
    """

    m: int
    n: int
    interval: tuple[int, int]
    raw_interval: tuple[int, int]
    intervals: tuple[tuple[int, int], ...]
    flagged: bool
    note: str | None
    trace: list

    @property
    def exact(self) -> bool:
        return self.interval[0] == self.interval[1]

    def to_json(self) -> dict:
        return {**vars(self), "exact": self.exact}


def h0F(m: int, n: int) -> H0FResult:
    """Sections of the cokernel in 0 -> O -> C -> B -> 0, 0 -> B -> D -> F -> 0.

    A, C, D are the three closed tables; the two short exact sequences
    are chased in order so interval variables from the first can cancel
    in the second.
    """
    tables = closed_form_tables(m, n)
    ctx = ChaseContext()
    trace: list[str] = []
    b_forms = slot3(tables["structure"], tables["twist"], ctx)
    trace.append(f"B = [{', '.join(str(f) for f in b_forms)}]")
    f_forms = slot3(b_forms, tables["omega"], ctx)
    trace.append(f"F = [{', '.join(str(f) for f in f_forms)}]")
    intervals = tuple(ctx.interval(f) for f in f_forms)
    raw = intervals[0]

    flagged = m == 4 and n % 2 == 0 and n >= 8
    if flagged:
        dg = dim_gr(m, n)
        contracted = (dg, dg + 1)
        if not (raw[0] <= contracted[0] and contracted[1] <= raw[1]):
            raise InternalError(
                f"contracted interval {contracted} escapes the chase {raw}"
            )
        note = "resolved externally"
        reported = contracted
    else:
        note = None
        reported = raw
    return H0FResult(
        m=m,
        n=n,
        interval=reported,
        raw_interval=raw,
        intervals=intervals,
        flagged=flagged,
        note=note,
        trace=trace,
    )


# -- dimension ledger ---------------------------------------------------------------


def dim_gr(m: int, n: int) -> int:
    """Dimension of the ambient Grassmannian of m-spaces of skew forms."""
    return m * (comb(n, 2) - m)


def codim_rho(m: int, n: int) -> int:
    """Expected codimension of the image for the m = 3 families, else 0."""
    if m >= 4:
        return 0
    if n % 2:
        return n * (n - 3) * (n - 5) // 8
    return 3 * (n - 4) * (n - 6) // 8


def dim_h(m: int, n: int) -> int | None:
    """Closed dimension count available for m = 3, odd n."""
    if m == 3 and n % 2 == 1:
        return n * (n + 3) * (n + 1) // 8 - 9
    return None


@dataclass
class DimensionLedger:
    """All dimension formulas for one (m, n), with consistency checks."""

    m: int
    n: int
    dim_gr: int
    h0f: H0FResult
    delta: tuple[int, int]
    codim_rho: int
    dim_h: int | None
    delta_matches_codim: bool
    identity_ok: bool | None
    flagged: bool

    def to_json(self) -> dict:
        return {**vars(self), "h0f": self.h0f.to_json()}


def dimension_ledger(m: int, n: int) -> DimensionLedger:
    """Evaluate and cross-check the dimension formulas at one (m, n).

    delta is the interval h0F - dimGr; for m = 3 it must equal the
    closed codimension formula, and for odd n the three independent
    formula routes must agree: dimGr + delta = dimH.
    """
    res = h0F(m, n)
    dg = dim_gr(m, n)
    delta = (res.interval[0] - dg, res.interval[1] - dg)
    cod = codim_rho(m, n)
    if res.flagged:
        matches = delta[0] <= cod <= delta[1]
    else:
        matches = delta == (cod, cod)
    dh = dim_h(m, n)
    identity = None
    if dh is not None:
        identity = delta[0] == delta[1] and dg + delta[0] == dh
    return DimensionLedger(
        m=m,
        n=n,
        dim_gr=dg,
        h0f=res,
        delta=delta,
        codim_rho=cod,
        dim_h=dh,
        delta_matches_codim=matches,
        identity_ok=identity,
        flagged=res.flagged,
    )


#: The largest matrix order of the ``cohomology --grid`` sweep.
GRID_N_MAX = 13


def grid_rows() -> list[dict]:
    """Agreement and ledger summaries over the 2 < m < n-1 grid, n <= GRID_N_MAX."""
    rows = []
    for n in range(5, GRID_N_MAX + 1):
        for m in range(3, n - 1):
            agree = agreement(m, n)
            led = dimension_ledger(m, n)
            rows.append(
                {
                    "m": m,
                    "n": n,
                    "structure_match": agree["structure"]["match"],
                    "twist_match": agree["twist"]["match"],
                    "omega_match": agree["omega"]["match"],
                    "max_width": max(v["max_width"] for v in agree.values()),
                    "dim_gr": led.dim_gr,
                    "h0f_lo": led.h0f.interval[0],
                    "h0f_hi": led.h0f.interval[1],
                    "delta_lo": led.delta[0],
                    "delta_hi": led.delta[1],
                    "codim_rho": led.codim_rho,
                    "dim_h": led.dim_h,
                    "delta_matches_codim": led.delta_matches_codim,
                    "identity_ok": led.identity_ok,
                    "flagged": led.flagged,
                }
            )
    return rows
