"""Round trip between odd skew pencils and their apolar dual forms.

For odd n and three base variables, a generic skew n x n matrix N of
linear forms determines a degree n-3 dual form F: the n sub-Pfaffians of
N span the degree (n-1)/2 piece of the annihilator of F, and F is the
unique (up to scale) joint socle of those generators.  Both directions
are computed by exact linear algebra and each returns a certificate of
the identities that make the pairing bijective on generic inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .apolarity import dual_socle_generator, hilbert_function, perp_slice
from .errors import (
    AlphabetMismatch,
    DegenerateForm,
    DegenerateInput,
    RangeError,
    SkewNormalizationFailure,
    SyzygyDefect,
)
from .fields import Field, integer_rows
from .linalg import Matrix, kernel_basis, kernel_line, rank, row_space_canonical
from .rings import GradedSlice, HomogPoly, dim_homog, mono_index, slices_equal
from .skew import PolyMatrix, skew_linear, sub_pfaffians


@dataclass
class Certificate:
    """Checked identities tying a skew pencil to its dual form."""

    n: int
    direction: str
    hilbert: tuple[int, ...]
    cat_rank: int
    ideal_slice: GradedSlice
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failed(self) -> list[str]:
        return [name for name, good in self.checks.items() if not good]

    def to_json(self) -> dict:
        return {
            **vars(self),
            "hilbert": list(self.hilbert),
            "ideal_slice": self.ideal_slice.to_json(),
            "ok": self.ok,
        }


def _require_odd_n(n: int) -> None:
    if n < 5 or n % 2 == 0:
        raise RangeError(f"need odd order n >= 5, got {n}")


def _require_char(field: Field, k: int) -> None:
    if not field.char_exceeds(k):
        raise RangeError(
            f"field characteristic must exceed {k} for exact apolarity"
        )


def _build_certificate(
    form: HomogPoly,
    span: GradedSlice,
    n: int,
    direction: str,
    ann: GradedSlice,
) -> Certificate:
    """Check the correspondence identities of ``form`` and ``span``.

    ``ann`` is the degree (n-1)/2 annihilator of ``form``.

    Both callers require char > k, so ``hilbert_function`` ranks only
    the middle catalecticant and the degrees below it that are not full,
    and fills h[d] for d > k/2 with h[k - d].  ``hilbert_symmetric`` and
    ``socle_dim`` read those mirrored values, so they hold by
    construction and are flags, not computed checks; ``hilbert_maximal``
    reads the ranked lower half.
    """
    k = n - 3
    gen_deg = (n - 1) // 2
    h = hilbert_function(form)
    checks = {
        "annihilator_dim": ann.dim == n,
        "generators_match_annihilator": slices_equal(ann, span),
        "hilbert_symmetric": all(h[d] == h[k - d] for d in range(k + 1)),
        "hilbert_maximal": all(h[d] == dim_homog(3, d) for d in range(k // 2 + 1)),
        "socle_dim": h[k] == 1,
        # the annihilator is an ideal, so ann times linear forms lies in
        # it one degree up, where h gives its dimension: equal dimensions
        # mean ann generates it there.  The key name is kept, since
        # certificates are compared byte for byte.
        "perp_full_above_degree": rank(_times_linear(ann.basis_polys()))
        == dim_homog(3, gen_deg + 1) - (h[gen_deg + 1] if gen_deg < k else 0),
    }
    return Certificate(
        n=n,
        direction=direction,
        hilbert=h,
        # the middle catalecticant rank is the Hilbert function at k/2
        cat_rank=h[k // 2],
        ideal_slice=ann,
        checks=checks,
    )


def matrix_to_form(pencil: PolyMatrix) -> tuple[HomogPoly, Certificate]:
    """Dual form of an odd skew pencil in three variables.

    The sub-Pfaffians must span an n-dimensional space and annihilate a
    unique degree n-3 form; inputs failing either condition raise a
    genericity error.
    """
    pm = skew_linear(pencil)
    n = pm.nrows
    _require_odd_n(n)
    if pm.alphabet.key != "Y":
        raise AlphabetMismatch("skew pencil must live over the y alphabet")
    if pm.alphabet.nvars != 3:
        raise RangeError("correspondence needs exactly three base variables")
    _require_char(pm.field, n - 3)

    pfs, _signed = sub_pfaffians(pm)
    span = GradedSlice.from_polys(pfs)
    if span.dim != n:
        raise DegenerateInput(
            f"sub-Pfaffians span dimension {span.dim}, expected {n}"
        )
    form = dual_socle_generator(pfs, n - 3)
    ann = perp_slice(form, (n - 1) // 2)
    cert = _build_certificate(form, span, n, "matrix-to-form", ann)
    if not cert.ok:
        raise DegenerateInput(
            "pencil fails correspondence checks: " + ", ".join(cert.failed())
        )
    return form, cert


def _times_linear(gens: list[HomogPoly]) -> Matrix:
    """The products g_i y_k as columns over the monomials one degree up, column 3*i + k.

    Its rank is the dimension of the span of the products, and its kernel
    is the space of linear syzygies sum_i l_i g_i = 0, with entry 3*i + k
    the y_k coefficient of l_i.
    """
    field, width = gens[0].field, 3 * len(gens)
    idx = mono_index(3, gens[0].degree + 1)
    mat = [[field.zero] * width for _ in range(len(idx))]
    for i, g in enumerate(gens):
        for c, a in g.terms():
            for k in range(3):
                b = list(a)
                b[k] += 1
                mat[idx[tuple(b)]][3 * i + k] = c
    return Matrix(field, mat, width)


def _skew_combinations(layers: list[Matrix], n: int, field: Field) -> list:
    """The one solution Q, row-major, of the skewness constraints with N = Q T.

    ``layers[k]`` is T_k, the y_k coefficient matrix of T, and Q T_k must
    be skew for k = 0, 1, 2.  The unknowns are not the n^2 entries of Q.
    One reduced echelon form of [T_0 | I] has rows [R | E] with E T_0 = R,
    R the reduced echelon form of T_0 with pivots c_i, and rows [0 | u]
    whose u are a basis U_0 of the left kernel of T_0; W_0, the
    ``kernel_basis`` of T_0 with r_0 = |W_0|, puts a unit at each free
    column of R.  P, with row c_i equal to E_i and zeros elsewhere, has
    P T_0 = I - W_0 F^T, F selecting W_0's free coordinates.  So Q T_0 is
    skew exactly when Q = S P + C U_0^T for a skew S with S W_0 = 0 and
    an n x r_0 matrix C, and the map (S, C) -> Q is a bijection:
    Q T_0 = S gives S back, and Q - S P has its rows in the span of U_0.
    All of this holds with P scaled by one integer and each u and each
    W_0 vector by its own, and Q T_k is skew when T_k times an integer
    is, so the rows are built over ZZ: QQ runs no ``Fraction``
    arithmetic, F_p reduces in the elimination.

    The unknowns are the C(n, 2) entries s_ij (i < j) of S, then C
    row-major.  Write Q = X K, X = [S[:, c] | C] and K the rows E_i and
    u stacked; (Q T_k)_{ab} is row a of X times column b of K T_k.  The
    rows are S W_0 = 0 (n r_0 of them), then for T_1 and then T_2 and
    every a <= b, (Q T_k)_{ab} + (Q T_k)_{ba} = 0; for a = b the row is
    (Q T_k)_{aa} = 0, half the constraint, with the same solutions: the
    characteristic exceeds n - 3 >= 2.  ``kernel_line`` eliminates the
    rows through T_1's and checks T_2's against its line.  The bijection
    carries both its prefix solutions and its full solutions onto those
    of the system in the n^2 entries of Q, so it sees the same
    dimensions, and Q of its line, scaled to a unit at its last nonzero
    entry, is that system's canonical kernel vector.  Returns that
    vector, and raises ``SkewNormalizationFailure`` with the dimension
    of any other solution space.
    """
    t0, t1, t2 = (_scaled(t.rows, n) for t in layers)
    w0 = integer_rows(kernel_basis(layers[0]))
    echelon = row_space_canonical(
        Matrix(field, [row + [int(i == j) for j in range(n)] for i, row in enumerate(t0)], 2 * n)
    )
    pivots = [next(c for c, a in enumerate(row) if a) for row in echelon]
    r0 = len(w0)
    rho = n - r0
    k_rows = _scaled([row[n:] for row in echelon[:rho]], n) + integer_rows(
        [row[n:] for row in echelon[rho:]]
    )
    half = n * (n - 1) // 2

    def s_at(a, j):
        # the unknown s_lo,hi of S[a][j], j != a, and the sign it carries there
        lo, hi = min(a, j), max(a, j)
        return lo * n - lo * (lo + 1) // 2 + hi - lo - 1, 1 if a < j else -1

    # row a of S and row a of X as (column, unknown, sign) triples
    s_slots = [[(j, *s_at(a, j)) for j in range(n) if j != a] for a in range(n)]
    x_slots = [
        [(i, *s_at(a, c)) for i, c in enumerate(pivots[:rho]) if c != a]
        + [(rho + l, half + a * r0 + l, 1) for l in range(r0)]
        for a in range(n)
    ]

    def add(row, slots, vec):
        for i, pos, sign in slots:
            row[pos] += sign * vec[i]

    width = half + n * r0
    rows = []
    for a in range(n):
        for w in w0:
            row = [0] * width
            add(row, s_slots[a], w)
            rows.append(row)
    for t in (t1, t2):
        # column b of K T
        kt = [[sum(map(mul, k, col)) for k in k_rows] for col in zip(*t)]
        for a in range(n):
            for b in range(a, n):
                row = [0] * width
                add(row, x_slots[a], kt[b])
                if b != a:
                    add(row, x_slots[b], kt[a])
                rows.append(row)
    line = kernel_line(Matrix(field, rows, width), n * r0 + n * (n + 1) // 2)
    if len(line) != 1:
        raise SkewNormalizationFailure(
            f"skew solution space has dimension {len(line)}, expected 1"
        )
    (v,) = integer_rows(line)
    q = []
    for a in range(n):
        acc = [0] * n
        for i, pos, sign in x_slots[a]:
            acc = [x + sign * v[pos] * y for x, y in zip(acc, k_rows[i])]
        q.extend(map(field.from_int, acc))
    scale = field.inv(next(a for a in reversed(q) if a))
    return [field.from_int(a * scale) for a in q]


def _scaled(rows: list[list], n: int) -> list[list[int]]:
    """The n-column ``rows`` times one integer, the lcm of all their denominators."""
    (flat,) = integer_rows([[a for row in rows for a in row]])
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def form_to_matrix(form: HomogPoly) -> tuple[PolyMatrix, Certificate]:
    """Odd skew pencil whose sub-Pfaffians cut out the form's annihilator.

    Steps: take the degree (n-1)/2 annihilator basis g, compute its
    n-dimensional space of linear syzygies T = sum_k T_k y_k, and solve
    for the constant Q making N = Q T skew.  For a generic form these Q
    form a line (Buchsbaum-Eisenbud), whose canonical basis vector gives
    N as the three products Q T_k; any other dimension raises
    ``SkewNormalizationFailure``.  The solve (``_skew_combinations``)
    makes Q T_0 skew by construction, Q = S P + C U_0^T with U_0 the left
    kernel of T_0, so it has C(n, 2) + n r_0 unknowns rather than n^2,
    r_0 the corank of T_0; the map to Q is a bijection, so the vector
    and every dimension it reports are those of the n^2-unknown system.
    Last, certify that the sub-Pfaffians of N span the same space as g.
    A singular Q fails there: N then has a constant kernel vector, so its
    sub-Pfaffians span at most a line.
    """
    if form.alphabet.key != "D":
        raise AlphabetMismatch("dual form must live over the d alphabet")
    if form.alphabet.nvars != 3:
        raise RangeError("correspondence needs exactly three base variables")
    k = form.degree
    n = k + 3
    _require_odd_n(n)
    _require_char(form.field, k)
    if form.is_zero():
        raise DegenerateForm("zero form has no pencil")

    field = form.field
    gen_deg = (n - 1) // 2
    ann = perp_slice(form, gen_deg)
    if ann.dim != n:
        raise DegenerateForm(
            f"annihilator in degree {gen_deg} has dimension {ann.dim}, expected {n}"
        )

    syz = kernel_basis(_times_linear(ann.basis_polys()))
    if len(syz) != n:
        raise SyzygyDefect(
            f"linear syzygy space has dimension {len(syz)}, expected {n}"
        )
    # T[s][j] = sum_k syz[s][3j + k] y_k, so row s of T_k is syz[s][k::3]
    layers = [Matrix(field, [v[k::3] for v in syz], n) for k in range(3)]
    vec = _skew_combinations(layers, n, field)
    q = Matrix(field, [vec[r * n : (r + 1) * n] for r in range(n)], n)
    products = [q.mul(t).rows for t in layers]
    pencil = skew_linear(PolyMatrix(form.alphabet.dual(), 1, field, products))

    pfs, _signed = sub_pfaffians(pencil)
    span = GradedSlice.from_polys(pfs)
    if not slices_equal(span, ann):
        raise SkewNormalizationFailure(
            "sub-Pfaffians of the normalized pencil do not span the annihilator"
        )
    cert = _build_certificate(form, span, n, "form-to-matrix", ann)
    if not cert.ok:
        raise DegenerateForm(
            "form fails correspondence checks: " + ", ".join(cert.failed())
        )
    return pencil, cert
