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

from .apolarity import dual_socle_generator, hilbert_function, perp_slice
from .errors import (
    AlphabetMismatch,
    DegenerateForm,
    DegenerateInput,
    RangeError,
    SkewNormalizationFailure,
    SyzygyDefect,
)
from .fields import Field
from .linalg import Matrix, det, inverse, kernel_basis
from .rings import (
    Alphabet,
    GradedSlice,
    HomogPoly,
    dim_homog,
    mono_index,
    monomials,
    slices_equal,
)
from .skew import PolyMatrix, congruence, skew_linear, sub_pfaffians


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
            "n": self.n,
            "direction": self.direction,
            "hilbert": list(self.hilbert),
            "cat_rank": self.cat_rank,
            "ideal_slice": self.ideal_slice.to_json(),
            "checks": dict(self.checks),
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
    ann: GradedSlice | None = None,
) -> Certificate:
    """Check the correspondence identities of ``form`` and ``span``.

    ``ann`` is the degree (n-1)/2 annihilator of ``form``, when the
    caller has computed it already.
    """
    k = n - 3
    gen_deg = (n - 1) // 2
    h = hilbert_function(form)
    if ann is None:
        ann = perp_slice(form, gen_deg)
    checks = {
        "annihilator_dim": ann.dim == n,
        "generators_match_annihilator": slices_equal(ann, span),
        "hilbert_symmetric": all(h[d] == h[k - d] for d in range(k + 1)),
        "hilbert_maximal": all(h[d] == dim_homog(3, d) for d in range(k // 2 + 1)),
        "socle_dim": h[k] == 1,
        "perp_full_above_degree": perp_slice(form, n - 2).dim == dim_homog(3, n - 2),
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

    pfs, _signed = sub_pfaffians(pm, check=False)
    span = GradedSlice.from_polys(pfs)
    if span.dim != n:
        raise DegenerateInput(
            f"sub-Pfaffians span dimension {span.dim}, expected {n}"
        )
    form = dual_socle_generator(pfs, n - 3)
    cert = _build_certificate(form, span, n, "matrix-to-form")
    if not cert.ok:
        raise DegenerateInput(
            "pencil fails correspondence checks: " + ", ".join(cert.failed())
        )
    return form, cert


def _linear_syzygies(gens: list[HomogPoly], n: int) -> Matrix:
    """Basis of linear syzygies sum_i l_i g_i = 0, one column per syzygy.

    Coordinates are row-major over (generator, variable): entry 3*i + k
    is the y_k coefficient of l_i.
    """
    field = gens[0].field
    e = gens[0].degree
    out_deg = e + 1
    rows_dim = dim_homog(3, out_deg)
    idx = mono_index(3, out_deg)
    mat = [[field.zero] * (3 * n) for _ in range(rows_dim)]
    p = field.p
    for i, g in enumerate(gens):
        for c, a in g.terms():
            for k in range(3):
                b = list(a)
                b[k] += 1
                r = idx[tuple(b)]
                col = 3 * i + k
                v = mat[r][col] + c
                mat[r][col] = v if p is None else v % p
    return kernel_basis(Matrix(field, mat, 3 * n))


def _skew_combinations(t_rows: list[list[HomogPoly]], n: int, field: Field) -> Matrix:
    """Kernel of the skewness constraints on Q with N = Q T.

    Unknowns are the n^2 entries of Q in row-major order; for every pair
    i <= j and every variable coefficient the constraint is
    (QT)_{ij} + (QT)_{ji} = 0.
    """
    p = field.p
    rows = []
    for i in range(n):
        for j in range(i, n):
            for k in range(3):
                row = [field.zero] * (n * n)
                for s in range(n):
                    v = row[i * n + s] + t_rows[s][j].coeffs[k]
                    row[i * n + s] = v if p is None else v % p
                    v = row[j * n + s] + t_rows[s][i].coeffs[k]
                    row[j * n + s] = v if p is None else v % p
                rows.append(row)
    return kernel_basis(Matrix(field, rows, n * n))


def _pick_invertible(candidates: Matrix, n: int, field: Field) -> Matrix:
    """First invertible Q among kernel basis vectors, then pairwise sums."""
    cols = candidates.columns()

    def unvec(vec) -> Matrix:
        return Matrix(field, [vec[r * n : (r + 1) * n] for r in range(n)], n)

    for vec in cols:
        q = unvec(vec)
        if det(q) != field.zero:
            return q
    for a in range(len(cols)):
        for b in range(a + 1, len(cols)):
            vec = [field.add(x, y) for x, y in zip(cols[a], cols[b])]
            q = unvec(vec)
            if det(q) != field.zero:
                return q
    raise SkewNormalizationFailure(
        "no invertible skew-normalizing matrix in the solution space"
    )


def form_to_matrix(form: HomogPoly) -> tuple[PolyMatrix, Certificate]:
    """Odd skew pencil whose sub-Pfaffians cut out the form's annihilator.

    Steps: take the degree (n-1)/2 annihilator basis g, compute its
    n-dimensional space of linear syzygies T, solve for a constant Q
    making Q T skew, and certify that the sub-Pfaffians of N = Q T span
    the same space as g.
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
    gens = ann.basis_polys()

    syz = _linear_syzygies(gens, n)
    if syz.ncols != n:
        raise SyzygyDefect(
            f"linear syzygy space has dimension {syz.ncols}, expected {n}"
        )
    y_alph = Alphabet("Y", 3)
    t_rows = []
    for s in range(n):
        vec = syz.column(s)
        t_rows.append(
            [HomogPoly(y_alph, 1, field, vec[3 * i : 3 * i + 3]) for i in range(n)]
        )

    q_space = _skew_combinations(t_rows, n, field)
    if q_space.ncols == 0:
        raise SkewNormalizationFailure("skewness constraints have no solution")
    q = _pick_invertible(q_space, n, field)

    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [field.zero] * 3
            for s in range(n):
                c = q.rows[i][s]
                if c == 0:
                    continue
                for t in range(3):
                    coeffs[t] = field.add(coeffs[t], field.mul(c, t_rows[s][j].coeffs[t]))
            row.append(HomogPoly(y_alph, 1, field, coeffs))
        entries.append(row)
    pencil = skew_linear(entries)

    pfs, _signed = sub_pfaffians(pencil, check=False)
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


def congruence_transport(pencil: PolyMatrix, a_mat: Matrix) -> PolyMatrix:
    """Transport a skew pencil along the basis change with matrix A.

    Returns (A^{-1})^T N A^{-1}; raises ``SingularMatrix`` when A is not
    invertible.  The Pfaffian rescales by det(A)^{-1} and the dual form
    is unchanged up to that scale.
    """
    pm = skew_linear(pencil)
    if a_mat.nrows != pm.nrows or a_mat.ncols != pm.nrows:
        raise RangeError("basis change must be square of the pencil order")
    return skew_linear(congruence(pm, inverse(a_mat)))
