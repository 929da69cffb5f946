"""Rank-drop loci of linear pencils and their parametrizations.

An n x m pencil M of linear forms in x0..x(n-1) drops rank on a
subvariety of projective (n-1)-space.  For m = 3 and odd n the signed
sub-Pfaffians of the flipped skew matrix parametrize that locus from the
plane; for even n the plane sees a Pfaffian curve and the locus is
swept by the kernel lines over its points.  This module computes the
numeric profile of those loci, samples them exactly, and builds the
projection-of-Veronese model with its certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul

from .apolarity import mirror, partials_slice, perp_slice
from .cohomology import _require_grid
from .correspond import Certificate, _require_char, form_to_matrix
from .errors import (
    DegenerateG,
    DegenerateInput,
    InternalError,
    NoPointsFound,
    RangeError,
)
from .linalg import Matrix, kernel_basis, rank, row_space_canonical
from .randomness import SplitMix64, random_point
from .rings import GradedSlice, HomogPoly, dim_homog, monomials, poly_to_json
from .skew import (
    PolyMatrix,
    evaluate_matrix,
    pfaffian_poly,
    skew_linear,
    sub_pfaffians,
    tensor_flip,
)


# -- numeric profile --------------------------------------------------------


@dataclass
class LocusProfile:
    """Expected dimensions for the rank-drop loci of a generic pencil."""

    n: int
    m: int
    ambient_dim: int
    dim: int
    codim: int
    corank_two_codim: int
    sing_codim: int
    smooth: bool

    def to_json(self) -> dict:
        return {**vars(self)}


def locus_profile(n: int, m: int) -> LocusProfile:
    """Dimension bookkeeping for the rank <= m-1 locus in P^(n-1).

    The deeper rank <= m-2 locus is the singular set of the first; it is
    empty (so the locus is smooth) exactly when n > 2m - 3.
    """
    _require_grid(m, n)
    return LocusProfile(
        n=n,
        m=m,
        ambient_dim=n - 1,
        dim=m - 1,
        codim=n - m,
        corank_two_codim=2 * (n - m + 1),
        sing_codim=n + 2 - m,
        smooth=n > 2 * m - 3,
    )


# -- incidence -----------------------------------------------------------------


@dataclass
class IncidenceResult:
    rank: int
    n_minors: int
    minors_zero: bool
    ok: bool


def incidence_check(pencil: PolyMatrix, point) -> IncidenceResult:
    """Exact rank-drop test for a point against a tall pencil.

    Evaluates the pencil, computes the rank, and independently checks
    that every maximal minor vanishes; the two routes must agree.  When
    m = 3 the minor on rows i < j < k is the triple product
    r_i . (r_j x r_k), so each row pair's cross product (its three 2x2
    cofactors) is computed once and dotted with every row above it.
    Otherwise each m x m minor is tested by its rank.
    """
    if pencil.nrows <= pencil.ncols:
        raise RangeError("incidence expects a tall pencil")
    a = evaluate_matrix(pencil, point)
    r = rank(a)
    m = pencil.ncols
    field = pencil.field
    reduce, zero = field.from_int, field.zero
    rows = a.rows
    if m == 3:
        zeros = []
        for j, k in combinations(range(a.nrows), 2):
            (b0, b1, b2), (c0, c1, c2) = rows[j], rows[k]
            x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
            zeros += [reduce(a0 * x0 + a1 * x1 + a2 * x2) == zero for a0, a1, a2 in rows[:j]]
    else:
        zeros = [
            rank(Matrix(field, [rows[i] for i in sel], m)) < m
            for sel in combinations(range(a.nrows), m)
        ]
    all_zero = all(zeros)
    ok = r < m
    if ok != all_zero:
        raise InternalError("rank and minor tests disagree")
    return IncidenceResult(rank=r, n_minors=len(zeros), minors_zero=all_zero, ok=ok)


# -- odd-order parametrization ----------------------------------------------------


def parametrization_points(
    pencil: PolyMatrix, count: int, rng: SplitMix64
) -> tuple[list[tuple[tuple, tuple]], int]:
    """Sample (plane point, image point) pairs from an odd skew pencil.

    Each random plane point nu is sent to the signed sub-Pfaffian vector
    evaluated at nu, which lies in the rank-drop locus of the flipped
    pencil.  The degree (n-1)/2 monomials are evaluated at nu once, from
    a power table of each coordinate, and each sub-Pfaffian is one dot
    product of its coefficients with them.  Points where the whole
    vector vanishes are skipped and counted; too many skips raise
    ``DegenerateInput``.
    """
    pm = skew_linear(pencil)
    n = pm.nrows
    if n % 2 == 0:
        raise RangeError("parametrization needs odd order")
    if pm.alphabet.nvars != 3:
        raise RangeError("parametrization needs three base variables")
    field = pm.field
    _pfs, signed = sub_pfaffians(pm)
    half = n // 2
    monos = monomials(3, half)
    out: list[tuple[tuple, tuple]] = []
    skipped = 0
    budget = 20 * count + 100
    while len(out) < count:
        if skipped >= budget:
            raise DegenerateInput(
                "signed sub-Pfaffians vanish at too many sample points"
            )
        nu = random_point(3, field, rng)
        p0, p1, p2 = ([c**e for e in range(half + 1)] for c in nu)
        values = [p0[i] * p1[j] * p2[k] for i, j, k in monos]
        x = tuple(field.from_int(sum(map(mul, q.coeffs, values))) for q in signed)
        if all(v == field.zero for v in x):
            skipped += 1
            continue
        out.append((nu, x))
    return out, skipped


# -- projection of the Veronese ---------------------------------------------------


@dataclass
class ProjectionDatum:
    """Center and image data for projecting a Veronese embedding.

    ``center`` is the span of the mid-order partials of ``g`` and
    ``complement`` the degree (n-1)/2 annihilator; together they fill
    the full linear system of degree (n-1)/2, which is the direct-sum
    certificate.
    """

    n: int
    r: int
    g: HomogPoly
    center: GradedSlice
    complement: GradedSlice
    direct_sum_ok: bool

    def to_json(self) -> dict:
        return {
            **vars(self),
            "g": poly_to_json(self.g),
            "center_dim": self.center.dim,
            "complement_dim": self.complement.dim,
            "center": self.center.to_json(),
            "complement": self.complement.to_json(),
        }


def veronese_projection(g: HomogPoly) -> ProjectionDatum:
    """Projection data for the degree (n-1)/2 Veronese away from g's partials.

    ``g`` must be a form of even degree n-3 in y0, y1, y2.  The center
    has dimension (n-1)(n-3)/8 and the annihilator complement dimension
    n; failures of either count or of the direct sum raise
    ``DegenerateG``.
    """
    if g.alphabet.key != "Y":
        raise RangeError("projection expects a form in the y alphabet")
    if g.alphabet.nvars != 3:
        raise RangeError("projection needs three base variables")
    k = g.degree
    n = k + 3
    if k < 2 or k % 2:
        raise RangeError(f"need even positive degree, got {k}")
    _require_char(g.field, k)
    if g.is_zero():
        raise DegenerateG("zero form")

    half = (n - 1) // 2
    center = partials_slice(g, (n - 5) // 2)
    complement = perp_slice(mirror(g), half)
    center_dim = (n - 1) * (n - 3) // 8
    if center.dim != center_dim:
        raise DegenerateG(
            f"partial span has dimension {center.dim}, expected {center_dim}"
        )
    if complement.dim != n:
        raise DegenerateG(
            f"annihilator has dimension {complement.dim}, expected {n}"
        )
    full = dim_homog(3, half)
    direct = rank(Matrix(g.field, center.basis + complement.basis, full)) == full
    if not direct:
        raise DegenerateG("center and annihilator do not span the full system")
    return ProjectionDatum(
        n=n,
        r=full - 1,
        g=g,
        center=center,
        complement=complement,
        direct_sum_ok=direct,
    )


def verify_in_image(datum: ProjectionDatum) -> tuple[PolyMatrix, Matrix, Certificate]:
    """Identify the projected Veronese with a sub-Pfaffian image.

    Builds the skew pencil of the dual form, then expresses the
    annihilator basis in the sub-Pfaffian basis.  The reduced echelon
    form of the rows [pf_i | e_i] has rows [R | E] with E P = R, P the
    sub-Pfaffian rows, and R the canonical basis of their span.  So the
    annihilator lies in that span exactly when R is its canonical basis;
    then row j of E writes the j-th annihilator vector in the
    sub-Pfaffians, and the change of basis is E transposed.  It is
    invertible: R has n independent rows and E P = R, so the n x n
    matrix E has rank n.  Returns the pencil, the change of basis, and
    the pencil's certificate.
    """
    pencil, cert = form_to_matrix(mirror(datum.g))
    pfs, _signed = sub_pfaffians(pencil)
    n, field = datum.n, datum.g.field
    ambient = dim_homog(3, (n - 1) // 2)
    rows = [list(q.coeffs) + [int(i == j) for j in range(n)] for i, q in enumerate(pfs)]
    echelon = row_space_canonical(Matrix(field, rows, ambient + n))
    if [row[:ambient] for row in echelon] != datum.complement.basis:
        raise InternalError("annihilator basis not in the sub-Pfaffian span")
    a_mat = Matrix(field, [row[ambient:] for row in echelon], n).transpose()
    return pencil, a_mat, cert


# -- even-order scroll sampling ------------------------------------------------


@dataclass
class ScrollPoint:
    nu: tuple
    kernel: tuple
    x_samples: list
    incidence_ranks: list


@dataclass
class ScrollSample:
    n: int
    p: int
    curve_degree: int
    points: list
    skipped_corank: int
    scanned: int
    exhausted: bool

    def to_json(self) -> dict:
        return {**vars(self), "points": list(map(vars, self.points))}


def _horner(coeffs, x, p):
    """Evaluate sum coeffs[i] x^i with coefficients listed by degree."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


# Univariate polynomials over F_p are coefficient lists by degree, with no
# trailing zeros; the zero polynomial is the empty list.


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _sub(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def _divmod(f, g, p):
    """Quotient and remainder of f by a nonzero g."""
    dg = len(g) - 1
    r = list(f)
    q = [0] * max(len(r) - dg, 0)
    inv = pow(g[-1], -1, p)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dg] * inv % p
        q[i] = c
        if c:
            for j in range(dg):
                r[i + j] = (r[i + j] - c * g[j]) % p
    return q, _trim(r[:dg])


def _mulmod(f, g, m, p):
    """f * g mod m."""
    if not f or not g:
        return []
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return _divmod([c % p for c in prod], m, p)[1]


def _powmod(f, e, m, p):
    """f^e mod m, for m of positive degree, by repeated squaring."""
    result = [1]
    f = _divmod(f, m, p)[1]
    while e:
        if e & 1:
            result = _mulmod(result, f, m, p)
        e >>= 1
        if e:
            f = _mulmod(f, f, m, p)
    return result


def _gcd(f, g, p):
    """The monic gcd of a nonzero f and any g."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _split(g, p, rng):
    """The roots of a monic g with distinct roots, all in F_p (Cantor-Zassenhaus).

    For p = 2 the caller never passes a g of degree 2 or more: the only
    such g is b^2 - b, which the caller treats as the whole line.
    """
    if len(g) <= 2:
        return [-g[0] % p] if len(g) == 2 else []
    while True:
        w = _sub(_powmod([rng.below(p), 1], (p - 1) // 2, g, p), [1], p)
        h = _gcd(g, w, p)
        if 1 < len(h) < len(g):
            return _split(h, p, rng) + _split(_divmod(g, h, p)[0], p, rng)


def _line_roots(coeffs, p):
    """The roots in F_p of sum coeffs[k] b^k, ascending.

    The roots of f are those of g = gcd(f, b^p - b), with b^p mod f by
    repeated squaring, and g splits by random shifts drawn from a stream
    of fixed seed; sorting keeps the draws out of the result.  Costs
    O(d^2 log p) for f of degree d.  A line on which f vanishes at every
    point (f = 0 mod p, or g = b^p - b) returns every b.
    """
    f = _trim([c % p for c in coeffs])
    if not f:
        return range(p)
    if len(f) == 1:
        return []
    g = _gcd(f, _sub(_powmod([0, 1], p, f, p), [0, 1], p), p)
    if len(g) == p + 1:
        return range(p)
    return sorted(_split(g, p, SplitMix64(0)))


def _curve_points(pf, p):
    """The F_p points of the Pfaffian curve in chart order, with scan positions.

    The position of a point is the number of chart points up to and
    including it, in the order (1, a, b) for a, b in F_p, then (0, 1, b),
    then (0, 0, 1).  One table serves the three charts: rows[k][j] is the
    coefficient of a^j b^k in pf(1, a, b), and row k ends at that of
    y1^(d-k) y2^k, so the last entries give pf(0, 1, b) and pf(0, 0, 1).
    """
    d = pf.degree
    rows = [[0] * (d - k + 1) for k in range(d + 1)]
    for c, (_i, j, k) in pf.terms():
        rows[k][j] = c
    for a in range(p):
        for b in _line_roots([_horner(row, a, p) for row in rows], p):
            yield (1, a, b), a * p + b + 1
    for b in _line_roots([row[-1] for row in rows], p):
        yield (0, 1, b), p * p + b + 1
    if rows[-1][-1] % p == 0:
        yield (0, 0, 1), p * p + p + 1


#: Points sampled on each kernel line of an even pencil's locus.
LINE_SAMPLES = 3


def even_scroll_sample(pencil: PolyMatrix, count: int) -> ScrollSample:
    """Sample the rank-drop locus of an even skew pencil over a prime field.

    Visits the points of the Pfaffian curve in a fixed chart order, keeps
    those of corank exactly two, and samples ``min(LINE_SAMPLES, p)``
    points on each kernel line.  Every sample must pass the incidence
    check.  The curve points of each chart line are the exact roots of
    the Pfaffian's restriction, found in O(d^2 log p) for curve degree d
    rather than by testing every point of F_p; ``scanned`` is the number
    of chart points up to the last one visited.  ``NoPointsFound`` is
    raised only when the full plane is exhausted without a single curve
    point of corank two.
    """
    if count < 1:
        raise RangeError(f"sample count must be at least 1, got {count}")
    pm = skew_linear(pencil)
    n = pm.nrows
    if n % 2 or n < 4:
        raise RangeError("scroll sampling needs even order at least 4")
    if pm.alphabet.nvars != 3:
        raise RangeError("scroll sampling needs three base variables")
    field = pm.field
    if field.is_rational:
        raise RangeError("scroll sampling needs a finite field")
    p = field.p
    per_point = min(LINE_SAMPLES, p)

    pf = pfaffian_poly(pm)
    if pf.is_zero():
        raise DegenerateInput("pencil has identically zero Pfaffian")
    flipped = tensor_flip(pm)

    points: list[ScrollPoint] = []
    skipped = 0
    scanned = p * p + p + 1
    for nu, position in _curve_points(pf, p):
        ker = kernel_basis(evaluate_matrix(pm, nu))
        if len(ker) != 2:
            skipped += 1
            continue
        b1, b2 = ker
        xs = []
        ranks = []
        for t in range(per_point):
            x = tuple(field.axpy(t, b1, b2))
            res = incidence_check(flipped, x)
            if not res.ok:
                raise InternalError("kernel line sample failed incidence")
            xs.append(x)
            ranks.append(res.rank)
        points.append(
            ScrollPoint(nu=nu, kernel=(tuple(b1), tuple(b2)), x_samples=xs, incidence_ranks=ranks)
        )
        if len(points) >= count:
            scanned = position
            break

    if not points:
        raise NoPointsFound(
            f"Pfaffian curve has no corank-two points over F_{p}"
        )
    return ScrollSample(
        n=n,
        p=p,
        curve_degree=pf.degree,
        points=points,
        skipped_corank=skipped,
        scanned=scanned,
        exhausted=len(points) < count,
    )
