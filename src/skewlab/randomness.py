"""Seeded randomness with a stable, named, splittable generator.

SplitMix64 drives every random draw so that seeds mean the same thing on
every platform and Python version; output JSON records the algorithm
name. Draw order is part of the stability contract and is documented on
each sampler.
"""

from __future__ import annotations

from .apolarity import is_nondegenerate
from .errors import DegenerateForm, InternalError, UsageError
from .fields import Field
from .rings import Alphabet, HomogPoly, dim_homog
from .skew import PolyMatrix

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Coefficient box for rational draws.
RATIONAL_BOX = (-9, 9)

ALGORITHM = "splitmix64"


class SplitMix64:
    """The SplitMix64 generator; tiny, stable, splittable."""

    name = ALGORITHM

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound); bound must be positive."""
        if bound <= 0:
            raise UsageError("bound must be positive")
        return self.next_u64() % bound

    def randint(self, lo: int, hi: int) -> int:
        """Uniform draw in the inclusive range [lo, hi]."""
        if hi < lo:
            raise UsageError("empty range")
        return lo + self.below(hi - lo + 1)

    def spawn(self) -> "SplitMix64":
        """Independent child stream; advances this generator once."""
        return SplitMix64(self.next_u64() ^ _GOLDEN)


def random_scalar(field: Field, rng: SplitMix64):
    """One coefficient: uniform in [-9, 9] over QQ, uniform over F_p."""
    if field.is_rational:
        return field.from_int(rng.randint(*RATIONAL_BOX))
    return rng.below(field.p)


def random_form(alphabet: Alphabet, degree: int, field: Field, rng: SplitMix64) -> HomogPoly:
    """Dense random form; coefficients drawn in grlex basis order."""
    n = dim_homog(alphabet.nvars, degree)
    return HomogPoly(alphabet, degree, field, [random_scalar(field, rng) for _ in range(n)])


def random_point(nvars: int, field: Field, rng: SplitMix64) -> tuple:
    """A nonzero coordinate tuple; coordinates drawn in index order."""
    for _ in range(128):
        pt = tuple(random_scalar(field, rng) for _ in range(nvars))
        if any(c != 0 for c in pt):
            return pt
    raise InternalError("failed to draw a nonzero point")


def random_skew_linear(n: int, m: int, field: Field, rng: SplitMix64) -> PolyMatrix:
    """Random skew matrix of linear forms in ``m`` base variables.

    Entries above the diagonal are drawn row-major, each as a dense
    linear form (its ``m`` coefficients in variable order); the lower
    triangle mirrors with a sign, the diagonal is zero. Returns the
    ``PolyMatrix``.
    """
    layers = [[[field.zero] * n for _ in range(n)] for _ in range(m)]
    for i in range(n):
        for j in range(i + 1, n):
            for a in layers:
                a[i][j] = random_scalar(field, rng)
                a[j][i] = field.from_int(-a[i][j])
    return PolyMatrix(Alphabet("Y", m), 1, field, layers)


#: Draws ``random_nondegenerate_dual_form`` makes before it gives up.
MAX_FORM_DRAWS = 64


def random_nondegenerate_dual_form(degree: int, field: Field, rng: SplitMix64) -> HomogPoly:
    """Random dual form with full middle catalecticant rank."""
    alphabet = Alphabet("D", 3)
    for _ in range(MAX_FORM_DRAWS):
        f = random_form(alphabet, degree, field, rng)
        if not f.is_zero() and is_nondegenerate(f):
            return f
    raise DegenerateForm(
        f"no nondegenerate degree-{degree} form found in {MAX_FORM_DRAWS} draws"
    )


def describe(seed: int) -> dict:
    """The JSON stanza recorded in every seeded output."""
    return {"algorithm": ALGORITHM, "seed": seed}
