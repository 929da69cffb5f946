"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python objects: ``fractions.Fraction`` for the
rationals (always in lowest terms with positive denominator), ``int`` in
``[0, p)`` for F_p. The rationals ``QQ`` and each F_p, ``GF(p)``, are
instances of two classes, so a field is decided once, when it is built.
Other modules compute with ``+``, ``-`` and ``*`` and reduce the result
with ``from_int``, the one reducing verb (``axpy`` for a row update).

The F_p elimination kernel works on ``GF``'s packed rows.  A row is one
nonnegative int with a fixed-width field per entry, column 0 in the low
bits; a row update adds a multiple of another row to it in one big-int
multiply-add, without reducing, and the width (``pack_width``) leaves
room for every update the elimination can make.  A finished column is
shifted off the rows below its pivot (``drop_column``, which also clears
it), so the kernel reads only the lowest entry (``low_entry``), and the
rows get shorter as the elimination runs.  Entries are reduced when read
and when unpacked.

The multimodular QQ echelon form of ``linalg`` moves between QQ and ZZ here:
``integer_rows`` clears denominators, ``modular_field`` gives its primes
between 2**60 and 2**61 (found on first use), ``crt`` combines residues and
``rational_vector`` reconstructs rationals from them (Wang), trying the
denominator the earlier entries share before it runs a Euclid.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Any

from .errors import FormatError, RangeError, quoted

#: Witness bases making Miller-Rabin deterministic for n < _MR_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: The least strong pseudoprime to every base in ``_MR_BASES`` (about 3.3e24).
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact below ``_MR_LIMIT``; larger ``n`` raise ``RangeError``, since
    the test could pass a composite there and the package would compute
    over a ring that is not a field.
    """
    if n >= _MR_LIMIT:
        raise RangeError(f"moduli of {_MR_LIMIT} or more are not supported, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def json_int(value: Any, what: str) -> int:
    """``value`` if it is a JSON integer; a bool, float or string is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {quoted(value)}")
    return value


#: The largest matrix order, number of variables or degree that CLI flags
#: and JSON files may give; it bounds what is built, not how long it runs.
MAX_ORDER = 41

#: The largest ``--m`` or ``--n`` of ``ledger``, which builds no matrix but
#: chases cohomology vectors of length m + n - 1.
MAX_LEDGER_ORDER = 10_000

#: The largest sample count ``sample --trials`` may ask for.
MAX_TRIALS = 1000


def check_size(value: Any, what: str) -> int:
    """``value`` if it is an integer of at most ``MAX_ORDER``."""
    if json_int(value, what) > MAX_ORDER:
        raise RangeError(f"{what} must be at most {MAX_ORDER}, got {value}")
    return value


class Field:
    """What the two fields, ``QQ`` and ``GF(p)``, share."""

    __slots__ = ("p",)

    #: True for QQ; ``linalg`` and ``degeneracy`` choose algorithms by it.
    is_rational = False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def parse_scalar(self, text: str):
        """Parse a signed integer or p/q (``"3"``, ``"-2/7"``); p/q over F_p uses inversion."""
        text = text.strip()
        try:
            if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
                raise ValueError("not an integer or p/q")
            q = Fraction(text)
            return self.from_int(q.numerator * self.inv(self.from_int(q.denominator)))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad scalar literal {quoted(text)}") from exc

    def scalar_from_json(self, obj):
        if isinstance(obj, bool) or not isinstance(obj, (int, str)):
            raise FormatError(f"bad scalar JSON {quoted(obj)}")
        if isinstance(obj, int):
            return self.from_int(obj)
        return self.parse_scalar(obj)

    @staticmethod
    def from_json(obj: Any) -> "Field":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise FormatError(f"bad field JSON {quoted(obj)}")
        if obj["kind"] == "q":
            return QQ
        if obj["kind"] == "fp":
            return GF(json_int(obj.get("p"), "field modulus"))
        raise FormatError(f"unknown field kind {quoted(obj['kind'])}")


class Rationals(Field):
    """The rationals; its one instance is ``QQ``."""

    __slots__ = ()

    p = None
    is_rational = True
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self) -> str:
        return "QQ"

    def from_int(self, a):
        """An integer or an exact rational as a ``Fraction``; a ``Fraction`` is returned as is."""
        return a if type(a) is Fraction else Fraction(a)

    def char_exceeds(self, k: int) -> bool:
        return True

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def axpy(self, c, x, y) -> list:
        """The vector ``x + c * y``."""
        return [a + c * b for a, b in zip(x, y)]

    def scalar_to_json(self, a):
        return int(a) if a.denominator == 1 else str(a)

    def to_json(self) -> dict:
        return {"kind": "q"}


class GF(Field):
    """The prime field F_p (p must be prime); scalars are ints in [0, p)."""

    __slots__ = ()

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise RangeError(f"field modulus must be prime, got {p}")
        self.p = p

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def from_int(self, a):
        """An integer, or an integer expression in field scalars, reduced mod p."""
        return a % self.p

    def char_exceeds(self, k: int) -> bool:
        return self.p > k

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def axpy(self, c, x, y) -> list:
        """The vector ``x + c * y``, reduced."""
        p = self.p
        return [(a + c * b) % p for a, b in zip(x, y)]

    def scalar_to_json(self, a):
        return a

    def to_json(self) -> dict:
        return {"kind": "fp", "p": self.p}

    # -- packed rows (the elimination kernel's representation) ---------

    def pack_width(self, k: int) -> int:
        """Bits per entry of a packed row that takes at most ``k`` updates.

        Entries start below p and each update adds less than p**2, so
        2 bits(p) + bits(k) + 1 bits never carry into the next entry;
        rounding up to whole bytes keeps packing linear.
        """
        return (2 * self.p.bit_length() + k.bit_length() + 8) // 8 * 8

    def pack(self, row: list, w: int):
        """``row`` as one int with entry j in bits [j w, (j + 1) w)."""
        size, p = w // 8, self.p
        return int.from_bytes(b"".join([(a % p).to_bytes(size, "little") for a in row]), "little")

    def unpack(self, packed, ncols: int, w: int, scale) -> list:
        """The reduced entries of a packed row, each multiplied by ``scale``."""
        size, p, read = w // 8, self.p, int.from_bytes
        data = packed.to_bytes(ncols * size, "little")
        return [read(data[j : j + size], "little") * scale % p for j in range(0, len(data), size)]

    def low_entry(self, packed, w: int):
        """The lowest entry of a packed row, reduced: only its low ``w`` bits are read."""
        return (packed & (1 << w) - 1) % self.p

    def drop_column(self, rows: list, prow, w: int) -> list:
        """The packed ``rows`` with their lowest column cleared by ``prow`` and shifted off.

        ``prow`` is the packed pivot row from its pivot column on, with a
        unit there, or 0 for a column without a pivot.  Each row x with
        low field l takes ``-l mod p`` times ``prow``, added unreduced, so
        its low field becomes l + (-l mod p), a multiple of p.  Without a
        pivot it was one already: the pivot search read every low entry
        as zero.  That field is then shifted off, and the next column
        becomes the lowest.  Each row still takes at most one update per
        pivot, so ``pack_width`` bounds the low field as it bounds every
        other, and nothing carries out of it into the kept fields.
        """
        p, mask = self.p, (1 << w) - 1
        return [(x + -(x & mask) % p * prow) >> w for x in rows]


#: The rational field, shared instance.
QQ = Rationals()


#: F_q for the primes q below 2**61, largest first, found by ``modular_field``.
_MODULAR_FIELDS: list[GF] = []


def modular_field(i: int) -> GF:
    """F_q for the ``i``-th prime below 2**61, counting down from 2**61 - 1.

    It lies above 2**60 for every i below 2**54, as the QQ prime bound needs.
    """
    while len(_MODULAR_FIELDS) <= i:
        q = _MODULAR_FIELDS[-1].p - 2 if _MODULAR_FIELDS else (1 << 61) - 1
        while not is_prime(q):
            q -= 2
        _MODULAR_FIELDS.append(GF(q))
    return _MODULAR_FIELDS[i]


def integer_rows(rows) -> list[list[int]]:
    """Each rational row times the lcm of its denominators, as ints."""
    out = []
    for row in rows:
        d = math.lcm(*[a.denominator for a in row])
        out.append([a.numerator * (d // a.denominator) for a in row])
    return out


def crt(residues: list[int], m: int, vec: list[int], q: int) -> list[int]:
    """The vector in [0, m q) that is ``residues`` mod m and ``vec`` mod the prime q."""
    inv = pow(m, -1, q)
    return [r + m * ((a - r) * inv % q) for r, a in zip(residues, vec)]


def rational_vector(residues: list[int], m: int) -> list[Fraction] | None:
    """The rationals a/b with |a|, b <= N = isqrt(m // 2) that are ``residues`` mod m.

    Wang's rational reconstruction; ``None`` when some residue has no such
    rational.  m is odd, so 2 N**2 < m, and such an a/b is unique: two of
    them, a/b and a'/b', have a b' = a' b mod m and |a b' - a' b| <= 2 N**2,
    so a b' = a' b.

    The entries of a reduced echelon form share one denominator, the
    pivot minor, so a running denominator d, coprime to m and at most N,
    is tried first.  When c d mod m, lifted to (-m/2, m/2], is an a with
    |a| <= N, then a/d in lowest terms is within the bounds and is c mod
    m, so it is the answer, for the cost of one product mod m.  Only
    otherwise does the half-extended Euclid of m and c run (von zur Gathen
    and Gerhard, Modern Computer Algebra, 5.10); it finds the answer or
    shows that there is none.  Its denominator b is coprime to m, since a
    common factor would divide the remainder too, and d, which starts at
    1, becomes lcm(d, b) while that stays at most N.
    """
    bound = math.isqrt(m // 2)
    d = 1
    out = []
    for c in residues:
        a = c * d % m
        if a > bound:
            a -= m
        if a >= -bound:
            out.append(Fraction(a, d))
            continue
        r0, r1, s0, s1 = m, c, 0, 1
        while r1 > bound:
            t = r0 // r1
            r0, r1, s0, s1 = r1, r0 - t * r1, s1, s0 - t * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1))
        lcm = math.lcm(d, s1)
        if lcm <= bound:
            d = lcm
    return out
