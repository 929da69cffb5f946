"""A fixed reference kernel that measures how fast the host runs Python now.

A shared host, such as a 2-vCPU cloud VM on an Intel Xeon, can switch
between a fast state and one up to 1.7x slower, for seconds to minutes
at a time; a whole run can land in either.  Every timing the benchmark
reports is therefore calibrated: the run times this kernel next to the program's work and
scales each time by ``NOMINAL_S`` over the kernel's time nearby.  A value
reads as seconds on a host where the kernel takes ``NOMINAL_S``.

The kernel uses the standard library only and never imports skewlab, so
a change to skewlab moves the calibrated times by its full share.  Its
mix follows skewlab's hot paths: products of dense polynomials keyed by
exponent tuples mod p, and row reduction over F_p and over Fraction.
The garbage collector is off while it runs, so skewlab's garbage does
not reach into its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.04
# Neighbouring kernel timings on each side that calibrate one time.
WINDOW = 2
_P = 32003


def _inputs():
    rng = random.Random(7)
    poly = [
        {tuple(rng.randrange(4) for _ in range(5)): rng.randrange(_P) for _ in range(50)}
        for _ in range(2)
    ]
    fp = [[rng.randrange(_P) for _ in range(24)] for _ in range(18)]
    qq = [[Fraction(rng.randrange(-9, 10)) for _ in range(11)] for _ in range(11)]
    return poly, fp, qq


_POLY, _FP, _QQ = _inputs()


def _poly_products(a: dict, b: dict, times: int) -> dict:
    out: dict = {}
    for _ in range(times):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = (out.get(e, 0) + ca * cb) % _P
    return out


def _rref_fp(rows: list[list[int]]) -> int:
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, _P)
        rows[rank] = [x * inv % _P for x in rows[rank]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != rank and f:
                rows[r] = [(x - f * y) % _P for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _eliminate_qq(rows: list[list[Fraction]]) -> Fraction:
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        rows[col], rows[piv] = rows[piv], rows[col]
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def run() -> float:
    """Seconds the kernel takes once, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _poly_products(_POLY[0], _POLY[1], 5)
        for _ in range(6):
            _rref_fp(_FP)
        for _ in range(2):
            _eliminate_qq(_QQ)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Each time scaled by ``NOMINAL_S`` over the median kernel time near it.

    ``kernel_s[k]`` was timed right after ``seconds[k]``; the median over
    ``WINDOW`` neighbours on each side damps the kernel's own jitter and
    still follows a change of the host's speed within a few seconds.
    """
    out = []
    for k, secs in enumerate(seconds):
        near = kernel_s[max(0, k - WINDOW) : k + WINDOW + 1]
        out.append(secs * NOMINAL_S / statistics.median(near))
    return out
