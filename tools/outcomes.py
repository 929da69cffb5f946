"""Record or compare the outcomes of a fixed set of skewlab cases.

Usage, from anywhere:

    python3 tools/outcomes.py --write OUTCOMES.json      # record this tree
    python3 tools/outcomes.py --compare OUTCOMES.json    # rerun and compare
    python3 tools/outcomes.py --tree OTHER --compare OUTCOMES.json

The manifest is fixed, and every case is a pure function of its inputs:

* ``cli``: 182 CLI invocations: ``correspond`` both ways at odd
  n = 5..13 over F_32003, F_5 and F_7 and at n = 5, 7, 9 over QQ, seeds 1
  and 2; ``project``, ``sample`` and ``random`` over several fields
  (``sample`` also at odd n = 9, 11, 13 over F_32003 and F_5 and at
  n = 9 over QQ, the odd orders the benchmark samples); ``cohomology``
  at every grid row 2 < m < n - 1 <= 12 and the grid itself; ``ledger``
  at (4, 8) and at the corners (3, 10000), (4, 10000) and (9997, 10000)
  of its cap; three usage errors.  Each records the exit code and the
  sha256 of stdout and of stderr.
* ``fp-forms``: ``form_to_matrix`` of ``random_form(d_vars(), n - 3,
  GF(p), SplitMix64(seed))`` for p in 7, 11, 13, 17, 101 with seeds
  0..399, 0..399 and 0..99 at n = 5, 7, 9 (4,500 forms).
* ``qq-forms``: the same over QQ, seeds 0..59 at n = 5 and 0..14 at
  n = 7 (75 forms).
* ``pfaffians``: ``pfaffian_poly`` (even n) or ``sub_pfaffians`` (odd n)
  of ``random_skew_linear(n, m, field, SplitMix64(seed))`` for n = 1..15,
  m = 1..3 and seeds 0..2 over QQ, F_2, F_3, F_5, F_7 and F_32003
  (810 pencils); their degree n // 2 lies on both sides of the small
  primes.
* ``hilbert``: ``hilbert_function`` of forms of degree k = 0..8 in
  d0, d1, d2 over QQ, F_2, F_3, F_5, F_7 and F_101 (1,188 forms), per
  field and degree: ``dense`` (``random_form``, seeds 0..3), ``sparse``
  (1 to 4 random terms, seeds 0..9), ``binary`` (dense in d0 and d1
  alone, seeds 0..3) and ``power`` (the k-th power of a random linear
  form, a form in one variable after a change of coordinates, seeds
  0..3).  Every characteristic at most 8 is below some k, where the
  apolarity scales can vanish.
* ``eliminations``: ``rank``, ``kernel_basis`` and ``row_space_canonical``
  of matrices of 0..12 rows by 0..12 columns over QQ, F_2, F_3, F_5,
  F_32003 and F_2**61-1, seeds 0..2 (9,126 matrices), per field and
  shape: ``dense`` (``random_scalar`` entries), ``sparse`` (each column
  zero with chance 1/3, the others half zeros) and ``deficient`` (the
  product of random rows x k and k x columns matrices, k below the
  smaller side).
* ``reconstructions``: the same three results for QQ products of
  random 2..12 x k and k x 2..12 matrices, 1 <= k below the smaller
  side, whose entries have 40-digit numerators over denominators up to
  1000, seeds 0..5 (726 matrices).  Their echelon forms need several
  primes, so their free columns are reconstructed from residues modulo
  a product of primes.

A form records the sha256 of its pencil and certificate JSON, or the
class and message of the genericity error it raises; a pencil records
the sha256 of its Pfaffians, written as polynomials; a Hilbert function
records its values, or the class and message of the error it raises; a
matrix records the sha256 of its rank, kernel basis and row space, or
the class and message of the error it raises.
The cases run in one process on the ``src/`` of ``--tree`` (default: the
checkout this file is in); the tallies per exit code and per outcome
class are printed at the end.  ``--compare`` exits 1 when any case differs from the file.
Standard library only; takes about a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
from fractions import Fraction

FP_FORMS = [
    (p, n, count) for p in (7, 11, 13, 17, 101) for n, count in ((5, 400), (7, 400), (9, 100))
]
QQ_FORMS = [(None, 5, 60), (None, 7, 15)]
PFAFFIAN_PRIMES = (None, 2, 3, 5, 7, 32003)
HILBERT_PRIMES = (None, 2, 3, 5, 7, 101)
HILBERT_SEEDS = {"dense": 4, "sparse": 10, "binary": 4, "power": 4}
ELIMINATION_PRIMES = (None, 2, 3, 5, 32003, 2**61 - 1)
ELIMINATION_FILLS = ("dense", "sparse", "deficient")
RECONSTRUCTION_SEEDS = 6


def cli_cases() -> list[list[str]]:
    """The 182 CLI invocations."""
    cases = []
    for field in (["--p", "32003"], ["--p", "5"], ["--p", "7"], ["--field", "q"]):
        orders = (5, 7, 9) if field[0] == "--field" else (5, 7, 9, 11, 13)
        for n in orders:
            for direction in ("from-matrix", "from-form"):
                for seed in ("1", "2"):
                    cases.append(["correspond", direction, "--n", str(n), *field, "--seed", seed])
    for n in (5, 7, 9):
        for seed in ("1", "2"):
            cases.append(["project", "--n", str(n), "--field", "q", "--seed", seed])
    for n in (7, 9, 11):
        cases.append(["project", "--n", str(n), "--seed", "1"])
    fields = [["--p", str(p)] for p in (2, 3, 5, 7, 101, 32003)] + [["--field", "q"]]
    for field in fields:
        for n in ("7", "6"):
            cases.append(["sample", "--m", "3", "--n", n, *field, "--seed", "1", "--trials", "3"])
    cases.append(["sample", "--m", "4", "--n", "7", "--seed", "1", "--trials", "3"])
    # the odd orders the benchmark samples
    for p in ("32003", "5"):
        for n in ("9", "11", "13"):
            cases.append(["sample", "--m", "3", "--n", n, "--p", p, "--seed", "1", "--trials", "3"])
    cases.append(["sample", "--m", "3", "--n", "9", "--field", "q", "--seed", "1", "--trials", "3"])
    for n in range(5, 14):
        for m in range(3, n - 1):
            cases.append(["cohomology", "--m", str(m), "--n", str(n)])
    cases += [["cohomology", "--grid"], ["cohomology", "--grid", "--csv"], ["cohomology", "--csv"]]
    for m, n in ((4, 8), (3, 10000), (4, 10000), (9997, 10000)):
        cases.append(["ledger", "--m", str(m), "--n", str(n)])
    for field in (["--p", "32003"], ["--field", "q"], ["--p", "2"]):
        for m in ("3", "4"):
            for n in ("5", "6", "7", "8"):
                cases.append(["random", "--m", m, "--n", n, *field, "--seed", "1"])
    cases += [
        ["correspond", "from-matrix", "--n", "7"],
        ["correspond", "from-matrix", "--n", "7", "--p", "9", "--seed", "1"],
        ["correspond", "from-matrix", "--m", "4", "--n", "7", "--seed", "1"],
    ]
    return cases


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(main, argv: list[str]) -> str:
    """``"<exit code> <stdout sha256> <stderr sha256>"`` of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is recorded, not raised
            rc = f"traceback:{type(exc).__name__}"
    return f"{rc} {sha(out.getvalue())} {sha(err.getvalue())}"


def run_forms(cells, sk) -> dict[str, str]:
    """Per form: ``"ok <sha256>"`` or ``"<error class>: <message>"``."""
    out = {}
    for p, n, count in cells:
        field = sk.QQ if p is None else sk.GF(p)
        for seed in range(count):
            form = sk.random_form(sk.d_vars(), n - 3, field, sk.SplitMix64(seed))
            try:
                pm, cert = sk.form_to_matrix(form)
            except sk.GenericityError as exc:
                out[f"{field!r}/n{n}/{seed}"] = f"{type(exc).__name__}: {exc}"
                continue
            doc = {
                "matrix": sk.poly_matrix_to_json(pm, "skew-linear"),
                "certificate": cert.to_json(),
            }
            out[f"{field!r}/n{n}/{seed}"] = "ok " + sha(json.dumps(doc, sort_keys=True))
    return out


def run_pfaffians(sk) -> dict[str, str]:
    """Per pencil: the sha256 of its Pfaffian or its two sub-Pfaffian vectors."""
    out = {}
    for p in PFAFFIAN_PRIMES:
        field = sk.QQ if p is None else sk.GF(p)
        for n in range(1, 16):
            for m in range(1, 4):
                for seed in range(3):
                    pm = sk.random_skew_linear(n, m, field, sk.SplitMix64(seed))
                    pfs = sk.sub_pfaffians(pm) if n % 2 else ((sk.pfaffian_poly(pm),),)
                    text = json.dumps([[sk.format_poly(q) for q in vec] for vec in pfs])
                    out[f"{field!r}/n{n}/m{m}/{seed}"] = "ok " + sha(text)
    return out


def hilbert_form(kind: str, k: int, field, rng, sk):
    """One ``hilbert`` case: a degree-``k`` form of the given kind."""
    from skewlab.randomness import random_scalar

    if kind == "dense":
        return sk.random_form(sk.d_vars(), k, field, rng)
    if kind == "power":
        line = sk.random_form(sk.d_vars(), 1, field, rng)
        poly = sk.HomogPoly(sk.d_vars(), 0, field, [field.one])
        for _ in range(k):
            poly = poly * line
        return poly
    monos = sk.monomials(3, k)
    coeffs = [field.zero] * len(monos)
    if kind == "sparse":
        for _ in range(1 + rng.below(4)):
            coeffs[rng.below(len(monos))] = random_scalar(field, rng)
    else:
        for i, e in enumerate(monos):
            if e[2] == 0:
                coeffs[i] = random_scalar(field, rng)
    return sk.HomogPoly(sk.d_vars(), k, field, coeffs)


def run_hilbert(sk) -> dict[str, str]:
    """Per form: ``"ok h0,h1,..."`` or ``"<error class>: <message>"``."""
    out = {}
    for p in HILBERT_PRIMES:
        field = sk.QQ if p is None else sk.GF(p)
        for k in range(9):
            for kind, count in HILBERT_SEEDS.items():
                for seed in range(count):
                    form = hilbert_form(kind, k, field, sk.SplitMix64(seed), sk)
                    key = f"{field!r}/{kind}/k{k}/{seed}"
                    try:
                        h = sk.hilbert_function(form)
                    except sk.SkewlabError as exc:
                        out[key] = f"{type(exc).__name__}: {exc}"
                        continue
                    out[key] = "ok " + ",".join(map(str, h))
    return out


def elimination_matrix(fill: str, nrows: int, ncols: int, field, rng, sk):
    """One ``eliminations`` case: a ``nrows`` x ``ncols`` matrix of the given fill."""
    from skewlab.randomness import random_scalar

    def dense(r, c):
        return sk.Matrix(field, [[random_scalar(field, rng) for _ in range(c)] for _ in range(r)], c)

    if fill == "dense":
        return dense(nrows, ncols)
    if fill == "sparse":
        zero = [rng.below(3) == 0 for _ in range(ncols)]
        rows = [
            [field.zero if z or rng.below(2) else random_scalar(field, rng) for z in zero]
            for _ in range(nrows)
        ]
        return sk.Matrix(field, rows, ncols)
    k = rng.below(min(nrows, ncols)) if nrows and ncols else 0
    return dense(nrows, k).mul(dense(k, ncols))


def elimination_outcome(mat, sk) -> str:
    """``"ok <sha256>"`` of the rank, kernel basis and canonical row space, or the error."""
    field = mat.field
    try:
        doc = {
            "rank": sk.rank(mat),
            "kernel": [list(map(field.scalar_to_json, v)) for v in sk.kernel_basis(mat)],
            "rows": [list(map(field.scalar_to_json, v)) for v in sk.row_space_canonical(mat)],
        }
    except sk.SkewlabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok " + sha(json.dumps(doc, sort_keys=True))


def run_eliminations(sk) -> dict[str, str]:
    """Per matrix: the sha256 of its rank, kernel basis and canonical row space, or its error."""
    out = {}
    for p in ELIMINATION_PRIMES:
        field = sk.QQ if p is None else sk.GF(p)
        for fill in ELIMINATION_FILLS:
            for nrows in range(13):
                for ncols in range(13):
                    for seed in range(3):
                        mat = elimination_matrix(fill, nrows, ncols, field, sk.SplitMix64(seed), sk)
                        out[f"{field!r}/{fill}/{nrows}x{ncols}/{seed}"] = elimination_outcome(mat, sk)
    return out


def reconstruction_matrix(nrows: int, ncols: int, rng, sk):
    """One ``reconstructions`` case: a QQ product of rank below ``min(nrows, ncols)``.

    Its factors have entries of 40-digit numerators over denominators up
    to 1000, so its echelon form needs several primes.
    """

    def big(r, c):
        entry = lambda: Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 1000))
        return sk.Matrix(sk.QQ, [[entry() for _ in range(c)] for _ in range(r)], c)

    k = 1 + rng.below(min(nrows, ncols) - 1)
    return big(nrows, k).mul(big(k, ncols))


def run_reconstructions(sk) -> dict[str, str]:
    """Per QQ product: the sha256 of its rank, kernel basis and canonical row space, or its error."""
    out = {}
    for nrows in range(2, 13):
        for ncols in range(2, 13):
            for seed in range(RECONSTRUCTION_SEEDS):
                mat = reconstruction_matrix(nrows, ncols, sk.SplitMix64(seed), sk)
                out[f"{nrows}x{ncols}/{seed}"] = elimination_outcome(mat, sk)
    return out


def run_all(tree: str) -> dict[str, dict[str, str]]:
    sys.path.insert(0, os.path.join(tree, "src"))
    import skewlab as sk
    from skewlab import cli

    return {
        "cli": {" ".join(argv): run_cli(cli.main, argv) for argv in cli_cases()},
        "fp-forms": run_forms(FP_FORMS, sk),
        "qq-forms": run_forms(QQ_FORMS, sk),
        "pfaffians": run_pfaffians(sk),
        "hilbert": run_hilbert(sk),
        "eliminations": run_eliminations(sk),
        "reconstructions": run_reconstructions(sk),
    }


def tally(outcomes: dict[str, dict[str, str]]) -> dict[str, dict[str, int]]:
    """Per part: cases per exit code (``cli``) or per outcome class (forms)."""
    return {
        part: dict(sorted(Counter(v.split(" ")[0].rstrip(":") for v in cases.values()).items()))
        for part, cases in outcomes.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="record the outcomes to FILE")
    mode.add_argument("--compare", metavar="FILE", help="compare the outcomes with FILE")
    args = ap.parse_args(argv)

    outcomes = run_all(os.path.abspath(args.tree))
    print(json.dumps(tally(outcomes)))
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(outcomes, fh, indent=0, sort_keys=True)
            fh.write("\n")
        return 0
    with open(args.compare, encoding="utf-8") as fh:
        recorded = json.load(fh)
    differ = [
        f"{part}: {case}"
        for part in sorted(set(recorded) | set(outcomes))
        for case in sorted(set(recorded.get(part, {})) | set(outcomes.get(part, {})))
        if recorded.get(part, {}).get(case) != outcomes.get(part, {}).get(case)
    ]
    print("\n".join(differ) if differ else "all cases match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
