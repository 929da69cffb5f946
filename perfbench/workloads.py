"""Workloads of the skewlab benchmark: fixed case lists and their checks.

Each workload is a fixed list of CLI invocations.  The benchmark seed
picks each case's ``--seed``; skewlab sees only the argv.  Why each
workload exists:

* ``fp-correspond``: both correspondence directions over F_32003 at odd
  n = 9..15, the main user path.  Sub-Pfaffians and ``HomogPoly.__mul__``
  dominate, and their memo grows like C(n, n/2).
* ``qq-correspond``: both directions over QQ at n = 7 plus ``from-matrix``
  at n = 9, three inputs each.  Fraction elimination dominates, so a
  skew-only change should not move it.
* ``locus-ledger``: point sampling (odd and even order, the even order
  at two primes because the F_p scan grows with p, with three inputs at
  the larger prime because the scan length varies by input), the Veronese
  projection and the cohomology grid; the only workload that runs the
  degeneracy and cohomology modules.

Every case takes well under two seconds, so that a run of a few tens of
seconds times each case many times: a case's time is its median over
passes, and that is steady only when it rests on many runs.  So n = 17 over
F_p, from-form over QQ at n = 9 (~3 s a case) and QQ at n = 11 are
left out.

Each pass over the list draws new inputs.  On ``DEFAULT_SEED`` the
stdout of every case of the first pass must match the sha256 recorded in
``digests.json`` (``python3 perfbench/workloads.py --record`` rewrites
it).  On every seed and pass each case must exit 0 and every
``ok``-style field of its JSON must hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

DEFAULT_SEED = 1
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Case:
    """One CLI invocation of matrix order ``n``.

    ``check`` names the output checks; ``argv`` lacks ``--seed``, which
    is appended when ``seeded``.
    """

    argv: tuple[str, ...]
    n: int
    check: str
    seeded: bool = True


def _correspond(direction: str, n: int, field: str) -> Case:
    argv = ("correspond", direction, "--n", str(n))
    if field == "q":
        argv += ("--field", "q")
    return Case(argv, n, "correspond")


def _fp_correspond() -> list[Case]:
    return [
        _correspond(d, n, "fp")
        for n in (9, 11, 13, 15)
        for d in ("from-matrix", "from-form")
    ]


def _qq_correspond() -> list[Case]:
    # QQ times vary with the input's coefficients, so every case gets
    # three inputs.
    directions = (("from-matrix", 7), ("from-form", 7), ("from-matrix", 9))
    return [_correspond(d, n, "q") for d, n in directions for _input in range(3)]


def _locus_ledger() -> list[Case]:
    # The largest order, n = 13, gets three inputs, so that
    # ``largest_case_s`` does not rest on one case.
    cases = [
        Case(("sample", "--m", "3", "--n", str(n), "--trials", "50"), n, "sample-odd")
        for n in (9, 11, 13, 13, 13)
    ]
    # The scan's length at p = 32003 varies with the input, so that prime
    # gets three inputs per order.  Five points a case keep each case short.
    for n in (6, 8):
        argv = ("sample", "--m", "3", "--n", str(n), "--trials", "5")
        cases += [Case(argv, n, "sample-even")] * 3
        cases.append(Case(argv + ("--p", "101"), n, "sample-even"))
    cases += [Case(("project", "--n", str(n)), n, "project") for n in (9, 11)]
    # The grid has no order of its own, so it never counts as a largest case.
    cases.append(Case(("cohomology", "--grid"), 0, "grid", seeded=False))
    return cases


WORKLOADS = {
    "fp-correspond": _fp_correspond,
    "qq-correspond": _qq_correspond,
    "locus-ledger": _locus_ledger,
}


def case_seed(workload: str, seed: int, index: int, pass_no: int = 0) -> int:
    """The ``--seed`` of case ``index`` in pass ``pass_no``, a pure function of the run seed."""
    key = f"{workload}/{seed}/{index}" + (f"/{pass_no}" if pass_no else "")
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def case_argvs(workload: str, seed: int, pass_no: int = 0) -> list[tuple[Case, list[str]]]:
    """The workload's cases with their full argv for pass ``pass_no`` of this run seed.

    Every pass draws new inputs, so a run's times rest on many inputs
    per case, not on the one a seed happens to give; the inputs of pass
    0 are the ones whose digests are recorded.
    """
    out = []
    for i, case in enumerate(WORKLOADS[workload]()):
        argv = list(case.argv)
        if case.seeded:
            argv += ["--seed", str(case_seed(workload, seed, i, pass_no))]
        out.append((case, argv))
    return out


def load_digests(workload: str) -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


# -- running and checking ---------------------------------------------------------


def run_case(main, argv: list[str]) -> tuple[int, str, str | None, float]:
    """Call ``main(argv)`` with stdout captured.

    Returns ``(exit code, stdout, exception text or None, seconds)``;
    only the call itself is timed.
    """
    buf = io.StringIO()
    error = None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed case, not a crash
            rc = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return rc, buf.getvalue(), error, seconds


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _trials(case: Case) -> int:
    return int(case.argv[case.argv.index("--trials") + 1])


def _ok_fields(case: Case, doc: dict) -> list[str]:
    """Names of the ``ok``-style facts that do not hold in the output."""
    bad = []
    if case.check == "correspond":
        cert = doc["certificate"]
        if cert["ok"] is not True:
            bad.append("certificate.ok")
        bad += [f"certificate.checks.{k}" for k, v in cert["checks"].items() if v is not True]
        if cert["n"] != case.n:
            bad.append("certificate.n")
    elif case.check == "sample-odd":
        if doc["all_ok"] is not True:
            bad.append("all_ok")
        if len(doc["points"]) != _trials(case) or not all(pt["ok"] for pt in doc["points"]):
            bad.append("points")
    elif case.check == "sample-even":
        sample = doc["sample"]
        if doc["all_ok"] is not True:
            bad.append("all_ok")
        if sample["exhausted"] or len(sample["points"]) != _trials(case):
            bad.append("sample.points")
        if not all(r < 3 for pt in sample["points"] for r in pt["incidence_ranks"]):
            bad.append("sample.incidence_ranks")
    elif case.check == "project":
        if doc["certificate"]["ok"] is not True:
            bad.append("certificate.ok")
        if doc["roundtrip_form_matches"] is not True:
            bad.append("roundtrip_form_matches")
        if doc["projection"]["direct_sum_ok"] is not True:
            bad.append("projection.direct_sum_ok")
    elif case.check == "grid":
        rows = doc["rows"]
        must = ("structure_match", "twist_match", "omega_match", "delta_matches_codim")
        if len(rows) != 45:
            bad.append("rows")
        for row in rows:
            bad += [f"rows[{row['m']},{row['n']}].{k}" for k in must if row[k] is not True]
            if row["identity_ok"] is False:
                bad.append(f"rows[{row['m']},{row['n']}].identity_ok")
    else:
        raise ValueError(f"unknown check {case.check!r}")
    return bad


def verify(case: Case, rc, stdout: str, error: str | None, expected: str | None) -> str | None:
    """Why the case failed, or None when it passed every gate."""
    if error is not None:
        return f"exception {error}"
    if rc != 0:
        return f"exit {rc}"
    if expected is not None and digest(stdout) != expected:
        return "stdout digest differs from the recorded one"
    try:
        doc = json.loads(stdout)
        bad = _ok_fields(case, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if bad:
        return "false: " + ", ".join(bad)
    return None


def _record(root: str) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    from skewlab import cli

    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for case, argv in case_argvs(name, DEFAULT_SEED):
            rc, stdout, error, _s = run_case(cli.main, argv)
            reason = verify(case, rc, stdout, error, None)
            if reason is not None:
                raise SystemExit(f"{' '.join(argv)}: {reason}")
            table[name][" ".join(argv)] = digest(stdout)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/workloads.py --record")
    _record(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
