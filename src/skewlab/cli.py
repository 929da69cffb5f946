"""Command-line front end: seeded generation, correspondence runs,
projection construction, sampling campaigns, and cohomology tables.

Every command is a pure function of its flags and input files; output
is JSON (or CSV for grid sweeps) with sorted keys, so identical
invocations produce byte-identical bytes.  Exit codes: 0 success,
2 usage or configuration error, 3 genericity failure of the input,
4 internal invariant violation (always a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .apolarity import mirror
from .cohomology import (
    TWISTS,
    agreement,
    closed_form_tables,
    dimension_ledger,
    grid_rows,
    sheaf_chase,
)
from .correspond import _require_char, _require_odd_n, form_to_matrix, matrix_to_form
from .degeneracy import (
    even_scroll_sample,
    incidence_check,
    locus_profile,
    parametrization_points,
    veronese_projection,
    verify_in_image,
)
from .errors import (
    FormatError,
    GenericityError,
    InternalError,
    NoPointsFound,
    RangeError,
    UsageError,
)
from .fields import GF, MAX_LEDGER_ORDER, MAX_ORDER, MAX_TRIALS, QQ, Field
from .randomness import (
    SplitMix64,
    describe,
    random_nondegenerate_dual_form,
    random_skew_linear,
)
from .rings import poly_from_json, poly_to_json
from .skew import (
    poly_matrix_from_json,
    poly_matrix_to_json,
    skew_linear,
    tensor_flip,
)


def _field_from_args(args) -> Field:
    if args.field == "q":
        return QQ
    return GF(args.p)


def _require_seed_or_input(args) -> None:
    if args.infile is None and args.seed is None:
        raise UsageError("need --in FILE or --seed N")


def _require_three_base_variables(args) -> None:
    if args.m is not None and args.m != 3:
        raise RangeError(f"{args.command} needs three base variables, got --m {args.m}")


def _config_stanza(args, field: Field) -> dict:
    """The flags of a run and the field it computed over: an ``--in`` file's own field."""
    out = {"field": field.to_json()}
    for key in ("m", "n", "seed", "trials"):
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _seeded_skew(args, field: Field, m: int):
    return random_skew_linear(args.n, m, field, SplitMix64(args.seed))


def _seeded_dual_form(args, field: Field):
    if args.n is None:
        raise UsageError("need --n to generate an instance")
    # checked before the draw, which fails as a genericity error over too small a field
    _require_odd_n(args.n)
    _require_char(field, args.n - 3)
    return random_nondegenerate_dual_form(args.n - 3, field, SplitMix64(args.seed))


def _input_or_seeded_skew(args, field: Field):
    if args.infile is not None:
        pm = poly_matrix_from_json(_load_json(args.infile))
        return skew_linear(pm)
    if args.m is None or args.n is None:
        raise UsageError("need --m and --n to generate an instance")
    locus_profile(args.n, args.m)
    return _seeded_skew(args, field, args.m)


# -- commands -----------------------------------------------------------------


def cmd_random(args) -> dict:
    field = _field_from_args(args)
    if args.m is None or args.n is None or args.seed is None:
        raise UsageError("random needs --m, --n and --seed")
    profile = locus_profile(args.n, args.m)
    pm = _seeded_skew(args, field, args.m)
    flipped = tensor_flip(pm)
    return {
        "command": "random",
        "config": _config_stanza(args, field),
        "rng": describe(args.seed),
        "profile": profile.to_json(),
        "matrix": poly_matrix_to_json(pm, "skew-linear"),
        "flipped": poly_matrix_to_json(flipped, "pencil"),
    }


def cmd_correspond(args) -> dict:
    field = _field_from_args(args)
    _require_seed_or_input(args)
    _require_three_base_variables(args)
    payload: dict = {"command": "correspond", "direction": args.direction}
    if args.seed is not None and args.infile is None:
        payload["rng"] = describe(args.seed)

    if args.direction == "from-matrix":
        if args.infile is not None:
            pm = poly_matrix_from_json(_load_json(args.infile))
        elif args.n is None:
            raise UsageError("need --n to generate an instance")
        else:
            pm = _seeded_skew(args, field, 3)
        form, cert = matrix_to_form(pm)
    else:
        if args.infile is not None:
            form = poly_from_json(_load_json(args.infile))
        else:
            form = _seeded_dual_form(args, field)
        pm, cert = form_to_matrix(form)
    payload["config"] = _config_stanza(args, form.field)
    payload["form"] = poly_to_json(form)
    payload["matrix"] = poly_matrix_to_json(pm, "skew-linear")
    payload["certificate"] = cert.to_json()
    return payload


def cmd_project(args) -> dict:
    field = _field_from_args(args)
    _require_seed_or_input(args)
    _require_three_base_variables(args)
    if args.infile is not None:
        g = poly_from_json(_load_json(args.infile))
    else:
        g = mirror(_seeded_dual_form(args, field))
    datum = veronese_projection(g)
    pencil, a_mat, cert = verify_in_image(datum)
    recovered, _cert2 = matrix_to_form(pencil)
    target = mirror(datum.g).leading_normalized()
    payload = {
        "command": "project",
        "config": _config_stanza(args, g.field),
        "projection": datum.to_json(),
        "pencil": poly_matrix_to_json(pencil, "skew-linear"),
        "basis_change": a_mat.to_json(),
        "certificate": cert.to_json(),
        "roundtrip_form_matches": recovered == target,
    }
    if args.seed is not None and args.infile is None:
        payload["rng"] = describe(args.seed)
    return payload


def cmd_sample(args) -> dict:
    flag_field = _field_from_args(args)
    _require_seed_or_input(args)
    if args.trials < 1:
        raise RangeError(f"--trials must be at least 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise RangeError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    pm = _input_or_seeded_skew(args, flag_field)
    field = pm.field
    n = pm.nrows
    count = args.trials
    payload: dict = {
        "command": "sample",
        "config": _config_stanza(args, field),
    }
    if args.seed is not None:
        payload["rng"] = describe(args.seed)
    if n % 2 == 1:
        if args.seed is None:
            raise UsageError("odd-order sampling needs --seed")
        rng = SplitMix64(args.seed).spawn()
        pts, skipped = parametrization_points(pm, count, rng)
        flipped = tensor_flip(pm)
        rows = []
        all_ok = True
        for nu, x in pts:
            res = incidence_check(flipped, x)
            all_ok = all_ok and res.ok
            rows.append(
                {
                    "nu": [field.scalar_to_json(v) for v in nu],
                    "x": [field.scalar_to_json(v) for v in x],
                    "rank": res.rank,
                    "ok": res.ok,
                }
            )
        payload.update(
            {
                "mode": "odd-parametrization",
                "points": rows,
                "skipped": skipped,
                "all_ok": all_ok,
            }
        )
        return payload
    sample = even_scroll_sample(pm, count)
    payload.update({"mode": "even-scroll", "sample": sample.to_json(), "all_ok": True})
    return payload


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def cmd_cohomology(args) -> dict | str:
    if args.grid:
        rows = grid_rows()
        if args.csv:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0])
            for row in rows:
                writer.writerow(_csv_cell(v) for v in row.values())
            return buf.getvalue()
        return {"command": "cohomology", "grid": True, "rows": rows}
    if args.csv:
        raise UsageError("--csv needs --grid")
    if args.m is None or args.n is None:
        raise UsageError("cohomology needs --m and --n (or --grid)")
    m, n = args.m, args.n
    tables = closed_form_tables(m, n)
    chases = {twist: sheaf_chase(m, n, twist) for twist in TWISTS}
    return {
        "command": "cohomology",
        "m": m,
        "n": n,
        "tables": tables,
        "agreement": agreement(m, n, chases),
        "chases": {k: v.to_json() for k, v in chases.items()},
        "ledger": dimension_ledger(m, n).to_json(),
    }


def cmd_ledger(args) -> dict:
    if args.m is None or args.n is None:
        raise UsageError("ledger needs --m and --n")
    return {"command": "ledger", "ledger": dimension_ledger(args.m, args.n).to_json()}


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, default=None, help="base variables")
    common.add_argument("--n", type=int, default=None, help="matrix order")
    common.add_argument("--field", choices=("q", "fp"), default="fp")
    common.add_argument("--p", type=int, default=32003, help="prime for fp")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--trials", type=int, default=20)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
        "--in", dest="infile", default=None, help="input JSON file"
    )

    parser = argparse.ArgumentParser(
        prog="skewlab",
        description="exact laboratory for skew pencils, their Pfaffian loci, "
        "apolar dual forms, and cohomology dimension ledgers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("random", parents=[common])

    p_corr = sub.add_parser("correspond", parents=[common])
    p_corr.add_argument("direction", choices=("from-matrix", "from-form"))

    sub.add_parser("project", parents=[common])
    sub.add_parser("sample", parents=[common])

    p_coh = sub.add_parser("cohomology", parents=[common])
    p_coh.add_argument("--grid", action="store_true")
    p_coh.add_argument("--csv", action="store_true")

    sub.add_parser("ledger", parents=[common])
    return parser


_HANDLERS = {
    "random": cmd_random,
    "correspond": cmd_correspond,
    "project": cmd_project,
    "sample": cmd_sample,
    "cohomology": cmd_cohomology,
    "ledger": cmd_ledger,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cap = MAX_LEDGER_ORDER if args.command == "ledger" else MAX_ORDER
        for flag in ("m", "n"):
            value = getattr(args, flag)
            if value is not None and value > cap:
                raise RangeError(f"--{flag} must be at most {cap}, got {value}")
        result = _HANDLERS[args.command](args)
        text = result if isinstance(result, str) else _dump(result)
        _emit(text, args.out)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GenericityError as exc:
        hint = ""
        if isinstance(exc, NoPointsFound):
            hint = " (hint: retry with a different prime or seed)"
        print(f"genericity failure: {type(exc).__name__}: {exc}{hint}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
