"""Command-line behavior: schemas, determinism, exit codes, file round trips."""

import contextlib
import hashlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewlab import GF, InternalError, d_vars, parse_poly, poly_matrix_to_json, poly_to_json
from skewlab.cli import main
from skewlab.errors import QUOTE_LIMIT, quoted
from skewlab.fields import MAX_LEDGER_ORDER, MAX_ORDER, MAX_TRIALS

from conftest import norm_form_pencil


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    return code, (out.read_bytes() if out.exists() else b"")


def run_json(tmp_path, *argv):
    code, raw = run(tmp_path, *argv)
    assert code == 0
    return json.loads(raw)


def test_random_command_schema(tmp_path):
    doc = run_json(tmp_path, "random", "--m", "3", "--n", "7", "--seed", "1")
    assert doc["command"] == "random"
    assert doc["config"] == {
        "field": {"kind": "fp", "p": 32003},
        "m": 3,
        "n": 7,
        "seed": 1,
        "trials": 20,
    }
    assert doc["rng"]["algorithm"] == "splitmix64"
    assert doc["matrix"]["kind"] == "skew-linear"
    assert doc["flipped"]["kind"] == "pencil"
    assert doc["profile"]["smooth"] is True
    assert len(doc["matrix"]["entries"]) == 7


def test_output_is_deterministic(tmp_path):
    args = ("random", "--m", "3", "--n", "9", "--seed", "11")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second
    _, other = run(tmp_path, "random", "--m", "3", "--n", "9", "--seed", "12")
    assert other != first


def test_correspond_roundtrip_via_files(tmp_path):
    doc = run_json(
        tmp_path, "correspond", "from-matrix", "--m", "3", "--n", "5", "--seed", "3"
    )
    assert doc["direction"] == "from-matrix" and doc["certificate"]["ok"]
    assert doc["certificate"]["hilbert"] == [1, 3, 1]

    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(doc["form"]))
    back = run_json(tmp_path, "correspond", "from-form", "--in", str(form_file))
    assert back["certificate"]["ok"]
    assert back["form"] == doc["form"]

    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(doc["matrix"]))
    again = run_json(tmp_path, "correspond", "from-matrix", "--in", str(matrix_file))
    assert again["form"] == doc["form"]


def test_project_command(tmp_path):
    doc = run_json(tmp_path, "project", "--n", "7", "--seed", "5")
    assert doc["roundtrip_form_matches"] is True
    assert doc["certificate"]["ok"]
    assert doc["projection"]["n"] == 7
    assert len(doc["projection"]["center"]["basis"]) == 3


def test_sample_command_odd(tmp_path):
    doc = run_json(
        tmp_path, "sample", "--m", "3", "--n", "5", "--seed", "2", "--trials", "4"
    )
    assert doc["mode"] == "odd-parametrization" and doc["all_ok"] is True
    assert len(doc["points"]) == 4
    for row in doc["points"]:
        assert row["ok"] and row["rank"] <= 2


def test_sample_command_even(tmp_path):
    doc = run_json(
        tmp_path,
        "sample",
        "--m", "3", "--n", "6", "--seed", "2",
        "--field", "fp", "--p", "101", "--trials", "3",
    )
    assert doc["mode"] == "even-scroll" and doc["all_ok"] is True
    assert doc["sample"]["curve_degree"] == 3
    assert len(doc["sample"]["points"]) == 3


# -- the config of an --in run names the field of the input file -----------------


def input_file(tmp_path, key, *argv):
    """The ``key`` document of a seeded run, written to a file; returns its path."""
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(run_json(tmp_path, *argv)[key]))
    return str(path)


F101 = {"kind": "fp", "p": 101}
FIELD_FLAGS = pytest.mark.parametrize("flags", [(), ("--field", "q")], ids=["p-default", "field-q"])


@FIELD_FLAGS
def test_correspond_config_names_the_field_of_the_input(tmp_path, flags):
    seeded = ("--n", "7", "--seed", "2", "--p", "101")
    pencil = input_file(tmp_path, "matrix", "correspond", "from-matrix", *seeded)
    form = input_file(tmp_path, "form", "correspond", "from-form", *seeded)
    for direction, path in (("from-matrix", pencil), ("from-form", form)):
        doc = run_json(tmp_path, "correspond", direction, "--in", path, *flags)
        assert doc["config"] == {"field": F101, "trials": 20}


@FIELD_FLAGS
def test_project_config_names_the_field_of_the_input(tmp_path, flags):
    doc = run_json(tmp_path, "project", "--n", "7", "--seed", "5", "--p", "101")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc["projection"]["g"]))
    again = run_json(tmp_path, "project", "--in", str(path), *flags)
    assert again["config"] == {"field": F101, "trials": 20}
    assert again["projection"] == doc["projection"]


def test_sample_config_names_the_field_of_the_input(tmp_path):
    even = input_file(tmp_path, "matrix", "random", "--m", "3", "--n", "6", "--seed", "2", "--p", "101")
    doc = run_json(tmp_path, "sample", "--in", even, "--field", "q", "--trials", "3")
    assert doc["config"] == {"field": F101, "trials": 3}
    assert doc["mode"] == "even-scroll" and len(doc["sample"]["points"]) == 3
    # an odd pencil over QQ, sampled with the default --field fp, prints its rational points
    odd = input_file(tmp_path, "matrix", "random", "--m", "3", "--n", "5", "--seed", "2", "--field", "q")
    doc = run_json(tmp_path, "sample", "--in", odd, "--seed", "1", "--trials", "2")
    assert doc["config"] == {"field": {"kind": "q"}, "seed": 1, "trials": 2}
    assert doc["all_ok"] and len(doc["points"]) == 2


def test_cohomology_single(tmp_path):
    doc = run_json(tmp_path, "cohomology", "--m", "3", "--n", "8")
    assert doc["tables"]["omega"][0] == 86
    for block in doc["agreement"].values():
        assert block["match"] and block["max_width"] == 0
    assert doc["ledger"]["delta"] == [3, 3]


def test_cohomology_grid_json_and_csv(tmp_path):
    doc = run_json(tmp_path, "cohomology", "--grid")
    assert len(doc["rows"]) == 45
    code, raw = run(tmp_path, "cohomology", "--grid", "--csv")
    assert code == 0
    lines = raw.decode().splitlines()
    assert len(lines) == 46
    assert lines[0].startswith("m,n,structure_match")
    assert lines[1] == "3,5,true,true,true,0,21,21,21,0,0,0,21,true,true,false"


def test_ledger_command(tmp_path):
    doc = run_json(tmp_path, "ledger", "--m", "3", "--n", "9")
    assert doc["ledger"]["delta"] == [27, 27]
    assert doc["ledger"]["identity_ok"] is True


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["cohomology", "--m", "2", "--n", "5"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main(["random", "--m", "3", "--n", "7"]) == 2  # no seed
    assert main(["cohomology", "--m", "3", "--n", "6", "--csv"]) == 2  # csv without grid
    bad = tmp_path / "bad.json"
    bad.write_text("{\"alphabet\": \"Y\"}")
    assert main(["correspond", "from-matrix", "--in", str(bad)]) == 2
    assert main(["correspond", "from-matrix", "--n", "5", "--seed", "1", "--p", "9"]) == 2
    assert "must be prime" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["wobble"])
    assert excinfo.value.code == 2


def test_genericity_failure_exits_three(tmp_path, capsys):
    pencil_file = tmp_path / "pointless.json"
    pencil_file.write_text(json.dumps(poly_matrix_to_json(norm_form_pencil(), "skew-linear")))
    code = main(["sample", "--m", "3", "--n", "6", "--in", str(pencil_file)])
    assert code == 3
    err = capsys.readouterr().err
    assert "NoPointsFound" in err
    assert "retry with a different prime or seed" in err


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    import skewlab.cli as cli_module

    def boom(m, n):
        raise InternalError("synthetic failure")

    monkeypatch.setattr(cli_module, "dimension_ledger", boom)
    assert main(["ledger", "--m", "3", "--n", "7"]) == 4
    assert "internal error" in capsys.readouterr().err


# Whole-output sha256 of fixed-seed runs: a change to any of these bytes
# is a change of behaviour, whatever the kernels underneath do.
PINNED_OUTPUTS = [
    # odd order, sub-Pfaffians of degree 6 >= p
    (
        ("sample", "--m", "3", "--n", "13", "--p", "5", "--seed", "1", "--trials", "3"),
        "83adde728c3be5fa4aedcb5384389fea508a8c5745b4448cd4961d284b72aebb",
    ),
    # even order, a Pfaffian of degree 4 >= p
    (
        ("sample", "--m", "3", "--n", "8", "--p", "3", "--seed", "1", "--trials", "2"),
        "71414c9b96471aef77361a4d11067e8ab9bf61f722f18ba97af863189914ef50",
    ),
    (
        ("correspond", "from-matrix", "--m", "3", "--n", "7", "--field", "q", "--seed", "1"),
        "733397bcd22b3ceb4b79b8af619c4b3072a22912e1c292af8e1d6ac1eef1a643",
    ),
    (
        ("correspond", "from-form", "--m", "3", "--n", "7", "--field", "q", "--seed", "1"),
        "da55848bc5c75b675f04a25a9b503781bb7c1482316a7a4ae37762484a19ba4c",
    ),
    # seed 1 is not generic over F_7 (exit 3)
    (
        ("correspond", "from-matrix", "--m", "3", "--n", "7", "--p", "7", "--seed", "2"),
        "6e0f8eae4d4929f4cccae7eb422fabc6c3028238b0d9d7d311339a8c48102ee3",
    ),
    (
        ("correspond", "from-form", "--m", "3", "--n", "7", "--p", "7", "--seed", "1"),
        "bd343ea79ccabede572284a23ebbfa69998b70be179b0bc35a7eeb098aa207f3",
    ),
    (
        ("project", "--n", "9", "--seed", "1"),
        "30b9355d64deb89da0e2da6da02856af605eb9236dc9893278a763f607bc3b33",
    ),
    (
        ("sample", "--m", "3", "--n", "6", "--p", "101", "--seed", "1", "--trials", "3"),
        "8b13f47c695f656e38319695a3cda184003c35e8b3a2568d44f3aaf9b0869d60",
    ),
    # odd order over QQ: integer sub-Pfaffians, rational evaluation and 3 x 3 minors
    (
        ("sample", "--m", "3", "--n", "9", "--field", "q", "--seed", "1", "--trials", "3"),
        "c9ee8c7d983eea74e52b2ec1b1d4ab771dcc1eb175a3aca043d0b7791e44ea80",
    ),
    # odd order over F_3, where the lattice needs the integer lift
    (
        ("sample", "--m", "3", "--n", "9", "--p", "3", "--seed", "1", "--trials", "3"),
        "4b658735d45d3c0c887ffdabd76c94c2fd92414cd4f311c0422e08180ccde480",
    ),
    # four coefficient layers, and their flip
    (
        ("random", "--m", "4", "--n", "7", "--seed", "5"),
        "7ce354cb0ccc632f406c62ce01263ccfcfb867b08dad6ea1d1e3ed155d5ee6ec",
    ),
    (
        ("random", "--m", "3", "--n", "6", "--field", "q", "--seed", "2"),
        "1fefd9d15f3e3d931f7a174ac6ad2a1e3ec3baf5a841a7acefcf9de1e4e6de9d",
    ),
    (
        ("cohomology", "--m", "4", "--n", "8"),
        "553e1fccb388a9669e039e794a25984d42917a9a6e983bae3a7ea7baef2abaf3",
    ),
    # the CSV header is the key order of a grid row
    (
        ("cohomology", "--grid", "--csv"),
        "e2984f1083a8718457bbdc38f45a0213e88b425ed36556fdb8b052aae47e0c22",
    ),
    (
        ("cohomology", "--grid"),
        "d686435de9ba4b435338c54517482e60b6f10ffb5a9e5c192e98678e8cb9dd1e",
    ),
    # the flagged row: its note and contracted interval
    (
        ("ledger", "--m", "4", "--n", "10"),
        "55d89569b02c4b9ddeb836bcc17d842e2775495517927162a1ffefd25779c16a",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_small_prime_sampling_output_is_pinned(tmp_path, argv, digest):
    # named after its first two cases, the small-prime sampling runs
    code, raw = run(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == digest


# Even-order sampling finds each chart line's roots, so its time grows with
# log p, not with p; the digests are those of the point-by-point scan.
@pytest.mark.parametrize(
    "p, digest",
    [
        ("32003", "590cb2678d3057c4d1fad02b39b658687aa8c0e41871f53f0181c18840e66ed7"),
        ("1000003", "b29c1d80d325cbd6a32d6bddc772590f03ae703feab8af45d3cf0bc448dc7cff"),
        ("2305843009213693951", None),
    ],
)
def test_even_sampling_over_large_primes_is_fast(tmp_path, capsys, p, digest):
    start = time.monotonic()
    code, raw = run(tmp_path, "sample", "--m", "3", "--n", "6", "--seed", "3", "--p", p)
    assert time.monotonic() - start < 2
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    doc = json.loads(raw)
    assert doc["all_ok"] and doc["sample"]["p"] == int(p)
    if digest is not None:
        assert hashlib.sha256(raw).hexdigest() == digest


# Inputs beyond MAX_ORDER: each is refused before anything is built.
OVERSIZED_ARGV = [
    ["correspond", "from-matrix", "--n", "1000001", "--seed", "1"],
    ["random", "--m", "3", "--n", "100001", "--seed", "1"],
    ["random", "--m", "42", "--n", "45", "--seed", "1"],
    ["project", "--n", "43", "--seed", "1"],
    ["sample", "--m", "3", "--n", "1001", "--seed", "1", "--trials", "1"],
    ["cohomology", "--m", "3", "--n", "2001"],
]


@pytest.mark.parametrize("argv", OVERSIZED_ARGV, ids=lambda a: "-".join(a[:3]))
def test_oversized_flags_exit_two_at_once(capsys, argv):
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert f"at most {MAX_ORDER}" in err and "Traceback" not in err


OVERSIZED_FORMS = [
    ("degree", {"nvars": 3, "degree": 10**9, "terms": [[1, [10**9, 0, 0]]]}),
    ("degree", {"nvars": 3, "degree": 200, "terms": [[1, [200 - k, k, 0]] for k in range(3)]}),
    ("nvars", {"nvars": 1000, "degree": 1, "terms": [[1, [1] + [0] * 999]]}),
]


@pytest.mark.parametrize(
    "key, form", OVERSIZED_FORMS, ids=["degree-1e9", "degree-200", "nvars-1000"]
)
def test_oversized_form_file_exits_two_at_once(tmp_path, capsys, key, form):
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(dict(form, alphabet="D", field={"kind": "fp", "p": 32003})))
    start = time.monotonic()
    assert main(["correspond", "from-form", "--in", str(form_file)]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert f"{key} must be at most {MAX_ORDER}" in err and "Traceback" not in err


def wide_form(nvars, degree):
    return {"alphabet": "D", "nvars": nvars, "degree": degree, "terms": [[1, [degree] + [0] * (nvars - 1)]]}


def wide_pencil(nvars, degree):
    return {"kind": "pencil", "alphabet": "Y", "nvars": nvars, "degree": degree, "entries": [["0"] * 3] * 3}


# nvars and degree each within MAX_ORDER, but spanning more monomials than a ternary
# form of degree MAX_ORDER: refused before a coefficient vector is allocated
WIDE_FILES = [
    (["correspond", "from-form"], wide_form(41, 41)),
    (["project"], wide_form(41, 41)),
    (["correspond", "from-form"], wide_form(12, 12)),
    (["correspond", "from-matrix"], wide_pencil(41, 41)),
    (["correspond", "from-matrix"], wide_pencil(12, 12)),
]


@pytest.mark.parametrize(
    "command, doc", WIDE_FILES, ids=["form-41", "project-41", "form-12", "pencil-41", "pencil-12"]
)
def test_file_spanning_too_many_monomials_exits_two_at_once(tmp_path, capsys, command, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(dict(doc, field={"kind": "fp", "p": 32003})))
    start = time.monotonic()
    assert main([*command, "--in", str(path)]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    expected = f"{doc['nvars']} variables in degree {doc['degree']} span more than 903 monomials"
    assert expected in err and "Traceback" not in err


def test_oversized_matrix_file_exits_two(tmp_path, capsys):
    doc = run_json(tmp_path, "random", "--m", "3", "--n", "5", "--seed", "1")
    zero_rows = [["0"] * (MAX_ORDER + 1) for _ in range(MAX_ORDER + 1)]
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(dict(doc["matrix"], entries=zero_rows)))
    capsys.readouterr()
    assert main(["sample", "--seed", "1", "--in", str(matrix_file)]) == 2
    assert "matrix order must be at most" in capsys.readouterr().err


def test_ledger_is_not_capped(tmp_path):
    # not by MAX_ORDER: the ledger has its own, larger bound
    doc = run_json(tmp_path, "ledger", "--m", "3", "--n", "1001")
    assert doc["ledger"]["identity_ok"] is True


@pytest.mark.parametrize("n", ["1000001", "1000000000"])
def test_ledger_above_its_bound_exits_two_at_once(capsys, n):
    start = time.monotonic()
    assert main(["ledger", "--m", "3", "--n", n]) == 2
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and f"--n must be at most {MAX_LEDGER_ORDER}" in err and "Traceback" not in err


def test_malformed_field_modulus_exits_two(tmp_path, capsys):
    doc = run_json(tmp_path, "correspond", "from-form", "--n", "5", "--seed", "1")
    form = dict(doc["form"], field={"kind": "fp", "p": "abc"})
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(form))
    capsys.readouterr()
    assert main(["correspond", "from-form", "--in", str(form_file)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


# Malformed input files: (command, source of a valid file, path into it,
# value written there, word the usage error names).
MALFORMED_INPUTS = [
    (["correspond", "from-form"], "form", ["nvars"], "abc", "nvars"),
    (["correspond", "from-form"], "form", ["degree"], "x", "degree"),
    (["correspond", "from-form"], "form", ["terms", 0, 1, 0], "a", "exponent"),
    (["correspond", "from-matrix"], "matrix", ["nvars"], "abc", "nvars"),
    (["correspond", "from-matrix"], "matrix", ["degree"], "x", "degree"),
    (["correspond", "from-matrix"], "matrix", ["entries"], [[1]], "string"),
    (["sample", "--seed", "1"], "matrix", ["nvars"], "abc", "nvars"),
    (["sample", "--seed", "1"], "matrix", ["degree"], "x", "degree"),
    (["sample", "--seed", "1"], "matrix", ["entries"], [[1]], "string"),
    # scalar literals: a denominator the prime divides, and an exponent
    # that Fraction would expand to ten million digits before reducing
    (["correspond", "from-form"], "form", ["terms", 0, 0], "1/32003", "scalar"),
    (["correspond", "from-matrix"], "matrix", ["entries", 0, 1], "1/32003*y0", "scalar"),
    (["sample", "--seed", "1"], "matrix", ["entries", 0, 1], "1e10000000*y0", "scalar"),
    # long tokens are clipped; a term degree past Python's 4,300 digits
    # ended in a traceback when the message printed it
    (["correspond", "from-form"], "form", ["terms", 0, 0], "7" * 5000, "characters"),
    (["correspond", "from-matrix"], "matrix", ["entries", 0, 1], f"y0^{'9' * 4300}*y0^{'9' * 4300}", "bits"),
    (["correspond", "from-matrix"], "matrix", ["kind"], "x" * 5000, "characters"),
]


def case_ids(rows):
    """``command-key`` for each row; a row whose key an earlier row used adds its word."""
    ids = []
    for command, _, path, _, word in rows:
        case = f"{command[0] if command[0] == 'sample' else command[1]}-{path[0]}"
        ids.append(f"{case}-{word}" if case in ids else case)
    return ids


@pytest.mark.parametrize(
    "command, source, path, value, word", MALFORMED_INPUTS, ids=case_ids(MALFORMED_INPUTS)
)
def test_malformed_input_file_exits_two(tmp_path, capsys, command, source, path, value, word):
    doc = run_json(tmp_path, "correspond", "from-form", "--n", "5", "--seed", "1")[source]
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    in_file = tmp_path / "in.json"
    in_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([*command, "--in", str(in_file)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and word in err and "Traceback" not in err
    assert len(err) < 300


def test_an_integer_past_the_json_digit_limit_exits_two(tmp_path, capsys):
    # json.dumps cannot write a 4,301-digit integer either, so the file is raw text
    doc = run_json(tmp_path, "correspond", "from-form", "--n", "5", "--seed", "1")["form"]
    doc["terms"][0][0] = 0
    text = json.dumps(doc).replace("[[0, ", "[[" + "7" * 4301 + ", ", 1)
    assert "7" * 4301 in text
    in_file = tmp_path / "in.json"
    in_file.write_text(text)
    capsys.readouterr()
    assert main(["correspond", "from-form", "--in", str(in_file)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "invalid JSON" in err and "Traceback" not in err


def test_a_token_of_ordinary_length_is_quoted_whole():
    assert quoted("1/5") == "'1/5'"
    assert quoted((1, 2, 3)) == "(1, 2, 3)"
    assert quoted("7" * (QUOTE_LIMIT - 2)) == repr("7" * (QUOTE_LIMIT - 2))  # the quotes count
    assert quoted("7" * 5000) == repr("7" * 5000)[:QUOTE_LIMIT] + "... (5000 characters)"


def test_skew_normalization_failure_exits_three(tmp_path, capsys):
    # d0^2 + d1^2: the skew solution is a line, but Q is singular
    form = parse_poly("d0^2 + d1^2", d_vars(), GF(101))
    form_file = tmp_path / "form.json"
    form_file.write_text(json.dumps(poly_to_json(form)))
    code, raw = run(tmp_path, "correspond", "from-form", "--in", str(form_file))
    assert code == 3 and raw == b""
    assert "SkewNormalizationFailure" in capsys.readouterr().err


def test_modulus_beyond_primality_range_exits_two(tmp_path, capsys):
    code, raw = run(
        tmp_path,
        "correspond", "from-matrix", "--n", "5", "--seed", "1",
        "--p", "3317044064679887385961981",
    )
    assert code == 2 and raw == b""
    assert "usage error" in capsys.readouterr().err


def test_trials_below_one_exit_two(tmp_path, capsys):
    for trials in ("-3", "0"):
        code, raw = run(
            tmp_path, "sample", "--m", "3", "--n", "9", "--trials", trials, "--seed", "1"
        )
        assert code == 2 and raw == b""
    assert "--trials must be at least 1" in capsys.readouterr().err


def test_trials_above_the_cap_exit_two_at_once(tmp_path, capsys):
    start = time.monotonic()
    code, raw = run(
        tmp_path, "sample", "--m", "3", "--n", "9", "--trials", "1000000000", "--seed", "1"
    )
    assert time.monotonic() - start < 1
    assert code == 2 and raw == b""
    err = capsys.readouterr().err
    assert f"--trials must be at most {MAX_TRIALS}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["correspond", "from-matrix", "--m", "4", "--n", "7", "--seed", "1"],
        ["correspond", "from-form", "--m", "2", "--n", "7", "--seed", "1"],
        ["project", "--m", "4", "--n", "7", "--seed", "1"],
    ],
    ids=lambda a: "-".join(a[:4]),
)
def test_correspond_and_project_refuse_other_m(tmp_path, capsys, argv):
    # both commands work in three base variables; another --m is not ignored
    code, raw = run(tmp_path, *argv)
    assert code == 2 and raw == b""
    assert "needs three base variables" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["correspond", "from-form", "--n", "5", "--p", "2", "--seed", "1"],
        ["project", "--n", "5", "--p", "2", "--seed", "1"],
        ["correspond", "from-form", "--n", "13", "--p", "5", "--seed", "1"],
    ],
    ids=lambda a: "-".join(a[:-2]),
)
def test_seeded_form_over_too_small_a_field_exits_two(tmp_path, capsys, argv):
    # the characteristic is checked before a form of degree n - 3 is drawn,
    # so a field too small for it is a usage error, not a failed draw
    code, raw = run(tmp_path, *argv)
    assert code == 2 and raw == b""
    err = capsys.readouterr().err
    assert "field characteristic must exceed" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "target", ["dir", "missing/x.json", "file/x.json"], ids=["directory", "no-parent", "file-parent"]
)
def test_unwritable_output_exits_two(tmp_path, capsys, target):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    out = tmp_path / target
    assert main(["random", "--m", "3", "--n", "5", "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_empty_generated_pencil_exits_two(capsys, n):
    assert main(["correspond", "from-matrix", "--n", n, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "empty polynomial matrix" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf8", "nested-too-deep"]
)
def test_undecodable_input_exits_two(tmp_path, capsys, data):
    in_file = tmp_path / "form.json"
    in_file.write_bytes(data)
    assert main(["correspond", "from-form", "--in", str(in_file)]) == 2
    err = capsys.readouterr().err
    assert f"invalid JSON in {in_file}" in err and "Traceback" not in err


# -- fuzzing the flag grammar ----------------------------------------------------

FUZZ_COMMANDS = [
    ["random"],
    ["correspond", "from-matrix"],
    ["correspond", "from-form"],
    ["project"],
    ["sample"],
    ["cohomology"],
    ["ledger"],
]
SMALL_PRIMES = ["2", "3", "5", "7", "101", "32003"]
LARGE_PRIMES = ["1000000007", "2305843009213693951"]
NOT_PRIMES = ["-7", "0", "1", "9", "561", "3317044064679887385961981"]
#: Per-example limit that catches hangs. The slowest legal invocation the
#: grammar draws, a QQ projection or correspondence at n = 9, takes about
#: 0.35 s, so the limit leaves a wide margin for a loaded host.
FUZZ_SECONDS = 10


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid form and matrix files at n = 7, a directory and a plain file."""
    root = tmp_path_factory.mktemp("fuzz")
    out = root / "seed.json"
    assert main(["correspond", "from-form", "--n", "7", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key in ("form", "matrix"):
        (root / f"{key}.json").write_text(json.dumps(doc[key], sort_keys=True, indent=2))
    (root / "dir").mkdir()
    return root


def mutate(data: bytes, edits) -> bytes:
    """Apply (kind, position, byte) edits: replace, insert or delete one byte."""
    buf = bytearray(data)
    for kind, pos, byte in edits:
        pos %= len(buf) + 1
        if kind == "insert":
            buf.insert(pos, byte)
        elif pos < len(buf):
            if kind == "replace":
                buf[pos] = byte
            else:
                del buf[pos]
    return bytes(buf)


#: Any value a flag may take, bad ones included (None leaves the flag out).
FUZZ_FLAGS = {
    "--m": st.none() | st.integers(-1, 9),
    "--n": st.none() | st.integers(-1, 9),
    "--field": st.sampled_from([None, "fp", "q"]),
    "--p": st.sampled_from([None] + SMALL_PRIMES + LARGE_PRIMES + NOT_PRIMES),
    "--seed": st.none() | st.integers(-1, 2**64),
    "--trials": st.none() | st.integers(-1, 5),
}


@st.composite
def fuzz_cases(draw):
    """argv from the flag grammar, with an --in file to write (or None).

    A valid invocation of a drawn command, so that it gets past its checks
    and runs its kernels, with up to two flags then redrawn from any value.
    """
    argv = list(draw(st.sampled_from(FUZZ_COMMANDS)))
    m = draw(st.integers(3, 5)) if argv[0] in ("random", "cohomology", "ledger") else 3
    field = draw(st.sampled_from(["fp", "fp", "q"]))
    orders = [n for n in range(m + 2, 10) if n % 2 or argv[0] != "correspond"]
    flags = {
        "--m": m,
        "--n": draw(st.sampled_from(orders)),
        "--field": field,
        "--p": draw(st.sampled_from(SMALL_PRIMES[2:])),
        "--seed": draw(st.integers(0, 9)),
        "--trials": draw(st.integers(1, 5)),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(FUZZ_FLAGS)), max_size=2, unique=True)):
        flags[flag] = draw(FUZZ_FLAGS[flag])
    for flag, value in flags.items():
        if value is not None:
            argv += [flag, str(value)]
    if argv[0] == "cohomology":
        argv += [flag for flag in ("--grid", "--csv") if draw(st.booleans())]
    source = draw(st.sampled_from([None, None, None, "form", "matrix", "missing", "dir"]))
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["replace", "insert", "delete"]),
                st.integers(0, 4000),
                st.integers(0, 255),
            ),
            max_size=3,
        )
    )
    out = draw(
        st.sampled_from([None, None, None, "out.json", "dir", "missing/out.json", "form.json/x"])
    )
    return argv, source, edits, out


def even_sample_at(p: str, n: int):
    """A fuzz case: even-order ``sample`` over the prime ``p``, which the derandomized draws never reach."""
    argv = ["sample", "--m", "3", "--n", str(n), "--field", "fp", "--p", p, "--seed", "1", "--trials", "3"]
    return argv, None, [], None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(fuzz_cases())
@example(case=even_sample_at(LARGE_PRIMES[0], 6))
@example(case=even_sample_at(LARGE_PRIMES[0], 8))
@example(case=even_sample_at(LARGE_PRIMES[1], 6))
@example(case=even_sample_at(LARGE_PRIMES[1], 8))
def test_cli_fuzz_exits_cleanly(fuzz_dir, case):
    argv, source, edits, out = case
    argv = list(argv)
    if source in ("form", "matrix"):
        in_file = fuzz_dir / "in.json"
        in_file.write_bytes(mutate((fuzz_dir / f"{source}.json").read_bytes(), edits))
        argv += ["--in", str(in_file)]
    elif source is not None:
        argv += ["--in", str(fuzz_dir / source)]
    if out is not None:
        argv += ["--out", str(fuzz_dir / out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert time.monotonic() - start < FUZZ_SECONDS, argv
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
