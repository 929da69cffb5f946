"""Which skewlab functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules.  Every public module-level function
is wrapped under ``<layer>.<name>``; the methods ``traced_methods`` lists are
wrapped on their classes.  Functions called more than ~10^4 times in a
case only update counters (``COUNTER_ONLY``); all others also record
spans.  Per-layer metrics are totals per traced pass over the case
list.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

LAYERS = (
    "cli",
    "correspond",
    "skew",
    "rings",
    "linalg",
    "apolarity",
    "degeneracy",
    "cohomology",
    "randomness",
    "fields",
)

COUNTER_ONLY = frozenset(
    {
        "rings.HomogPoly.__mul__",
        "rings.HomogPoly.evaluate",
        "rings.dim_homog",
        "rings.mono_index",
        "rings.monomials",
    }
)


def traced_modules() -> dict:
    """Layer name -> module, plus the package namespace and ``errors``.

    The package and ``errors`` define no functions, but their
    namespaces are rebound too.
    """
    mods = {layer: importlib.import_module(f"skewlab.{layer}") for layer in LAYERS}
    mods["errors"] = importlib.import_module("skewlab.errors")
    mods["skewlab"] = importlib.import_module("skewlab")
    return mods


def traced_methods() -> list[tuple]:
    rings = importlib.import_module("skewlab.rings")
    return [
        ("rings", rings.HomogPoly, "__mul__"),
        ("rings", rings.HomogPoly, "evaluate"),
        ("rings", rings.GradedSlice, "from_polys"),
    ]


# -- probes: counts read from arguments and results ---------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_cells(tracer, args, kwargs, _result) -> None:
    mat = _arg(args, kwargs, 0, "mat")
    tracer.count("kernel_cells", mat.nrows * mat.ncols)


def _pairing_key(tracer, args, kwargs, _result) -> None:
    key = (_arg(args, kwargs, 0, "target"), _arg(args, kwargs, 1, "op_degree"))
    seen = tracer.case_state.setdefault("pairings", set())
    if key not in seen:
        seen.add(key)
        tracer.count("pairing_unique")


def _scroll_scan(tracer, _args, _kwargs, result) -> None:
    tracer.count("scan_kept", len(result.points))
    tracer.count("scan_scanned", result.scanned)


def _param_skips(tracer, _args, _kwargs, result) -> None:
    points, skipped = result
    tracer.count("param_kept", len(points))
    tracer.count("param_skipped", skipped)


PROBES = {
    "linalg.kernel_basis": _kernel_cells,
    "apolarity.pairing_matrix": _pairing_key,
    "degeneracy.even_scroll_sample": _scroll_scan,
    "degeneracy.parametrization_points": _param_skips,
}


def make_tracer() -> Tracer:
    return Tracer(counter_only=COUNTER_ONLY, probes=PROBES)


# -- metrics ------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, as ``name -> (value, unit)``."""
    calls = tracer.calls
    self_s = tracer.self_s
    edges = tracer.edges
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def per_pass_s(name: str, value: float) -> None:
        out[name] = (value / passes, "s")

    def per_pass_count(name: str, value: float) -> None:
        out[name] = (value / passes, "count")

    for layer in LAYERS:
        prefix = layer + "."
        per_pass_s(f"{layer}.self_s", sum(v for k, v in self_s.items() if k.startswith(prefix)))
        per_pass_count(f"{layer}.calls", sum(v for k, v in calls.items() if k.startswith(prefix)))

    for metric, fn in (
        ("correspond.matrix_to_form.self_s", "correspond.matrix_to_form"),
        ("correspond.form_to_matrix.self_s", "correspond.form_to_matrix"),
        ("skew.sub_pfaffians.self_s", "skew.sub_pfaffians"),
        ("skew.pfaffian_poly.self_s", "skew.pfaffian_poly"),
        ("rings.mul.self_s", "rings.HomogPoly.__mul__"),
        ("rings.slice.self_s", "rings.GradedSlice.from_polys"),
        ("linalg.kernel_basis.self_s", "linalg.kernel_basis"),
        ("linalg.column_space_canonical.self_s", "linalg.column_space_canonical"),
        ("apolarity.hilbert_function.self_s", "apolarity.hilbert_function"),
        ("apolarity.dual_socle_generator.self_s", "apolarity.dual_socle_generator"),
        ("degeneracy.even_scroll_sample.self_s", "degeneracy.even_scroll_sample"),
        ("cohomology.grid_rows.self_s", "cohomology.grid_rows"),
    ):
        per_pass_s(metric, self_s.get(fn, 0.0))

    for metric, fn in (
        ("skew.evaluate_matrix.calls", "skew.evaluate_matrix"),
        ("rings.mul.calls", "rings.HomogPoly.__mul__"),
        ("rings.evaluate.calls", "rings.HomogPoly.evaluate"),
        ("linalg.rank.calls", "linalg.rank"),
        ("linalg.det.calls", "linalg.det"),
        ("apolarity.pairing_matrix.calls", "apolarity.pairing_matrix"),
        ("degeneracy.incidence_check.calls", "degeneracy.incidence_check"),
        ("cohomology.koszul_chase.calls", "cohomology.koszul_chase"),
    ):
        per_pass_count(metric, calls.get(fn, 0))

    per_pass_count("linalg.kernel_basis.cells", counters.get("kernel_cells", 0))
    out["correspond.det_tries"] = (
        _ratio(
            edges.get(("correspond.form_to_matrix", "linalg.det"), 0),
            calls.get("correspond.form_to_matrix", 0),
        ),
        "ratio",
    )
    out["apolarity.pairing_unique_ratio"] = (
        _ratio(counters.get("pairing_unique", 0), calls.get("apolarity.pairing_matrix", 0)),
        "ratio",
    )
    out["degeneracy.scan_hit_ratio"] = (
        _ratio(counters.get("scan_kept", 0), counters.get("scan_scanned", 0)),
        "ratio",
    )
    drawn = counters.get("param_kept", 0) + counters.get("param_skipped", 0)
    out["degeneracy.param_skip_ratio"] = (
        _ratio(counters.get("param_skipped", 0), drawn),
        "ratio",
    )
    out["randomness.form_draws"] = (
        _ratio(
            edges.get(("randomness.random_nondegenerate_dual_form", "randomness.random_form"), 0),
            calls.get("randomness.random_nondegenerate_dual_form", 0),
        ),
        "ratio",
    )
    return out
