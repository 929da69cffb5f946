"""The pair table of ``tools/bench_pairs.py`` on synthetic runs."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_pairs():
    path = os.path.join(ROOT, "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_run(side, values):
    metrics = {name: {"value": value} for name, value in values.items()}
    return {"workload": "w", "seed": 1, "side": side, "result": {"metrics": metrics}}


def test_table_reads_each_end_to_end_bound():
    bench_pairs = load_bench_pairs()
    runs = [
        synthetic_run("parent", {"cases_per_s": 10.0, "peak_rss_mb": 20.0, "linalg.calls": 8}),
        synthetic_run("change", {"cases_per_s": 7.0, "peak_rss_mb": 20.5, "linalg.calls": 8}),
    ]
    better = {"cases_per_s": "higher", "peak_rss_mb": "lower", "linalg.calls": "lower"}
    bounds = {"cases_per_s": 0.25, "peak_rss_mb": 0.05}
    lines = bench_pairs.table(runs, better, bounds)
    assert lines[0].endswith("| median change | bound |")
    cells = {row.split(" | ")[1]: row.strip("| ").split(" | ") for row in lines[2:]}
    # 7 against 10 is 30% worse, beyond the 25% bound
    assert cells["`cases_per_s`"][-2:] == ["-30.0%", "25%: WORSE"]
    # 20.5 MB against 20 MB is 2.5% worse, inside the 5% bound
    assert cells["`peak_rss_mb`"][-2:] == ["+2.5%", "5%: ok"]
    # a per-layer metric has no bound
    assert lines[-1].endswith("| +0.0% |  |")
