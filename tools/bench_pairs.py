"""Run the skewlab benchmark on two checkouts in alternating pairs.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --label pr9 \\
        --workloads fp-correspond qq-correspond locus-ledger --seeds 1-10

For every workload and seed it runs ``perfbench/run.py`` of both
checkouts, one after the other, the parent first on odd seeds and the
change first on even ones, each for ``BENCHMARK.json``'s ``run_seconds``.
Every run's record (the run metadata and the result line) goes to
``BENCH_<label>.json`` in the current directory, and the table printed
at the end gives, per workload and metric, each side's q1 / median / q3,
the number of pairs the change won (ties count for neither side), the
change of the median and, for an end-to-end metric, its bound and
whether the change's median is worse than the parent's by more than it.
A metric's better direction and bound are read from the change's
``BENCHMARK.json``.  Standard library only; each checkout needs its own
``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metadata and result."""
    cmd = [
        sys.executable,
        os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"meta": json.loads(meta_line)["meta"], "result": json.loads(result_line)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def table(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> list[str]:
    """Markdown rows: per workload and metric, both sides' quartiles and the wins.

    The bound column reads ``25%: ok`` for an end-to-end metric whose
    change median is within its bound of the parent's, ``25%: WORSE``
    when it is worse by more, and is empty for a per-layer metric.
    """
    lines = [
        "| workload | metric | parent q1 / median / q3 | change q1 / median / q3 "
        "| change better | median change | bound |",
        "|---|---|---|---|---|---|---|",
    ]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for workload in workloads:
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        if not pairs:
            continue
        names = [n for n in next(iter(pairs.values()))["change"] if n in better]
        for name in names:
            vals = {
                side: [p[side][name]["value"] for p in pairs.values() if name in p[side]]
                for side in SIDES
            }
            sign = 1 if better[name] == "higher" else -1
            wins = sum(
                sign * (p["change"][name]["value"] - p["parent"][name]["value"]) > 0
                for p in pairs.values()
            )
            qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
            delta = f"{(qc[1] / qp[1] - 1) * 100:+.1f}%" if qp[1] else "n/a"
            bound = ""
            if name in bounds and qp[1]:
                worse = sign * (qc[1] / qp[1] - 1) < -bounds[name]
                bound = f"{bounds[name]:.0%}: {'WORSE' if worse else 'ok'}"
            lines.append(
                f"| {workload} | `{name}` | {' / '.join(f'{v:.4g}' for v in qp)} "
                f"| {' / '.join(f'{v:.4g}' for v in qc)} | {wins}/{len(pairs)} | {delta} "
                f"| {bound} |"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,3,5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    trees = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out_path = f"BENCH_{args.label}.json"
    runs: list[dict] = []
    for workload in args.workloads:
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                record = run_once(trees[side], workload, seed, seconds, args.trace)
                runs.append({"workload": workload, "seed": seed, "side": side, **record})
                metrics = record["result"]["metrics"]
                shown = metrics.get("cases_per_s") or next(iter(metrics.values()))
                print(f"{workload} seed {seed} {side}: {shown['value']:.4g}", file=sys.stderr)
                with open(out_path, "w", encoding="utf-8") as fh:
                    json.dump({"seconds": seconds, "trace": args.trace, "runs": runs}, fh, indent=1)
    print("\n".join(table(runs, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
