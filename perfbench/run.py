"""The skewlab benchmark: seeded CLI workloads, checked, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fp-correspond --seed 1 --seconds 35 --trace 0

It measures set-up (a fresh interpreter importing ``skewlab`` and
building the CLI parser, several times, median), then runs the workload
in one fresh child process (``worker.py``).  ``--trace 0`` reports the
end-to-end metrics of an untraced run, ``--trace 1`` the per-layer
metrics of a traced run (see ``layers.py``).  Every timing is
calibrated by a reference kernel timed next to it (see
``reference.py``); the raw timings go with the run metadata.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run metadata, which is also written with the
full result to ``perfbench/out/``.  Exits 2 without a result when the
checkout has no skewlab source, or when the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 10
# The worker stops at the pass boundary nearest to --seconds; its time
# limit allows twice that plus this, more than the longest pass of any
# workload on a slow machine.
PASS_ALLOWANCE_S = 30

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import skewlab.cli\n"
    "skewlab.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import reference\n"
    "print(t, reference.run())\n"
)


def measure_setup(src: str, repeats: int, warm_up: bool) -> list[tuple[float, float]]:
    """Import-and-parser times of ``repeats`` fresh interpreters.

    Each comes with the reference kernel's time in the same interpreter
    right after it, to calibrate it.  A warm-up run, not counted, writes
    the bytecode cache that an installed package already has, whatever
    PYTHONDONTWRITEBYTECODE says.
    """
    times = []
    for i in range(repeats + warm_up):
        env = dict(os.environ)
        if warm_up and i == 0:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, src, HERE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        if i or not warm_up:
            setup_s, kernel_s = out.stdout.split()
            times.append((float(setup_s), float(kernel_s)))
    return times


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    """HEAD of the checkout's git repository; None outside one or without git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a repository of its own, even inside another one
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "skewlab", "cli.py")):
        print(f"no skewlab source under {src}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # Half the set-up runs go before the workload and half after, so a
    # slow spell of the machine does not land on all of them.
    setup = [] if args.trace else measure_setup(src, SETUP_REPEATS, warm_up=True)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{tag}.json")]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=2 * args.seconds + PASS_ALLOWANCE_S,
        )
    except subprocess.TimeoutExpired:
        print("workload child timed out", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"workload child exited {proc.returncode}", file=sys.stderr)
        return 2
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup += measure_setup(src, SETUP_REPEATS, warm_up=False)

    if args.trace:
        chosen = child["per_layer"]
    else:
        chosen = dict(child["end_to_end"])
        calibrated = reference.calibrate([s for s, _k in setup], [k for _s, k in setup])
        chosen["setup_s"] = (statistics.median(calibrated), "s")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    raw = dict(child["raw"])
    if setup:
        raw["setup_s"] = statistics.median(s for s, _k in setup)
    attempted = child["attempted"]
    failed = child["failed"]
    samples = dict(child["samples"], setup_s=len(setup))
    meta = {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "raw": raw,
        "reference_s": child["reference_s"],
        "reference_nominal_s": reference.NOMINAL_S,
        "failed_ratio": failed / attempted,
        "failures": child["failures"],
    }
    if args.trace:
        meta["tracing"] = child["trace"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
