"""One workload run, in a fresh process: a closed loop with one client.

Runs whole passes over the workload's case list, calling
``skewlab.cli.main(argv)`` in-process and checking every case's output.
Each pass draws new inputs for the same cases.  Passes stop at the pass
boundary nearest to ``--seconds``, after two passes at least.

Every case time is calibrated by the reference kernel of
``reference.py``, timed after each case, so that the host's changes of
speed cancel out.  A case's time is its median over passes.
``cases_per_s`` is the number of cases over the sum of those times,
scaled by the share of cases that verified; ``case_geomean_s`` is their
geometric mean over the case list and ``largest_case_s`` their median
over the cases of the largest order n.  The geometric mean, not the
median, stands for a typical case: the case list mixes orders and
commands, and the case at its middle changes from seed to seed, which
makes the median jump.  The same timings before calibration go with the
result as ``raw``.

With ``--trace 1`` passes alternate untraced, traced, untraced, ...:
per-layer metrics come from the traced passes and the tracing overhead
from the ratio of traced to untraced case times.

Prints one JSON object: timings, failures, peak RSS and, when traced,
per-layer metrics.  ``run.py`` starts this script; it is not meant to
be run by hand.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def _import_skewlab():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import skewlab
    from skewlab import cli

    if not os.path.abspath(skewlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"skewlab imported from {skewlab.__file__}, not {src}")
    return cli


def skewlab_caches() -> list:
    """Every ``lru_cache`` bound in a loaded skewlab module.

    A CLI invocation is a fresh process, so it starts with these empty;
    the benchmark empties them before each case to match.  Look them up
    before a tracer is installed: its wrappers hide ``cache_clear``.
    """
    caches = {}
    for name, mod in list(sys.modules.items()):
        if name == "skewlab" or name.startswith("skewlab."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    caches[id(obj)] = obj
    return list(caches.values())


def run_cases(cli, cases, expected: dict, seconds: float, tracing=None) -> dict:
    """Closed loop in whole passes; ``cases(p)`` lists pass ``p``'s ``(Case, argv)`` pairs.

    Every pass has the same cases in the same order, with new inputs.
    ``cli.main`` is looked up per call, so an installed tracer sees it.
    ``expected`` maps an argv, joined by spaces, to its stdout digest.
    ``tracing`` is ``(tracer, modules, methods)`` for a traced run, whose
    passes alternate untraced and traced, or None.  Untraced passes time
    the reference kernel after every case, to calibrate the case times.
    """
    tracer, modules, methods = tracing or (None, None, None)
    caches = skewlab_caches()
    kinds = [case for case, _argv in cases(0)]
    largest = max(case.n for case in kinds)
    # Untraced case times in run order, the case's index and the
    # reference kernel's time right after it.
    timed: list[tuple[int, float, float]] = []
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    verified = 0
    attempted = 0
    failures: list[str] = []
    unaccounted: list[tuple[float, float]] = []
    # Two passes at least: a traced run needs an untraced pass to
    # compare with.
    min_passes = 2
    started = time.perf_counter()
    while True:
        done = len(pass_s[False]) + len(pass_s[True])
        traced = tracer is not None and len(pass_s[False]) > len(pass_s[True])
        if traced:
            tracer.install(modules, methods)
        case_total = 0.0
        for i, (case, argv) in enumerate(cases(done)):
            # Each CLI invocation starts as a fresh process would: with
            # empty caches and no garbage left by the one before (without
            # this the previous case's cyclic Pfaffian memo lives on into
            # the next case).
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            attempted += 1
            if traced:
                tracer.start_case(attempted)
            rc, stdout, error, secs = workloads.run_case(cli.main, argv)
            case_total += secs
            key = " ".join(argv)
            reason = workloads.verify(case, rc, stdout, error, expected.get(key))
            if reason is not None:
                failures.append(f"{key}: {reason}")
            if traced:
                unaccounted.append((secs, secs - tracer.case_self_s))
            else:
                verified += reason is None
                timed.append((i, secs, reference.run()))
        pass_s[traced].append(case_total)
        if traced:
            tracer.uninstall()
        done += 1
        elapsed = time.perf_counter() - started
        # Whole passes keep the case mix fixed; stop at the pass boundary
        # nearest to the time budget.
        if done >= min_passes and elapsed + elapsed / done / 2 > seconds:
            break

    # A case's time is its median over passes, each time calibrated by
    # the reference kernel timed around it (see ``reference.py``).
    calibrated = reference.calibrate([s for _i, s, _r in timed], [r for _i, _s, r in timed])
    case_s: list[list[float]] = [[] for _ in kinds]
    raw_s: list[list[float]] = [[] for _ in kinds]
    for (i, secs, _r), cal in zip(timed, calibrated):
        case_s[i].append(cal)
        raw_s[i].append(secs)
    per_case = [statistics.median(times) for times in case_s]
    raw_case = [statistics.median(times) for times in raw_s]
    is_largest = [case.n == largest for case in kinds]
    plain_attempts = len(kinds) * len(pass_s[False])
    verified_share = verified / plain_attempts

    def end_to_end(times):
        return {
            "cases_per_s": (verified_share * len(kinds) / sum(times), "1/s"),
            "case_geomean_s": (statistics.geometric_mean(times), "s"),
            "largest_case_s": (statistics.median(t for t, big in zip(times, is_largest) if big), "s"),
        }

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": dict(
            end_to_end(per_case),
            peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        ),
        # The same timings before calibration, and the reference
        # kernel's median time over the run.
        "raw": {name: value for name, (value, _unit) in end_to_end(raw_case).items()},
        "reference_s": statistics.median(r for _i, _s, r in timed),
        # Cases behind each timing; each case's time is the median of
        # ``passes`` runs of it, each on other inputs.
        "samples": {
            "passes": len(pass_s[False]),
            "cases_per_s": len(kinds),
            "case_geomean_s": len(kinds),
            "largest_case_s": sum(is_largest),
            "largest_order": largest,
        },
    }
    if tracer is not None:
        traced_passes = len(pass_s[True])
        per_layer = layers.layer_metrics(tracer, traced_passes)
        traced_rate = len(kinds) * traced_passes / sum(pass_s[True])
        plain_rate = len(kinds) * len(pass_s[False]) / sum(pass_s[False])
        per_layer["trace.traced_cases_per_s"] = (traced_rate, "1/s")
        per_layer["trace.untraced_cases_per_s"] = (plain_rate, "1/s")
        per_layer["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
        result["per_layer"] = per_layer
        result["samples"]["traced_passes"] = traced_passes
        result["trace"] = {
            "case_wall_and_unaccounted_s": unaccounted,
            "spans": len(tracer.spans),
        }
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path: str | None) -> dict:
    cli = _import_skewlab()
    cases = functools.partial(workloads.case_argvs, workload, seed)
    expected = workloads.load_digests(workload) if seed == workloads.DEFAULT_SEED else {}
    tracing = None
    if trace:
        tracing = (layers.make_tracer(), layers.traced_modules(), layers.traced_methods())
    result = run_cases(cli, cases, expected, seconds, tracing)
    if trace:
        unaccounted = result["trace"].pop("case_wall_and_unaccounted_s")
        result["trace"]["max_unaccounted_s"] = max(abs(u) for _w, u in unaccounted)
        if spans_path:
            tracing[0].write_spans(spans_path, {"workload": workload, "seed": seed})
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write traced spans here as JSON")
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
