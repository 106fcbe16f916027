"""One benchmark process: set up a workload and, for the attack role, run it.

Started by ``bench/run.py`` in a fresh interpreter with BLAS pinned to one
thread. The ``setup`` role stops once the attack is ready, so the launcher
can take the median set-up time of several fresh processes. The ``attack``
role then repeats the workload's fixed-size attack on the same inputs as
often as fits in ``--seconds``, checks the first outputs, and requires every
repeat (and, with ``--trace 1``, every traced repeat) to give the same
digest. Untraced repeats are timed under ``speed.SpeedMeter``, which reports
their wall time and that time corrected for the host's speed. It prints one
JSON object on its last line of standard output.

Only the standard library is imported before ``vflkit``, so that
``import_s`` covers numpy and scipy as a user of the package pays them.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

clock = time.perf_counter


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=["setup", "attack"], required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process started")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--src", type=Path, required=True,
                   help="directory holding the vflkit package to measure")
    return p.parse_args(argv)


def _repeat(timed_unit, seconds: float):
    """Run ``timed_unit`` as often as fits in ``seconds``, at least once,
    judging the next repeat by the last. ``timed_unit`` returns its own
    measured time and its result; returns the times and the results."""
    times, results = [], []
    deadline = clock() + seconds
    while True:
        start = clock()
        took, result = timed_unit()
        times.append(took)
        results.append(result)
        if 2 * clock() - start > deadline:
            return times, results


def _environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "") for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "seed": seed, **threads}


def _layer_metrics(stats_per_repeat, outcome, verdict) -> dict:
    """Per-unit layer metrics: span counts from the first traced repeat and
    the median self time over traced repeats."""
    names = sorted({k for stats in stats_per_repeat for k in stats})
    out = {}
    for name in names:
        first = stats_per_repeat[0].get(name)
        out[f"{name}.calls"] = first.calls if first else 0
        out[f"{name}.rows"] = first.rows if first else 0
        out[f"{name}.self_s"] = median(
            [s[name].self_s if name in s else 0.0 for s in stats_per_repeat])
    queries = out.get("protocol.joint_forward.rows", 0)
    adis = verdict.adis[0.95]
    out["attack.queries"] = queries
    out["attack.queries_per_adi"] = queries / adis if adis else 0.0
    fuzz = "fuzzer.mutate_saliency_aware.calls" in out
    mutations = outcome.mutations if fuzz else 0
    out["fuzzer.joint_forward_per_mutation"] = (
        out.get("protocol.joint_forward.calls", 0) / mutations
        if mutations else 0.0)
    out["fuzzer.adis_per_mutation"] = (
        len(outcome.candidates) / mutations if mutations else 0.0)
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(args.src))
    t = clock()
    import vflkit
    import_s = clock() - t

    import workloads
    prep, phases = workloads.set_up(args.workload, args.seed, args.workdir,
                                    clock)
    setup_s = time.monotonic() - args.spawned_at
    doc = {"setup_s": setup_s, "phases": {"import_s": import_s, **phases}}
    if args.role == "setup":
        print(json.dumps(doc))
        return 0

    def unit():
        return workloads.attack(prep)

    from speed import SpeedMeter
    meter = SpeedMeter(workloads.SPEED_KERNEL[args.workload])
    raw_times = []

    def metered_unit():
        scaled, raw, out = meter.time(unit)
        raw_times.append(raw)
        return scaled, out

    seconds = args.seconds / 2 if args.trace else args.seconds
    t = clock()
    try:
        times, outcomes = _repeat(metered_unit, seconds)
    except Exception as exc:  # reported as a failed attack, not a crash
        traceback.print_exc()
        doc.update({"attack_s": clock() - t, "attempted": len(prep.rows),
                    "failed": len(prep.rows), "problems": [f"raised {exc!r}"],
                    "env": _environment(args.seed)})
        print(json.dumps(doc))
        return 0
    digests = [workloads.digest(o) for o in outcomes]
    outcome = outcomes[0]
    verdict = workloads.check(prep, outcome)
    problems = list(verdict.problems)
    if len(set(digests)) != 1:
        problems.append(f"repeats disagree: {len(set(digests))} digests")

    doc.update({
        "digest": digests[0], "repeats": len(times), "attack_s": median(times),
        "attack_times": times, "attack_raw_s": median(raw_times),
        "attack_raw_times": raw_times, "attempted": verdict.attempted,
        "failed": verdict.failed,
        "adis": {str(k): v for k, v in verdict.adis.items()},
        "raw_hits": len(outcome.candidates), "mutations": outcome.mutations,
        "n_benign_view": int(prep.benign[0].shape[0]), "problems": problems,
        "env": _environment(args.seed),
    })
    if args.trace:
        from spans import Tracer
        tracer = Tracer(vflkit, [prep.system.coordinator.top_model])
        per_repeat = []

        def traced_unit():
            tracer.reset()
            start = clock()
            out = unit()
            took = clock() - start
            per_repeat.append(tracer.stats)
            return took, out

        with tracer:
            traced_times, traced = _repeat(traced_unit, seconds)
        traced_digests = {workloads.digest(o) for o in traced}
        if traced_digests != {digests[0]}:
            problems.append("traced run changed the outputs")
        doc["layers"] = _layer_metrics(per_repeat, outcome, verdict)
        doc["layers"]["trace.overhead"] = (median(traced_times)
                                           / doc["attack_raw_s"])
        doc["traced_repeats"] = len(traced_times)
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
