"""Attack benchmark for vflkit: one workload per invocation.

    python3 bench/run.py --workload fuzz-credit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is measured from ``src/``.
Every measurement runs in a fresh worker process (``bench/worker.py``) with
BLAS pinned to one thread, one worker at a time. With ``--trace 0`` the
launcher starts two set-up-only workers and one attack worker, reports the
median set-up time of the three, and prints the end-to-end metrics. With
``--trace 1`` one attack worker times the attack untraced, then traced, and
the launcher prints the per-layer metrics, including the tracing overhead.
The report lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 a result was printed (``correct`` may still be false), 1 a
worker failed or timed out, 2 the checkout holds no ``src/vflkit``. On
SIGTERM the launcher kills its worker and waits for it before exiting.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fuzz-credit", "whitebox-digits", "blackbox-digits")
SETUP_SAMPLES = 3
# The workers' wall-clock deadline is this allowance for set-ups and checks
# plus twice --seconds: a traced attack overshoots its two half windows by
# at most one repeat each.
SETUP_ALLOWANCE_S = 120.0

END_TO_END = (
    ("setup_s", "s"), ("attack_s", "s"), ("adis_per_s", "1/s"),
    ("mutations_per_s", "1/s"), ("success_rate", "fraction"),
    ("success_rate_99", "fraction"), ("peak_rss_mb", "MB"),
)
_SPAN = {"calls": "count", "rows": "count", "self_s": "s"}
PER_LAYER = tuple(
    [(f"setup.{p}", "s") for p in
     ("import_s", "data_s", "train_s", "checkpoint_s", "calibrate_s")]
    + [(f"{span}.{field}", _SPAN[field]) for span, fields in (
        ("model.as_matrix", ("calls", "self_s")),
        ("model.forward.local", ("calls", "rows", "self_s")),
        ("model.forward.top", ("calls", "self_s")),
        ("model.backward.local", ("calls", "self_s")),
        ("model.backward.top", ("calls", "self_s")),
        ("protocol.joint_forward", ("calls", "rows", "self_s")),
        ("protocol.joint_backward", ("calls", "self_s")),
        ("fuzzer.mutate_saliency_aware", ("calls", "self_s")),
        ("fuzzer.compute_mask", ("calls", "self_s")),
        ("fuzzer.is_adi", ("calls", "self_s")),
        ("fuzzer.reduce_saliency", ("calls", "self_s")),
        ("synthesis.JointEvaluator.init", ("calls", "self_s")),
        ("synthesis.JointEvaluator.probs_for", ("calls", "self_s")),
        ("synthesis.adi_generate", ("calls", "self_s")),
        ("assessment.success_rate", ("self_s",)),
        ("synthesis.fdm_gradient", ("calls", "rows", "self_s")),
    ) for field in fields]
    + [("fuzzer.joint_forward_per_mutation", "calls/mutation"),
       ("fuzzer.adis_per_mutation", "adis/mutation"),
       ("attack.queries", "rows"), ("attack.queries_per_adi", "rows/adi"),
       ("trace.overhead", "ratio")]
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class WorkerError(RuntimeError):
    pass


def _worker(role: str, args, workdir: Path, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--src", str(ROOT / "src"),
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{role} worker timed out") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _end_to_end(attack: dict, setups: list[float]) -> dict:
    attack_s = attack["attack_s"]
    attempted = attack["attempted"]
    adis95 = attack.get("adis", {}).get("0.95", 0)
    return {
        "setup_s": statistics.median(setups),
        "attack_s": attack_s,
        "adis_per_s": adis95 / attack_s,
        "mutations_per_s": attack.get("mutations", 0) / attack_s,
        "success_rate": adis95 / attempted,
        "success_rate_99": attack.get("adis", {}).get("0.99", 0) / attempted,
        "peak_rss_mb": attack.get("peak_rss_mb", 0.0),
    }


def _per_layer(attack: dict) -> dict:
    phases = {f"setup.{k}": v for k, v in attack["phases"].items()}
    layers = {**attack.get("layers", {}), **phases}
    return {name: layers.get(name, 0) for name, _ in PER_LAYER}


def run(args) -> tuple[dict, list[float]]:
    """The attack worker's result and every set-up time measured."""
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + 2 * args.seconds
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker("setup", args, workdir,
                                      deadline)["setup_s"])
        attack = _worker("attack", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(attack["setup_s"])
    return attack, setups


def report(args, attack: dict, setups: list[float]) -> dict:
    """Print the report lines; return the result object."""
    problems = attack.get("problems", [])
    env = attack.get("env", {})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {_fmt(args.seconds)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = dict(END_TO_END + PER_LAYER)
    if args.trace:
        metrics = _per_layer(attack)
        print(f"traced repeats {attack.get('traced_repeats', 0)}, untraced "
              f"repeats {attack.get('repeats', 0)}")
    else:
        metrics = _end_to_end(attack, setups)
        print(f"setup samples {len(setups)}: "
              + " ".join(f"{s:.4f}" for s in setups))
        print(f"attack repeats {attack.get('repeats', 0)}, s at reference "
              "speed: " + " ".join(f"{t:.4f}" for t in
                                   attack.get("attack_times", [])))
        print("  wall s: " + " ".join(
            f"{t:.4f}" for t in attack.get("attack_raw_times", [])))
    for name, value in metrics.items():
        print(f"  {name:<40} {_fmt(value):>14} {units[name]}")
    attempted, failed = attack["attempted"], attack["failed"]
    print(f"  {'error_rate':<40} {_fmt(failed / attempted):>14} fraction")
    print(f"rows attempted {attempted}, failed {failed}; distinct ADIs "
          f"{attack.get('adis')} from {attack.get('raw_hits')} emitted "
          f"candidates; {attack.get('mutations')} mutations")
    print("check " + ("ok: every candidate re-verified on "
                      f"{attack.get('n_benign_view')} benign rows"
                      if not problems else "FAILED: " + "; ".join(problems)))
    print(f"digest sha256:{attack.get('digest')}")
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills the worker.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "vflkit" / "__init__.py").is_file():
        print(f"no vflkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src" / "vflkit", BENCH):
        compileall.compile_dir(path, quiet=1)
    try:
        attack, setups = run(args)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, attack, setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
