"""The repository benchmark: one workload, timed repetitions, checked output.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz --seed 0 --seconds 30 --trace 0

Workloads (see ``WORKLOADS.md``): ``tables``, ``scalar_sweep``,
``vector_sweep`` and ``fuzz``.  Every repetition runs in a fresh
interpreter (``worker.py``), one at a time, so in-process caches start
cold as they do for a CLI call.  Repetitions continue until
``--seconds`` would be exceeded, with at least three (one traced pair
with ``--trace 1``).

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions: ``setup_s`` (fresh interpreter to inputs ready),
``wall_s`` (the workload's command), ``items_per_s`` (sweep runs,
table rows or fuzz golden stimulus operations per second) and
``peak_rss_mb``.  ``setup_s`` is at the reference host speed (see
:func:`speed_factor`), and so are the command's times on workloads
whose command is pure Python (``scale_wall`` in ``workloads.py``); the
summary lines add the unscaled median wall time and the median gauge
time.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead_s`` (traced minus untraced median
wall); every traced repetition must reproduce the untraced payload
digest, fallback and skip counts.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output check passed, 1 when one failed (the result is still
printed), and 2 without a result when the checkout lacks the sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import unit_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Files of the checkout the workers import.
REQUIRED = (
    os.path.join("src", "repro", "__init__.py"),
    os.path.join("benchmarks", "_harness.py"),
)

#: ``worker.reference_loop``'s time on a quiet 2-vCPU Xeon host at
#: 2.1 GHz; times are reported at that host speed.
REFERENCE_S = 0.17

MIN_REPS = 3
MIN_TRACED_PAIRS = 1
#: Hard per-repetition limit; the slowest workload takes about 10 s.
REP_TIMEOUT_S = 120.0


class RepetitionFailed(RuntimeError):
    """A worker crashed or timed out (a benchmark defect, not a result)."""


def git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_repetition(
    workload: str, seed: int, traced: bool, env: Dict[str, str]
) -> Dict[str, Any]:
    started = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--t0", repr(started),
    ]
    if traced:
        command.append("--trace")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise RepetitionFailed(
            f"{workload} repetition exceeded {REP_TIMEOUT_S:.0f} s"
        ) from error
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepetitionFailed(
            f"{workload} worker exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    env: Dict[str, str],
) -> List[Dict[str, Any]]:
    """Repetitions (traced ones interleaved) until ``seconds`` is spent.

    A new block (one repetition, or an untraced/traced pair) starts
    only if the previous block's duration still fits, so a run ends
    close to ``seconds`` instead of overshooting by a repetition.
    """
    minimum = MIN_TRACED_PAIRS if trace else MIN_REPS
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    blocks = 0
    while True:
        block_started = time.monotonic()
        reps.append(run_repetition(workload, seed, False, env))
        if trace:
            reps.append(run_repetition(workload, seed, True, env))
        blocks += 1
        now = time.monotonic()
        if blocks >= minimum and now - started + (now - block_started) > seconds:
            break
    return reps


def speed_factor(rep: Dict[str, Any]) -> float:
    """What turns one of ``rep``'s times into one at the reference
    host speed.

    The shared host's speed drifts: the same pure-Python repetition has
    taken 1.8 times as long for minutes at a time.  Each repetition
    times ``worker.reference_loop`` just before and after its command;
    the factor is :data:`REFERENCE_S` over the mean of the two.
    """
    return REFERENCE_S / rep["reference_s"]


def summarize(
    reps: List[Dict[str, Any]], trace: bool, scale_wall: bool
) -> Dict[str, Any]:
    """Metrics, counts and problems of one run's repetitions.

    ``setup_s`` is always scaled by :func:`speed_factor`; the command's
    times (``wall_s``, ``items_per_s``, per-layer times and
    ``trace.overhead_s``) only when ``scale_wall`` is set.
    """
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    problems = sorted({p for rep in reps for p in rep["problems"]})
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for field in ("digest", "fallback_runs", "skipped_runs"):
        values = {rep[field] for rep in reps}
        if len(values) > 1:
            problems.append(
                f"{field} differs between repetitions"
                + (" (traced vs untraced)" if trace else "")
                + f": {sorted(map(str, values))}"
            )
            failed = attempted

    def command_factor(rep: Dict[str, Any]) -> float:
        return speed_factor(rep) if scale_wall else 1.0

    median = statistics.median
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        for name in traced[0]["layers"]:
            unit = unit_of(name)
            metrics[name] = {
                "value": median(
                    rep["layers"][name] * (
                        command_factor(rep) if unit in ("s", "ns") else 1
                    )
                    for rep in traced
                ),
                "unit": unit,
            }
        metrics["trace.overhead_s"] = {
            "value": median(rep["wall_s"] * command_factor(rep)
                            for rep in traced)
            - median(rep["wall_s"] * command_factor(rep)
                     for rep in untraced),
            "unit": "s",
        }
    else:
        walls = [rep["wall_s"] * command_factor(rep) for rep in untraced]
        values = {
            "setup_s": [rep["setup_s"] * speed_factor(rep)
                        for rep in untraced],
            "wall_s": walls,
            "items_per_s": [rep["work"] / wall
                            for rep, wall in zip(untraced, walls)],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": median(values[name]), "unit": unit}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [path for path in REQUIRED
               if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    tmp_dir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    )
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp_dir  # the fuzz service identity's throwaway stores
    try:
        reps = measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), env)
    except RepetitionFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_dir))
        except OSError:
            pass

    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    from _harness import machine_info

    workload = WORKLOADS[args.workload]
    summary = summarize(reps, bool(args.trace), workload.scale_wall)
    provenance = dict(reps[0]["provenance"])
    provenance.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "git_commit": git_commit(ROOT),
        "machine": machine_info(),
    })
    fraction = summary["failed"] / summary["attempted"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"repetitions={len(reps)} ({workload.item})")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<38} {metric['value']:.6g} {metric['unit']}")
    untraced = [rep for rep in reps if not rep["traced"]]
    print(f"  {'unscaled wall_s, median of ' + str(len(untraced)):<38} "
          f"{statistics.median(rep['wall_s'] for rep in untraced):.6g} s")
    print(f"  {'reference loop, median':<38} "
          f"{statistics.median(rep['reference_s'] for rep in untraced):.6g} s "
          + (f"(times scaled to {REFERENCE_S} s)" if workload.scale_wall
             else f"(setup_s scaled to {REFERENCE_S} s)"))
    print(f"  {'work per repetition':<38} {reps[0]['work']} {workload.work}")
    print(f"  {'failed_frac':<38} {fraction:.6g} "
          f"({summary['failed']}/{summary['attempted']} {workload.item})")
    for problem in summary["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
