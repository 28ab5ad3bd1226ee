"""One timed repetition of a workload, in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` naming the checkout's
``src`` and ``benchmarks`` directories::

    python3 perfbench/worker.py --workload NAME --seed N --t0 T [--trace]

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` runs from the
fresh interpreter to inputs ready: start-up, imports, input generation.
The command itself is timed with ``_harness.timed``, between two
timings of :func:`reference_loop` that gauge the host's speed; peak
RSS is read right after it, before the output check.  With
``--trace`` the layer spans of ``tracer.py`` are installed before input
generation and removed before the check.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

#: Iterations of :func:`reference_loop`.
REFERENCE_ITERATIONS = 1_000_000


def reference_loop() -> int:
    """Fixed pure-Python work that gauges the host's current speed.

    It uses nothing from the repository, so no change to the program
    can move it, and it allocates next to nothing, so it leaves the
    peak RSS alone; ``run.py`` scales times by it (``speed_factor``).
    """
    table = [0] * 1024
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + table[(i * 7) & 1023] + i) & 0xFFFFF
        table[i & 1023] = acc
    return acc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from _harness import timed
    from workloads import WORKLOADS, load_expected

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer()
        golden_before = install(tracer)
    with timed() as prepare:
        inputs = workload.prepare(args.seed)
    setup_s = time.monotonic() - args.t0
    with timed() as reference_before:
        reference_loop()
    with timed() as wall:
        output = workload.run(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with timed() as reference_after:
        reference_loop()
    layers = None
    if tracer is not None:
        layers = layer_metrics(
            tracer, golden_before, prepare.seconds + wall.seconds
        )
        tracer.uninstall()
    outcome = workload.check(inputs, output, args.seed, load_expected())
    json.dump({
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall.seconds,
        "reference_s": (reference_before.seconds
                        + reference_after.seconds) / 2,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "work": outcome.work,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": outcome.digest,
        "fallback_runs": outcome.fallback_runs,
        "skipped_runs": outcome.skipped_runs,
        "provenance": outcome.provenance,
        "layers": layers,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
