"""One pass of one workload in a fresh interpreter.

``run.py`` starts this script once per pass so that the process-wide
digest caches in ``repro.engine.shuffle`` and ``repro.similarity.minhash``
start cold, as they do for ``repro run`` and ``repro serve``.  It prints
one JSON object on its last stdout line.

Modes:

* ``plain``  -- the end-to-end pass: nothing added to the program.
* ``traced`` -- spans around the layer entry points (see ``spans.py``)
  and the runtime invariant sanitizer in ``collect`` mode.
* ``bare``   -- ``serve-zipf`` without the telemetry bus and analyzers,
  the base of ``obs.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "bare"), default="plain")
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() in the parent just before it started this process",
    )
    parser.add_argument("--spans", help="write the traced pass's spans here (JSONL)")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads

    recorder = None
    if args.mode == "traced":
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install(extra_modules=("workloads",))

    setup, run = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    started = time.monotonic()  # lint: allow[R001]
    setup_s = started - args.spawned_at

    sanitizer = None
    kwargs = {}
    if args.mode == "traced":
        from repro.obs.sanitize import Sanitizer

        sanitizer = Sanitizer(mode="collect")
        kwargs["sanitizer"] = sanitizer
    elif args.mode == "bare":
        kwargs["telemetry"] = False
    outcome = run(state, **kwargs)
    timed_s = time.monotonic() - started  # lint: allow[R001]
    # ru_maxrss is in KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = dict(vars(outcome))
    result.update(
        workload=args.workload,
        seed=args.seed,
        mode=args.mode,
        setup_s=setup_s,
        timed_s=timed_s,
        rss_mb=rss_mb,
    )
    if recorder is not None:
        recorder.uninstall()
        result["ledger"] = recorder.ledger()
        result["missing"] = recorder.missing(args.workload)
        result["violations"] = list(sanitizer.violations)
        result["sanitizer_checks"] = sanitizer.checks_run
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for row in recorder.rows():
                    handle.write(json.dumps(row) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
