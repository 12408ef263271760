"""The repository benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload batch-qct --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (``worker.py``).  A run pools one
input drawn from ``--seed`` and the workload's reference inputs, repeats
the drawn input to check that a fresh process gives bit-identical sim
outputs, and keeps repeating inputs while ``--seconds`` allows.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` pairs each
input's untraced pass with a traced one (spans around the layer entry
points, runtime sanitizer on) and prints the per-layer ledger.  Metric
units, clocks and the layer -> end-to-end predictions are in
``metrics.json``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import failed_count, median, percentile, tail_percentile  # noqa: E402

#: Reference inputs (seeds 1..n) every run measures besides the one drawn
#: from ``--seed``.  Sim outputs move a lot from one input to the next
#: (p50 QCT by 12-28%, serve-zipf's tail by ~40%, host work by up to 2x,
#: over 10-30 seeds); the shared reference inputs keep runs with different
#: seeds comparable, and the panel sizes keep a run near 30 s.
PANEL = {"batch-qct": 2, "dynamic-replan": 3, "serve-zipf": 5}
#: The drawn input's seed is DRAWN_BASE + --seed, clear of the panel.
DRAWN_BASE = 1000
#: Wall limit of one pass before the run is abandoned; with the passes
#: before it, a run still ends well inside 180 s.
PASS_TIMEOUT_S = 120.0
#: BLAS/OpenMP threads, pinned so that host metrics do not depend on them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SPAN_DIR = os.path.join(ROOT, ".perfbench")


def input_seeds(workload: str, seed: int) -> List[int]:
    """The run's inputs: the drawn one first, then the reference panel."""
    return [DRAWN_BASE + seed] + list(range(1, PANEL[workload] + 1))


def load_definitions() -> Dict:
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as handle:
        return json.load(handle)


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, mode: str) -> Dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if mode == "traced":
        os.makedirs(SPAN_DIR, exist_ok=True)
        command += [
            "--spans", os.path.join(SPAN_DIR, f"spans-{workload}-{seed}.jsonl")
        ]
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    command += ["--spawned-at", repr(time.monotonic())]  # lint: allow[R001]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(
            f"{workload} seed {seed} ({mode}) ran past {PASS_TIMEOUT_S:.0f} s"
        ) from None
    if done.returncode != 0:
        raise PassFailed(
            f"{workload} seed {seed} ({mode}) exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------


def schedule(workload: str, seed: int, seconds: float) -> List[Dict]:
    """Untraced passes: every input once, the drawn input again (the
    repetition check), then more repetitions while ``seconds`` allows."""
    seeds = input_seeds(workload, seed)
    order = seeds + seeds[:1]
    passes: List[Dict] = []
    started = time.monotonic()  # lint: allow[R001]
    while True:
        if len(passes) >= len(order):
            elapsed = time.monotonic() - started  # lint: allow[R001]
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        current = order[len(passes)] if len(passes) < len(order) else seeds[
            (len(passes) - len(order) + 1) % len(seeds)
        ]
        passes.append(run_pass(workload, current, "plain"))
    return passes


def traced_schedule(workload: str, seed: int, seconds: float) -> List[Dict]:
    """For each input in turn while ``seconds`` allows (the drawn input at
    least): an untraced pass, a traced pass, and on serve-zipf a pass
    without telemetry."""
    modes = ["plain", "traced"] + (["bare"] if workload == "serve-zipf" else [])
    passes: List[Dict] = []
    started = time.monotonic()  # lint: allow[R001]
    for done, current in enumerate(input_seeds(workload, seed), start=1):
        for mode in modes:
            passes.append(run_pass(workload, current, mode))
        elapsed = time.monotonic() - started  # lint: allow[R001]
        if elapsed * (done + 1) / done > seconds:
            break
    return passes


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

SIM_FIELDS = (
    "offered", "executed", "cached", "shed", "aborted", "check_failed",
    "errors", "claims", "qcts", "slo_met", "slo_offered", "wan_bytes",
    "bohr_mean_qct", "iridium_c_mean_qct", "digest",
)


def check_repeats(passes: List[Dict]) -> List[str]:
    """Sim outputs of every repetition of an input must match the first
    pass of that input bit for bit (the analyzers' digest too, among
    passes that ran them)."""
    first: Dict[int, Dict] = {}
    first_obs: Dict[int, str] = {}
    problems = []
    for result in passes:
        seed = result["seed"]
        reference = first.setdefault(seed, result)
        diverged = [
            name for name in SIM_FIELDS
            if result is not reference and result[name] != reference[name]
        ]
        if result["obs_digest"]:
            expected = first_obs.setdefault(seed, result["obs_digest"])
            if result["obs_digest"] != expected:
                diverged.append("obs_digest")
        result["diverged"] = bool(diverged)
        if diverged:
            problems.append(
                f"seed {seed} ({result['mode']}): {', '.join(diverged)} differ "
                "from the first pass of the same input"
            )
    return problems


def account(passes: List[Dict]) -> Dict[str, int]:
    attempted = failed = 0
    for result in passes:
        attempted += result["offered"]
        failed += failed_count(
            result["offered"], result["shed"], result["aborted"],
            result["check_failed"], result["diverged"],
        )
    return {"attempted": attempted, "failed": failed}


def distinct_inputs(passes: List[Dict]) -> List[Dict]:
    seen = {}
    for result in passes:
        seen.setdefault(result["seed"], result)
    return list(seen.values())


def end_to_end(passes: List[Dict]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end metrics of a run of untraced passes, and figures
    printed beside them (the tail's percentiles and sample counts, the
    Bohr / Iridium-C ratio on batch-qct)."""
    inputs = distinct_inputs(passes)
    timed: Dict[int, List[float]] = {}
    for result in passes:
        timed.setdefault(result["seed"], []).append(result["timed_s"])
    qcts = [qct for result in inputs for qct in result["qcts"]]
    # The tail is taken per input and averaged: pooled, the percentile
    # climbs with the sample count and follows one input's worst queries.
    tail_pcts = [tail_percentile(len(result["qcts"])) for result in inputs]
    if None in tail_pcts:
        raise ValueError("an input has fewer than 20 QCT samples: no tail percentile")
    tails = [
        percentile(result["qcts"], pct) for result, pct in zip(inputs, tail_pcts)
    ]
    metrics = {
        "setup_s": median([result["setup_s"] for result in passes]),
        "queries_per_s": sum(
            result["executed"] + result["cached"] for result in inputs
        ) / sum(median(timed[result["seed"]]) for result in inputs),
        "peak_rss_mb": median([result["rss_mb"] for result in passes]),
        "sim_qct_p50_s": percentile(qcts, 50.0),
        "sim_qct_tail_s": sum(tails) / len(tails),
        "sim_wan_gb": sum(result["wan_bytes"] for result in inputs)
        / len(inputs) / 1e9,
        "sim_slo_attain": sum(result["slo_met"] for result in inputs)
        / sum(result["slo_offered"] for result in inputs),
    }
    extra = {
        "tail_pcts": sorted(set(tail_pcts)),
        "samples": [len(result["qcts"]) for result in inputs],
    }
    if inputs[0]["iridium_c_mean_qct"]:
        extra["sim_qct_ratio_bohr_iridium_c"] = sum(
            result["bohr_mean_qct"] for result in inputs
        ) / sum(result["iridium_c_mean_qct"] for result in inputs)
    return metrics, extra


def _sum(ledger: Dict[str, float], *keys: str) -> float:
    return sum(ledger[key] for key in keys)


def layer_metrics(traced: Dict) -> Dict[str, float]:
    """The per-layer ledger of one traced pass."""
    ledger, layer = traced["ledger"], traced["layer"]
    flows = ledger["transfer.WanSession.submit.items"]
    wan_self = ledger["layer.wan.self_s"]
    lookups = layer.get("cache_lookups", 0.0)
    return {
        "wan.self_s": wan_self,
        "wan.calls": _sum(
            ledger, "transfer.TransferScheduler.simulate.calls",
            "transfer.WanSession.advance.calls", "transfer.WanSession.submit.calls",
        ),
        "wan.flows": flows,
        "wan.us_per_flow": 1e6 * wan_self / flows if flows else 0.0,
        "placement.lp_build_s": _sum(
            ledger, "lp.solve_data_lp.self_s", "lp.solve_task_lp.self_s"
        ),
        "placement.lp_solve_s": ledger["solver.solve_lp.total_s"],
        "placement.lp_calls": ledger["solver.solve_lp.calls"],
        "placement.plan_self_s": _sum(
            ledger, "joint.JointPlanner.plan.self_s", "iridium.IridiumPlanner.plan.self_s"
        ),
        "placement.move_s": ledger["plan.execute_plan.self_s"],
        "placement.moved_gb": ledger["plan.execute_plan.items"] / 1e9,
        "engine.self_s": ledger["layer.engine.self_s"],
        "engine.jobs": ledger["job.MapReduceEngine.plan_job.calls"],
        "olap.build_s": ledger["dimension_cube.DimensionCubeSet.build.self_s"],
        "olap.builds": ledger["dimension_cube.DimensionCubeSet.build.calls"],
        "similarity.probe_s": ledger["probes.ProbeBuilder.build.self_s"],
        "similarity.check_s": ledger[
            "checker.SimilarityChecker.check_against_sites.self_s"
        ],
        "similarity.checks": ledger["checker.SimilarityChecker.check_against_sites.calls"],
        "core.prepare_s": ledger.get("controller.Controller.prepare.median_s", 0.0),
        "core.prepares": ledger["controller.Controller.prepare.calls"],
        "core.query_ms_p50": 1e3
        * ledger.get("controller.Controller.run_query.median_s", 0.0),
        "core.place_new_data_s": ledger["controller.Controller.place_new_data.total_s"],
        "serve.loop_self_s": ledger["scheduler.ServeScheduler.run.self_s"],
        "serve.cache_hit_ratio": layer.get("cache_hits", 0.0) / lookups if lookups else 0.0,
        "serve.cache_evictions": layer.get("cache_evictions", 0.0),
        "serve.invalidations": layer.get("invalidations", 0.0),
        "serve.queue_wait_s": layer.get("queue_wait_s", 0.0),
        "serve.wan_contention_s": layer.get("wan_contention_s", 0.0),
        "obs.events": layer.get("events", 0.0),
        "obs.analyze_s": _sum(
            ledger, "critpath.analyze_critical_paths.total_s",
            "slo.SloTracker.observe_events.total_s", "slo.SloTracker.finalize.total_s",
        ),
        "workloads.gen_s": ledger["layer.workloads.self_s"],
    }


def character(workload: str, traced: Dict) -> List[str]:
    """Where this input departs from the workload's predicted character."""
    ledger, layer = traced["ledger"], traced["layer"]
    selfs = {
        key.split(".")[1]: value
        for key, value in ledger.items() if key.startswith("layer.")
    }
    top = max(selfs, key=selfs.get)
    expected = "placement" if workload == "dynamic-replan" else "wan"
    notes = []
    if top != expected:
        notes.append(f"largest self time is {top} ({selfs[top]:.2f} s), not {expected}")
    events = layer.get("events", 0.0)
    if workload == "serve-zipf":
        for name in ("cache_hits", "cache_evictions", "invalidations"):
            if not layer.get(name):
                notes.append(f"no {name.replace('_', ' ')}")
        if traced["shed"]:
            notes.append(f"{traced['shed']} shed")
    elif events:
        notes.append(f"{events:.0f} telemetry events")
    return notes


def per_layer(workload: str, passes: List[Dict]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced run (mean over its traced inputs),
    and the problems that fail it: entry points never called, sanitizer
    violations."""
    traced = [result for result in passes if result["mode"] == "traced"]
    plain = {r["seed"]: r["timed_s"] for r in passes if r["mode"] == "plain"}
    bare = {r["seed"]: r["timed_s"] for r in passes if r["mode"] == "bare"}
    rows = [layer_metrics(result) for result in traced]
    metrics = {
        name: sum(row[name] for row in rows) / len(rows) for name in rows[0]
    }
    base = sum(plain[result["seed"]] for result in traced)
    metrics["trace.overhead_frac"] = (
        sum(result["timed_s"] for result in traced) / base - 1.0
    )
    metrics["obs.overhead_frac"] = (
        sum(plain[seed] for seed in bare) / sum(bare.values()) - 1.0 if bare else 0.0
    )
    problems = []
    for result in traced:
        if result["missing"]:
            problems.append(
                f"seed {result['seed']}: never called {', '.join(result['missing'])}"
            )
        problems.extend(
            f"seed {result['seed']}: sanitizer: {violation}"
            for violation in result["violations"]
        )
    return metrics, problems


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def environment() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} ?")
    head = os.path.join(ROOT, ".git", "HEAD")
    sha = "unknown"
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            target = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(target):
                with open(target, encoding="utf-8") as handle:
                    sha = handle.read().strip()
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"{', '.join(versions)}, git {sha[:12]}"
    )


def _show(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PANEL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the running pass instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    definitions = load_definitions()
    units = {
        entry["name"]: entry["unit"]
        for entry in definitions["end_to_end"] + definitions["per_layer"]
    }
    print(f"{args.workload}: seed {args.seed}, inputs "
          f"{input_seeds(args.workload, args.seed)}; {environment()}")
    try:
        if args.trace:
            passes = traced_schedule(args.workload, args.seed, args.seconds)
        else:
            passes = schedule(args.workload, args.seed, args.seconds)
    except PassFailed as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1

    for result in passes:
        print(
            f"  pass seed {result['seed']:>5d} {result['mode']:6s} set-up "
            f"{result['setup_s']:7.3f} s  timed {result['timed_s']:8.3f} s"
        )
    problems = check_repeats(passes)
    for result in distinct_inputs(passes):
        problems.extend(f"seed {result['seed']}: {error}" for error in result["errors"])
        for claim in result["claims"]:
            print(f"  claim not met (seed {result['seed']}): {claim}")
    counts = account(passes)
    if args.trace:
        metrics, failures = per_layer(args.workload, passes)
        problems.extend(failures)
        for result in passes:
            if result["mode"] == "traced":
                notes = character(args.workload, result)
                verdict = "holds" if not notes else "changed: " + "; ".join(notes)
                print(f"  character (seed {result['seed']}): {verdict}")
                ranking = sorted(
                    (
                        (value, key.split(".")[1])
                        for key, value in result["ledger"].items()
                        if key.startswith("layer.")
                    ),
                    reverse=True,
                )
                print("    self time by layer: " + ", ".join(
                    f"{layer} {value:.2f} s" for value, layer in ranking
                ))
        shown = metrics
    else:
        metrics, extra = end_to_end(passes)
        shown = dict(metrics)
        shown["failed_frac"] = counts["failed"] / counts["attempted"]
        if "sim_qct_ratio_bohr_iridium_c" in extra:
            shown["sim_qct_ratio_bohr_iridium_c"] = extra["sim_qct_ratio_bohr_iridium_c"]
    for name, value in shown.items():
        note = ""
        if name == "sim_qct_tail_s":
            pcts = "/".join(f"p{pct:g}" for pct in extra["tail_pcts"])
            note = (
                f"  (mean over inputs of each one's {pcts}; samples per "
                f"input {extra['samples']})"
            )
        print(f"  {name:32s} {_show(value):>12s} {units[name]}{note}")
    print(
        f"  passes {len(passes)}, attempted {counts['attempted']}, "
        f"failed {counts['failed']}"
    )
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
